//! The scenario-key table: every dotted parameter path a scenario file or
//! sweep axis may set, with the coercion its value goes through and the
//! spec field(s) it writes.
//!
//! [`SCENARIO_KEYS`] is the *entire* config surface. The TOML loader and
//! sweep expansion both funnel through [`crate::sweep::apply_param`],
//! which looks the key up here, and `ssplane-lint` reads the key names
//! from this file to check `scenarios/*.toml` statically. Enum-valued
//! keys parse through token tables — canonical spelling first, aliases
//! after — read by one [`parse_token`] / [`token_str`] pair.

use crate::error::{Result, ScenarioError};
use crate::spec::{
    parse_design_kinds, resolve_design_kind, AttackKind, AttackUnit, FailureKind, ScenarioSpec,
    SolarActivity, TrafficModel,
};
use crate::sweep::canonical_value;
use crate::toml::TomlValue;
use ssplane_core::designer::BranchRule;
use ssplane_core::walker_baseline::SupplyModel;
use ssplane_lsn::optimizer::AttackObjective;
use ssplane_lsn::spares::SparePolicy::{self, PerPlane, SharedPool};
use Setter::{Bool, Raw, Str, Usize, F64, U64};

/// How a key's value is coerced before the row's setter writes it.
#[derive(Debug, Clone, Copy)]
pub enum Setter {
    /// A number (integers widen).
    F64(fn(&mut ScenarioSpec, f64)),
    /// A non-negative integer.
    Usize(fn(&mut ScenarioSpec, usize)),
    /// A non-negative 64-bit integer (the seeds).
    U64(fn(&mut ScenarioSpec, u64)),
    /// A boolean.
    Bool(fn(&mut ScenarioSpec, bool)),
    /// A string, passed with the key so token errors can name it.
    Str(fn(&mut ScenarioSpec, &str, &str) -> Result<()>),
    /// The raw value, for keys that coerce it themselves (arrays and
    /// range-checked integers).
    Raw(fn(&mut ScenarioSpec, &str, &TomlValue) -> Result<()>),
}

impl Setter {
    /// Coerces `value` for `key` and writes it into `spec`.
    ///
    /// # Errors
    /// [`ScenarioError::BadValue`] when the value does not coerce.
    pub(crate) fn apply(self, spec: &mut ScenarioSpec, key: &str, value: &TomlValue) -> Result<()> {
        match self {
            F64(set) => set(spec, need_f64(key, value)?),
            Usize(set) => set(spec, need_usize(key, value)?),
            U64(set) => set(spec, need(key, value, value.as_u64(), "a non-negative integer")?),
            Bool(set) => set(spec, need(key, value, value.as_bool(), "a boolean")?),
            Str(set) => set(spec, key, need_str(key, value)?)?,
            Raw(set) => set(spec, key, value)?,
        }
        Ok(())
    }
}

/// Every scenario key, in the order the config surface grew: the
/// top-level scalars, then one block per `[section]`.
pub const SCENARIO_KEYS: &[(&str, Setter)] = &[
    ("name", Str(set_name)),
    ("seed", U64(|s, n| s.seed = n)),
    // `design.kind` is the scalar spelling (kept for back-compat: `"both"`
    // still selects the paper's SS + Walker pair); `design.kinds` is the
    // open list form.
    ("design.kind", Str(|s, _, t| parse_design_kinds(t).map(|k| s.design.kinds = k))),
    ("design.kinds", Raw(set_design_kinds)),
    ("design.altitude_km", F64(set_altitude)),
    ("design.min_elevation_deg", F64(set_min_elevation)),
    ("design.sat_capacity", F64(set_sat_capacity)),
    ("design.rgt_revs", Raw(|s, k, v| need_u32(k, v).map(|n| s.design.rgt.revs = n))),
    ("design.rgt_days", Raw(|s, k, v| need_u32(k, v).map(|n| s.design.rgt.days = n))),
    ("design.rgt_inclination_deg", F64(|s, x| s.design.rgt.inclination_deg = x)),
    ("design.max_planes", Usize(|s, n| s.design.ss.max_planes = n)),
    (
        "design.branch_rule",
        Str(|s, k, t| set_token(k, BRANCH_RULES, t, &mut s.design.ss.branch_rule)),
    ),
    ("design.walker_shell_spacing_km", F64(|s, x| s.design.wd.shell_spacing_km = x)),
    (
        "design.walker_supply_model",
        Str(|s, k, t| set_token(k, SUPPLY_MODELS, t, &mut s.design.wd.supply_model)),
    ),
    ("design.walker_inclinations_deg", Raw(set_walker_inclinations)),
    ("design.slim_plane_factor", F64(|s, x| s.design.slim_plane_factor = x)),
    ("design.slim_min_planes", Usize(|s, n| s.design.slim_min_planes = n)),
    ("design.starlink_scale", F64(|s, x| s.design.starlink_scale = x)),
    ("demand.total_demand_b", F64(|s, x| s.demand.total_demand_b = x)),
    ("demand.lat_bins", Usize(|s, n| s.demand.lat_bins = n)),
    ("demand.tod_bins", Usize(|s, n| s.demand.tod_bins = n)),
    ("demand.seed", U64(|s, n| s.demand.seed = n)),
    ("radiation.enabled", Bool(|s, b| s.radiation.enabled = b)),
    ("radiation.solar", Str(|s, k, t| set_token(k, SOLAR_ACTIVITIES, t, &mut s.radiation.solar))),
    ("radiation.epoch", Str(|s, k, t| parse_ymd(k, t).map(|d| s.radiation.epoch_ymd = d))),
    ("radiation.phases", Usize(|s, n| s.radiation.phases = n.max(1))),
    ("radiation.step_s", F64(|s, x| s.radiation.step_s = x)),
    ("survivability.enabled", Bool(|s, b| s.survivability.enabled = b)),
    ("survivability.horizon_years", F64(|s, x| s.survivability.horizon_years = x)),
    ("survivability.resupply_days", F64(|s, x| s.survivability.resupply_days = x)),
    ("survivability.per_satellite", Bool(|s, b| s.survivability.per_satellite = b)),
    (
        "survivability.failure.kind",
        Str(|s, k, t| set_token(k, FAILURE_KINDS, t, &mut s.survivability.failure_kind)),
    ),
    ("survivability.failure.infant_shape", F64(|s, x| s.survivability.weibull.infant_shape = x)),
    (
        "survivability.failure.infant_scale_years",
        F64(|s, x| s.survivability.weibull.infant_scale_years = x),
    ),
    ("survivability.failure.wearout_shape", F64(|s, x| s.survivability.weibull.wearout_shape = x)),
    (
        "survivability.failure.wearout_scale_years",
        F64(|s, x| s.survivability.weibull.wearout_scale_years = x),
    ),
    (
        "survivability.failure.electron_accel",
        F64(|s, x| s.survivability.weibull.electron_accel = x),
    ),
    ("survivability.failure.proton_accel", F64(|s, x| s.survivability.weibull.proton_accel = x)),
    ("failures.baseline_per_year", F64(|s, x| s.survivability.failure.baseline_per_year = x)),
    ("failures.electron_coeff", F64(|s, x| s.survivability.failure.electron_coeff = x)),
    ("failures.proton_coeff", F64(|s, x| s.survivability.failure.proton_coeff = x)),
    ("spares.policy", Str(set_spare_policy)),
    ("spares.count", Usize(|s, n| respare(s, None, Some(n), None))),
    ("spares.replacement_days", F64(|s, x| respare(s, None, None, Some(x)))),
    ("attack.kind", Str(|s, k, t| set_token(k, ATTACK_KINDS, t, &mut s.attack.kind))),
    ("attack.planes_lost", Usize(|s, n| s.attack.planes_lost = n)),
    ("attack.sats_lost", Usize(|s, n| s.attack.sats_lost = n)),
    ("attack.band_min_deg", F64(|s, x| s.attack.band_min_deg = x)),
    ("attack.band_max_deg", F64(|s, x| s.attack.band_max_deg = x)),
    ("attack.shell", Usize(|s, n| s.attack.shell = n)),
    ("attack.objective", Str(|s, k, t| set_token(k, OBJECTIVES, t, &mut s.attack.objective))),
    ("attack.unit", Str(|s, k, t| set_token(k, ATTACK_UNITS, t, &mut s.attack.unit))),
    ("attack.budget", Usize(|s, n| s.attack.budget = n)),
    ("attack.restarts", Usize(|s, n| s.attack.restarts = n)),
    ("attack.swaps", Usize(|s, n| s.attack.swaps = n)),
    ("attack.damage_threshold", F64(|s, x| s.attack.damage_threshold = x)),
    ("network.enabled", Bool(|s, b| s.network.enabled = b)),
    ("network.with_outages", Bool(|s, b| s.network.with_outages = b)),
    ("network.n_flows", Usize(|s, n| s.network.n_flows = n)),
    ("network.utc_hour", F64(|s, x| s.network.utc_hour = x)),
    ("network.min_elevation_deg", F64(|s, x| s.network.min_elevation_deg = x)),
    ("network.max_range_km", F64(|s, x| s.network.max_range_km = x)),
    ("network.slots", Usize(|s, n| s.network.slots = n)),
    ("network.slot_s", F64(|s, x| s.network.slot_s = x)),
    ("network.time_grid_slots", Usize(|s, n| s.network.time_grid_slots = n)),
    ("network.time_grid_slot_s", F64(|s, x| s.network.time_grid_slot_s = x)),
    ("network.percolation", Bool(|s, b| s.network.percolation = b)),
    ("network.percolation_steps", Usize(|s, n| s.network.percolation_steps = n)),
    ("network.percolation_gap", F64(|s, x| s.network.percolation_gap = x)),
    ("traffic.model", Str(|s, k, t| set_token(k, TRAFFIC_MODELS, t, &mut s.traffic.model))),
    ("traffic.pairs", Usize(|s, n| s.traffic.pairs = n)),
    ("traffic.sites", Usize(|s, n| s.traffic.sites = n)),
    ("traffic.capacity_gbps", F64(|s, x| s.traffic.capacity_gbps = x)),
    ("traffic.k_paths", Usize(|s, n| s.traffic.k_paths = n)),
];

/// `design.branch_rule` tokens.
pub const BRANCH_RULES: &[(&str, BranchRule)] = &[
    ("best-of-both", BranchRule::BestOfBoth),
    ("ascending-only", BranchRule::AscendingOnly),
    ("alternate", BranchRule::Alternate),
];

/// `design.walker_supply_model` tokens.
pub const SUPPLY_MODELS: &[(&str, SupplyModel)] =
    &[("worst-case", SupplyModel::WorstCase), ("time-average", SupplyModel::TimeAverage)];

/// `radiation.solar` tokens.
pub const SOLAR_ACTIVITIES: &[(&str, SolarActivity)] = &[
    ("cycle24", SolarActivity::Cycle24),
    ("mid", SolarActivity::Cycle24),
    ("max", SolarActivity::Max),
    ("solar-max", SolarActivity::Max),
    ("min", SolarActivity::Min),
    ("solar-min", SolarActivity::Min),
];

/// `survivability.failure.kind` tokens.
pub const FAILURE_KINDS: &[(&str, FailureKind)] = &[
    ("exponential", FailureKind::Exponential),
    ("radiation-exponential", FailureKind::Exponential),
    ("weibull", FailureKind::Weibull),
    ("bathtub", FailureKind::Weibull),
];

/// `spares.policy` tokens. The count and replacement time of each
/// template are placeholders: the setter keeps the current policy's.
pub const SPARE_POLICIES: &[(&str, SparePolicy)] = &[
    ("per-plane", PerPlane { spares_per_plane: 0, replacement_days: 0.0 }),
    ("shared-pool", SharedPool { pool_size: 0, replacement_days: 0.0 }),
];

/// `attack.kind` tokens.
pub const ATTACK_KINDS: &[(&str, AttackKind)] = &[
    ("leading-planes", AttackKind::LeadingPlanes),
    ("planes", AttackKind::LeadingPlanes),
    ("random-sats", AttackKind::RandomSats),
    ("random", AttackKind::RandomSats),
    ("declination-band", AttackKind::DeclinationBand),
    ("band", AttackKind::DeclinationBand),
    ("shell", AttackKind::Shell),
    ("optimized", AttackKind::Optimized),
    ("worst-case", AttackKind::Optimized),
];

/// `attack.objective` tokens; each canonical spelling is the
/// objective's [`AttackObjective::as_str`] registry name.
pub const OBJECTIVES: &[(&str, AttackObjective)] = &[
    ("routed-fraction", AttackObjective::RoutedFraction),
    ("routed", AttackObjective::RoutedFraction),
    ("connectivity", AttackObjective::Connectivity),
    ("load-inflation", AttackObjective::LoadInflation),
    ("load", AttackObjective::LoadInflation),
    ("served-demand", AttackObjective::ServedDemand),
    ("served", AttackObjective::ServedDemand),
    ("masking-threshold", AttackObjective::MaskingThreshold),
    ("masking", AttackObjective::MaskingThreshold),
];

/// `attack.unit` tokens.
pub const ATTACK_UNITS: &[(&str, AttackUnit)] =
    &[("planes", AttackUnit::Planes), ("sats", AttackUnit::Sats), ("satellites", AttackUnit::Sats)];

/// `traffic.model` tokens.
pub const TRAFFIC_MODELS: &[(&str, TrafficModel)] = &[
    ("sampled", TrafficModel::Sampled),
    ("flows", TrafficModel::Sampled),
    ("gravity", TrafficModel::Gravity),
];

/// Parses `token` against a token table.
///
/// # Errors
/// [`ScenarioError::BadValue`] for `key`, listing the canonical
/// spellings.
pub fn parse_token<T: Copy + PartialEq>(key: &str, table: &[(&str, T)], token: &str) -> Result<T> {
    if let Some(&(_, value)) = table.iter().find(|&&(t, _)| t == token) {
        return Ok(value);
    }
    let canonical: Vec<&str> = table
        .iter()
        .enumerate()
        .filter(|&(i, (_, v))| table[..i].iter().all(|(_, w)| w != v))
        .map(|(_, &(t, _))| t)
        .collect();
    Err(ScenarioError::bad_value(key, token, &canonical.join(" | ")))
}

/// The canonical token of `value`: the first table row that maps to it.
///
/// # Panics
/// If `value` has no row (every table covers its whole enum; the tests
/// pin that).
pub fn token_str<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table.iter().find(|(_, v)| *v == value).map(|&(t, _)| t).expect("every variant has a token")
}

fn set_token<T: Copy + PartialEq>(k: &str, table: &[(&str, T)], t: &str, f: &mut T) -> Result<()> {
    *f = parse_token(k, table, t)?;
    Ok(())
}

/// `got`, or the bad-value error naming what `key` expected.
fn need<T>(key: &str, v: &TomlValue, got: Option<T>, expected: &str) -> Result<T> {
    got.ok_or_else(|| ScenarioError::bad_value(key, &canonical_value(v), expected))
}

fn need_f64(key: &str, v: &TomlValue) -> Result<f64> {
    need(key, v, v.as_f64(), "a number")
}

fn need_usize(key: &str, v: &TomlValue) -> Result<usize> {
    need(key, v, v.as_usize(), "a non-negative integer")
}

fn need_str<'v>(key: &str, v: &'v TomlValue) -> Result<&'v str> {
    need(key, v, v.as_str(), "a string")
}

fn need_u32(key: &str, v: &TomlValue) -> Result<u32> {
    let n = need_usize(key, v)?;
    need(key, v, u32::try_from(n).ok(), "a small positive integer")
}

/// A non-empty array value, coerced item by item; `expected` names the
/// array and its minimum.
fn need_list<T>(
    key: &str,
    v: &TomlValue,
    expected: [&str; 2],
    item: impl Fn(&TomlValue) -> Result<T>,
) -> Result<Vec<T>> {
    let items =
        need(key, v, v.as_array(), expected[0])?.iter().map(item).collect::<Result<Vec<T>>>()?;
    if items.is_empty() {
        return Err(ScenarioError::bad_value(key, "[]", expected[1]));
    }
    Ok(items)
}

/// Parses `"YYYY-MM-DD"` into `(year, month, day)`.
fn parse_ymd(key: &str, s: &str) -> Result<(i32, u32, u32)> {
    let parts: Vec<&str> = s.split('-').collect();
    let bad = || ScenarioError::bad_value(key, s, "a date 'YYYY-MM-DD'");
    if parts.len() != 3 {
        return Err(bad());
    }
    let y: i32 = parts[0].parse().map_err(|_| bad())?;
    let m: u32 = parts[1].parse().map_err(|_| bad())?;
    let d: u32 = parts[2].parse().map_err(|_| bad())?;
    // The astro crate's calendar conversion (Vallado) is only valid for
    // 1901-2099 and does no legality checking — an out-of-domain year or
    // an impossible date like 06-31 would map to a silently shifted
    // Julian date rather than an error, so both are rejected here.
    if !(1901..=2099).contains(&y) || !(1..=12).contains(&m) {
        return Err(ScenarioError::bad_value(key, s, "a date 'YYYY-MM-DD' with year 1901-2099"));
    }
    let leap = y % 4 == 0; // exact within 1901-2099 (2000 is a leap year)
    let days_in_month =
        [31, if leap { 29 } else { 28 }, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31][(m - 1) as usize];
    if d < 1 || d > days_in_month {
        return Err(ScenarioError::bad_value(
            key,
            s,
            "a calendar-legal date (that month has fewer days)",
        ));
    }
    Ok((y, m, d))
}

fn set_name(s: &mut ScenarioSpec, _: &str, name: &str) -> Result<()> {
    s.name = name.to_string();
    Ok(())
}

fn set_design_kinds(s: &mut ScenarioSpec, key: &str, v: &TomlValue) -> Result<()> {
    let expected = ["an array of design kinds", "at least one design kind"];
    s.design.kinds = need_list(key, v, expected, |i| resolve_design_kind(need_str(key, i)?))?;
    Ok(())
}

fn set_walker_inclinations(s: &mut ScenarioSpec, key: &str, v: &TomlValue) -> Result<()> {
    let expected = ["an array of degrees", "at least one inclination"];
    s.design.wd.candidate_inclinations_deg = need_list(key, v, expected, |i| need_f64(key, i))?;
    Ok(())
}

fn set_altitude(s: &mut ScenarioSpec, alt: f64) {
    s.design.ss.altitude_km = alt;
    s.design.wd.altitude_km = alt;
}

fn set_min_elevation(s: &mut ScenarioSpec, elev: f64) {
    s.design.ss.min_elevation_deg = elev;
    s.design.wd.min_elevation_deg = elev;
    s.design.rgt.min_elevation_deg = elev;
}

fn set_sat_capacity(s: &mut ScenarioSpec, cap: f64) {
    s.design.ss.sat_capacity = cap;
    s.design.wd.sat_capacity = cap;
    s.design.rgt.sat_capacity = cap;
}

fn set_spare_policy(s: &mut ScenarioSpec, key: &str, t: &str) -> Result<()> {
    respare(s, Some(parse_token(key, SPARE_POLICIES, t)?), None, None);
    Ok(())
}

/// Rebuilds the spare policy as `kind`'s variant with `n` spares and `d`
/// days to replace a failure, each defaulting to the current policy's.
fn respare(s: &mut ScenarioSpec, kind: Option<SparePolicy>, n: Option<usize>, d: Option<f64>) {
    let p = s.survivability.policy;
    // One plane's spares: the per-plane count, or the whole shared pool.
    let (n, d) = (n.unwrap_or(p.total_spares(1)), d.unwrap_or(p.replacement_days()));
    s.survivability.policy = match kind.unwrap_or(p) {
        PerPlane { .. } => PerPlane { spares_per_plane: n, replacement_days: d },
        SharedPool { .. } => SharedPool { pool_size: n, replacement_days: d },
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::apply_param;

    #[test]
    fn key_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, _) in SCENARIO_KEYS {
            assert!(seen.insert(name), "`{name}` is listed twice; the later row is unreachable");
            let dotted = name.split('.').count() >= 2
                && name.split('.').all(|seg| {
                    !seg.is_empty() && seg.chars().all(|c| c.is_ascii_lowercase() || c == '_')
                });
            assert!(dotted || name == "name" || name == "seed", "malformed key `{name}`");
        }
        assert_eq!(SCENARIO_KEYS.len(), 74, "the key surface changed size");
    }

    #[test]
    fn every_key_is_in_the_readme_reference() {
        let readme = include_str!("../../../README.md");
        for &(name, _) in SCENARIO_KEYS {
            assert!(readme.contains(&format!("| `{name}` |")), "README has no row for `{name}`");
        }
    }

    /// The full message of a bad token for `key`.
    fn bad_token_message(key: &str) -> String {
        let mut spec = ScenarioSpec::named("x");
        let err = apply_param(&mut spec, key, &TomlValue::Str("bogus".into())).unwrap_err();
        err.to_string()
    }

    fn assert_expected(key: &str, expected: &str) {
        let want = format!("bad value for {key}: got 'bogus', expected {expected}");
        assert_eq!(bad_token_message(key), want);
    }

    #[test]
    fn branch_rule_expected_text() {
        assert_expected("design.branch_rule", "best-of-both | ascending-only | alternate");
    }

    #[test]
    fn supply_model_expected_text() {
        assert_expected("design.walker_supply_model", "worst-case | time-average");
    }

    #[test]
    fn solar_expected_text() {
        assert_expected("radiation.solar", "cycle24 | max | min");
    }

    #[test]
    fn failure_kind_expected_text() {
        assert_expected("survivability.failure.kind", "exponential | weibull");
    }

    #[test]
    fn spare_policy_expected_text() {
        assert_expected("spares.policy", "per-plane | shared-pool");
    }

    #[test]
    fn attack_kind_expected_text() {
        assert_expected(
            "attack.kind",
            "leading-planes | random-sats | declination-band | shell | optimized",
        );
    }

    #[test]
    fn objective_expected_text() {
        assert_expected(
            "attack.objective",
            "routed-fraction | connectivity | load-inflation | served-demand | masking-threshold",
        );
    }

    #[test]
    fn attack_unit_expected_text() {
        assert_expected("attack.unit", "planes | sats");
    }

    #[test]
    fn traffic_model_expected_text() {
        assert_expected("traffic.model", "sampled | gravity");
    }

    /// Every row of `table` parses to its value, and every value's
    /// canonical token parses back to it.
    fn assert_round_trips<T: Copy + PartialEq + std::fmt::Debug>(table: &[(&'static str, T)]) {
        for &(token, value) in table {
            assert_eq!(parse_token("k", table, token).unwrap(), value, "{token}");
            assert_eq!(parse_token("k", table, token_str(table, value)).unwrap(), value);
        }
    }

    #[test]
    fn every_token_and_alias_round_trips() {
        assert_round_trips(BRANCH_RULES);
        assert_round_trips(SUPPLY_MODELS);
        assert_round_trips(SOLAR_ACTIVITIES);
        assert_round_trips(FAILURE_KINDS);
        assert_round_trips(SPARE_POLICIES);
        assert_round_trips(ATTACK_KINDS);
        assert_round_trips(OBJECTIVES);
        assert_round_trips(ATTACK_UNITS);
        assert_round_trips(TRAFFIC_MODELS);
    }

    /// The canonical spelling `alias` stands for in `table`.
    fn canonical<T: Copy + PartialEq>(table: &[(&'static str, T)], alias: &str) -> &'static str {
        token_str(table, parse_token("k", table, alias).unwrap())
    }

    #[test]
    fn aliases_map_to_their_canonical_tokens() {
        for (alias, want) in [("mid", "cycle24"), ("solar-max", "max"), ("solar-min", "min")] {
            assert_eq!(canonical(SOLAR_ACTIVITIES, alias), want);
        }
        for (alias, want) in [("radiation-exponential", "exponential"), ("bathtub", "weibull")] {
            assert_eq!(canonical(FAILURE_KINDS, alias), want);
        }
        for (alias, want) in [
            ("planes", "leading-planes"),
            ("random", "random-sats"),
            ("band", "declination-band"),
            ("worst-case", "optimized"),
        ] {
            assert_eq!(canonical(ATTACK_KINDS, alias), want);
        }
        for (alias, want) in [
            ("routed", "routed-fraction"),
            ("load", "load-inflation"),
            ("served", "served-demand"),
            ("masking", "masking-threshold"),
        ] {
            assert_eq!(canonical(OBJECTIVES, alias), want);
        }
        assert_eq!(canonical(ATTACK_UNITS, "satellites"), "sats");
        assert_eq!(canonical(TRAFFIC_MODELS, "flows"), "sampled");
    }

    #[test]
    fn unknown_key_names_its_nearest_neighbour() {
        let mut spec = ScenarioSpec::named("x");
        let err = apply_param(&mut spec, "attack.plane_lost", &TomlValue::Int(1)).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownParameter {
                key: "attack.plane_lost".into(),
                hint: Some("attack.planes_lost")
            }
        );
        assert!(err.to_string().ends_with("did you mean `attack.planes_lost`?"), "{err}");
        let err = apply_param(&mut spec, "network.time_grid_slot", &TomlValue::Int(1)).unwrap_err();
        assert!(err.to_string().contains("`network.time_grid_slots`"), "{err}");
        // Nothing within three edits: no hint.
        let err = apply_param(&mut spec, "warp.drive", &TomlValue::Int(1)).unwrap_err();
        assert_eq!(err.to_string(), "unknown sweep parameter 'warp.drive'");
    }

    #[test]
    fn spares_keys_keep_the_other_policy_parts() {
        let mut spec = ScenarioSpec::named("x");
        apply_param(&mut spec, "spares.count", &TomlValue::Int(5)).unwrap();
        apply_param(&mut spec, "spares.policy", &TomlValue::Str("shared-pool".into())).unwrap();
        assert_eq!(
            spec.survivability.policy,
            SparePolicy::SharedPool { pool_size: 5, replacement_days: 3.0 }
        );
        apply_param(&mut spec, "spares.replacement_days", &TomlValue::Float(9.0)).unwrap();
        apply_param(&mut spec, "spares.policy", &TomlValue::Str("per-plane".into())).unwrap();
        assert_eq!(
            spec.survivability.policy,
            SparePolicy::PerPlane { spares_per_plane: 5, replacement_days: 9.0 }
        );
    }
}
