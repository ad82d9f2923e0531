//! Fixture-driven rule tests plus the live-workspace gate: the real
//! tree must scan clean, and deliberate corruptions (a hash map in a
//! `crates/lsn` hot path, a typo'd scenario key) must be caught.

use ssplane_lint::rules::{scan_rust, Rule, ALL_RULES};
use ssplane_lint::schema::{extract_keys, validate_scenario};
use ssplane_lint::{rules_for_path, scan_workspace, Finding};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scan_fixture(name: &str, rules: &[Rule]) -> Vec<Finding> {
    scan_rust(name, &fixture(name), rules).0
}

/// The live schema surface, extracted exactly as the workspace scan
/// extracts it.
fn live_keys() -> BTreeSet<String> {
    ssplane_lint::live_keys(&workspace_root()).expect("schema extraction")
}

/// The 74-key surface as it stood before the key table: extraction from
/// the real `keys.rs` must find exactly these.
const SURFACE: [&str; 74] = [
    "name",
    "seed",
    "design.kind",
    "design.kinds",
    "design.altitude_km",
    "design.min_elevation_deg",
    "design.sat_capacity",
    "design.rgt_revs",
    "design.rgt_days",
    "design.rgt_inclination_deg",
    "design.max_planes",
    "design.branch_rule",
    "design.walker_shell_spacing_km",
    "design.walker_supply_model",
    "design.walker_inclinations_deg",
    "design.slim_plane_factor",
    "design.slim_min_planes",
    "design.starlink_scale",
    "demand.total_demand_b",
    "demand.lat_bins",
    "demand.tod_bins",
    "demand.seed",
    "radiation.enabled",
    "radiation.solar",
    "radiation.epoch",
    "radiation.phases",
    "radiation.step_s",
    "survivability.enabled",
    "survivability.horizon_years",
    "survivability.resupply_days",
    "survivability.per_satellite",
    "survivability.failure.kind",
    "survivability.failure.infant_shape",
    "survivability.failure.infant_scale_years",
    "survivability.failure.wearout_shape",
    "survivability.failure.wearout_scale_years",
    "survivability.failure.electron_accel",
    "survivability.failure.proton_accel",
    "failures.baseline_per_year",
    "failures.electron_coeff",
    "failures.proton_coeff",
    "spares.policy",
    "spares.count",
    "spares.replacement_days",
    "attack.kind",
    "attack.planes_lost",
    "attack.sats_lost",
    "attack.band_min_deg",
    "attack.band_max_deg",
    "attack.shell",
    "attack.objective",
    "attack.unit",
    "attack.budget",
    "attack.restarts",
    "attack.swaps",
    "attack.damage_threshold",
    "network.enabled",
    "network.with_outages",
    "network.n_flows",
    "network.utc_hour",
    "network.min_elevation_deg",
    "network.max_range_km",
    "network.slots",
    "network.slot_s",
    "network.time_grid_slots",
    "network.time_grid_slot_s",
    "network.percolation",
    "network.percolation_steps",
    "network.percolation_gap",
    "traffic.model",
    "traffic.pairs",
    "traffic.sites",
    "traffic.capacity_gbps",
    "traffic.k_paths",
];

#[test]
fn extraction_reads_exactly_the_live_surface() {
    let expected: BTreeSet<String> = SURFACE.iter().map(|k| k.to_string()).collect();
    assert_eq!(expected.len(), SURFACE.len(), "SURFACE lists a key twice");
    assert_eq!(live_keys(), expected);
}

#[test]
fn extraction_fails_loudly_without_the_table() {
    let missing = ssplane_lint::live_keys(Path::new("no-such-workspace")).unwrap_err();
    assert!(missing.contains("cannot read the schema source"), "{missing}");
    let src = std::fs::read_to_string(workspace_root().join(ssplane_lint::KEYS_RS)).unwrap();
    // Dropping all but the first few rows trips the key-count floor.
    let cut = src.find("(\"design.altitude_km\"").expect("row present");
    let end = src[cut..].find("];").expect("table end") + cut;
    let truncated = format!("{}{}", &src[..cut], &src[end..]);
    let err = extract_keys(&truncated).unwrap_err();
    assert!(err.contains("found only 4 keys"), "{err}");
}

#[test]
fn hash_iter_positive_and_negative() {
    let findings = scan_fixture("hash_iter_pos.rs", &ALL_RULES);
    assert!(!findings.is_empty(), "positive fixture must trip hash-iter");
    assert!(findings.iter().all(|f| f.rule == "hash-iter"), "{findings:?}");
    assert!(scan_fixture("hash_iter_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn wall_clock_positive_and_negative() {
    let findings = scan_fixture("wall_clock_pos.rs", &ALL_RULES);
    assert!(findings.len() >= 2, "Instant::now and SystemTime must both trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "wall-clock"), "{findings:?}");
    assert!(scan_fixture("wall_clock_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn unseeded_rng_positive_and_negative() {
    let findings = scan_fixture("unseeded_rng_pos.rs", &ALL_RULES);
    assert!(findings.len() >= 2, "thread_rng and from_entropy must both trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "unseeded-rng"), "{findings:?}");
    assert!(scan_fixture("unseeded_rng_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn lossy_cast_positive_and_negative() {
    let findings = scan_fixture("lossy_cast_pos.rs", &ALL_RULES);
    assert_eq!(findings.len(), 2, "`as u32` and `as usize` must both trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "lossy-cast"), "{findings:?}");
    // Float targets, try_from, and `use … as …` renames are all clean.
    assert!(scan_fixture("lossy_cast_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn raw_thread_positive_and_negative() {
    let findings = scan_fixture("raw_thread_pos.rs", &ALL_RULES);
    let lines: BTreeSet<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(
        lines.len(),
        3,
        "available_parallelism, thread::scope and thread::spawn must each trip: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "raw-thread"), "{findings:?}");
    assert!(scan_fixture("raw_thread_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn raw_thread_exempts_only_the_par_module() {
    assert!(!rules_for_path("crates/astro/src/par.rs").contains(&Rule::RawThread));
    for path in ["crates/scenario/src/runner.rs", "crates/lsn/src/snapshot.rs", "src/lib.rs"] {
        assert!(rules_for_path(path).contains(&Rule::RawThread), "{path}");
    }
}

#[test]
fn raw_heap_positive_and_negative() {
    let findings = scan_fixture("raw_heap_pos.rs", &ALL_RULES);
    let lines: BTreeSet<usize> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines.len(), 2, "the import and the constructor must each trip: {findings:?}");
    assert!(findings.iter().all(|f| f.rule == "raw-heap"), "{findings:?}");
    assert!(scan_fixture("raw_heap_neg.rs", &ALL_RULES).is_empty());
}

#[test]
fn raw_heap_exempts_only_the_kernel_module() {
    assert!(!rules_for_path("crates/lsn/src/routing.rs").contains(&Rule::RawHeap));
    for path in ["crates/lsn/src/traffic_engine.rs", "crates/lsn/src/topology.rs", "src/lib.rs"] {
        assert!(rules_for_path(path).contains(&Rule::RawHeap), "{path}");
    }
}

#[test]
fn lossy_cast_only_fires_where_enabled() {
    // The same source is clean when scanned with a non-lsn rule set.
    let rules = rules_for_path("crates/scenario/src/runner.rs");
    assert!(!rules.contains(&Rule::LossyCast));
    assert!(scan_fixture("lossy_cast_pos.rs", &rules).is_empty());
}

#[test]
fn allow_annotations_suppress_and_malformed_allows_are_findings() {
    let (findings, allows) = scan_rust("allows.rs", &fixture("allows.rs"), &ALL_RULES);
    // Trailing hash-iter allow and standalone wall-clock allow suppress;
    // the justification-free lossy-cast allow suppresses nothing and is
    // itself flagged.
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"bad-allow"), "{findings:?}");
    assert!(rules.contains(&"lossy-cast"), "malformed allow must not suppress: {findings:?}");
    assert!(!rules.contains(&"wall-clock"), "{findings:?}");
    // The second HashMap mention (no annotation) still trips.
    assert!(rules.contains(&"hash-iter"), "{findings:?}");
    assert_eq!(findings.iter().filter(|f| f.rule == "hash-iter").count(), 1);
    assert_eq!(allows.declared(), 2);
    assert_eq!(allows.used(), 2);
}

#[test]
fn schema_accepts_clean_and_rejects_typos() {
    let keys = live_keys();
    let mut findings = Vec::new();
    validate_scenario("scenario_clean.toml", &fixture("scenario_clean.toml"), &keys, &mut findings);
    assert!(findings.is_empty(), "{findings:?}");

    validate_scenario("scenario_typo.toml", &fixture("scenario_typo.toml"), &keys, &mut findings);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "scenario-schema"));
    let typo = &findings[0];
    assert!(typo.message.contains("attack.planes_lots"), "{typo}");
    assert!(typo.message.contains("did you mean `attack.planes_lost`"), "{typo}");
    assert!(findings[1].message.contains("made_up.knob"), "{}", findings[1]);
    assert!(findings[2].message.contains("cannot be a sweep axis"), "{}", findings[2]);
}

#[test]
fn live_workspace_is_clean() {
    let report = scan_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the workspace must lint clean; findings:\n{}",
        report.findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
    // Every allow must be justified AND load-bearing — a stale allow
    // (declared but suppressing nothing) fails here.
    assert_eq!(report.allows.declared, report.allows.used, "stale allow annotation");
    assert!(report.allows.declared <= 4, "allow budget exceeded: {}", report.allows.declared);
    assert!(report.files_scanned > 50, "scan missed the tree: {}", report.files_scanned);
    assert!(report.scenarios_checked >= 10, "scan missed scenarios: {}", report.scenarios_checked);
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = workspace_root();
    let a = scan_workspace(&root).expect("scan");
    let b = scan_workspace(&root).expect("scan");
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn corrupting_lsn_code_is_caught() {
    // The acceptance corruption: a hash map introduced into a crates/lsn
    // hot path must produce findings under that path's rule set.
    let rules = rules_for_path("crates/lsn/src/percolation.rs");
    let corrupt = "pub fn bad(n: u64) -> usize {\n    let m = std::collections::HashMap::<u64, \
                   u64>::new();\n    m.len() + n as usize\n}\n";
    let (findings, _) = scan_rust("crates/lsn/src/percolation.rs", corrupt, &rules);
    let rules_hit: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(rules_hit.contains("hash-iter"), "{findings:?}");
    assert!(rules_hit.contains("lossy-cast"), "{findings:?}");
}

#[test]
fn corrupting_a_scenario_key_is_caught() {
    // The acceptance corruption: typo one key of a real shipped scenario.
    let keys = live_keys();
    let baseline = std::fs::read_to_string(workspace_root().join("scenarios/baseline.toml"))
        .expect("baseline scenario readable");
    let corrupt = baseline.replacen("[spares]", "[spare]", 1);
    assert_ne!(baseline, corrupt, "corruption did not apply");
    let mut findings = Vec::new();
    validate_scenario("scenarios/baseline.toml", &corrupt, &keys, &mut findings);
    assert!(!findings.is_empty(), "typo'd section must be flagged");
    assert!(findings.iter().all(|f| f.rule == "scenario-schema"));
}
