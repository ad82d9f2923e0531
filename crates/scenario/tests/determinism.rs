//! The engine's reproducibility contract, pinned end to end:
//!
//! 1. running the same `SweepSpec` twice produces **byte-identical**
//!    JSON-lines output;
//! 2. so does running it under different thread counts;
//! 3. per-scenario seeds are stable under sweep-axis reordering.

use proptest::prelude::*;
use ssplane_scenario::runner::{execute_scenario, Runner};
use ssplane_scenario::spec::ScenarioSpec;
use ssplane_scenario::sweep::{SweepAxis, SweepSpec};
use ssplane_scenario::toml::TomlValue;

/// A cheap but full-pipeline sweep: tiny demand, coarse fluence step,
/// short horizon — every stochastic stage (demand synthesis, fluence
/// sampling, survivability) still runs.
fn test_sweep() -> SweepSpec {
    let mut base = ScenarioSpec::named("determinism");
    base.demand.total_demand_b = 4.0;
    base.demand.lat_bins = 18;
    base.demand.tod_bins = 12;
    base.radiation.phases = 1;
    base.radiation.step_s = 600.0;
    base.survivability.horizon_years = 2.0;
    SweepSpec {
        base,
        axes: vec![
            SweepAxis {
                param: "demand.total_demand_b".to_string(),
                values: vec![TomlValue::Float(3.0), TomlValue::Float(7.0)],
            },
            SweepAxis {
                param: "spares.count".to_string(),
                values: vec![TomlValue::Int(1), TomlValue::Int(4)],
            },
        ],
    }
}

#[test]
fn same_sweep_twice_is_byte_identical() {
    let sweep = test_sweep();
    let a = Runner::with_threads(2).run_sweep(&sweep).unwrap().to_jsonl();
    let b = Runner::with_threads(2).run_sweep(&sweep).unwrap().to_jsonl();
    assert!(!a.is_empty());
    assert_eq!(a.lines().count(), 4);
    assert_eq!(a.as_bytes(), b.as_bytes());
}

/// A sweep whose points all share their SS and Walker designs (the axis
/// only moves the spare budget), so every point asks the runner's
/// shared fluence cache for the same integrals.
fn shared_design_sweep() -> SweepSpec {
    let mut base = test_sweep().base;
    base.name = "shared-designs".to_string();
    base.radiation.phases = 2;
    SweepSpec {
        base,
        axes: vec![SweepAxis {
            param: "spares.count".to_string(),
            values: (0..7).map(TomlValue::Int).collect(),
        }],
    }
}

#[test]
fn thread_count_does_not_change_the_bytes() {
    for sweep in [test_sweep(), shared_design_sweep()] {
        let serial = Runner::with_threads(1).run_sweep(&sweep).unwrap().to_jsonl();
        for threads in [2, 4, 7] {
            let parallel = Runner::with_threads(threads).run_sweep(&sweep).unwrap().to_jsonl();
            assert_eq!(
                serial.as_bytes(),
                parallel.as_bytes(),
                "{}: thread count {threads} changed the output",
                sweep.base.name
            );
        }
    }
    // Points sharing a design report the same fluence block.
    let outcome = Runner::with_threads(7).run_sweep(&shared_design_sweep()).unwrap();
    let fluence = |i: usize| &outcome.reports[i].as_ref().unwrap().system("ss").unwrap().fluence;
    assert!(fluence(0).is_some());
    for i in 1..outcome.reports.len() {
        assert_eq!(fluence(i), fluence(0), "point {i}");
    }
}

#[test]
fn seeds_and_reports_stable_under_axis_reordering() {
    let forward = test_sweep();
    let reversed = SweepSpec {
        base: forward.base.clone(),
        axes: vec![forward.axes[1].clone(), forward.axes[0].clone()],
    };

    // Same parameter points, same seeds — independent of grid order.
    let mut seeds_fwd: Vec<(String, u64)> =
        forward.expand().unwrap().into_iter().map(|s| (s.name.clone(), s.seed)).collect();
    let mut seeds_rev: Vec<(String, u64)> =
        reversed.expand().unwrap().into_iter().map(|s| (s.name.clone(), s.seed)).collect();
    seeds_fwd.sort();
    seeds_rev.sort();
    assert_eq!(seeds_fwd, seeds_rev);

    // And therefore the same reports, line for line once sorted by name
    // (enumeration order legitimately differs).
    let runner = Runner::with_threads(3);
    let mut lines_fwd: Vec<String> =
        runner.run_sweep(&forward).unwrap().to_jsonl().lines().map(str::to_string).collect();
    let mut lines_rev: Vec<String> =
        runner.run_sweep(&reversed).unwrap().to_jsonl().lines().map(str::to_string).collect();
    lines_fwd.sort();
    lines_rev.sort();
    assert_eq!(lines_fwd, lines_rev);
}

#[test]
fn distinct_points_get_distinct_seeds() {
    let specs = test_sweep().expand().unwrap();
    let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), specs.len(), "seed collision across grid points");
}

/// A cheap design-only scenario over every registry family (the catalog
/// designer is scaled down so the full 5-system permutation stays cheap).
fn all_kinds_spec(kinds: Vec<&'static str>) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("kinds-order");
    spec.demand.total_demand_b = 4.0;
    spec.demand.lat_bins = 18;
    spec.demand.tod_bins = 12;
    spec.radiation.enabled = false;
    spec.survivability.enabled = false;
    spec.design.starlink_scale = 0.1;
    spec.design.kinds = kinds;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The redesign's ordering contract as a property: however a spec
    /// permutes (or duplicates) `design.kinds`, the report bytes are
    /// those of the canonical registry order.
    #[test]
    fn kinds_ordering_never_changes_report_bytes(perm in 0usize..120, dup in 0usize..6) {
        let canonical = vec!["ss", "wd", "rgt", "slim", "starlink"];
        let reference = execute_scenario(&all_kinds_spec(canonical.clone()))
            .expect("canonical run succeeds")
            .to_json_line();

        // The `perm`-th permutation of the registry, Lehmer-decoded.
        let mut pool = canonical.clone();
        let mut shuffled = Vec::with_capacity(5);
        let mut code = perm;
        for radix in (1..=pool.len()).rev() {
            shuffled.push(pool.remove(code % radix));
            code /= radix;
        }
        if dup < shuffled.len() {
            let extra = shuffled[dup];
            shuffled.push(extra);
        }

        let line = execute_scenario(&all_kinds_spec(shuffled.clone()))
            .expect("permuted run succeeds")
            .to_json_line();
        prop_assert_eq!(&line, &reference, "kinds {:?} changed the bytes", shuffled);
    }
}
