//! Bit-parity pins for builtin scenarios: each must keep producing
//! byte-identical JSON-lines.
//!
//! The [`GOLDEN`] fixtures under `tests/golden/` were captured from the
//! pre-refactor engine (fixed `ss_groups`/`wd_groups` paths, SS-only
//! networking); the generic design → attack → fluence → survivability →
//! network pipeline is required to reproduce them exactly — every float,
//! every field, every byte.

use ssplane_scenario::library;
use ssplane_scenario::runner::Runner;

/// The pre-refactor scenario set and its pinned output.
const GOLDEN: &[(&str, &str)] = &[
    ("baseline", include_str!("golden/baseline.jsonl")),
    ("paper-grid", include_str!("golden/paper-grid.jsonl")),
    ("solar-sweep", include_str!("golden/solar-sweep.jsonl")),
    ("plane-attack", include_str!("golden/plane-attack.jsonl")),
    ("spare-budget", include_str!("golden/spare-budget.jsonl")),
    ("mega-constellation", include_str!("golden/mega-constellation.jsonl")),
    ("routing", include_str!("golden/routing.jsonl")),
];

/// Builtins pinned before the per-site worker pools were folded into
/// `ssplane_astro::par::par_map`. Between them they run every parallel
/// step: gravity pair sampling (`traffic-scale`), snapshot propagation
/// (all four), both `score_batch`es and the attack-search refinement
/// (`attack-opt`, `percolation`).
const GOLDEN_PARALLEL: &[(&str, &str)] = &[
    ("attack-opt", include_str!("golden/attack-opt.jsonl")),
    ("traffic-scale", include_str!("golden/traffic-scale.jsonl")),
    ("percolation", include_str!("golden/percolation.jsonl")),
    ("disruption", include_str!("golden/disruption.jsonl")),
];

/// The remaining builtins, pinned before the scenario-key surface moved
/// into one table. Between them they set the slim, starlink and RGT
/// design keys, the time-grid keys and the Walker network stage, so
/// every builtin in the library now has a byte pin.
const GOLDEN_KEYS: &[(&str, &str)] = &[
    ("design-catalog", include_str!("golden/design-catalog.jsonl")),
    ("time-resolved", include_str!("golden/time-resolved.jsonl")),
    ("walker-network", include_str!("golden/walker-network.jsonl")),
    ("design-shootout", include_str!("golden/design-shootout.jsonl")),
];

fn assert_reproduces(pins: &[(&str, &str)]) {
    let runner = Runner::default();
    for (name, golden) in pins {
        let builtin = library::find(name).expect("pinned scenario still shipped");
        let sweep = library::sweep(builtin).expect("pinned scenario parses");
        let outcome = runner.run_sweep(&sweep).expect("pinned scenario expands");
        assert_eq!(outcome.ok_count(), outcome.reports.len(), "{name}: a point failed");
        let jsonl = outcome.to_jsonl();
        // Compare line by line first for a readable failure, then the
        // full byte string (which also catches line-count drift).
        for (i, (got, want)) in jsonl.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "{name} line {i} diverged from its pin");
        }
        assert_eq!(jsonl, *golden, "{name} diverged from its pin");
    }
}

#[test]
fn pre_refactor_scenarios_reproduce_their_pinned_bytes() {
    assert_reproduces(GOLDEN);
}

#[test]
fn parallel_stage_scenarios_reproduce_their_pinned_bytes() {
    assert_reproduces(GOLDEN_PARALLEL);
}

#[test]
fn key_surface_scenarios_reproduce_their_pinned_bytes() {
    assert_reproduces(GOLDEN_KEYS);
}

#[test]
fn every_builtin_is_pinned() {
    let pinned: Vec<&str> =
        GOLDEN.iter().chain(GOLDEN_PARALLEL).chain(GOLDEN_KEYS).map(|&(name, _)| name).collect();
    for builtin in library::BUILTINS {
        assert!(pinned.contains(&builtin.name), "builtin `{}` has no golden", builtin.name);
    }
}
