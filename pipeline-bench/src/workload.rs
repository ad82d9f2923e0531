//! The benchmark's workloads, the passes that run them, and the byte
//! gate every pass goes through.

use crate::host::cpu_seconds;
use ssplane_scenario::config::sweep_from_toml;
use ssplane_scenario::library;
use ssplane_scenario::runner::{Runner, SweepOutcome};
use ssplane_scenario::SweepSpec;
use std::error::Error;
use std::time::Instant;

/// The workload seed at which the committed references apply: the
/// builtins' own `seed` and `demand.seed`.
pub const REFERENCE_SEED: u64 = 42;

/// The six golden-pinned builtins that run with networking off, in the
/// order their goldens concatenate into the `paper-pipeline` reference.
const PAPER_BUILTINS: [(&str, &str); 6] = [
    ("paper-grid", include_str!("../../crates/scenario/tests/golden/paper-grid.jsonl")),
    (
        "mega-constellation",
        include_str!("../../crates/scenario/tests/golden/mega-constellation.jsonl"),
    ),
    ("baseline", include_str!("../../crates/scenario/tests/golden/baseline.jsonl")),
    ("solar-sweep", include_str!("../../crates/scenario/tests/golden/solar-sweep.jsonl")),
    ("spare-budget", include_str!("../../crates/scenario/tests/golden/spare-budget.jsonl")),
    ("plane-attack", include_str!("../../crates/scenario/tests/golden/plane-attack.jsonl")),
];

/// One named set of sweeps. Why each exists is in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own path: design, fluence and survivability.
    PaperPipeline,
    /// The network layers at mega scale, with percolation.
    NetworkGrid,
    /// The optimized attack search under two objectives.
    AttackSearch,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperPipeline, Workload::NetworkGrid, Workload::AttackSearch];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper-pipeline",
            Workload::NetworkGrid => "network-grid",
            Workload::AttackSearch => "attack-search",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Result<Self, Box<dyn Error>> {
        Self::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (expected one of {})", names.join(", ")).into()
        })
    }

    /// The `demand.seed` of a run with workload seed `seed`: the seed
    /// itself, except for `attack-search`, which keeps the builtins'
    /// demand seed. Its served-demand search cost follows the demand
    /// model's city placement so closely (a sweep moved by ±30 % across
    /// seeds 11–16) that a seed-driven model would drown every other
    /// signal; the workload seed still drives its scenario seed, and so
    /// the gravity pairs, the flow sample and the search's random
    /// restarts.
    pub fn demand_seed(self, seed: u64) -> u64 {
        if self == Workload::AttackSearch {
            REFERENCE_SEED
        } else {
            seed
        }
    }

    /// The sweeps one pass runs, generated from `seed`: it becomes every
    /// sweep's base `seed`, and [`Self::demand_seed`] its `demand.seed`,
    /// so the program receives only these specs.
    pub fn sweeps(self, seed: u64) -> Result<Vec<SweepSpec>, Box<dyn Error>> {
        let mut sweeps = match self {
            Workload::PaperPipeline => PAPER_BUILTINS
                .iter()
                .map(|(name, _)| {
                    let builtin =
                        library::find(name).ok_or_else(|| format!("builtin `{name}` is gone"))?;
                    Ok(library::sweep(builtin)?)
                })
                .collect::<Result<Vec<_>, Box<dyn Error>>>()?,
            Workload::NetworkGrid => {
                vec![sweep_from_toml(include_str!("../workloads/network-grid.toml"))?]
            }
            Workload::AttackSearch => {
                vec![sweep_from_toml(include_str!("../workloads/attack-search.toml"))?]
            }
        };
        for sweep in &mut sweeps {
            sweep.base.seed = seed;
            sweep.base.demand.seed = self.demand_seed(seed);
        }
        Ok(sweeps)
    }

    /// The committed report bytes at [`REFERENCE_SEED`]: the builtins'
    /// goldens for `paper-pipeline`, and references captured by
    /// `--capture` for the others.
    pub fn reference(self) -> String {
        match self {
            Workload::PaperPipeline => PAPER_BUILTINS.iter().map(|(_, golden)| *golden).collect(),
            Workload::NetworkGrid => include_str!("../reference/network-grid.jsonl").to_string(),
            Workload::AttackSearch => include_str!("../reference/attack-search.jsonl").to_string(),
        }
    }

    /// Where `--capture` writes the reference, relative to the checkout.
    pub fn reference_path(self) -> Option<String> {
        (self != Workload::PaperPipeline)
            .then(|| format!("pipeline-bench/reference/{}.jsonl", self.name()))
    }
}

/// One pass of a workload: its sweeps through [`Runner::run_sweep`],
/// back to back.
pub struct Pass {
    /// One outcome per sweep, in order.
    pub outcomes: Vec<SweepOutcome>,
    /// Wall clock of the whole pass \[s\].
    pub wall_s: f64,
    /// User + system CPU of the process over the pass \[s\].
    pub cpu_s: f64,
}

impl Pass {
    /// Runs every sweep once.
    pub fn run(runner: &Runner, sweeps: &[SweepSpec]) -> Result<Pass, Box<dyn Error>> {
        let cpu0 = cpu_seconds()?;
        let start = Instant::now();
        let outcomes =
            sweeps.iter().map(|sweep| runner.run_sweep(sweep)).collect::<Result<Vec<_>, _>>()?;
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds()? - cpu0;
        Ok(Pass { outcomes, wall_s, cpu_s })
    }

    /// The pass's report bytes: every sweep's JSON lines, concatenated.
    pub fn jsonl(&self) -> String {
        self.outcomes.iter().map(SweepOutcome::to_jsonl).collect()
    }

    /// Points attempted.
    pub fn points(&self) -> usize {
        self.outcomes.iter().map(|o| o.reports.len()).sum()
    }
}

/// Points of `actual` that failed against `expected`: error records, and
/// lines that differ from the expected line at the same position. A
/// point missing on either side fails; so does a difference no line
/// shows (a trailing newline).
pub fn failed_points(expected: &str, actual: &str) -> usize {
    let want: Vec<&str> = expected.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let failed = (0..want.len().max(got.len()))
        .filter(|&i| match (want.get(i), got.get(i)) {
            (Some(w), Some(line)) => w != line || is_error_record(line),
            _ => true,
        })
        .count();
    if failed == 0 && expected != actual {
        return 1;
    }
    failed
}

/// Whether a JSON line is a failed point's `{"name": …, "error": …}`
/// record (report lines have no `error` key).
fn is_error_record(line: &str) -> bool {
    line.contains("\"error\":")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_passes_itself() {
        for w in Workload::ALL {
            let reference = w.reference();
            assert!(reference.lines().count() >= 2, "{} reference is empty", w.name());
            assert_eq!(failed_points(&reference, &reference), 0, "{}", w.name());
        }
    }

    #[test]
    fn one_corrupted_byte_fails_exactly_one_point() {
        for w in Workload::ALL {
            let reference = w.reference();
            let mut corrupt = reference.clone().into_bytes();
            // A digit in the middle of the reference, so the line stays
            // valid JSON and only its bytes give it away.
            let at = (corrupt.len() / 2..corrupt.len())
                .find(|&i| corrupt[i].is_ascii_digit())
                .expect("references hold numbers");
            corrupt[at] = if corrupt[at] == b'9' { b'8' } else { corrupt[at] + 1 };
            let corrupt = String::from_utf8(corrupt).expect("ASCII edit");
            assert_eq!(failed_points(&corrupt, &reference), 1, "{}", w.name());
            assert_eq!(failed_points(&reference, &corrupt), 1, "{}", w.name());
        }
    }

    #[test]
    fn error_records_and_missing_points_fail() {
        let good = "{\"name\":\"a\",\"x\":1}\n{\"name\":\"b\",\"x\":2}\n";
        let errored = "{\"name\":\"a\",\"x\":1}\n{\"name\":\"b\",\"error\":\"boom\"}\n";
        assert_eq!(failed_points(errored, errored), 1);
        assert_eq!(failed_points(good, "{\"name\":\"a\",\"x\":1}\n"), 1);
        assert_eq!(failed_points(good, good.trim_end()), 1);
    }

    #[test]
    fn the_seed_reaches_every_sweep() {
        for w in Workload::ALL {
            for sweep in w.sweeps(7).unwrap() {
                assert_eq!(sweep.base.seed, 7, "{}", w.name());
                assert_eq!(sweep.base.demand.seed, w.demand_seed(7), "{}", w.name());
            }
        }
    }
}
