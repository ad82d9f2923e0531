//! End-to-end and per-layer benchmark of the scenario pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipeline-bench/Cargo.toml -- \
//!     --workload <paper-pipeline|network-grid|attack-search> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path pipeline-bench/Cargo.toml -- \
//!     --workload <name> --capture
//! ```
//!
//! Run from the repository root. One client issues passes back to back
//! (a closed loop) through the public `Runner::run_sweep`, the runner
//! using as many workers as the machine has cores (`nproc`). A pass
//! runs every sweep of the workload once; `--seed` becomes each sweep's
//! `seed` and, through `Workload::demand_seed`, its `demand.seed`.
//!
//! `setup_s` is the one-time cost a `scenario-runner` process pays before
//! its first point: a cold `DemandModel::synthetic_seeded` call. Every run
//! warms up with one untimed such call and one untimed pass that fills the
//! runner's demand cache; then, for `--seconds`, it times a cold call and
//! a pass, in turn. The set-up samples thus span the whole run, as the
//! pass samples do, so a burst of host load moves the median of neither.
//! Every pass's report bytes go through the byte gate: at seed
//! [`workload::REFERENCE_SEED`] against the committed references, at any
//! other seed against the warm-up pass of the same run.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` each repetition runs one traced pass and then replays
//! its points layer by layer (see [`trace`]); the last line carries the
//! per-layer metrics, and every span goes to
//! `pipeline-bench/out/trace-<workload>-seed<seed>.json`.
//!
//! `--capture` runs the workload at the reference seed with 1 and 2
//! runner threads, requires equal bytes, and writes the reference (for
//! `paper-pipeline` it checks the committed goldens instead).

mod host;
mod trace;
mod workload;

use host::{nproc, peak_rss_mb, provenance};
use ssplane_demand::DemandModel;
use ssplane_scenario::json::Json;
use ssplane_scenario::runner::Runner;
use ssplane_scenario::{ScenarioReport, SweepSpec};
use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};
use trace::{Replay, Tracer, COUNTS};
use workload::{failed_points, Pass, Workload, REFERENCE_SEED};

/// Measured passes per run at the least, however short `--seconds` is;
/// each is preceded by a timed cold demand-model build.
const MIN_PASSES: usize = 3;

/// The end-to-end metrics `--trace 0` reports.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("sweep_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Layer spans the replay records, each reported as `<name>_s` self time.
const LAYER_SPANS: [&str; 18] = [
    "demand.grid",
    "demand.gravity",
    "core.design.ss",
    "core.design.wd",
    "radiation.fluence",
    "lsn.survivability",
    "lsn.snapshot",
    "lsn.topology",
    "lsn.routing.attach",
    "lsn.traffic",
    "lsn.traffic_engine",
    "lsn.optimizer.intact",
    "lsn.optimizer.degraded",
    "lsn.optimizer.search",
    "lsn.percolation.sweep",
    "lsn.percolation.lambda2",
    "scenario.run_sweep",
    "scenario.jsonl",
];

/// The runner's stages, with the system prefix (`ss.`, `wd.`) removed;
/// each is reported as its share of the summed stage time.
const STAGES: [&str; 11] = [
    "demand.model",
    "demand.grid",
    "design",
    "network.setup",
    "network.intact",
    "attack_search",
    "fluence",
    "survivability",
    "network",
    "percolation",
    "other",
];

/// Attack objectives whose search throughput is reported.
const OBJECTIVES: [&str; 2] = ["routed-fraction", "served-demand"];

/// Every per-layer metric `--trace 1` reports, with its unit, in order.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = vec![("demand.model_s".to_string(), "s"), ("core.design_s".to_string(), "s")];
    out.extend(LAYER_SPANS.iter().map(|s| (format!("{s}_s"), "s")));
    out.extend(OBJECTIVES.iter().map(|o| (format!("lsn.optimizer.candidates_per_s.{o}"), "1/s")));
    out.push(("lsn.optimizer.unique_frac".to_string(), "ratio"));
    out.push(("scenario.stages_s".to_string(), "s"));
    out.push(("scenario.pool_busy_frac".to_string(), "ratio"));
    out.extend(STAGES.iter().map(|s| (format!("scenario.stage.{s}_share"), "ratio")));
    out.push(("trace.total_s".to_string(), "s"));
    out.push(("trace.ratio_to_sweep".to_string(), "ratio"));
    out.extend(COUNTS.iter().map(|c| (c.to_string(), "count")));
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    capture: bool,
}

fn parse_args() -> Result<Args, Box<dyn Error>> {
    let mut args = Args {
        workload: Workload::PaperPipeline,
        seed: REFERENCE_SEED,
        seconds: 10.0,
        trace: false,
        threads: nproc(),
        capture: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--capture" {
            args.capture = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => args.seed = value.parse()?,
            "--seconds" => args.seconds = value.parse()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`").into()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`").into()),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("pipeline-bench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let args = parse_args()?;
    if args.capture {
        return capture(args.workload);
    }
    let sweeps = args.workload.sweeps(args.seed)?;
    let mut tr = Tracer::new();

    // Set-up is timed on direct cold builds only, never on the runner's
    // own `demand.model` rows (which a second worker inflates by waiting
    // on the shared-model lock). This first build is the warm-up's.
    let mut setup = Setup { demand_seed: args.workload.demand_seed(args.seed), secs: Vec::new() };
    let model = DemandModel::synthetic_seeded(setup.demand_seed)?;

    let runner = Runner::with_threads(args.threads);
    let warm = Pass::run(&runner, &sweeps)?;
    // The peak of set-up plus one pass, which is what a `scenario-runner`
    // process does. Later passes only add what the allocator retains
    // between them, which grows with the run's length.
    let peak_rss = peak_rss_mb()?;
    let warm_bytes = warm.jsonl();
    let reference =
        if args.seed == REFERENCE_SEED { args.workload.reference() } else { warm_bytes.clone() };
    let mut gate = Gate::default();
    gate.check(&reference, &warm_bytes, warm.points());
    drop(warm);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (metrics, detail, correct) = if args.trace {
        traced(
            &args, &sweeps, &model, &runner, &reference, &mut gate, &mut tr, &mut setup, deadline,
        )?
    } else {
        measured(&runner, &sweeps, &reference, &mut gate, &mut tr, &mut setup, peak_rss, deadline)?
    };

    let detail = Json::obj()
        .field("provenance", provenance(args.workload.name(), args.seed, args.threads))
        .field("detail", detail)
        .uint("attempted", gate.attempted as u64)
        .uint("failed", gate.failed as u64)
        .field(
            "failed_frac",
            Json::obj()
                .num("value", gate.failed as f64 / gate.attempted.max(1) as f64)
                .str("unit", "ratio")
                .build(),
        )
        .build();
    println!("{}", detail.to_string_compact());
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, unit, value)| {
                (name, Json::obj().num("value", value).str("unit", unit).build())
            })
            .collect(),
    );
    let result = Json::obj()
        .field("correct", Json::Bool(correct && gate.failed == 0))
        .uint("attempted", gate.attempted.max(1) as u64)
        .uint("failed", gate.failed as u64)
        .field("metrics", metrics)
        .build();
    println!("{}", result.to_string_compact());
    Ok(())
}

/// The run's cold demand-model builds; `setup_s` is the median of their
/// wall times.
struct Setup {
    demand_seed: u64,
    secs: Vec<f64>,
}

impl Setup {
    /// Times one cold `DemandModel::synthetic_seeded` call.
    fn build(&mut self, tr: &mut Tracer) -> Result<(), Box<dyn Error>> {
        let seed = self.demand_seed;
        let (built, secs) = tr.timed("demand.model", || DemandModel::synthetic_seeded(seed));
        self.secs.push(secs);
        built?;
        Ok(())
    }
}

/// Points attempted and points failed across every pass of a run.
#[derive(Debug, Default)]
struct Gate {
    attempted: usize,
    failed: usize,
}

impl Gate {
    fn check(&mut self, reference: &str, bytes: &str, points: usize) {
        let failed = failed_points(reference, bytes);
        if failed > 0 {
            eprintln!("pipeline-bench: {failed} of {points} points failed the byte gate");
        }
        self.attempted += points;
        self.failed += failed.min(points.max(1));
    }
}

type Metrics = Vec<(String, &'static str, f64)>;

/// The end-to-end run: a cold build and a pass, back to back until the
/// deadline.
#[allow(clippy::too_many_arguments)]
fn measured(
    runner: &Runner,
    sweeps: &[SweepSpec],
    reference: &str,
    gate: &mut Gate,
    tr: &mut Tracer,
    setup: &mut Setup,
    peak_rss: f64,
    deadline: Instant,
) -> Result<(Metrics, Json, bool), Box<dyn Error>> {
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        setup.build(tr)?;
        let pass = Pass::run(runner, sweeps)?;
        gate.check(reference, &pass.jsonl(), pass.points());
        walls.push(pass.wall_s);
        cpus.push(pass.cpu_s);
    }
    let setup = &setup.secs;
    let values = [median(setup), median(&walls), median(&cpus), peak_rss];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), unit, value))
        .collect();
    let detail = Json::obj()
        .field("setup_s", summary(setup))
        .field("sweep_s", summary(&walls))
        .field("cpu_s", summary(&cpus))
        .build();
    Ok((metrics, detail, true))
}

/// The traced run: repetitions of a cold build, one traced pass and its
/// replay until the deadline; per-layer values are medians over
/// repetitions, and work counts must repeat exactly.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    sweeps: &[SweepSpec],
    model: &DemandModel,
    runner: &Runner,
    reference: &str,
    gate: &mut Gate,
    tr: &mut Tracer,
    setup: &mut Setup,
    deadline: Instant,
) -> Result<(Metrics, Json, bool), Box<dyn Error>> {
    let specs = sweeps.iter().map(SweepSpec::expand).collect::<Result<Vec<_>, _>>()?;
    let mut reps: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut first: Option<Replay> = None;
    let mut mismatches: Vec<String> = Vec::new();
    let mut stage_rows = String::new();
    while reps.is_empty() || Instant::now() < deadline {
        setup.build(tr)?;
        let root = tr.enter("trace.repetition");
        let (pass, sweep_s) = tr.timed("scenario.run_sweep", || Pass::run(runner, sweeps));
        let pass = pass?;
        let bytes = tr.span("scenario.jsonl", || pass.jsonl());
        gate.check(reference, &bytes, pass.points());

        let replay_root = tr.enter("trace.replay");
        let mut replay = Replay::new();
        for (specs, outcome) in specs.iter().zip(&pass.outcomes) {
            // A failed point has no report to replay against; the byte
            // gate has already counted it.
            let (ok_specs, reports): (Vec<_>, Vec<&ScenarioReport>) = specs
                .iter()
                .zip(&outcome.reports)
                .filter_map(|(s, r)| r.as_ref().ok().map(|r| (s.clone(), r)))
                .unzip();
            let threads = build_threads(args.threads, specs.len());
            trace::replay(tr, model, &ok_specs, &reports, threads, &mut replay)?;
        }
        let replay_s = tr.exit(replay_root);
        tr.exit(root);

        let mut rep: BTreeMap<String, f64> = BTreeMap::new();
        let self_times = tr.self_times(root);
        for span in LAYER_SPANS {
            rep.insert(format!("{span}_s"), self_times.get(span).copied().unwrap_or(0.0));
        }
        rep.insert("core.design_s".into(), rep["core.design.ss_s"] + rep["core.design.wd_s"]);
        for objective in OBJECTIVES {
            let (scored, secs) = replay.search.get(objective).copied().unwrap_or((0, 0.0));
            let rate = if secs > 0.0 { scored as f64 / secs } else { 0.0 };
            rep.insert(format!("lsn.optimizer.candidates_per_s.{objective}"), rate);
        }
        let (scored, unique) =
            (replay.counts["count.candidates_scored"], replay.counts["count.candidates_unique"]);
        let unique_frac = if scored > 0 { unique as f64 / scored as f64 } else { 0.0 };
        rep.insert("lsn.optimizer.unique_frac".into(), unique_frac);

        let mut stages: BTreeMap<&str, f64> = STAGES.iter().map(|&s| (s, 0.0)).collect();
        for t in pass.outcomes.iter().flat_map(|o| &o.timings) {
            for (stage, secs) in &t.stages {
                *stages.get_mut(stage_key(stage)).expect("stage_key yields a STAGES name") += secs;
            }
        }
        let stages_s: f64 = stages.values().sum();
        rep.insert("scenario.stages_s".into(), stages_s);
        rep.insert("scenario.pool_busy_frac".into(), stages_s / (args.threads as f64 * sweep_s));
        for (stage, secs) in stages {
            rep.insert(format!("scenario.stage.{stage}_share"), secs / stages_s);
        }
        rep.insert("trace.total_s".into(), replay_s);
        rep.insert("trace.ratio_to_sweep".into(), replay_s / sweep_s);
        reps.push(rep);

        for o in &pass.outcomes {
            stage_rows.push_str(&o.timings_table());
        }
        mismatches.append(&mut replay.mismatches);
        match &first {
            None => first = Some(replay),
            Some(f) if f.counts != replay.counts || f.links_per_slot != replay.links_per_slot => {
                mismatches.push("work counts changed between repetitions".into());
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one repetition");
    for m in &mismatches {
        eprintln!("pipeline-bench: replay mismatch: {m}");
    }

    let metrics: Metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = if name == "demand.model_s" {
                median(&setup.secs)
            } else if let Some(&count) = first.counts.get(name.as_str()) {
                count as f64
            } else {
                median(&reps.iter().map(|r| r[&name]).collect::<Vec<_>>())
            };
            (name, unit, value)
        })
        .collect();

    let path = format!("pipeline-bench/out/trace-{}-seed{}.json", args.workload.name(), args.seed);
    let links = Json::Arr(first.links_per_slot.iter().map(|&n| Json::UInt(n)).collect());
    let file = Json::obj()
        .field("provenance", provenance(args.workload.name(), args.seed, args.threads))
        .field(
            "counts",
            Json::Obj(first.counts.iter().map(|(k, &v)| (k.to_string(), Json::UInt(v))).collect()),
        )
        .field("links_per_slot", links)
        .field("mismatches", Json::Arr(mismatches.iter().map(|m| Json::str(m)).collect()))
        .str("stage_rows", &stage_rows)
        .field("spans", tr.to_json())
        .build();
    std::fs::create_dir_all("pipeline-bench/out")?;
    std::fs::write(&path, file.to_string_compact() + "\n")?;
    let detail = Json::obj()
        .uint("repetitions", reps.len() as u64)
        .str("trace_file", &path)
        .uint("mismatches", mismatches.len() as u64)
        .build();
    Ok((metrics, detail, mismatches.is_empty()))
}

/// The per-point thread share the runner gives each worker for a sweep of
/// `points` points (`Runner::run_specs`).
fn build_threads(threads: usize, points: usize) -> usize {
    let workers = threads.clamp(1, points.max(1));
    if workers <= 1 {
        threads
    } else {
        (threads / workers).max(1)
    }
}

/// The [`STAGES`] entry a runner stage row belongs to.
fn stage_key(stage: &str) -> &'static str {
    let short = if stage.starts_with("demand.") {
        stage
    } else {
        stage.split_once('.').map_or(stage, |(_, rest)| rest)
    };
    STAGES.iter().find(|&&s| s == short).copied().unwrap_or("other")
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A timing sample's summary: median, the highest percentile that has at
/// least ten samples beyond it (`null` under twenty samples), the sample
/// count, and the samples in the order they were taken.
fn summary(values: &[f64]) -> Json {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0);
    let (pct, value) = match tail {
        // Nearest rank: the smallest value with at least p % at or below.
        Some(p) => {
            let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            (Json::Num(p), Json::Num(v[rank - 1]))
        }
        None => (Json::Null, Json::Null),
    };
    Json::obj()
        .num("median", median(&v))
        .field("tail_percentile", pct)
        .field("tail", value)
        .uint("samples", n as u64)
        .field("values", Json::Arr(values.iter().map(|&x| Json::Num(x)).collect()))
        .build()
}

/// `--capture`: the workload at the reference seed must give the same
/// bytes with 1 and 2 runner threads, and no point may fail.
fn capture(w: Workload) -> Result<(), Box<dyn Error>> {
    let sweeps = w.sweeps(REFERENCE_SEED)?;
    let one = Pass::run(&Runner::with_threads(1), &sweeps)?;
    let two = Pass::run(&Runner::with_threads(2), &sweeps)?;
    let bytes = one.jsonl();
    if bytes != two.jsonl() {
        return Err(format!("{}: bytes differ between 1 and 2 threads", w.name()).into());
    }
    if failed_points(&bytes, &bytes) > 0 {
        return Err(format!("{}: a point failed", w.name()).into());
    }
    match w.reference_path() {
        Some(path) => {
            std::fs::write(&path, &bytes)?;
            println!("{path}: {} points, equal at 1 and 2 threads", one.points());
        }
        None => {
            let failed = failed_points(&w.reference(), &bytes);
            if failed > 0 {
                return Err(format!("{}: {failed} points differ from the goldens", w.name()).into());
            }
            println!("{}: {} points equal the goldens at 1 and 2 threads", w.name(), one.points());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let declared = |name: &str, unit: &str| {
            text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        let mut expected: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        expected.extend(per_layer_metrics());
        for (name, unit) in &expected {
            assert!(declared(name, unit), "{name} [{unit}] missing from BENCHMARK.json");
        }
        assert_eq!(text.matches("\"unit\":").count(), expected.len(), "undeclared extras");
        for w in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
    }

    #[test]
    fn stage_rows_map_onto_stages() {
        assert_eq!(stage_key("demand.model"), "demand.model");
        assert_eq!(stage_key("ss.network.intact"), "network.intact");
        assert_eq!(stage_key("wd.fluence"), "fluence");
        assert_eq!(stage_key("ss.something_new"), "other");
    }

    #[test]
    fn summary_reports_a_tail_only_with_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        let few = summary(&few).to_string_compact();
        assert!(
            few.starts_with(
                "{\"median\":10.0,\"tail_percentile\":null,\"tail\":null,\"samples\":19,"
            ),
            "{few}"
        );
        let many: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let many = summary(&many).to_string_compact();
        assert!(many.starts_with("{\"median\":20.5,\"tail_percentile\":75.0,\"tail\":30.0,\"samples\":40,\"values\":[40.0,39.0,"), "{many}");
    }

    #[test]
    fn build_threads_matches_the_runner_split() {
        assert_eq!(build_threads(2, 1), 2);
        assert_eq!(build_threads(2, 2), 1);
        assert_eq!(build_threads(4, 72), 1);
        assert_eq!(build_threads(4, 2), 2);
    }
}
