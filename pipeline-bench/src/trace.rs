//! The traced run. Spans are recorded from outside the program, around
//! the public entry point of each layer, while the run replays every
//! point of a sweep the way the runner executes it. Exact work counts
//! are taken at the same boundaries and checked against the runner's
//! report fields, which shows that the replay did the same work.
//!
//! Every layer's span is entered for every system of every point. When a
//! point does not use a layer, the span covers only the step that finds
//! nothing to do, so an idle layer reads near zero instead of missing.

use ssplane_astro::time::Epoch;
use ssplane_core::evaluate::{plane_fluence_samples, weighted_median_fluence};
use ssplane_core::system::{DesignParams, DesignedSystem, Designer, SsDesigner, WalkerDesigner};
use ssplane_demand::gravity::{gravity_flows, grid_demand_total, GravityConfig};
use ssplane_demand::grid::LatTodGrid;
use ssplane_demand::DemandModel;
use ssplane_lsn::disruption::{strided_plane_indices, AttackTarget};
use ssplane_lsn::optimizer::{optimize_attack, DegradedEvaluator};
use ssplane_lsn::percolation::{
    algebraic_connectivity, percolation_sweep, plane_spread_ordering, priority_ordering,
    random_ordering, Lambda2Config,
};
use ssplane_lsn::routing::ServingIndex;
use ssplane_lsn::snapshot::{time_grid, SnapshotSeries};
use ssplane_lsn::survivability::simulate_process;
use ssplane_lsn::topology::{Constellation, GridTopologyConfig, SatId, Topology};
use ssplane_lsn::traffic::{assign_traffic_with_capacity, sample_flows, Flow};
use ssplane_lsn::traffic_engine::{assign_capacity_constrained, CapacityConfig, TrafficWorkload};
use ssplane_radiation::fluence::DailyFluence;
use ssplane_radiation::RadiationEnvironment;
use ssplane_scenario::json::Json;
use ssplane_scenario::report::SystemReport;
use ssplane_scenario::spec::{AttackKind, AttackUnit, TrafficModel};
use ssplane_scenario::{ScenarioReport, ScenarioSpec};
use std::collections::BTreeMap;
use std::error::Error;
use std::time::Instant;

/// Seed salts the runner XORs into the scenario seed for the gravity
/// pairs and the percolation stage's random ordering
/// (`crates/scenario/src/runner.rs`); the replay must draw the same
/// streams to do the same work.
const TRAFFIC_SEED_SALT: u64 = 0x0054_5241_4646_4943;
const PERCOLATION_SEED_SALT: u64 = 0x5045_5243_4F4C;
/// The offset the runner adds to the scenario seed for the sampled flows.
const FLOW_SEED_OFFSET: u64 = 0x9E37_79B9;

/// The designers the replay runs, in registry order.
const DESIGNERS: [&str; 2] = ["ss", "wd"];

/// Work counts of one replay, by metric name. Every name is present in
/// every workload, so a count that should be zero reads zero.
pub const COUNTS: [&str; 11] = [
    "count.points",
    "count.sats_designed",
    "count.topology_slots",
    "count.topology_links",
    "count.flows",
    "count.gravity_pairs",
    "count.attach_queries",
    "count.routed",
    "count.candidates_scored",
    "count.candidates_unique",
    "count.percolation_sweeps",
];

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: String,
    /// Start \[s\].
    pub start: f64,
    /// End \[s\].
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration \[s\].
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
        self.spans[id].end - self.spans[id].start
    }

    /// Times `f` as a leaf span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Times `f` as a leaf span; also returns its duration \[s\].
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Self time per span name over the subtree rooted at `root`: each
    /// span's duration minus the part of it that its children cover.
    pub fn self_times(&self, root: usize) -> BTreeMap<String, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents always precede their children.
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent.filter(|&p| in_tree[p]) {
                in_tree[i] = true;
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|&(i, _)| in_tree[i]) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.end - s.start - child_time[i];
        }
        out
    }

    /// Every span as JSON: name, start, end and parent index.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
                    Json::obj()
                        .str("name", &s.name)
                        .num("start", s.start)
                        .num("end", s.end)
                        .field("parent", parent)
                        .build()
                })
                .collect(),
        )
    }
}

/// What one replay found beyond its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Work counts by [`COUNTS`] name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Candidates scored and search seconds, per attack objective.
    pub search: BTreeMap<String, (u64, f64)>,
    /// Topology links of each replayed slot, in replay order.
    pub links_per_slot: Vec<u64>,
    /// Report fields the replay's own result did not match, one line
    /// each, prefixed with the point's name.
    pub mismatches: Vec<String>,
}

impl Replay {
    /// An empty replay with every count at zero.
    pub fn new() -> Self {
        Replay { counts: COUNTS.iter().map(|&c| (c, 0)).collect(), ..Replay::default() }
    }

    fn add(&mut self, count: &'static str, n: usize) {
        *self.counts.get_mut(count).expect("a COUNTS name") += n as u64;
    }

    /// Records a mismatch between a report field and the replay.
    fn check<T: PartialEq + std::fmt::Debug>(
        &mut self,
        point: &str,
        field: &str,
        report: T,
        replay: T,
    ) {
        if report != replay {
            self.mismatches.push(format!("{point}: {field} reads {report:?}, replay {replay:?}"));
        }
    }
}

/// Replays `specs` (one sweep's expanded points, index-aligned with the
/// runner's `reports` for them) under the tracer's innermost open span.
/// `build_threads` is the per-point thread share the runner gives its
/// workers.
pub fn replay(
    tr: &mut Tracer,
    model: &DemandModel,
    specs: &[ScenarioSpec],
    reports: &[&ScenarioReport],
    build_threads: usize,
    out: &mut Replay,
) -> Result<(), Box<dyn Error>> {
    for (spec, report) in specs.iter().zip(reports) {
        let id = tr.enter("scenario.point");
        replay_point(tr, model, spec, report, build_threads, out)?;
        tr.exit(id);
        out.add("count.points", 1);
    }
    Ok(())
}

fn replay_point(
    tr: &mut Tracer,
    model: &DemandModel,
    spec: &ScenarioSpec,
    report: &ScenarioReport,
    threads: usize,
    out: &mut Replay,
) -> Result<(), Box<dyn Error>> {
    let grid = tr.span("demand.grid", || {
        LatTodGrid::from_model(model, spec.demand.lat_bins, spec.demand.tod_bins)
    })?;
    let demand = grid.scaled(spec.demand.total_demand_b / grid.total());
    let params = DesignParams { epoch: spec.radiation.epoch() };
    if let Some(other) = spec.design.ordered_kinds().into_iter().find(|k| !DESIGNERS.contains(k)) {
        return Err(format!("the traced run does not replay `{other}` designs").into());
    }
    // Both designers' spans are entered for every point, in registry
    // order, so a designer a workload does not select reads near zero.
    for kind in DESIGNERS {
        let sys = tr.span(&format!("core.design.{kind}"), || {
            if !spec.design.includes(kind) {
                return Ok(None);
            }
            let designer: Box<dyn Designer> = match kind {
                "ss" => Box::new(SsDesigner { config: spec.design.ss }),
                _ => Box::new(WalkerDesigner { config: spec.design.wd.clone() }),
            };
            designer.design(&demand, &params).map(Some)
        })?;
        let Some(sys) = sys else { continue };
        let rep =
            report.system(kind).ok_or_else(|| format!("{}: no `{kind}` system", spec.name))?;
        out.check(&spec.name, &format!("{kind}.design.sats"), rep.design.sats, sys.summary.sats);
        out.add("count.sats_designed", sys.summary.sats);
        replay_system(tr, model, spec, &sys, rep, params.epoch, threads, out)?;
    }
    Ok(())
}

/// The network layout `Constellation::from_planes(sys.network_planes())`
/// builds: planes in `network_order`, empty planes dropped.
struct Layout {
    /// Design plane of each network plane.
    kept: Vec<usize>,
    /// Flat index of each design plane's first satellite (`None` when
    /// the network dropped the plane).
    start: Vec<Option<usize>>,
}

impl Layout {
    fn of(sys: &DesignedSystem) -> Self {
        let kept: Vec<usize> = sys
            .network_order
            .iter()
            .copied()
            .filter(|&p| !sys.planes[p].satellites.is_empty())
            .collect();
        let mut start = vec![None; sys.planes.len()];
        let mut flat = 0;
        for &p in &kept {
            start[p] = Some(flat);
            flat += sys.planes[p].satellites.len();
        }
        Layout { kept, start }
    }

    fn flat_of_design(&self, sys: &DesignedSystem, id: SatId) -> Option<usize> {
        let start = (*self.start.get(id.plane)?)?;
        (id.slot < sys.planes[id.plane].satellites.len()).then_some(start + id.slot)
    }
}

/// The network context the runner builds once per system.
struct Network {
    series: SnapshotSeries,
    flows: Vec<Flow>,
    workload: Option<TrafficWorkload>,
    layout: Layout,
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn replay_system(
    tr: &mut Tracer,
    model: &DemandModel,
    spec: &ScenarioSpec,
    sys: &DesignedSystem,
    rep: &SystemReport,
    epoch: Epoch,
    threads: usize,
    out: &mut Replay,
) -> Result<(), Box<dyn Error>> {
    let point = spec.name.as_str();
    let net_spec = &spec.network;
    let enabled = net_spec.enabled && sys.total_sats() > 0;
    let min_elev = net_spec.min_elevation_deg.to_radians();
    let topo_config =
        GridTopologyConfig { max_range_km: net_spec.max_range_km, ..GridTopologyConfig::default() };
    let utc = net_spec.utc_hour;

    // Network setup: propagation, the flow sample, the gravity workload.
    let series = tr.span("lsn.snapshot", || -> Result<_, Box<dyn Error>> {
        if !enabled {
            return Ok(None);
        }
        let constellation = Constellation::from_planes(epoch, sys.network_planes())?;
        let grid = time_grid(
            epoch + utc * 3600.0,
            net_spec.time_grid_slots.max(1),
            net_spec.time_grid_slot_s,
        );
        Ok(Some(SnapshotSeries::build_parallel(&constellation, &grid, threads)?))
    })?;
    let flows = tr.span("lsn.flows", || {
        series.as_ref().map(|_| {
            sample_flows(model, utc, net_spec.n_flows, spec.seed.wrapping_add(FLOW_SEED_OFFSET))
        })
    });
    let workload = tr.span("demand.gravity", || -> Result<_, Box<dyn Error>> {
        if series.is_none() || spec.traffic.model != TrafficModel::Gravity {
            return Ok(None);
        }
        let config = GravityConfig {
            pairs: spec.traffic.pairs,
            sites: spec.traffic.sites,
            utc_hour: utc,
            seed: spec.seed ^ TRAFFIC_SEED_SALT,
            ..GravityConfig::default()
        };
        let gravity = gravity_flows(model, &config, threads)?;
        let capacity = CapacityConfig {
            link_capacity: spec.traffic.capacity_gbps,
            k_paths: spec.traffic.k_paths,
        };
        let scale = spec.demand.total_demand_b / grid_demand_total(model, utc);
        Ok(Some(TrafficWorkload::from_gravity(&gravity, scale, capacity)))
    })?;
    let net = match (series, flows) {
        (Some(series), Some(flows)) => {
            Some(Network { series, flows, workload, layout: Layout::of(sys) })
        }
        _ => None,
    };
    if let Some(n) = &net {
        out.add("count.flows", n.flows.len());
        out.add("count.gravity_pairs", n.workload.as_ref().map_or(0, |w| w.flows.len()));
    }

    // The intact evaluator, with the runner's guards on its knobs.
    let evaluator = tr.span("lsn.optimizer.intact", || -> Result<_, Box<dyn Error>> {
        let Some(n) = &net else { return Ok(None) };
        let e = DegradedEvaluator::with_workload(
            &n.series,
            &n.flows,
            min_elev,
            topo_config,
            n.workload.as_ref(),
        )?;
        let (steps, gap) = (net_spec.percolation_steps, net_spec.percolation_gap);
        let e = if steps >= 1 && gap.is_finite() && gap > 0.0 && gap < 1.0 {
            e.with_percolation(steps, gap)
        } else {
            e
        };
        let frac = spec.attack.damage_threshold;
        Ok(Some(if frac.is_finite() && frac > 0.0 && frac <= 1.0 {
            e.with_repair_threshold(frac)
        } else {
            e
        }))
    })?;

    // The evaluator's intact pass, decomposed into its layers' public
    // calls, slot by slot: +grid topology, attachment, routing, waterfill.
    let slots: Vec<_> = net.as_ref().map_or_else(Vec::new, |n| n.series.iter().collect());
    let topologies = tr.span("lsn.topology", || {
        slots
            .iter()
            .map(|snap| Topology::plus_grid(snap, topo_config))
            .collect::<Result<Vec<_>, _>>()
    })?;
    // Attachment as both assignments do it: per slot and flow set, one
    // index and one query per distinct endpoint.
    let queries = tr.span("lsn.routing.attach", || {
        let Some(n) = &net else { return 0 };
        let flow_sets = [Some(n.flows.as_slice()), n.workload.as_ref().map(|w| w.flows.as_slice())];
        let mut queries = 0;
        for snap in &slots {
            for flows in flow_sets.iter().flatten() {
                let index = ServingIndex::new(*snap, min_elev);
                let mut served: BTreeMap<(u64, u64), Option<SatId>> = BTreeMap::new();
                for p in flows.iter().flat_map(|f| [f.src, f.dst]) {
                    served
                        .entry((p.lat.to_bits(), p.lon.to_bits()))
                        .or_insert_with(|| index.query(p).map(|(id, _)| id));
                }
                queries += served.len();
            }
        }
        queries
    });
    out.add("count.attach_queries", queries);
    let link_capacity =
        net.as_ref().and_then(|n| n.workload.as_ref()).map_or(1.0, |w| w.capacity.link_capacity);
    let traffic = tr.span("lsn.traffic", || {
        let Some(n) = &net else { return Ok(Vec::new()) };
        slots
            .iter()
            .zip(&topologies)
            .map(|(snap, topo)| {
                assign_traffic_with_capacity(snap, topo, &n.flows, min_elev, link_capacity)
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let served = tr.span("lsn.traffic_engine", || {
        let Some(w) = net.as_ref().and_then(|n| n.workload.as_ref()) else { return Ok(Vec::new()) };
        slots
            .iter()
            .zip(&topologies)
            .map(|(snap, topo)| {
                assign_capacity_constrained(snap, topo, &w.flows, min_elev, &w.capacity)
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    if let Some(e) = &evaluator {
        for (k, (topo, t)) in topologies.iter().zip(&traffic).enumerate() {
            out.check(
                point,
                &format!("slot {k} links"),
                e.intact_topology(k).links.len(),
                topo.links.len(),
            );
            out.check(point, &format!("slot {k} routed"), e.intact()[k].traffic.routed, t.routed);
            out.links_per_slot.push(topo.links.len() as u64);
            out.add("count.topology_slots", 1);
            out.add("count.topology_links", topo.links.len());
            out.add("count.routed", t.routed);
        }
        let report_net =
            rep.network.as_ref().ok_or_else(|| format!("{point}: no network block"))?;
        out.check(point, "network.routed", report_net.routed, traffic[0].routed);
        if let (Some(s), Some(first)) = (&report_net.served, served.first()) {
            out.check(point, "network.served.pairs", s.pairs, first.pairs);
            out.check(point, "network.served.flows", s.flows, first.flows);
        }
    }

    // The attack: the optimized search, or the fixed model's victims.
    let (searched, search_s) = tr.timed("lsn.optimizer.search", || -> Result<_, Box<dyn Error>> {
        let (Some(n), Some(e)) = (&net, &evaluator) else { return Ok(None) };
        if spec.attack.kind != AttackKind::Optimized {
            return Ok(None);
        }
        if spec.attack.unit != AttackUnit::Planes {
            return Err("the traced run replays plane-budget searches only".into());
        }
        let config = spec.attack.search_config(threads);
        let snap = n.series.snapshot(0);
        let baseline: Vec<SatId> = strided_plane_indices(n.layout.kept.len(), spec.attack.budget)
            .into_iter()
            .flat_map(|p| (0..snap.slots_in_plane(p)).map(move |s| SatId { plane: p, slot: s }))
            .collect();
        e.score_attack(&baseline, config.objective)?;
        let outcome = optimize_attack(e, &config, spec.seed, &[baseline])?;
        let mut destroyed: Vec<SatId> = outcome
            .destroyed
            .iter()
            .map(|id| SatId { plane: n.layout.kept[id.plane], slot: id.slot })
            .collect();
        destroyed.sort_unstable();
        Ok(Some((destroyed, outcome, config.objective)))
    });
    let destroyed = match searched? {
        Some((destroyed, outcome, objective)) => {
            // The runner scores the baseline once on top of the search.
            let (scored, unique) =
                (outcome.candidates_evaluated + 1, outcome.candidates_unique + 1);
            if let Some(s) = &rep.attack_search {
                out.check(point, "attack_search.candidates_scored", s.candidates_scored, scored);
                out.check(point, "attack_search.candidates_unique", s.candidates_unique, unique);
            }
            out.add("count.candidates_scored", scored);
            out.add("count.candidates_unique", unique);
            let entry = out.search.entry(objective.as_str().to_string()).or_insert((0, 0.0));
            *entry = (entry.0 + scored as u64, entry.1 + search_s);
            destroyed
        }
        None => fixed_attack(spec, sys, epoch)?,
    };
    if let Some(a) = &rep.attack {
        out.check(point, "attack.sats_lost", a.sats_lost, destroyed.len());
    }

    // Fluence and survivability, exactly as the runner feeds them.
    let doses = tr.span("radiation.fluence", || -> Result<_, Box<dyn Error>> {
        if !spec.radiation.enabled || sys.eval_groups.is_empty() {
            return Ok(None);
        }
        let phases = spec.radiation.phases.max(1);
        let env = RadiationEnvironment::default();
        let samples =
            plane_fluence_samples(&sys.eval_groups, &env, epoch, phases, spec.radiation.step_s)?;
        Ok(Some((weighted_median_fluence(&samples), plane_doses(sys, &samples, phases))))
    })?;
    if let (Some((median, _)), Some(f)) = (&doses, &rep.fluence) {
        out.check(point, "fluence.median_proton", f.median_proton, median.proton);
    }
    let failures = tr.span("lsn.survivability", || -> Result<_, Box<dyn Error>> {
        let Some((_, doses)) = &doses else { return Ok(None) };
        if !spec.survivability.enabled {
            return Ok(None);
        }
        let mut lost = vec![0usize; sys.planes.len()];
        for id in &destroyed {
            lost[id.plane] += 1;
        }
        let surviving: Vec<(usize, usize)> = sys
            .planes
            .iter()
            .enumerate()
            .filter(|&(i, p)| !(p.n_sats > 0 && lost[i] >= p.n_sats))
            .map(|(i, p)| (i, p.n_sats - lost[i]))
            .collect();
        if surviving.is_empty() {
            return Ok(Some(0));
        }
        let plane_doses: Vec<DailyFluence> = surviving.iter().map(|&(i, _)| doses[i]).collect();
        let sats: usize = surviving.iter().map(|&(_, n)| n).sum();
        let per_plane = ((sats as f64 / surviving.len() as f64).round() as usize).max(1);
        let process = spec.survivability.process();
        let sim = simulate_process(
            &plane_doses,
            per_plane,
            &*process,
            &spec.survivability.policy,
            spec.survivability.sim_config(spec.seed),
        )?;
        Ok(Some(sim.failures))
    })?;
    if let (Some(failures), Some(s)) = (failures, &rep.survivability) {
        out.check(point, "survivability.failures", s.failures, failures);
    }

    // The degraded pass over the attack's mask.
    let mut alive = net.as_ref().map_or_else(Vec::new, |n| vec![true; n.series.n_sats()]);
    for flat in destroyed
        .iter()
        .filter_map(|&id| net.as_ref().and_then(|n| n.layout.flat_of_design(sys, id)))
    {
        alive[flat] = false;
    }
    let degraded = tr.span("lsn.optimizer.degraded", || -> Result<_, Box<dyn Error>> {
        let Some(e) = &evaluator else { return Ok(None) };
        if !net_spec.with_outages {
            return Ok(None);
        }
        if doses.is_some() && spec.survivability.enabled {
            return Err("the traced run does not replay outage timelines".into());
        }
        let routed = (0..e.n_slots())
            .map(|k| e.evaluate_slot(k, Some(&alive)).map(|s| s.traffic.routed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(routed.into_iter().min())
    })?;
    if let (Some(min), Some(d)) = (degraded, rep.network.as_ref().and_then(|n| n.degraded.as_ref()))
    {
        out.check(point, "degraded.min_routed", d.min_routed, min);
    }

    // Percolation: λ₂ per slot, then every ordering swept per slot.
    let lambda2 = tr.span("lsn.percolation.lambda2", || {
        let e = evaluator.as_ref().filter(|_| net_spec.percolation)?;
        let sum: f64 = (0..e.n_slots())
            .map(|k| {
                algebraic_connectivity(
                    e.intact_topology(k),
                    e.all_alive(),
                    &Lambda2Config::default(),
                )
            })
            .sum();
        Some(sum / e.n_slots() as f64)
    });
    let swept = tr.span("lsn.percolation.sweep", || {
        let (Some(n), Some(e)) = (&net, evaluator.as_ref().filter(|_| net_spec.percolation)) else {
            return None;
        };
        let spread = plane_spread_ordering(e.intact_topology(0));
        let random = random_ordering(n.series.n_sats(), spec.seed ^ PERCOLATION_SEED_SALT);
        let mut orderings = vec![spread.clone(), random];
        if !destroyed.is_empty() {
            let priority: Vec<usize> =
                destroyed.iter().filter_map(|&id| n.layout.flat_of_design(sys, id)).collect();
            orderings.push(priority_ordering(&priority, &spread));
        }
        for order in &orderings {
            for k in 0..e.n_slots() {
                std::hint::black_box(percolation_sweep(
                    e.intact_topology(k),
                    order,
                    net_spec.percolation_steps,
                ));
            }
        }
        Some((orderings.len(), e.n_slots()))
    });
    let report_perc = rep.network.as_ref().and_then(|n| n.percolation.as_ref());
    if let (Some(l2), Some((orderings, slots)), Some(p)) = (lambda2, swept, report_perc) {
        out.check(point, "percolation.lambda2_intact", p.lambda2_intact.to_bits(), l2.to_bits());
        out.check(point, "percolation.models", p.models.len(), orderings);
        out.add("count.percolation_sweeps", orderings * slots);
    }
    Ok(())
}

/// The fixed attack model's victims in design-plane ids (empty when the
/// attack stage is off), as the runner selects them.
fn fixed_attack(
    spec: &ScenarioSpec,
    sys: &DesignedSystem,
    epoch: Epoch,
) -> Result<Vec<SatId>, Box<dyn Error>> {
    if !spec.attack.is_active() || sys.planes.is_empty() {
        return Ok(Vec::new());
    }
    let Some(model) = spec.attack.fixed_model() else { return Ok(Vec::new()) };
    let target = AttackTarget {
        planes: sys.planes.iter().map(|p| p.satellites.as_slice()).collect(),
        plane_groups: sys.planes.iter().map(|p| p.eval_idx).collect(),
        epoch,
    };
    Ok(model.destroyed(&target, spec.seed)?)
}

/// Per-plane daily dose: the mean of the plane's evaluation group's phase
/// samples.
fn plane_doses(
    sys: &DesignedSystem,
    samples: &[(DailyFluence, usize)],
    phases: usize,
) -> Vec<DailyFluence> {
    let group: Vec<DailyFluence> = samples
        .chunks(phases)
        .map(|chunk| {
            let n = chunk.len() as f64;
            DailyFluence {
                electron: chunk.iter().map(|(f, _)| f.electron).sum::<f64>() / n,
                proton: chunk.iter().map(|(f, _)| f.proton).sum::<f64>() / n,
            }
        })
        .collect();
    sys.planes.iter().map(|p| group[p.eval_idx]).collect()
}
