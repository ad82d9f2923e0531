//! The greedy SS-plane constellation designer (§4.2 of the paper).
//!
//! Given the sun-relative demand grid scaled to a *bandwidth multiplier*
//! (demand in multiples of one satellite's capacity), the algorithm is the
//! paper's:
//!
//! 1. select the (latitude, time-of-day) cell with maximum residual
//!    demand;
//! 2. add an SS-plane whose track intersects that cell, and subtract one
//!    satellite of capacity from every cell covered by the plane's swath
//!    (clamping at zero);
//! 3. repeat until all demand is satisfied.
//!
//! Each plane covers a large range of cells besides the peak (the whole
//! track, which widens dramatically near the turn-around latitudes), which
//! is why the greedy converges quickly even though it is not optimal.
//!
//! One refinement the paper leaves open is *which* of the two planes
//! through the peak cell to take (ascending or descending branch); we pick
//! the one that removes more residual demand, and expose the choice for
//! the ablation benches ([`BranchRule`]).

use crate::error::{CoreError, Result};
use crate::ssplane::{planes_through, SsPlane};
use ssplane_astro::coverage::{
    coverage_half_angle, sats_per_plane_half_overlap, street_half_width,
};
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::sunsync::sun_synchronous_orbit;
use ssplane_astro::time::Epoch;
use ssplane_demand::grid::LatTodGrid;

/// How the designer chooses between the ascending- and descending-branch
/// planes through the peak cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchRule {
    /// Evaluate both and keep the one that removes more residual demand
    /// (the default).
    #[default]
    BestOfBoth,
    /// Always the ascending branch (ablation).
    AscendingOnly,
    /// Alternate branches (ablation).
    Alternate,
}

/// Designer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConfig {
    /// Constellation altitude \[km\] (the paper evaluates ~560 km).
    pub altitude_km: f64,
    /// Minimum user elevation angle \[deg\] (drives the coverage cap).
    pub min_elevation_deg: f64,
    /// Capacity of one satellite in demand units (the demand grid is in
    /// multiples of this; the paper sets it to 1).
    pub sat_capacity: f64,
    /// Safety bound on the number of planes.
    pub max_planes: usize,
    /// Branch selection rule.
    pub branch_rule: BranchRule,
    /// Demand below this is considered satisfied (absolute units).
    pub epsilon: f64,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            altitude_km: 560.0,
            min_elevation_deg: ssplane_astro::coverage::DEFAULT_MIN_ELEVATION_DEG,
            sat_capacity: 1.0,
            max_planes: 50_000,
            branch_rule: BranchRule::BestOfBoth,
            epsilon: 1e-9,
        }
    }
}

/// A designed SS-plane constellation.
#[derive(Debug, Clone)]
pub struct SsConstellation {
    /// The selected planes (LTANs vary; altitude/inclination shared).
    pub planes: Vec<SsPlane>,
    /// Satellites per plane (street-of-coverage sizing at the design
    /// altitude/elevation).
    pub sats_per_plane: usize,
    /// Swath half-angle \[rad\] used for cell coverage.
    pub swath_half_angle: f64,
    /// The configuration that produced the design.
    pub config: DesignConfig,
    /// Demand (capacity units) that no SS-plane at this altitude can reach
    /// — cells poleward of the orbit's maximum latitude plus swath. Zero
    /// for realistic demand models.
    pub unserved_demand: f64,
}

impl SsConstellation {
    /// Total satellite count.
    pub fn total_sats(&self) -> usize {
        self.planes.len() * self.sats_per_plane
    }

    /// Orbital elements of every satellite at `epoch`.
    ///
    /// # Errors
    /// Propagates element generation failure.
    pub fn satellites(&self, epoch: Epoch) -> Result<Vec<OrbitalElements>> {
        let mut out = Vec::with_capacity(self.total_sats());
        for p in &self.planes {
            out.extend(p.satellites(epoch)?);
        }
        Ok(out)
    }

    /// The common inclination \[rad\] (all SS-planes at one altitude share
    /// it) — the property that keeps Fig. 10's SS radiation curve flat.
    pub fn inclination(&self) -> Option<f64> {
        self.planes.first().map(|p| p.orbit.inclination)
    }
}

/// The cells each candidate plane covers, memoized for one design.
///
/// A candidate is fixed by the peak cell `(i, j)` and its branch, and
/// [`SsPlane::covered_cells`] reads only the grid's shape, never its
/// values — so a key's cells never change while the residual does. Cells
/// are row-major flat indices `i * tod_bins + j`, ascending.
struct CoverageMemo {
    tod_bins: usize,
    swath: f64,
    cells: Vec<Option<Box<[u32]>>>,
}

impl CoverageMemo {
    fn new(grid: &LatTodGrid, swath: f64) -> Self {
        let n_keys = grid.lat_bins() * grid.tod_bins() * 2;
        CoverageMemo { tod_bins: grid.tod_bins(), swath, cells: vec![None; n_keys] }
    }

    /// The cells covered by `plane`, the `branch` candidate through the
    /// peak cell `peak` of `grid`.
    fn covered(
        &mut self,
        grid: &LatTodGrid,
        peak: (usize, usize),
        branch: usize,
        plane: &SsPlane,
    ) -> &[u32] {
        let key = (peak.0 * self.tod_bins + peak.1) * 2 + branch;
        let (tod_bins, swath) = (self.tod_bins, self.swath);
        self.cells[key].get_or_insert_with(|| {
            plane.covered_cells(grid, swath).into_iter().map(|cell| flat(tod_bins, cell)).collect()
        })
    }
}

/// The row-major flat index of cell `(i, j)`.
fn flat(tod_bins: usize, (i, j): (usize, usize)) -> u32 {
    u32::try_from(i * tod_bins + j).expect("a grid of f64 cells fits u32 indices")
}

/// Residual demand removed by subtracting `capacity` from the flat
/// `cells` of `grid` (without mutating it).
fn removable(grid: &LatTodGrid, cells: &[u32], capacity: f64) -> f64 {
    let t = grid.tod_bins();
    cells.iter().map(|&k| grid.value(k as usize / t, k as usize % t).min(capacity)).sum()
}

/// Subtracts `capacity` from every listed flat cell, clamping at zero.
fn subtract(grid: &mut LatTodGrid, cells: &[u32], capacity: f64) {
    let t = grid.tod_bins();
    for &k in cells {
        let v = grid.value_mut(k as usize / t, k as usize % t);
        *v = (*v - capacity).max(0.0);
    }
}

/// Runs the paper's greedy SS-plane cover on `demand` (already scaled to
/// the bandwidth multiplier).
///
/// # Errors
/// * [`CoreError::BadConfig`] for out-of-domain configuration;
/// * [`CoreError::PlaneBudgetExhausted`] if `max_planes` is hit;
/// * astrodynamics errors for infeasible geometry.
pub fn design_ss_constellation(
    demand: &LatTodGrid,
    config: DesignConfig,
) -> Result<SsConstellation> {
    if config.sat_capacity <= 0.0 {
        return Err(CoreError::BadConfig { name: "sat_capacity", constraint: "> 0" });
    }
    if config.max_planes == 0 {
        return Err(CoreError::BadConfig { name: "max_planes", constraint: "> 0" });
    }
    let theta = coverage_half_angle(config.altitude_km, config.min_elevation_deg.to_radians())?;
    let sats_per_plane = sats_per_plane_half_overlap(theta);
    let swath = street_half_width(theta, sats_per_plane)?;
    let orbit = sun_synchronous_orbit(config.altitude_km)?;

    let mut residual = demand.clone();
    let mut planes: Vec<SsPlane> = Vec::new();
    let mut flip = false;
    let mut unserved = 0.0f64;
    let mut memo = CoverageMemo::new(demand, swath);

    while let Some((i, j)) = residual.argmax() {
        if residual.value(i, j) <= config.epsilon {
            break;
        }
        if planes.len() >= config.max_planes {
            return Err(CoreError::PlaneBudgetExhausted {
                placed: planes.len(),
                residual_demand: residual.total(),
            });
        }
        let lat = residual.lat_center_deg(i).to_radians();
        let tod = residual.tod_center_h(j);
        // Demand above the orbit's max latitude cannot be served by this
        // inclination; clamp the target to the reachable band (its swath
        // still reaches the cell if within the swath margin).
        let max_lat = orbit.max_latitude() - 1e-6;
        let target_lat = lat.clamp(-max_lat, max_lat);
        let candidates = planes_through(orbit, target_lat, tod, sats_per_plane)
            .expect("target latitude clamped into reachable band");
        let peak = flat(demand.tod_bins(), (i, j));

        let branch = match config.branch_rule {
            BranchRule::AscendingOnly => 0,
            BranchRule::Alternate => {
                flip = !flip;
                usize::from(!flip)
            }
            BranchRule::BestOfBoth => {
                let mut gain = |b: usize| {
                    let cells = memo.covered(&residual, (i, j), b, &candidates[b]);
                    removable(&residual, cells, config.sat_capacity)
                };
                if gain(0) >= gain(1) {
                    0
                } else {
                    1
                }
            }
        };
        let cells = memo.covered(&residual, (i, j), branch, &candidates[branch]);
        if cells.binary_search(&peak).is_err() {
            // The peak cell sits poleward of the constellation's reach
            // (|lat| > max latitude + swath margin): no SS-plane at this
            // altitude can serve it. Mark it unserved and move on rather
            // than looping (only near-pole cells can hit this, and the
            // synthetic demand there is vanishingly small).
            unserved += residual.value(i, j);
            *residual.value_mut(i, j) = 0.0;
            continue;
        }
        subtract(&mut residual, cells, config.sat_capacity);
        planes.push(candidates[branch]);
    }

    Ok(SsConstellation {
        planes,
        sats_per_plane,
        swath_half_angle: swath,
        config,
        unserved_demand: unserved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn point_demand(lat_idx: usize, tod_idx: usize, value: f64) -> LatTodGrid {
        let mut v = vec![0.0; 36 * 24];
        v[lat_idx * 24 + tod_idx] = value;
        LatTodGrid::from_values(36, 24, v).unwrap()
    }

    fn fast_config() -> DesignConfig {
        DesignConfig { max_planes: 5000, ..Default::default() }
    }

    #[test]
    fn empty_demand_needs_no_planes() {
        let g = LatTodGrid::from_values(36, 24, vec![0.0; 36 * 24]).unwrap();
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        assert_eq!(c.planes.len(), 0);
        assert_eq!(c.total_sats(), 0);
        assert!(c.inclination().is_none());
    }

    #[test]
    fn single_cell_demand_takes_ceil_capacity_planes() {
        // Demand of 3.5 satellite-capacities at one cell → 4 planes.
        let g = point_demand(25, 14, 3.5);
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        assert_eq!(c.planes.len(), 4, "got {} planes", c.planes.len());
        // ~50 satellites per plane at 560 km / 30° elevation.
        assert!((40..=60).contains(&c.sats_per_plane), "S = {}", c.sats_per_plane);
    }

    /// Re-runs the subtraction with the returned planes, recomputing each
    /// plane's coverage from scratch (no memo).
    fn replayed_residual(demand: &LatTodGrid, c: &SsConstellation) -> LatTodGrid {
        let mut residual = demand.clone();
        for p in &c.planes {
            let cells: Vec<u32> = p
                .covered_cells(demand, c.swath_half_angle)
                .into_iter()
                .map(|cell| flat(demand.tod_bins(), cell))
                .collect();
            subtract(&mut residual, &cells, c.config.sat_capacity);
        }
        residual
    }

    #[test]
    fn demand_is_satisfied_by_construction() {
        let mut v = vec![0.0; 36 * 24];
        for (k, slot) in v.iter_mut().enumerate() {
            *slot = ((k % 7) as f64) * 0.5;
        }
        // Zero out polar rows (unreachable demand is a modelling artifact).
        for i in [0, 1, 34, 35] {
            for j in 0..24 {
                v[i * 24 + j] = 0.0;
            }
        }
        let g = LatTodGrid::from_values(36, 24, v).unwrap();
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        assert!(replayed_residual(&g, &c).is_satisfied(1e-9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For random grid shapes, demand patterns and every branch rule,
        /// the planes the memoized greedy returns empty the demand when
        /// their coverage is recomputed from scratch.
        #[test]
        fn random_demand_is_satisfied_by_construction(
            lat_bins in 4usize..40,
            tod_bins in 3usize..30,
            salt in 0u64..u64::MAX,
            rule in 0usize..3,
        ) {
            let branch_rule =
                [BranchRule::BestOfBoth, BranchRule::AscendingOnly, BranchRule::Alternate][rule];
            let mut v = vec![0.0; lat_bins * tod_bins];
            let mut state = salt;
            for (k, slot) in v.iter_mut().enumerate() {
                // splitmix64: quarter-capacity steps in [0, 2.5].
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let lat = -90.0 + 180.0 * ((k / tod_bins) as f64 + 0.5) / lat_bins as f64;
                // Only the band every SS-plane reaches carries demand.
                if lat.abs() <= 70.0 {
                    *slot = ((z ^ (z >> 31)) % 11) as f64 * 0.25;
                }
            }
            let g = LatTodGrid::from_values(lat_bins, tod_bins, v).unwrap();
            let c = design_ss_constellation(&g, DesignConfig { branch_rule, ..fast_config() })
                .unwrap();
            prop_assert_eq!(c.unserved_demand, 0.0);
            let left = replayed_residual(&g, &c);
            prop_assert!(left.is_satisfied(c.config.epsilon), "left {}", left.total());
        }
    }

    #[test]
    fn plane_count_grows_sublinearly_near_origin_then_linearly() {
        // Greedy plane counts for increasing multipliers are monotone
        // non-decreasing.
        let base = point_demand(22, 15, 1.0);
        let mut prev = 0;
        for mult in [1.0, 2.0, 5.0, 10.0] {
            let c = design_ss_constellation(&base.scaled(mult), fast_config()).unwrap();
            assert!(c.planes.len() >= prev);
            assert_eq!(c.planes.len(), mult as usize, "point demand costs mult planes");
            prev = c.planes.len();
        }
    }

    #[test]
    fn shared_track_demand_cheaper_than_spread_demand() {
        // Demand spread along one plane's track costs fewer planes than
        // the same total demand spread across opposing local times.
        let orbit = sun_synchronous_orbit(560.0).unwrap();
        let g_empty = LatTodGrid::from_values(36, 24, vec![0.0; 36 * 24]).unwrap();

        // On-track: sample the LTAN-10h plane's own path.
        let plane = SsPlane { orbit: orbit.with_ltan(10.0), n_sats: 1 };
        let mut on_track = g_empty.clone();
        for p in plane.track_points(48) {
            let (i, j) = on_track.cell_of(p);
            *on_track.value_mut(i, j) = 1.0;
        }
        let cost_on = design_ss_constellation(&on_track, fast_config()).unwrap().planes.len();

        // Spread: same number of unit-demand cells, but scattered at a
        // fixed latitude across all local times (no single plane covers
        // opposite-noon cells at low latitude).
        let n_cells = {
            let mut n = 0;
            for i in 0..36 {
                for j in 0..24 {
                    if on_track.value(i, j) > 0.0 {
                        n += 1;
                    }
                }
            }
            n
        };
        let mut spread = g_empty.clone();
        let mut placed = 0;
        'outer: for j in 0..24 {
            for i in [20usize, 23, 17] {
                if placed == n_cells {
                    break 'outer;
                }
                *spread.value_mut(i, j) = 1.0;
                placed += 1;
            }
        }
        let cost_spread = design_ss_constellation(&spread, fast_config()).unwrap().planes.len();
        assert!(cost_on < cost_spread, "on-track {cost_on} planes vs spread {cost_spread} planes");
    }

    #[test]
    fn branch_rules_all_converge() {
        let g = point_demand(20, 8, 2.0);
        for rule in [BranchRule::BestOfBoth, BranchRule::AscendingOnly, BranchRule::Alternate] {
            let c =
                design_ss_constellation(&g, DesignConfig { branch_rule: rule, ..fast_config() })
                    .unwrap();
            assert_eq!(c.planes.len(), 2, "{rule:?}");
        }
    }

    #[test]
    fn bad_config_rejected() {
        let g = point_demand(20, 8, 1.0);
        assert!(matches!(
            design_ss_constellation(&g, DesignConfig { sat_capacity: 0.0, ..fast_config() }),
            Err(CoreError::BadConfig { .. })
        ));
        assert!(matches!(
            design_ss_constellation(&g, DesignConfig { max_planes: 0, ..fast_config() }),
            Err(CoreError::BadConfig { .. })
        ));
    }

    #[test]
    fn plane_budget_error_reports_residual() {
        let g = point_demand(20, 8, 10.0);
        let err = design_ss_constellation(&g, DesignConfig { max_planes: 3, ..fast_config() })
            .unwrap_err();
        match err {
            CoreError::PlaneBudgetExhausted { placed, residual_demand } => {
                assert_eq!(placed, 3);
                assert!((residual_demand - 7.0).abs() < 1e-9);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn all_planes_share_inclination() {
        let g = point_demand(25, 14, 3.0);
        let c = design_ss_constellation(&g, fast_config()).unwrap();
        let inc = c.inclination().unwrap();
        for p in &c.planes {
            assert!((p.orbit.inclination - inc).abs() < 1e-12);
        }
        // Retrograde sun-synchronous.
        assert!(inc > core::f64::consts::FRAC_PI_2);
    }
}
