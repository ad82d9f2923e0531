//! Fluence accumulation along orbits — the quantities behind the paper's
//! Fig. 7 (fluence vs inclination) and Fig. 10 (median per-satellite
//! fluence of a constellation).

use crate::error::Result;
use crate::flux::RadiationEnvironment;
use ssplane_astro::kepler::OrbitalElements;
use ssplane_astro::propagate::J2Propagator;
use ssplane_astro::time::Epoch;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Fluence accumulated over one day \[#/cm²/MeV\] for both species.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DailyFluence {
    /// Electron fluence \[#/cm²/MeV\].
    pub electron: f64,
    /// Proton fluence \[#/cm²/MeV\].
    pub proton: f64,
}

impl DailyFluence {
    /// Component-wise sum.
    pub fn combined(self, other: DailyFluence) -> DailyFluence {
        DailyFluence {
            electron: self.electron + other.electron,
            proton: self.proton + other.proton,
        }
    }

    /// Component-wise scaling.
    pub fn scale(self, k: f64) -> DailyFluence {
        DailyFluence { electron: self.electron * k, proton: self.proton * k }
    }
}

/// Integrates the daily fluence of a satellite on `elements` starting at
/// `epoch`, sampling the environment every `step_s` seconds for 24 hours.
///
/// # Errors
/// Propagates propagation or flux-evaluation failure (invalid elements or
/// an orbit dipping below ~100 km).
pub fn daily_fluence(
    env: &RadiationEnvironment,
    elements: &OrbitalElements,
    epoch: Epoch,
    step_s: f64,
) -> Result<DailyFluence> {
    let step_s = step_s.clamp(1.0, 600.0);
    let prop = J2Propagator::new(epoch, *elements)?;
    let n_steps = (86_400.0 / step_s).round() as usize;
    let mut total = DailyFluence::default();
    for k in 0..n_steps {
        let t = epoch + (k as f64 + 0.5) * step_s;
        let r = prop.position_at(t)?;
        let s = env.flux_eci(r, t)?;
        total.electron += s.electron * step_s;
        total.proton += s.proton * step_s;
    }
    Ok(total)
}

/// The exact bits of one [`daily_fluence`] call's inputs: the six
/// elements, the epoch and the step.
type FluenceKey = [u64; 8];

/// A memo of [`daily_fluence`] for one [`RadiationEnvironment`].
///
/// `daily_fluence` is a pure function of the elements, the epoch and the
/// step for a fixed environment, so a result keyed on the exact bits of
/// those inputs is the value a fresh integration would return: the cache
/// changes cost, never value. Each key has its own cell: a caller that
/// wants a key another thread is integrating waits for that result, and
/// the map lock is never held during an integration. Errors are returned
/// and not cached.
///
/// The cache grows with every distinct key, so scope it to one unit of
/// work (one sweep, one figure) rather than a process.
#[derive(Debug)]
pub struct FluenceCache {
    env: RadiationEnvironment,
    entries: Mutex<BTreeMap<FluenceKey, Arc<Mutex<Option<DailyFluence>>>>>,
}

impl FluenceCache {
    /// An empty cache for `env`.
    pub fn new(env: RadiationEnvironment) -> Self {
        FluenceCache { env, entries: Mutex::new(BTreeMap::new()) }
    }

    /// The environment every cached value was integrated in.
    pub fn environment(&self) -> &RadiationEnvironment {
        &self.env
    }

    /// Distinct keys held: every key integrated (or being integrated),
    /// never one whose integration failed.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("fluence cache poisoned").len()
    }

    /// Whether the cache holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`daily_fluence`] in the cache's environment, integrated once per
    /// distinct key.
    ///
    /// # Errors
    /// As [`daily_fluence`]; an error is not cached, so the next call for
    /// the key integrates again.
    pub fn daily_fluence(
        &self,
        elements: &OrbitalElements,
        epoch: Epoch,
        step_s: f64,
    ) -> Result<DailyFluence> {
        let key = [
            elements.semi_major_axis_km.to_bits(),
            elements.eccentricity.to_bits(),
            elements.inclination.to_bits(),
            elements.raan.to_bits(),
            elements.arg_perigee.to_bits(),
            elements.mean_anomaly.to_bits(),
            epoch.seconds_j2000().to_bits(),
            step_s.to_bits(),
        ];
        let cell = Arc::clone(
            self.entries.lock().expect("fluence cache poisoned").entry(key).or_default(),
        );
        let mut value = cell.lock().expect("fluence cache cell poisoned");
        if let Some(f) = *value {
            return Ok(f);
        }
        match daily_fluence(&self.env, elements, epoch, step_s) {
            Ok(f) => {
                *value = Some(f);
                Ok(f)
            }
            Err(e) => {
                // Map holders never wait on a cell, so taking the map
                // lock while holding this cell cannot deadlock.
                self.entries.lock().expect("fluence cache poisoned").remove(&key);
                Err(e)
            }
        }
    }
}

/// The paper's Fig. 7 sweep: daily fluence of circular orbits at
/// `altitude_km` for each inclination \[deg\], starting at `epoch`.
///
/// # Errors
/// Propagates [`daily_fluence`] failure.
pub fn fluence_vs_inclination(
    env: &RadiationEnvironment,
    altitude_km: f64,
    inclinations_deg: &[f64],
    epoch: Epoch,
    step_s: f64,
) -> Result<Vec<(f64, DailyFluence)>> {
    inclinations_deg
        .iter()
        .map(|&inc| {
            let el = OrbitalElements::circular(altitude_km, inc.to_radians(), 0.0, 0.0)?;
            Ok((inc, daily_fluence(env, &el, epoch, step_s)?))
        })
        .collect()
}

/// Daily fluence of every satellite in a constellation.
///
/// # Errors
/// Propagates [`daily_fluence`] failure.
pub fn constellation_fluences(
    env: &RadiationEnvironment,
    satellites: &[OrbitalElements],
    epoch: Epoch,
    step_s: f64,
) -> Result<Vec<DailyFluence>> {
    satellites.iter().map(|el| daily_fluence(env, el, epoch, step_s)).collect()
}

/// Median of a slice of per-satellite fluences, component-wise.
/// Returns zeros for an empty slice.
pub fn median_fluence(fluences: &[DailyFluence]) -> DailyFluence {
    if fluences.is_empty() {
        return DailyFluence::default();
    }
    let median_of = |extract: fn(&DailyFluence) -> f64| -> f64 {
        let mut v: Vec<f64> = fluences.iter().map(extract).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    };
    DailyFluence { electron: median_of(|f| f.electron), proton: median_of(|f| f.proton) }
}

/// Mean of a slice of per-satellite fluences (zeros if empty).
pub fn mean_fluence(fluences: &[DailyFluence]) -> DailyFluence {
    if fluences.is_empty() {
        return DailyFluence::default();
    }
    let n = fluences.len() as f64;
    fluences.iter().fold(DailyFluence::default(), |acc, f| acc.combined(*f)).scale(1.0 / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::par::par_map;

    fn env() -> RadiationEnvironment {
        RadiationEnvironment::default()
    }

    fn epoch() -> Epoch {
        // Mid-cycle epoch for stable activity.
        Epoch::from_calendar(2013, 6, 1, 0, 0, 0.0)
    }

    fn circ(alt: f64, inc_deg: f64) -> OrbitalElements {
        OrbitalElements::circular(alt, inc_deg.to_radians(), 0.0, 0.0).unwrap()
    }

    #[test]
    fn fig7_decades_at_560km() {
        // Paper Fig. 7: electron daily fluence of order 10⁹–10¹⁰ and
        // proton fluence of order 10⁷ at 560 km for 60-80° inclinations.
        let f = daily_fluence(&env(), &circ(560.0, 65.0), epoch(), 60.0).unwrap();
        assert!(f.electron > 1e9 && f.electron < 1e11, "electron fluence = {:e}", f.electron);
        assert!(f.proton > 1e6 && f.proton < 1e8, "proton fluence = {:e}", f.proton);
    }

    #[test]
    fn fig7_shape_moderate_inclination_worst_for_electrons() {
        let e = env();
        let t = epoch();
        let sweep =
            fluence_vs_inclination(&e, 560.0, &[30.0, 50.0, 65.0, 80.0, 97.64], t, 60.0).unwrap();
        let by_inc: Vec<f64> = sweep.iter().map(|(_, f)| f.electron).collect();
        // 65° near the worst case.
        let at65 = by_inc[2];
        assert!(at65 > by_inc[0], "65° must beat 30°");
        assert!(at65 > by_inc[4] * 1.1, "65° ({:e}) must exceed SSO ({:e})", at65, by_inc[4]);
        // 50° sits in the dip between the SAA band and the horns.
        assert!(by_inc[1] < 0.9 * at65, "50° = {:e}, 65° = {:e}", by_inc[1], at65);
    }

    #[test]
    fn protons_lower_for_sso_than_mid_inclination() {
        let e = env();
        let t = epoch();
        let mid = daily_fluence(&e, &circ(560.0, 40.0), t, 60.0).unwrap();
        let sso = daily_fluence(&e, &circ(560.0, 97.64), t, 60.0).unwrap();
        assert!(
            sso.proton < mid.proton,
            "SSO proton {:e} must be below 40° proton {:e}",
            sso.proton,
            mid.proton
        );
    }

    #[test]
    fn fluence_scales_with_duration_step_invariance() {
        // Halving the step should not change the daily fluence much.
        let e = env();
        let el = circ(560.0, 65.0);
        let a = daily_fluence(&e, &el, epoch(), 120.0).unwrap();
        let b = daily_fluence(&e, &el, epoch(), 60.0).unwrap();
        assert!((a.electron - b.electron).abs() / b.electron < 0.05);
        assert!((a.proton - b.proton).abs() / b.proton.max(1.0) < 0.15);
    }

    #[test]
    fn cache_returns_the_integrals_bit_for_bit() {
        let cache = FluenceCache::new(env());
        let mut off_phase = circ(560.0, 97.64);
        off_phase.mean_anomaly = 1.25;
        for (el, step) in
            [(circ(560.0, 65.0), 300.0), (off_phase, 120.0), (circ(1200.0, 53.0), 600.0)]
        {
            let fresh = daily_fluence(&env(), &el, epoch(), step).unwrap();
            for _ in 0..2 {
                let cached = cache.daily_fluence(&el, epoch(), step).unwrap();
                assert_eq!(cached.electron.to_bits(), fresh.electron.to_bits());
                assert_eq!(cached.proton.to_bits(), fresh.proton.to_bits());
            }
        }
        assert_eq!(cache.environment().solar.activity(epoch()), env().solar.activity(epoch()));
    }

    #[test]
    fn cache_holds_one_entry_per_distinct_key() {
        let cache = FluenceCache::new(env());
        assert!(cache.is_empty());
        let (a, b) = (circ(560.0, 65.0), circ(560.0, 97.64));
        let calls = [(a, 600.0), (b, 600.0), (a, 600.0), (a, 300.0), (b, 600.0), (a, 600.0)];
        let values: Vec<DailyFluence> =
            par_map(&calls, 3, |(el, step)| cache.daily_fluence(el, epoch(), *step).unwrap());
        assert_eq!(cache.len(), 3, "keys: (a, 600), (b, 600), (a, 300)");
        assert_eq!(values[0], values[2]);
        assert_eq!(values[0], values[5]);
        assert_eq!(values[1], values[4]);
        // Any bit of the key is a different key, e.g. the epoch.
        cache.daily_fluence(&a, epoch() + 1.0, 600.0).unwrap();
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_returns_errors_without_caching_them() {
        let cache = FluenceCache::new(env());
        cache.daily_fluence(&circ(560.0, 65.0), epoch(), 600.0).unwrap();
        // Perigee inside the Earth: the propagation or flux lookup fails.
        let mut sub = circ(560.0, 65.0);
        sub.eccentricity = 0.5;
        let direct = daily_fluence(&env(), &sub, epoch(), 600.0).unwrap_err();
        for _ in 0..2 {
            assert_eq!(cache.daily_fluence(&sub, epoch(), 600.0).unwrap_err(), direct);
            assert_eq!(cache.len(), 1, "the failed key is not held");
        }
    }

    #[test]
    fn median_and_mean_helpers() {
        let fl = vec![
            DailyFluence { electron: 1.0, proton: 10.0 },
            DailyFluence { electron: 3.0, proton: 30.0 },
            DailyFluence { electron: 100.0, proton: 20.0 },
        ];
        let med = median_fluence(&fl);
        assert_eq!(med.electron, 3.0);
        assert_eq!(med.proton, 20.0);
        let mean = mean_fluence(&fl);
        assert!((mean.electron - 104.0 / 3.0).abs() < 1e-12);
        assert_eq!(median_fluence(&[]), DailyFluence::default());
        assert_eq!(mean_fluence(&[]), DailyFluence::default());
        // Even-length median averages the middle two.
        let med2 = median_fluence(&fl[0..2]);
        assert_eq!(med2.electron, 2.0);
    }

    #[test]
    fn constellation_fluences_per_satellite() {
        let e = env();
        let sats = vec![circ(560.0, 65.0), circ(560.0, 97.64)];
        let fl = constellation_fluences(&e, &sats, epoch(), 120.0).unwrap();
        assert_eq!(fl.len(), 2);
        assert!(fl[0].electron > fl[1].electron);
    }

    #[test]
    fn phase_variation_within_plane_is_modest() {
        // Satellites at different phases of the same plane accumulate
        // similar daily fluence (they traverse the same shells).
        let e = env();
        let t = epoch();
        let mut worst_ratio = 1.0f64;
        let base = daily_fluence(&e, &circ(560.0, 65.0), t, 120.0).unwrap().electron;
        for j in 1..4 {
            let mut el = circ(560.0, 65.0);
            el.mean_anomaly = core::f64::consts::TAU * j as f64 / 4.0;
            let f = daily_fluence(&e, &el, t, 120.0).unwrap().electron;
            worst_ratio = worst_ratio.max(f / base).max(base / f);
        }
        assert!(worst_ratio < 1.25, "phase spread ratio = {worst_ratio}");
    }
}
