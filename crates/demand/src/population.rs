//! Synthetic gridded world population density.
//!
//! A procedural stand-in for the SEDAC Gridded World Population dataset the
//! paper uses (its ref. \[11\]). The generator is calibrated so that the
//! *maximum density per latitude* profile — the only spatial moment the
//! paper's Fig. 3 and the constellation designers consume — matches the
//! published curve: population mass concentrated at intermediate northern
//! latitudes with a peak of ≈ 6000 persons/km² near 20–30°N, a secondary
//! southern-hemisphere mass near the tropics, and near-zero density
//! poleward of ±60°.
//!
//! Spatial texture (continents, Zipf-sized city clusters) is added so the
//! Earth-fixed demand map of Fig. 5 has realistic longitudinal clustering.

use crate::error::{DemandError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic population generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of latitude bins (default 360 → 0.5° cells, matching SEDAC).
    pub lat_bins: usize,
    /// Number of longitude bins (default 720 → 0.5° cells).
    pub lon_bins: usize,
    /// Number of synthetic city clusters.
    pub n_cities: usize,
    /// RNG seed; every run with the same seed is identical.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig { lat_bins: 360, lon_bins: 720, n_cities: 2500, seed: 42 }
    }
}

/// Rectangular "continent" regions (lat/lon degrees) with sampling weights
/// roughly proportional to real population shares.
const LAND_BOXES: &[(f64, f64, f64, f64, f64)] = &[
    // (lat_min, lat_max, lon_min, lon_max, weight)
    (15.0, 55.0, -125.0, -65.0, 0.07),  // North America
    (-40.0, 15.0, -82.0, -40.0, 0.06),  // Central & South America
    (36.0, 60.0, -10.0, 40.0, 0.10),    // Europe
    (-35.0, 36.0, -16.0, 50.0, 0.17),   // Africa & Middle East (west)
    (5.0, 40.0, 50.0, 92.0, 0.28),      // South Asia / Middle East (east)
    (18.0, 48.0, 92.0, 130.0, 0.20),    // East Asia
    (-10.0, 18.0, 92.0, 128.0, 0.09),   // Southeast Asia
    (-40.0, -12.0, 113.0, 155.0, 0.02), // Australia
    (30.0, 45.0, 128.0, 143.0, 0.01),   // Japan / Korea (east)
];

/// The latitude envelope \[persons/km²\]: target maximum density at each
/// latitude, matched to the paper's Fig. 3.
///
/// Modeled as the max of Gaussian components so each peak value is
/// directly controlled.
pub fn latitude_envelope(lat_deg: f64) -> f64 {
    const COMPONENTS: &[(f64, f64, f64)] = &[
        // (center latitude, sigma, peak persons/km²)
        (23.0, 11.0, 6000.0), // South/East Asia belt — the Fig. 3 peak
        (38.0, 7.0, 4200.0),  // Mediterranean/China/US band
        (50.0, 5.0, 1800.0),  // Northern Europe
        (8.0, 8.0, 3200.0),   // Equatorial belt
        (-8.0, 8.0, 2000.0),  // Southern tropics (Java, Brazil)
        (-30.0, 6.0, 1000.0), // Southern mid-latitudes
    ];
    COMPONENTS
        .iter()
        .map(|&(mu, sigma, peak)| peak * (-((lat_deg - mu) / sigma).powi(2) / 2.0).exp())
        .fold(0.0, f64::max)
}

/// A latitude × longitude grid of population density \[persons/km²\].
#[derive(Debug, Clone)]
pub struct PopulationGrid {
    lat_bins: usize,
    lon_bins: usize,
    /// Row-major `[lat][lon]`, south-to-north, west-to-east.
    density: Vec<f64>,
}

/// One synthetic city cluster: a Gaussian kernel on the modulation.
#[derive(Debug, Clone, Copy)]
struct City {
    lat: f64,
    lon: f64,
    /// Peak modulation contribution.
    amplitude: f64,
    /// Kernel width \[deg\].
    sigma: f64,
}

impl City {
    /// The city's modulation term at the cell centered on `(lat, lon)`
    /// \[deg\], or `None` outside its 4σ cutoff.
    fn term(&self, lat: f64, lon: f64) -> Option<f64> {
        let dl = (lat - self.lat) / self.sigma;
        // Longitude wrap for kernels near the date line.
        let mut dlon_c = (lon - self.lon).abs();
        if dlon_c > 180.0 {
            dlon_c = 360.0 - dlon_c;
        }
        let dn = dlon_c / self.sigma;
        let d2 = dl * dl + dn * dn;
        (d2 < 16.0).then(|| self.amplitude * (-d2 / 2.0).exp())
    }
}

/// The modulation every cell starts from: a land or ocean floor.
fn land_base(lat: f64, lon: f64) -> f64 {
    let on_land =
        LAND_BOXES.iter().any(|&(a, b, c, d, _)| lat >= a && lat <= b && lon >= c && lon <= d);
    if on_land {
        0.02
    } else {
        0.0005
    }
}

/// Samples the anchor megacities and then the `n_cities` Zipf-sized
/// clusters, in the order their kernels are summed.
fn sample_cities(config: &PopulationConfig) -> Vec<City> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_weight: f64 = LAND_BOXES.iter().map(|b| b.4).sum();
    let mut cities = Vec::with_capacity(config.n_cities + 4 * LAND_BOXES.len());
    // Anchor megacities: a few per land box, guaranteeing that each
    // region's core latitudes saturate the envelope (the SEDAC max-per-
    // latitude curve is achieved by a single dense city in each band).
    for &(lat_min, lat_max, lon_min, lon_max, _) in LAND_BOXES {
        for a in 0..4 {
            let frac = (a as f64 + 0.5) / 4.0;
            let lat = lat_min + (lat_max - lat_min) * frac;
            let lon = lon_min + (lon_max - lon_min) * rng.gen::<f64>();
            cities.push(City { lat, lon, amplitude: 2.0, sigma: 1.0 + rng.gen::<f64>() });
        }
    }
    for rank in 0..config.n_cities {
        // Pick a land box by weight.
        let mut pick = rng.gen::<f64>() * total_weight;
        let mut chosen = LAND_BOXES[0];
        for b in LAND_BOXES {
            pick -= b.4;
            if pick <= 0.0 {
                chosen = *b;
                break;
            }
        }
        let (lat_min, lat_max, lon_min, lon_max, _) = chosen;
        // Rejection-sample latitude proportionally to the envelope so
        // big cities sit where Fig. 3 has mass.
        let env_max = (0..64)
            .map(|k| latitude_envelope(lat_min + (lat_max - lat_min) * (k as f64 + 0.5) / 64.0))
            .fold(1e-9, f64::max);
        let lat = loop {
            let cand = lat_min + (lat_max - lat_min) * rng.gen::<f64>();
            if rng.gen::<f64>() * env_max <= latitude_envelope(cand) {
                break cand;
            }
        };
        let lon = lon_min + (lon_max - lon_min) * rng.gen::<f64>();
        // Zipf-like sizes: the first few hundred cities can saturate
        // the envelope; the tail adds texture.
        let amplitude = (1.0 / (1.0 + rank as f64).powf(0.55)).min(1.0) * 3.0;
        let sigma = 0.5 + 1.5 * rng.gen::<f64>();
        cities.push(City { lat, lon, amplitude, sigma });
    }
    cities
}

/// Cell centers \[deg\] of the population grid.
struct CellGeometry {
    dlat: f64,
    dlon: f64,
}

impl CellGeometry {
    fn new(config: &PopulationConfig) -> Self {
        CellGeometry { dlat: 180.0 / config.lat_bins as f64, dlon: 360.0 / config.lon_bins as f64 }
    }

    fn lat(&self, i: usize) -> f64 {
        -90.0 + self.dlat * (i as f64 + 0.5)
    }

    fn lon(&self, j: usize) -> f64 {
        -180.0 + self.dlon * (j as f64 + 0.5)
    }

    /// The unclamped index range of cells (centers `start + step·(k + ½)`)
    /// whose centers may lie within `reach` of `center`, padded by one
    /// cell on each side so rounding can never drop a cell.
    fn span(center: f64, reach: f64, start: f64, step: f64) -> (isize, isize) {
        let lo = ((center - reach - start) / step - 0.5).floor() as isize - 1;
        let hi = ((center + reach - start) / step - 0.5).ceil() as isize + 1;
        (lo, hi)
    }
}

/// Fills the density grid by splatting each city over the cells of its
/// 4σ box only. Every cell receives the same terms, in the same (city)
/// order, as a dense evaluation of every city at every cell, so the grid
/// is bit-identical to it. The modulation accumulates in place in the
/// output buffer.
fn splat(config: &PopulationConfig, cities: &[City]) -> Vec<f64> {
    let (lat_bins, lon_bins) = (config.lat_bins, config.lon_bins);
    let geo = CellGeometry::new(config);
    let envelope: Vec<f64> = (0..lat_bins).map(|i| latitude_envelope(geo.lat(i))).collect();
    let populated = |i: usize| envelope[i] >= 1e-6;

    let mut density = vec![0.0; lat_bins * lon_bins];
    for i in (0..lat_bins).filter(|&i| populated(i)) {
        let lat = geo.lat(i);
        for (j, cell) in density[i * lon_bins..(i + 1) * lon_bins].iter_mut().enumerate() {
            *cell = land_base(lat, geo.lon(j));
        }
    }
    let (n_lat, n_lon) = (lat_bins as isize, lon_bins as isize);
    for city in cities {
        let reach = 4.0 * city.sigma;
        let (i_lo, i_hi) = CellGeometry::span(city.lat, reach, -90.0, geo.dlat);
        let (j_lo, j_hi) = CellGeometry::span(city.lon, reach, -180.0, geo.dlon);
        // A box as wide as the grid visits every column once.
        let (j_lo, j_hi) = if j_hi - j_lo + 1 >= n_lon { (0, n_lon - 1) } else { (j_lo, j_hi) };
        let rows = i_lo.clamp(0, n_lat)..(i_hi + 1).clamp(0, n_lat);
        for i in rows.map(|i| i as usize).filter(|&i| populated(i)) {
            let lat = geo.lat(i);
            for k in j_lo..=j_hi {
                let j = k.rem_euclid(n_lon) as usize;
                if let Some(term) = city.term(lat, geo.lon(j)) {
                    density[i * lon_bins + j] += term;
                }
            }
        }
    }
    // Rows below the envelope floor were never written and stay 0.
    for (i, row) in density.chunks_mut(lon_bins).enumerate().filter(|&(i, _)| populated(i)) {
        for cell in row {
            *cell = envelope[i] * cell.min(1.0);
        }
    }
    density
}

impl PopulationGrid {
    /// Generates the synthetic population grid.
    ///
    /// # Errors
    /// Returns [`DemandError::EmptyGrid`] for zero-sized dimensions.
    pub fn synthetic(config: PopulationConfig) -> Result<Self> {
        if config.lat_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "lat_bins" });
        }
        if config.lon_bins == 0 {
            return Err(DemandError::EmptyGrid { dimension: "lon_bins" });
        }
        let density = splat(&config, &sample_cities(&config));
        Ok(PopulationGrid { lat_bins: config.lat_bins, lon_bins: config.lon_bins, density })
    }

    /// Number of latitude bins.
    pub fn lat_bins(&self) -> usize {
        self.lat_bins
    }

    /// Number of longitude bins.
    pub fn lon_bins(&self) -> usize {
        self.lon_bins
    }

    /// Center latitude \[deg\] of latitude bin `i` (south to north).
    pub fn lat_center_deg(&self, i: usize) -> f64 {
        -90.0 + 180.0 * (i as f64 + 0.5) / self.lat_bins as f64
    }

    /// Center longitude \[deg\] of longitude bin `j` (west to east).
    pub fn lon_center_deg(&self, j: usize) -> f64 {
        -180.0 + 360.0 * (j as f64 + 0.5) / self.lon_bins as f64
    }

    /// Density \[persons/km²\] of cell `(i, j)`.
    pub fn cell(&self, i: usize, j: usize) -> f64 {
        self.density[i * self.lon_bins + j]
    }

    /// Density at geographic coordinates \[deg\] (nearest cell; longitude
    /// wraps, latitude clamps).
    pub fn density_at(&self, lat_deg: f64, lon_deg: f64) -> f64 {
        let i = (((lat_deg + 90.0) / 180.0 * self.lat_bins as f64).floor() as isize)
            .clamp(0, self.lat_bins as isize - 1) as usize;
        let mut lon = (lon_deg + 180.0).rem_euclid(360.0);
        if lon >= 360.0 {
            lon -= 360.0;
        }
        let j = ((lon / 360.0 * self.lon_bins as f64).floor() as usize).min(self.lon_bins - 1);
        self.cell(i, j)
    }

    /// Maximum density over all longitudes at each latitude — the paper's
    /// Fig. 3 curve. Returns `(lat_center_deg, max_density)` pairs, south
    /// to north.
    pub fn max_density_per_latitude(&self) -> Vec<(f64, f64)> {
        (0..self.lat_bins)
            .map(|i| {
                let max = (0..self.lon_bins).map(|j| self.cell(i, j)).fold(0.0, f64::max);
                (self.lat_center_deg(i), max)
            })
            .collect()
    }

    /// Area \[km²\] of one cell in latitude row `i`.
    pub fn cell_area_km2(&self, i: usize) -> f64 {
        let dlat = core::f64::consts::PI / self.lat_bins as f64;
        let lat0 = -core::f64::consts::FRAC_PI_2 + dlat * i as f64;
        ssplane_astro::geo::latitude_band_area_km2(lat0, lat0 + dlat) / self.lon_bins as f64
    }

    /// Total population (density × area summed over the grid).
    pub fn total_population(&self) -> f64 {
        (0..self.lat_bins)
            .map(|i| {
                let area = self.cell_area_km2(i);
                (0..self.lon_bins).map(|j| self.cell(i, j) * area).sum::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssplane_astro::constants::EARTH_RADIUS_KM;

    fn small_grid() -> PopulationGrid {
        PopulationGrid::synthetic(PopulationConfig {
            lat_bins: 90,
            lon_bins: 180,
            n_cities: 600,
            seed: 42,
        })
        .unwrap()
    }

    /// The dense reference the splat replaced: every city evaluated at
    /// every cell of every populated row.
    fn dense_oracle(config: &PopulationConfig, cities: &[City]) -> Vec<f64> {
        let geo = CellGeometry::new(config);
        let mut density = vec![0.0; config.lat_bins * config.lon_bins];
        for i in 0..config.lat_bins {
            let lat = geo.lat(i);
            let envelope = latitude_envelope(lat);
            if envelope < 1e-6 {
                continue;
            }
            for j in 0..config.lon_bins {
                let lon = geo.lon(j);
                let mut modulation = land_base(lat, lon);
                for city in cities {
                    if let Some(term) = city.term(lat, lon) {
                        modulation += term;
                    }
                }
                density[i * config.lon_bins + j] = envelope * modulation.min(1.0);
            }
        }
        density
    }

    fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {k}: {x} vs {y}");
        }
    }

    #[test]
    fn splat_is_bitwise_the_dense_evaluation() {
        for (lat_bins, lon_bins) in [(37, 71), (90, 180), (360, 720)] {
            for (seed, n_cities) in [(42, 300), (7, 0), (0xDEAD_BEEF, 120)] {
                let config = PopulationConfig { lat_bins, lon_bins, n_cities, seed };
                let grid = PopulationGrid::synthetic(config).unwrap();
                let oracle = dense_oracle(&config, &sample_cities(&config));
                assert_bitwise_eq(&grid.density, &oracle, &format!("{config:?}"));
            }
        }
    }

    #[test]
    fn splat_wraps_city_boxes_across_the_date_line() {
        // Boxes straddling ±180°, one reaching a pole, and one wider than
        // a coarse grid's whole row.
        let cities = [
            City { lat: 20.0, lon: 179.3, amplitude: 0.6, sigma: 2.0 },
            City { lat: -5.0, lon: -179.9, amplitude: 0.4, sigma: 1.5 },
            City { lat: 58.0, lon: 178.0, amplitude: 3.0, sigma: 2.0 },
            City { lat: 88.0, lon: 0.0, amplitude: 1.0, sigma: 2.0 },
        ];
        for (lat_bins, lon_bins) in [(37, 71), (90, 180), (360, 720), (5, 3)] {
            let config = PopulationConfig { lat_bins, lon_bins, n_cities: 0, seed: 1 };
            let density = splat(&config, &cities);
            assert_bitwise_eq(&density, &dense_oracle(&config, &cities), &format!("{config:?}"));
        }
        // The wrap is real: the east-edge city lifts cells on the west edge.
        let config = PopulationConfig { lat_bins: 360, lon_bins: 720, n_cities: 0, seed: 1 };
        let density = splat(&config, &cities[..1]);
        let row = ((20.0 + 90.0) / 0.5) as usize;
        assert!(density[row * 720] > density[row * 720 + 100], "west edge gets the kernel");
    }

    #[test]
    fn envelope_matches_fig3_shape() {
        // Peak ~6000 near 20-30N.
        let peak = latitude_envelope(23.0);
        assert!((peak - 6000.0).abs() < 50.0);
        // Intermediate northern latitudes dominate the south.
        assert!(latitude_envelope(35.0) > latitude_envelope(-35.0));
        // Near-zero poleward of ±60°.
        assert!(latitude_envelope(70.0) < 100.0);
        assert!(latitude_envelope(-70.0) < 10.0);
        assert!(latitude_envelope(89.0) < 1.0);
    }

    #[test]
    fn grid_max_per_latitude_tracks_envelope() {
        let g = small_grid();
        let profile = g.max_density_per_latitude();
        // At populated latitudes the realized max should come within 40% of
        // the envelope (cities saturate the modulation).
        for target_lat in [23.0, 38.0, 8.0] {
            let (lat, max) = profile
                .iter()
                .min_by(|a, b| {
                    (a.0 - target_lat).abs().partial_cmp(&(b.0 - target_lat).abs()).unwrap()
                })
                .copied()
                .unwrap();
            let env = latitude_envelope(lat);
            assert!(max > 0.6 * env, "lat {lat}: max {max} vs envelope {env}");
            assert!(max <= env + 1e-9, "modulation must be clamped at 1");
        }
        // Poles empty.
        assert!(profile.first().unwrap().1 < 1.0);
        assert!(profile.last().unwrap().1 < 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_grid();
        let b = small_grid();
        assert_eq!(a.density, b.density);
        let c = PopulationGrid::synthetic(PopulationConfig {
            seed: 43,
            lat_bins: 90,
            lon_bins: 180,
            n_cities: 600,
        })
        .unwrap();
        assert_ne!(a.density, c.density);
    }

    #[test]
    fn density_lookup_consistent_with_cells() {
        let g = small_grid();
        let lat = g.lat_center_deg(40);
        let lon = g.lon_center_deg(100);
        assert_eq!(g.density_at(lat, lon), g.cell(40, 100));
        // Longitude wrap.
        assert_eq!(g.density_at(lat, lon + 360.0), g.cell(40, 100));
        assert_eq!(g.density_at(lat, lon - 360.0), g.cell(40, 100));
        // Latitude clamp at the poles.
        let _ = g.density_at(95.0, 0.0);
        let _ = g.density_at(-95.0, 0.0);
    }

    #[test]
    fn total_population_plausible() {
        let g = small_grid();
        let total = g.total_population();
        // Synthetic effective population: order 10^9 - 10^11.
        assert!(total > 1e9 && total < 1e11, "total = {total:e}");
    }

    #[test]
    fn ocean_cells_sparse() {
        let g = small_grid();
        // Mid-Pacific around (0°, -150°): far from any land box.
        let d = g.density_at(0.0, -150.0);
        assert!(d < 0.01 * latitude_envelope(0.0), "pacific density = {d}");
    }

    #[test]
    fn empty_grid_rejected() {
        assert!(PopulationGrid::synthetic(PopulationConfig { lat_bins: 0, ..Default::default() })
            .is_err());
        assert!(PopulationGrid::synthetic(PopulationConfig { lon_bins: 0, ..Default::default() })
            .is_err());
    }

    #[test]
    fn cell_areas_sum_to_earth_surface() {
        let g = small_grid();
        let total: f64 = (0..g.lat_bins()).map(|i| g.cell_area_km2(i) * g.lon_bins() as f64).sum();
        let sphere = 4.0 * core::f64::consts::PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM;
        assert!((total - sphere).abs() / sphere < 1e-9);
    }
}
