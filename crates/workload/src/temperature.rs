//! The TEMPERATURE dataset (Table II, left column).
//!
//! Paper figures: 8 000 sensor units on 530 near-static nodes (we use a
//! 10 × 53 mesh), 18 months of recording at two updates per day
//! (1 080 ticks of 12 h), `ρ = 0.89`, `σ̂ = 8`, 8 640 000 update records
//! (= 8 000 units × 1 080 occasions — every unit updates every tick).
//!
//! Generator model, per unit `u` at tick `t`:
//!
//! ```text
//! x_u(t) = base(t) + offset_u + a_u(t)
//! base(t) = mean + A_s sin(2πt/P_s) + A_d cos(πt) + drift(t)
//! a_u(t)  = ρ_ar a_u(t−1) + σ_inno ξ          (AR(1))
//! ```
//!
//! Calibration: cross-sectional variance `σ² = σ_off² + σ_a²` and
//! cross-unit lag-1 correlation `ρ = (σ_off² + ρ_ar σ_a²)/σ²`. The
//! defaults solve these for the Table II targets:
//! `σ_off² = 36, σ_a² = 28, ρ_ar ≈ 0.749` → `σ = 8`, `ρ = 0.89`.

use crate::scenario::Workload;
use digest_db::{Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::{topology, Graph, NodeId};
use rand::SeedableRng;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Configuration of the TEMPERATURE generator.
#[derive(Debug, Clone, Copy)]
pub struct TemperatureConfig {
    /// Number of sensor units (paper: 8 000).
    pub units: usize,
    /// Mesh dimensions; `rows × cols` nodes (paper: 530 → 10 × 53).
    pub mesh_rows: usize,
    /// Mesh columns.
    pub mesh_cols: usize,
    /// Recording duration in ticks of 12 h (paper: 18 months ≈ 1 080).
    pub ticks: u64,
    /// Long-run mean temperature (°F).
    pub mean: f64,
    /// Seasonal amplitude `A_s` (°F).
    pub seasonal_amplitude: f64,
    /// Seasonal period in ticks (1 year at 2 ticks/day = 730).
    pub seasonal_period: f64,
    /// Day/night alternation amplitude `A_d` (°F).
    pub diurnal_amplitude: f64,
    /// Std-dev of the slow random-walk drift added to the base per tick.
    pub drift_std: f64,
    /// Std-dev of the per-unit constant offset (`σ_off`).
    pub offset_std: f64,
    /// Stationary std-dev of the per-unit AR(1) component (`σ_a`).
    pub ar_std: f64,
    /// AR(1) coefficient (`ρ_ar`).
    pub ar_coeff: f64,
    /// Seed for the generator's own RNG (world construction + updates).
    pub seed: u64,
}

impl Default for TemperatureConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl TemperatureConfig {
    /// The full Table II scale.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            units: 8_000,
            mesh_rows: 10,
            mesh_cols: 53,
            ticks: 1_080,
            mean: 60.0,
            seasonal_amplitude: 12.0,
            seasonal_period: 730.0,
            diurnal_amplitude: 1.0,
            drift_std: 0.15,
            offset_std: 6.0,
            ar_std: 28.0_f64.sqrt(),
            ar_coeff: 0.748_6,
            seed: 0x00D1_6E57,
        }
    }

    /// A scaled-down configuration for unit tests and quick runs
    /// (same statistical calibration, smaller world).
    #[must_use]
    pub fn reduced(units: usize, rows: usize, cols: usize, ticks: u64) -> Self {
        Self {
            units,
            mesh_rows: rows,
            mesh_cols: cols,
            ticks,
            ..Self::paper_scale()
        }
    }
}

/// Generator state of one sensor unit; its tuple is `handles[i]`.
struct Unit {
    offset: f64,
    ar: f64,
}

/// The live TEMPERATURE scenario.
pub struct TemperatureWorkload {
    config: TemperatureConfig,
    graph: Graph,
    db: P2PDatabase,
    expr: Expr,
    /// The units' tuples, in the order `advance` rewrites them.
    handles: Vec<TupleHandle>,
    units: Vec<Unit>,
    rng: ChaCha8Rng,
    tick: u64,
    drift: f64,
}

impl TemperatureWorkload {
    /// Builds the scenario at tick 0 (units initialised from the
    /// stationary distribution).
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (zero mesh dimensions); the
    /// defaults are always valid.
    #[must_use]
    pub fn new(config: TemperatureConfig) -> Self {
        let graph = topology::mesh(config.mesh_rows, config.mesh_cols, false)
            .expect("mesh dimensions must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let schema = Schema::single("temperature");
        let mut db = P2PDatabase::new(schema);
        for v in graph.nodes() {
            db.register_node(v);
        }
        let node_ids: Vec<NodeId> = graph.nodes().collect();
        let expr = Expr::first_attr(db.schema());

        let mut handles = Vec::with_capacity(config.units);
        let mut units = Vec::with_capacity(config.units);
        let base = base_signal(&config, 0, 0.0);
        let mut words = BulkWords::new(&mut rng, 2 * GAUSSIAN_WORDS * config.units);
        for i in 0..config.units {
            let node = node_ids[i % node_ids.len()];
            let offset = config.offset_std * gaussian(&mut words);
            let ar = config.ar_std * gaussian(&mut words);
            let value = base + offset + ar;
            let handle = db
                .insert(node, Tuple::single(value))
                .expect("node registered");
            handles.push(handle);
            units.push(Unit { offset, ar });
        }
        Self {
            config,
            graph,
            db,
            expr,
            handles,
            units,
            rng,
            tick: 0,
            drift: 0.0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &TemperatureConfig {
        &self.config
    }
}

impl Workload for TemperatureWorkload {
    fn name(&self) -> &str {
        "TEMPERATURE"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn db(&self) -> &P2PDatabase {
        &self.db
    }

    fn expr(&self) -> &Expr {
        &self.expr
    }

    fn current_tick(&self) -> u64 {
        self.tick
    }

    fn duration(&self) -> u64 {
        self.config.ticks
    }

    fn advance(&mut self, _rng: &mut dyn RngCore) {
        self.tick += 1;
        // The drift's draw, then one per unit.
        let draws = self.units.len() + 1;
        let mut words = BulkWords::new(&mut self.rng, GAUSSIAN_WORDS * draws);
        self.drift += self.config.drift_std * gaussian(&mut words);
        let base = base_signal(&self.config, self.tick, self.drift);
        let ar_coeff = self.config.ar_coeff;
        let innovation_std = self.config.ar_std * (1.0 - ar_coeff.powi(2)).sqrt();
        let units = &mut self.units;
        self.db
            .update_rows(&self.handles, |i, row| {
                let unit = &mut units[i];
                unit.ar = ar_coeff * unit.ar + innovation_std * gaussian(&mut words);
                row[0] = base + unit.offset + unit.ar;
            })
            .expect("unit handles stay valid (no churn)");
    }

    fn exact_aggregate(&self) -> f64 {
        self.db.exact_avg(&self.expr).expect("non-empty relation")
    }

    fn sigma_ref(&self) -> f64 {
        (self.config.offset_std.powi(2) + self.config.ar_std.powi(2)).sqrt()
    }

    fn rho_ref(&self) -> f64 {
        let s2 = self.config.offset_std.powi(2) + self.config.ar_std.powi(2);
        (self.config.offset_std.powi(2) + self.config.ar_coeff * self.config.ar_std.powi(2)) / s2
    }
}

fn base_signal(cfg: &TemperatureConfig, tick: u64, drift: f64) -> f64 {
    let t = tick as f64;
    cfg.mean
        + cfg.seasonal_amplitude * (2.0 * std::f64::consts::PI * t / cfg.seasonal_period).sin()
        + cfg.diurnal_amplitude * (std::f64::consts::PI * t).cos()
        + drift
}

/// Keystream words one [`gaussian`] draw reads: two `next_u64`.
const GAUSSIAN_WORDS: usize = 4;

/// Words per [`BulkWords`] chunk (4 KiB, on the stack).
const CHUNK_WORDS: usize = 1_024;

/// `rng`'s next `words` words, drawn a chunk at a time through
/// [`ChaCha8Rng::fill_words`] and read back through `RngCore`, whose
/// `next_u64` is `lo | hi << 32` as `ChaCha8Rng`'s is. Reading exactly
/// `words` words returns what `rng` itself would and leaves it where it
/// would be; past that it draws one word per read.
struct BulkWords<'r> {
    rng: &'r mut ChaCha8Rng,
    /// Words still to be drawn from `rng`.
    owed: usize,
    chunk: [u32; CHUNK_WORDS],
    /// Next unread word of `chunk`.
    next: usize,
    /// Words of `chunk` filled by the last draw.
    filled: usize,
}

impl<'r> BulkWords<'r> {
    fn new(rng: &'r mut ChaCha8Rng, words: usize) -> Self {
        Self {
            rng,
            owed: words,
            chunk: [0; CHUNK_WORDS],
            next: 0,
            filled: 0,
        }
    }
}

impl RngCore for BulkWords<'_> {
    /// xtask: no-alloc
    fn next_u32(&mut self) -> u32 {
        if self.next == self.filled {
            // What is still owed, at most a chunk, at least one word.
            self.filled = self.owed.clamp(1, CHUNK_WORDS);
            self.owed = self.owed.saturating_sub(self.filled);
            self.rng.fill_words(&mut self.chunk[..self.filled]);
            self.next = 0;
        }
        let word = self.chunk[self.next];
        self.next += 1;
        word
    }

    /// xtask: no-alloc
    fn next_u64(&mut self) -> u64 {
        // Both words in the chunk (always, when chunks and reads are
        // even): one check instead of two.
        if self.next + 2 <= self.filled {
            let (lo, hi) = (self.chunk[self.next], self.chunk[self.next + 1]);
            self.next += 2;
            return u64::from(hi) << 32 | u64::from(lo);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        hi << 32 | lo
    }
}

/// Standard normal via Box–Muller (two uniforms per call, each from one
/// `next_u64`; the second value is discarded). Generation is the
/// bottleneck of most runs: the world advance it feeds is the benchmark's
/// `workload.advance_share` of ≈ 0.73 on `mux32`, ≈ 0.82 on `audited`
/// and ≈ 0.99 on `solo_loose`.
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn small() -> TemperatureWorkload {
        TemperatureWorkload::new(TemperatureConfig::reduced(400, 5, 8, 100))
    }

    #[test]
    fn construction_matches_config() {
        let w = small();
        assert_eq!(w.graph().node_count(), 40);
        assert_eq!(w.db().total_tuples(), 400);
        assert_eq!(w.current_tick(), 0);
        assert_eq!(w.duration(), 100);
        assert_eq!(w.name(), "TEMPERATURE");
    }

    #[test]
    fn paper_scale_matches_table2() {
        let cfg = TemperatureConfig::paper_scale();
        assert_eq!(cfg.units, 8_000);
        assert_eq!(cfg.mesh_rows * cfg.mesh_cols, 530);
        assert_eq!(cfg.ticks, 1_080);
        // Total update records = units × ticks = 8.64M (Table II).
        assert_eq!(cfg.units as u64 * cfg.ticks, 8_640_000);
    }

    #[test]
    fn calibration_formulas_hit_targets() {
        let w = TemperatureWorkload::new(TemperatureConfig::reduced(10, 2, 2, 10));
        assert!(
            (w.sigma_ref() - 8.0).abs() < 0.01,
            "σ_ref = {}",
            w.sigma_ref()
        );
        assert!(
            (w.rho_ref() - 0.89).abs() < 0.005,
            "ρ_ref = {}",
            w.rho_ref()
        );
    }

    #[test]
    fn advance_updates_every_unit() {
        let mut w = small();
        let before: Vec<f64> = w.db().iter().map(|(_, t)| t.value(0).unwrap()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        w.advance(&mut rng);
        let after: Vec<f64> = w.db().iter().map(|(_, t)| t.value(0).unwrap()).collect();
        assert_eq!(w.current_tick(), 1);
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(
            changed > 390,
            "almost all units should move, changed = {changed}"
        );
    }

    /// `advance` as it was before the batched writer: one `update` (and
    /// one tally bump) per unit.
    fn advance_per_unit(w: &mut TemperatureWorkload) {
        w.tick += 1;
        w.drift += w.config.drift_std * gaussian(&mut w.rng);
        let base = base_signal(&w.config, w.tick, w.drift);
        let innovation_std = w.config.ar_std * (1.0 - w.config.ar_coeff.powi(2)).sqrt();
        for (unit, &handle) in w.units.iter_mut().zip(&w.handles) {
            unit.ar = w.config.ar_coeff * unit.ar + innovation_std * gaussian(&mut w.rng);
            let value = base + unit.offset + unit.ar;
            w.db.update(handle, &[value]).unwrap();
        }
    }

    /// Both worlds hold the same rows bit for bit, the same aggregate, and
    /// generators at the same position.
    fn assert_same_world(a: &mut TemperatureWorkload, b: &mut TemperatureWorkload) {
        let bits = |w: &TemperatureWorkload| -> Vec<(TupleHandle, u64)> {
            let rows = w.db().iter();
            rows.map(|(h, row)| (h, row.values()[0].to_bits()))
                .collect()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.current_tick(), b.current_tick());
        assert_eq!(a.exact_aggregate().to_bits(), b.exact_aggregate().to_bits());
        assert_eq!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn batched_advance_is_the_per_unit_loop() {
        let (mut batched, mut looped) = (small(), small());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            batched.advance(&mut rng);
            advance_per_unit(&mut looped);
        }
        assert_same_world(&mut batched, &mut looped);
    }

    /// Mixed 32- and 64-bit reads that straddle chunk ends and run past
    /// the owed words return the generator's own words and leave it where
    /// its own reads would.
    #[test]
    fn bulk_words_read_as_the_generator_does() {
        for owed in [0, 1, 3, 1_023, 1_024, 1_025, 2_051] {
            let mut bulk_rng = ChaCha8Rng::seed_from_u64(owed as u64);
            let mut rng = bulk_rng.clone();
            let mut bulk = BulkWords::new(&mut bulk_rng, owed);
            let mut read = 0;
            while read <= owed + 4 {
                if read % 3 == 0 {
                    assert_eq!(bulk.next_u32(), rng.next_u32(), "owed {owed}, read {read}");
                    read += 1;
                } else {
                    assert_eq!(bulk.next_u64(), rng.next_u64(), "owed {owed}, read {read}");
                    read += 2;
                }
            }
            assert_eq!(bulk_rng.next_u64(), rng.next_u64(), "owed {owed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bulk keystream reads change no word: from 1 to 600 units a
        /// tick reads less than one eight-block group, exactly one, or
        /// several chunks. Construction draws each unit's offset and AR
        /// state in turn, and three batched ticks are the per-unit loop.
        #[test]
        fn bulk_reads_are_the_per_draw_stream(
            units in 1usize..601,
            seed in 0u64..1_000_000,
        ) {
            let config = TemperatureConfig {
                seed,
                ..TemperatureConfig::reduced(units, 2, 3, 3)
            };
            let mut batched = TemperatureWorkload::new(config);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for unit in &batched.units {
                let offset = config.offset_std * gaussian(&mut rng);
                let ar = config.ar_std * gaussian(&mut rng);
                prop_assert_eq!(unit.offset.to_bits(), offset.to_bits());
                prop_assert_eq!(unit.ar.to_bits(), ar.to_bits());
            }
            prop_assert_eq!(batched.rng.clone().next_u64(), rng.next_u64());
            let mut looped = TemperatureWorkload::new(config);
            for _ in 0..3 {
                batched.advance(&mut rng);
                advance_per_unit(&mut looped);
            }
            assert_same_world(&mut batched, &mut looped);
        }
    }

    #[test]
    fn aggregate_is_smooth() {
        let mut w = small();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut prev = w.exact_aggregate();
        let mut max_jump = 0.0_f64;
        for _ in 0..50 {
            w.advance(&mut rng);
            let x = w.exact_aggregate();
            max_jump = max_jump.max((x - prev).abs());
            prev = x;
        }
        // Diurnal alternation (±2·A_d) plus noise: well under σ per tick.
        assert!(max_jump < 4.0, "aggregate jumped {max_jump} in one tick");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut w = small();
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            for _ in 0..10 {
                w.advance(&mut rng);
            }
            w.exact_aggregate()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let x = gaussian(&mut rng);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }
}
