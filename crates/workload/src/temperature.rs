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

use crate::normal::{gaussian, Normals};
use crate::scenario::Workload;
use digest_db::{Expr, P2PDatabase, Schema, Tuple};
use digest_net::{topology, Graph, NodeId};
use rand::{RngCore, SeedableRng};
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

/// Generator state of one sensor unit. Unit `i` is row `i / n` of node
/// `i % n`'s fragment (`n` mesh nodes, ids `0..n`): `new` deals the units
/// round-robin and nothing ever deletes from the relation, so the mapping
/// is arithmetic and needs no handle.
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
        assert!(
            (0u32..).zip(&node_ids).all(|(i, &v)| v == NodeId(i)),
            "mesh ids are 0..n in order"
        );
        let expr = Expr::first_attr(db.schema());

        // Each unit draws its offset, then its AR state.
        let mut normals = Normals::new(&mut rng, 2 * config.units);
        let units: Vec<Unit> = (0..config.units)
            .map(|_| Unit {
                offset: config.offset_std * normals.draw(),
                ar: config.ar_std * normals.draw(),
            })
            .collect();
        let base = base_signal(&config, 0, 0.0);
        for (i, unit) in units.iter().enumerate() {
            let value = base + unit.offset + unit.ar;
            db.insert(node_ids[i % node_ids.len()], Tuple::single(value))
                .expect("node registered");
        }
        Self {
            config,
            graph,
            db,
            expr,
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

    /// One tick: the drift's draw, then one draw per unit in unit order,
    /// each stepping its unit's AR(1) state as it is decoded, a keystream
    /// chunk at a time; then one rewrite of the relation in store order.
    ///
    /// xtask: no-alloc
    fn advance(&mut self, _rng: &mut dyn RngCore) {
        self.tick += 1;
        self.drift += self.config.drift_std * gaussian(&mut self.rng);
        let base = base_signal(&self.config, self.tick, self.drift);
        let ar_coeff = self.config.ar_coeff;
        let innovation_std = self.config.ar_std * (1.0 - ar_coeff.powi(2)).sqrt();
        let mut normals = Normals::new(&mut self.rng, self.units.len());
        for unit in &mut self.units {
            unit.ar = ar_coeff * unit.ar + innovation_std * normals.draw();
        }
        // Node `k`'s rows are units `k, k + n, k + 2n, …`.
        let (units, nodes) = (&self.units, self.graph.node_count());
        self.db.rewrite_fragments(|node, values| {
            let mut at = node.0 as usize;
            for value in values {
                let Some(unit) = units.get(at) else { break };
                *value = base + unit.offset + unit.ar;
                at += nodes;
            }
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use digest_db::TupleHandle;
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

    /// `new` as it was with a handle per unit: each unit draws its offset
    /// and AR state through `gaussian` in turn, and its tuple is inserted
    /// on the next node round-robin. Returns the world and the handles, in
    /// unit order.
    fn per_unit_world(config: TemperatureConfig) -> (TemperatureWorkload, Vec<TupleHandle>) {
        let graph = topology::mesh(config.mesh_rows, config.mesh_cols, false).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut db = P2PDatabase::new(Schema::single("temperature"));
        for v in graph.nodes() {
            db.register_node(v);
        }
        let node_ids: Vec<NodeId> = graph.nodes().collect();
        let base = base_signal(&config, 0, 0.0);
        let (mut units, mut handles) = (Vec::new(), Vec::new());
        for i in 0..config.units {
            let offset = config.offset_std * gaussian(&mut rng);
            let ar = config.ar_std * gaussian(&mut rng);
            let node = node_ids[i % node_ids.len()];
            handles.push(db.insert(node, Tuple::single(base + offset + ar)).unwrap());
            units.push(Unit { offset, ar });
        }
        let expr = Expr::first_attr(db.schema());
        let world = TemperatureWorkload {
            config,
            graph,
            db,
            expr,
            units,
            rng,
            tick: 0,
            drift: 0.0,
        };
        (world, handles)
    }

    /// `advance` as it was before the batched writer: one `gaussian` and
    /// one `update` (and one tally bump) per unit, through its handle.
    fn advance_per_unit(w: &mut TemperatureWorkload, handles: &[TupleHandle]) {
        w.tick += 1;
        w.drift += w.config.drift_std * gaussian(&mut w.rng);
        let base = base_signal(&w.config, w.tick, w.drift);
        let innovation_std = w.config.ar_std * (1.0 - w.config.ar_coeff.powi(2)).sqrt();
        for (unit, &handle) in w.units.iter_mut().zip(handles) {
            unit.ar = w.config.ar_coeff * unit.ar + innovation_std * gaussian(&mut w.rng);
            let value = base + unit.offset + unit.ar;
            w.db.update(handle, &[value]).unwrap();
        }
    }

    /// Both worlds hold the same rows and units bit for bit, the same
    /// aggregate, and generators at the same position.
    fn assert_same_world(a: &mut TemperatureWorkload, b: &mut TemperatureWorkload) {
        let rows = |w: &TemperatureWorkload| -> Vec<(TupleHandle, u64)> {
            let rows = w.db().iter();
            rows.map(|(h, row)| (h, row.values()[0].to_bits()))
                .collect()
        };
        let units = |w: &TemperatureWorkload| -> Vec<(u64, u64)> {
            let states = w.units.iter();
            states
                .map(|u| (u.offset.to_bits(), u.ar.to_bits()))
                .collect()
        };
        assert_eq!(rows(a), rows(b));
        assert_eq!(units(a), units(b));
        assert_eq!(a.current_tick(), b.current_tick());
        assert_eq!(a.drift.to_bits(), b.drift.to_bits());
        assert_eq!(a.exact_aggregate().to_bits(), b.exact_aggregate().to_bits());
        assert_eq!(a.rng.clone().next_u64(), b.rng.clone().next_u64());
    }

    #[test]
    fn batched_advance_is_the_per_unit_loop() {
        let config = TemperatureConfig::reduced(400, 5, 8, 100);
        let (mut batched, (mut looped, handles)) = (small(), per_unit_world(config));
        assert_same_world(&mut batched, &mut looped);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..100 {
            batched.advance(&mut rng);
            advance_per_unit(&mut looped, &handles);
        }
        assert_same_world(&mut batched, &mut looped);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The chunked keystream changes no word and the store-order
        /// rewrite no row: from 1 to 600 units on six nodes a tick reads
        /// less than one eight-block group, exactly one, or several chunks,
        /// and a fragment holds no row, one, or a hundred. Construction is
        /// the per-draw, per-handle `new`, and three ticks are the per-unit
        /// loop.
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
            let (mut looped, handles) = per_unit_world(config);
            assert_same_world(&mut batched, &mut looped);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..3 {
                batched.advance(&mut rng);
                advance_per_unit(&mut looped, &handles);
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
