//! The MEMORY dataset (Table II, right column).
//!
//! Paper figures: 1 000 computing units on 820 churning nodes (power-law
//! overlay), one hour of recording with continuous updates, `ρ = 0.68`,
//! `σ̂ = 10`, 95 445 update records. With 1 000 units over 3 600 one-second
//! ticks that record count implies each unit updates with probability
//! ≈ 0.0265 per tick — our generator's default `update_prob`.
//!
//! Generator model: per unit, available memory follows
//! `x_u = mean + offset_u + a_u` with a per-*update* AR(1) evolution of
//! `a_u` (a unit that does not update keeps its value — that, plus churn,
//! is what pulls the occasion-to-occasion correlation down to ≈ 0.68
//! despite per-update persistence). Node churn removes whole fragments
//! (the unit's records leave with the node) and joins add new nodes with
//! fresh units — exercising the repeated-sampling forced-replacement path
//! heavily, as SETI@home did in the paper.

use crate::scenario::Workload;
use crate::temperature::gaussian;
use digest_db::{Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::{topology, ChurnConfig, ChurnEvent, ChurnProcess, Graph};
use rand::SeedableRng;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;

/// Configuration of the MEMORY generator.
#[derive(Debug, Clone, Copy)]
pub struct MemoryConfig {
    /// Number of computing units at start (paper: 1 000).
    pub units: usize,
    /// Number of overlay nodes at start (paper: 820).
    pub nodes: usize,
    /// Barabási–Albert attachment parameter for the power-law overlay.
    pub attachment: usize,
    /// Recording duration in internal 1 s steps (paper: 1 h = 3 600).
    pub ticks: u64,
    /// Internal 1 s steps folded into one workload tick (= one
    /// snapshot-eligible occasion). Updates are sparse per second, so the
    /// occasion grain at which queries can usefully re-probe is coarser —
    /// 40 s by default, the mean per-unit update spacing.
    pub seconds_per_tick: u64,
    /// Per-unit per-tick probability of an update (calibrated to the
    /// Table II record count: 95 445 / (1 000 × 3 600) ≈ 0.0265).
    pub update_prob: f64,
    /// Mean available memory (arbitrary MB units).
    pub mean: f64,
    /// Std-dev of the per-unit constant offset.
    pub offset_std: f64,
    /// Stationary std-dev of the per-unit AR(1) component.
    pub ar_std: f64,
    /// Per-update AR(1) coefficient.
    pub ar_coeff: f64,
    /// Amplitude of the slow common load swing.
    pub load_amplitude: f64,
    /// Period of the load swing, in ticks.
    pub load_period: f64,
    /// Per-node per-tick probability of leaving.
    pub leave_prob: f64,
    /// Expected node joins per tick.
    pub join_rate: f64,
    /// Units created per joining node.
    pub units_per_join: usize,
    /// Seed for the generator's RNG.
    pub seed: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl MemoryConfig {
    /// The full Table II scale.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            units: 1_000,
            nodes: 820,
            attachment: 2,
            ticks: 3_600,
            seconds_per_tick: 40,
            update_prob: 0.026_5,
            mean: 512.0,
            offset_std: 5.5,
            ar_std: 69.75_f64.sqrt(),
            ar_coeff: 0.5,
            load_amplitude: 6.0,
            load_period: 900.0,
            leave_prob: 0.000_2,
            join_rate: 0.164,
            units_per_join: 1,
            seed: 0x5E71,
        }
    }

    /// Scaled-down configuration for unit tests.
    #[must_use]
    pub fn reduced(units: usize, nodes: usize, ticks: u64) -> Self {
        Self {
            units,
            nodes,
            ticks,
            ..Self::paper_scale()
        }
    }
}

struct Unit {
    handle: TupleHandle,
    offset: f64,
    ar: f64,
}

/// The live MEMORY scenario.
pub struct MemoryWorkload {
    config: MemoryConfig,
    graph: Graph,
    db: P2PDatabase,
    expr: Expr,
    units: Vec<Unit>,
    churn: ChurnProcess,
    rng: ChaCha8Rng,
    tick: u64,
    seconds: u64,
    update_records: u64,
    churn_events: u64,
}

impl MemoryWorkload {
    /// Builds the scenario at tick 0.
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (e.g. `nodes ≤ attachment`);
    /// the defaults are always valid.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let graph = topology::barabasi_albert(config.nodes, config.attachment, &mut rng)
            .expect("valid BA parameters");
        let mut db = P2PDatabase::new(Schema::single("memory"));
        for v in graph.nodes() {
            db.register_node(v);
        }
        let expr = Expr::first_attr(db.schema());
        let node_ids: Vec<_> = graph.nodes().collect();

        let mut units = Vec::with_capacity(config.units);
        for i in 0..config.units {
            let node = node_ids[i % node_ids.len()];
            let offset = config.offset_std * gaussian(&mut rng);
            let ar = config.ar_std * gaussian(&mut rng);
            let value = (config.mean + offset + ar).max(0.0);
            let handle = db
                .insert(node, Tuple::single(value))
                .expect("node registered");
            units.push(Unit { handle, offset, ar });
        }

        let churn = ChurnProcess::new(ChurnConfig {
            leave_prob: config.leave_prob,
            join_rate: config.join_rate,
            attach_links: config.attachment.max(1),
            preferential: true,
            min_nodes: 8,
            repair_partitions: true,
        })
        .expect("valid churn config");

        Self {
            config,
            graph,
            db,
            expr,
            units,
            churn,
            rng,
            tick: 0,
            seconds: 0,
            update_records: 0,
            churn_events: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Total update records generated so far (the Table II tuple count).
    #[must_use]
    pub fn update_records(&self) -> u64 {
        self.update_records
    }

    /// Total churn (join + leave) events so far.
    #[must_use]
    pub fn churn_events(&self) -> u64 {
        self.churn_events
    }

    /// One internal second: churn, then sparse autonomous value updates.
    fn second(&mut self) {
        self.seconds += 1;

        // 1. Churn.
        let events = self.churn.step(&mut self.graph, &mut self.rng);
        self.churn_events += events.len() as u64;
        // Departures first, then one order-preserving pass over the units
        // for all of them: node ids are never reused, so a unit is on a
        // departed node exactly when the overlay no longer contains its
        // node. Doing it before the joiners' pushes keeps `units` within its
        // initial capacity.
        let mut any_left = false;
        for event in &events {
            if let ChurnEvent::Left(node) = *event {
                if self.db.has_node(node) {
                    self.db.remove_node(node).expect("fragment existed");
                }
                any_left = true;
            }
        }
        if any_left {
            let graph = &self.graph;
            self.units.retain(|u| graph.contains(u.handle.node));
        }
        for event in events {
            if let ChurnEvent::Joined(node) = event {
                self.db.register_node(node);
                for _ in 0..self.config.units_per_join {
                    let offset = self.config.offset_std * gaussian(&mut self.rng);
                    let ar = self.config.ar_std * gaussian(&mut self.rng);
                    let value = (self.config.mean + offset + ar).max(0.0);
                    let handle = self
                        .db
                        .insert(node, Tuple::single(value))
                        .expect("node just registered");
                    self.units.push(Unit { handle, offset, ar });
                    self.update_records += 1;
                }
            }
        }

        // 2. Sparse value updates.
        let load = self.config.load_amplitude
            * (2.0 * std::f64::consts::PI * self.seconds as f64 / self.config.load_period).sin();
        let innovation_std = self.config.ar_std * (1.0 - self.config.ar_coeff.powi(2)).sqrt();
        for unit in &mut self.units {
            if !self.rng.gen_bool(self.config.update_prob) {
                continue;
            }
            unit.ar = self.config.ar_coeff * unit.ar + innovation_std * gaussian(&mut self.rng);
            let value = (self.config.mean + load + unit.offset + unit.ar).max(0.0);
            self.db
                .update(unit.handle, &[value])
                .expect("live unit handle");
            self.update_records += 1;
        }
    }
}

impl Workload for MemoryWorkload {
    fn name(&self) -> &str {
        "MEMORY"
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
        self.config.ticks / self.config.seconds_per_tick.max(1)
    }

    fn advance(&mut self, _rng: &mut dyn RngCore) {
        self.tick += 1;
        for _ in 0..self.config.seconds_per_tick.max(1) {
            self.second();
        }
    }

    fn exact_aggregate(&self) -> f64 {
        self.db.exact_avg(&self.expr).expect("non-empty relation")
    }

    fn sigma_ref(&self) -> f64 {
        (self.config.offset_std.powi(2) + self.config.ar_std.powi(2)).sqrt()
    }

    fn rho_ref(&self) -> f64 {
        0.68
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemoryWorkload {
        MemoryWorkload::new(MemoryConfig::reduced(100, 50, 200))
    }

    #[test]
    fn construction_matches_config() {
        let w = small();
        assert_eq!(w.graph().node_count(), 50);
        assert_eq!(w.db().total_tuples(), 100);
        assert_eq!(w.name(), "MEMORY");
        assert!(w.graph().is_connected());
    }

    #[test]
    fn paper_scale_matches_table2() {
        let cfg = MemoryConfig::paper_scale();
        assert_eq!(cfg.units, 1_000);
        assert_eq!(cfg.nodes, 820);
        assert_eq!(cfg.ticks, 3_600);
        // Expected update records ≈ 95 445 (Table II).
        let expected = cfg.units as f64 * cfg.ticks as f64 * cfg.update_prob;
        assert!(
            (expected - 95_400.0).abs() < 1_000.0,
            "expected records = {expected}"
        );
    }

    #[test]
    fn updates_are_partial_per_occasion() {
        // One occasion = 40 s; each unit updates w.p. 1 − (1−p)⁴⁰ ≈ 0.66,
        // so a nontrivial fraction of values must stay *unchanged* (that
        // residual stickiness is part of the ρ calibration).
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.0, // isolate updates from churn for this check
            join_rate: 0.0,
            ..MemoryConfig::reduced(200, 50, 400)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let before: Vec<f64> = w.db().iter().map(|(_, t)| t.value(0).unwrap()).collect();
        w.advance(&mut rng);
        let after: Vec<f64> = w.db().iter().map(|(_, t)| t.value(0).unwrap()).collect();
        assert_eq!(before.len(), after.len());
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(
            changed > 80,
            "most units update per occasion, changed = {changed}"
        );
        assert!(
            changed < 190,
            "some units must hold their value, changed = {changed}"
        );
    }

    #[test]
    fn churn_replaces_membership_over_time() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.01,
            join_rate: 0.5,
            ..MemoryConfig::reduced(100, 50, 200)
        });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            w.advance(&mut rng);
        }
        assert!(w.churn_events() > 20, "churn events = {}", w.churn_events());
        assert!(w.graph().is_connected());
        // Units and fragments stay consistent.
        for (handle, _) in w.db().iter() {
            assert!(w.graph().contains(handle.node), "fragment on departed node");
        }
        assert!(w.db().total_tuples() > 0);
    }

    #[test]
    fn departures_in_one_step_drop_exactly_their_units() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.05,
            join_rate: 3.0,
            update_prob: 0.0,
            ..MemoryConfig::reduced(400, 200, 200)
        });
        let before_nodes: Vec<_> = w.graph().nodes().collect();
        let before_bound = w.graph().id_upper_bound();
        let mut expected: Vec<TupleHandle> = w.units.iter().map(|u| u.handle).collect();
        w.second();
        let departed: Vec<_> = before_nodes
            .into_iter()
            .filter(|&n| !w.graph().contains(n))
            .collect();
        assert!(departed.len() >= 2, "departed = {departed:?}");
        // The filter `second` used to run once per departure.
        for node in departed {
            expected.retain(|h| h.node != node);
        }
        let units: Vec<TupleHandle> = w.units.iter().map(|u| u.handle).collect();
        let (survivors, joined) = units.split_at(expected.len());
        assert_eq!(survivors, expected);
        assert_eq!(joined.len(), 3 * w.config().units_per_join);
        assert!(joined.iter().all(|h| h.node.0 as usize >= before_bound));
        assert_eq!(w.db().total_tuples(), units.len());
    }

    #[test]
    fn values_stay_non_negative() {
        let mut w = small();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            w.advance(&mut rng);
            for (_, t) in w.db().iter() {
                assert!(t.value(0).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn sigma_ref_hits_target() {
        let w = small();
        assert!(
            (w.sigma_ref() - 10.0).abs() < 0.01,
            "σ_ref = {}",
            w.sigma_ref()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut w = small();
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for _ in 0..20 {
                w.advance(&mut rng);
            }
            (
                w.exact_aggregate(),
                w.update_records(),
                w.db().total_tuples(),
            )
        };
        assert_eq!(run(), run());
    }
}
