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
//!
//! One second costs what changed in it. Which units update is drawn by
//! [`BernoulliHits`] over the positions of the unit list — one RNG word
//! per update, not per unit — and a departed node's units are found
//! through a per-node chain (`unit_head` by node id, `next` in each unit)
//! and `swap_remove`d, not by a pass over all units. The unit list
//! therefore has no meaningful order: a removal moves the last unit into
//! the hole. Every position is equally likely to update, so the order is
//! a determinism matter only; it is a function of the seed like
//! everything else. The updates themselves run `STAGE` hits at a time
//! in three passes — the draws, the units' AR steps, one batched write of
//! the rows — so that the misses on a stage's randomly placed units and
//! rows (at 2·10⁵ units both arrays are far out of cache) are in flight
//! together; one write at a time waited ≈ 350–450 ns on each. The
//! words, the rows and every leaf are those of one `update` per hit, as
//! the per-update reference in this module's tests checks.

use crate::normal::gaussian;
use crate::scenario::Workload;
use digest_db::{Expr, P2PDatabase, Schema, Tuple, TupleHandle};
use digest_net::{topology, BernoulliHits, ChurnConfig, ChurnEvent, ChurnProcess, Graph, NodeId};
use rand::RngCore;
use rand::SeedableRng;
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
    /// Per-unit probability of an update in each internal second
    /// (calibrated to the Table II record count: 95 445 / (1 000 × 3 600)
    /// ≈ 0.0265).
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
    /// Period of the load swing, in internal seconds.
    pub load_period: f64,
    /// Per-node probability of leaving in each internal second.
    pub leave_prob: f64,
    /// Expected node joins per internal second.
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
    /// Position of the next unit on the same node, or [`NO_UNIT`].
    next: u32,
}

/// End of a node's unit chain.
const NO_UNIT: u32 = u32::MAX;

/// Updates per stage of [`MemoryWorkload::update_values`]: enough
/// independent misses to fill the memory pipeline, and its three buffers
/// (≈ 14 KB) stay on the stack.
const STAGE: usize = 512;

/// The live MEMORY scenario.
pub struct MemoryWorkload {
    config: MemoryConfig,
    graph: Graph,
    db: P2PDatabase,
    expr: Expr,
    units: Vec<Unit>,
    /// By node id: position of the first unit in the node's chain, or
    /// [`NO_UNIT`]. The chains partition `units` by node.
    unit_head: Vec<u32>,
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
        let churn = ChurnProcess::new(ChurnConfig {
            leave_prob: config.leave_prob,
            join_rate: config.join_rate,
            attach_links: config.attachment.max(1),
            preferential: true,
            min_nodes: 8,
            repair_partitions: true,
        })
        .expect("valid churn config");
        // Room for the joins of the run's `ticks` seconds, each a new id
        // with its units, so that a join does not copy a column of the
        // world mid-run.
        let joins = churn.config().joins_within(config.ticks);
        let graph =
            topology::barabasi_albert_with_room(config.nodes, config.attachment, joins, &mut rng)
                .expect("valid BA parameters");
        let mut db = P2PDatabase::new(Schema::single("memory"));
        for v in graph.nodes() {
            db.register_node(v);
        }
        let expr = Expr::first_attr(db.schema());
        let node_ids: Vec<_> = graph.nodes().collect();

        let mut unit_head = Vec::with_capacity(graph.id_upper_bound().saturating_add(joins));
        unit_head.resize(graph.id_upper_bound(), NO_UNIT);

        let mut this = Self {
            units: Vec::with_capacity(
                config
                    .units
                    .saturating_add(joins.saturating_mul(config.units_per_join)),
            ),
            unit_head,
            config,
            graph,
            db,
            expr,
            churn,
            rng,
            tick: 0,
            seconds: 0,
            update_records: 0,
            churn_events: 0,
        };
        for i in 0..config.units {
            this.add_unit(node_ids[i % node_ids.len()]);
        }
        this
    }

    /// Creates a unit on `node` (registered in the database) from a fresh
    /// draw of its offset and AR state, at the head of the node's chain.
    /// Its first value carries the current second's load swing, as every
    /// value `update_values` writes in the same second does.
    fn add_unit(&mut self, node: NodeId) {
        let load = self.load();
        let config = &self.config;
        let offset = config.offset_std * gaussian(&mut self.rng);
        let ar = config.ar_std * gaussian(&mut self.rng);
        let value = (config.mean + load + offset + ar).max(0.0);
        let handle = self
            .db
            .insert(node, Tuple::single(value))
            .expect("node registered");
        let slot = node.0 as usize;
        if self.unit_head.len() <= slot {
            self.unit_head.resize(slot + 1, NO_UNIT);
        }
        let position = u32::try_from(self.units.len()).expect("fewer than 2³² units");
        let next = std::mem::replace(&mut self.unit_head[slot], position);
        self.units.push(Unit {
            handle,
            offset,
            ar,
            next,
        });
    }

    /// Drops every unit of `node`, which has just left: each comes off the
    /// head of the node's chain, `swap_remove` fills its place with the
    /// last unit, and the one link that named that unit's old position is
    /// re-pointed. Chains are as short as a node has units, so a departure
    /// touches a handful of units however many there are.
    fn remove_units_of(&mut self, node: NodeId) {
        let slot = node.0 as usize;
        while let Some(position) = self.unit_head.get(slot).copied().filter(|&p| p != NO_UNIT) {
            self.unit_head[slot] = self.units[position as usize].next;
            let last = u32::try_from(self.units.len() - 1).expect("fewer than 2³² units");
            if position != last {
                *self.link_to(last) = position;
            }
            self.units.swap_remove(position as usize);
        }
    }

    /// The link — a node's head or a unit's `next` — that holds `position`,
    /// found along the chain of the node that unit lives on.
    fn link_to(&mut self, position: u32) -> &mut u32 {
        let slot = self.units[position as usize].handle.node.0 as usize;
        let mut at = self.unit_head[slot];
        if at == position {
            return &mut self.unit_head[slot];
        }
        while self.units[at as usize].next != position {
            at = self.units[at as usize].next;
        }
        &mut self.units[at as usize].next
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

    /// The slow common load swing at the current second (0 at second 0).
    fn load(&self) -> f64 {
        let config = &self.config;
        config.load_amplitude
            * (2.0 * std::f64::consts::PI * self.seconds as f64 / config.load_period).sin()
    }

    /// One internal second: churn, then sparse autonomous value updates.
    fn second(&mut self) {
        self.seconds += 1;
        self.apply_churn();
        self.update_values();
    }

    /// The second's churn step: departed nodes take their fragments and
    /// units with them, joiners arrive with fresh units.
    fn apply_churn(&mut self) {
        let events = self.churn.step(&mut self.graph, &mut self.rng);
        self.churn_events += events.len() as u64;
        // Departures before the joiners' pushes: the order fixes every
        // unit's position. Neither reallocates `units` or `unit_head` within
        // the run: `new` sized them, and the overlay's id columns, for the
        // run's joins (`ChurnConfig::joins_within`).
        for event in &events {
            if let ChurnEvent::Left(node) = *event {
                if self.db.has_node(node) {
                    self.db.remove_node(node).expect("fragment existed");
                }
                self.remove_units_of(node);
            }
        }
        for event in events {
            if let ChurnEvent::Joined(node) = event {
                self.db.register_node(node);
                for _ in 0..self.config.units_per_join {
                    self.add_unit(node);
                    self.update_records += 1;
                }
            }
        }
    }

    /// The second's sparse value updates, [`STAGE`] hits at a time in
    /// three passes: the draws in stream order (each hit's gap, then its
    /// Gaussian, as one hit at a time would take them), then the units'
    /// AR steps, then one batched write of the rows. Each pass's loads are
    /// independent of one another, so the cache misses of a stage's
    /// random units and rows are in flight together instead of one write
    /// waiting on the last; the words drawn, the rows written and the
    /// leaves re-added are those of one `update` per hit.
    ///
    /// xtask: no-alloc
    fn update_values(&mut self) {
        let load = self.load();
        let config = &self.config;
        let innovation_std = config.ar_std * (1.0 - config.ar_coeff.powi(2)).sqrt();
        let mut updating = BernoulliHits::new(self.units.len(), config.update_prob);
        let mut positions = [0usize; STAGE];
        // A hit's Gaussian draw, then, once its unit has stepped, its value.
        let mut values = [0.0f64; STAGE];
        let mut handles = [TupleHandle {
            node: NodeId(0),
            slot: 0,
            generation: 0,
        }; STAGE];
        loop {
            let mut hits = 0;
            while hits < STAGE {
                let Some(position) = updating.next(&mut self.rng) else {
                    break;
                };
                positions[hits] = position;
                values[hits] = gaussian(&mut self.rng);
                hits += 1;
            }
            for k in 0..hits {
                let unit = &mut self.units[positions[k]];
                unit.ar = config.ar_coeff * unit.ar + innovation_std * values[k];
                values[k] = (config.mean + load + unit.offset + unit.ar).max(0.0);
                handles[k] = unit.handle;
            }
            self.db
                .update_rows(&handles[..hits], |k, row| row[0] = values[k])
                .expect("live unit handles");
            self.update_records += hits as u64;
            if hits < STAGE {
                return;
            }
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// Every unit's handle resolves, and the chains partition the unit
    /// positions by node: each live node's chain lists exactly the
    /// positions of its units, and no chain is left on a departed node.
    fn check_index(w: &MemoryWorkload) -> Result<(), String> {
        let mut by_node: BTreeMap<NodeId, BTreeSet<usize>> = BTreeMap::new();
        for (position, unit) in w.units.iter().enumerate() {
            if w.db.read(unit.handle).is_err() {
                return Err(format!("unit {position} dangles: {}", unit.handle));
            }
            by_node
                .entry(unit.handle.node)
                .or_default()
                .insert(position);
        }
        if w.db.total_tuples() != w.units.len() {
            return Err(format!(
                "{} tuples, {} units",
                w.db.total_tuples(),
                w.units.len()
            ));
        }
        for (slot, &head) in w.unit_head.iter().enumerate() {
            let node = NodeId(slot as u32);
            let mut chain = BTreeSet::new();
            let mut at = head;
            while at != NO_UNIT {
                if !chain.insert(at as usize) || chain.len() > w.units.len() {
                    return Err(format!("chain of {node} loops at {at}"));
                }
                at = w.units[at as usize].next;
            }
            if !w.graph.contains(node) && !chain.is_empty() {
                return Err(format!("departed {node} keeps a chain: {chain:?}"));
            }
            if chain != by_node.remove(&node).unwrap_or_default() {
                return Err(format!("chain of {node} is not its units: {chain:?}"));
            }
        }
        match by_node.keys().next() {
            Some(node) => Err(format!("units on {node}, which has no chain")),
            None => Ok(()),
        }
    }

    #[test]
    fn departures_in_one_step_drop_exactly_their_units() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.05,
            join_rate: 3.0,
            update_prob: 0.0,
            ..MemoryConfig::reduced(400, 200, 200)
        });
        check_index(&w).unwrap();
        let before_nodes: Vec<_> = w.graph().nodes().collect();
        let before_bound = w.graph().id_upper_bound();
        let mut expected: BTreeSet<TupleHandle> = w.units.iter().map(|u| u.handle).collect();
        w.second();
        let departed: Vec<_> = before_nodes
            .into_iter()
            .filter(|&n| !w.graph().contains(n))
            .collect();
        assert!(departed.len() >= 2, "departed = {departed:?}");
        expected.retain(|h| !departed.contains(&h.node));
        // Removals reorder the survivors among themselves; the joiners'
        // units are pushed after every removal, so they come last.
        let units: Vec<TupleHandle> = w.units.iter().map(|u| u.handle).collect();
        let (survivors, joined) = units.split_at(expected.len());
        assert_eq!(survivors.iter().copied().collect::<BTreeSet<_>>(), expected);
        assert_eq!(joined.len(), 3 * w.config().units_per_join);
        assert!(joined.iter().all(|h| h.node.0 as usize >= before_bound));
        assert_eq!(w.db().total_tuples(), units.len());
        check_index(&w).unwrap();
    }

    /// RNG words between two states of the generator's stream (every draw
    /// on this path is a whole `u64`).
    fn words_between(before: &ChaCha8Rng, after: &ChaCha8Rng) -> usize {
        let target = format!("{after:?}");
        let mut probe = before.clone();
        let mut words = 0;
        while format!("{probe:?}") != target {
            probe.next_u64();
            words += 1;
            assert!(words < 1_000_000, "streams never met");
        }
        words
    }

    /// Counts the `u64`s drawn through it.
    struct Counting<'a> {
        rng: &'a mut ChaCha8Rng,
        words: usize,
    }

    impl RngCore for Counting<'_> {
        fn next_u32(&mut self) -> u32 {
            unreachable!("every draw on this path is a whole u64")
        }

        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }
    }

    /// The words a second's normals read past their first, on a world of
    /// `units` units without churn: the per-update loop's draws replayed
    /// from `rng`, each hit's gap and then its normal, the normal's words
    /// counted.
    fn edge_words(mut rng: ChaCha8Rng, units: usize, update_prob: f64) -> usize {
        let mut updating = BernoulliHits::new(units, update_prob);
        let mut extra = 0;
        while updating.next(&mut rng).is_some() {
            let mut counted = Counting {
                rng: &mut rng,
                words: 0,
            };
            gaussian(&mut counted);
            extra += counted.words - 1;
        }
        extra
    }

    /// A second's RNG cost is its updates — a gap word and a normal's one
    /// `u64` each, plus the words its wedge and tail draws read past that
    /// — and one word to run off the end of the units; not a word per unit.
    #[test]
    fn a_second_draws_words_for_its_updates_not_for_its_units() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            units: 200_000,
            nodes: 20_000,
            update_prob: 0.01,
            leave_prob: 0.0,
            join_rate: 0.0,
            ..MemoryConfig::paper_scale()
        });
        for _ in 0..3 {
            let (rng, records, units) = (w.rng.clone(), w.update_records(), w.units.len());
            w.second();
            let updates = (w.update_records() - records) as usize;
            assert!((1_700..2_300).contains(&updates), "updates = {updates}");
            let extra = edge_words(rng.clone(), units, w.config.update_prob);
            assert!((1..updates / 10).contains(&extra), "extra = {extra}");
            assert_eq!(words_between(&rng, &w.rng), 2 * updates + 1 + extra);
        }
    }

    /// `second` as it was before the stages: one `update` (one tally bump,
    /// one re-add) per hit, each hit's unit and row read as it is drawn.
    fn second_per_update(w: &mut MemoryWorkload) {
        w.seconds += 1;
        w.apply_churn();
        let load = w.load();
        let innovation_std = w.config.ar_std * (1.0 - w.config.ar_coeff.powi(2)).sqrt();
        let mut updating = BernoulliHits::new(w.units.len(), w.config.update_prob);
        while let Some(position) = updating.next(&mut w.rng) {
            let unit = &mut w.units[position];
            unit.ar = w.config.ar_coeff * unit.ar + innovation_std * gaussian(&mut w.rng);
            let value = (w.config.mean + load + unit.offset + unit.ar).max(0.0);
            w.db.update(unit.handle, &[value]).unwrap();
            w.update_records += 1;
        }
    }

    /// Runs `seconds` staged seconds and as many of the per-update loop on
    /// two worlds built from `config`. After each, both hold the same rows
    /// bit for bit, the same aggregate, the same AR states and counts, and
    /// generators at the same position. Returns each second's updates.
    fn staged_is_per_update(config: MemoryConfig, seconds: usize) -> Vec<u64> {
        let (mut staged, mut looped) = (MemoryWorkload::new(config), MemoryWorkload::new(config));
        let rows = |w: &MemoryWorkload| -> Vec<(TupleHandle, u64)> {
            let rows = w.db().iter();
            rows.map(|(h, row)| (h, row.values()[0].to_bits()))
                .collect()
        };
        let ars =
            |w: &MemoryWorkload| -> Vec<u64> { w.units.iter().map(|u| u.ar.to_bits()).collect() };
        let mut updates = Vec::new();
        for second in 0..seconds {
            let records = staged.update_records();
            staged.second();
            second_per_update(&mut looped);
            assert_eq!(rows(&staged), rows(&looped), "second {second}");
            assert_eq!(
                staged.exact_aggregate().to_bits(),
                looped.exact_aggregate().to_bits()
            );
            assert_eq!(ars(&staged), ars(&looped), "second {second}");
            assert_eq!(staged.update_records(), looped.update_records());
            assert_eq!(staged.churn_events(), looped.churn_events());
            assert_eq!(staged.rng.clone().next_u64(), looped.rng.clone().next_u64());
            updates.push(staged.update_records() - records);
        }
        updates
    }

    /// Every unit updating: a second of no hits, of one short stage, of
    /// exactly one full stage, of a full stage and one hit more, and of
    /// several stages ending short.
    #[test]
    fn staged_second_is_the_per_update_loop_at_the_stage_bounds() {
        for (units, update_prob) in [
            (STAGE, 0.0),
            (1, 1.0),
            (STAGE - 1, 1.0),
            (STAGE, 1.0),
            (STAGE + 1, 1.0),
            (3 * STAGE + 1, 1.0),
        ] {
            let config = MemoryConfig {
                update_prob,
                leave_prob: 0.0,
                join_rate: 0.0,
                ..MemoryConfig::reduced(units, 20, 3)
            };
            let expected = if update_prob > 0.0 { units as u64 } else { 0 };
            assert_eq!(staged_is_per_update(config, 3), [expected; 3]);
        }
    }

    /// Table II's record count follows from the per-second update rate:
    /// over the paper-scale hour it lies within 4σ of `units · seconds ·
    /// update_prob` (joiners' first records aside, which churn adds and
    /// the shrinking population takes back).
    #[test]
    fn paper_scale_update_records_match_the_rate() {
        let cfg = MemoryConfig {
            leave_prob: 0.0,
            join_rate: 0.0,
            ..MemoryConfig::paper_scale()
        };
        let mut w = MemoryWorkload::new(cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..w.duration() {
            w.advance(&mut rng);
        }
        let trials = (cfg.units as u64 * cfg.ticks) as f64;
        let mean = trials * cfg.update_prob;
        let sigma = (mean * (1.0 - cfg.update_prob)).sqrt();
        let records = w.update_records() as f64;
        assert!(
            (records - mean).abs() < 4.0 * sigma,
            "{records} records, expected {mean} ± {sigma}"
        );

        // With Table II's churn the population drifts, and the count with
        // it: over seeds 1–30 and the default seed the generator gave
        // 91 446 records on average, standard deviation 1 659 (range
        // 86 793–94 163; Box–Muller normals, joiners without the load
        // swing). The default seed lies within 4 of those deviations.
        let mut w = MemoryWorkload::new(MemoryConfig::paper_scale());
        for _ in 0..w.duration() {
            w.advance(&mut rng);
        }
        let records = w.update_records() as f64;
        assert!(
            (records - 91_446.0).abs() < 4.0 * 1_659.0,
            "{records} records"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Forty seconds of heavy churn: after each one the unit index is
        /// whole — no dangling handle, no chain on a departed node, every
        /// live node's chain exactly its units.
        #[test]
        fn the_unit_index_survives_churn(
            seed in 0u64..1_000_000,
            leave_prob in 0.0f64..0.2,
            join_rate in 0.0f64..6.0,
            units_per_join in 1usize..4,
            units in 30usize..200,
        ) {
            let mut w = MemoryWorkload::new(MemoryConfig {
                leave_prob,
                join_rate,
                units_per_join,
                update_prob: 0.05,
                seed,
                ..MemoryConfig::reduced(units, 40, 40)
            });
            // The list reallocates only once it has truly outgrown its start.
            let capacity = w.units.capacity();
            let mut peak = w.units.len();
            for _ in 0..40 {
                w.second();
                check_index(&w)?;
                peak = peak.max(w.units.len());
                prop_assert!(peak > capacity || w.units.capacity() == capacity);
            }
        }

        /// The staged second is the per-update loop, churn on and off, at
        /// rates from none to every unit: seconds of no hits, of part of a
        /// stage, of a stage exactly, of one hit past it and of several
        /// stages all occur among the cases.
        #[test]
        fn staged_second_is_the_per_update_loop(
            seed in 0u64..1_000_000,
            units in prop_oneof![
                Just(STAGE),
                Just(STAGE + 1),
                1usize..3 * STAGE + 2,
            ],
            update_prob in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0, 0.0f64..0.01],
            churn in prop_oneof![Just(false), Just(true)],
        ) {
            let (leave_prob, join_rate) = if churn { (0.05, 3.0) } else { (0.0, 0.0) };
            staged_is_per_update(
                MemoryConfig {
                    update_prob,
                    leave_prob,
                    join_rate,
                    units_per_join: 2,
                    seed,
                    ..MemoryConfig::reduced(units, 40, 4)
                },
                4,
            );
        }
    }

    /// A joiner's first value is what `update_values` would write for its
    /// unit in the second it joins: the load swing of that second included.
    #[test]
    fn a_joiners_first_value_carries_the_seconds_load() {
        let mut w = MemoryWorkload::new(MemoryConfig {
            leave_prob: 0.0,
            join_rate: 3.0,
            update_prob: 0.0,
            ..MemoryConfig::reduced(50, 20, 400)
        });
        let mut joined = 0;
        for _ in 0..300 {
            let before = w.units.len();
            w.second();
            let (config, load) = (w.config, w.load());
            for unit in &w.units[before..] {
                let value = w.db.read(unit.handle).unwrap().values()[0];
                let want = (config.mean + load + unit.offset + unit.ar).max(0.0);
                assert_eq!(value.to_bits(), want.to_bits(), "second {}", w.seconds);
                joined += 1;
            }
        }
        assert!(joined > 600, "joined = {joined}");
        assert!(w.load() > 5.0, "the swing is near its crest by now");
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
