//! The interface every continuous-query system exposes to the simulator.
//!
//! One trait covers Digest in all its scheduler/estimator combinations and
//! the TAG comparator, so experiments can drive them uniformly and compare
//! sample and message counts on equal footing.

use crate::Result;
use digest_db::P2PDatabase;
use digest_net::{Graph, NodeId};
use rand::RngCore;

/// Everything a query system may look at during one tick.
///
/// The `graph`/`db` references are the *real* distributed state; each
/// system is honour-bound to access them only in ways its real-world
/// counterpart could (Digest through sampling walks, TAG through its
/// aggregation tree). Message accounting makes the cost of
/// every access explicit.
#[derive(Debug, Clone, Copy)]
pub struct TickContext<'a> {
    /// The current discrete time.
    pub tick: u64,
    /// The overlay network.
    pub graph: &'a Graph,
    /// The partitioned database.
    pub db: &'a P2PDatabase,
    /// The node where the continuous query was issued.
    pub origin: NodeId,
}

/// What happened during one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickOutcome {
    /// The system's current running estimate `X̂[t]` (held from the last
    /// update when no snapshot ran).
    pub estimate: f64,
    /// Whether the reported result was updated this tick.
    pub updated: bool,
    /// Whether a snapshot query executed this tick.
    pub snapshot_executed: bool,
    /// Samples drawn this tick (fresh + revisited).
    pub samples_this_tick: u64,
    /// Of those, samples freshly drawn through the sampling operator.
    pub fresh_samples_this_tick: u64,
    /// Node-to-node messages spent this tick.
    pub messages_this_tick: u64,
}

impl TickOutcome {
    /// An idle tick: hold the estimate, spend nothing.
    #[must_use]
    pub fn idle(estimate: f64) -> Self {
        Self {
            estimate,
            updated: false,
            snapshot_executed: false,
            samples_this_tick: 0,
            fresh_samples_this_tick: 0,
            messages_this_tick: 0,
        }
    }

    /// A held occasion: a snapshot ran and spent `messages`, but produced
    /// nothing to report — the estimate stands.
    #[must_use]
    pub fn held(estimate: f64, messages: u64) -> Self {
        Self {
            snapshot_executed: true,
            messages_this_tick: messages,
            ..Self::idle(estimate)
        }
    }
}

/// A continuous-query answering system under test.
pub trait QuerySystem {
    /// Short name for experiment tables (e.g. `"PRED3+RPT"`).
    fn name(&self) -> &str;

    /// Advances the system one tick.
    ///
    /// # Errors
    ///
    /// Any engine error; the simulator aborts the run on error.
    fn on_tick(&mut self, ctx: &TickContext<'_>, rng: &mut dyn RngCore) -> Result<TickOutcome>;

    /// Total messages spent since construction.
    fn total_messages(&self) -> u64;

    /// Total samples drawn since construction (fresh + revisited; 0 for
    /// non-sampling systems).
    fn total_samples(&self) -> u64;

    /// Total snapshot queries executed since construction.
    fn total_snapshots(&self) -> u64;

    /// Oracle ground truth for the system's query at this instant, when
    /// the system knows how to compute one (simulation-only; used by the
    /// runner to verify precision). Default: `None` — the runner falls
    /// back to the workload's plain-AVG oracle.
    fn oracle_truth(&self, _ctx: &TickContext<'_>) -> Option<f64> {
        None
    }

    /// The next tick (strictly after `now`) at which this system needs
    /// to run, or `None` when it cannot predict one and must be ticked
    /// every tick (the safe default).
    ///
    /// Contract with the event-driven runner: a system reporting
    /// `Some(t)` promises that `on_tick` for every tick in `(now, t)`
    /// would have been a pure idle hold — no snapshot, no samples, no
    /// messages, no randomness — so the runner may skip straight to
    /// `t` without perturbing the replayed byte stream.
    /// Takes `&mut self` so schedule caches (e.g. the mux's lazy-deleted
    /// deadline heap) may discard stale entries while answering; the
    /// *observable* state must not change.
    fn next_due(&mut self, _now: u64) -> Option<u64> {
        None
    }

    /// Sets the worker count used to execute sampling-walk batches.
    ///
    /// Results are byte-identical for every worker count (the sampling
    /// executor derives one RNG stream per walk slot), so this only
    /// changes wall-clock behaviour. Default: no-op — non-sampling
    /// systems have no walk pool to parallelise.
    fn set_sampling_workers(&mut self, _workers: usize) {}

    /// The causal trace id of the reporting occasion that produced the
    /// current estimate (see `digest_telemetry::begin_trace`). Drivers
    /// restore this per engine segment so multi-query runs attribute
    /// every tick/audit event to the right occasion. Default: 0 (no
    /// trace) — non-instrumented systems never allocate ids.
    fn trace_id(&self) -> u64 {
        0
    }
}

/// Observes every simulation tick from the driver's vantage point —
/// after the system reacted, with the oracle's exact aggregate in hand.
/// This is the hook the guarantee auditor (`digest-audit`) attaches to:
/// it sees the same `(estimate, exact)` pair the run trace records, plus
/// full read access to the simulated database for baseline message
/// accounting. Observers must be passive — they may not mutate shared
/// state the system reads, and they consume no randomness, so attaching
/// one never perturbs a replayed run.
pub trait TickObserver {
    /// Called once per tick, after the system's `on_tick`, with the
    /// exact aggregate for the system's query at this instant.
    fn observe(&mut self, ctx: &TickContext<'_>, outcome: &TickOutcome, exact: f64);
}

/// The do-nothing observer (plain, unaudited runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl TickObserver for NoopObserver {
    fn observe(&mut self, _ctx: &TickContext<'_>, _outcome: &TickOutcome, _exact: f64) {}
}

/// Per-query tick observation for multiplexed runs: like
/// [`TickObserver`], but called once per *member query* with the member's
/// own outcome, exact value, and — when the occasion was served from a
/// coalesced sampling round — the round's trace id, so auditors can
/// account each `(δ, ε, p)` contract separately while still attributing
/// shared costs to the round that paid them. The same passivity contract
/// applies: no shared-state mutation, no randomness.
pub trait MuxObserver {
    /// Called once per member query per tick, after the mux's tick, with
    /// the exact aggregate for *that member's* query.
    fn observe_query(
        &mut self,
        query: u64,
        ctx: &TickContext<'_>,
        outcome: &TickOutcome,
        exact: f64,
        round: Option<u64>,
    );
}

/// The do-nothing multiplexed observer (plain, unaudited mux runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopMuxObserver;

impl MuxObserver for NoopMuxObserver {
    fn observe_query(
        &mut self,
        _query: u64,
        _ctx: &TickContext<'_>,
        _outcome: &TickOutcome,
        _exact: f64,
        _round: Option<u64>,
    ) {
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    #[test]
    fn idle_outcome_holds_value() {
        let o = TickOutcome::idle(42.0);
        assert_eq!(o.estimate, 42.0);
        assert!(!o.updated);
        assert!(!o.snapshot_executed);
        assert_eq!(o.messages_this_tick, 0);
    }
}
