//! # digest-telemetry
//!
//! Deterministic structured tracing, metric registry, and stage
//! profiling for the Digest workspace (fixed-precision approximate
//! continuous aggregates over P2P databases, Kashani & Shahabi,
//! ICDE 2008).
//!
//! Three facilities, all std-only and allocation-free on the hot path:
//!
//! * **Metrics** ([`metric`], [`registry`]) — every counter, gauge, and
//!   log₂-bucketed histogram in the workspace is a `static` handle
//!   declared centrally in [`registry`]; bumping one is a single relaxed
//!   atomic op.
//! * **Spans** ([`span()`]) — RAII guards timing the fixed pipeline stages
//!   against a wall clock (profiling) or the simulation tick counter
//!   (deterministic mode, the default).
//! * **Events** ([`event`], [`schema`]) — structured facts about the run
//!   ("this walk took 31 hops", "PRED-3 scheduled the next snapshot in
//!   7 ticks") rendered as canonical JSONL through an installable sink.
//!
//! ## Determinism contract
//!
//! With a fixed seed, the emitted JSONL stream is **byte-identical**
//! across runs: events never carry wall-clock values in any mode, field
//! keys serialise sorted, and floats render canonically. Deterministic
//! clock mode extends the same guarantee to the stage-profile table by
//! measuring spans in simulation ticks. `cargo xtask determinism`
//! re-runs its fixed-seed scenarios with telemetry enabled and byte-
//! compares both the stdout and the traces.
//!
//! ## Cost when disabled
//!
//! With no sink installed (the default), [`events_enabled`] is a single
//! relaxed atomic load returning `false`, and instrumentation sites
//! skip field construction entirely. Metrics and spans always run, but
//! each is only one or two relaxed atomic ops.

pub mod event;
pub mod metric;
pub mod registry;
pub mod schema;
pub mod span;

pub use event::{EventSink, Field, JsonlSink, MemorySink, TeeSink};
pub use metric::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{descriptors, reset_metrics, Descriptor, MetricHandle};
pub use span::{
    clock_mode, reset_stages, set_clock_mode, span, spans, stage_reports, ClockMode, SpanGuard,
    Stage, StageReport, STAGES,
};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The current simulation tick, stamped onto every event and read by
/// deterministic-mode spans. Drivers (the sim runner, the CLI loop) call
/// [`set_tick`] once per tick.
static TICK: AtomicU64 = AtomicU64::new(0);

/// Sets the global simulation tick.
#[inline]
pub fn set_tick(tick: u64) {
    // relaxed-ok: single-writer tick stamp; readers tolerate staleness
    // and events are serialised by the sink lock anyway.
    TICK.store(tick, Ordering::Relaxed);
}

/// The current global simulation tick.
#[inline]
#[must_use]
pub fn tick() -> u64 {
    // relaxed-ok: monotone stamp read for labelling, not synchronisation.
    TICK.load(Ordering::Relaxed)
}

/// Monotone allocator for causal occasion trace ids. Bumped by
/// [`begin_trace`] once per reporting occasion, in the deterministic
/// order the driver executes engines, so same-seed runs assign the same
/// ids. Id 0 is reserved for "no trace".
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The trace id events are currently attributed to (0 = none). Stamped
/// into every emitted event as the optional `trace` envelope field.
static CURRENT_TRACE: AtomicU64 = AtomicU64::new(0);

/// Starts a new causal trace and makes it current, returning its id
/// (ids start at 1; 0 means "no trace"). The engine calls this at the
/// top of every snapshot occasion so the scheduler decision, snapshot
/// resolution, walk batch, estimate, and report events all share one id.
#[inline]
pub fn begin_trace() -> u64 {
    // relaxed-ok: ids are allocated in deterministic driver order; the
    // counter is never used to synchronise data.
    let id = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
    CURRENT_TRACE.store(id, Ordering::Relaxed); // relaxed-ok: labelling stamp
    id
}

/// Re-attributes subsequent events to trace `id` (0 clears attribution).
/// Drivers call this per engine segment so multi-query runs don't leak
/// one engine's occasion id onto another engine's events.
#[inline]
pub fn set_trace(id: u64) {
    // relaxed-ok: labelling stamp read by `emit` on the same thread.
    CURRENT_TRACE.store(id, Ordering::Relaxed);
}

/// The trace id currently stamped onto events (0 = none).
#[inline]
#[must_use]
pub fn current_trace() -> u64 {
    // relaxed-ok: labelling stamp, not synchronisation.
    CURRENT_TRACE.load(Ordering::Relaxed)
}

/// Whether `span` events are emitted when [`SpanGuard`]s close (off by
/// default: span events are a trace-export feature and would otherwise
/// bloat every `--telemetry` stream).
static SPAN_EVENTS: AtomicBool = AtomicBool::new(false);

/// Enables or disables `span` event emission (see [`emit_span_event`]).
pub fn set_span_events(enabled: bool) {
    // relaxed-ok: set once before the run, read as an advisory flag.
    SPAN_EVENTS.store(enabled, Ordering::Relaxed);
}

/// True when span events are requested (e.g. `digest-cli --trace-out`).
#[inline]
#[must_use]
pub fn span_events_enabled() -> bool {
    // relaxed-ok: advisory fast-path flag.
    SPAN_EVENTS.load(Ordering::Relaxed)
}

/// Emits one `span` event for a closed deterministic-clock span: the
/// stage name plus its duration in simulation ticks. No-op unless span
/// events are enabled *and* a sink is installed and unsuppressed. The
/// batch executor records its walk spans once, with [`spans()`], and
/// calls this post-join for each of them, in slot order.
pub fn emit_span_event(stage: Stage, duration_ticks: u64) {
    if !span_events_enabled() || !events_enabled() {
        return;
    }
    emit(
        "span",
        &[
            ("stage", Field::Str(stage.name())),
            ("dur", Field::U64(duration_ticks)),
        ],
    );
}

/// Fast-path gate: true only when a sink is installed AND emission is
/// not suppressed. Kept in sync by [`install_sink`]/[`take_sink`] and
/// the suppression guard.
static EVENTS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Nesting depth of active [`suppress_events`] guards.
static SUPPRESS_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// The installed sink. A `Mutex` (not `RwLock`): `emit` is already off
/// the disabled fast path, and sinks serialise writes internally anyway.
static SINK: Mutex<Option<Box<dyn EventSink>>> = Mutex::new(None);

fn refresh_enabled_flag(installed: bool) {
    // relaxed-ok: the flag is a fast-path hint; authoritative state is
    // behind the sink mutex and a stale read only costs one extra check.
    let enabled = installed && SUPPRESS_DEPTH.load(Ordering::Relaxed) == 0;
    EVENTS_ENABLED.store(enabled, Ordering::Relaxed); // relaxed-ok: advisory flag
}

/// Installs the process-wide event sink, returning the previous one.
pub fn install_sink(sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
    let mut slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let previous = slot.replace(sink);
    refresh_enabled_flag(true);
    previous
}

/// Removes and returns the installed sink (flushing is the caller's
/// choice — the sink is handed back intact).
pub fn take_sink() -> Option<Box<dyn EventSink>> {
    let mut slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    let previous = slot.take();
    refresh_enabled_flag(false);
    previous
}

/// True when [`emit`] would deliver an event. Instrumentation sites
/// check this before building field slices so the disabled path costs
/// one relaxed load.
#[inline]
#[must_use]
pub fn events_enabled() -> bool {
    // relaxed-ok: fast-path hint; `emit` re-checks under the sink lock.
    EVENTS_ENABLED.load(Ordering::Relaxed)
}

/// Emits one structured event to the installed sink (no-op when
/// disabled or suppressed). The event is stamped with the global
/// [`tick`].
pub fn emit(kind: &'static str, fields: &[(&'static str, Field<'_>)]) {
    if !events_enabled() {
        return;
    }
    let tick = tick();
    let trace = current_trace();
    let slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    // The fast-path flag can be stale: a guard dropping on another
    // thread may re-raise it after this thread suppressed. The depth is
    // the authority.
    // relaxed-ok: a suppressing thread reads its own increment, and
    // workers it spawns see it through the spawn edge.
    if SUPPRESS_DEPTH.load(Ordering::Relaxed) != 0 {
        return;
    }
    if let Some(sink) = slot.as_ref() {
        if trace == 0 {
            sink.emit(kind, tick, fields);
        } else {
            // Stamp the causal trace id into the envelope.
            let mut stamped = event::FieldBuf::new();
            stamped.extend(fields);
            stamped.push(("trace", Field::U64(trace)));
            sink.emit(kind, tick, stamped.as_mut_slice());
        }
    }
}

/// Flushes the installed sink (end of run).
pub fn flush() {
    let slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(sink) = slot.as_ref() {
        sink.flush();
    }
}

/// RAII guard from [`suppress_events`]; re-enables emission on drop.
#[derive(Debug)]
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        // relaxed-ok: guard nesting depth; the flag refresh below
        // re-reads it and suppression is advisory, not synchronising.
        SUPPRESS_DEPTH.fetch_sub(1, Ordering::Relaxed);
        let installed = SINK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some();
        refresh_enabled_flag(installed);
    }
}

/// Suppresses event emission until the returned guard drops. Used by
/// the parallel replication harness: worker threads run suppressed (so
/// interleaving can't leak into the trace) and deterministic rollups
/// are emitted after joining, in seed order. Guards nest.
#[must_use]
pub fn suppress_events() -> SuppressGuard {
    // relaxed-ok: guard nesting depth plus an advisory fast-path flag;
    // neither is used to synchronise data.
    SUPPRESS_DEPTH.fetch_add(1, Ordering::Relaxed);
    EVENTS_ENABLED.store(false, Ordering::Relaxed); // relaxed-ok: advisory flag
    SuppressGuard(())
}

/// Resets every metric, stage accumulator, and the global tick — the
/// full "fresh run" reset used between CLI invocations in one process
/// (tests, the bench harness) and by replication workers.
pub fn reset_run_state() {
    reset_metrics();
    reset_stages();
    set_tick(0);
    // relaxed-ok: reset happens between runs, never concurrently.
    TRACE_COUNTER.store(0, Ordering::Relaxed);
    CURRENT_TRACE.store(0, Ordering::Relaxed); // relaxed-ok: between runs
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
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// The sink slot, the tick and the stage table are process-global;
    /// tests that install sinks or read stage totals must not interleave.
    pub(crate) fn sink_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<StdMutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn emit_is_noop_without_sink() {
        let _guard = sink_lock();
        assert!(!events_enabled());
        // Must not panic or block.
        emit("tick", &[("estimate", Field::F64(1.0))]);
    }

    #[test]
    fn install_emit_take_round_trip() {
        let _guard = sink_lock();
        let sink = MemorySink::new();
        let handle = sink.clone();
        assert!(install_sink(Box::new(sink)).is_none());
        assert!(events_enabled());

        set_tick(42);
        emit(
            "net.churn",
            &[("joins", Field::U64(2)), ("leaves", Field::U64(1))],
        );
        assert_eq!(handle.len(), 1);
        assert_eq!(
            handle.lines()[0],
            r#"{"joins":2,"kind":"net.churn","leaves":1,"tick":42}"#
        );
        assert_eq!(crate::schema::validate_line(&handle.lines()[0]), Ok(()));

        assert!(take_sink().is_some());
        assert!(!events_enabled());
        emit(
            "net.churn",
            &[("joins", Field::U64(9)), ("leaves", Field::U64(9))],
        );
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn suppression_nests_and_restores() {
        let _guard = sink_lock();
        let sink = MemorySink::new();
        let handle = sink.clone();
        let previous = install_sink(Box::new(sink));
        assert!(previous.is_none());

        {
            let _outer = suppress_events();
            assert!(!events_enabled());
            {
                let _inner = suppress_events();
                emit(
                    "net.churn",
                    &[("joins", Field::U64(1)), ("leaves", Field::U64(0))],
                );
                assert!(!events_enabled());
            }
            // Still suppressed by the outer guard.
            assert!(!events_enabled());
        }
        assert!(events_enabled());
        emit(
            "net.churn",
            &[("joins", Field::U64(1)), ("leaves", Field::U64(0))],
        );
        assert_eq!(handle.len(), 1);

        assert!(take_sink().is_some());
    }

    /// A stale fast-path flag (another thread's guard dropping late) must
    /// not let a suppressed emit through: `emit` re-checks the depth.
    #[test]
    fn emit_under_a_guard_ignores_a_stale_enabled_flag() {
        let _guard = sink_lock();
        let sink = MemorySink::new();
        let handle = sink.clone();
        install_sink(Box::new(sink));
        {
            let _quiet = suppress_events();
            EVENTS_ENABLED.store(true, Ordering::Relaxed); // relaxed-ok: test forces the race's outcome
            emit(
                "net.churn",
                &[("joins", Field::U64(1)), ("leaves", Field::U64(0))],
            );
        }
        assert_eq!(handle.len(), 0, "a suppressed emit reached the sink");
        assert!(take_sink().is_some());
    }

    #[test]
    fn trace_ids_stamp_the_envelope() {
        let _guard = sink_lock();
        reset_run_state();
        let sink = MemorySink::new();
        let handle = sink.clone();
        install_sink(Box::new(sink));

        set_tick(5);
        // No trace active: no `trace` key on the wire.
        emit(
            "net.churn",
            &[("joins", Field::U64(1)), ("leaves", Field::U64(0))],
        );
        let first = begin_trace();
        assert_eq!(first, 1);
        emit(
            "net.churn",
            &[("joins", Field::U64(2)), ("leaves", Field::U64(0))],
        );
        let second = begin_trace();
        assert_eq!(second, 2);
        set_trace(first);
        emit(
            "net.churn",
            &[("joins", Field::U64(3)), ("leaves", Field::U64(0))],
        );

        let lines = handle.lines();
        assert!(!lines[0].contains("\"trace\""));
        assert!(lines[1].contains("\"trace\":1"));
        assert!(lines[2].contains("\"trace\":1"));
        for line in &lines {
            assert_eq!(crate::schema::validate_line(line), Ok(()));
        }

        take_sink();
        reset_run_state();
        assert_eq!(current_trace(), 0);
        assert_eq!(begin_trace(), 1, "reset_run_state rewinds the allocator");
        reset_run_state();
    }

    #[test]
    fn span_events_emit_only_when_enabled_and_unsuppressed() {
        let _guard = sink_lock();
        reset_run_state();
        let sink = MemorySink::new();
        let handle = sink.clone();
        install_sink(Box::new(sink));

        set_tick(3);
        // Disabled by default: a closed span emits nothing.
        drop(span(Stage::Replication));
        assert_eq!(handle.len(), 0);

        set_span_events(true);
        drop(span(Stage::Replication));
        assert_eq!(handle.len(), 1);
        assert!(handle.lines()[0].contains("\"kind\":\"span\""));
        assert!(handle.lines()[0].contains("\"stage\":\"replication\""));
        assert_eq!(crate::schema::validate_line(&handle.lines()[0]), Ok(()));

        {
            let _quiet = suppress_events();
            drop(span(Stage::Replication));
        }
        assert_eq!(handle.len(), 1, "suppressed spans must not emit");

        set_span_events(false);
        take_sink();
        reset_run_state();
    }
}
