//! Golden-trace regression test for the `PRED-k` scheduler.
//!
//! Drives `PredScheduler` through a fixed piecewise signal — steady,
//! linear drift, accelerating quadratic, plus a mid-trace reset — the
//! way the engine does (each decided delay advances the clock), under a
//! query contract, and byte-compares the full decision log against a
//! checked-in fixture. Any change to the extrapolator's fit, prediction
//! bound, or skip logic shows up as a readable line diff here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```bash
//! UPDATE_PRED_GOLDEN=1 cargo test -p digest-core --test pred_golden
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)]

use digest_core::{Precision, PredScheduler, SnapshotScheduler};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pred_decisions.txt"
);

/// The deterministic signal the scheduler watches: steady, then linear
/// drift, then a quadratic ramp. Pure f64 arithmetic on small integers,
/// so the trace is bit-stable across platforms.
fn signal(t: u64) -> f64 {
    let t = t as f64;
    if t < 15.0 {
        100.0
    } else if t < 30.0 {
        100.0 + 4.0 * (t - 15.0)
    } else {
        160.0 + 0.5 * (t - 30.0) * (t - 30.0)
    }
}

/// The snapshots' contract: `ε` and `p`, the same in every scenario.
const EPSILON: f64 = 1.0;
const CONFIDENCE: f64 = 0.95;

/// Replays one `(k, δ)` scenario and appends every decision to `out`.
fn replay(k: usize, delta: f64, horizon: u64, reset_at: Option<u64>, out: &mut String) {
    let contract = Precision::new(delta, EPSILON, CONFIDENCE).unwrap();
    let mut s = PredScheduler::for_precision(k, &contract).unwrap();
    writeln!(
        out,
        "scenario k={k} delta={delta} epsilon={EPSILON} p={CONFIDENCE} horizon={horizon} \
         reset_at={reset_at:?}"
    )
    .unwrap();
    let mut t = 0u64;
    let mut pending_reset = reset_at;
    while t < horizon {
        if pending_reset.is_some_and(|r| t >= r) {
            s.reset();
            pending_reset = None;
            writeln!(out, "  t={t:>3} reset").unwrap();
        }
        let estimate = signal(t);
        s.observe(t as f64, estimate);
        let delay = s.next_delay(delta).unwrap();
        writeln!(out, "  t={t:>3} observe={estimate:.6} delay={delay}").unwrap();
        t += delay;
    }
    writeln!(out, "end scenario").unwrap();
}

fn decision_trace() -> String {
    let mut out = String::new();
    out.push_str("PRED-k golden decision trace v2\n");
    for &(k, delta) in &[(2usize, 2.0f64), (3, 5.0), (5, 5.0), (3, 1.0)] {
        replay(k, delta, 200, None, &mut out);
    }
    // A reset mid-trace must restore bootstrap (snapshot every tick).
    replay(3, 5.0, 120, Some(20), &mut out);
    out
}

#[test]
fn pred_scheduler_decisions_match_golden_trace() {
    let trace = decision_trace();
    if std::env::var("UPDATE_PRED_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &trace).unwrap();
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing — run with UPDATE_PRED_GOLDEN=1 to create it");
    if trace == golden {
        return;
    }
    // Readable diff: first divergent line with context.
    for (i, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "PRED golden trace diverged at line {} (see {})",
            i + 1,
            GOLDEN_PATH,
        );
    }
    panic!(
        "PRED golden trace length changed: got {} lines, fixture has {} (see {})",
        trace.lines().count(),
        golden.lines().count(),
        GOLDEN_PATH,
    );
}
