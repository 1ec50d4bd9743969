//! Golden-trace regression test for the mux scheduler.
//!
//! Drives a seeded shared [`QueryMux`] over a fixed world and logs each
//! member's per-tick decision (snapshot or hold, shared round id, samples,
//! messages, estimate), byte-compared against a checked-in fixture. This
//! pins the end-to-end scheduler × sizing × panel-sharing pipeline
//! bit-for-bit.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```bash
//! UPDATE_MUX_GOLDEN=1 cargo test -p digest-core --test mux_golden
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use digest_core::{ContinuousQuery, MuxConfig, Precision, QueryMux, TickContext};
use digest_db::{Expr, P2PDatabase, Schema, Tuple};
use digest_net::{topology, Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/mux_decisions.txt"
);

/// The fixed world the mux section runs on: a complete 8-node overlay,
/// 25 tuples per node around 50. Same construction as the mux unit
/// tests; pure seeded arithmetic, so the trace is bit-stable.
fn world(seed: u64) -> (Graph, P2PDatabase) {
    let graph = topology::complete(8).unwrap();
    let mut db = P2PDatabase::new(Schema::single("a"));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for v in 0..8 {
        db.register_node(NodeId(v));
        for _ in 0..25 {
            let value = 50.0 + rng.gen_range(-8.0..8.0);
            db.insert(NodeId(v), Tuple::single(value)).unwrap();
        }
    }
    (graph, db)
}

/// Drives a shared mux over the fixed world and logs every member's
/// per-tick decision. Round ids are renumbered from the first observed
/// one so the fixture does not depend on the process-global trace
/// counter.
fn replay_mux(out: &mut String) {
    // The fixture's section header, kept as first written: the round rule
    // it names is the only one there is now.
    writeln!(out, "mux sharing=on horizon=2 piggyback=on").unwrap();
    let (graph, db) = world(42);
    let mut mux = QueryMux::new(MuxConfig::default()).unwrap();
    let schema = Schema::single("a");
    for &(delta, eps, p) in &[(2.0, 1.0, 0.95), (4.0, 2.0, 0.90), (8.0, 4.0, 0.90)] {
        mux.register(ContinuousQuery::avg(
            Expr::first_attr(&schema),
            Precision::new(delta, eps, p).unwrap(),
        ))
        .unwrap();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut round_base: Option<u64> = None;
    for tick in 0..40 {
        let ctx = TickContext {
            tick,
            graph: &graph,
            db: &db,
            origin: NodeId(0),
        };
        let outcomes = mux.on_tick_mux(&ctx, &mut rng).unwrap();
        for o in &outcomes {
            let round = o.round.map(|r| {
                let base = *round_base.get_or_insert(r);
                r - base
            });
            writeln!(
                out,
                "  t={tick:>3} q={} snap={} round={} samples={} messages={} est={:.6}",
                o.query,
                u8::from(o.outcome.snapshot_executed),
                round.map_or_else(|| "-".to_owned(), |r| r.to_string()),
                o.outcome.samples_this_tick,
                o.outcome.messages_this_tick,
                o.outcome.estimate,
            )
            .unwrap();
        }
    }
    writeln!(out, "end mux").unwrap();
}

fn decision_trace() -> String {
    let mut out = String::new();
    out.push_str("mux golden decision trace v1\n");
    replay_mux(&mut out);
    out
}

#[test]
fn mux_scheduler_decisions_match_golden_trace() {
    let trace = decision_trace();
    if std::env::var("UPDATE_MUX_GOLDEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &trace).unwrap();
        eprintln!("updated {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden fixture missing — run with UPDATE_MUX_GOLDEN=1 to create it");
    if trace == golden {
        return;
    }
    for (i, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "mux golden trace diverged at line {} (see {})",
            i + 1,
            GOLDEN_PATH,
        );
    }
    panic!(
        "mux golden trace length changed: got {} lines, fixture has {} (see {})",
        trace.lines().count(),
        golden.lines().count(),
        GOLDEN_PATH,
    );
}
