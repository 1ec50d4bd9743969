//! Golden-trace regression test for the mux scheduler.
//!
//! Drives a seeded shared [`QueryMux`] over a fixed world and logs each
//! member's per-tick decision (snapshot or hold, shared round id, samples,
//! messages, estimate), byte-compared against a checked-in fixture — one
//! per shared-round estimator: the rotating RPT panel
//! (`mux_decisions.txt`) and a fresh CLT-sized panel every round
//! (`mux_decisions_indep.txt`, the trace every shared round had before
//! RPT rounds). This pins the end-to-end scheduler × sizing ×
//! panel-sharing pipeline bit-for-bit. The same replays check that every
//! `mux.round` event's messages split by cause sums to its `messages`.
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

use digest_core::{ContinuousQuery, EstimatorKind, MuxConfig, Precision, QueryMux, TickContext};
use digest_db::{Expr, P2PDatabase, Schema, Tuple};
use digest_net::{topology, Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// The goldens: fixture name, `mux` section header, shared-round estimator.
const GOLDENS: [(&str, &str, EstimatorKind); 2] = [
    (
        "mux_decisions.txt",
        "mux sharing=on estimator=rpt",
        EstimatorKind::Repeated,
    ),
    // The header as first written: the round rule it names is the only
    // one there is now.
    (
        "mux_decisions_indep.txt",
        "mux sharing=on horizon=2 piggyback=on",
        EstimatorKind::Independent,
    ),
];

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
fn replay_mux(out: &mut String, header: &str, estimator: EstimatorKind) {
    writeln!(out, "{header}").unwrap();
    let (graph, db) = world(42);
    let mut mux = QueryMux::new(MuxConfig {
        estimator,
        ..MuxConfig::default()
    })
    .unwrap();
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

/// One golden's decision trace and the event stream of its replay.
fn decision_trace(header: &str, estimator: EstimatorKind) -> (String, Vec<String>) {
    let mut out = String::new();
    out.push_str("mux golden decision trace v1\n");
    let sink = digest_telemetry::MemorySink::new();
    digest_telemetry::install_sink(Box::new(sink.clone()));
    replay_mux(&mut out, header, estimator);
    digest_telemetry::take_sink();
    (out, sink.lines())
}

/// The unsigned integer `key` holds in a rendered event line.
fn field(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no `{key}` in {line}"));
    let digits: String = line[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// Every round's messages, split by cause — walk hops, sample reports,
/// panel revisits, lost probes and the size refresh — add up to its
/// total, a revisit costing one exchange per peer; RPT rounds revisit,
/// INDEP rounds never do.
fn check_message_split(events: &[String], estimator: EstimatorKind) {
    let rounds: Vec<&String> = events
        .iter()
        .filter(|l| l.contains("\"kind\":\"mux.round\""))
        .collect();
    assert!(rounds.len() >= 10, "{} rounds", rounds.len());
    let mut revisits = 0;
    for line in &rounds {
        let split: u64 = ["walk", "report", "revisit", "lost", "size"]
            .iter()
            .map(|key| field(line, key))
            .sum();
        assert_eq!(split, field(line, "messages"), "{line}");
        assert_eq!(field(line, "revisit"), 2 * field(line, "peers"), "{line}");
        revisits += field(line, "revisit");
    }
    assert_eq!(
        revisits > 0,
        estimator == EstimatorKind::Repeated,
        "{estimator:?}"
    );
}

#[test]
fn mux_scheduler_decisions_match_golden_trace() {
    for (name, header, estimator) in GOLDENS {
        let path = format!("{GOLDEN_DIR}/{name}");
        let (trace, events) = decision_trace(header, estimator);
        check_message_split(&events, estimator);
        if std::env::var("UPDATE_MUX_GOLDEN").is_ok() {
            std::fs::create_dir_all(GOLDEN_DIR).unwrap();
            std::fs::write(&path, &trace).unwrap();
            eprintln!("updated {path}");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .expect("golden fixture missing — run with UPDATE_MUX_GOLDEN=1 to create it");
        if trace == golden {
            continue;
        }
        for (i, (got, want)) in trace.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "mux golden trace diverged at line {} (see {path})",
                i + 1,
            );
        }
        panic!(
            "mux golden trace length changed: got {} lines, fixture has {} (see {path})",
            trace.lines().count(),
            golden.lines().count(),
        );
    }
}
