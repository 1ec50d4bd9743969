//! Golden-trace regression test for the mux scheduler.
//!
//! Drives a seeded [`QueryMux`] over a fixed world and logs each member's
//! per-tick decision (snapshot or hold, shared round id, samples,
//! messages, estimate), byte-compared against a checked-in fixture. Two
//! fixtures run three `AVG` members on shared rounds, one per shared-round
//! estimator: the rotating RPT panel (`mux_decisions.txt`) and a fresh
//! CLT-sized panel every round (`mux_decisions_indep.txt`). Three more add
//! a fourth member
//! under `WHERE a > 50` and print each estimate as its `f64` bits: the
//! unshared mux — standalone RPT and INDEP engines, per
//! `tests/mux_equivalence.rs` — and shared INDEP rounds, where a predicated
//! class sizes the CLT loop. This pins the end-to-end scheduler × sizing ×
//! panel-sharing pipeline bit-for-bit. The shared replays also check that
//! every `mux.round` event's messages split by cause sums to its
//! `messages`, and every replay that the `core.engine.*` counters count
//! each member's value occasion.
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

use digest_core::{
    ContinuousQuery, EngineConfig, EstimatorKind, MuxConfig, Precision, QueryMux, TickContext,
};
use digest_db::{Expr, P2PDatabase, Predicate, Schema, Tuple};
use digest_net::{topology, Graph, NodeId};
use digest_telemetry::registry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// One member of a golden's fleet: `(δ, ε, p)` and a `WHERE` clause.
type Member = (f64, f64, f64, Option<&'static str>);

/// Three `AVG` contracts over the whole relation.
const PLAIN: &[Member] = &[
    (2.0, 1.0, 0.95, None),
    (4.0, 2.0, 0.90, None),
    (8.0, 4.0, 0.90, None),
];

/// [`PLAIN`] and one member over the tuples above the mean.
const PREDICATED: &[Member] = &[
    (2.0, 1.0, 0.95, None),
    (4.0, 2.0, 0.90, None),
    (8.0, 4.0, 0.90, None),
    (4.0, 2.0, 0.90, Some("a > 50")),
];

/// One golden fixture and the mux it replays.
struct Golden {
    file: &'static str,
    /// The `mux` section header.
    header: &'static str,
    estimator: EstimatorKind,
    sharing: bool,
    fleet: &'static [Member],
    /// Print each estimate as its `f64` bits rather than to six decimals.
    bits: bool,
}

const GOLDENS: [Golden; 5] = [
    Golden {
        file: "mux_decisions.txt",
        header: "mux sharing=on estimator=rpt",
        estimator: EstimatorKind::Repeated,
        sharing: true,
        fleet: PLAIN,
        bits: false,
    },
    // The header as first written: the round rule it names is the only
    // one there is now.
    Golden {
        file: "mux_decisions_indep.txt",
        header: "mux sharing=on horizon=2 piggyback=on",
        estimator: EstimatorKind::Independent,
        sharing: true,
        fleet: PLAIN,
        bits: false,
    },
    Golden {
        file: "mux_decisions_unshared_rpt.txt",
        header: "mux sharing=off estimator=rpt fleet=predicated",
        estimator: EstimatorKind::Repeated,
        sharing: false,
        fleet: PREDICATED,
        bits: true,
    },
    Golden {
        file: "mux_decisions_unshared_indep.txt",
        header: "mux sharing=off estimator=indep fleet=predicated",
        estimator: EstimatorKind::Independent,
        sharing: false,
        fleet: PREDICATED,
        bits: true,
    },
    Golden {
        file: "mux_decisions_indep_where.txt",
        header: "mux sharing=on estimator=indep fleet=predicated",
        estimator: EstimatorKind::Independent,
        sharing: true,
        fleet: PREDICATED,
        bits: true,
    },
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

/// Drives the golden's mux over the fixed world and logs every member's
/// per-tick decision. Round ids are renumbered from the first observed
/// one so the fixture does not depend on the process-global trace
/// counter.
fn replay_mux(out: &mut String, golden: &Golden) {
    writeln!(out, "{}", golden.header).unwrap();
    let (graph, db) = world(42);
    let mut mux = QueryMux::new(MuxConfig {
        sharing: golden.sharing,
        member: EngineConfig {
            estimator: golden.estimator,
            ..EngineConfig::default()
        },
    })
    .unwrap();
    let schema = Schema::single("a");
    for &(delta, eps, p, predicate) in golden.fleet {
        let query = ContinuousQuery::avg(
            Expr::first_attr(&schema),
            Precision::new(delta, eps, p).unwrap(),
        );
        let query = match predicate {
            Some(text) => query.with_predicate(Predicate::parse(text, &schema).unwrap()),
            None => query,
        };
        mux.register(query).unwrap();
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
            let estimate = o.outcome.estimate;
            let est = if golden.bits {
                format!("{:016x}", estimate.to_bits())
            } else {
                format!("{estimate:.6}")
            };
            writeln!(
                out,
                "  t={tick:>3} q={} snap={} round={} samples={} messages={} est={est}",
                o.query,
                u8::from(o.outcome.snapshot_executed),
                round.map_or_else(|| "-".to_owned(), |r| r.to_string()),
                o.outcome.samples_this_tick,
                o.outcome.messages_this_tick,
            )
            .unwrap();
        }
    }
    writeln!(out, "end mux").unwrap();
}

/// The `core.engine.*` counters: occasions, messages, samples.
fn engine_counters() -> [u64; 3] {
    [
        registry::CORE_ENGINE_SNAPSHOTS.get(),
        registry::CORE_ENGINE_MESSAGES.get(),
        registry::CORE_ENGINE_SAMPLES.get(),
    ]
}

/// One golden's decision trace, the event stream of its replay and what
/// the replay added to the `core.engine.*` counters.
fn decision_trace(golden: &Golden) -> (String, Vec<String>, [u64; 3]) {
    let mut out = String::new();
    out.push_str("mux golden decision trace v1\n");
    let sink = digest_telemetry::MemorySink::new();
    digest_telemetry::install_sink(Box::new(sink.clone()));
    let before = engine_counters();
    replay_mux(&mut out, golden);
    let after = engine_counters();
    digest_telemetry::take_sink();
    (out, sink.lines(), [0, 1, 2].map(|i| after[i] - before[i]))
}

/// The `core.engine.*` counters count every member's value occasion,
/// shared round or solo engine alike: one per `engine.snapshot` event,
/// with that event's messages and samples.
fn check_engine_counters(events: &[String], counted: [u64; 3]) {
    let snapshots: Vec<&String> = events
        .iter()
        .filter(|l| l.contains("\"kind\":\"engine.snapshot\""))
        .collect();
    let sum = |key: &str| snapshots.iter().map(|line| field(line, key)).sum::<u64>();
    assert!(snapshots.len() >= 10, "{} occasions", snapshots.len());
    assert_eq!(
        counted,
        [snapshots.len() as u64, sum("messages"), sum("samples")]
    );
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
    for golden in &GOLDENS {
        let path = format!("{GOLDEN_DIR}/{}", golden.file);
        let (trace, events, counted) = decision_trace(golden);
        if golden.sharing {
            check_message_split(&events, golden.estimator);
        }
        check_engine_counters(&events, counted);
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
