//! `digest-cli` driven as a process: the `--telemetry` `tick` event's `exact`
//! field is the statement's own oracle — the value the auditor scores
//! against and the CLI prints — not the workload's plain-AVG aggregate; a
//! `--queries` count of zero is refused by name; `--estimator` reaches
//! shared rounds; and an estimator's messages split by cause add up, the
//! revisit priced per peer.

use std::collections::BTreeMap;
use std::process::Command;

/// Runs `digest-cli` with `args` and `--telemetry`; returns its stdout and
/// event lines.
fn run_with_events(name: &str, args: &[&str]) -> (String, Vec<String>) {
    let events = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let output = Command::new(env!("CARGO_BIN_EXE_digest-cli"))
        .args(args)
        .arg("--telemetry")
        .arg(&events)
        .output()
        .expect("digest-cli runs");
    assert!(output.status.success(), "{output:?}");
    let lines = std::fs::read_to_string(&events)
        .expect("event stream")
        .lines()
        .map(str::to_owned)
        .collect();
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        lines,
    )
}

/// The events of `kind`, parsed.
fn events_of(lines: &[String], kind: &str) -> Vec<serde_json::Value> {
    lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("valid JSONL"))
        .filter(|e| e["kind"].as_str() == Some(kind))
        .collect()
}

/// An event's messages by cause, summed.
fn split(event: &serde_json::Value) -> u64 {
    ["walk", "report", "revisit", "lost", "size"]
        .iter()
        .filter_map(|key| event[*key].as_u64())
        .sum()
}

/// A revisit is priced per peer: one request and one reply for each live
/// node holding retained entries, however many it holds. The temperature
/// world deletes nothing and loses no node, so each of those peers holds
/// at least one of the `retained` entries, and no probe is lost.
fn check_peers(event: &serde_json::Value, retained: &str) {
    let peers = event["peers"].as_u64().expect("peers field");
    assert_eq!(event["revisit"].as_u64(), Some(2 * peers), "{event}");
    assert!(Some(peers) <= event[retained].as_u64(), "{event}");
    assert_eq!(event["lost"].as_u64(), Some(0), "{event}");
}

#[test]
fn tick_events_carry_the_statements_own_oracle() {
    let events =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_telemetry_sum_where.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_digest-cli"))
        .args(["--world", "temperature", "--ticks", "40", "--seed", "7"])
        .args(["--audit", "--telemetry"])
        .arg(&events)
        .arg("SELECT SUM(temperature) FROM R WHERE temperature > 60 WITH delta=2000, epsilon=800, p=0.95")
        .output()
        .expect("digest-cli runs");
    assert!(output.status.success(), "{output:?}");

    let mut ticks: BTreeMap<u64, f64> = BTreeMap::new();
    let mut occasions: BTreeMap<u64, f64> = BTreeMap::new();
    for line in std::fs::read_to_string(&events)
        .expect("event stream")
        .lines()
    {
        let event = serde_json::from_str(line).expect("valid JSONL");
        let into = match event["kind"].as_str() {
            Some("tick") => &mut ticks,
            Some("audit.occasion") => &mut occasions,
            _ => continue,
        };
        let tick = event["tick"].as_u64().expect("tick stamp");
        into.insert(tick, event["exact"].as_f64().expect("exact field"));
    }

    assert_eq!(ticks.len(), 40, "one tick event per simulated tick");
    assert!(occasions.len() >= 5, "only {} occasions", occasions.len());
    for (tick, audited) in &occasions {
        assert_eq!(
            ticks[tick].to_bits(),
            audited.to_bits(),
            "tick {tick}: tick.exact {} != audit.occasion exact {audited}",
            ticks[tick]
        );
    }
    // A predicated SUM over 2 000 readings near 60 is in the tens of
    // thousands; the plain AVG the event used to carry is ≈ 60.
    assert!(ticks.values().all(|&exact| exact > 1_000.0));

    // The printed oracle is the same number.
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let printed = stdout
        .lines()
        .find(|l| l.starts_with("t=    0 "))
        .and_then(|l| l.split("oracle =").nth(1))
        .and_then(|s| s.trim().trim_end_matches(')').parse::<f64>().ok())
        .expect("first update line");
    assert!(
        (printed - ticks[&0]).abs() < 1e-3,
        "{printed} vs {}",
        ticks[&0]
    );
}

/// `--queries 0` asks for nothing to serve: the count is rejected where
/// it is parsed, by name, before any mux is built (it used to reach
/// `run_mux` and come back as "workload graph has no live nodes").
#[test]
fn a_zero_query_count_is_rejected_by_name() {
    for spec in ["0", "0@4,2,0.9"] {
        let output = Command::new(env!("CARGO_BIN_EXE_digest-cli"))
            .args(["--ticks", "5", "--queries", spec])
            .output()
            .expect("digest-cli runs");
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        assert_eq!(
            stderr.trim(),
            "error: bad --queries count `0` (want at least 1)"
        );
        let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
        assert!(!stdout.contains("serving"), "{stdout}");
    }
}

/// A statement is text from outside the program. Multi-byte text where a
/// keyword could start used to slice `&str` off a character boundary and
/// exit 101; thirty thousand nested parentheses used to overflow the
/// parser's stack, and sixty thousand chained `+` that of `eval`, and abort
/// (exit 134). All three are statements the CLI rejects.
#[test]
fn a_statement_the_parser_cannot_read_is_an_error_not_a_crash() {
    let deep = format!(
        "SELECT AVG({}temperature{}) FROM R WITH delta=1, epsilon=1, p=0.9",
        "(".repeat(30_000),
        ")".repeat(30_000)
    );
    let long = format!(
        "SELECT AVG({}) FROM R WITH delta=1, epsilon=1, p=0.9",
        vec!["1"; 60_000].join("+")
    );
    for statement in [
        "SELECT AVG(temperature) FROM R WHERE €€ WITH delta=1, epsilon=1, p=0.9",
        deep.as_str(),
        long.as_str(),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_digest-cli"))
            .args(["--ticks", "5", statement])
            .output()
            .expect("digest-cli runs");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
        assert_eq!(output.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("error: "), "{stderr}");
        assert!(stderr.contains("parse error at byte"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// `--estimator` reaches shared rounds. It used to be read by unshared
/// engines only, so `--queries 4 --estimator rpt` and `--estimator indep`
/// printed the same trace and emitted the same `mux.round` stream; now RPT
/// rounds revisit a rotating panel and INDEP rounds draw a fresh one. The
/// fixture is the INDEP run's stdout; it is regenerated only when the
/// world's own stream or the INDEP sizing rule changes.
#[test]
fn the_estimator_reaches_shared_rounds() {
    let run = |estimator: &str| {
        let args = [
            "--ticks",
            "60",
            "--seed",
            "7",
            "--queries",
            "4",
            "--estimator",
            estimator,
        ];
        let (stdout, lines) = run_with_events(&format!("estimator_{estimator}.jsonl"), &args);
        let rounds = events_of(&lines, "mux.round");
        assert!(rounds.len() >= 20, "{} rounds", rounds.len());
        for round in &rounds {
            assert_eq!(split(round), round["messages"].as_u64().unwrap(), "{round}");
            // A round reports its whole panel, revisited and fresh.
            check_peers(round, "panel");
        }
        let revisits: u64 = rounds.iter().map(|r| r["revisit"].as_u64().unwrap()).sum();
        // The summary `--telemetry` appends is not the trace.
        let trace = stdout
            .split("\n--- telemetry summary")
            .next()
            .unwrap()
            .to_owned();
        (rounds, revisits, trace)
    };
    let (rpt, rpt_revisits, _) = run("rpt");
    let (indep, indep_revisits, indep_trace) = run("indep");
    assert_ne!(rpt, indep);
    assert!(rpt_revisits > 0);
    assert_eq!(indep_revisits, 0);
    assert_eq!(
        indep_trace,
        include_str!("golden/queries4_stdout.txt"),
        "--estimator indep no longer prints the pinned trace"
    );
}

/// A solo engine's occasion is a one-member `mux.round`, which splits its
/// messages by cause — walk hops, sample reports, revisits, lost probes —
/// and for an `AVG` (no size refresh) they add up to the round's messages
/// and to its member's `engine.snapshot` messages. Its `panel` less its
/// `fresh` draws is what it revisited: summed over the run, the
/// `core.rpt.retained` count of the telemetry summary.
#[test]
fn an_estimators_messages_add_up_by_cause() {
    for estimator in ["rpt", "indep"] {
        let (stdout, lines) = run_with_events(
            &format!("split_{estimator}.jsonl"),
            &[
                "--ticks",
                "40",
                "--seed",
                "7",
                "--estimator",
                estimator,
                "SELECT AVG(temperature) FROM R WITH delta=2, epsilon=1, p=0.95",
            ],
        );
        let snapshots: BTreeMap<u64, u64> = events_of(&lines, "engine.snapshot")
            .iter()
            .map(|e| (e["tick"].as_u64().unwrap(), e["messages"].as_u64().unwrap()))
            .collect();
        let rounds = events_of(&lines, "mux.round");
        assert_eq!(rounds.len(), snapshots.len(), "{estimator}");
        for round in &rounds {
            assert_eq!(round["members"].as_u64(), Some(1), "{round}");
            assert_eq!(split(round), round["messages"].as_u64().unwrap(), "{round}");
            assert_eq!(
                Some(&split(round)),
                snapshots.get(&round["tick"].as_u64().unwrap()),
                "{round}"
            );
            check_peers(round, "panel");
        }
        let revisits = rounds.iter().filter(|e| e["revisit"].as_u64() > Some(0));
        assert_eq!(revisits.count() > 0, estimator == "rpt");
        // A round's panel is its revisited entries and its fresh draws; the
        // revisited ones, summed over the run, are what the estimator
        // counted as retained.
        let retained: u64 = rounds
            .iter()
            .map(|e| e["panel"].as_u64().unwrap() - e["fresh"].as_u64().unwrap())
            .sum();
        let summary: u64 = stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("core.rpt.retained "))
            .map_or(0, |v| v.trim().parse().unwrap());
        assert_eq!(retained, summary, "{estimator}");
        assert_eq!(retained > 0, estimator == "rpt");
        // Retained entries share nodes: fewer exchanges than entries.
        if estimator == "rpt" {
            let peers: u64 = rounds.iter().filter_map(|e| e["peers"].as_u64()).sum();
            assert!(peers < retained, "{peers} peers, {retained} retained");
        }
    }
}
