//! Every predicate of the `determinism` / `telemetry-schema` / `audit`
//! gates, driven red on a planted input and green on the clean one it was
//! derived from. Nothing here spawns `digest-cli`.

use xtask::gate::{
    check_report, differing, extends, resolution_bound, same, validate_event_stream, Artefacts,
    AuditRow, Baselines, DriftGate, Variant, AUDIT_DRIFT_TOLERANCE, MUX_SCHEMA_REQUIRED_KINDS,
    REPLAY_AND_WORKERS, SCENARIOS, SCHEMA_REQUIRED_KINDS,
};

fn artefacts() -> Artefacts {
    Artefacts {
        stdout: b"tick 0 estimate 66.6\ntick 1 estimate 66.7\n".to_vec(),
        events: b"{\"kind\":\"tick\",\"tick\":0}\n".to_vec(),
        report: b"[{\"occasions\":23}]\n".to_vec(),
        trace: b"{\"traceEvents\":[]}\n".to_vec(),
    }
}

#[test]
fn same_is_green_on_identical_artefacts_and_red_on_a_failed_run() {
    assert!(same("leg", &artefacts(), Ok(artefacts())));
    assert!(!same("leg", &artefacts(), Err("exit status 2".to_owned())));
}

#[test]
fn same_names_the_artefact_one_byte_moved_in() {
    let base = artefacts();
    for name in ["stdout", "events", "report", "trace"] {
        let mut other = base.clone();
        let planted = match name {
            "stdout" => &mut other.stdout,
            "events" => &mut other.events,
            "report" => &mut other.report,
            _ => &mut other.trace,
        };
        planted[3] ^= 1;
        let found = differing(&base, &other).map(|(name, ..)| name);
        assert_eq!(found, Some(name));
        assert!(!same("leg", &base, Ok(other)), "{name}");
    }
}

#[test]
fn an_observer_stdout_must_extend_the_plain_stdout() {
    let plain = artefacts().stdout;
    let mut observed = plain.clone();
    observed.extend_from_slice(b"violation rate 0.0000\n");
    assert!(extends("leg", "--audit", &plain, &observed));
    assert!(extends("leg", "--telemetry", &plain, &plain));

    // Same length and same suffix, but one byte of the per-tick trace moved.
    observed[5] ^= 1;
    assert!(!extends("leg", "--audit", &plain, &observed));
    // A truncated trace is not an extension either.
    assert!(!extends("leg", "--telemetry", &plain, &plain[..10]));
}

/// One member of an `--audit-json` report, with the fields the gate reads.
struct Member {
    occasions: f64,
    rate: f64,
    bound: f64,
    drift: f64,
    /// `(nominal, coverage)` rows of the calibration table.
    calibration: Vec<(f64, f64)>,
    /// Ticks the run covered, and those off by more than `δ + ε`.
    ticks: f64,
    resolution_violations: f64,
    confidence: f64,
    /// What the push baselines spent.
    baselines: Baselines,
}

/// The clean member's `ALL` / `ALL+FILTER` totals.
const CLEAN: Baselines = Baselines {
    all: 120_000,
    filter: 78_394,
};

impl Member {
    /// The fixed-seed `temperature/rpt` member, rounded.
    fn clean() -> Self {
        Member {
            occasions: 11.0,
            rate: 0.0909,
            bound: 0.2471,
            drift: 0.1364,
            calibration: vec![
                (0.5, 0.3636),
                (0.8, 0.7273),
                (0.9, 0.8182),
                (0.95, 0.9091),
                (0.99, 0.9091),
            ],
            ticks: 60.0,
            resolution_violations: 0.0,
            confidence: 0.95,
            baselines: CLEAN,
        }
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .calibration
            .iter()
            .map(|(nominal, coverage)| format!("{{\"nominal\":{nominal},\"coverage\":{coverage}}}"))
            .collect();
        format!(
            "{{\"query\":\"SELECT AVG(x) FROM R\",\"occasions\":{},\"violation_rate\":{},\
             \"violation_bound\":{},\"calibration_drift\":{},\"calibration\":[{}],\
             \"ticks\":{},\"resolution_violations\":{},\"confidence\":{},\
             \"messages\":{{\"digest\":6200,\"all\":{},\"all_filter\":{}}}}}",
            self.occasions,
            self.rate,
            self.bound,
            self.drift,
            rows.join(","),
            self.ticks,
            self.resolution_violations,
            self.confidence,
            self.baselines.all,
            self.baselines.filter,
        )
    }
}

fn report(members: &[Member]) -> Vec<u8> {
    let members: Vec<String> = members.iter().map(Member::json).collect();
    format!("[{}]", members.join(",")).into_bytes()
}

/// A row of `members` members, each pinned at [`CLEAN`].
fn row(members: usize, drift: DriftGate) -> AuditRow {
    const PINS: &[Baselines] = &[CLEAN; 5];
    AuditRow {
        members: &PINS[..members],
        drift,
    }
}

const BOTH_GATES: [DriftGate; 2] = [DriftGate::Absolute, DriftGate::UnderCoverageOnly];

fn passes(member: Member, drift: DriftGate) -> bool {
    check_report("planted", &report(&[member]), &row(1, drift))
}

#[test]
fn a_clean_report_passes_both_drift_gates() {
    for gate in BOTH_GATES {
        assert!(passes(Member::clean(), gate), "{gate:?}");
    }
}

#[test]
fn a_violation_rate_above_the_reports_own_bound_is_red() {
    for gate in BOTH_GATES {
        let at_bound = Member {
            rate: 0.2471,
            ..Member::clean()
        };
        assert!(passes(at_bound, gate), "{gate:?}");
        let above = Member {
            rate: 0.2472,
            ..Member::clean()
        };
        assert!(!passes(above, gate), "{gate:?}");
    }
}

#[test]
fn drift_beyond_the_tolerance_is_red_under_both_gates() {
    let past = AUDIT_DRIFT_TOLERANCE + 0.01;
    // Under-coverage: nominal 0.95 covered only 0.59 of the time.
    let under = || Member {
        drift: past,
        calibration: vec![(0.5, 0.6), (0.95, 0.95 - past)],
        ..Member::clean()
    };
    for gate in BOTH_GATES {
        assert!(!passes(under(), gate), "{gate:?}");
    }
    // Over-coverage of the same size: a miss for a standalone engine,
    // over-delivery for a member of a shared round.
    let over = || Member {
        drift: past,
        calibration: vec![(0.5, 0.5 + past), (0.95, 1.0)],
        ..Member::clean()
    };
    assert!(!passes(over(), DriftGate::Absolute));
    assert!(passes(over(), DriftGate::UnderCoverageOnly));
}

#[test]
fn a_delta_miss_share_above_one_minus_p_plus_slack_is_red() {
    // 600 ticks at p = 0.95: 0.05 + 3·√(0.95·0.05/600) = 0.0767, so 46
    // misses (0.0767) pass and 47 (0.0783) do not.
    let bound = resolution_bound(0.95, 600.0);
    assert!((bound - 0.0767).abs() < 1e-4, "{bound}");
    for gate in BOTH_GATES {
        let member = |misses: f64| Member {
            ticks: 600.0,
            resolution_violations: misses,
            ..Member::clean()
        };
        assert!(passes(member(46.0), gate), "{gate:?}");
        assert!(!passes(member(47.0), gate), "{gate:?}");
        // The promise is the member's own: the same misses pass at p = 0.9.
        let looser = Member {
            confidence: 0.9,
            ..member(47.0)
        };
        assert!(passes(looser, gate), "{gate:?}");
    }
}

#[test]
fn too_few_occasions_is_red() {
    for gate in BOTH_GATES {
        let enough = Member {
            occasions: 10.0,
            ..Member::clean()
        };
        assert!(passes(enough, gate), "{gate:?}");
        let few = Member {
            occasions: 9.0,
            ..Member::clean()
        };
        assert!(!passes(few, gate), "{gate:?}");
    }
}

#[test]
fn push_baselines_off_their_pins_by_one_message_are_red() {
    for gate in BOTH_GATES {
        assert!(passes(Member::clean(), gate), "{gate:?}");
        for (all, filter) in [(1, 0), (0, 1), (-1, 0), (0, -1)] {
            let planted = Member {
                baselines: Baselines {
                    all: CLEAN.all.saturating_add_signed(all),
                    filter: CLEAN.filter.saturating_add_signed(filter),
                },
                ..Member::clean()
            };
            assert!(!passes(planted, gate), "{all} {filter} {gate:?}");
        }
    }
    // Each member is held to its own pin, in report order.
    let members = [Member::clean(), Member::clean()];
    let swapped = AuditRow {
        members: &[
            CLEAN,
            Baselines {
                all: 240_000,
                ..CLEAN
            },
        ],
        drift: DriftGate::UnderCoverageOnly,
    };
    assert!(!check_report("planted", &report(&members), &swapped));
}

#[test]
fn the_wrong_member_count_is_red() {
    let five: Vec<Member> = (0..5).map(|_| Member::clean()).collect();
    let gate = DriftGate::UnderCoverageOnly;
    assert!(check_report("planted", &report(&five), &row(5, gate)));
    assert!(!check_report("planted", &report(&five[..4]), &row(5, gate)));
    assert!(!check_report("planted", &report(&five), &row(3, gate)));
    assert!(!check_report("planted", b"[]", &row(1, gate)));
    // Not an array, not JSON at all.
    let bare = Member::clean().json().into_bytes();
    assert!(!check_report("planted", &bare, &row(1, gate)));
    assert!(!check_report("planted", b"[{\"occasions\":", &row(1, gate)));
}

#[test]
fn one_bad_member_among_good_ones_is_red() {
    let mut members: Vec<Member> = (0..3).map(|_| Member::clean()).collect();
    members[1].rate = 0.5;
    let gate = DriftGate::UnderCoverageOnly;
    assert!(!check_report("planted", &report(&members), &row(3, gate)));
}

#[test]
fn a_report_missing_a_numeric_field_is_red() {
    let clean = Member::clean().json();
    for field in [
        "occasions",
        "violation_rate",
        "violation_bound",
        "calibration_drift",
        "ticks",
        "resolution_violations",
        "confidence",
        "all",
        "all_filter",
    ] {
        // Renaming the key removes the field; a string value is not numeric.
        let renamed = clean.replace(&format!("\"{field}\":"), "\"renamed\":");
        let quoted = clean.replace(
            &format!("\"{field}\":"),
            &format!("\"{field}\":\"n/a\",\"was\":"),
        );
        assert_ne!(renamed, clean);
        for planted in [renamed, quoted] {
            let report = format!("[{planted}]").into_bytes();
            for gate in BOTH_GATES {
                assert!(
                    !check_report("planted", &report, &row(1, gate)),
                    "{field} {gate:?}"
                );
            }
        }
    }
    // The shared-round gate reads the calibration table itself.
    let no_table = clean.replace("\"calibration\":", "\"renamed\":");
    let report = format!("[{no_table}]").into_bytes();
    assert!(check_report(
        "planted",
        &report,
        &row(1, DriftGate::Absolute)
    ));
    assert!(!check_report(
        "planted",
        &report,
        &row(1, DriftGate::UnderCoverageOnly)
    ));
}

/// Three real lines of the `temperature/mux` stream, one per required kind.
const MUX_STREAM: [&str; 3] = [
    r#"{"due":5,"fresh":91,"kind":"mux.round","lost":0,"members":5,"messages":3494,"panel":91,"peers":0,"report":91,"revisit":0,"size":0,"tick":0,"trace":1,"walk":3403}"#,
    r#"{"error":0.6165221309732232,"estimate":66.60137985870993,"exact":65.98485772773671,"kind":"audit.occasion","messages":699,"panel":91,"query":0,"round":1,"staleness":0,"tick":0,"trace":2,"violation":false}"#,
    r#"{"estimate":66.60137985870993,"exact":65.98485772773671,"fresh":91,"kind":"tick","messages":699,"query":0,"samples":91,"snapshot":true,"tick":0,"trace":2,"updated":1}"#,
];

fn stream(lines: &[&str]) -> Vec<u8> {
    let mut text = lines.join("\n");
    text.push('\n');
    text.into_bytes()
}

#[test]
fn a_stream_missing_a_required_kind_is_red() {
    assert!(validate_event_stream(
        &stream(&MUX_STREAM),
        MUX_SCHEMA_REQUIRED_KINDS
    ));
    for dropped in MUX_STREAM {
        let lines: Vec<&str> = MUX_STREAM.into_iter().filter(|&l| l != dropped).collect();
        assert!(
            !validate_event_stream(&stream(&lines), MUX_SCHEMA_REQUIRED_KINDS),
            "without {dropped}"
        );
    }
    assert!(!validate_event_stream(b"", MUX_SCHEMA_REQUIRED_KINDS));
}

#[test]
fn a_schema_invalid_line_is_red_even_when_every_kind_is_present() {
    let planted = [
        // A field the schema does not know (`mux.round` carried it once).
        MUX_STREAM[0].replace("\"panel\":91", "\"panel\":91,\"pulled\":0"),
        // A required field gone.
        MUX_STREAM[0].replace("\"panel\":91,", ""),
        // A field of the wrong type.
        MUX_STREAM[2].replace("\"snapshot\":true", "\"snapshot\":\"yes\""),
        // A PRED decision as the remainder heuristic wrote it; it carries
        // `drift`, `spread` and `noise_var` now.
        r#"{"bootstrapping":false,"delay":7,"derivative_bound":0.25,"kind":"scheduler.decision","scheduler":"PRED3","tick":9}"#.to_owned(),
        // Not JSON.
        "{\"kind\":\"tick\"".to_owned(),
    ];
    for bad in &planted {
        let mut lines = MUX_STREAM.to_vec();
        lines.push(bad);
        assert!(
            !validate_event_stream(&stream(&lines), MUX_SCHEMA_REQUIRED_KINDS),
            "{bad}"
        );
    }
}

/// The leg inventory, stated a second time: a gate that silently loses a
/// leg still exits 0, so striking a variant or a scenario has to be an
/// edit here as well as in the table.
#[test]
fn the_table_runs_the_stated_leg_inventory() {
    use Variant::{Replay, SnapshotCacheOff, Telemetry, Workers};
    let every = &[Replay, Workers(4), SnapshotCacheOff, Telemetry][..];
    let two = &[Replay, Workers(4)][..];
    assert_eq!(REPLAY_AND_WORKERS, two);
    let inventory: Vec<_> = SCENARIOS
        .iter()
        .map(|s| {
            let audit = s.audit.map(|a| (a.members.len(), a.drift));
            (s.label, s.determinism, audit, s.schema)
        })
        .collect();
    let shared = DriftGate::UnderCoverageOnly;
    assert_eq!(
        inventory,
        [
            (
                "temperature/rpt",
                every,
                Some((1, DriftGate::Absolute)),
                SCHEMA_REQUIRED_KINDS
            ),
            ("memory/indep", every, None, &[][..]),
            (
                "temperature/mux",
                &[][..],
                Some((5, shared)),
                MUX_SCHEMA_REQUIRED_KINDS
            ),
            ("temperature/mux-indep", &[][..], Some((5, shared)), &[][..]),
            ("temperature/sketch", two, Some((3, shared)), &[][..]),
        ]
    );
    // Each audit row runs `two`, one audited-stdout-extends-plain and one
    // report check (the extends leg ran on `temperature/rpt` alone once).
    let audit_rows = SCENARIOS.iter().filter(|s| s.audit.is_some()).count();
    assert_eq!(audit_rows * (two.len() + 2), 16);
}
