//! The three CLI-driving gates — `cargo xtask determinism`,
//! `telemetry-schema` and `audit` — as one scenario × variant table.
//!
//! | [`SCENARIOS`] | `determinism` ([`Mode::Plain`]) | `audit` ([`Mode::Audited`]) | `telemetry-schema` (`Audited` + `Telemetry`) |
//! |---|---|---|---|
//! | `temperature/rpt` | `Replay`, `Workers(4)`, `SnapshotCacheOff`, `Telemetry` | `Replay`, `Workers(4)`; 1 member, `Absolute` drift | [`SCHEMA_REQUIRED_KINDS`] |
//! | `memory/indep` | `Replay`, `Workers(4)`, `SnapshotCacheOff`, `Telemetry` | — | — |
//! | `temperature/mux` | — | `Replay`, `Workers(4)`; 5 members, `UnderCoverageOnly` | [`MUX_SCHEMA_REQUIRED_KINDS`] |
//! | `temperature/mux-indep` | — | `Replay`, `Workers(4)`; 5 members, `UnderCoverageOnly` | — |
//! | `temperature/sketch` | `Replay`, `Workers(4)` | `Replay`, `Workers(4)`; 3 members, `UnderCoverageOnly` | — |
//!
//! Every leg is one [`run`] of `digest-cli` and one predicate over its
//! [`Artefacts`]: [`same`] (stdout, event stream, audit report and Chrome
//! trace byte-identical to the scenario's reference run; a `Telemetry`
//! leg replays against itself), [`extends`] (an observer's stdout is the
//! plain stdout plus a suffix — `--telemetry` in `determinism`, `--audit`
//! on every row of `audit`), [`check_report`] (exact member count; per member:
//! occasions ≥ [`AUDIT_MIN_OCCASIONS`], `violation_rate ≤
//! violation_bound` — the `(1 − p) + 3σ` bound the report itself carries
//! —, the share of ticks off by more than `δ + ε` within the same kind of
//! bound ([`resolution_bound`]), drift ≤ [`AUDIT_DRIFT_TOLERANCE`], and the
//! push baselines' totals exactly the row's [`Baselines`]) and
//! [`validate_event_stream`]
//! (every JSONL line schema-valid, every required kind present). A new
//! leg is a table row; each predicate is driven red on a planted input by
//! `tests/gate_predicates.rs`, which never spawns the CLI.
//!
//! Scratch artefacts are named by gate and scenario,
//! `target/xtask-<gate>-<world>-<scenario>-{events.jsonl,report.json,trace.json}`;
//! every leg of a scenario rewrites them (they are removed before each
//! run, so a run that writes nothing is an error, never a stale match).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// How one leg's run differs from the scenario's reference run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Nothing differs: the same seed must give the same bytes.
    Replay,
    /// `--sampling-workers <n>`: the worker count is configuration, not
    /// behaviour, and must never leak into any artefact.
    Workers(usize),
    /// `DIGEST_SNAPSHOT_CACHE=0`: a cold snapshot rebuild at every occasion.
    /// The cache is a pure optimisation; the memory world churns the
    /// overlay every tick, so this also replays its patch / rebuild paths.
    SnapshotCacheOff,
    /// `--telemetry <file>`: the JSONL event stream is collected, must
    /// replay byte-for-byte, and must leave the plain trace alone.
    Telemetry,
}

/// Which observers a run switches on, hence which artefacts it leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The scenario's arguments as written: stdout only.
    Plain,
    /// `--audit --audit-json <report> --trace-out <trace>`: the auditor and
    /// span tracing on (so `audit.occasion` and `span` events reach the
    /// event stream), the report also appended to stdout.
    Audited,
}

/// How a scenario's calibration drift is gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftGate {
    /// `max_q |coverage(q) − q|` — the standalone-engine gate, where the
    /// CI half-width is sized exactly to the query's own contract.
    Absolute,
    /// `max_q max(q − coverage(q), 0)` — the shared-round gate. Members
    /// piggybacking on rounds sized by a *tighter* member receive more
    /// samples than their own CLT requirement, and sweep estimators land
    /// far inside their ε budgets, so coverage overshoots nominal
    /// (over-delivery, contract-safe by construction); only
    /// *under*-coverage would signal a mis-scaled half-width.
    UnderCoverageOnly,
}

/// What the push baselines would have spent on one member's data stream:
/// its report's `messages.all` / `messages.all_filter`. They depend on the
/// world's data stream and the member's expression, predicate and `ε`
/// alone — never on the engine — so any change to them is a ledger bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Baselines {
    /// Messages of `ALL` (every value change shipped).
    pub all: u64,
    /// Messages of `ALL+FILTER` (changes escaping the width-`2ε` filter).
    pub filter: u64,
}

/// A scenario's row in `cargo xtask audit`; its legs are [`REPLAY_AND_WORKERS`].
#[derive(Clone, Copy, Debug)]
pub struct AuditRow {
    /// Per member, in report order, the baselines' exact totals; the
    /// report must hold exactly this many per-query audits.
    pub members: &'static [Baselines],
    /// How calibration drift is read off each member's report.
    pub drift: DriftGate,
}

/// [`Baselines`] as a table row is written.
const fn spent(all: u64, filter: u64) -> Baselines {
    Baselines { all, filter }
}

/// What the five members of the `temperature/mux*` rows see: the predicate
/// query, then four generated AVG contracts (ε = 4, 2, 4, 2).
const MUX_BASELINES: &[Baselines] = &[
    spent(169_352, 87_029),
    spent(240_000, 89_969),
    spent(240_000, 155_972),
    spent(240_000, 89_969),
    spent(240_000, 155_972),
];

/// One fixed-seed `digest-cli` invocation and the legs each gate runs on it.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// `<world>/<what it exercises>`; names the legs and the scratch files.
    pub label: &'static str,
    /// The CLI arguments of the reference run.
    pub args: &'static [&'static str],
    /// Legs of `cargo xtask determinism` (empty: not in that gate).
    pub determinism: &'static [Variant],
    /// Row in `cargo xtask audit`, if any.
    pub audit: Option<AuditRow>,
    /// Event kinds `cargo xtask telemetry-schema` requires of the audited
    /// run's event stream (empty: not in that gate).
    pub schema: &'static [&'static str],
}

/// Pinned tolerance for the worst confidence-calibration miss. The
/// fixed-seed temperature scenario lands around 0.14 with 11 reporting
/// occasions; 0.35 leaves room for finite-sample noise while still
/// catching a mis-scaled CI half-width (which drifts toward 0.5 at the
/// tails).
pub const AUDIT_DRIFT_TOLERANCE: f64 = 0.35;

/// Minimum reporting occasions for the audit gate to be meaningful.
pub const AUDIT_MIN_OCCASIONS: f64 = 10.0;

/// Binomial standard errors of slack on the δ-miss share, as the report's
/// own `violation_bound` allows on the ε-violation rate.
pub const RESOLUTION_SLACK_SIGMAS: f64 = 3.0;

/// The δ-miss share a member may show over `ticks`: the promised `1 − p`
/// plus [`RESOLUTION_SLACK_SIGMAS`] binomial standard errors.
#[must_use]
pub fn resolution_bound(confidence: f64, ticks: f64) -> f64 {
    let q = 1.0 - confidence;
    q + RESOLUTION_SLACK_SIGMAS * (confidence * q / ticks.max(1.0)).sqrt()
}

/// Kinds a standalone audited, span-traced run must emit.
pub const SCHEMA_REQUIRED_KINDS: &[&str] = &[
    "audit.occasion",
    "sampling.batch",
    "sampling.snapshot",
    "sampling.walk",
    "scheduler.decision",
    "span",
    "tick",
];

/// Kinds a shared-round run must emit: the `mux.round` envelope plus the
/// member occasions parented to it.
pub const MUX_SCHEMA_REQUIRED_KINDS: &[&str] = &["audit.occasion", "mux.round", "tick"];

const EVERY_PLAIN_VARIANT: &[Variant] = &[
    Variant::Replay,
    Variant::Workers(4),
    Variant::SnapshotCacheOff,
    Variant::Telemetry,
];
/// The legs of the RNG-free sketch scenario, and of every audit scenario
/// (there compared on stdout, report and trace).
pub const REPLAY_AND_WORKERS: &[Variant] = &[Variant::Replay, Variant::Workers(4)];

/// The table. Between them the rows cover both worlds, both sampling
/// estimators, the PRED scheduler, the 5-member shared-round mux (four
/// generated AVG contracts plus a predicate query, each gated against its
/// *own* `1 − p` bound) with RPT rounds and with INDEP rounds, and the
/// RNG-free sweep estimators (DESIGN.md §17).
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        label: "temperature/rpt",
        args: &[
            "--world",
            "temperature",
            "--ticks",
            "60",
            "--seed",
            "20080402",
            "--scheduler",
            "pred3",
            "--estimator",
            "rpt",
            "SELECT AVG(temperature) FROM R WITH delta=8, epsilon=2, p=0.95",
        ],
        determinism: EVERY_PLAIN_VARIANT,
        audit: Some(AuditRow {
            members: &[spent(120_000, 78_394)],
            drift: DriftGate::Absolute,
        }),
        schema: SCHEMA_REQUIRED_KINDS,
    },
    Scenario {
        label: "memory/indep",
        args: &[
            "--world",
            "memory",
            "--ticks",
            "40",
            "--seed",
            "8675309",
            "--scheduler",
            "all",
            "--estimator",
            "indep",
            "SELECT AVG(memory) FROM R WITH delta=200, epsilon=50, p=0.9",
        ],
        determinism: EVERY_PLAIN_VARIANT,
        audit: None,
        schema: &[],
    },
    Scenario {
        label: "temperature/mux",
        args: &[
            "--world",
            "temperature",
            "--ticks",
            "120",
            "--seed",
            "20080402",
            "--scheduler",
            "pred3",
            "--estimator",
            "rpt",
            "--queries",
            "4",
            "SELECT AVG(temperature) FROM R WHERE temperature > 60 WITH delta=4, epsilon=3, p=0.9",
        ],
        determinism: &[],
        audit: Some(AuditRow {
            members: MUX_BASELINES,
            drift: DriftGate::UnderCoverageOnly,
        }),
        schema: MUX_SCHEMA_REQUIRED_KINDS,
    },
    // The same fleet on fresh CLT-sized panels every round: what every
    // shared round was before RPT rounds, stdout byte for byte.
    Scenario {
        label: "temperature/mux-indep",
        args: &[
            "--world",
            "temperature",
            "--ticks",
            "120",
            "--seed",
            "20080402",
            "--scheduler",
            "pred3",
            "--estimator",
            "indep",
            "--queries",
            "4",
            "SELECT AVG(temperature) FROM R WHERE temperature > 60 WITH delta=4, epsilon=3, p=0.9",
        ],
        determinism: &[],
        audit: Some(AuditRow {
            members: MUX_BASELINES,
            drift: DriftGate::UnderCoverageOnly,
        }),
        schema: &[],
    },
    Scenario {
        label: "temperature/sketch",
        args: &[
            "--world",
            "temperature",
            "--ticks",
            "120",
            "--seed",
            "20080402",
            "--queries",
            "p90+distinct+top4",
        ],
        determinism: REPLAY_AND_WORKERS,
        audit: Some(AuditRow {
            members: &[
                spent(240_000, 155_972),
                spent(240_000, 233_574),
                spent(240_000, 235_705),
            ],
            drift: DriftGate::UnderCoverageOnly,
        }),
        schema: &[],
    },
];

/// The gate being run and the workspace whose release `digest-cli` it
/// drives and whose `target/` takes its scratch files.
pub struct Cli<'a> {
    gate: &'a str,
    root: &'a Path,
}

/// What one CLI run leaves behind; an artefact the run's [`Mode`] /
/// [`Variant`] did not ask for is empty.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Artefacts {
    /// The timestamp-free per-tick trace (plus the report under `--audit`).
    pub stdout: Vec<u8>,
    /// The `--telemetry` JSONL event stream.
    pub events: Vec<u8>,
    /// The `--audit-json` guarantee report.
    pub report: Vec<u8>,
    /// The `--trace-out` Chrome trace.
    pub trace: Vec<u8>,
}

impl Artefacts {
    fn named(&self) -> [(&'static str, &[u8]); 4] {
        [
            ("stdout", &self.stdout),
            ("events", &self.events),
            ("report", &self.report),
            ("trace", &self.trace),
        ]
    }
}

/// Runs `scenario` once under `mode` and `variant` and collects what it wrote.
pub fn run(
    cli: &Cli,
    scenario: &Scenario,
    mode: Mode,
    variant: Variant,
) -> Result<Artefacts, String> {
    let mut command = Command::new(cli.root.join("target/release/digest-cli"));
    command.current_dir(cli.root);
    let label = scenario.label.replace('/', "-");
    let mut scratch = |wanted: bool, flag: &str, name: &str| {
        wanted.then(|| {
            let path = cli
                .root
                .join(format!("target/xtask-{}-{label}-{name}", cli.gate));
            // A leftover from an earlier leg must never stand in for this run's.
            let _ = std::fs::remove_file(&path);
            command.arg(flag).arg(&path);
            path
        })
    };
    let audited = mode == Mode::Audited;
    let events = scratch(variant == Variant::Telemetry, "--telemetry", "events.jsonl");
    let report = scratch(audited, "--audit-json", "report.json");
    let trace = scratch(audited, "--trace-out", "trace.json");
    if audited {
        command.arg("--audit");
    }
    match variant {
        Variant::Workers(n) => {
            command.args(["--sampling-workers", &n.to_string()]);
        }
        Variant::SnapshotCacheOff => {
            command.env("DIGEST_SNAPSHOT_CACHE", "0");
        }
        Variant::Replay | Variant::Telemetry => {}
    }
    let output = command
        .args(scenario.args)
        .output()
        .map_err(|e| format!("failed to run {command:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{command:?} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    // Empty is how `Artefacts` spells "not asked for"; a file that was
    // asked for and came back empty is a failed run, not a match.
    let read = |file: Option<PathBuf>| match file {
        Some(path) => match std::fs::read(&path) {
            Ok(bytes) if !bytes.is_empty() => Ok(bytes),
            Ok(_) => Err(format!("{} is empty", path.display())),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        },
        None => Ok(Vec::new()),
    };
    Ok(Artefacts {
        stdout: output.stdout,
        events: read(events)?,
        report: read(report)?,
        trace: read(trace)?,
    })
}

/// The first artefact on which `other` is not byte-identical to `base`:
/// its name and both sides.
pub fn differing<'a>(
    base: &'a Artefacts,
    other: &'a Artefacts,
) -> Option<(&'static str, &'a [u8], &'a [u8])> {
    base.named()
        .into_iter()
        .zip(other.named())
        .find(|((_, a), (_, b))| a != b)
        .map(|((name, a), (_, b))| (name, a, b))
}

/// Prints `leg`'s verdict — `identical (…)`, `DIVERGED (<artefact>)` with
/// the first differing line, or `ERROR` — and returns whether `other` ran
/// and matches `base` on every artefact.
pub fn same(leg: &str, base: &Artefacts, other: Result<Artefacts, String>) -> bool {
    let other = match other {
        Ok(other) => other,
        Err(e) => {
            println!("{leg} ... ERROR");
            eprintln!("  {e}");
            return false;
        }
    };
    if let Some((name, a, b)) = differing(base, &other) {
        println!("{leg} ... DIVERGED ({name})");
        report_divergence(a, b);
        return false;
    }
    let sizes: Vec<String> = base
        .named()
        .iter()
        .filter(|(_, bytes)| !bytes.is_empty())
        .map(|(name, bytes)| format!("{} {name} bytes", bytes.len()))
        .collect();
    println!("{leg} ... identical ({})", sizes.join(", "));
    true
}

/// An observer (`flag`) must leave the per-tick trace alone: its stdout
/// is the plain stdout plus whatever it appends.
pub fn extends(leg: &str, flag: &str, plain: &[u8], observed: &[u8]) -> bool {
    if observed.starts_with(plain) {
        println!("{leg} ... {flag} stdout extends the plain stdout");
        return true;
    }
    println!("{leg} ... PERTURBED");
    eprintln!("  {flag} changed the trace itself: its stdout does not extend the plain stdout");
    report_divergence(plain, observed);
    false
}

fn report_divergence(a: &[u8], b: &[u8]) {
    if a.len() != b.len() {
        eprintln!("  lengths differ: {} vs {} bytes", a.len(), b.len());
    }
    let text_a = String::from_utf8_lossy(a);
    let text_b = String::from_utf8_lossy(b);
    for (idx, (la, lb)) in text_a.lines().zip(text_b.lines()).enumerate() {
        if la != lb {
            eprintln!("  first divergence at line {}:", idx + 1);
            eprintln!("    reference: {la}");
            eprintln!("    this leg:  {lb}");
            return;
        }
    }
    eprintln!("  one is a strict prefix of the other");
}

/// Pulls a required numeric field out of one member's audit report.
fn report_number(report: &serde_json::Value, key: &str) -> Result<f64, String> {
    report
        .get(key)
        .and_then(serde_json::Value::as_f64)
        .ok_or_else(|| format!("audit report is missing numeric field `{key}`"))
}

/// The worst under-coverage across the report's calibration table:
/// `max_q max(nominal(q) − coverage(q), 0)`.
fn under_coverage_drift(report: &serde_json::Value) -> Result<f64, String> {
    let rows = report
        .get("calibration")
        .and_then(serde_json::Value::as_array)
        .ok_or("audit report has no calibration table")?;
    let mut worst = 0.0f64;
    for row in rows {
        worst = worst.max(report_number(row, "nominal")? - report_number(row, "coverage")?);
    }
    Ok(worst)
}

/// The baselines' totals a member's report carries.
fn report_baselines(report: &serde_json::Value) -> Result<Baselines, String> {
    let count = |key: &str| {
        report
            .get("messages")
            .and_then(|messages| messages.get(key))
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("audit report is missing message count `messages.{key}`"))
    };
    Ok(spent(count("all")?, count("all_filter")?))
}

/// Gates one member's report; prints its numbers and every miss.
fn check_member(
    label: &str,
    report: &serde_json::Value,
    gate: DriftGate,
    expected: Baselines,
) -> bool {
    let query = report
        .get("query")
        .and_then(serde_json::Value::as_str)
        .unwrap_or("?");
    let numbers = || -> Result<_, String> {
        let absolute = (
            "calibration drift",
            report_number(report, "calibration_drift")?,
        );
        let ticks = report_number(report, "ticks")?;
        let resolution_misses = report_number(report, "resolution_violations")?;
        let confidence = report_number(report, "confidence")?;
        Ok((
            report_number(report, "occasions")?,
            report_number(report, "violation_rate")?,
            report_number(report, "violation_bound")?,
            match gate {
                DriftGate::Absolute => absolute,
                DriftGate::UnderCoverageOnly => {
                    ("under-coverage drift", under_coverage_drift(report)?)
                }
            },
            (
                resolution_misses / ticks.max(1.0),
                resolution_bound(confidence, ticks),
            ),
            report_baselines(report)?,
        ))
    };
    let (occasions, rate, bound, (drift_label, drift), (miss_share, miss_bound), baselines) =
        match numbers() {
            Ok(numbers) => numbers,
            Err(e) => {
                eprintln!("xtask audit [{label}]: {query}: {e}");
                return false;
            }
        };
    println!(
        "xtask audit [{label}]: {query}: occasions {occasions}, violation rate {rate:.4} \
         (gate ≤ {bound:.4}), δ-miss share {miss_share:.4} (gate ≤ {miss_bound:.4}), \
         {drift_label} {drift:.4} (gate ≤ {AUDIT_DRIFT_TOLERANCE}), ALL / ALL+FILTER {} / {}",
        baselines.all, baselines.filter
    );
    let mut misses = Vec::new();
    if occasions < AUDIT_MIN_OCCASIONS {
        misses.push(format!(
            "only {occasions} reporting occasions (need ≥ {AUDIT_MIN_OCCASIONS} for the gate \
             to mean anything)"
        ));
    }
    if rate > bound {
        misses.push(format!(
            "ε-violation rate {rate:.4} exceeds the promised rate plus binomial slack ({bound:.4})"
        ));
    }
    if miss_share > miss_bound {
        misses.push(format!(
            "δ-miss share {miss_share:.4} (ticks off by more than δ + ε) exceeds 1 − p plus binomial \
             slack ({miss_bound:.4})"
        ));
    }
    if drift > AUDIT_DRIFT_TOLERANCE {
        misses.push(format!(
            "{drift_label} {drift:.4} exceeds the pinned tolerance {AUDIT_DRIFT_TOLERANCE}"
        ));
    }
    if baselines != expected {
        misses.push(format!(
            "push baselines ALL / ALL+FILTER spent {} / {} messages, pinned at {} / {}",
            baselines.all, baselines.filter, expected.all, expected.filter
        ));
    }
    for miss in &misses {
        eprintln!("xtask audit [{label}]: {query}: {miss}");
    }
    misses.is_empty()
}

/// Gates one `--audit-json` report: a JSON array of exactly one per-query
/// audit per entry of `row.members`, each with enough occasions, an
/// ε-violation rate within the bound the report carries, a δ-miss share
/// within [`resolution_bound`], calibration drift within tolerance, and
/// exactly its entry's [`Baselines`].
pub fn check_report(label: &str, report: &[u8], row: &AuditRow) -> bool {
    let parsed = match serde_json::from_str(&String::from_utf8_lossy(report)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("xtask audit [{label}]: report is not valid JSON: {e}");
            return false;
        }
    };
    let members = parsed.as_array().map_or(&[][..], Vec::as_slice);
    if members.len() != row.members.len() {
        eprintln!(
            "xtask audit [{label}]: report must audit {} queries, got {}",
            row.members.len(),
            members.len()
        );
        return false;
    }
    let mut ok = true;
    for (member, &expected) in members.iter().zip(row.members) {
        ok &= check_member(label, member, row.drift, expected);
    }
    ok
}

/// Validates one JSONL stream line by line against the event schema and
/// checks that every `required` kind appears; prints the per-kind counts.
pub fn validate_event_stream(events: &[u8], required: &[&str]) -> bool {
    let text = String::from_utf8_lossy(events);
    let mut kind_counts = std::collections::BTreeMap::<&str, usize>::new();
    let mut violations = 0usize;
    let mut lines = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        if let Err(message) = digest_telemetry::schema::validate_line(line) {
            violations += 1;
            if violations <= 10 {
                eprintln!("  line {}: {message}", idx + 1);
            }
            continue;
        }
        // validate_line guarantees a `"kind":"..."` member exists.
        let kind = line
            .split("\"kind\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("?");
        *kind_counts.entry(kind).or_default() += 1;
    }
    for (kind, count) in &kind_counts {
        println!("  {kind:<24} {count:>8} event(s)");
    }
    let missing: Vec<&str> = required
        .iter()
        .copied()
        .filter(|kind| !kind_counts.contains_key(kind))
        .collect();
    if violations > 0 {
        eprintln!("  {violations} invalid line(s) out of {lines}");
        false
    } else if !missing.is_empty() {
        eprintln!("  required event kind(s) missing: {}", missing.join(", "));
        false
    } else {
        println!("  {lines} line(s) schema-valid, all required kinds present");
        true
    }
}

fn leg(cli: &Cli, scenario: &Scenario, mode: Mode, variant: Variant) -> String {
    format!(
        "xtask {}: {} ({mode:?}, {variant:?})",
        cli.gate, scenario.label
    )
}

/// `cargo xtask determinism`: every variant of every scenario leaves the
/// reference run's bytes where they were.
pub fn determinism(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for scenario in SCENARIOS {
        if scenario.determinism.is_empty() {
            continue;
        }
        let plain = run(cli, scenario, Mode::Plain, Variant::Replay)?;
        for &variant in scenario.determinism {
            let leg = leg(cli, scenario, Mode::Plain, variant);
            let other = run(cli, scenario, Mode::Plain, variant);
            ok &= if variant == Variant::Telemetry {
                // The event stream has no plain counterpart: it must replay
                // against itself, and leave the plain trace alone.
                let observed = other?;
                same(&leg, &observed, run(cli, scenario, Mode::Plain, variant))
                    & extends(&leg, "--telemetry", &plain.stdout, &observed.stdout)
            } else {
                same(&leg, &plain, other)
            };
        }
    }
    Ok(ok)
}

/// `cargo xtask telemetry-schema`: each scenario's event stream, with the
/// auditor and span tracing on, is schema-valid and covers its required kinds.
pub fn telemetry_schema(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for scenario in SCENARIOS {
        if scenario.schema.is_empty() {
            continue;
        }
        let observed = run(cli, scenario, Mode::Audited, Variant::Telemetry)?;
        println!("{}", leg(cli, scenario, Mode::Audited, Variant::Telemetry));
        ok &= validate_event_stream(&observed.events, scenario.schema);
    }
    Ok(ok)
}

/// `cargo xtask audit`: audited runs replay byte-for-byte, observe without
/// perturbing, and every member's guarantee report is within its bounds.
pub fn audit(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    for scenario in SCENARIOS {
        let Some(row) = scenario.audit else { continue };
        let audited = run(cli, scenario, Mode::Audited, Variant::Replay)?;
        for &variant in REPLAY_AND_WORKERS {
            let other = run(cli, scenario, Mode::Audited, variant);
            ok &= same(&leg(cli, scenario, Mode::Audited, variant), &audited, other);
        }
        // Auditing must observe, never perturb.
        let leg = leg(cli, scenario, Mode::Plain, Variant::Replay);
        let plain = run(cli, scenario, Mode::Plain, Variant::Replay)?;
        ok &= extends(&leg, "--audit", &plain.stdout, &audited.stdout);
        ok &= check_report(scenario.label, &audited.report, &row);
    }
    Ok(ok)
}

/// Builds the release `digest-cli`, runs one gate's legs over it and prints
/// the verdict. A leg that fails — or a reference run that cannot be made,
/// which ends the gate there — is a non-zero exit.
pub fn gate(root: &Path, name: &str, legs: fn(&Cli) -> Result<bool, String>) -> ExitCode {
    println!("xtask {name}: building digest-cli (release)");
    let build = Command::new("cargo")
        .args(["build", "--release", "--bin", "digest-cli"])
        .current_dir(root)
        .status();
    let verdict = match build {
        Ok(status) if status.success() => legs(&Cli { gate: name, root }),
        Ok(status) => Err(format!("cargo build failed with {status}")),
        Err(e) => Err(format!("failed to spawn cargo: {e}")),
    };
    match verdict {
        Ok(true) => {
            println!("xtask {name}: OK");
            return ExitCode::SUCCESS;
        }
        Ok(false) => {}
        Err(e) => eprintln!("xtask {name}: {e}"),
    }
    eprintln!("xtask {name}: FAILED");
    ExitCode::FAILURE
}
