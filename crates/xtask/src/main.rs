//! `cargo xtask` — workspace automation for Digest.
//!
//! Subcommands:
//!
//! * `lint` — run the custom static-analysis pass (rules R1–R7; see the
//!   library crate docs). Exits non-zero on any finding. `--json` emits a
//!   machine-readable findings document on stdout; `--github` emits
//!   GitHub Actions `::error` workflow annotations alongside the human
//!   output so findings surface inline on pull-request diffs.
//! * `determinism`, `telemetry-schema`, `audit` — the three gates that
//!   drive the built `digest-cli` over fixed-seed scenarios: byte-identity
//!   of stdout / event stream / audit report / Chrome trace across
//!   replays, worker counts, the snapshot cache and `--telemetry`; schema
//!   validity of the event stream; and each query's ε-violation rate and
//!   calibration drift from the guarantee report. Scenarios, variants and
//!   predicates are one table in the library's `gate` module. Each exits
//!   non-zero when any leg fails.
//!
//! * `bench-record` — run the benchmark over every workload at both seeds
//!   and append one line to `BENCH_HISTORY.jsonl` (see the library's
//!   `bench` module); with `--diff <rev>`, judge the newest line against
//!   commit `<rev>`'s instead.
//!
//! All but `bench-record` are wired into CI; `cargo xtask lint` is also
//! the local pre-commit gate.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use std::io::Write as _;
use xtask::{bench, gate};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\
         \n\
         commands:\n\
           lint              run the R1–R7 static-analysis pass over the workspace\n\
                             (--json: machine-readable output; --github: emit\n\
                             GitHub Actions ::error annotations)\n\
           determinism       replay fixed-seed scenarios (workers=4, snapshot cache\n\
                             off, --telemetry) and byte-diff traces and event streams\n\
           telemetry-schema  validate --telemetry JSONL streams against the schema\n\
           audit             replay fixed-seed runs under --audit/--trace-out and\n\
                             gate on the guarantee report (violation rate within\n\
                             binomial slack, calibration drift within tolerance)\n\
           bench-record      run the benchmark ten times over (--tree DIR,\n\
                             repeatable, the trees taking turns; default this\n\
                             checkout) and append a line per tree to\n\
                             BENCH_HISTORY.jsonl; --diff REV judges the newest line\n\
                             against commit REV's (its clean one, or the dirty one\n\
                             on its parent): counts exactly; times by the base IQR\n\
                             within one record, by BENCHMARK.json's bound between\n\
                             records\n\
           help              show this message"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage();
    };
    let root = workspace_root();
    match command.as_str() {
        "lint" => {
            let mut json = false;
            let mut github = false;
            for flag in args {
                match flag.as_str() {
                    "--json" => json = true,
                    "--github" => github = true,
                    other => {
                        eprintln!("unknown lint flag `{other}`");
                        return usage();
                    }
                }
            }
            run_lint(&root, json, github)
        }
        "determinism" => gate::gate(&root, "determinism", gate::determinism),
        "telemetry-schema" => gate::gate(&root, "telemetry-schema", gate::telemetry_schema),
        "audit" => gate::gate(&root, "audit", gate::audit),
        "bench-record" => bench_record(&root, &args.collect::<Vec<_>>()),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown xtask command `{other}`");
            usage()
        }
    }
}

/// `cargo xtask bench-record [--tree DIR]...` or
/// `cargo xtask bench-record --diff REV`.
fn bench_record(root: &Path, args: &[String]) -> ExitCode {
    let (mut trees, mut base) = (Vec::new(), None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--tree" => trees.push(PathBuf::from(value())),
            "--diff" => base = Some(value()),
            other => {
                eprintln!("unknown bench-record flag `{other}`");
                return usage();
            }
        }
    }
    if trees.is_empty() {
        trees.push(root.to_path_buf());
    }
    let history_path = root.join(bench::HISTORY_PATH);
    let history = std::fs::read_to_string(&history_path).unwrap_or_default();
    if let Some(base) = base {
        let sha = bench::rev_parse(root, &base).unwrap_or_else(|| base.clone());
        let parent = bench::rev_parse(root, &format!("{sha}^"));
        let (Some(base_line), Some(head_line)) = (
            bench::find_line(&history, &sha, parent.as_deref()),
            bench::newest_line(&history),
        ) else {
            eprintln!("bench-record: no history line for `{base}`");
            return ExitCode::FAILURE;
        };
        let spec = match bench::read_spec(root) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("bench-record: {e}");
                return ExitCode::FAILURE;
            }
        };
        let verdict = bench::diff(&spec, &base_line, &head_line);
        for line in &verdict.report {
            println!("{line}");
        }
        for line in &verdict.red {
            eprintln!("RED: {line}");
        }
        return if verdict.red.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match bench::record(&trees) {
        Ok(lines) => {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&history_path)
                .and_then(|mut file| lines.iter().try_for_each(|line| writeln!(file, "{line}")));
            if let Err(e) = appended {
                eprintln!("bench-record: write {}: {e}", history_path.display());
                return ExitCode::FAILURE;
            }
            for line in &lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("bench-record: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

fn run_lint(root: &Path, json: bool, github: bool) -> ExitCode {
    if !json {
        println!("xtask lint: scanning workspace at {}", root.display());
    }
    match xtask::lint_workspace(root) {
        Ok(findings) => {
            if json {
                println!("{}", findings_json(&findings));
            } else if findings.is_empty() {
                println!(
                    "xtask lint: OK — rules {} all clean",
                    xtask::RULES
                        .iter()
                        .filter(|info| info.code != "ALLOW")
                        .map(|info| format!("{} ({})", info.code, info.name))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            } else {
                for finding in &findings {
                    eprintln!("{finding}");
                }
                eprintln!("xtask lint: {} violation(s)", findings.len());
            }
            if github {
                for finding in &findings {
                    println!("{}", github_annotation(finding));
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("xtask lint: {message}");
            if github {
                println!(
                    "::error title=xtask lint::{}",
                    github_escape_message(&message)
                );
            }
            ExitCode::FAILURE
        }
    }
}

/// Renders findings as a stable machine-readable JSON document (used by
/// CI tooling; hand-rolled so the gate stays std-only).
fn findings_json(findings: &[xtask::Finding]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (idx, finding) in findings.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let info = finding.rule.info();
        out.push_str(&format!(
            "{{\"rule\":{},\"name\":{},\"file\":{},\"line\":{},\"message\":{},\
             \"remedy\":{},\"allow_token\":{}}}",
            json_string(info.code),
            json_string(info.name),
            json_string(&finding.file),
            finding.line,
            json_string(&finding.message),
            json_string(finding.remedy.label()),
            finding
                .allow_token
                .map_or_else(|| "null".to_string(), json_string),
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One GitHub Actions workflow-command annotation per finding; the runner
/// attaches these inline to the pull-request diff.
fn github_annotation(finding: &xtask::Finding) -> String {
    let info = finding.rule.info();
    format!(
        "::error file={},line={},title={}({})::{}",
        github_escape_property(&finding.file),
        finding.line.max(1),
        info.code,
        info.name,
        github_escape_message(&finding.message),
    )
}

/// Workflow-command data escaping (`%`, CR, LF).
fn github_escape_message(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Workflow-command property escaping (data escapes plus `:` and `,`).
fn github_escape_property(s: &str) -> String {
    github_escape_message(s)
        .replace(':', "%3A")
        .replace(',', "%2C")
}
