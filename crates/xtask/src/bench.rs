//! `cargo xtask bench-record`: a perf history for the repo's one
//! benchmark, one JSON line per recorded tree in `BENCH_HISTORY.jsonl`.
//!
//! A record runs `BENCHMARK.json`'s command with `--workload W --seed S
//! --trace 0` for every workload it names, at both [`SEEDS`], [`REPS`]
//! times over (the seed order alternating between repetitions), for one
//! tree or for several taking turns run by run (a parent and its change).
//! The line it appends per tree holds the tree's git sha (and whether it
//! had uncommitted changes), the host's thread count, and per workload
//! and seed:
//!
//! * every time metric (unit `s`) as the median, quartiles and IQR of
//!   its repetitions, and the repetitions themselves in turn order;
//! * every other end-to-end metric exactly — a count, byte total or
//!   ratio of a fixed-seed run repeats bit for bit, so a repetition that
//!   reads differently fails the record;
//! * the operations attempted (median) and failed (sum).
//!
//! The lines one record writes share a record id. [`diff`] judges one
//! line against another: an exact metric that moved the way
//! `BENCHMARK.json` calls worse (or moved at all, if it names no way) is
//! red. Two lines of one record took their turns side by side: a time
//! whose median moved by more than the base line's IQR is reported as
//! higher or lower (red when higher), and also reads as pairs — how many
//! of the newer line's turns came in lower than the base line's turn
//! beside them. Lines of two records also differ by the host's drift, so
//! a time between them is red only when it is worse by more than its
//! `bound` in `BENCHMARK.json`, and is reported as "different records".
//!
//! A line recorded from uncommitted changes (`dirty`) carries the sha
//! they sit on, and stands for the commit that lands them: [`find_line`]
//! takes it for a commit whose first parent is that sha and which has no
//! clean line of its own.

use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's tuning seed and its held-out seed.
pub const SEEDS: [u64; 2] = [20_080_402, 20_081_224];

/// Repetitions of every workload and seed in one record: ten, so a
/// record of a parent and its change taking turns is itself the
/// ten-pair reading a performance claim needs.
pub const REPS: usize = 10;

/// The history file, at the repository root.
pub const HISTORY_PATH: &str = "BENCH_HISTORY.jsonl";

/// What `BENCHMARK.json` declares: the command, the workloads and the
/// end-to-end metrics with their units, which way each metric that names
/// one improves, and the bound on how much worse each that names one may
/// read.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub workloads: Vec<String>,
    pub metrics: Vec<(String, String)>,
    pub better: Vec<(String, Better)>,
    /// `end_to_end[].bound`: the largest relative worsening allowed.
    pub bound: Vec<(String, f64)>,
}

/// Which way a metric improves: its `better` in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Spec {
    fn better(&self, metric: &str) -> Option<Better> {
        self.better
            .iter()
            .find(|(name, _)| name == metric)
            .map(|&(_, better)| better)
    }

    fn bound(&self, metric: &str) -> Option<f64> {
        self.bound
            .iter()
            .find(|(name, _)| name == metric)
            .map(|&(_, bound)| bound)
    }
}

/// Reads `BENCHMARK.json`.
///
/// # Errors
///
/// If the text is not JSON or lacks `command`, `workloads[].name` or
/// `end_to_end[].{name, unit}`, an `end_to_end[].better` is neither
/// `"lower"` nor `"higher"`, or an `end_to_end[].bound` is not a number.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let spec: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let strings = |key: &str, field: Option<&str>| -> Result<Vec<String>, String> {
        spec.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json: no `{key}` array"))?
            .iter()
            .map(|item| {
                field
                    .map_or(Some(item), |f| item.get(f))
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("BENCHMARK.json: a `{key}` entry is not a string"))
            })
            .collect()
    };
    let names = strings("end_to_end", Some("name"))?;
    let units = strings("end_to_end", Some("unit"))?;
    let (mut better, mut bound) = (Vec::new(), Vec::new());
    for (name, metric) in names
        .iter()
        .zip(spec["end_to_end"].as_array().into_iter().flatten())
    {
        if let Some(limit) = metric.get("bound") {
            let limit = limit.as_f64().ok_or(format!(
                "BENCHMARK.json: `{name}`'s `bound` is not a number"
            ))?;
            bound.push((name.clone(), limit));
        }
        let way = match metric.get("better").map(|b| b.as_str()) {
            None => continue,
            Some(Some("lower")) => Better::Lower,
            Some(Some("higher")) => Better::Higher,
            Some(_) => {
                return Err(format!(
                    "BENCHMARK.json: `{name}`'s `better` is not lower or higher"
                ))
            }
        };
        better.push((name.clone(), way));
    }
    Ok(Spec {
        command: strings("command", None)?,
        workloads: strings("workloads", Some("name"))?,
        metrics: names.into_iter().zip(units).collect(),
        better,
        bound,
    })
}

/// Reads and parses `tree`'s `BENCHMARK.json`.
///
/// # Errors
///
/// If the file cannot be read, or as for [`parse_spec`].
pub fn read_spec(tree: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(tree.join("BENCHMARK.json"))
        .map_err(|e| format!("read {}/BENCHMARK.json: {e}", tree.display()))?;
    parse_spec(&text)
}

/// What one benchmark run printed on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    /// Metric name → value.
    pub metrics: Map,
}

/// Parses a benchmark run's standard output: its last non-empty line is
/// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
///
/// # Errors
///
/// If that line is missing or not of that shape.
pub fn parse_reading(stdout: &str) -> Result<Reading, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|line| !line.trim().is_empty())
        .ok_or("the benchmark printed nothing")?;
    let line: Value = serde_json::from_str(last).map_err(|e| format!("last line: {e}"))?;
    let number = |key: &str| line.get(key).and_then(Value::as_f64);
    let mut metrics = Map::new();
    for (name, metric) in line
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("last line has no `metrics` object")?
        .iter()
    {
        let value = metric.get("value").cloned().unwrap_or(Value::Null);
        metrics.insert(name.clone(), value);
    }
    Ok(Reading {
        correct: line.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: number("attempted").ok_or("last line has no `attempted`")?,
        failed: number("failed").ok_or("last line has no `failed`")?,
        metrics,
    })
}

/// Whether a metric of this unit is a time, summarised by median and
/// IQR; every other metric is recorded exactly.
#[must_use]
pub fn is_time(unit: &str) -> bool {
    unit == "s"
}

/// The first quartile, median and third quartile of `values` (linear
/// interpolation between order statistics). `values` must not be empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// The history line's `cells`: `{workload: {seed: cell}}` over every
/// reading, where a cell is `{"exact": {metric: value}, "times": {metric:
/// {"median", "q1", "q3", "iqr", "turns"}}, "attempted": median, "failed":
/// sum}` and `turns` lists the time's readings in the order they were
/// taken.
///
/// # Errors
///
/// If a run was not correct, lacks a declared metric, or an exact metric
/// read differently in two repetitions.
pub fn summarise(spec: &Spec, readings: &[(String, u64, Reading)]) -> Result<Value, String> {
    let mut cells = Map::new();
    for workload in &spec.workloads {
        let mut seeds = Map::new();
        for seed in SEEDS {
            let runs: Vec<&Reading> = readings
                .iter()
                .filter(|(w, s, _)| w == workload && *s == seed)
                .map(|(_, _, reading)| reading)
                .collect();
            if runs.is_empty() {
                continue;
            }
            let at = format!("{workload} at seed {seed}");
            if runs.iter().any(|run| !run.correct) {
                return Err(format!("{at}: the benchmark's gate failed"));
            }
            let (mut exact, mut times) = (Map::new(), Map::new());
            for (name, unit) in &spec.metrics {
                let values = runs
                    .iter()
                    .map(|run| run.metrics.get(name).and_then(Value::as_f64))
                    .collect::<Option<Vec<f64>>>()
                    .ok_or(format!("{at}: no `{name}`"))?;
                if is_time(unit) {
                    let [q1, median, q3] = quartiles(&values);
                    let mut summary: Map =
                        [("median", median), ("q1", q1), ("q3", q3), ("iqr", q3 - q1)]
                            .into_iter()
                            .map(|(key, v)| (key.to_owned(), Value::from(v)))
                            .collect();
                    let turns = values.iter().copied().map(Value::from).collect();
                    summary.insert("turns".to_owned(), Value::Array(turns));
                    times.insert(name.clone(), Value::Object(summary));
                } else if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    return Err(format!("{at}: `{name}` did not repeat: {values:?}"));
                } else {
                    exact.insert(name.clone(), Value::from(values[0]));
                }
            }
            let attempted: Vec<f64> = runs.iter().map(|run| run.attempted).collect();
            let cell: Map = [
                ("exact", Value::Object(exact)),
                ("times", Value::Object(times)),
                ("attempted", Value::from(quartiles(&attempted)[1])),
                (
                    "failed",
                    Value::from(runs.iter().map(|run| run.failed).sum::<f64>()),
                ),
            ]
            .into_iter()
            .map(|(key, v)| (key.to_owned(), v))
            .collect();
            seeds.insert(seed.to_string(), Value::Object(cell));
        }
        cells.insert(workload.clone(), Value::Object(seeds));
    }
    Ok(Value::Object(cells))
}

/// Where a recorded line came from and how it was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// The tree's `HEAD` commit.
    pub sha: String,
    /// Whether the tree had uncommitted changes to tracked files (other
    /// than the history itself): the line then stands for the commit
    /// that lands them on top of `sha`.
    pub dirty: bool,
    /// The host's available parallelism.
    pub threads: usize,
}

/// One history line (no trailing newline), written by the record
/// `record` names.
#[must_use]
pub fn history_line(provenance: &Provenance, record: &str, cells: Value) -> String {
    let line: Map = [
        ("sha", Value::from(provenance.sha.as_str())),
        ("dirty", Value::from(provenance.dirty)),
        ("record", Value::from(record)),
        ("threads", Value::from(provenance.threads)),
        ("reps", Value::from(REPS)),
        ("cells", cells),
    ]
    .into_iter()
    .map(|(key, v)| (key.to_owned(), v))
    .collect();
    serde_json::to_string(&Value::Object(line)).unwrap_or_default()
}

/// The line of `history` that stands for the commit whose sha starts
/// with `sha`: the newest line recorded from that commit clean, or else
/// the newest dirty line recorded on `parent` (the commit's first
/// parent, in full), since those changes landed as the commit.
#[must_use]
pub fn find_line(history: &str, sha: &str, parent: Option<&str>) -> Option<Value> {
    let recorded = |dirty: bool, on: &dyn Fn(&str) -> bool| {
        lines(history).find(|line| {
            line.get("dirty").and_then(Value::as_bool) == Some(dirty)
                && line.get("sha").and_then(Value::as_str).is_some_and(on)
        })
    };
    recorded(false, &|s| s.starts_with(sha))
        .or_else(|| parent.and_then(|parent| recorded(true, &|s| s == parent)))
}

/// The newest line of `history`, clean or not.
#[must_use]
pub fn newest_line(history: &str) -> Option<Value> {
    lines(history).next()
}

fn lines(history: &str) -> impl Iterator<Item = Value> + '_ {
    history
        .lines()
        .rev()
        .filter_map(|line| serde_json::from_str(line).ok())
}

/// [`diff`]'s judgement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Findings that fail the diff.
    pub red: Vec<String>,
    /// Every comparison made, one line each.
    pub report: Vec<String>,
}

/// Judges `head` against `base`, cell by cell over `base`'s cells: an
/// exact metric that moved the way `spec` calls worse is red, and so is
/// one `spec` names no way for that moved at all, a failure count that
/// rose and a cell `head` lacks. An exact metric that moved the better
/// way is reported as such.
///
/// A time is judged by how the two lines were recorded. Lines of one
/// record took their turns side by side: a median more than `base`'s IQR
/// above `base`'s median is red, and the report also says in how many
/// turns `head` read lower than `base` (the pairing judges nothing).
/// Lines of different records are apart by the host's drift as well, which
/// a short IQR does not cover: such a time is red only when its median is
/// worse than `base`'s by more than the metric's `bound` in `spec` (by the
/// IQR, as within a record, for a metric with no bound), and its report
/// says "different records".
#[must_use]
pub fn diff(spec: &Spec, base: &Value, head: &Value) -> Verdict {
    let mut verdict = Verdict::default();
    let record = |line: &Value| {
        line.get("record")
            .and_then(Value::as_str)
            .map(str::to_owned)
    };
    let paired = record(base).is_some() && record(base) == record(head);
    let cells = |line: &Value| line.get("cells").and_then(Value::as_object).cloned();
    let (Some(base_cells), Some(head_cells)) = (cells(base), cells(head)) else {
        verdict.red.push("a line has no `cells`".to_owned());
        return verdict;
    };
    for (workload, seeds) in base_cells.iter() {
        for (seed, base_cell) in seeds.as_object().into_iter().flat_map(Map::iter) {
            let at = format!("{workload} {seed}");
            let Some(head_cell) = head_cells.get(workload).and_then(|s| s.get(seed)) else {
                verdict
                    .red
                    .push(format!("{at}: not recorded in the newer line"));
                continue;
            };
            let exact = |cell: &Value| cell.get("exact").and_then(Value::as_object).cloned();
            let mut judged: Vec<(String, Option<f64>, Option<f64>)> = exact(base_cell)
                .into_iter()
                .flat_map(|m| {
                    m.iter()
                        .map(|(k, v)| (k.clone(), v.as_f64()))
                        .collect::<Vec<_>>()
                })
                .map(|(name, was)| {
                    let now = head_cell
                        .get("exact")
                        .and_then(|m| m.get(&name))
                        .and_then(Value::as_f64);
                    (name, was, now)
                })
                .collect();
            judged.push((
                "failed".to_owned(),
                base_cell.get("failed").and_then(Value::as_f64),
                head_cell.get("failed").and_then(Value::as_f64),
            ));
            for (name, was, now) in judged {
                let better = if name == "failed" {
                    Some(Better::Lower)
                } else {
                    spec.better(&name)
                };
                let mut line = format!("{at} {name}: {} -> {}", show(was), show(now));
                match (was, now, better) {
                    (Some(a), Some(b), _) if a.to_bits() == b.to_bits() => {}
                    (Some(a), Some(b), Some(Better::Lower)) if b < a => line.push_str(": better"),
                    (Some(a), Some(b), Some(Better::Higher)) if b > a => line.push_str(": better"),
                    _ => verdict.red.push(line.clone()),
                }
                verdict.report.push(line);
            }
            for (name, base_time) in base_cell
                .get("times")
                .and_then(Value::as_object)
                .into_iter()
                .flat_map(Map::iter)
            {
                let field = |t: Option<&Value>, key: &str| {
                    t.and_then(|t| t.get(key)).and_then(Value::as_f64)
                };
                let head_time = head_cell.get("times").and_then(|t| t.get(name));
                let (Some(was), Some(iqr), Some(now)) = (
                    field(Some(base_time), "median"),
                    field(Some(base_time), "iqr"),
                    field(head_time, "median"),
                ) else {
                    verdict
                        .red
                        .push(format!("{at} {name}: no median to compare"));
                    continue;
                };
                let ratio = now / was;
                let (mut line, red) = match spec.bound(name).filter(|_| !paired) {
                    Some(bound) => {
                        let beyond = ratio > 1.0 + bound;
                        let call = if beyond {
                            "higher by more than the bound"
                        } else {
                            "within the bound"
                        };
                        let line = format!(
                            "{at} {name}: {was:.4} -> {now:.4} ({ratio:.3}x, bound {bound}): \
                             different records, {call}"
                        );
                        (line, beyond)
                    }
                    None => {
                        let call = if now > was + iqr {
                            "higher"
                        } else if now < was - iqr {
                            "lower"
                        } else {
                            "within the base IQR"
                        };
                        let line = format!(
                            "{at} {name}: {was:.4} -> {now:.4} ({ratio:.3}x, base IQR {iqr:.4}): {call}"
                        );
                        (line, call == "higher")
                    }
                };
                if paired {
                    if let Some((lower, turns)) = turns_lower(base_time, head_time) {
                        line.push_str(&format!("; {lower}/{turns} turns lower"));
                    }
                }
                if red {
                    verdict.red.push(line.clone());
                }
                verdict.report.push(line);
            }
        }
    }
    verdict
}

/// How many of `head`'s turns read lower than `base`'s turn in the same
/// place, out of how many; `None` unless both list their turns, equally
/// many.
fn turns_lower(base: &Value, head: Option<&Value>) -> Option<(usize, usize)> {
    let turns = |time: &Value| -> Option<Vec<f64>> {
        time.get("turns")?
            .as_array()?
            .iter()
            .map(Value::as_f64)
            .collect()
    };
    let (base, head) = (turns(base)?, turns(head?)?);
    (base.len() == head.len()).then(|| {
        let lower = base.iter().zip(&head).filter(|(b, h)| h < b).count();
        (lower, base.len())
    })
}

fn show(value: Option<f64>) -> String {
    value.map_or_else(|| "missing".to_owned(), |v| v.to_string())
}

/// Records `trees` (checkouts of this repository, each built in place)
/// side by side and returns one history line per tree, in order: each
/// tree's benchmark command from its own `BENCHMARK.json`, at its own run
/// length, [`REPS`] times over every workload at both seeds. The trees take
/// turns run by run, in an order that reverses every repetition, so a
/// slow phase of the host falls on all of them alike.
/// `benchmark/Cargo.lock` is put back byte for byte after every run,
/// since a build may rewrite it.
///
/// # Errors
///
/// If a spec cannot be read, a run cannot start or exits non-zero, or
/// [`summarise`] rejects the readings.
pub fn record(trees: &[PathBuf]) -> Result<Vec<String>, String> {
    let specs = trees
        .iter()
        .map(|tree| read_spec(tree))
        .collect::<Result<Vec<Spec>, String>>()?;
    let workloads = specs.first().map_or(&[][..], |spec| &spec.workloads[..]);
    let record = record_id();
    let mut readings = vec![Vec::new(); trees.len()];
    for rep in 0..REPS {
        let mut order: Vec<usize> = (0..trees.len()).collect();
        let mut seeds = SEEDS;
        if rep % 2 == 1 {
            order.reverse();
            seeds.reverse();
        }
        for seed in seeds {
            for workload in workloads {
                for &t in &order {
                    let reading = run_once(&trees[t], &specs[t], workload, seed)?;
                    readings[t].push((workload.clone(), seed, reading));
                }
                eprintln!("bench-record: rep {} {workload} {seed} done", rep + 1);
            }
        }
    }
    trees
        .iter()
        .zip(&specs)
        .zip(&readings)
        .map(|((tree, spec), readings)| {
            Ok(history_line(
                &provenance(tree)?,
                &record,
                summarise(spec, readings)?,
            ))
        })
        .collect()
}

/// An id for the lines one record writes: the second it started and the
/// recording process.
fn record_id() -> String {
    let started = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |since| since.as_secs());
    format!("{started}-{}", std::process::id())
}

/// One run of `tree`'s benchmark on one workload and seed, untraced.
fn run_once(tree: &Path, spec: &Spec, workload: &str, seed: u64) -> Result<Reading, String> {
    let (program, args) = spec
        .command
        .split_first()
        .ok_or("BENCHMARK.json: empty `command`")?;
    let lock_path = tree.join("benchmark/Cargo.lock");
    let lock = std::fs::read(&lock_path).ok();
    let output = Command::new(program)
        .args(args)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .current_dir(tree)
        .output()
        .map_err(|e| format!("run {program}: {e}"));
    if let Some(lock) = &lock {
        if std::fs::read(&lock_path).ok().as_ref() != Some(lock) {
            std::fs::write(&lock_path, lock).map_err(|e| format!("restore lock: {e}"))?;
        }
    }
    let output = output?;
    if !output.status.success() {
        return Err(format!(
            "{} {workload} at seed {seed} exited with {}: {}",
            tree.display(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    parse_reading(&String::from_utf8_lossy(&output.stdout))
}

/// `tree`'s sha, whether it has uncommitted changes, and the host.
///
/// # Errors
///
/// If `git` cannot read `tree`'s `HEAD` or status (say, `tree` is not a
/// git checkout): a line without its sha could not be found again.
pub fn provenance(tree: &Path) -> Result<Provenance, String> {
    let exclude = format!(":!{HISTORY_PATH}");
    let changes = git(
        tree,
        &[
            "status",
            "--porcelain",
            "--untracked-files=no",
            "--",
            ".",
            &exclude,
        ],
    )?;
    let sha = git(tree, &["rev-parse", "--verify", "HEAD"])?;
    if sha.is_empty() {
        return Err(format!("{}: git names no HEAD commit", tree.display()));
    }
    Ok(Provenance {
        sha,
        dirty: !changes.is_empty(),
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// The full sha of the commit `rev` names in the checkout at `root`
/// (`HEAD~1`, `<sha>^`, an abbreviated sha), if git knows it.
#[must_use]
pub fn rev_parse(root: &Path, rev: &str) -> Option<String> {
    git(
        root,
        &[
            "rev-parse",
            "--verify",
            "--quiet",
            &format!("{rev}^{{commit}}"),
        ],
    )
    .ok()
    .filter(|sha| !sha.is_empty())
}

/// `git args` run in `dir`: its trimmed standard output.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let output = Command::new("git")
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "git {} in {}: {}",
            args.join(" "),
            dir.display(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec {
            command: vec!["true".to_owned()],
            workloads: vec!["solo".to_owned()],
            metrics: vec![
                ("run_s".to_owned(), "s".to_owned()),
                ("messages".to_owned(), "count".to_owned()),
            ],
            better: vec![
                ("run_s".to_owned(), Better::Lower),
                ("messages".to_owned(), Better::Lower),
            ],
            bound: vec![("run_s".to_owned(), 0.25), ("messages".to_owned(), 0.25)],
        }
    }

    fn reading(run_s: f64, messages: f64) -> Reading {
        parse_reading(&format!(
            "solo run_s {run_s} s\n{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {{\"run_s\": {{\"value\": {run_s}, \"unit\": \"s\"}}, \"messages\": {{\"value\": {messages}, \"unit\": \"count\"}}}}}}\n"
        ))
        .expect("a well-formed reading")
    }

    fn line(times: &[f64], messages: f64) -> Value {
        line_of("r1", times, messages)
    }

    fn line_of(record: &str, times: &[f64], messages: f64) -> Value {
        let readings: Vec<_> = SEEDS
            .iter()
            .flat_map(|&seed| {
                times
                    .iter()
                    .map(move |&t| ("solo".to_owned(), seed, reading(t, messages)))
            })
            .collect();
        let cells = summarise(&spec(), &readings).expect("repeating counts");
        let provenance = Provenance {
            sha: "abc".to_owned(),
            dirty: false,
            threads: 2,
        };
        serde_json::from_str(&history_line(&provenance, record, cells)).expect("a line parses back")
    }

    #[test]
    fn the_same_counts_and_times_inside_the_iqr_are_green() {
        let verdict = diff(
            &spec(),
            &line(&[1.0, 1.1, 1.2, 1.3], 500.0),
            &line(&[1.1, 1.2, 1.3, 1.4], 500.0),
        );
        assert!(verdict.red.is_empty(), "{verdict:?}");
        assert!(verdict
            .report
            .iter()
            .any(|l| l.contains("within the base IQR")));
    }

    /// A planted count change is red, and so is a time above the base
    /// median by more than its IQR; a time below it is not.
    #[test]
    fn a_planted_count_change_is_red() {
        let base = line(&[1.0, 1.1, 1.2, 1.3], 500.0);
        let verdict = diff(&spec(), &base, &line(&[1.0, 1.1, 1.2, 1.3], 501.0));
        assert_eq!(verdict.red.len(), SEEDS.len(), "{verdict:?}");
        assert!(verdict
            .red
            .iter()
            .all(|l| l.contains("messages: 500 -> 501")));

        let slower = line(&[2.0, 2.1, 2.2, 2.3], 500.0);
        assert_eq!(diff(&spec(), &base, &slower).red.len(), SEEDS.len());
        assert!(diff(&spec(), &slower, &base).red.is_empty());
    }

    /// A count that moved the way the spec calls better is reported, not
    /// red; the other way, or with no way named, it is red.
    #[test]
    fn a_count_that_moved_the_better_way_is_not_red() {
        let base = line(&[1.0, 1.1, 1.2, 1.3], 500.0);
        let fewer = line(&[1.0, 1.1, 1.2, 1.3], 499.0);
        let verdict = diff(&spec(), &base, &fewer);
        assert!(verdict.red.is_empty(), "{verdict:?}");
        let moved: Vec<&String> = verdict
            .report
            .iter()
            .filter(|l| l.contains("messages: 500 -> 499: better"))
            .collect();
        assert_eq!(moved.len(), SEEDS.len(), "{verdict:?}");

        let mut higher_is_better = spec();
        higher_is_better.better[1].1 = Better::Higher;
        assert_eq!(
            diff(&higher_is_better, &base, &fewer).red.len(),
            SEEDS.len()
        );
        let mut unnamed = spec();
        unnamed.better.truncate(1);
        assert_eq!(diff(&unnamed, &base, &fewer).red.len(), SEEDS.len());
        assert!(diff(&unnamed, &base, &base).red.is_empty());
    }

    /// Two lines of one record read as pairs, turn by turn, beside the
    /// IQR call they leave as it was; lines of two records do not.
    #[test]
    fn lines_of_one_record_read_as_paired_turns() {
        let base = line_of("r1", &[1.0, 1.1, 1.2, 1.3], 500.0);
        let head = line_of("r1", &[0.9, 1.2, 1.1, 1.2], 500.0);
        let turns =
            base["cells"]["solo"][SEEDS[0].to_string().as_str()]["times"]["run_s"]["turns"].clone();
        assert_eq!(turns, Value::from(vec![1.0, 1.1, 1.2, 1.3]));
        let verdict = diff(&spec(), &base, &head);
        assert!(verdict.red.is_empty(), "{verdict:?}");
        let times: Vec<&String> = verdict
            .report
            .iter()
            .filter(|l| l.contains("run_s"))
            .collect();
        assert_eq!(times.len(), SEEDS.len());
        assert!(
            times
                .iter()
                .all(|l| l.ends_with("within the base IQR; 3/4 turns lower")),
            "{times:?}"
        );

        let other = line_of("r2", &[0.9, 1.2, 1.1, 1.2], 500.0);
        let unpaired = diff(&spec(), &base, &other);
        assert!(unpaired.red.is_empty(), "{unpaired:?}");
        assert!(unpaired.report.iter().all(|l| !l.contains("turns lower")));
        assert!(unpaired
            .report
            .iter()
            .filter(|l| l.contains("run_s"))
            .all(|l| l.ends_with("different records, within the bound")));

        let slower = line_of("r1", &[2.0, 2.1, 0.5, 2.3], 500.0);
        let verdict = diff(&spec(), &base, &slower);
        assert_eq!(verdict.red.len(), SEEDS.len());
        assert!(verdict
            .red
            .iter()
            .all(|l| l.ends_with("higher; 1/4 turns lower")));
    }

    /// Between records a time is red only beyond its bound — +30 % is,
    /// +5 % is not — while within one record a median above the base IQR
    /// stays red.
    #[test]
    fn across_records_a_time_is_judged_by_its_bound() {
        let base = line_of("r1", &[1.0, 1.0, 1.0, 1.0], 500.0);
        let worse = diff(&spec(), &base, &line_of("r2", &[1.3, 1.3, 1.3, 1.3], 500.0));
        assert_eq!(worse.red.len(), SEEDS.len(), "{worse:?}");
        assert!(worse.red.iter().all(|l| l
            .ends_with("(1.300x, bound 0.25): different records, higher by more than the bound")));
        let drift = line_of("r2", &[1.05, 1.05, 1.05, 1.05], 500.0);
        assert!(diff(&spec(), &base, &drift).red.is_empty());

        let base = line_of("r1", &[1.0, 1.1, 1.2, 1.3], 500.0);
        let above_iqr = [1.35, 1.35, 1.35, 1.35];
        let paired = diff(&spec(), &base, &line_of("r1", &above_iqr, 500.0));
        assert_eq!(paired.red.len(), SEEDS.len(), "{paired:?}");
        assert!(paired
            .red
            .iter()
            .all(|l| l.contains("higher; 0/4 turns lower")));
        let apart = diff(&spec(), &base, &line_of("r2", &above_iqr, 500.0));
        assert!(apart.red.is_empty(), "{apart:?}");
    }

    #[test]
    fn a_count_that_does_not_repeat_fails_the_record() {
        let readings = vec![
            ("solo".to_owned(), SEEDS[0], reading(1.0, 500.0)),
            ("solo".to_owned(), SEEDS[0], reading(1.0, 499.0)),
        ];
        let err = summarise(&spec(), &readings).expect_err("counts differ");
        assert!(err.contains("did not repeat"), "{err}");
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    /// A commit's own clean line wins; a commit without one is found by
    /// the dirty line recorded on its first parent, the changes it landed.
    #[test]
    fn lines_are_found_by_sha_prefix_newest_clean_first() {
        let history = "{\"sha\": \"aaa1\", \"dirty\": false, \"n\": 1}\n\
                       {\"sha\": \"bbb2\", \"dirty\": false, \"n\": 2}\n\
                       {\"sha\": \"aaa1\", \"dirty\": false, \"n\": 3}\n\
                       {\"sha\": \"aaa1\", \"dirty\": true, \"n\": 4}\n";
        let n = |line: Option<Value>| line.and_then(|l| l.get("n").and_then(Value::as_f64));
        assert_eq!(n(find_line(history, "aaa", None)), Some(3.0));
        assert_eq!(n(find_line(history, "aaa", Some("bbb2"))), Some(3.0));
        assert_eq!(n(find_line(history, "bbb2", None)), Some(2.0));
        assert_eq!(n(find_line(history, "ccc", None)), None);
        assert_eq!(n(find_line(history, "ccc", Some("aaa1"))), Some(4.0));
        assert_eq!(n(find_line(history, "ccc", Some("aaa"))), None);
        assert_eq!(n(find_line(history, "ccc", Some("bbb2"))), None);
        assert_eq!(n(newest_line(history)), Some(4.0));
    }

    /// Outside a git checkout there is no sha to record, so there is no
    /// line: a clean line with an empty sha would match every `--diff`.
    #[test]
    fn a_tree_outside_git_has_no_provenance() {
        let dir = std::env::temp_dir().join(format!("xtask-provenance-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        let result = provenance(&dir);
        std::fs::remove_dir_all(&dir).expect("scratch directory removed");
        let err = result.expect_err("no git checkout");
        assert!(err.contains("git"), "{err}");
    }

    #[test]
    fn the_repository_spec_parses() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = parse_spec(&text).expect("a well-formed spec");
        assert_eq!(spec.command[0], "cargo");
        assert_eq!(spec.workloads.len(), 5);
        assert!(spec
            .metrics
            .iter()
            .any(|(name, unit)| name == "run_s" && is_time(unit)));
        assert!(spec
            .metrics
            .iter()
            .any(|(name, unit)| name == "messages" && !is_time(unit)));
        assert_eq!(spec.better("alloc_bytes"), Some(Better::Lower));
        assert_eq!(spec.better("eps_coverage_ratio"), Some(Better::Higher));
        assert!(spec
            .metrics
            .iter()
            .all(|(name, _)| spec.better(name).is_some()));
        assert_eq!(spec.bound("run_s"), Some(0.25));
        assert_eq!(spec.bound("delta_ok_share"), Some(0.01));
    }
}
