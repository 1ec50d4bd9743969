//! The repo's one benchmark. `README.md` beside this package says what the
//! workloads and metrics are and why; `BENCHMARK.json` at the repo root
//! names them for the driver.
//!
//! ```text
//! digest-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--quick] [--check-repeat]
//! ```
//!
//! * `--trace 0`: the untraced pass, end-to-end metrics.
//! * `--trace 1`: the traced pass and the layer probes, per-layer metrics.
//! * neither: both. Without `--workload` (alias `--only`) all five
//!   workloads run, round-robin so a slow phase of the host hits all alike.
//!
//! The last line of standard output is one JSON object per the driver's
//! contract when one workload is selected, else one object per workload.

mod alloc;
mod clock;
mod measure;
mod probes;
mod traced;
mod workloads;

use clock::Ruler;
use measure::Session;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Kind;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// End-to-end metrics whose two readings of the same code must agree
/// exactly; the rest are times and must agree within `TIME_REPEAT`.
const TIME_METRICS: [&str; 2] = ["setup_s", "run_s"];
const TIME_REPEAT: f64 = 0.20;

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::ALL.to_vec(),
        seed: workloads::DEFAULT_SEED,
        seconds: 12.0,
        trace: None,
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--only" => {
                let name = value()?;
                let kind = Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![kind];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// What one pass found on one workload.
pub struct Pass {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// The untraced pass: calls round-robin over the workloads until every
/// world of each has run once, one call has repeated, and the budget of
/// `seconds` per workload is spent. One `Pass` per workload, in order.
fn untraced_pass(args: &Args, ruler: &mut Ruler) -> Vec<Pass> {
    let mut sessions: Vec<Session> = args
        .workloads
        .iter()
        .map(|&kind| Session::new(kind, args.seed, args.quick))
        .collect();
    let budget = if args.quick {
        0.0
    } else {
        args.seconds * sessions.len() as f64
    };
    let start = Instant::now();
    loop {
        let spent = start.elapsed().as_secs_f64() >= budget;
        let mut stepped = false;
        for session in &mut sessions {
            if !(spent && session.covered()) {
                session.step(ruler);
                stepped = true;
            }
        }
        if !stepped {
            break;
        }
    }
    sessions.into_iter().map(Session::finish).collect()
}

/// The traced pass over each workload, then the layer probes (which do not
/// depend on the workload and are appended to every workload's metrics).
fn traced_pass(args: &Args, ruler: &mut Ruler) -> Vec<Pass> {
    let mut passes: Vec<Pass> = args
        .workloads
        .iter()
        .map(|&kind| traced::run(kind, args.seed, args.quick, ruler))
        .collect();
    let probes = probes::run(args.seed, args.quick, ruler);
    for pass in &mut passes {
        pass.metrics.extend(probes.iter().cloned());
    }
    passes
}

fn print_table(kind: Kind, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<12} {:<36} {:>20} {}",
            kind.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `--check-repeat`: a second untraced pass of the same code must agree
/// with the first, exactly on counts and within `TIME_REPEAT` on times.
fn check_repeat(args: &Args, first: &[Pass], second: &[Pass]) -> Vec<String> {
    let mut errors = Vec::new();
    for (w, &kind) in args.workloads.iter().enumerate() {
        for (a, b) in first[w].metrics.iter().zip(&second[w].metrics) {
            let spread = (b.value - a.value).abs() / a.value.abs().max(f64::MIN_POSITIVE);
            let allowed = if TIME_METRICS.contains(&a.name.as_str()) {
                TIME_REPEAT
            } else {
                0.0
            };
            println!(
                "# repeat {:<12} {:<20} {:>20} {:>20} spread {:.4} (allowed {allowed})",
                kind.name(),
                a.name,
                a.value,
                b.value,
                spread
            );
            if spread > allowed {
                errors.push(format!(
                    "{} {} did not repeat: {} then {}",
                    kind.name(),
                    a.name,
                    a.value,
                    b.value
                ));
            }
        }
    }
    errors
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("digest-benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    // One thread, default snapshot caching: the load shape is part of the
    // metric definitions, so the environment may not change it.
    std::env::remove_var(digest_sampling::WORKERS_ENV_VAR);
    std::env::remove_var(digest_sampling::SNAPSHOT_CACHE_ENV_VAR);

    let mut ruler = Ruler::new();
    let mut passes = Vec::new();
    let mut errors = Vec::new();
    if args.trace != Some(true) {
        let first = untraced_pass(&args, &mut ruler);
        if args.check_repeat {
            let second = untraced_pass(&args, &mut ruler);
            errors.extend(check_repeat(&args, &first, &second));
            errors.extend(second.into_iter().flat_map(|pass| pass.errors));
        }
        passes.push(first);
    }
    if args.trace != Some(false) {
        passes.push(traced_pass(&args, &mut ruler));
    }

    // Per workload, every pass's findings side by side.
    let mut results = Vec::new();
    for (w, &kind) in args.workloads.iter().enumerate() {
        let mut merged = Pass {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        for pass in passes.iter_mut().map(|per_workload| &mut per_workload[w]) {
            merged.metrics.append(&mut pass.metrics);
            merged.attempted += pass.attempted;
            merged.failed += pass.failed;
            errors.append(&mut pass.errors);
        }
        for m in &merged.metrics {
            if !m.value.is_finite() {
                errors.push(format!("{} {} is not finite", kind.name(), m.name));
            }
        }
        print_table(kind, &merged.metrics);
        results.push(merged);
    }
    for err in &errors {
        eprintln!("FAILED: {err}");
    }
    let correct = errors.is_empty();
    for r in &results {
        println!("{}", json_line(correct, r.attempted, r.failed, &r.metrics));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
