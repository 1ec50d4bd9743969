//! The untraced pass: end-to-end metrics of one workload.
//!
//! A run with `--seed S` generates `Kind::worlds()` worlds from S (world
//! `j` uses sub-seed `S·1000 + j`) and calls the driver once on each. The
//! count metrics are totals over exactly those calls, so they depend on the
//! seed alone, never on how fast the host is. Calls then repeat round-robin
//! over the same worlds until the time budget is spent; every repeat adds a
//! timing sample and must reproduce the first call's counts and record
//! stream bit for bit.

use crate::clock::{self, Ruler, Timed};
use crate::workloads::{Kind, Prepared, System};
use crate::{alloc, Metric, Pass};
use digest_sim::RunReport;

/// Everything one driver call produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub messages: u64,
    pub samples: u64,
    pub snapshots: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub heap_peak_bytes: u64,
    pub events: usize,
    /// Per member query: occasions, ε-violations among them, ticks,
    /// δ-violations among them.
    pub members: Vec<MemberCounts>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every field of every trace record of every member.
    pub fingerprint: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemberCounts {
    pub occasions: u64,
    pub eps_violations: u64,
    pub ticks: u64,
    pub delta_violations: u64,
}

/// One driver call, timed, with what it returned.
pub struct Call {
    pub setup: Timed,
    pub run: Timed,
    pub counts: Counts,
    pub reports: Vec<RunReport>,
    /// Each member's `p`, in report order.
    pub confidences: Vec<f64>,
    /// Coalesced sampling rounds the mux executed (0 for a solo engine).
    pub mux_rounds: u64,
}

/// Sets `kind` up on `sub_seed` and makes the one driver call, timing both.
/// `drive` is the call under test: `Prepared::drive`, or the traced loop.
pub fn call(
    kind: Kind,
    sub_seed: u64,
    ticks: u64,
    ruler: &mut Ruler,
    drive: impl FnOnce(&mut Prepared) -> digest_core::Result<Vec<RunReport>>,
) -> Call {
    let baseline = alloc::reset_peak();
    let (setup, mut prepared) = ruler.time(|| kind.setup(sub_seed, ticks));
    let confidences = prepared.confidences();
    let members = confidences.len() as u64;
    // Read the allocator inside the timed closure: the kernel that closes
    // the interval allocates too, and that is not the driver's doing.
    let (run, (result, (allocs, alloc_bytes), peak)) = ruler.time(|| {
        let mark = alloc::mark();
        let result = drive(&mut prepared);
        (result, mark.since(), alloc::peak())
    });
    let heap_peak_bytes = peak - baseline;
    let mux_rounds = match &prepared.system {
        System::Mux(mux) => mux.rounds(),
        System::Engine(_) => 0,
    };
    let events = prepared.finish();

    let attempted = ticks * members;
    let (reports, failed) = match result {
        Ok(reports) => {
            let non_finite = reports.iter().map(non_finite_answers).sum();
            (reports, non_finite)
        }
        Err(err) => {
            eprintln!(
                "{}: driver error on sub-seed {sub_seed}: {err}",
                kind.name()
            );
            (Vec::new(), attempted)
        }
    };
    let counts = Counts {
        messages: reports.iter().map(RunReport::total_messages).sum(),
        samples: reports.iter().map(RunReport::total_samples).sum(),
        snapshots: reports.iter().map(RunReport::total_snapshots).sum(),
        allocs,
        alloc_bytes,
        heap_peak_bytes,
        events,
        members: reports.iter().map(member_counts).collect(),
        attempted,
        failed,
        fingerprint: fingerprint(&reports),
    };
    Call {
        setup,
        run,
        counts,
        reports,
        confidences,
        mux_rounds,
    }
}

/// Answers that are not a number although the query has reported before.
fn non_finite_answers(report: &RunReport) -> u64 {
    report
        .records
        .iter()
        .skip_while(|r| !r.snapshot)
        .filter(|r| !r.estimate.is_finite())
        .count() as u64
}

fn member_counts(report: &RunReport) -> MemberCounts {
    let mut m = MemberCounts::default();
    for r in &report.records {
        let error = (r.estimate - r.exact).abs();
        m.ticks += 1;
        // Every workload's queries are AVG, whose ε is absolute (the
        // relative-ε kinds of `digest-audit` do not occur here).
        m.delta_violations += u64::from(error > report.delta + report.epsilon);
        if r.snapshot {
            m.occasions += 1;
            m.eps_violations += u64::from(error > report.epsilon);
        }
    }
    m
}

fn fingerprint(reports: &[RunReport]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for report in reports {
        for r in &report.records {
            mix(r.tick);
            mix(r.exact.to_bits());
            mix(r.estimate.to_bits());
            mix(u64::from(r.updated) | u64::from(r.snapshot) << 1);
            mix(r.samples);
            mix(r.fresh_samples);
            mix(r.messages);
        }
    }
    hash
}

pub fn same_records(a: &[RunReport], b: &[RunReport]) -> bool {
    a.iter()
        .map(|r| &r.records)
        .eq(b.iter().map(|r| &r.records))
}

/// Observer passivity: the audited run's records must equal, byte for
/// byte, a plain `solo_loose` run of the same world over the same ticks.
fn check_observer_is_passive(audited: &[RunReport], sub_seed: u64, ticks: u64) -> Option<String> {
    match Kind::SoloLoose.setup(sub_seed, ticks).drive() {
        Ok(plain) if same_records(&plain, audited) => None,
        Ok(_) => Some(
            "audited: the observer perturbed the run (records differ from solo_loose)".to_owned(),
        ),
        Err(err) => Some(format!("audited: the plain comparison run failed: {err}")),
    }
}

pub fn sub_seed(seed: u64, world: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(world as u64)
}

/// The untraced pass over one workload.
pub struct Session {
    kind: Kind,
    seed: u64,
    ticks: u64,
    worlds: usize,
    /// Counts of the first call on each world, in world order.
    first: Vec<Counts>,
    /// Each member's `p`, in report order.
    confidences: Vec<f64>,
    setup: Vec<Timed>,
    run: Vec<Timed>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Session {
    pub fn new(kind: Kind, seed: u64, quick: bool) -> Self {
        Self {
            kind,
            seed,
            ticks: kind.ticks(quick),
            worlds: if quick { 1 } else { kind.worlds() },
            first: Vec::new(),
            confidences: Vec::new(),
            setup: Vec::new(),
            run: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Every world has been run once and at least one call was repeated.
    pub fn covered(&self) -> bool {
        self.run.len() > self.worlds
    }

    pub fn step(&mut self, ruler: &mut Ruler) {
        let world = self.run.len() % self.worlds;
        let sub_seed = sub_seed(self.seed, world);
        let call = call(self.kind, sub_seed, self.ticks, ruler, Prepared::drive);
        self.attempted += call.counts.attempted;
        self.failed += call.counts.failed;
        self.setup.push(call.setup);
        self.run.push(call.run);
        match self.first.get(world) {
            None => {
                if self.kind == Kind::Audited && world == 0 {
                    self.errors.extend(check_observer_is_passive(
                        &call.reports,
                        sub_seed,
                        self.ticks,
                    ));
                }
                self.first.push(call.counts);
                self.confidences = call.confidences;
            }
            Some(first) if *first != call.counts => self.errors.push(format!(
                "{}: world {world} did not repeat: first {first:?}, then {:?}",
                self.kind.name(),
                call.counts
            )),
            Some(_) => {}
        }
    }

    pub fn finish(self) -> Pass {
        let raw: Vec<f64> = self.run.iter().map(|t| t.raw_s).collect();
        println!(
            "# {}: {} driver calls, raw run_s median {:.4} quartiles {:.4}..{:.4} (information only)",
            self.kind.name(),
            raw.len(),
            clock::median(&raw),
            clock::quantile(&raw, 0.25),
            clock::quantile(&raw, 0.75),
        );
        Pass {
            metrics: self.metrics(),
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let per_call = |field: fn(&Counts) -> u64| {
            self.first.iter().map(field).sum::<u64>() as f64 / self.first.len() as f64
        };
        let reference = |timed: &[Timed]| {
            clock::median(&timed.iter().map(Timed::reference_s).collect::<Vec<_>>())
        };

        // Pool each member's occasions and ticks over all worlds, then take
        // the member that is furthest below what it was promised.
        let mut eps_coverage_ratio = f64::INFINITY;
        let mut delta_ok_share = f64::INFINITY;
        for (m, confidence) in self.confidences.iter().enumerate() {
            let pooled = |field: fn(&MemberCounts) -> u64| {
                let sum: u64 = self
                    .first
                    .iter()
                    .filter_map(|c| c.members.get(m))
                    .map(field)
                    .sum();
                sum as f64
            };
            let coverage = 1.0 - pooled(|c| c.eps_violations) / pooled(|c| c.occasions).max(1.0);
            eps_coverage_ratio = eps_coverage_ratio.min(coverage / confidence);
            let ok = 1.0 - pooled(|c| c.delta_violations) / pooled(|c| c.ticks).max(1.0);
            delta_ok_share = delta_ok_share.min(ok);
        }

        vec![
            Metric::new("setup_s", reference(&self.setup), "s"),
            Metric::new("run_s", reference(&self.run), "s"),
            Metric::new("messages", per_call(|c| c.messages), "count"),
            Metric::new("samples", per_call(|c| c.samples), "count"),
            Metric::new("snapshots", per_call(|c| c.snapshots), "count"),
            Metric::new("eps_coverage_ratio", eps_coverage_ratio, "ratio"),
            Metric::new("delta_ok_share", delta_ok_share, "ratio"),
            Metric::new("allocs", per_call(|c| c.allocs), "count"),
            Metric::new("alloc_bytes", per_call(|c| c.alloc_bytes), "bytes"),
            Metric::new("heap_peak_bytes", per_call(|c| c.heap_peak_bytes), "bytes"),
        ]
    }
}
