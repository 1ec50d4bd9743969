//! Digest's custom static-analysis pass (`cargo xtask lint`).
//!
//! The engine's statistical contracts — `|X̂ − X| ≤ ε` with probability
//! ≥ p (PAPER.md §II, Eq. 8–11) — are voided by panicking estimator paths
//! and nondeterministic iteration, neither of which default clippy catches.
//! This crate is a std-only source scanner enforcing seven domain rules:
//!
//! * **R1 — panic-free library crates**: no `unwrap()` / `expect()` /
//!   `panic!` / `unreachable!` / `todo!` / `unimplemented!` in
//!   `core`, `stats`, `sampling`, `net`, `db`, `sim`, `telemetry`
//!   outside `#[cfg(test)]` code, modulo a checked-in allowlist that may
//!   only shrink.
//! * **R2 — replay determinism**: no `HashMap` / `HashSet` in simulator-
//!   or estimator-visible crates (`core`, `stats`, `sampling`, `net`,
//!   `db`, `sim`, `workload`, `telemetry`) outside `#[cfg(test)]` — use
//!   `BTreeMap` / `BTreeSet` or an explicit sort so iteration order is
//!   stable.
//! * **R3 — float discipline**: no bare `==` / `!=` against float
//!   operands and no narrowing `as` casts (`u8`/`u16`/`u32`/`i8`/`i16`/
//!   `i32`/`f32`) in `stats` / `core` numeric code.
//! * **R4 — paper traceability**: every top-level public item in the
//!   estimator/scheduler modules must carry a paper-section (`§`) or
//!   equation (`Eq.`) doc reference.
//! * **R5 — RNG discipline**: in sim-visible crates, entropy-drawing
//!   constructors (`thread_rng`, `from_entropy`, `from_os_rng`) are banned
//!   outright, and ad-hoc seeding (`seed_from_u64`, `from_seed`) outside
//!   the designated seeding modules needs an allowlist entry — every RNG
//!   must derive from the run seed through an auditable path, or replay
//!   determinism (the basis of the paper's fixed-precision guarantees) is
//!   silently lost.
//! * **R6 — concurrency hygiene**: `Ordering::Relaxed` only with a
//!   `// relaxed-ok: <why>` justification comment (monotone telemetry
//!   counters are the intended audience); `Mutex` / `RwLock` / `mpsc`
//!   channels banned in sim-visible crates modulo the allowlist (the
//!   parallel substrate takes no lock; see DESIGN.md §13); every
//!   `unsafe` needs a `// SAFETY: <why>` comment; and a vendored crate
//!   holds no `unsafe` but the one in each function
//!   [`R6_VENDORED_UNSAFE`] names (the keystream kernel's run-time
//!   dispatch).
//! * **R7 — hot-path allocation**: function bodies tagged
//!   `/// xtask: no-alloc` may not allocate (`Vec::new`, `vec!`,
//!   `collect`, `to_vec`, `clone`, `Box::new`, `format!`) — the sampling
//!   walk inner loop reuses arena buffers and must stay allocation-free.
//!
//! The scanner is deliberately token-based (comments and string literals
//! are scrubbed before matching, `#[cfg(test)]` and `xtask: no-alloc`
//! regions are tracked by brace depth) rather than a full parser: the
//! rules target textual constructs that survive that approximation, and a
//! std-only pass keeps the gate runnable in the offline build environment.
//!
//! The three gates that drive the built `digest-cli` (`cargo xtask
//! determinism` / `telemetry-schema` / `audit`) are the scenario × variant
//! table in [`gate`].

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod bench;
pub mod gate;
pub mod scrub;

/// Crates whose library sources must be panic-free (R1).
pub const R1_CRATES: &[&str] = &[
    "core",
    "stats",
    "sampling",
    "net",
    "db",
    "sim",
    "telemetry",
    "audit",
    "sketch",
];

/// Crates whose library sources feed the simulator or estimators and must
/// avoid nondeterministic hash collections (R2).
pub const R2_CRATES: &[&str] = &[
    "core",
    "stats",
    "sampling",
    "net",
    "db",
    "sim",
    "workload",
    "telemetry",
    "audit",
    "sketch",
];

/// Crates holding numeric estimator code subject to float discipline (R3).
pub const R3_CRATES: &[&str] = &["stats", "core"];

/// Estimator/scheduler modules whose public API must cite the paper (R4).
pub const R4_FILES: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/scheduler.rs",
    "crates/core/src/rpt.rs",
    "crates/core/src/indep.rs",
    "crates/core/src/report.rs",
    "crates/core/src/mux.rs",
    "crates/sampling/src/metropolis.rs",
    "crates/sampling/src/operator.rs",
    "crates/sampling/src/baselines.rs",
    "crates/sampling/src/size_estimate.rs",
    "crates/sampling/src/mixing.rs",
    "crates/stats/src/repeated.rs",
    "crates/stats/src/clt.rs",
    "crates/core/src/sketch_est.rs",
    "crates/sketch/src/quantile.rs",
    "crates/sketch/src/distinct.rs",
    "crates/sketch/src/topk.rs",
    "crates/sketch/src/lib.rs",
];

/// Simulator- or estimator-visible crates, subject to the RNG (R5) and
/// concurrency (R6/R7) discipline rules. Same set as [`R2_CRATES`]: code
/// either of these rules would miss cannot affect a replayed run.
pub const SIM_VISIBLE_CRATES: &[&str] = R2_CRATES;

/// Vendored crates (under `vendor/`) held to the concurrency rule R6 (its
/// `// SAFETY:` check covers the keystream kernel's run-time dispatch) and
/// to their `xtask: no-alloc` tags under R7: the RNG's bulk keystream path
/// runs inside the world step.
pub const VENDORED_CRATES: &[&str] = &["rand_chacha"];

/// The only `unsafe` sites R6 accepts in a vendored crate, as `(file,
/// function)`: one `unsafe` inside that function's body. The keystream
/// kernel's run-time dispatch to its AVX2 instantiation is the tree's
/// one; a second kernel call site, or any other `unsafe`, is a finding.
pub const R6_VENDORED_UNSAFE: &[(&str, &str)] =
    &[("vendor/rand_chacha/src/lib.rs", "group_blocks")];

/// Designated seeding modules (R5): the only files allowed to construct
/// RNGs ad hoc, because constructing per-slot / per-replication streams
/// from the run seed is their whole job.
pub const R5_SEEDING_MODULES: &[&str] = &[
    "crates/sampling/src/executor.rs",
    "crates/sim/src/parallel.rs",
    "crates/sim/src/flat.rs",
];

/// Path of the lint allowlist, relative to the workspace root.
pub const ALLOWLIST_PATH: &str = "crates/xtask/lint-allowlist.txt";

/// Panic-capable constructs banned by R1 (matched against scrubbed code).
const R1_TOKENS: &[(&str, &str)] = &[
    ("unwrap", ".unwrap()"),
    ("expect", ".expect("),
    ("panic", "panic!"),
    ("unreachable", "unreachable!"),
    ("todo", "todo!"),
    ("unimplemented", "unimplemented!"),
];

/// Narrowing cast targets banned by R3.
const R3_NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Entropy-drawing RNG constructors banned outright by R5 (no allowlist
/// escape: a single OS-entropy draw destroys replay determinism).
const R5_ENTROPY_TOKENS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng"];

/// Ad-hoc seeding constructors restricted by R5 to designated seeding
/// modules; elsewhere each use needs an allowlist entry. The first element
/// doubles as the allowlist token name.
const R5_SEEDING_TOKENS: &[&str] = &["seed_from_u64", "from_seed"];

/// Blocking synchronization primitives banned by R6 in sim-visible crates:
/// (allowlist token, whole-word needle).
const R6_SYNC_TOKENS: &[(&str, &str)] = &[
    ("mutex", "Mutex"),
    ("rwlock", "RwLock"),
    ("channel", "mpsc"),
];

/// Justification-comment markers verified by R6.
const RELAXED_OK_MARKER: &str = "relaxed-ok:";
const SAFETY_MARKER: &str = "SAFETY:";

/// Allocating constructs banned by R7 inside `xtask: no-alloc` regions.
const R7_ALLOC_TOKENS: &[&str] = &[
    "Vec::new", "vec!", ".collect", ".to_vec", ".clone", "Box::new", "format!",
];

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Panic-capable construct in library code.
    R1Panic,
    /// Nondeterministic hash collection in sim/estimator-visible code.
    R2HashCollection,
    /// Bare float comparison or narrowing cast in numeric code.
    R3FloatDiscipline,
    /// Public estimator/scheduler item without a paper reference.
    R4PaperRef,
    /// Entropy-drawing or ad-hoc RNG construction in sim-visible code.
    R5RngDiscipline,
    /// Unjustified relaxed ordering, blocking sync primitive, or
    /// uncommented `unsafe` in sim-visible code.
    R6Concurrency,
    /// Allocation inside an `xtask: no-alloc` tagged function body.
    R7HotPathAlloc,
    /// Problem with the allowlist itself (stale or loosened entry).
    Allowlist,
}

/// Registry metadata for one rule: a stable diagnostic code plus the
/// short name and summary used in human-facing and machine-facing output.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule producing the diagnostics.
    pub rule: Rule,
    /// Stable diagnostic code (`R1`..`R7`, `ALLOW`); machine output keys
    /// on this, so it must never be renamed or reused.
    pub code: &'static str,
    /// Short kebab-case name shown next to the code.
    pub name: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
}

/// The rule registry, in diagnostic-code order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        rule: Rule::R1Panic,
        code: "R1",
        name: "no-panic",
        summary: "panic-capable constructs are banned in library crates",
    },
    RuleInfo {
        rule: Rule::R2HashCollection,
        code: "R2",
        name: "determinism",
        summary: "hash collections have nondeterministic iteration order",
    },
    RuleInfo {
        rule: Rule::R3FloatDiscipline,
        code: "R3",
        name: "float-discipline",
        summary: "bare float comparisons and narrowing casts are banned in numeric code",
    },
    RuleInfo {
        rule: Rule::R4PaperRef,
        code: "R4",
        name: "paper-ref",
        summary: "public estimator items must cite a paper section or equation",
    },
    RuleInfo {
        rule: Rule::R5RngDiscipline,
        code: "R5",
        name: "rng-discipline",
        summary: "RNGs must derive from the run seed via designated seeding modules",
    },
    RuleInfo {
        rule: Rule::R6Concurrency,
        code: "R6",
        name: "concurrency",
        summary:
            "relaxed orderings need justification; blocking sync is banned in sim-visible code",
    },
    RuleInfo {
        rule: Rule::R7HotPathAlloc,
        code: "R7",
        name: "no-alloc",
        summary: "tagged hot-path function bodies may not allocate",
    },
    RuleInfo {
        rule: Rule::Allowlist,
        code: "ALLOW",
        name: "allowlist",
        summary: "the allowlist may only shrink: stale or slack entries are violations",
    },
];

impl Rule {
    /// Stable diagnostic code for machine output.
    #[must_use]
    pub fn code(self) -> &'static str {
        self.info().code
    }

    /// Registry entry for this rule.
    #[must_use]
    pub fn info(self) -> &'static RuleInfo {
        RULES
            .iter()
            .find(|info| info.rule == self)
            .unwrap_or(&RULES[0])
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Rule::Allowlist {
            return f.write_str("allowlist");
        }
        let info = self.info();
        write!(f, "{}({})", info.code, info.name)
    }
}

/// How a finding is meant to be resolved when rewriting the code is not an
/// option — machine output reports this as the finding's justification
/// status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Remedy {
    /// Only fixing the code clears it.
    Fix,
    /// An exact-count `# justification` allowlist entry may cover it.
    AllowlistEntry,
    /// An inline justification comment (`// relaxed-ok:` / `// SAFETY:`)
    /// clears it.
    JustifyComment,
}

impl Remedy {
    /// Stable label for machine output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Remedy::Fix => "fix",
            Remedy::AllowlistEntry => "allowlist",
            Remedy::JustifyComment => "justify-comment",
        }
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Sanctioned resolution when the code cannot simply change.
    pub remedy: Remedy,
    /// Allowlist token an entry must use to justify this finding
    /// (`None` when the finding is not allowlistable).
    pub allow_token: Option<&'static str>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One parsed allowlist entry:
/// `<rule> <path> <token> <count> # justification`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Diagnostic code of the rule the entry covers (`R1`, `R5`, `R6`).
    pub rule: String,
    /// Workspace-relative file the entry covers.
    pub file: String,
    /// Rule-specific token name (`unwrap`, `seed_from_u64`, `mutex`, ...).
    pub token: String,
    /// Exact number of occurrences the entry justifies.
    pub count: usize,
    /// Line of the allowlist file the entry came from.
    pub line: usize,
}

/// Allowlist token vocabulary per rule code; `None` ⇒ the rule accepts no
/// allowlist entries at all.
fn allow_tokens_for(rule: &str) -> Option<Vec<&'static str>> {
    match rule {
        "R1" => Some(R1_TOKENS.iter().map(|(name, _)| *name).collect()),
        "R5" => Some(R5_SEEDING_TOKENS.to_vec()),
        "R6" => Some(R6_SYNC_TOKENS.iter().map(|(name, _)| *name).collect()),
        _ => None,
    }
}

/// Parses the lint allowlist format.
///
/// Grammar per non-comment line:
/// `<rule> <workspace-relative-path> <token> <count> # <justification>` —
/// the justification is mandatory, which is what "documented entries only"
/// means mechanically. Rules `R1`, `R5`, and `R6` accept entries; the
/// token vocabulary is rule-specific.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed entries.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, justification) = match line.split_once('#') {
            Some((spec, justification)) => (spec.trim(), justification.trim()),
            None => {
                return Err(format!(
                    "allowlist line {line_no}: missing `# justification`"
                ))
            }
        };
        if justification.is_empty() {
            return Err(format!("allowlist line {line_no}: empty justification"));
        }
        let fields: Vec<&str> = spec.split_whitespace().collect();
        let [rule, file, token, count] = fields.as_slice() else {
            return Err(format!(
                "allowlist line {line_no}: expected `<rule> <path> <token> <count>`, got `{spec}`"
            ));
        };
        let Some(tokens) = allow_tokens_for(rule) else {
            return Err(format!(
                "allowlist line {line_no}: rule `{rule}` accepts no allowlist entries \
                 (only R1, R5, R6 do)"
            ));
        };
        if !tokens.contains(token) {
            return Err(format!(
                "allowlist line {line_no}: unknown token `{token}` for rule {rule}"
            ));
        }
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {line_no}: bad count `{count}`"))?;
        if count == 0 {
            return Err(format!(
                "allowlist line {line_no}: zero-count entry — delete it instead"
            ));
        }
        entries.push(AllowEntry {
            rule: (*rule).to_string(),
            file: (*file).to_string(),
            token: (*token).to_string(),
            count,
            line: line_no,
        });
    }
    Ok(entries)
}

/// R1: panic-capable constructs outside `#[cfg(test)]`.
///
/// `file` is the workspace-relative label used in findings; `source` is the
/// file contents. Allowlisting happens in [`lint_workspace`], not here.
pub fn lint_no_panic(file: &str, source: &str) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (name, needle) in R1_TOKENS {
            for _ in 0..count_occurrences(&line.code, needle) {
                findings.push(Finding {
                    rule: Rule::R1Panic,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!("`{needle}` can panic; thread a typed error instead ({name})"),
                    remedy: Remedy::AllowlistEntry,
                    allow_token: Some(name),
                });
            }
        }
    }
    findings
}

/// R2: `HashMap` / `HashSet` outside `#[cfg(test)]`.
pub fn lint_no_hash_collections(file: &str, source: &str) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for ty in ["HashMap", "HashSet"] {
            if contains_word(&line.code, ty) {
                findings.push(Finding {
                    rule: Rule::R2HashCollection,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`{ty}` iteration order is nondeterministic; use BTree{} or sort explicitly",
                        &ty[4..]
                    ),
                    remedy: Remedy::Fix,
                    allow_token: None,
                });
            }
        }
    }
    findings
}

/// R3: bare float `==` / `!=` and narrowing `as` casts.
pub fn lint_float_discipline(file: &str, source: &str) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for op in ["==", "!="] {
            let mut search_from = 0;
            while let Some(pos) = line.code[search_from..].find(op) {
                let at = search_from + pos;
                search_from = at + op.len();
                // Skip `<=`, `>=`, `=>`, `+=`-style compounds and pattern
                // guards: only a standalone `==`/`!=` counts.
                let before = line.code[..at].chars().next_back();
                if op == "==" && matches!(before, Some('=' | '!' | '<' | '>')) {
                    continue;
                }
                let left = last_token(&line.code[..at]);
                let right = first_token(&line.code[at + op.len()..]);
                if is_floatish(left) || is_floatish(right) {
                    findings.push(Finding {
                        rule: Rule::R3FloatDiscipline,
                        file: file.to_string(),
                        line: idx + 1,
                        message: format!(
                            "bare `{op}` on float operands (`{left}` {op} `{right}`); \
                             compare with an explicit tolerance"
                        ),
                        remedy: Remedy::Fix,
                        allow_token: None,
                    });
                }
            }
        }
        let mut search_from = 0;
        while let Some(pos) = line.code[search_from..].find(" as ") {
            let at = search_from + pos;
            search_from = at + 4;
            let target = first_token(&line.code[at + 4..]);
            if R3_NARROWING_TARGETS.contains(&target) {
                findings.push(Finding {
                    rule: Rule::R3FloatDiscipline,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "narrowing cast `as {target}` can silently truncate; \
                         use `try_from` or a checked conversion"
                    ),
                    remedy: Remedy::Fix,
                    allow_token: None,
                });
            }
        }
    }
    findings
}

/// R4: top-level public items must cite a paper section or equation.
///
/// The doc block (contiguous `///` lines, skipping attributes) above each
/// top-level `pub fn|struct|enum|trait` must mention `§` or `Eq.`/
/// `equation`.
pub fn lint_paper_refs(file: &str, source: &str) -> Vec<Finding> {
    let raw_lines: Vec<&str> = source.lines().collect();
    let scrubbed = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in raw_lines.iter().enumerate() {
        if scrubbed.get(idx).is_some_and(|l| l.in_test) {
            continue;
        }
        let Some(item) = public_item_name(line) else {
            continue;
        };
        // Collect the doc block above, skipping attribute lines.
        let mut doc = String::new();
        let mut cursor = idx;
        while cursor > 0 {
            cursor -= 1;
            let above = raw_lines[cursor].trim_start();
            if above.starts_with("#[") || above.starts_with("#![") {
                continue;
            }
            if let Some(text) = above.strip_prefix("///") {
                doc.push_str(text);
                doc.push('\n');
                continue;
            }
            break;
        }
        let cited = doc.contains('§')
            || doc.contains("Eq.")
            || doc.to_ascii_lowercase().contains("equation");
        if !cited {
            findings.push(Finding {
                rule: Rule::R4PaperRef,
                file: file.to_string(),
                line: idx + 1,
                message: format!(
                    "public item `{item}` lacks a paper reference (§ section or Eq. number) \
                     in its doc comment"
                ),
                remedy: Remedy::Fix,
                allow_token: None,
            });
        }
    }
    findings
}

/// R5: RNG discipline outside `#[cfg(test)]`.
///
/// Entropy-drawing constructors are banned outright. Ad-hoc seeding
/// constructors are permitted only when `is_seeding_module` (the file is
/// listed in [`R5_SEEDING_MODULES`]); elsewhere each use needs an
/// allowlist entry, applied by [`lint_workspace`].
pub fn lint_rng_discipline(file: &str, source: &str, is_seeding_module: bool) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for banned in R5_ENTROPY_TOKENS {
            if contains_word(&line.code, banned) {
                findings.push(Finding {
                    rule: Rule::R5RngDiscipline,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`{banned}` draws OS entropy and breaks replay determinism; \
                         derive the RNG from the run seed instead"
                    ),
                    remedy: Remedy::Fix,
                    allow_token: None,
                });
            }
        }
        if is_seeding_module {
            continue;
        }
        for token in R5_SEEDING_TOKENS {
            if contains_word(&line.code, token) {
                findings.push(Finding {
                    rule: Rule::R5RngDiscipline,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "ad-hoc RNG construction `{token}` outside a designated seeding \
                         module; route seed derivation through the executor/parallel \
                         runner or add an allowlist entry ({token})"
                    ),
                    remedy: Remedy::AllowlistEntry,
                    allow_token: Some(token),
                });
            }
        }
    }
    findings
}

/// Does line `idx` (or the comment block immediately above it) carry a
/// justification comment containing `marker` followed by a non-empty
/// reason? Scanning walks upward through contiguous comment-only lines,
/// so multi-line justifications count and the marker may sit at the top
/// of its block.
fn has_justification(lines: &[scrub::Line], idx: usize, marker: &str) -> bool {
    let carries_marker = |j: usize| {
        let comment = &lines[j].comment;
        comment
            .find(marker)
            .is_some_and(|at| !comment[at + marker.len()..].trim().is_empty())
    };
    if carries_marker(idx) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        // Stop at the first line that holds code or is fully blank: the
        // justification must be in the comment block touching the site.
        if !line.code.trim().is_empty() || line.comment.trim().is_empty() {
            return false;
        }
        if carries_marker(j) {
            return true;
        }
    }
    false
}

/// R6: concurrency hygiene outside `#[cfg(test)]`.
///
/// * `Ordering::Relaxed` must carry a `// relaxed-ok: <why>` comment on
///   the same line or in the comment block directly above (monotone
///   telemetry counters are the intended audience — anything
///   load-bearing needs a stronger order).
/// * `Mutex` / `RwLock` / `mpsc` are banned; the parallel substrate
///   takes no lock (allowlist entries cover the telemetry sink).
/// * Every `unsafe` needs a `// SAFETY: <why>` comment on the same line
///   or in the comment block directly above.
pub fn lint_concurrency(file: &str, source: &str) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if contains_word(&line.code, "Relaxed")
            && !has_justification(&lines, idx, RELAXED_OK_MARKER)
        {
            findings.push(Finding {
                rule: Rule::R6Concurrency,
                file: file.to_string(),
                line: idx + 1,
                message: "`Ordering::Relaxed` without a `// relaxed-ok: <why>` comment; \
                          justify it (monotone counter?) or use a stronger ordering"
                    .to_string(),
                remedy: Remedy::JustifyComment,
                allow_token: None,
            });
        }
        for (token, word) in R6_SYNC_TOKENS {
            if contains_word(&line.code, word) {
                findings.push(Finding {
                    rule: Rule::R6Concurrency,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "blocking primitive `{word}` in sim-visible code; the parallel \
                         substrate takes no lock (fixed ranges, results moved out at the \
                         join) — restructure or add an allowlist entry ({token})"
                    ),
                    remedy: Remedy::AllowlistEntry,
                    allow_token: Some(token),
                });
            }
        }
        if contains_word(&line.code, "unsafe") && !has_justification(&lines, idx, SAFETY_MARKER) {
            findings.push(Finding {
                rule: Rule::R6Concurrency,
                file: file.to_string(),
                line: idx + 1,
                message: "`unsafe` without a `// SAFETY: <why>` comment on the same or \
                          preceding line"
                    .to_string(),
                remedy: Remedy::JustifyComment,
                allow_token: None,
            });
        }
    }
    findings
}

/// R6 in a vendored crate: each `unsafe` outside `#[cfg(test)]` must be
/// the first in the body of a function [`R6_VENDORED_UNSAFE`] lists for
/// `file`. An `unsafe fn`, `unsafe impl` or `unsafe` block anywhere else
/// is a finding, and so is a second `unsafe` in an allow-listed function.
/// (Whether each carries its `// SAFETY:` comment is
/// [`lint_concurrency`]'s check.)
pub fn lint_vendored_unsafe(file: &str, source: &str) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let sites = unsafe_sites(&lines);
    let mut used: Vec<&str> = Vec::new();
    let mut findings = Vec::new();
    for (idx, (line, sites)) in lines.iter().zip(&sites).enumerate() {
        if line.in_test {
            continue;
        }
        for site in sites {
            let function = site.as_deref();
            let allowed = R6_VENDORED_UNSAFE
                .iter()
                .find(|(f, name)| *f == file && Some(*name) == function)
                .map(|(_, name)| *name);
            let message = match allowed {
                Some(name) if !used.contains(&name) => {
                    used.push(name);
                    continue;
                }
                Some(name) => format!(
                    "a second `unsafe` in `fn {name}`: the allow-listed kernel dispatch \
                     holds exactly one"
                ),
                None => format!(
                    "`unsafe` in a vendored crate outside the allow-listed kernel \
                     dispatch{}; route the call through that dispatch instead",
                    function.map_or(String::new(), |name| format!(" (in `fn {name}`)"))
                ),
            };
            findings.push(Finding {
                rule: Rule::R6Concurrency,
                file: file.to_string(),
                line: idx + 1,
                message,
                remedy: Remedy::Fix,
                allow_token: None,
            });
        }
    }
    findings
}

/// Per scrubbed line, one entry per `unsafe` keyword on it: the name of
/// the innermost function whose body it sits in (`None` outside any, as
/// for an `unsafe fn` or `unsafe impl` at item level). `fn NAME` arms a
/// pending body unless one is armed already (so a `fn(..)` pointer type
/// in a signature does not rename it), its first `{` opens it, and a `;`
/// at the signature's own paren / bracket nesting (a body-less
/// declaration) disarms it, so an array type's `;` does not.
fn unsafe_sites(lines: &[scrub::Line]) -> Vec<Vec<Option<String>>> {
    let mut open: Vec<(String, usize)> = Vec::new();
    let mut pending: Option<(Option<String>, usize)> = None;
    let (mut depth, mut nesting) = (0usize, 0usize);
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        let mut sites = Vec::new();
        let mut chars = line.code.char_indices().peekable();
        while let Some((at, c)) = chars.next() {
            if c.is_alphabetic() || c == '_' {
                let mut end = at + c.len_utf8();
                while let Some(&(i, n)) = chars.peek() {
                    if !(n.is_alphanumeric() || n == '_') {
                        break;
                    }
                    end = i + n.len_utf8();
                    chars.next();
                }
                let word = &line.code[at..end];
                match &mut pending {
                    Some((name @ None, _)) => *name = Some(word.to_string()),
                    None if word == "fn" => pending = Some((None, nesting)),
                    _ => {}
                }
                if word == "unsafe" {
                    sites.push(open.last().map(|(name, _)| name.clone()));
                }
                continue;
            }
            match c {
                '(' | '[' => nesting += 1,
                ')' | ']' => nesting = nesting.saturating_sub(1),
                ';' if pending.as_ref().is_some_and(|(_, n)| *n == nesting) => pending = None,
                '{' => {
                    depth += 1;
                    if let Some((Some(name), _)) = pending.take() {
                        open.push((name, depth));
                    }
                }
                '}' => {
                    if open.last().is_some_and(|(_, d)| *d == depth) {
                        open.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
        out.push(sites);
    }
    out
}

/// R7: allocation inside `/// xtask: no-alloc` tagged function bodies.
///
/// The tag is an opt-in contract on walk-loop hot paths: arena buffers are
/// pre-sized and reused across batches, so any per-step allocation is a
/// regression. No allowlist — either the function stops allocating or it
/// drops the tag.
pub fn lint_hot_path_alloc(file: &str, source: &str) -> Vec<Finding> {
    let lines = scrub::scrub(source);
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || !line.no_alloc {
            continue;
        }
        for needle in R7_ALLOC_TOKENS {
            for _ in 0..count_occurrences(&line.code, needle) {
                findings.push(Finding {
                    rule: Rule::R7HotPathAlloc,
                    file: file.to_string(),
                    line: idx + 1,
                    message: format!(
                        "`{needle}` allocates inside an `xtask: no-alloc` tagged body; \
                         reuse an arena buffer or drop the tag"
                    ),
                    remedy: Remedy::Fix,
                    allow_token: None,
                });
            }
        }
    }
    findings
}

/// Returns the item name when `line` declares a top-level public item
/// subject to R4.
fn public_item_name(line: &str) -> Option<&str> {
    // Top level only: declarations start at column 0.
    if line.starts_with(' ') || line.starts_with('\t') {
        return None;
    }
    let rest = line.strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").map_or(rest, |r| r); // `pub const fn`
    for kw in ["fn ", "struct ", "enum ", "trait "] {
        if let Some(decl) = rest.strip_prefix(kw) {
            let name: &str = decl
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default();
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None
}

fn count_occurrences(haystack: &str, needle: &str) -> usize {
    let mut count = 0;
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        count += 1;
        from += pos + needle.len();
    }
    count
}

/// Whole-word containment (neighbours must not be identifier chars).
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = haystack[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + word.len();
    }
    false
}

/// Trailing operand token of an expression fragment.
fn last_token(fragment: &str) -> &str {
    let trimmed = fragment.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .map_or(0, |p| p + 1);
    &trimmed[start..]
}

/// Leading operand token of an expression fragment.
fn first_token(fragment: &str) -> &str {
    let trimmed = fragment.trim_start();
    let end = trimmed
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .unwrap_or(trimmed.len());
    &trimmed[..end]
}

/// Heuristic: does this operand token denote a float?
fn is_floatish(token: &str) -> bool {
    if token.ends_with("f64") || token.ends_with("f32") {
        return true;
    }
    if token.starts_with("f64::") || token.starts_with("f32::") {
        return true;
    }
    // A digit followed by `.` followed by a digit anywhere in the token
    // (covers 0.0, 1e-3 is exponent-only so also check eE with digits).
    let bytes = token.as_bytes();
    bytes
        .windows(3)
        .any(|w| w[0].is_ascii_digit() && w[1] == b'.' && w[2].is_ascii_digit())
}

/// Everything `cargo xtask lint` checks, rolled into one call.
///
/// Scans the workspace rooted at `root`, applies the allowlist, and
/// returns all findings (empty ⇒ the gate passes).
///
/// # Errors
///
/// Propagates IO errors reading sources, and allowlist syntax errors as a
/// boxed message.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let allow_text = std::fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    let allow = parse_allowlist(&allow_text)?;

    let mut findings = Vec::new();

    let lint_crate = |krate: &str, findings: &mut Vec<Finding>| -> Result<(), String> {
        let dir = root.join("crates").join(krate).join("src");
        for path in rust_sources(&dir)? {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = relative_label(root, &path);

            if R1_CRATES.contains(&krate) {
                findings.extend(lint_no_panic(&rel, &source));
            }
            if R2_CRATES.contains(&krate) {
                findings.extend(lint_no_hash_collections(&rel, &source));
            }
            if R3_CRATES.contains(&krate) {
                findings.extend(lint_float_discipline(&rel, &source));
            }
            if R4_FILES.contains(&rel.as_str()) {
                findings.extend(lint_paper_refs(&rel, &source));
            }
            if SIM_VISIBLE_CRATES.contains(&krate) {
                let seeding = R5_SEEDING_MODULES.contains(&rel.as_str());
                findings.extend(lint_rng_discipline(&rel, &source, seeding));
                findings.extend(lint_concurrency(&rel, &source));
                findings.extend(lint_hot_path_alloc(&rel, &source));
            }
        }
        Ok(())
    };

    let mut crates_to_scan: Vec<&str> = Vec::new();
    for set in [R1_CRATES, R2_CRATES, R3_CRATES] {
        for krate in set {
            if !crates_to_scan.contains(krate) {
                crates_to_scan.push(krate);
            }
        }
    }
    for krate in crates_to_scan {
        lint_crate(krate, &mut findings)?;
    }
    for krate in VENDORED_CRATES {
        for path in rust_sources(&root.join("vendor").join(krate).join("src"))? {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = relative_label(root, &path);
            findings.extend(lint_concurrency(&rel, &source));
            findings.extend(lint_vendored_unsafe(&rel, &source));
            findings.extend(lint_hot_path_alloc(&rel, &source));
        }
    }

    apply_allowlist(findings, &allow)
}

/// Applies the exact-count allowlist: drops covered findings, then reports
/// stale or slack entries (the allowlist may only shrink).
fn apply_allowlist(findings: Vec<Finding>, allow: &[AllowEntry]) -> Result<Vec<Finding>, String> {
    // Occurrence counts per (rule code, file, token) across all
    // allowlistable findings.
    let mut counts: Vec<(&'static str, String, &'static str, usize)> = Vec::new();
    for finding in &findings {
        let Some(token) = finding.allow_token else {
            continue;
        };
        let code = finding.rule.code();
        match counts
            .iter_mut()
            .find(|(c, f, t, _)| *c == code && *f == finding.file && *t == token)
        {
            Some(entry) => entry.3 += 1,
            None => counts.push((code, finding.file.clone(), token, 1)),
        }
    }
    let actual_for = |entry: &AllowEntry| -> usize {
        counts
            .iter()
            .find(|(c, f, t, _)| *c == entry.rule && *f == entry.file && *t == entry.token)
            .map_or(0, |(_, _, _, n)| *n)
    };

    // Drop exactly-covered findings, flag drift.
    let mut kept = Vec::new();
    'finding: for finding in findings {
        if let Some(token) = finding.allow_token {
            for entry in allow {
                if entry.rule == finding.rule.code()
                    && entry.file == finding.file
                    && entry.token == token
                    && actual_for(entry) <= entry.count
                {
                    continue 'finding; // justified occurrence
                }
            }
        }
        kept.push(finding);
    }
    let mut findings = kept;

    // The allowlist may only shrink: stale or slack entries are themselves
    // violations.
    for entry in allow {
        let actual = actual_for(entry);
        if actual == 0 {
            findings.push(Finding {
                rule: Rule::Allowlist,
                file: ALLOWLIST_PATH.to_string(),
                line: entry.line,
                message: format!(
                    "stale entry: no `{}` occurrences remain in {} — delete the entry",
                    entry.token, entry.file
                ),
                remedy: Remedy::Fix,
                allow_token: None,
            });
        } else if actual < entry.count {
            findings.push(Finding {
                rule: Rule::Allowlist,
                file: ALLOWLIST_PATH.to_string(),
                line: entry.line,
                message: format!(
                    "slack entry: {} `{}` occurrences remain in {} but {} are allowed — \
                     tighten the count",
                    actual, entry.token, entry.file, entry.count
                ),
                remedy: Remedy::Fix,
                allow_token: None,
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// All `.rs` files under `dir`, recursively, in sorted (deterministic)
/// order.
///
/// # Errors
///
/// Propagates directory-walk IO errors with path context.
pub fn rust_sources(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries = std::fs::read_dir(&current)
            .map_err(|e| format!("read_dir {}: {e}", current.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", current.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn relative_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_item_names_are_extracted() {
        assert_eq!(public_item_name("pub fn step(&mut self) {"), Some("step"));
        assert_eq!(public_item_name("pub struct Walk {"), Some("Walk"));
        assert_eq!(public_item_name("pub enum Kind {"), Some("Kind"));
        assert_eq!(public_item_name("pub const fn n() -> usize {"), Some("n"));
        assert_eq!(public_item_name("    pub fn indented() {"), None);
        assert_eq!(public_item_name("pub use foo::bar;"), None);
        assert_eq!(public_item_name("pub mod quux;"), None);
    }

    #[test]
    fn floatish_tokens() {
        assert!(is_floatish("0.0"));
        assert!(is_floatish("1.25"));
        assert!(is_floatish("f64::NAN"));
        assert!(is_floatish("1f64"));
        assert!(!is_floatish("count"));
        assert!(!is_floatish("0"));
        assert!(!is_floatish("a.b"));
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("MyHashMapLike", "HashMap"));
        assert!(!contains_word("HashMapper", "HashMap"));
    }

    #[test]
    fn rule_codes_are_stable_and_unique() {
        let codes: Vec<&str> = RULES.iter().map(|info| info.code).collect();
        assert_eq!(codes, ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "ALLOW"]);
        assert_eq!(Rule::R5RngDiscipline.code(), "R5");
        assert_eq!(Rule::R7HotPathAlloc.info().name, "no-alloc");
        assert_eq!(Rule::Allowlist.to_string(), "allowlist");
        assert_eq!(Rule::R6Concurrency.to_string(), "R6(concurrency)");
    }

    #[test]
    fn allowlist_parses_and_validates() {
        let good = "# comment\nR1 crates/db/src/store.rs unwrap 2 # slot invariant\n";
        let entries = parse_allowlist(good).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "R1");
        assert_eq!(entries[0].count, 2);

        assert!(parse_allowlist("R1 f unwrap 2").is_err()); // no justification
        assert!(parse_allowlist("R2 f unwrap 2 # x").is_err()); // R2 not allowlistable
        assert!(parse_allowlist("R1 f frob 2 # x").is_err()); // unknown token
        assert!(parse_allowlist("R1 f unwrap 0 # x").is_err()); // zero count
    }

    #[test]
    fn generalized_allowlist_accepts_r5_and_r6_tokens() {
        let text = "R5 crates/workload/src/memory.rs seed_from_u64 1 # root-seed derivation\n\
                    R6 crates/telemetry/src/lib.rs mutex 2 # sink registration is off the hot path\n";
        let entries = parse_allowlist(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "R5");
        assert_eq!(entries[1].token, "mutex");

        // Vocabulary is rule-scoped: `unwrap` is not an R5 token.
        assert!(parse_allowlist("R5 f unwrap 1 # x").is_err());
        assert!(parse_allowlist("R6 f seed_from_u64 1 # x").is_err());
    }
}
