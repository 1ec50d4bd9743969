//! Fixture tests for the `cargo xtask lint` rules: each seeded violation
//! in `tests/fixtures/` must be flagged, the clean fixture must pass, and
//! the allowlist must enforce its shrink-only contract.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{
    lint_concurrency, lint_float_discipline, lint_hot_path_alloc, lint_no_hash_collections,
    lint_no_panic, lint_paper_refs, lint_rng_discipline, lint_vendored_unsafe, lint_workspace,
    Remedy, Rule, R1_CRATES, R2_CRATES, R3_CRATES, R5_SEEDING_MODULES, R6_VENDORED_UNSAFE,
    VENDORED_CRATES,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

#[test]
fn r1_flags_each_seeded_panic_construct() {
    let findings = lint_no_panic("fixtures/r1_panic.rs", &fixture("r1_panic.rs"));
    assert!(findings.iter().all(|f| f.rule == Rule::R1Panic));
    for needle in [".unwrap()", ".expect(", "panic!", "unreachable!"] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "seeded `{needle}` violation not flagged: {findings:?}"
        );
    }
    // Exactly the four seeded sites: the string literal mention and the
    // unwrap/expect inside `#[cfg(test)]` must not count.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

/// A `#[cfg(test)]` struct field has no braces of its own: its marker
/// must end at the field's `,`, not carry over and exempt the `impl`
/// that follows (ROADMAP 5(b)'s scrubber hole).
#[test]
fn r1_cfg_test_on_a_field_does_not_exempt_the_next_impl() {
    let source = "pub struct Probe {\n\
                      #[cfg(test)]\n\
                      reads: u32,\n\
                      value: Option<u32>,\n\
                  }\n\
                  impl Probe {\n\
                      pub fn get(&self) -> u32 {\n\
                          self.value.unwrap()\n\
                      }\n\
                  }\n";
    let findings = lint_no_panic("fixtures/inline.rs", source);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains(".unwrap()"));
    assert_eq!(findings[0].line, 8);
}

#[test]
fn r2_flags_hash_collections_outside_tests() {
    let findings = lint_no_hash_collections("fixtures/r2_hash.rs", &fixture("r2_hash.rs"));
    assert!(findings.iter().all(|f| f.rule == Rule::R2HashCollection));
    assert!(findings.iter().any(|f| f.message.contains("HashMap")));
    assert!(findings.iter().any(|f| f.message.contains("HashSet")));
    // Two `use` lines + two field declarations; the `MyHashMapLike` name
    // and the test-module HashMap must not count.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn r3_flags_float_compares_and_narrowing_casts() {
    let findings = lint_float_discipline("fixtures/r3_float.rs", &fixture("r3_float.rs"));
    assert!(findings.iter().all(|f| f.rule == Rule::R3FloatDiscipline));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`==`") && f.message.contains("0.0")),
        "seeded float `==` not flagged: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`!=`") && f.message.contains("1.5")),
        "seeded float `!=` not flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("as u32")),
        "seeded narrowing cast not flagged: {findings:?}"
    );
    // The widening cast, integer compare, and `<=`/`>=` bounds are clean.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn r4_flags_uncited_public_items_only() {
    let findings = lint_paper_refs("fixtures/r4_missing_ref.rs", &fixture("r4_missing_ref.rs"));
    assert!(findings.iter().all(|f| f.rule == Rule::R4PaperRef));
    let named: Vec<&str> = findings
        .iter()
        .filter_map(|f| {
            f.message
                .split('`')
                .nth(1)
                .filter(|_| f.message.contains("lacks a paper reference"))
        })
        .collect();
    assert!(named.contains(&"uncited_sample_size"), "{findings:?}");
    assert!(named.contains(&"UncitedPanel"), "{findings:?}");
    // `CitedConfig` (§) and `cited_combine` (Eq.) are properly referenced.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn r5_flags_entropy_and_ad_hoc_seeding_outside_seeding_modules() {
    let findings = lint_rng_discipline("fixtures/r5_rng.rs", &fixture("r5_rng.rs"), false);
    assert!(findings.iter().all(|f| f.rule == Rule::R5RngDiscipline));
    // Entropy draws are hard failures; ad-hoc seeding is allowlistable.
    for banned in ["thread_rng", "from_entropy"] {
        let found = findings
            .iter()
            .find(|f| f.message.contains(banned))
            .unwrap_or_else(|| panic!("seeded `{banned}` violation not flagged: {findings:?}"));
        assert_eq!(found.remedy, Remedy::Fix);
        assert!(found.allow_token.is_none());
    }
    for token in ["seed_from_u64", "from_seed"] {
        let found = findings
            .iter()
            .find(|f| f.allow_token == Some(token))
            .unwrap_or_else(|| panic!("seeded `{token}` violation not flagged: {findings:?}"));
        assert_eq!(found.remedy, Remedy::AllowlistEntry);
    }
    // The doc-comment mention, the string literal, and the test-module
    // seeding must not count.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn r5_seeding_modules_may_construct_rngs() {
    let findings = lint_rng_discipline("fixtures/r5_rng.rs", &fixture("r5_rng.rs"), true);
    // Entropy draws stay banned even in seeding modules; the two ad-hoc
    // seeding sites become legal.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.message.contains("OS entropy") && f.allow_token.is_none()));
}

#[test]
fn r6_flags_unjustified_relaxed_locks_and_unsafe() {
    let findings = lint_concurrency("fixtures/r6_concurrency.rs", &fixture("r6_concurrency.rs"));
    assert!(findings.iter().all(|f| f.rule == Rule::R6Concurrency));

    // Two unjustified Relaxed sites (bare, and marker without a reason);
    // the same-line and preceding-line justifications are clean.
    let relaxed: Vec<_> = findings
        .iter()
        .filter(|f| f.message.contains("relaxed-ok"))
        .collect();
    assert_eq!(relaxed.len(), 2, "{findings:?}");
    assert!(relaxed.iter().all(|f| f.remedy == Remedy::JustifyComment));

    // Blocking primitives: Mutex ×2 (use + field), RwLock ×2, mpsc ×3
    // (use + signature + body), each allowlistable.
    for (token, expected) in [("mutex", 2), ("rwlock", 2), ("channel", 3)] {
        let hits = findings
            .iter()
            .filter(|f| f.allow_token == Some(token))
            .count();
        assert_eq!(hits, expected, "token {token}: {findings:?}");
    }

    // One uncommented unsafe; the SAFETY-commented one is clean.
    let unsafe_hits: Vec<_> = findings
        .iter()
        .filter(|f| f.message.contains("SAFETY"))
        .collect();
    assert_eq!(unsafe_hits.len(), 1, "{findings:?}");
    assert_eq!(unsafe_hits[0].remedy, Remedy::JustifyComment);

    assert_eq!(findings.len(), 10, "{findings:?}");
}

#[test]
fn r7_flags_allocations_only_inside_tagged_bodies() {
    let findings = lint_hot_path_alloc("fixtures/r7_alloc.rs", &fixture("r7_alloc.rs"));
    assert!(findings.iter().all(|f| f.rule == Rule::R7HotPathAlloc));
    assert!(findings.iter().all(|f| f.remedy == Remedy::Fix));
    // One violation per allocating construct in the tagged body; the
    // untagged fns, the prose mention, and the tagged test fn are exempt.
    for needle in [
        "Vec::new", "vec!", ".collect", ".to_vec", ".clone", "Box::new", "format!",
    ] {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "seeded `{needle}` violation not flagged: {findings:?}"
        );
    }
    assert_eq!(findings.len(), 7, "{findings:?}");
}

#[test]
fn clean_fixture_passes_every_rule() {
    let source = fixture("clean.rs");
    assert!(lint_no_panic("fixtures/clean.rs", &source).is_empty());
    assert!(lint_no_hash_collections("fixtures/clean.rs", &source).is_empty());
    assert!(lint_float_discipline("fixtures/clean.rs", &source).is_empty());
    assert!(lint_paper_refs("fixtures/clean.rs", &source).is_empty());
    assert!(lint_rng_discipline("fixtures/clean.rs", &source, false).is_empty());
    assert!(lint_concurrency("fixtures/clean.rs", &source).is_empty());
    assert!(lint_hot_path_alloc("fixtures/clean.rs", &source).is_empty());
}

/// Builds a throwaway workspace skeleton (every crate `lint_workspace`
/// scans, with empty lib sources) under the OS temp dir.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("xtask-lint-{}-{tag}", std::process::id()));
        if root.exists() {
            fs::remove_dir_all(&root).expect("clear stale temp workspace");
        }
        // Every crate any rule scans, derived from the rule constants so
        // the skeleton tracks future crate-list growth.
        let mut crates: Vec<&str> = Vec::new();
        for set in [R1_CRATES, R2_CRATES, R3_CRATES] {
            for krate in set {
                if !crates.contains(krate) {
                    crates.push(krate);
                }
            }
        }
        let vendored = VENDORED_CRATES.iter().map(|krate| ("vendor", krate));
        for (dir, krate) in crates.iter().map(|krate| ("crates", krate)).chain(vendored) {
            let src = root.join(dir).join(krate).join("src");
            fs::create_dir_all(&src).expect("create temp crate dir");
            fs::write(src.join("lib.rs"), "// empty\n").expect("write empty lib");
        }
        fs::create_dir_all(root.join("crates/xtask")).expect("create xtask dir");
        Self { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        fs::write(self.root.join(rel), contents).expect("write temp file");
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn workspace_scan_reports_seeded_violation_and_clean_tree_passes() {
    let ws = TempWorkspace::new("scan");
    let findings = lint_workspace(&ws.root).expect("lint clean tree");
    assert!(findings.is_empty(), "clean tree must pass: {findings:?}");

    ws.write(
        "crates/net/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint seeded tree");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::R1Panic);
    assert_eq!(findings[0].file, "crates/net/src/lib.rs");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn allowlist_justifies_exact_counts_and_flags_drift() {
    let ws = TempWorkspace::new("allow");
    ws.write(
        "crates/db/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
    );

    // Exact-count entry: the finding is justified, the gate passes.
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R1 crates/db/src/lib.rs unwrap 1 # legacy slot invariant\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint with exact allowlist");
    assert!(findings.is_empty(), "{findings:?}");

    // Slack entry (allows 3, only 1 remains): shrink-only rule fires.
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R1 crates/db/src/lib.rs unwrap 3 # legacy slot invariant\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint with slack allowlist");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Allowlist);
    assert!(findings[0].message.contains("slack entry"), "{findings:?}");

    // Stale entry (violation fixed, entry left behind): also a finding.
    ws.write("crates/db/src/lib.rs", "// fixed\n");
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R1 crates/db/src/lib.rs unwrap 1 # legacy slot invariant\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint with stale allowlist");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Allowlist);
    assert!(findings[0].message.contains("stale entry"), "{findings:?}");

    // Undocumented entry: allowlist syntax error surfaces as Err.
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R1 crates/db/src/lib.rs unwrap 1\n",
    );
    let err = lint_workspace(&ws.root).expect_err("undocumented entry must be rejected");
    assert!(err.contains("justification"), "{err}");
}

#[test]
fn allowlist_does_not_mask_count_growth() {
    let ws = TempWorkspace::new("growth");
    // Two unwraps, but only one is allowlisted: the gate must fail.
    ws.write(
        "crates/db/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n\
         pub fn g(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
    );
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R1 crates/db/src/lib.rs unwrap 1 # legacy slot invariant\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint grown tree");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::R1Panic && f.file == "crates/db/src/lib.rs"),
        "count growth past the allowlisted budget must fail: {findings:?}"
    );
}

#[test]
fn r5_allowlist_round_trip() {
    let ws = TempWorkspace::new("r5allow");
    ws.write(
        "crates/workload/src/lib.rs",
        "pub fn new_world(seed: u64) -> u64 {\n    \
             let _rng = ChaCha8Rng::seed_from_u64(seed);\n    \
             seed\n\
         }\n",
    );

    // Unallowlisted: one R5 finding carrying the allowlist token.
    let findings = lint_workspace(&ws.root).expect("lint seeded tree");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::R5RngDiscipline);
    assert_eq!(findings[0].allow_token, Some("seed_from_u64"));

    // Exact-count entry: the gate passes.
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R5 crates/workload/src/lib.rs seed_from_u64 1 # root-seed derivation\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint with R5 allowlist");
    assert!(findings.is_empty(), "{findings:?}");

    // Stale after the site is fixed: shrink-only rule fires.
    ws.write("crates/workload/src/lib.rs", "// fixed\n");
    let findings = lint_workspace(&ws.root).expect("lint with stale R5 entry");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::Allowlist);
    assert!(findings[0].message.contains("stale entry"), "{findings:?}");
}

#[test]
fn r5_seeding_modules_are_exempt_in_workspace_scan() {
    let ws = TempWorkspace::new("r5seed");
    // Write an ad-hoc seeding site into a designated seeding module: the
    // scan must not flag it (and the fixture derives the path from the
    // constant so renames keep the test honest).
    let module = R5_SEEDING_MODULES[0];
    ws.write(
        module,
        "pub fn slot_rng_probe(occasion_seed: u64, slot: u64) -> u64 {\n    \
             let _rng = ChaCha8Rng::seed_from_u64(occasion_seed ^ slot);\n    \
             occasion_seed\n\
         }\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint seeding module");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r6_allowlist_covers_locks_but_never_missing_justifications() {
    let ws = TempWorkspace::new("r6allow");
    ws.write(
        "crates/telemetry/src/lib.rs",
        "use std::sync::Mutex;\n\
         pub static SINK: Mutex<Option<u64>> = Mutex::new(None);\n",
    );

    // Two Mutex sites, allowlisted exactly: the gate passes.
    ws.write(
        "crates/xtask/lint-allowlist.txt",
        "R6 crates/telemetry/src/lib.rs mutex 2 # sink registration is off the hot path\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint with R6 allowlist");
    assert!(findings.is_empty(), "{findings:?}");

    // An unjustified Relaxed is NOT allowlistable: it must surface even
    // with a lock allowlist in place.
    ws.write(
        "crates/telemetry/src/lib.rs",
        "use std::sync::Mutex;\n\
         pub static SINK: Mutex<Option<u64>> = Mutex::new(None);\n\
         pub fn bump(c: &std::sync::atomic::AtomicU64) {\n    \
             c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);\n\
         }\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint with unjustified Relaxed");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::R6Concurrency);
    assert_eq!(findings[0].remedy, Remedy::JustifyComment);
}

/// R6's `// SAFETY:` check reaches the vendored keystream crate: a
/// commented `unsafe` there passes, an uncommented one is a finding.
#[test]
fn r6_scans_vendored_crates_for_uncommented_unsafe() {
    let ws = TempWorkspace::new("r6vendor");
    let commented = "#[allow(unsafe_code)]\n\
                     pub fn group_blocks(p: *const u32) -> u32 {\n    \
                         // SAFETY: the caller hands a valid, aligned pointer.\n    \
                         unsafe { *p }\n\
                     }\n";
    ws.write("vendor/rand_chacha/src/lib.rs", commented);
    let findings = lint_workspace(&ws.root).expect("lint commented vendored unsafe");
    assert!(findings.is_empty(), "{findings:?}");

    ws.write(
        "vendor/rand_chacha/src/lib.rs",
        &commented.replace("// SAFETY: the caller hands a valid, aligned pointer.", ""),
    );
    let findings = lint_workspace(&ws.root).expect("lint uncommented vendored unsafe");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::R6Concurrency);
    assert_eq!(findings[0].remedy, Remedy::JustifyComment);
    assert_eq!(findings[0].file, "vendor/rand_chacha/src/lib.rs");
    assert_eq!(findings[0].line, 4);
}

/// A vendored crate holds one `unsafe`: the keystream kernel's dispatch
/// in `group_blocks`. A second `unsafe` there, one in another function
/// (a second kernel call site) or an item-level `unsafe fn` is a
/// finding, SAFETY comment or not; test code is exempt.
#[test]
fn r6_allows_only_the_kernel_dispatch_unsafe_in_vendored_crates() {
    let (file, _) = R6_VENDORED_UNSAFE[0];
    let fixture = fixture("r6_vendored_unsafe.rs");
    let findings = lint_vendored_unsafe(file, &fixture);
    assert!(findings.iter().all(|f| f.rule == Rule::R6Concurrency));
    assert!(findings.iter().all(|f| f.remedy == Remedy::Fix));
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    let red: Vec<usize> = fixture
        .lines()
        .enumerate()
        .filter(|(_, line)| line.contains("// red"))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(lines, red, "{findings:?}");
    assert!(
        findings[0].message.contains("a second `unsafe`"),
        "{findings:?}"
    );
    assert!(
        findings[1].message.contains("`fn stream_blocks`"),
        "{findings:?}"
    );

    // The same source under another file name has no allowed site.
    let elsewhere = lint_vendored_unsafe("vendor/rand/src/lib.rs", &fixture);
    assert_eq!(elsewhere.len(), red.len() + 1, "{elsewhere:?}");

    // In the workspace scan: the dispatch alone is clean.
    let ws = TempWorkspace::new("r6vendorunsafe");
    let dispatch = "#[allow(unsafe_code)]\n\
                    fn group_blocks(s: &[u32; 16]) -> [[u32; 8]; 16] {\n    \
                        // SAFETY: the host was just seen to run AVX2.\n    \
                        unsafe { group_blocks_avx2(s) }\n\
                    }\n";
    ws.write(file, dispatch);
    let findings = lint_workspace(&ws.root).expect("lint the dispatch");
    assert!(findings.is_empty(), "{findings:?}");
    ws.write(
        file,
        &dispatch.replace("fn group_blocks", "fn stream_blocks"),
    );
    let findings = lint_workspace(&ws.root).expect("lint a second call site");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].file.as_str(), findings[0].line), (file, 4));
}

#[test]
fn r7_findings_surface_in_workspace_scan() {
    let ws = TempWorkspace::new("r7scan");
    ws.write(
        "crates/sampling/src/lib.rs",
        "/// xtask: no-alloc\n\
         pub fn hot(buf: &mut [u64]) -> u64 {\n    \
             let v = buf.to_vec();\n    \
             v[0]\n\
         }\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint tagged allocation");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::R7HotPathAlloc);
    assert_eq!(findings[0].line, 3);

    // A vendored crate in `VENDORED_CRATES` is held to its tags too.
    ws.write(
        "vendor/rand_chacha/src/lib.rs",
        "/// xtask: no-alloc\npub fn fill(out: &mut [u32]) {\n    let _ = vec![0u32; out.len()];\n}\n",
    );
    let findings = lint_workspace(&ws.root).expect("lint tagged vendored allocation");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert_eq!(findings[1].file, "vendor/rand_chacha/src/lib.rs");
    assert_eq!(findings[1].line, 3);
}
