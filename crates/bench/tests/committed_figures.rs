//! The SVG figures committed under `results/` are what `exp_plots`
//! renders from the JSON results committed beside them: the binary runs
//! in a scratch directory holding copies of `results/*_full.json`, and
//! every figure it writes must equal the committed one byte for byte.
//! A figure that drifts from its data (a re-run that rewrote the JSON but
//! not the SVG, or a renderer change) fails here by name.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The files in `dir` whose names end in `suffix`, sorted by name.
fn files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_str().is_some_and(|name| name.ends_with(suffix)))
        .collect();
    found.sort();
    found
}

fn name(path: &Path) -> String {
    path.file_name().unwrap().to_string_lossy().into_owned()
}

#[test]
fn committed_figures_are_what_exp_plots_renders_from_the_committed_results() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let scratch = std::env::temp_dir().join(format!("digest-exp-plots-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(scratch.join("results")).unwrap();
    for json in files(&committed, "_full.json") {
        fs::copy(&json, scratch.join("results").join(name(&json))).unwrap();
    }

    let run = Command::new(env!("CARGO_BIN_EXE_exp_plots"))
        .args(["--scale", "full"])
        .current_dir(&scratch)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "exp_plots failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    let rendered = files(&scratch.join("results"), ".svg");
    let figures = files(&committed, "_full.svg");
    assert_eq!(
        rendered.iter().map(|p| name(p)).collect::<Vec<_>>(),
        figures.iter().map(|p| name(p)).collect::<Vec<_>>(),
        "exp_plots renders exactly the committed figures"
    );
    assert!(!figures.is_empty());
    let stale: Vec<String> = rendered
        .iter()
        .zip(&figures)
        .filter(|(new, old)| fs::read(new).unwrap() != fs::read(old).unwrap())
        .map(|(new, _)| name(new))
        .collect();
    fs::remove_dir_all(&scratch).unwrap();
    assert!(
        stale.is_empty(),
        "committed figures differ from their re-render (regenerate with \
         `cargo run --release -p digest-bench --bin exp_plots -- --scale full`): {stale:?}"
    );
}
