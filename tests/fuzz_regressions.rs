//! Replay of the checked-in fuzz-regression corpus and the external-style
//! benchmark set through the synthesis pipeline and its dense oracle.
//!
//! `tests/fuzz_regressions/` holds the pinned shrunk shapes from fuzz runs
//! (all-clean so far: each file is a minimal table that still carries a
//! multiple-input-change transition). Every checked-in KISS2 file — here and
//! in `benchmarks/` — goes through `seance::fuzz::check_table`: synthesis
//! under the large-machine options, every cover checked against the dense
//! oracle functions, and a validation campaign. A bug fixed once stays fixed.

use std::path::Path;

use fantom_flow::{benchmarks, kiss};
use seance::fuzz::{check_table, regression_corpus};

fn repo_dir(relative: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

#[test]
fn regression_corpus_replays_clean_through_both_pipelines() {
    let tables =
        benchmarks::import_kiss_dir(&repo_dir("tests/fuzz_regressions")).expect("corpus imports");
    assert!(
        tables.len() >= 10,
        "regression corpus must pin at least 10 shapes, found {}",
        tables.len()
    );
    for table in &tables {
        check_table(table, 4).unwrap_or_else(|msg| panic!("{}: {msg}", table.name()));
    }
}

#[test]
fn benchmark_grid_replays_clean_through_both_pipelines() {
    let tables = benchmarks::import_kiss_dir(&repo_dir("benchmarks")).expect("benchmarks import");
    assert!(
        tables.len() >= 9,
        "benchmarks/ must hold the 3x3 grid, found {}",
        tables.len()
    );
    for table in &tables {
        let outcome = check_table(table, 2).unwrap_or_else(|msg| panic!("{}: {msg}", table.name()));
        assert!(outcome.differential, "{}: oracle skipped", table.name());
    }
}

/// The checked-in pin files are byte-identical to what the generator +
/// shrinker produce today — the corpus regenerates with
/// `cargo run --release --example fuzz -- --emit-corpus tests/fuzz_regressions`,
/// and any drift in the generator's stream is an intentional contract break
/// that must come with regenerated files.
#[test]
fn pinned_corpus_matches_regeneration() {
    for table in regression_corpus() {
        let path = repo_dir("tests/fuzz_regressions").join(format!("{}.kiss", table.name()));
        let checked_in =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            checked_in,
            kiss::write(&table),
            "{} drifted from the generator",
            table.name()
        );
    }
}
