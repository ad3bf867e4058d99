//! Golden state codes for the whole checked-in corpus.
//!
//! Step 3's candidate growth visits the dichotomies by id and the selection
//! breaks ties by pool position, so any change to dichotomy order, candidate
//! growth or covering can move a code without failing a validity check.
//! `tests/golden/state_codes.txt` pins the codes `synthesize_sparse` returns
//! for every corpus machine — `benchmarks::all()`, `large_suite()`, the
//! `benchmarks/*.kiss` grid files and the `tests/fuzz_regressions/` pins —
//! under both option profiles, with Step 2 on and off. One line per
//! configuration:
//!
//! ```text
//! <profile> step2=<on|off> <machine> <num_vars> <code of state 0> <code of state 1> ...
//! ```
//!
//! The file is plain text so a moved code shows in the diff. The two
//! profiles are separate tests so the harness runs them in parallel.

use std::path::Path;

use fantom_flow::{benchmarks, FlowTable};
use seance::{synthesize_sparse, SynthesisOptions};

fn corpus() -> Vec<FlowTable> {
    let dir = |relative: &str| Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    let mut tables = benchmarks::all();
    tables.extend(benchmarks::large_suite());
    tables.extend(benchmarks::import_kiss_dir(&dir("benchmarks")).expect("grid files import"));
    tables.extend(
        benchmarks::import_kiss_dir(&dir("tests/fuzz_regressions")).expect("fuzz pins import"),
    );
    tables
}

/// The golden lines of one profile, in corpus order, Step 2 on then off.
fn code_lines(profile: &str, options: &SynthesisOptions) -> Vec<String> {
    let mut lines = Vec::new();
    for table in corpus() {
        for (step2, minimize_states) in [("on", true), ("off", false)] {
            let options = SynthesisOptions {
                minimize_states,
                ..*options
            };
            let result = synthesize_sparse(&table, &options)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            let mut line = format!(
                "{profile} step2={step2} {} {}",
                table.name(),
                result.assignment.num_vars()
            );
            for code in result.assignment.codes() {
                line.push(' ');
                line.push_str(&code.to_string());
            }
            lines.push(line);
        }
    }
    lines
}

fn assert_matches_golden(profile: &str, options: &SynthesisOptions) {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/state_codes.txt"),
    )
    .expect("golden state codes");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| l.split(' ').next() == Some(profile))
        .collect();
    let actual = code_lines(profile, options);
    assert_eq!(actual.len(), 64, "{profile}: 32 machines x Step 2 on/off");
    assert_eq!(actual.len(), expected.len(), "{profile}: golden line count");
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "{profile}: state codes moved");
    }
}

#[test]
fn default_profile_codes_match_golden() {
    assert_matches_golden("default", &SynthesisOptions::default());
}

#[test]
fn large_machine_profile_codes_match_golden() {
    assert_matches_golden("large", &SynthesisOptions::for_large_machines());
}
