//! The benchmark corpus.
//!
//! The paper evaluates SEANCE on five machines from the MCNC FSM benchmark
//! suite (Lisanke 1987): its running *test example*, *traffic*, *lion*,
//! *lion9* and *train11*. The original KISS files are not redistributable
//! here, so this module ships **reconstructions** with the canonical state,
//! input and output counts of each benchmark, built directly as normal-mode
//! Huffman flow tables (see `DESIGN.md`, "Substitutions"). Every table in this
//! module is normal mode, strongly connected and contains multiple-input
//! change transitions, so it exercises the same synthesis code paths as the
//! originals.
//!
//! Additional machines (`train4`, `mic3`, `redundant_traffic`) are provided
//! for the wider test-suite: a smaller chain machine, a three-input machine
//! with wide input transition cubes, and a machine with redundant states that
//! exercises the state-minimization step.

use crate::{FlowError, FlowTable, FlowTableBuilder};

/// Fill the output of every specified transient entry with the source state's
/// stable output (Moore-style association of outputs with the present state).
///
/// The MCNC machines specify an output on every transition; carrying the
/// source's output keeps the single-output-change principle (the output
/// changes only when the state does) and keeps behaviourally distinct states
/// distinguishable by the state-minimization step.
fn fill_outputs_from_source(table: &mut FlowTable) {
    let states: Vec<_> = table.states().collect();
    for s in states {
        let Some(out) = table.stable_output(s).cloned() else {
            continue;
        };
        for c in 0..table.num_columns() {
            let entry = table.entry(s, c);
            if entry.next.is_some() && entry.output.is_none() {
                let next = entry.next;
                table
                    .set_entry(s, c, next, Some(out.clone()))
                    .expect("entry coordinates are valid");
            }
        }
    }
}

/// The paper's running example: four states, two inputs, one output, with
/// several distance-2 input transitions.
pub fn test_example() -> FlowTable {
    let mut b = FlowTableBuilder::new("test_example", 2, 1);
    b.states(["A", "B", "C", "D"]);
    // Stable entries (state, input column, output).
    for (s, col, out) in [
        ("A", "00", "0"),
        ("A", "10", "0"),
        ("B", "01", "1"),
        ("C", "11", "1"),
        ("D", "10", "0"),
    ] {
        b.stable(s, col, out).expect("valid widths");
    }
    // Unstable entries.
    for (s, col, next) in [
        ("A", "01", "B"),
        ("A", "11", "C"),
        ("B", "00", "A"),
        ("B", "11", "C"),
        ("B", "10", "D"),
        ("C", "00", "A"),
        ("C", "01", "B"),
        ("C", "10", "D"),
        ("D", "00", "A"),
        ("D", "01", "B"),
        ("D", "11", "C"),
    ] {
        b.transition(s, col, next).expect("valid widths");
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// A traffic-light controller: four states, two inputs (car sensor, timer),
/// two outputs (highway / farm-road green).
pub fn traffic() -> FlowTable {
    let mut b = FlowTableBuilder::new("traffic", 2, 2);
    b.states(["HG", "HY", "FG", "FY"]);
    for (s, col, out) in [
        ("HG", "00", "10"),
        ("HG", "01", "10"),
        ("HG", "10", "10"),
        ("HY", "11", "11"),
        ("HY", "10", "11"),
        ("FG", "00", "01"),
        ("FG", "01", "01"),
        ("FY", "11", "00"),
        ("FY", "10", "00"),
    ] {
        b.stable(s, col, out).expect("valid widths");
    }
    for (s, col, next) in [
        ("HG", "11", "HY"),
        ("HY", "00", "FG"),
        ("HY", "01", "FG"),
        ("FG", "11", "FY"),
        ("FG", "10", "FY"),
        ("FY", "00", "HG"),
        ("FY", "01", "HG"),
    ] {
        b.transition(s, col, next).expect("valid widths");
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// The lion-in-a-cage machine: four states, two sensor inputs, one output
/// indicating whether the lion is outside the cage.
pub fn lion() -> FlowTable {
    let mut b = FlowTableBuilder::new("lion", 2, 1);
    b.states(["L0", "L1", "L2", "L3"]);
    for (s, col, out) in [
        ("L0", "00", "0"),
        ("L1", "01", "1"),
        ("L1", "11", "1"),
        ("L2", "10", "1"),
        ("L2", "00", "1"),
        ("L3", "01", "0"),
        ("L3", "11", "0"),
    ] {
        b.stable(s, col, out).expect("valid widths");
    }
    for (s, col, next) in [
        ("L0", "01", "L1"),
        ("L0", "11", "L1"),
        ("L0", "10", "L2"),
        ("L1", "00", "L0"),
        ("L1", "10", "L2"),
        ("L2", "01", "L3"),
        ("L2", "11", "L3"),
        ("L3", "00", "L0"),
        ("L3", "10", "L2"),
    ] {
        b.transition(s, col, next).expect("valid widths");
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// Build an incompletely specified "chain" machine of `n` states over two
/// inputs: state `i` is stable under column `i mod 4` and can move one step
/// forward or backward along the chain. Steps between columns `01↔10` and
/// `11↔00` are multiple-input changes.
fn chain_machine(name: &str, n: usize, output_one: impl Fn(usize) -> bool) -> FlowTable {
    let col_str = |i: usize| -> String {
        match i % 4 {
            0 => "00",
            1 => "01",
            2 => "10",
            _ => "11",
        }
        .to_string()
    };
    let mut b = FlowTableBuilder::new(name, 2, 1);
    let names: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
    b.states(names.clone());
    for (i, name_i) in names.iter().enumerate() {
        let out = if output_one(i) { "1" } else { "0" };
        b.stable(name_i, &col_str(i), out).expect("valid widths");
    }
    for i in 0..n {
        if i + 1 < n {
            b.transition(&names[i], &col_str(i + 1), &names[i + 1])
                .expect("valid widths");
        }
        if i > 0 {
            b.transition(&names[i], &col_str(i - 1), &names[i - 1])
                .expect("valid widths");
        }
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// The nine-state lion machine (incompletely specified chain).
pub fn lion9() -> FlowTable {
    chain_machine("lion9", 9, |i| (3..=6).contains(&i))
}

/// The eleven-state train machine (incompletely specified chain).
pub fn train11() -> FlowTable {
    chain_machine("train11", 11, |i| (4..=8).contains(&i))
}

/// The four-state train machine, completed with wrap-around transitions.
pub fn train4() -> FlowTable {
    let mut table = chain_machine("train4", 4, |i| i >= 2);
    // Add wrap-around transitions so the table is completely specified and has
    // additional multiple-input-change transitions.
    let s0 = table.state_by_name("S0").expect("state exists");
    let s3 = table.state_by_name("S3").expect("state exists");
    table
        .set_entry(s0, 0b11, Some(s3), None)
        .expect("valid entry");
    table
        .set_entry(s3, 0b00, Some(s0), None)
        .expect("valid entry");
    // S1 under 11 and S2 under 00 remain unspecified (incompletely specified
    // in just two cells).
    fill_outputs_from_source(&mut table);
    table
}

/// A three-input machine with wide (distance-3) input transition cubes.
pub fn mic3() -> FlowTable {
    let mut b = FlowTableBuilder::new("mic3", 3, 1);
    b.states(["A", "B", "C", "D"]);
    for (s, col, out) in [
        ("A", "000", "0"),
        ("B", "001", "0"),
        ("B", "010", "0"),
        ("B", "011", "0"),
        ("C", "111", "1"),
        ("D", "100", "1"),
        ("D", "101", "1"),
        ("D", "110", "1"),
    ] {
        b.stable(s, col, out).expect("valid widths");
    }
    let b_cols = ["001", "010", "011"];
    let d_cols = ["100", "101", "110"];
    for col in b_cols {
        b.transition("A", col, "B").expect("valid widths");
        b.transition("C", col, "B").expect("valid widths");
        b.transition("D", col, "B").expect("valid widths");
    }
    for col in d_cols {
        b.transition("A", col, "D").expect("valid widths");
        b.transition("B", col, "D").expect("valid widths");
        b.transition("C", col, "D").expect("valid widths");
    }
    for s in ["B", "C", "D"] {
        b.transition(s, "000", "A").expect("valid widths");
    }
    for s in ["A", "B", "D"] {
        b.transition(s, "111", "C").expect("valid widths");
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// The traffic controller with its first state duplicated; the duplicate is
/// equivalent to the original, so state minimization must merge it.
pub fn redundant_traffic() -> FlowTable {
    let mut b = FlowTableBuilder::new("redundant_traffic", 2, 2);
    b.states(["HG1", "HG2", "HY", "FG", "FY"]);
    for hg in ["HG1", "HG2"] {
        for (col, out) in [("00", "10"), ("01", "10"), ("10", "10")] {
            b.stable(hg, col, out).expect("valid widths");
        }
        b.transition(hg, "11", "HY").expect("valid widths");
    }
    for (s, col, out) in [
        ("HY", "11", "11"),
        ("HY", "10", "11"),
        ("FG", "00", "01"),
        ("FG", "01", "01"),
        ("FY", "11", "00"),
        ("FY", "10", "00"),
    ] {
        b.stable(s, col, out).expect("valid widths");
    }
    for (s, col, next) in [
        ("HY", "00", "FG"),
        ("HY", "01", "FG"),
        ("FG", "11", "FY"),
        ("FG", "10", "FY"),
        ("FY", "00", "HG1"),
        ("FY", "01", "HG2"),
    ] {
        b.transition(s, col, next).expect("valid widths");
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// A wide chain machine over `num_inputs` input bits: state `i` is stable
/// under the binary column `i mod 2^num_inputs` and steps one state forward or
/// backward along the chain. Consecutive binary columns frequently differ in
/// several bits (`0111 → 1000` flips all four), so the machine is rich in
/// multiple-input-change transitions of every distance up to `num_inputs`.
fn wide_chain_machine(name: &str, num_inputs: usize, n: usize) -> FlowTable {
    let columns = 1usize << num_inputs;
    let col_str = |i: usize| -> String {
        (0..num_inputs)
            .map(|b| {
                if (i % columns) >> (num_inputs - 1 - b) & 1 == 1 {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    };
    let mut b = FlowTableBuilder::new(name, num_inputs, 1);
    let names: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
    b.states(names.clone());
    for (i, name_i) in names.iter().enumerate() {
        let out = if i % 3 == 0 { "1" } else { "0" };
        b.stable(name_i, &col_str(i), out).expect("valid widths");
    }
    for i in 0..n {
        if i + 1 < n {
            b.transition(&names[i], &col_str(i + 1), &names[i + 1])
                .expect("valid widths");
        }
        if i > 0 {
            b.transition(&names[i], &col_str(i - 1), &names[i - 1])
                .expect("valid widths");
        }
    }
    let mut table = b.build().expect("benchmark is well formed");
    fill_outputs_from_source(&mut table);
    table
}

/// A 40-state chain machine over two inputs, built as a Step-3 stress shape:
/// its ~550 required dichotomies make the Tracey assignment the dominant
/// synthesis cost. The seed-era ordered-set engine needed 22 state variables
/// here (a 24-variable `(x, y)` space, beyond the dense-function limit); the
/// packed bounded engine finds 12-variable codes, which both pipelines
/// handle. The chain is also don't-care-heavy and therefore redundant:
/// bounded Step-2 reduction merges it to ~22 states.
pub fn chain40() -> FlowTable {
    chain_machine("chain40", 40, |i| (10..=29).contains(&i))
}

/// A 44-state chain closed into a ring (wrap-around transitions), adding two
/// more multiple-input-change transitions and the densest dichotomy set of
/// the suite (~700 required dichotomies). Being a sparsely specified
/// one-output ring, Step-2 reduction collapses it dramatically.
pub fn ring44() -> FlowTable {
    let mut table = chain_machine("ring44", 44, |i| i % 4 == 0);
    let s0 = table.state_by_name("S0").expect("state exists");
    let last = table.state_by_name("S43").expect("state exists");
    // S43 is stable under column 3 (11); the wrap to S0 fires under column 0
    // (00) and vice versa — both distance-2 multiple-input changes.
    table
        .set_entry(last, 0b00, Some(s0), None)
        .expect("valid entry");
    table
        .set_entry(s0, 0b11, Some(last), None)
        .expect("valid entry");
    fill_outputs_from_source(&mut table);
    table
}

/// A 36-state chain over **four** inputs (16 columns), with multiple-input
/// changes up to distance 4 and ~580 required dichotomies across its 16
/// columns.
pub fn wide36() -> FlowTable {
    wide_chain_machine("wide36", 4, 36)
}

/// The five machines reported in Table 1 of the paper, in table order.
pub fn paper_suite() -> Vec<FlowTable> {
    vec![test_example(), traffic(), lion(), lion9(), train11()]
}

/// Large (40-state-class) machines stressing the scalable engines: hundreds
/// of required dichotomies for the bounded Step-3 assignment, big compatible
/// graphs for the bounded Step-2 reducer, and `(x, y)` spaces that demand
/// the sparse cover-based pipeline unless the assignment keeps codes short.
/// Kept out of [`all`] so small-space test loops stay fast.
pub fn large_suite() -> Vec<FlowTable> {
    vec![chain40(), ring44(), wide36()]
}

/// Every benchmark shipped with this crate.
pub fn all() -> Vec<FlowTable> {
    vec![
        test_example(),
        traffic(),
        lion(),
        lion9(),
        train11(),
        train4(),
        mic3(),
        redundant_traffic(),
    ]
}

/// Import a single external KISS2 benchmark file.
///
/// The machine is named after the file stem (`benchmarks/dk15.kiss` becomes
/// `dk15`), matching MCNC convention. The file must describe a normal-mode
/// flow table; parse errors are reported with their 1-based line number and
/// I/O failures as [`FlowError::Io`].
pub fn import_kiss_file(path: &std::path::Path) -> Result<FlowTable, FlowError> {
    let text = std::fs::read_to_string(path).map_err(|e| FlowError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "imported".to_string());
    crate::kiss::parse(&text, &name)
}

/// Import every `*.kiss` file in `dir`, sorted by file name so the corpus
/// order is stable across platforms.
///
/// This is the entry point for checking external MCNC-style benchmark sets
/// into the repository's `benchmarks/` directory: drop the `.kiss` files in
/// and every consumer (tests, the fuzz replayer, `bench_json`) sees the same
/// machines in the same order.
pub fn import_kiss_dir(dir: &std::path::Path) -> Result<Vec<FlowTable>, FlowError> {
    let entries = std::fs::read_dir(dir).map_err(|e| FlowError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "kiss"))
        .collect();
    paths.sort();
    paths.iter().map(|p| import_kiss_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;

    #[test]
    fn paper_suite_has_five_machines_in_table_order() {
        let names: Vec<String> = paper_suite().iter().map(|t| t.name().to_string()).collect();
        assert_eq!(
            names,
            vec!["test_example", "traffic", "lion", "lion9", "train11"]
        );
    }

    #[test]
    fn all_benchmarks_are_acceptable_inputs() {
        for table in all() {
            let report = validate::validate(&table);
            assert!(
                report.is_acceptable(),
                "benchmark {} failed validation: {report:?}",
                table.name()
            );
        }
    }

    #[test]
    fn all_benchmarks_have_multiple_input_changes() {
        for table in all() {
            assert!(
                !table.multiple_input_change_transitions().is_empty(),
                "benchmark {} has no multiple-input-change transitions",
                table.name()
            );
        }
    }

    #[test]
    fn state_counts_match_benchmark_names() {
        assert_eq!(test_example().num_states(), 4);
        assert_eq!(traffic().num_states(), 4);
        assert_eq!(lion().num_states(), 4);
        assert_eq!(lion9().num_states(), 9);
        assert_eq!(train11().num_states(), 11);
        assert_eq!(train4().num_states(), 4);
        assert_eq!(redundant_traffic().num_states(), 5);
    }

    #[test]
    fn completeness_flags() {
        assert!(test_example().is_completely_specified());
        assert!(traffic().is_completely_specified());
        assert!(lion().is_completely_specified());
        assert!(!lion9().is_completely_specified());
        assert!(!train11().is_completely_specified());
        assert!(mic3().is_completely_specified());
    }

    #[test]
    fn large_suite_tables_are_valid_and_mic_rich() {
        for table in large_suite() {
            let report = validate::validate(&table);
            assert!(
                report.is_acceptable(),
                "benchmark {} failed validation: {report:?}",
                table.name()
            );
            assert!(
                !table.multiple_input_change_transitions().is_empty(),
                "benchmark {} has no multiple-input-change transitions",
                table.name()
            );
        }
        assert_eq!(chain40().num_states(), 40);
        assert_eq!(ring44().num_states(), 44);
        assert_eq!(wide36().num_states(), 36);
        assert_eq!(wide36().num_inputs(), 4);
    }

    #[test]
    fn wide36_has_distance_four_transitions() {
        let wide = wide36()
            .multiple_input_change_transitions()
            .into_iter()
            .filter(|t| t.input_distance() == 4)
            .count();
        assert!(wide > 0);
    }

    #[test]
    fn mic3_has_distance_three_transitions() {
        let wide = mic3()
            .multiple_input_change_transitions()
            .into_iter()
            .filter(|t| t.input_distance() == 3)
            .count();
        assert!(wide > 0);
    }
}
