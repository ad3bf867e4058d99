//! Integration tests for the KISS2 interchange path: every benchmark can be
//! exported, re-imported and synthesized to an identical machine.

use fantom_flow::{benchmarks, kiss, validate};
use seance::{synthesize_sparse, SynthesisOptions};

fn table1_options() -> SynthesisOptions {
    SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    }
}

#[test]
fn every_benchmark_round_trips_through_kiss2() {
    for table in benchmarks::all() {
        let text = kiss::write(&table);
        let back = kiss::parse(&text, table.name()).expect("round trip parses");
        assert_eq!(back.num_states(), table.num_states(), "{}", table.name());
        assert_eq!(back.num_inputs(), table.num_inputs());
        assert_eq!(back.num_outputs(), table.num_outputs());
        for s in table.states() {
            let name = table.state_name(s);
            let s2 = back.state_by_name(name).expect("state preserved");
            for c in 0..table.num_columns() {
                let next_a = table
                    .next_state(s, c)
                    .map(|t| table.state_name(t).to_string());
                let next_b = back
                    .next_state(s2, c)
                    .map(|t| back.state_name(t).to_string());
                assert_eq!(next_a, next_b, "{}: ({name}, {c})", table.name());
                assert_eq!(
                    table.output(s, c),
                    back.output(s2, c),
                    "{}: ({name}, {c})",
                    table.name()
                );
            }
        }
    }
}

#[test]
fn reparsed_tables_stay_valid_and_synthesize_identically() {
    for table in benchmarks::paper_suite() {
        let text = kiss::write(&table);
        let back = kiss::parse(&text, table.name()).expect("round trip parses");
        assert!(
            validate::validate(&back).is_acceptable(),
            "{}",
            table.name()
        );

        let a = synthesize_sparse(&table, &table1_options()).expect("original synthesizes");
        let b = synthesize_sparse(&back, &table1_options()).expect("reparsed synthesizes");
        assert_eq!(a.depth, b.depth, "{}", table.name());
        assert_eq!(
            a.hazards.hazard_state_count(),
            b.hazards.hazard_state_count()
        );
    }
}

#[test]
fn kiss_parser_handles_the_mcnc_dialect() {
    // Don't-care inputs, dash outputs, comments, reset state and .e terminator.
    let text = "\
# a tiny fragment in the MCNC dialect
.i 2
.o 1
.s 2
.p 5
.r idle
-0 idle idle 0
01 idle busy 0
-1 busy busy 1
00 busy idle 1
.e
";
    let table = kiss::parse(text, "fragment").expect("dialect parses");
    assert_eq!(table.num_states(), 2);
    let idle = table.state_by_name("idle").expect("reset state present");
    assert_eq!(idle.index(), 0, "reset state must come first");
    assert!(table.is_stable(idle, 0b00));
    assert!(table.is_stable(idle, 0b10));
    let busy = table.state_by_name("busy").expect("state parsed");
    assert!(table.is_stable(busy, 0b01));
    assert!(table.is_stable(busy, 0b11));
}

#[test]
fn malformed_kiss_inputs_are_rejected_with_line_numbers() {
    let missing_field = ".i 1\n.o 1\n0 a a\n";
    let err = kiss::parse(missing_field, "bad").unwrap_err();
    assert!(err.to_string().contains("line 3"), "{err}");

    let wrong_width = ".i 2\n.o 1\n0 a a 0\n";
    assert!(kiss::parse(wrong_width, "bad").is_err());

    let missing_directive = "00 a a 0\n";
    assert!(kiss::parse(missing_directive, "bad").is_err());
}
