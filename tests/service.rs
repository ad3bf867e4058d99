//! Integration tests for the batch synthesis service: determinism across
//! worker counts, cache-hit correctness on relabeled resubmissions,
//! cross-batch cache persistence, and invalid submissions.
//!
//! Every served result is checked against the table that was submitted
//! ([`assert_serves`]): its reduced table must simulate the submission, and
//! every cover must implement the functions derived from that reduced table.

use std::collections::HashSet;

use fantom_flow::canonical::{canonicalize, relabel, CanonicalOptions};
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{benchmarks, Bits, FlowTable, FlowTableBuilder, StateId};
use seance::service::{CacheStats, CacheStatus};
use seance::{
    synthesize_many, synthesize_sparse, ServiceOptions, SpecifiedTable, SynthesisOutcome,
    SynthesisService,
};

/// A deterministic permutation of `0..n` drawn from an xorshift stream.
fn permutation(rng: &mut u64, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let j = (*rng % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A randomly state/input/output-relabeled copy of `table`.
fn relabeled_copy(table: &FlowTable, rng: &mut u64, name: &str) -> FlowTable {
    let sm = permutation(rng, table.num_states());
    let im = permutation(rng, table.num_inputs());
    let om = permutation(rng, table.num_outputs());
    relabel(table, &sm, &im, &om, name)
}

/// The small corpus plus one generated 3-output machine. Every corpus
/// machine has at most 2 outputs, where an output permutation is its own
/// inverse; the third output tells the two apart.
fn corpus() -> Vec<FlowTable> {
    let mut tables = benchmarks::all();
    tables.push(generate(&GeneratorOptions {
        states: 6,
        outputs: 3,
        ..GeneratorOptions::default()
    }));
    tables
}

/// A mixed batch: the corpus plus a relabeled copy of each machine.
fn mixed_batch() -> Vec<FlowTable> {
    let mut rng = 0x5eed_cafe_f00d_u64;
    let mut batch = corpus();
    let copies: Vec<FlowTable> = batch
        .iter()
        .map(|t| relabeled_copy(t, &mut rng, &format!("{}_resub", t.name())))
        .collect();
    batch.extend(copies);
    batch
}

/// Whether `reduced` simulates `submitted` from some reduced state `r0`: the
/// search over pairs (submitted state, reduced state) from `(0, r0)`, which
/// follows the specified next states column by column, meets every
/// specified submitted entry with a specified reduced entry in the same
/// column, and the reduced output equals the submitted one bit for bit
/// wherever the submitted entry gives an output. Submitted tables are
/// strongly connected, so the search must reach every submitted state.
fn simulates(submitted: &FlowTable, reduced: &FlowTable) -> bool {
    submitted.num_inputs() == reduced.num_inputs()
        && submitted.num_outputs() == reduced.num_outputs()
        && (0..reduced.num_states()).any(|r0| simulates_from(submitted, reduced, r0))
}

fn simulates_from(submitted: &FlowTable, reduced: &FlowTable, r0: usize) -> bool {
    let mut seen = HashSet::from([(0usize, r0)]);
    let mut stack = vec![(0usize, r0)];
    while let Some((s, r)) = stack.pop() {
        for c in 0..submitted.num_columns() {
            let sub = submitted.entry(StateId(s), c);
            if sub.is_unspecified() {
                continue;
            }
            let red = reduced.entry(StateId(r), c);
            if red.is_unspecified() {
                return false;
            }
            if sub.output.is_some() && red.output != sub.output {
                return false;
            }
            if let Some(t) = sub.next {
                let Some(u) = red.next else {
                    return false;
                };
                if seen.insert((t.index(), u.index())) {
                    stack.push((t.index(), u.index()));
                }
            }
        }
    }
    let reached: HashSet<usize> = seen.iter().map(|&(s, _)| s).collect();
    reached.len() == submitted.num_states()
}

/// `outcome` is a correct answer for `submitted`: it carries the submitted
/// name and state count, its reduced table simulates the submitted table
/// (see [`simulates`]), its assignment is valid for that reduced table, and
/// every served cover implements the function derived from scratch for it.
/// Together these tie the served covers to the submitted labels.
fn assert_serves(submitted: &FlowTable, outcome: &SynthesisOutcome) {
    let name = submitted.name();
    assert_eq!(outcome.name, name);
    let served = outcome
        .result
        .as_ref()
        .expect("valid submission synthesizes");
    assert_eq!(served.name, name);
    assert_eq!(served.states_before, submitted.num_states(), "{name}");
    assert!(
        simulates(submitted, &served.reduced_table),
        "{name} ({:?}): the served reduced table does not simulate the submitted table",
        served.cache
    );

    served
        .assignment
        .verify(&served.reduced_table)
        .expect("assignment valid for the served reduced table");
    let spec = SpecifiedTable::new(served.reduced_table.clone(), served.assignment.clone())
        .expect("spec builds");
    let outputs = seance::outputs::generate_covers(&spec).expect("output covers");
    for (b, z) in outputs.z.iter().enumerate() {
        assert!(
            z.implemented_by(&served.outputs.z_covers[b]),
            "{name}: Z{} cover",
            b + 1
        );
    }
    assert!(
        outputs.ssd.implemented_by(&served.outputs.ssd_cover),
        "{name}: SSD cover"
    );
    let hazards = seance::hazard::analyze(&spec);
    let equations = seance::fsv::generate_covers(&spec, &hazards).expect("fsv covers");
    assert!(
        equations.fsv.implemented_by(&served.factored.fsv_cover),
        "{name}: fsv cover"
    );
    for (i, y) in equations.y.iter().enumerate() {
        assert!(
            y.implemented_by(&served.factored.y_covers[i]),
            "{name}: Y{} cover",
            i + 1
        );
    }
}

/// [`assert_serves`] on every outcome of a batch.
fn assert_batch_serves(batch: &[FlowTable], outcomes: &[SynthesisOutcome]) {
    assert_eq!(batch.len(), outcomes.len());
    for (table, outcome) in batch.iter().zip(outcomes) {
        assert_serves(table, outcome);
    }
}

/// The full outcome rendering used for byte-identity comparisons: report
/// line plus every synthesized equation.
fn full_render(outcomes: &[seance::SynthesisOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&o.report_line());
        out.push('\n');
        if let Ok(r) = &o.result {
            out.push_str(&r.render_equations());
        }
    }
    out
}

/// Batch output is byte-identical for 1, 2, and 8 workers, with the cache on
/// and off: sharding and cache races must never leak into results.
#[test]
fn batch_output_is_byte_identical_across_worker_counts() {
    let batch = mixed_batch();
    for cache in [true, false] {
        let renders: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&parallelism| {
                let outcomes = synthesize_many(
                    &batch,
                    &ServiceOptions {
                        parallelism,
                        cache,
                        ..ServiceOptions::default()
                    },
                );
                assert_batch_serves(&batch, &outcomes);
                full_render(&outcomes)
            })
            .collect();
        assert_eq!(renders[0], renders[1], "cache={cache}: 1 vs 2 workers");
        assert_eq!(renders[0], renders[2], "cache={cache}: 1 vs 8 workers");
    }
}

/// Cache hits return *correct* results for the submitted labeling, not just
/// the cached one: each hit serves its submitted table (see
/// [`assert_serves`]), and the relabeling-invariant metrics match the
/// original's.
#[test]
fn cache_hits_verify_against_the_submitted_table() {
    let mut rng = 0xdead_beef_0451_u64;
    let service = SynthesisService::new(ServiceOptions {
        parallelism: 1,
        ..ServiceOptions::default()
    });
    for table in corpus() {
        let copy = relabeled_copy(&table, &mut rng, &format!("{}_iso", table.name()));
        let batch = [table.clone(), copy];
        let outcomes = service.synthesize_many(&batch);
        assert_batch_serves(&batch, &outcomes);
        let original = outcomes[0].result.as_ref().expect("original synthesizes");
        let hit = outcomes[1]
            .result
            .as_ref()
            .expect("resubmission synthesizes");
        assert_eq!(original.cache, CacheStatus::Miss, "{}", table.name());
        assert_eq!(hit.cache, CacheStatus::Hit, "{}", table.name());

        // Relabeling-invariant metrics agree with the original submission.
        assert_eq!(hit.depth, original.depth, "{}", table.name());
        assert_eq!(
            hit.hazard_state_count,
            original.hazard_state_count,
            "{}",
            table.name()
        );
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits, corpus().len());
    assert_eq!(stats.misses, corpus().len());
}

/// A persistent service answers a resubmitted batch entirely from the cache,
/// and the second batch's output is byte-identical to the first.
#[test]
fn resubmitted_batch_is_all_hits_and_byte_identical() {
    let batch = benchmarks::all();
    let service = SynthesisService::new(ServiceOptions::default());
    let first = service.synthesize_many(&batch);
    assert_batch_serves(&batch, &first);
    let misses = service.cache_stats().misses;
    assert_eq!(misses, batch.len());

    let second = service.synthesize_many(&batch);
    assert_batch_serves(&batch, &second);
    assert_eq!(full_render(&first), full_render(&second));
    let stats = service.cache_stats();
    assert_eq!(stats.misses, misses, "no new misses on resubmission");
    assert_eq!(stats.hits, batch.len());
    for o in &second {
        assert_eq!(o.result.as_ref().unwrap().cache, CacheStatus::Hit);
    }
}

/// Eviction pressure never changes results: a service bounded to two cache
/// entries produces byte-identical batch output to an unbounded one, across
/// worker counts, and the cache actually stays within its bound.
#[test]
fn bounded_cache_output_is_byte_identical_under_eviction_pressure() {
    let batch = mixed_batch();
    let unbounded = full_render(&synthesize_many(
        &batch,
        &ServiceOptions {
            parallelism: 1,
            ..ServiceOptions::default()
        },
    ));
    for parallelism in [1usize, 2, 8] {
        let service = SynthesisService::new(ServiceOptions {
            parallelism,
            max_cache_entries: 2,
            ..ServiceOptions::default()
        });
        let outcomes = service.synthesize_many(&batch);
        assert_batch_serves(&batch, &outcomes);
        assert_eq!(
            unbounded,
            full_render(&outcomes),
            "parallelism={parallelism}"
        );
        let stats = service.cache_stats();
        assert!(
            stats.entries <= 2,
            "parallelism={parallelism}: entries = {}",
            stats.entries
        );
    }
}

/// The cache-off service path agrees with a plain sequential
/// `synthesize_sparse` loop on reports and equations.
#[test]
fn service_agrees_with_sequential_sparse_loop() {
    let batch = mixed_batch();
    let options = ServiceOptions {
        cache: false,
        ..ServiceOptions::default()
    };
    let outcomes = synthesize_many(&batch, &options);
    assert_batch_serves(&batch, &outcomes);
    for (t, o) in batch.iter().zip(&outcomes) {
        let direct = synthesize_sparse(t, &options.synthesis).expect("direct run");
        let served = o.result.as_ref().expect("service run");
        assert_eq!(served.cache, CacheStatus::Uncached);
        assert_eq!(served.render_equations(), direct.render_equations());
        assert_eq!(served.y_literals(), direct.y_literals());
        assert_eq!(served.depth, direct.depth);
    }
}

/// One two-state table per way to fail Step 1's acceptance test, with the
/// exact report line each one gets. A state without a stable column cannot
/// be entered in normal mode, so that table is also not strongly connected.
fn invalid_tables() -> Vec<(FlowTable, &'static str)> {
    // A -> B under column 1, but B is not stable there (and vice versa).
    let mut b = FlowTableBuilder::new("bad_normal_mode", 1, 1);
    b.states(["A", "B"]);
    b.stable("A", "0", "0").unwrap();
    b.stable("B", "0", "1").unwrap();
    b.transition("A", "1", "B").unwrap();
    b.transition("B", "1", "A").unwrap();
    let normal_mode = b.build().unwrap();

    // Two states, each stable everywhere: no transition joins them.
    let mut b = FlowTableBuilder::new("bad_disconnected", 1, 1);
    b.states(["A", "B"]);
    for state in ["A", "B"] {
        b.stable(state, "0", "0").unwrap();
        b.stable(state, "1", "1").unwrap();
    }
    let disconnected = b.build().unwrap();

    // B is stable nowhere; it only leaves for A.
    let mut b = FlowTableBuilder::new("bad_no_stable_column", 1, 1);
    b.states(["A", "B"]);
    b.stable("A", "0", "0").unwrap();
    b.stable("A", "1", "0").unwrap();
    b.transition("B", "0", "A").unwrap();
    b.transition("B", "1", "A").unwrap();
    let no_stable = b.build().unwrap();

    vec![
        (normal_mode, NORMAL_MODE_LINE),
        (disconnected, DISCONNECTED_LINE),
        (no_stable, NO_STABLE_LINE),
    ]
}

const NORMAL_MODE_LINE: &str = r#"report bad_normal_mode status=error message="invalid flow table: bad_normal_mode: normal-mode violations: 2, strongly connected: true, states without stable column: 0""#;
const DISCONNECTED_LINE: &str = r#"report bad_disconnected status=error message="invalid flow table: bad_disconnected: normal-mode violations: 0, strongly connected: false, states without stable column: 0""#;
const NO_STABLE_LINE: &str = r#"report bad_no_stable_column status=error message="invalid flow table: bad_no_stable_column: normal-mode violations: 0, strongly connected: false, states without stable column: 1""#;

/// Invalid submissions get their exact error report, twice in one batch and
/// once more into a warm service, with the cache on and off and on 1 and 2
/// workers. They neither disturb the valid machines of the batch nor touch
/// the cache: the counters stay as the valid machines left them, and a
/// service bounded to the two valid machines still holds both.
#[test]
fn invalid_submissions_keep_their_errors_and_leave_the_cache_alone() {
    let invalid = invalid_tables();
    let valid = [benchmarks::lion(), benchmarks::traffic()];
    let mut batch = vec![valid[0].clone()];
    batch.extend(invalid.iter().map(|(t, _)| t.clone()));
    batch.push(valid[1].clone());
    batch.extend(invalid.iter().map(|(t, _)| t.clone()));
    let resubmitted: Vec<FlowTable> = invalid.iter().map(|(t, _)| t.clone()).collect();

    for cache in [true, false] {
        for parallelism in [1usize, 2] {
            let options = ServiceOptions {
                parallelism,
                cache,
                max_cache_entries: 2,
                ..ServiceOptions::default()
            };
            let context = format!("cache={cache} parallelism={parallelism}");
            let alone: Vec<String> = valid
                .iter()
                .map(|t| full_render(&synthesize_many(std::slice::from_ref(t), &options)))
                .collect();

            let service = SynthesisService::new(options);
            let outcomes = service.synthesize_many(&batch);
            assert_eq!(full_render(&outcomes[..1]), alone[0], "{context}");
            assert_eq!(full_render(&outcomes[4..5]), alone[1], "{context}");
            assert_serves(&batch[0], &outcomes[0]);
            assert_serves(&batch[4], &outcomes[4]);
            for (k, (_, line)) in invalid.iter().enumerate() {
                assert_eq!(outcomes[1 + k].report_line(), *line, "{context}");
                assert_eq!(outcomes[5 + k].report_line(), *line, "{context}");
            }
            let expected = if cache {
                CacheStats {
                    hits: 0,
                    misses: 2,
                    entries: 2,
                }
            } else {
                CacheStats::default()
            };
            assert_eq!(service.cache_stats(), expected, "{context}");

            let again = service.synthesize_many(&resubmitted);
            for ((_, line), outcome) in invalid.iter().zip(&again) {
                assert_eq!(outcome.report_line(), *line, "{context}");
            }
            assert_eq!(service.cache_stats(), expected, "{context}");

            if cache {
                let warm = service.synthesize_many(&valid);
                assert_batch_serves(&valid, &warm);
                for o in &warm {
                    assert_eq!(o.result.as_ref().unwrap().cache, CacheStatus::Hit);
                }
                let stats = service.cache_stats();
                assert_eq!((stats.hits, stats.misses), (2, 2), "{context}");
            }
        }
    }
}

/// A two-state, one-input table with 65 outputs: A is stable under column 0
/// with output bit `a_bit` set, B under column 1 with bit 0 set.
fn wide_output_table(name: &str, a_bit: usize) -> FlowTable {
    let mut table = FlowTable::new(name, 1, 65, vec!["A".into(), "B".into()]).unwrap();
    let output = |bit: usize| {
        let mut o = Bits::zeros(65);
        o.set_bit(bit, true);
        Some(o)
    };
    let (a, b) = (StateId(0), StateId(1));
    table.set_entry(a, 0, Some(a), output(a_bit)).unwrap();
    table.set_entry(a, 1, Some(b), None).unwrap();
    table.set_entry(b, 1, Some(b), output(0)).unwrap();
    table.set_entry(b, 0, Some(a), None).unwrap();
    table
}

/// Outputs wider than 64 bits keep every bit in the canonical signature.
/// The two tables differ only in whether A sets output bit 0 (the bit B
/// sets too) or bit 64, so no relabeling maps one onto the other; when the
/// signature folded bit 64 onto bit 0 they collided, and the second was
/// served uncached.
#[test]
fn wide_outputs_keep_every_bit_in_the_signature() {
    let batch = [
        wide_output_table("wide_shared_bit", 0),
        wide_output_table("wide_own_bit", 64),
    ];
    let options = CanonicalOptions::default();
    assert_ne!(
        canonicalize(&batch[0], &options).signature,
        canonicalize(&batch[1], &options).signature
    );
    let service = SynthesisService::new(ServiceOptions {
        parallelism: 1,
        ..ServiceOptions::default()
    });
    let outcomes = service.synthesize_many(&batch);
    assert_batch_serves(&batch, &outcomes);
    for o in &outcomes {
        assert_eq!(
            o.result.as_ref().unwrap().cache,
            CacheStatus::Miss,
            "{}",
            o.name
        );
    }
}
