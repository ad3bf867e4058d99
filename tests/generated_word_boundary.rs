//! Word-boundary property tests over *generated* machines.
//!
//! `crates/boolean/tests/cube_kernel_properties.rs` pins the packed cube
//! kernel against a naive reference at 31/32/33 variables using random
//! hand-built cubes. This test drives the same 1-word/2-word boundary with
//! the cubes the pipeline actually produces: covers synthesized from seeded
//! generated flow tables are embedded into 31/32/33-variable universes at
//! offsets that straddle bit 32, and every kernel operation the Step 5/7
//! engines rely on (containment, intersection, supercube, adjacency merge)
//! must commute with the embedding — the embedded padding is all
//! don't-cares, so each operation's result is the embedded original result,
//! word splits notwithstanding.
//!
//! A second, multi-word suite runs the same commutation at 127/128/129 and
//! 255/256/257 variables (4–9 words, the last one full or partly padding),
//! straddling every 32-variable word boundary on the way, so each
//! operation's loop over the word pairs meets a mismatch in every word
//! position.

use fantom_boolean::{Cube, Literal};
use fantom_flow::generate::{generate, GeneratorOptions};
use seance::{synthesize_sparse, SynthesisOptions};

/// Embed `cube` into a `width`-variable universe at `offset`: positions
/// outside `offset..offset + cube.num_vars()` are don't-cares.
fn embed(cube: &Cube, width: usize, offset: usize) -> Cube {
    let mut lits = vec![Literal::DontCare; width];
    for (i, lit) in cube.literals().enumerate() {
        lits[offset + i] = lit;
    }
    Cube::new(lits)
}

/// Every cover cube of the synthesis result of `table` under the shipped
/// large-machine options (the options the fuzzer runs), grouped by
/// variable count (the fsv/Y covers live over the doubled `(fsv, x, y)`
/// space, the Z covers over the narrower output space, and cube operations
/// are only defined within one universe). Emission order inside each group
/// is fsv, Y, Z — the real workload of the Step 5/7 kernels.
fn pipeline_cube_groups(table: &fantom_flow::FlowTable) -> Vec<Vec<Cube>> {
    let result = synthesize_sparse(table, &SynthesisOptions::for_large_machines())
        .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
    let mut cubes: Vec<Cube> = result.factored.fsv_cover.cubes().to_vec();
    for cover in &result.factored.y_covers {
        cubes.extend(cover.cubes().iter().cloned());
    }
    for cover in &result.outputs.z_covers {
        cubes.extend(cover.cubes().iter().cloned());
    }
    let mut widths: Vec<usize> = cubes.iter().map(Cube::num_vars).collect();
    widths.sort_unstable();
    widths.dedup();
    widths
        .into_iter()
        .map(|n| {
            cubes
                .iter()
                .filter(|c| c.num_vars() == n)
                .cloned()
                .collect()
        })
        .collect()
}

/// An offset placing an `n`-variable cube across variable `boundary` of a
/// `width`-variable universe (start strictly before, end strictly after), or
/// `None` when no such placement exists.
fn straddle_offset(width: usize, n: usize, boundary: usize) -> Option<usize> {
    if n < 2 || width <= boundary {
        return None;
    }
    let lo = (boundary + 1).saturating_sub(n);
    let hi = (boundary - 1).min(width - n);
    if lo > hi {
        return None;
    }
    Some(boundary.saturating_sub(n / 2).clamp(lo, hi))
}

/// Offsets placing an `n`-variable cube against the start, the end, and
/// straddling every 32-variable word boundary of a `width`-variable universe.
fn boundary_offsets(width: usize, n: usize) -> Vec<usize> {
    let mut offsets = vec![0, width - n];
    for boundary in (32..width).step_by(32) {
        offsets.extend(straddle_offset(width, n, boundary));
    }
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

fn generated_corpus() -> Vec<fantom_flow::FlowTable> {
    [
        GeneratorOptions {
            seed: 0xB0_0B5,
            states: 8,
            inputs: 3,
            dc_density: 0.3,
            ..GeneratorOptions::default()
        },
        GeneratorOptions {
            seed: 0xB0_0B6,
            states: 12,
            inputs: 2,
            dc_density: 0.6,
            chain_depth: 1,
            ..GeneratorOptions::default()
        },
        GeneratorOptions {
            seed: 0xB0_0B7,
            states: 10,
            inputs: 4,
            outputs: 2,
            dc_density: 0.5,
            mic_stable_columns: 2,
            ..GeneratorOptions::default()
        },
    ]
    .iter()
    .map(generate)
    .collect()
}

/// Pairwise kernel-op/embedding commutation over every cover-cube group of
/// every corpus machine, at the given universe `widths`, over a bounded
/// pairwise `window` per group.
fn assert_ops_commute_at(widths: &[usize], window_cap: usize) {
    for table in generated_corpus() {
        let groups = pipeline_cube_groups(&table);
        assert!(!groups.is_empty(), "{}: no cover cubes", table.name());
        for cubes in groups {
            let n = cubes[0].num_vars();
            // Pairwise over a bounded window so the test stays fast on the
            // larger machines.
            let window = cubes.len().min(window_cap);
            for &width in widths {
                if width < n {
                    continue;
                }
                for offset in boundary_offsets(width, n) {
                    for (a, b) in cubes[..window]
                        .iter()
                        .flat_map(|a| cubes[..window].iter().map(move |b| (a, b)))
                    {
                        let (ea, eb) = (embed(a, width, offset), embed(b, width, offset));
                        assert_eq!(
                            ea.covers(&eb),
                            a.covers(b),
                            "{}: covers at width {width} offset {offset}",
                            table.name()
                        );
                        assert_eq!(
                            ea.intersect(&eb),
                            a.intersect(b).map(|c| embed(&c, width, offset)),
                            "{}: intersect at width {width} offset {offset}",
                            table.name()
                        );
                        assert_eq!(
                            ea.supercube(&eb),
                            embed(&a.supercube(b), width, offset),
                            "{}: supercube at width {width} offset {offset}",
                            table.name()
                        );
                        assert_eq!(
                            ea.combine_adjacent(&eb),
                            a.combine_adjacent(b).map(|c| embed(&c, width, offset)),
                            "{}: combine_adjacent at width {width} offset {offset}",
                            table.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pipeline_cover_ops_commute_with_boundary_embedding() {
    // The 1-word/2-word boundary, where a cube leaves its inline word.
    assert_ops_commute_at(&[31, 32, 33], 24);
}

#[test]
fn pipeline_cover_ops_commute_with_lane_boundary_embedding() {
    // The multi-word suite: 4–5 and 8–9 words, with the last word full
    // (128, 256) or partly padding. The pairwise window is smaller than the
    // word-boundary suite's because each op here walks 4–9 words per cube.
    assert_ops_commute_at(&[127, 128, 129, 255, 256, 257], 12);
}

/// Literal surgery on embedded pipeline cubes: reading and rewriting every
/// position across the boundary preserves all others — the `with_literal` /
/// `literal` pair the hazard engines use for cofactoring near bit 32.
#[test]
fn embedded_literal_surgery_round_trips() {
    for table in generated_corpus() {
        for cubes in pipeline_cube_groups(&table) {
            let n = cubes[0].num_vars();
            for &width in &[31usize, 32, 33] {
                if width < n {
                    continue;
                }
                let offset = boundary_offsets(width, n)[0];
                for a in cubes.iter().take(8) {
                    let ea = embed(a, width, offset);
                    for v in 0..width {
                        for lit in [Literal::Zero, Literal::One, Literal::DontCare] {
                            let q = ea.with_literal(v, lit);
                            for u in 0..width {
                                let expected = if u == v { lit } else { ea.literal(u) };
                                assert_eq!(
                                    q.literal(u),
                                    expected,
                                    "{}: width {width} offset {offset} v={v} u={u}",
                                    table.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
