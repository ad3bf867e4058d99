//! Golden equations of the large-machine corpus under several labelings.
//!
//! Steps 4 and 6 reduce every `Z`, `SSD`, `fsv` and `Y` function with
//! `CoverFunction::minimize`, whose prime expansion and covering table break
//! ties by variable and prime order: a kernel change that keeps every cover
//! valid can still move a cube, and a relabeled machine takes other tie
//! paths than its base. The small corpus is pinned by
//! `tests/golden/service_demo.txt` and the grid as the service runs it by
//! `service_replay.txt`; `tests/golden/large_equations.txt` pins the rest.
//!
//! The machines are `benchmarks::large_suite()`, the `benchmarks/*.kiss`
//! grid files and the `tests/fuzz_regressions/` pins, synthesized by
//! `synthesize_sparse` under `for_large_machines()` with serial factoring.
//! Each runs under the identity labeling `id` and four seeded state,
//! input-bit and output-bit relabelings `r1`..`r4`. One line per synthesis:
//!
//! ```text
//! <machine> <labeling> fsv=<cubes> Y=<cubes per bit> Z=<cubes per bit> eq=<digest>
//! ```
//!
//! The cube counts are those of the Step 6 `fsv` and `Y` covers and the
//! Step 4 `Z` covers; the digest is the 64-bit FNV-1a of
//! `render_equations()`, the factored equations the pipeline returns.

use std::path::Path;

use fantom_flow::canonical::relabel;
use fantom_flow::{benchmarks, FlowTable};
use seance::{synthesize_sparse, SparseSynthesisResult, SynthesisOptions};

/// Seeded relabelings per machine, on top of the identity.
const RELABELINGS: usize = 4;

/// 64-bit FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

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

fn corpus() -> Vec<FlowTable> {
    let dir = |relative: &str| Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    let mut tables = benchmarks::large_suite();
    tables.extend(benchmarks::import_kiss_dir(&dir("benchmarks")).expect("grid files import"));
    tables.extend(
        benchmarks::import_kiss_dir(&dir("tests/fuzz_regressions")).expect("fuzz pins import"),
    );
    tables
}

/// The identity and the seeded relabelings of `table`, with their labels.
/// Each machine draws from its own stream, so the labelings of one machine
/// do not depend on the corpus before it.
fn labelings(table: &FlowTable, machine: usize) -> Vec<(String, FlowTable)> {
    let mut rng = 0x1a5e_1ab7_u64 ^ ((machine as u64 + 1) << 32);
    let mut out = vec![("id".to_string(), table.clone())];
    for k in 1..=RELABELINGS {
        let states = permutation(&mut rng, table.num_states());
        let inputs = permutation(&mut rng, table.num_inputs());
        let outputs = permutation(&mut rng, table.num_outputs());
        let name = format!("{}~r{k}", table.name());
        out.push((
            format!("r{k}"),
            relabel(table, &states, &inputs, &outputs, &name),
        ));
    }
    out
}

fn counts(covers: impl Iterator<Item = usize>) -> String {
    covers.map(|n| n.to_string()).collect::<Vec<_>>().join(",")
}

fn line(machine: &str, labeling: &str, result: &SparseSynthesisResult) -> String {
    let eqs = &result.equations;
    format!(
        "{machine} {labeling} fsv={} Y={} Z={} eq={:016x}",
        eqs.fsv_cover.cube_count(),
        counts(eqs.y_covers.iter().map(|c| c.cube_count())),
        counts(result.outputs.z_covers.iter().map(|c| c.cube_count())),
        fnv1a(&result.render_equations()),
    )
}

/// The golden lines of every machine whose corpus position satisfies
/// `part`, in corpus order, each machine's labelings in order.
fn lines(part: impl Fn(usize) -> bool) -> Vec<String> {
    let options = SynthesisOptions {
        parallel_factoring: false,
        ..SynthesisOptions::for_large_machines()
    };
    let mut out = Vec::new();
    for (i, table) in corpus().iter().enumerate().filter(|(i, _)| part(*i)) {
        for (labeling, relabeled) in labelings(table, i) {
            let result = synthesize_sparse(&relabeled, &options)
                .unwrap_or_else(|e| panic!("{} {labeling}: {e}", table.name()));
            out.push(line(table.name(), &labeling, &result));
        }
    }
    out
}

fn golden() -> Vec<String> {
    std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/large_equations.txt"),
    )
    .expect("golden large-machine equations")
    .lines()
    .map(str::to_string)
    .collect()
}

/// Compare the lines of one half of the corpus with their golden lines.
/// The halves are separate tests so the harness runs them in parallel.
fn assert_half_matches_golden(odd: bool) {
    let machines = corpus().len();
    assert_eq!(
        machines, 24,
        "3 large-suite, 9 grid and 12 fuzz-pin machines"
    );
    let golden = golden();
    assert_eq!(
        golden.len(),
        machines * (RELABELINGS + 1),
        "golden line count"
    );
    let expected: Vec<&String> = golden
        .chunks(RELABELINGS + 1)
        .enumerate()
        .filter(|(i, _)| (i % 2 == 1) == odd)
        .flat_map(|(_, chunk)| chunk)
        .collect();
    let actual = lines(|i| (i % 2 == 1) == odd);
    assert_eq!(actual.len(), expected.len());
    for (a, e) in actual.iter().zip(expected) {
        assert_eq!(a, e, "large-machine equations moved");
    }
}

#[test]
fn even_machines_match_golden_equations() {
    assert_half_matches_golden(false);
}

#[test]
fn odd_machines_match_golden_equations() {
    assert_half_matches_golden(true);
}
