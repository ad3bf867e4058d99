//! Perf-trajectory emitter and CI regression gate.
//!
//! Times the code that synthesis ships, layer by layer, and writes the
//! results as a **flat** JSON object (dotted keys, one metric per line) so
//! the file doubles as a machine-readable baseline.
//!
//! The machines are the small corpus (`benchmarks::all()`), the 40-state
//! large suite (`benchmarks::large_suite()`) and the checked-in grid: the
//! `benchmarks/*.kiss` files, loaded once and keyed `s{states}.d{dc}` from
//! their generator file names (`gen_s18_i2_o1_d50_….kiss` is `s18.d50`), so
//! the gate times the same files the tests and perfbench read. The kernel
//! and engine families run on the seeded synthetic corpora of
//! `fantom_bench::reference`.
//!
//! The families, in run order:
//!
//! 1. `micro.*.packed_ns` — cube containment, adjacency merge, intersection
//!    and minterm membership on 24-variable cube pairs;
//! 2. `kernel.cube.*.packed_ns` and `kernel.index.*.packed_ns` — the
//!    multi-word loops behind the public calls: `Cube::covers` and
//!    `Cube::intersect` at 32/64/128/256 variables, and `CoverIndex`
//!    `intersecting_ids`/`covering_ids` queries on covers of 2048 and 16384
//!    cubes;
//! 3. `engine.{primes,minimize,hazard}.n*.sparse_ms` and
//!    `consensus.n*.on_pairs_ms` — prime generation, minimization, static
//!    hazard regions and Step 7's on-pair consensus at n = 16/20/24 (the
//!    n = 16 prime set is checked, untimed, against Quine–McCluskey);
//! 4. `reduce.*` — bounded Step 2 reduction on the large suite (time,
//!    compatibles, classes, completeness) and exact reduction of the small
//!    corpus;
//! 5. `assign.*.{ms,vars}` — Step 3 on the small corpus (default budgets),
//!    the unreduced large suite and the grid (bounded budgets);
//! 6. `assign.index.*.{grow_ms,greedy_ns}` — candidate growth and the lazy
//!    greedy alone, on the large suite;
//! 7. `step6.*.ms` — `fsv::generate_covers` alone on each grid machine,
//!    least of 3 runs;
//! 8. `factor.*.{ms,serial_ms}` — Step 7 factoring on the unreduced large
//!    suite, threaded and serial;
//! 9. `e2e.*` and `e2e_reduced.*` — end-to-end synthesis of the large suite
//!    without and with bounded Step 2;
//! 10. `batch.*` — a sequential `synthesize_sparse` loop and
//!     `synthesize_many` at batch sizes 1/64/4096 over relabeled corpus
//!     machines, plus cold- and warm-cache batches on a persistent service;
//! 11. `sim.ladder.{ms,events}` — the simulator on a glitch-heavy inertial
//!     xor-ladder workload, best of 5, and the events one run processes;
//! 12. `campaign.*.{ms,events}` — Monte-Carlo hazard campaigns over both
//!     corpora, each asserted clean, least of 3 runs;
//! 13. `grid.*.{ms,cubes,depth}` — end-to-end synthesis of the grid with
//!     its gate-cube count and Table 1 depth.
//!
//! Usage:
//!
//! ```text
//! bench_json [OUT.json] [--baseline BASELINE.json]
//! ```
//!
//! `OUT.json` defaults to `BENCH.json`.
//!
//! With `--baseline`, the gated keys are compared and the process exits
//! non-zero on any violation. Time keys (`*_ns`, `*.ms`, `*_ms`) fail past
//! 2.5× their baseline (6× for the all-core `campaign.*` wall times) and a
//! small absolute floor; count keys (`*.vars`, `*.cubes`, `*.depth`,
//! `*.states`, `*.events`) fail on any difference. The baseline and the run
//! move in lockstep: a gated key in the baseline that the run does not emit
//! fails, and so does an emitted gated key the baseline lacks, so renaming
//! or dropping a family cannot drop its gate silently. Other keys (classes,
//! compatibles, flags) are recorded but not gated.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fantom_assign::{assign_with_options, AssignmentOptions};
use fantom_bench::reference::{
    adjacent_pair_strings, containment_pair_strings, membership_queries, random_cover,
    random_cube_strings, synthetic_cover_function,
};
use fantom_boolean::{quine, recursive, CoverIndex, Cube, Function};
use fantom_flow::{benchmarks, FlowTable};
use fantom_minimize::{
    compatibility, maximal_compatibles_bounded, reduce, reduce_with_options, ReductionOptions,
};
use seance::{fsv, synthesize_sparse, SpecifiedTable, SynthesisOptions};

const PAIRS: usize = 512;
const NUM_VARS: usize = 24;

/// Regression threshold for the CI gate. Deliberately loose: the baseline is
/// measured on whatever machine last refreshed `BENCH_baseline.json`, so the
/// gate must absorb cross-machine scalar-speed differences and shared-runner
/// noise while still catching algorithmic regressions (which on this code
/// base are typically 5–1000x, not 2.5x).
const REGRESSION_RATIO: f64 = 2.5;
/// Looser threshold for `campaign.*` wall times: the campaign driver
/// saturates every core through the worker pool, so runner contention alone
/// swings these metrics ~3x run-to-run. Real regressions in this layer
/// (event-budget blowups, scheduler degradation) are 10x+, and correctness
/// is gated separately — `bench_json` aborts if any campaign is not clean.
const CAMPAIGN_REGRESSION_RATIO: f64 = 6.0;
/// Absolute floors below which a regression is ignored: sub-microsecond /
/// sub-millisecond metrics jitter far more than 2.5x on shared CI runners.
const FLOOR_NS: f64 = 500.0;
const FLOOR_MS: f64 = 1.0;

/// The checked-in grid: `(key, table)` with keys like `s18.d50`.
type Grid = [(String, FlowTable)];

/// One family of metrics: records its keys into the map.
type Family = fn(&mut Metrics, &Grid);

/// Quality counts — code widths, gate cubes, depths, reduced state counts
/// and simulated events — are deterministic, so the gate compares them for
/// equality: one more state variable, cube or event fails, and one fewer
/// needs the baseline updated in the same change.
fn is_count(key: &str) -> bool {
    [".vars", ".cubes", ".depth", ".states", ".events"]
        .iter()
        .any(|suffix| key.ends_with(suffix))
}

/// Wall times, gated by ratio past an absolute floor.
fn is_time(key: &str) -> bool {
    key.ends_with("_ns") || key.ends_with(".ms") || key.ends_with("_ms")
}

/// The flat metric map; every metric is printed as it is recorded.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn put(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        println!("  {key:<40} {value:>14.3}");
        self.0.insert(key, value);
    }
}

/// Time `op` until at least ~50 ms have elapsed; returns mean ns per call.
fn time_ns(mut op: impl FnMut() -> usize) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iters {
            sink = sink.wrapping_add(op());
        }
        let elapsed = start.elapsed();
        std::hint::black_box(sink);
        if elapsed.as_millis() >= 50 || iters >= 1 << 24 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        iters = iters.saturating_mul(4);
    }
}

/// Mean ns of one pass of `op` over `pairs`.
fn pairs_ns<T>(pairs: &[(T, T)], op: impl Fn(&T, &T) -> bool) -> f64 {
    time_ns(|| pairs.iter().filter(|(a, b)| op(a, b)).count())
}

/// Mean wall time of `runs` calls of `op` in milliseconds, with the last
/// call's result.
fn mean_ms<T>(runs: u32, mut op: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut last = std::hint::black_box(op());
    for _ in 1..runs {
        last = std::hint::black_box(op());
    }
    (start.elapsed().as_secs_f64() * 1e3 / f64::from(runs), last)
}

/// Least wall time of `runs` calls of `op` in milliseconds: for
/// deterministic work, slower repeats only measure machine noise.
fn best_ms<T>(runs: u32, mut op: impl FnMut() -> T) -> f64 {
    (0..runs)
        .map(|_| mean_ms(1, &mut op).0)
        .fold(f64::INFINITY, f64::min)
}

/// The grid key of a generator file name: `gen_s18_i2_o1_d50_…` is
/// `s18.d50`.
fn grid_key(name: &str) -> String {
    let field = |prefix: char| {
        name.split('_')
            .find_map(|f| f.strip_prefix(prefix).filter(|v| v.parse::<u32>().is_ok()))
            .unwrap_or_else(|| panic!("{name}: no `{prefix}` field in the file name"))
    };
    format!("s{}.d{}", field('s'), field('d'))
}

/// The checked-in grid, `benchmarks/*.kiss` in file-name order.
fn load_grid() -> Vec<(String, FlowTable)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let tables =
        benchmarks::import_kiss_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    assert!(!tables.is_empty(), "no .kiss files in {}", dir.display());
    tables
        .into_iter()
        .map(|t| (grid_key(t.name()), t))
        .collect()
}

/// The packed cube kernel's hot predicates on 24-variable cubes.
fn micro(m: &mut Metrics, _: &Grid) {
    let parse = |pairs: Vec<(String, String)>| -> Vec<(Cube, Cube)> {
        pairs
            .iter()
            .map(|(a, b)| (Cube::parse(a).unwrap(), Cube::parse(b).unwrap()))
            .collect()
    };
    let pairs = parse(containment_pair_strings(0xBEEF, NUM_VARS, PAIRS));
    let adjacent = parse(adjacent_pair_strings(0xFEED, NUM_VARS, PAIRS));
    let strings = random_cube_strings(0xBEEF, NUM_VARS, PAIRS);
    let queries = membership_queries(0xBEEF, &strings);
    let cubes: Vec<Cube> = strings.iter().map(|s| Cube::parse(s).unwrap()).collect();

    m.put(
        "micro.containment.packed_ns",
        pairs_ns(&pairs, Cube::covers),
    );
    m.put(
        "micro.merge_adjacent.packed_ns",
        pairs_ns(&adjacent, |a, b| a.combine_adjacent(b).is_some()),
    );
    m.put(
        "micro.intersection.packed_ns",
        pairs_ns(&pairs, |a, b| a.intersect(b).is_some()),
    );
    m.put(
        "micro.minterm_membership.packed_ns",
        time_ns(|| {
            cubes
                .iter()
                .zip(&queries)
                .filter(|(cube, &q)| cube.contains_minterm(q))
                .count()
        }),
    );
}

/// The multi-word loops through their public calls. Cube widths span 1, 2,
/// 4 and 8 words (32/64/128/256 variables) on the micro family's correlated
/// containment pairs. The index queries run on covers of 2048 and 16384
/// cubes over 16 variables (bucket ANDs over 32 and 256 words):
/// `intersecting_ids` for random cubes with half their positions free, and
/// `covering_ids` for minterms, half of them inside a cover cube.
fn word_kernels(m: &mut Metrics, _: &Grid) {
    // 32x the micro pair count: small enough to stay cache-hot, large enough
    // that the branch predictor cannot memorize the pairs' outcomes across
    // timing iterations.
    const WIDE_PAIRS: usize = 32 * PAIRS;
    for vars in [32usize, 64, 128, 256] {
        let pairs: Vec<(Cube, Cube)> =
            containment_pair_strings(0xD1CE ^ vars as u64, vars, WIDE_PAIRS)
                .iter()
                .map(|(a, b)| (Cube::parse(a).unwrap(), Cube::parse(b).unwrap()))
                .collect();
        m.put(
            format!("kernel.cube.covers.v{vars}.packed_ns"),
            pairs_ns(&pairs, Cube::covers),
        );
        m.put(
            format!("kernel.cube.intersect.v{vars}.packed_ns"),
            pairs_ns(&pairs, |a, b| a.intersect(b).is_some()),
        );
    }

    const INDEX_VARS: usize = 16;
    const QUERIES: usize = 64;
    for cubes in [2048usize, 16384] {
        let cover = random_cover(0xB1C5 ^ cubes as u64, INDEX_VARS, cubes, INDEX_VARS / 2);
        let index = CoverIndex::build(&cover);
        let free: Vec<Cube> = random_cube_strings(0xF7EE ^ cubes as u64, INDEX_VARS, QUERIES)
            .iter()
            .map(|s| Cube::parse(s).unwrap())
            .collect();
        let inside: Vec<String> = cover.cubes()[..QUERIES]
            .iter()
            .map(Cube::to_string)
            .collect();
        let minterms: Vec<Cube> = membership_queries(0x3C0F ^ cubes as u64, &inside)
            .into_iter()
            .map(|q| Cube::from_minterm(INDEX_VARS, q).unwrap())
            .collect();
        let (mut cand, mut out) = (Vec::new(), Vec::new());
        m.put(
            format!("kernel.index.intersecting_ids.c{cubes}.packed_ns"),
            time_ns(|| {
                free.iter()
                    .map(|q| {
                        index.intersecting_ids(q, &mut cand, &mut out);
                        out.len()
                    })
                    .sum()
            }),
        );
        m.put(
            format!("kernel.index.covering_ids.c{cubes}.packed_ns"),
            time_ns(|| {
                minterms
                    .iter()
                    .map(|q| {
                        index.covering_ids(q, &mut cand, &mut out);
                        out.len()
                    })
                    .sum()
            }),
        );
    }
}

/// The cube engine at n = 16/20/24: prime generation on a completely
/// specified union of cubes, then minimization, static-hazard regions and
/// on-pair consensus (the Step 7 primitive) on a dc-heavy function.
fn engine(m: &mut Metrics, _: &Grid) {
    use fantom_boolean::hazard::{add_consensus_terms_on_pairs, static_hazard_regions};
    for n in [16usize, 20, 24] {
        let cover = random_cover(0xAB5E * n as u64, n, 20, n / 2);
        let (ms, primes) = mean_ms(1, || recursive::complete_sum(&cover).len());
        m.put(format!("engine.primes.n{n}.sparse_ms"), ms);
        if n == 16 {
            // Untimed: the dense tabulation starts from every minterm, so it
            // checks the prime set only while 2^n is small.
            let f = Function::from_cover(&cover, None).expect("within dense limit");
            assert_eq!(
                primes,
                quine::prime_implicants(&f).len(),
                "prime sets disagree at n={n}"
            );
        }

        let cf = synthetic_cover_function(0xD0_0D + n as u64, n, 160, 24, n - 8);
        let (ms, minimized) = mean_ms(1, || cf.minimize());
        m.put(format!("engine.minimize.n{n}.sparse_ms"), ms);
        let (ms, _) = mean_ms(1, || static_hazard_regions(&minimized).len());
        m.put(format!("engine.hazard.n{n}.sparse_ms"), ms);
        let (ms, _) = mean_ms(1, || {
            add_consensus_terms_on_pairs(cf.on_cover(), cf.off_cover(), &minimized)
        });
        m.put(format!("consensus.n{n}.on_pairs_ms"), ms);
    }
}

/// Step 2: bounded reduction on the large suite (the pivoted, capped
/// Bron–Kerbosch engine) and the exact reducer over the small corpus.
fn reduction(m: &mut Metrics, _: &Grid) {
    let options = ReductionOptions::bounded();
    for table in benchmarks::large_suite() {
        let name = table.name();
        let enumeration = maximal_compatibles_bounded(&compatibility(&table), &options);
        let (ms, reduction) = mean_ms(20, || reduce_with_options(&table, &options));
        m.put(format!("reduce.{name}.ms"), ms);
        m.put(
            format!("reduce.{name}.compatibles"),
            enumeration.compatibles.len() as f64,
        );
        m.put(
            format!("reduce.{name}.classes"),
            reduction.table.num_states() as f64,
        );
        m.put(
            format!("reduce.{name}.complete"),
            f64::from(enumeration.complete),
        );
    }
    let small = benchmarks::all();
    let (ms, ()) = mean_ms(20, || {
        for table in &small {
            std::hint::black_box(reduce(table));
        }
    });
    m.put("reduce.small_corpus.ms", ms);
}

/// Step 3: the small corpus under the default budgets, the unreduced large
/// suite and the grid under the bounded budgets the large-machine path
/// uses. `vars` is the code width.
fn assignment(m: &mut Metrics, grid: &Grid) {
    let (default, bounded) = (AssignmentOptions::default(), AssignmentOptions::bounded());
    let named = |t: FlowTable| (t.name().to_string(), t);
    let small = benchmarks::all()
        .into_iter()
        .map(|t| (named(t), &default, 20));
    let large = benchmarks::large_suite()
        .into_iter()
        .map(|t| (named(t), &bounded, 5));
    let grid = grid.iter().map(|machine| (machine.clone(), &bounded, 10));
    for ((key, table), options, runs) in small.chain(large).chain(grid) {
        let (ms, assignment) = mean_ms(runs, || assign_with_options(&table, options));
        assignment
            .verify(&table)
            .unwrap_or_else(|e| panic!("{key}: {e}"));
        m.put(format!("assign.{key}.ms"), ms);
        m.put(format!("assign.{key}.vars"), assignment.num_vars() as f64);
    }
}

/// Step 3's two inner loops alone on the unreduced large suite: candidate
/// growth on the shared dichotomy index (blocked masks during growth, one
/// coverage query per distinct candidate) and the lazy-max greedy pick over
/// the pool it grows, at two seed orderings without adjacency seeding —
/// the configuration `tests/assign_indexed.rs` holds to the scalar
/// references.
fn assign_index(m: &mut Metrics, _: &Grid) {
    use fantom_assign::{grow_candidates, required_dichotomies, AssignScratch};
    use fantom_boolean::covering::greedy_cover;
    use fantom_boolean::MintermSet;

    let options = AssignmentOptions {
        seed_orderings: 2,
        ..AssignmentOptions::bounded()
    };
    let mut scratch = AssignScratch::default();
    for table in benchmarks::large_suite() {
        let name = table.name();
        let dichotomies = required_dichotomies(&table);
        let (ms, _) = mean_ms(5, || {
            grow_candidates(&dichotomies, &[], &options, &mut scratch).len()
        });
        m.put(format!("assign.index.{name}.grow_ms"), ms);
        let covers: Vec<MintermSet> = grow_candidates(&dichotomies, &[], &options, &mut scratch)
            .iter()
            .map(|p| p.covers().clone())
            .collect();
        let rows = dichotomies.len();
        m.put(
            format!("assign.index.{name}.greedy_ns"),
            time_ns(|| greedy_cover(&covers, rows).len()),
        );
    }
}

/// Step 6 alone on each grid machine, unreduced and assigned with the
/// bounded budgets: the least of 3 runs of `fsv::generate_covers`, with
/// assignment, spec and hazard analysis outside the timed region.
fn step6(m: &mut Metrics, grid: &Grid) {
    let bounded = AssignmentOptions::bounded();
    for (key, table) in grid {
        let assignment = assign_with_options(table, &bounded);
        let spec = SpecifiedTable::new(table.clone(), assignment).expect("spec builds");
        let hazards = seance::hazard::analyze(&spec);
        let ms = best_ms(3, || {
            fsv::generate_covers(&spec, &hazards).expect("Step 6 succeeds")
        });
        m.put(format!("step6.{key}.ms"), ms);
    }
}

/// Step 7 on the unreduced large suite: the threaded (default) and
/// single-threaded consensus fan-out, with the spec / hazard / Step 6
/// preparation outside the timed region.
fn factoring(m: &mut Metrics, _: &Grid) {
    use seance::factoring::{factor_covers, FactoringOptions};
    let options = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::for_large_machines()
    };
    for table in benchmarks::large_suite() {
        let name = table.name().to_string();
        let assignment = assign_with_options(&table, &options.assignment);
        let spec = SpecifiedTable::new(table, assignment).expect("spec builds");
        let hazards = seance::hazard::analyze(&spec);
        let equations = fsv::generate_covers(&spec, &hazards).expect("Step 6 succeeds");
        for (suffix, parallel_y) in [("ms", true), ("serial_ms", false)] {
            let opts = FactoringOptions {
                parallel_y,
                ..FactoringOptions::default()
            };
            let (ms, _) = mean_ms(10, || factor_covers(&spec, &equations, opts));
            m.put(format!("factor.{name}.{suffix}"), ms);
        }
    }
}

/// End-to-end synthesis of the large suite, mean of 3 runs: `e2e.*` is the
/// stress shape (Step 2 off, full 40-state tables) and `e2e_reduced.*` the
/// default large-machine path with bounded Step 2.
fn synthesis(m: &mut Metrics, _: &Grid) {
    let unreduced = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::for_large_machines()
    };
    let reduced = SynthesisOptions::for_large_machines();
    for table in benchmarks::large_suite() {
        let name = table.name();
        let (ms, result) = mean_ms(3, || {
            synthesize_sparse(&table, &unreduced).expect("sparse synthesis succeeds")
        });
        m.put(format!("e2e.{name}.ms"), ms);
        m.put(format!("e2e.{name}.vars"), result.spec.num_vars() as f64);
        let (ms, result) = mean_ms(3, || {
            synthesize_sparse(&table, &reduced).expect("reduced synthesis succeeds")
        });
        m.put(format!("e2e_reduced.{name}.ms"), ms);
        m.put(
            format!("e2e_reduced.{name}.states"),
            result.reduced_table.num_states() as f64,
        );
    }
}

/// The batch service (`seance::service`): a sequential `synthesize_sparse`
/// loop over 64 machines, `synthesize_many` at three batch sizes, and cache
/// temperature on a persistent service. The mixed corpus is the
/// resubmission-heavy traffic the service is built for — the small corpus
/// cycled with fresh random state/input/output relabelings — so the batch
/// times reflect the worker pool *and* the canonical-form cache together.
fn batch(m: &mut Metrics, _: &Grid) {
    use fantom_flow::canonical::relabel;
    use seance::{synthesize_many, ServiceOptions, SynthesisService};

    /// `t` under a fresh random state, input and output relabeling.
    fn relabeled(rng: &mut u64, t: &FlowTable, name: &str) -> FlowTable {
        let mut permutation = |n: usize| {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                *rng ^= *rng << 13;
                *rng ^= *rng >> 7;
                *rng ^= *rng << 17;
                let j = (*rng % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            perm
        };
        let sm = permutation(t.num_states());
        let im = permutation(t.num_inputs());
        let om = permutation(t.num_outputs());
        relabel(t, &sm, &im, &om, name)
    }

    let corpus = benchmarks::all();
    let mut rng = 0xBA7C_5EED_u64;
    let mut batch = |size: usize| -> Vec<FlowTable> {
        (0..size)
            .map(|i| {
                let t = &corpus[i % corpus.len()];
                relabeled(&mut rng, t, &format!("{}_{i}", t.name()))
            })
            .collect()
    };
    let options = ServiceOptions::default();

    // What a caller without the service layer would write.
    let seq_batch = batch(64);
    let (ms, ()) = mean_ms(1, || {
        for t in &seq_batch {
            std::hint::black_box(
                synthesize_sparse(t, &options.synthesis).expect("corpus machine synthesizes"),
            );
        }
    });
    m.put("batch.seq.b64.ms", ms);

    for size in [1usize, 64, 4096] {
        let b = batch(size);
        let (ms, outcomes) = mean_ms(1, || synthesize_many(&b, &options));
        assert!(
            outcomes.iter().all(|o| o.result.is_ok()),
            "batch machine failed"
        );
        m.put(format!("batch.service.b{size}.ms"), ms);
    }

    // Cache temperature on a persistent service. The cold batch must be all
    // misses to measure the cache itself (a batch of relabeled corpus
    // machines is mostly warm *within* the batch), so it carries 64 distinct
    // isomorphism classes: 8 output-perturbed variants of each of the 8
    // corpus machines, each randomly relabeled. The hit batch is a fresh
    // relabeling of the same 64 classes and is answered entirely by
    // relabeling cached canonical results.
    fn output_variant(t: &FlowTable, k: usize, name: &str) -> FlowTable {
        use fantom_flow::Bits;
        let mut v = t.clone();
        v.set_name(name);
        let mut j = 0usize;
        for s in t.states() {
            for c in 0..t.num_columns() {
                let Some(out) = t.output(s, c) else { continue };
                if (k >> (j % 3)) & 1 == 1 {
                    let mut bools: Vec<bool> = out.iter().collect();
                    let b = j % bools.len();
                    bools[b] = !bools[b];
                    v.set_entry(s, c, t.next_state(s, c), Some(Bits::from_bools(bools)))
                        .expect("valid coordinates");
                }
                j += 1;
            }
        }
        v
    }
    let class_batch = |rng: &mut u64| -> Vec<FlowTable> {
        let mut machines = Vec::with_capacity(64);
        for k in 0..8usize {
            for t in &corpus {
                let v = output_variant(t, k, &format!("{}_v{k}", t.name()));
                machines.push(relabeled(rng, &v, v.name()));
            }
        }
        machines
    };
    let service = SynthesisService::new(ServiceOptions::default());
    for (key, hits, misses) in [
        ("batch.cache.cold_ms", 0, 64),
        ("batch.cache.hit_ms", 64, 64),
    ] {
        let machines = class_batch(&mut rng);
        let (ms, outcomes) = mean_ms(1, || service.synthesize_many(&machines));
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        let stats = service.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (hits, misses),
            "the cold batch is 64 distinct isomorphism classes, the warm one all hits"
        );
        m.put(key, ms);
    }
}

/// The event-driven simulator on a glitch-heavy inertial workload: a bank of
/// wide-fanin xor ladders with randomized delays, where every skewed input
/// round makes each ladder gate re-evaluate many times inside its own delay
/// window, so the queue cancels superseded events in place and the
/// counter-based evaluator pays O(1) per fanout edge. Best of 5, plus the
/// events one run processes: the stimulus is scheduled up front, so most of
/// it lies far past the gate delays.
fn sim(m: &mut Metrics, _: &Grid) {
    use fantom_sim::{DelayModel, DelayStyle, GateKind, NetId, Netlist, Simulator};

    const LADDERS: usize = 16;
    const DEPTH: usize = 16;
    const INS: usize = 12;
    const ROUNDS: u64 = 150;

    // LADDERS independent ladders of (INS + 1)-input xor gates: each stage
    // folds the previous stage with every ladder input, so one skewed input
    // round re-evaluates every stage INS times — a glitch amplifier.
    let mut netlist = Netlist::new();
    let mut inputs: Vec<Vec<NetId>> = Vec::new();
    for l in 0..LADDERS {
        let ins: Vec<NetId> = (0..INS)
            .map(|k| netlist.add_primary_input(format!("x{l}_{k}")))
            .collect();
        let mut prev = ins[0];
        for d in 0..DEPTH {
            let stage = netlist.add_net(format!("l{l}_s{d}"));
            let mut fanin = vec![prev];
            fanin.extend(ins.iter().copied());
            netlist.add_gate(GateKind::Xor, fanin, stage);
            prev = stage;
        }
        inputs.push(ins);
    }
    let model = DelayModel::Random {
        min: 8,
        max: 15,
        seed: 0x51D3_CAFE,
    };
    let stimulus: Vec<(NetId, bool, u64)> = (0..ROUNDS)
        .flat_map(|r| {
            let inputs = &inputs;
            (0..LADDERS).flat_map(move |l| {
                let base = 400 * (r + 1);
                inputs[l].iter().enumerate().flat_map(move |(k, &net)| {
                    // All of a ladder's inputs flip inside one gate-delay
                    // window, then half of them pulse back 5 ticks later —
                    // shorter than the minimum gate delay, so downstream
                    // glitches are inertially superseded and the queue
                    // cancels them in place.
                    let v = (r + k as u64) % 2 == 0;
                    let t = base + ((l + k) as u64 % 11);
                    let pulse_back = (k % 2 == 0).then_some((net, !v, t + 5));
                    std::iter::once((net, v, t)).chain(pulse_back)
                })
            })
        })
        .collect();

    let mut events = 0;
    let ms = best_ms(5, || {
        let mut sim = Simulator::builder(&netlist)
            .delay_model(model.clone())
            .style(DelayStyle::Inertial)
            .event_budget(usize::MAX)
            .build();
        for &(net, value, delta) in &stimulus {
            sim.schedule_input(net, value, delta);
        }
        sim.run_until_quiet().expect("workload settles");
        events = sim.events_processed();
    });
    m.put("sim.ladder.ms", ms);
    m.put("sim.ladder.events", events as f64);
}

/// Monte-Carlo hazard-validation campaigns: 1000 sampled delay assignments
/// per machine (every stable transition on the small corpus, 2 sampled
/// sequences per assignment on the large suite), asserting every report is
/// clean — the dynamic confirmation of the analytical hazard verdicts. Each
/// time is the least of 3 runs: a single run, with no warm-up, read up to
/// half again as slow now and then on identical code.
fn campaign(m: &mut Metrics, _: &Grid) {
    use seance::{run_campaign_sparse, CampaignOptions};

    let small = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    let corpora = [
        (benchmarks::all(), small, 0),
        (
            benchmarks::large_suite(),
            SynthesisOptions::for_large_machines(),
            2,
        ),
    ];
    for (tables, synthesis, sequences_per_assignment) in corpora {
        for table in tables {
            let result = synthesize_sparse(&table, &synthesis).expect("corpus synthesizes");
            let options = CampaignOptions {
                assignments: 1000,
                sequences_per_assignment,
                ..CampaignOptions::default()
            };
            let mut report = None;
            let ms = best_ms(3, || report = Some(run_campaign_sparse(&result, &options)));
            let report = report.expect("the campaign ran");
            assert!(report.is_clean(), "{}:\n{}", table.name(), report.render());
            m.put(format!("campaign.{}.ms", table.name()), ms);
            m.put(
                format!("campaign.{}.events", table.name()),
                report.events as f64,
            );
        }
    }
}

/// End-to-end synthesis of each grid machine under the large-machine
/// options, mean of 5 runs. `cubes` is the first-level gate count of the
/// factored machine (fsv + Y + Z covers) and `depth` the Table 1 total
/// depth, so gate-count regressions in any of Steps 2–7 surface here even
/// when wall time stays flat.
fn grid_synthesis(m: &mut Metrics, grid: &Grid) {
    let options = SynthesisOptions::for_large_machines();
    for (key, table) in grid {
        let (ms, result) = mean_ms(5, || {
            synthesize_sparse(table, &options).expect("grid machine synthesizes")
        });
        let cubes = result.factored.fsv_cover.cube_count()
            + result
                .factored
                .y_covers
                .iter()
                .chain(&result.outputs.z_covers)
                .map(|c| c.cube_count())
                .sum::<usize>();
        m.put(format!("grid.{key}.ms"), ms);
        m.put(format!("grid.{key}.cubes"), cubes as f64);
        m.put(format!("grid.{key}.depth"), result.depth.total_depth as f64);
    }
}

/// Parse a flat `"key": value` JSON object (the format this tool emits).
fn parse_flat_json(text: &str) -> BTreeMap<String, f64> {
    let mut map = BTreeMap::new();
    let mut rest = text;
    while let Some(open) = rest.find('"') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        let key = &rest[..close];
        rest = &rest[close + 1..];
        let Some(colon) = rest.find(':') else { break };
        rest = &rest[colon + 1..];
        let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
        if let Ok(value) = rest[..end].trim().parse::<f64>() {
            map.insert(key.to_string(), value);
        }
        rest = &rest[end..];
    }
    map
}

/// Compare current metrics against a baseline; returns the violations.
fn regressions(current: &BTreeMap<String, f64>, baseline: &BTreeMap<String, f64>) -> Vec<String> {
    let gated = |key: &str| is_time(key) || is_count(key);
    let mut violations: Vec<String> = current
        .keys()
        .filter(|key| gated(key) && !baseline.contains_key(*key))
        .map(|key| format!("{key}: emitted but missing from the baseline"))
        .collect();
    for (key, &base) in baseline {
        let Some(&now) = current.get(key) else {
            if gated(key) {
                violations.push(format!("{key}: in the baseline but not emitted"));
            }
            continue;
        };
        let floor = if key.ends_with("_ns") {
            FLOOR_NS
        } else if is_time(key) {
            FLOOR_MS
        } else {
            if is_count(key) && now != base {
                violations.push(format!(
                    "{key}: {now} vs baseline {base} (counts are exact)"
                ));
            }
            continue; // ratios and flags are not gated
        };
        let ratio = if key.starts_with("campaign.") {
            CAMPAIGN_REGRESSION_RATIO
        } else {
            REGRESSION_RATIO
        };
        if base > 0.0 && now > base * ratio && now - base > floor {
            violations.push(format!(
                "{key}: {now:.3} vs baseline {base:.3} ({:.2}x > {ratio}x)",
                now / base
            ));
        }
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--baseline" {
            baseline_path = args.get(i + 1).cloned();
            i += 2;
        } else {
            out_path = args[i].clone();
            i += 1;
        }
    }

    let grid = load_grid();
    let families: [(&str, Family); 13] = [
        ("cube-kernel micro operations", micro),
        ("multi-word cube and index kernels", word_kernels),
        ("cube engine at n = 16/20/24", engine),
        ("state reduction (Step 2)", reduction),
        ("state assignment (Step 3)", assignment),
        ("Step 3 growth and greedy alone", assign_index),
        ("fsv and Y minimization (Step 6)", step6),
        ("hazard factoring (Step 7)", factoring),
        ("end-to-end synthesis", synthesis),
        ("batch synthesis service", batch),
        ("simulator", sim),
        ("hazard-validation campaigns", campaign),
        ("checked-in grid", grid_synthesis),
    ];
    let mut metrics = Metrics::default();
    for (title, family) in families {
        println!("{title}:");
        family(&mut metrics, &grid);
    }
    let metrics = metrics.0;

    let lines: Vec<String> = metrics
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value:.4}"))
        .collect();
    std::fs::write(&out_path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .expect("write bench JSON");
    println!("\nwrote {out_path}");

    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline = parse_flat_json(&text);
        let violations = regressions(&metrics, &baseline);
        if violations.is_empty() {
            println!(
                "perf gate: OK ({} times within tolerance and {} counts equal to {path})",
                baseline.keys().filter(|k| is_time(k)).count(),
                baseline.keys().filter(|k| is_count(k)).count()
            );
        } else {
            eprintln!(
                "perf gate: FAILED — {} violation(s) vs {path}:",
                violations.len()
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(key: &str, base: f64, now: f64) -> Vec<String> {
        let metrics = |v: f64| BTreeMap::from([(key.to_string(), v)]);
        regressions(&metrics(now), &metrics(base))
    }

    #[test]
    fn counts_gate_exactly_in_both_directions() {
        for key in [
            "assign.s26.d25.vars",
            "grid.s26.d25.cubes",
            "grid.s26.d25.depth",
            "e2e_reduced.chain40.states",
            "campaign.lion.events",
        ] {
            assert!(gate(key, 385.0, 385.0).is_empty(), "{key}: equal");
            assert_eq!(gate(key, 385.0, 386.0).len(), 1, "{key}: one more");
            assert_eq!(gate(key, 385.0, 384.0).len(), 1, "{key}: one fewer");
        }
    }

    #[test]
    fn times_keep_their_ratios_and_floors() {
        // 2.5x for time keys, past an absolute floor.
        assert!(gate("assign.ring44.ms", 10.0, 24.9).is_empty());
        assert_eq!(gate("assign.ring44.ms", 10.0, 25.1).len(), 1);
        assert!(gate("assign.ring44.ms", 10.0, 1.0).is_empty());
        assert!(gate("assign.index.chain40.grow_ms", 0.2, 1.1).is_empty());
        assert_eq!(gate("assign.index.chain40.grow_ms", 0.2, 1.3).len(), 1);
        assert!(gate("micro.containment.packed_ns", 100.0, 590.0).is_empty());
        assert_eq!(gate("micro.containment.packed_ns", 100.0, 610.0).len(), 1);
        // 6x for campaign wall times.
        assert!(gate("campaign.lion.ms", 10.0, 59.0).is_empty());
        assert_eq!(gate("campaign.lion.ms", 10.0, 61.0).len(), 1);
        // Ratios and flags are not gated; a gated key missing from the run is.
        assert!(gate("reduce.wide36.compatibles", 1044.0, 1.0).is_empty());
        let base = BTreeMap::from([("grid.s10.d25.cubes".to_string(), 66.0)]);
        assert_eq!(regressions(&BTreeMap::new(), &base).len(), 1);
    }

    #[test]
    fn baseline_and_run_stay_in_lockstep() {
        let keys = |keys: &[&str]| -> BTreeMap<String, f64> {
            keys.iter().map(|k| (k.to_string(), 1.0)).collect()
        };
        let both = ["sim.ladder.ms", "grid.s10.d25.cubes"];
        assert!(regressions(&keys(&both), &keys(&both)).is_empty());
        for key in [
            "batch.seq.b64.ms",
            "micro.containment.packed_ns",
            "assign.s10.d25.vars",
        ] {
            let with = keys(&[both[0], both[1], key]);
            let violations = regressions(&with, &keys(&both));
            assert_eq!(violations.len(), 1, "{key}: emitted, not in the baseline");
            assert!(violations[0].starts_with(key));
            let violations = regressions(&keys(&both), &with);
            assert_eq!(violations.len(), 1, "{key}: in the baseline, not emitted");
            assert!(violations[0].starts_with(key));
        }
        // Ungated keys may appear on either side alone.
        for key in ["reduce.chain40.classes", "reduce.chain40.complete"] {
            let with = keys(&[both[0], both[1], key]);
            assert!(regressions(&with, &keys(&both)).is_empty(), "{key}");
            assert!(regressions(&keys(&both), &with).is_empty(), "{key}");
        }
    }
}
