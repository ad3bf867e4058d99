//! Perf-trajectory emitter and CI regression gate.
//!
//! Measures three layers and writes the results as a **flat** JSON object
//! (dotted keys, one metric per line) so the file doubles as a machine-
//! readable baseline:
//!
//! 1. the cube-kernel micro operations (packed vs the naive literal-vector
//!    reference, PR 1 continuity),
//! 2. the cover-based engine: full prime generation (against the dense
//!    Quine–McCluskey oracle), minimization and static-hazard analysis (against
//!    the dense adjacency walk) at n = 16/20/24 (oracle entries that would
//!    require enumerating the `2^n` space are reported as
//!    `*.dense_infeasible = 1`), plus the indexed Step 5/7
//!    consensus engines on the same corpora (`consensus.n*.{cover,on_pairs}_ms`)
//!    and a bounded dc-dense closure variant (`consensus.n16.cover_dc_ms`),
//! 3. Step-2 state reduction on the large suite: bounded (pivoted, capped
//!    Bron–Kerbosch) reduction time plus compatible / class counts
//!    (`reduce.*`), and the exact reducer over the small corpus,
//! 4. Step-3 state assignment: the packed Tracey engine on the small corpus
//!    (default budgets) and the unreduced large suite (bounded budgets) —
//!    `assign.*.ms` per-machine wall time and `assign.*.vars` code widths,
//! 5. Step-7 hazard factoring on the unreduced large suite:
//!    `factor.*.ms` (threaded per-bit consensus fan-out, the default) and
//!    `factor.*.serial_ms` (the `parallel_y = false` knob), with the spec /
//!    hazard / Step-6 work excluded from the timed region,
//! 6. end-to-end synthesis of the large 40-state suite, unreduced (`e2e.*`,
//!    the PR 2 stress shape) and with bounded Step-2 reduction
//!    (`e2e_reduced.*`),
//! 7. the batch synthesis service: a sequential `synthesize_sparse` loop
//!    baseline vs [`seance::synthesize_many`] throughput at batch sizes
//!    1/64/4096 over a relabeling-heavy mixed corpus
//!    (`batch.{seq,throughput}.*.machines_per_s`), plus cold- vs warm-cache
//!    batch times on a persistent service (`batch.cache.{cold,hit}_ms`),
//! 8. the event-driven simulator scheduler: identical glitchy inertial
//!    workloads through the indexed-queue simulator and the retired
//!    `BinaryHeap` scheduler (`sim.events_per_s.{indexed,heap}` measured in
//!    *applied* events, and `sim.speedup`),
//! 9. Monte-Carlo hazard-validation campaigns: 1000 sampled delay
//!    assignments per machine over the full corpus (`campaign.*.ms`,
//!    `campaign.*.events`), asserting every report comes back clean.
//! 10. the generated-machine grid: a 3×3 (state count × dc-density) lattice
//!     of seeded `fantom_flow::generate` machines — the same lattice the
//!     checked-in `benchmarks/` directory pins — through the sparse pipeline
//!     (`grid.*.ms` wall time plus `grid.*.{cubes,depth}` gate metrics), so
//!     the perf gate covers shape space between the hand-written corpus
//!     points.
//! 11. the 256-bit lane kernels: `fantom_boolean::lane` slice kernels vs the
//!     pre-lane scalar word loops they replaced, over byte-identical packed
//!     word arrays at 32/64/128/256-variable widths
//!     (`kernel.lane.{containment,intersect}.v*`) plus `CoverIndex`-style
//!     bucket-AND sweeps at 2048/16384-cube bucket widths
//!     (`kernel.lane.bucket_{and,free}.c*`).
//! 12. the Step-3 indexed assignment engine: the shared-dichotomy-index
//!     candidate grower (blocked masks during growth, one coverage query
//!     per distinct candidate) and the lazy-max greedy pick vs the retained
//!     scalar references (`fantom_bench::reference`) on the unreduced large suite
//!     (`assign.index.*.{grow_ms,grow_ref_ms,greedy_ns,greedy_ref_ns}`) at
//!     the like-for-like configuration where both engines provably enumerate
//!     identical candidate pools — equality is asserted on every run — plus
//!     assignment-only time and code width over the item-10 generated grid
//!     (`assign.s{states}.d{density}.{ms,vars}`).
//! 13. Step 6 alone: `fsv::generate_covers` (the `fsv`/`Y` minimization and
//!     its exact covering solve) on each checked-in `benchmarks/` grid file,
//!     unreduced with the bounded assignment, as the least of 3 runs
//!     (`step6.s{states}.d{density}.ms`).
//!
//! Usage:
//!
//! ```text
//! bench_json [OUT.json] [--baseline BASELINE.json]
//! ```
//!
//! `OUT.json` defaults to `BENCH.json`.
//!
//! With `--baseline`, every `*_ns` / `*_ms` metric present in both files is
//! compared; the process exits non-zero if any current value exceeds the
//! baseline by more than the 2.5× regression threshold (6× for all-core
//! `campaign.*` wall times, with a small absolute floor so sub-microsecond
//! noise cannot trip the gate), or if any `*.vars`, `*.cubes`, `*.depth`,
//! `*.states` or `*.events` count differs from its baseline at all.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use fantom_bench::reference::{
    adjacent_pair_strings, containment_pair_strings, membership_queries, naive_static_hazard_count,
    packed_words, random_cover, random_cube_strings, scalar_and_into_any, scalar_and_or2_into_any,
    scalar_cube_covers, scalar_cube_has_conflict, synthetic_cover_function, NaiveCube,
};
use fantom_boolean::{lane, quine, recursive, Cube, Function};
use fantom_flow::benchmarks;
use fantom_minimize::{
    compatibility, maximal_compatibles_bounded, reduce, reduce_with_options, ReductionOptions,
};
use seance::{synthesize_sparse, SynthesisOptions};

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

/// Wall-clock one run of `op` in milliseconds, returning its result size.
fn time_ms_once(op: impl FnOnce() -> usize) -> (f64, usize) {
    let start = Instant::now();
    let size = std::hint::black_box(op());
    (start.elapsed().as_secs_f64() * 1e3, size)
}

fn micro_metrics(out: &mut BTreeMap<String, f64>) {
    let pairs = containment_pair_strings(0xBEEF, NUM_VARS, PAIRS);
    let packed: Vec<(Cube, Cube)> = pairs
        .iter()
        .map(|(a, b)| (Cube::parse(a).unwrap(), Cube::parse(b).unwrap()))
        .collect();
    let naive: Vec<(NaiveCube, NaiveCube)> = pairs
        .iter()
        .map(|(a, b)| (NaiveCube::parse(a), NaiveCube::parse(b)))
        .collect();
    let adj = adjacent_pair_strings(0xFEED, NUM_VARS, PAIRS);
    let packed_adj: Vec<(Cube, Cube)> = adj
        .iter()
        .map(|(a, b)| (Cube::parse(a).unwrap(), Cube::parse(b).unwrap()))
        .collect();
    let naive_adj: Vec<(NaiveCube, NaiveCube)> = adj
        .iter()
        .map(|(a, b)| (NaiveCube::parse(a), NaiveCube::parse(b)))
        .collect();
    let member_strings = random_cube_strings(0xBEEF, NUM_VARS, PAIRS);
    let queries = membership_queries(0xBEEF, &member_strings);
    let member_packed: Vec<Cube> = member_strings
        .iter()
        .map(|s| Cube::parse(s).unwrap())
        .collect();
    let member_naive: Vec<NaiveCube> = member_strings.iter().map(|s| NaiveCube::parse(s)).collect();

    let mut put = |name: &str, packed_ns: f64, naive_ns: f64| {
        println!(
            "  micro {name:<20} packed {packed_ns:>10.1} ns   naive {naive_ns:>10.1} ns   {:>6.2}x",
            naive_ns / packed_ns
        );
        out.insert(format!("micro.{name}.packed_ns"), packed_ns);
        out.insert(format!("micro.{name}.naive_ns"), naive_ns);
        out.insert(format!("micro.{name}.speedup"), naive_ns / packed_ns);
    };

    put(
        "containment",
        time_ns(|| packed.iter().filter(|(a, b)| a.covers(b)).count()),
        time_ns(|| naive.iter().filter(|(a, b)| a.covers(b)).count()),
    );
    put(
        "merge_adjacent",
        time_ns(|| {
            packed_adj
                .iter()
                .filter(|(a, b)| a.combine_adjacent(b).is_some())
                .count()
        }),
        time_ns(|| {
            naive_adj
                .iter()
                .filter(|(a, b)| a.combine_adjacent(b).is_some())
                .count()
        }),
    );
    put(
        "intersection",
        time_ns(|| {
            packed
                .iter()
                .filter(|(a, b)| a.intersect(b).is_some())
                .count()
        }),
        time_ns(|| {
            naive
                .iter()
                .filter(|(a, b)| a.intersect(b).is_some())
                .count()
        }),
    );
    put(
        "minterm_membership",
        time_ns(|| {
            member_packed
                .iter()
                .zip(&queries)
                .filter(|(a, &m)| a.contains_minterm(m))
                .count()
        }),
        time_ns(|| {
            member_naive
                .iter()
                .zip(&queries)
                .filter(|(a, &m)| a.contains_minterm(m))
                .count()
        }),
    );
}

/// Deterministic xorshift64 word stream for bucket-bitset corpora.
fn xorshift_words(seed: u64, len: usize) -> Vec<u64> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect()
}

/// `fantom_boolean::lane` slice kernels vs the pre-lane scalar word loops
/// they replaced, over byte-identical word arrays. Widths cover the shape
/// space of the kernels: 32 vars = 1 word (pure scalar tail, the overhead
/// floor), 64 = 2 words (still all tail), 128 = 4 words (exactly one full
/// lane), 256 = 8 words (two lanes). The bucket-AND sweeps reproduce the
/// `CoverIndex::constrain` hot loop — `cand &= same | dc` for bound
/// variables, `cand &= dc` for free ones — over 16-variable constraint
/// chains on 2048- and 16384-cube bucket bitsets.
fn lane_metrics(out: &mut BTreeMap<String, f64>) {
    // 8x the micro-suite pair count: a corpus small enough to stay cache-hot
    // but large enough that the branch predictor cannot memorize the scalar
    // loops' per-word exit pattern across timing iterations, which would
    // flatter the word-at-a-time baseline.
    const LANE_PAIRS: usize = 32 * PAIRS;
    let mut put = |name: &str, lane_ns: f64, scalar_ns: f64| {
        println!(
            "  lane {name:<20} lane {lane_ns:>10.1} ns   scalar {scalar_ns:>10.1} ns   {:>6.2}x",
            scalar_ns / lane_ns
        );
        out.insert(format!("kernel.lane.{name}.lane_ns"), lane_ns);
        out.insert(format!("kernel.lane.{name}.scalar_ns"), scalar_ns);
        out.insert(format!("kernel.lane.{name}.speedup"), scalar_ns / lane_ns);
    };

    for &vars in &[32usize, 64, 128, 256] {
        let pairs: Vec<(Vec<u64>, Vec<u64>)> =
            containment_pair_strings(0xD1CE ^ vars as u64, vars, LANE_PAIRS)
                .iter()
                .map(|(a, b)| (packed_words(a), packed_words(b)))
                .collect();
        put(
            &format!("containment.v{vars}"),
            time_ns(|| {
                pairs
                    .iter()
                    .filter(|(a, b)| lane::cube_covers(a, b))
                    .count()
            }),
            time_ns(|| {
                pairs
                    .iter()
                    .filter(|(a, b)| scalar_cube_covers(a, b))
                    .count()
            }),
        );
        put(
            &format!("intersect.v{vars}"),
            time_ns(|| {
                pairs
                    .iter()
                    .filter(|(a, b)| lane::cube_has_conflict(a, b))
                    .count()
            }),
            time_ns(|| {
                pairs
                    .iter()
                    .filter(|(a, b)| scalar_cube_has_conflict(a, b))
                    .count()
            }),
        );
    }

    const CHAIN_VARS: usize = 16;
    for &cubes in &[2048usize, 16384] {
        let words = cubes / 64;
        let buckets: Vec<(Vec<u64>, Vec<u64>)> = (0..CHAIN_VARS)
            .map(|v| {
                let seed = 0xB1C5 ^ (cubes as u64) << 8 ^ v as u64;
                (
                    xorshift_words(seed, words),
                    xorshift_words(seed.rotate_left(17), words),
                )
            })
            .collect();
        // Repeated application converges `cand` after the first sweep, but
        // every sweep still performs the identical loads, stores and masks —
        // and neither loop under test short-circuits — so reusing one
        // candidate buffer keeps the measurement honest without a per-call
        // reset. Each side gets its own buffer from the same initial state.
        let mut cand = vec![!0u64; words];
        let mut cand_scalar = cand.clone();
        put(
            &format!("bucket_and.c{cubes}"),
            time_ns(|| {
                let mut any = 0u64;
                for (same, dc) in &buckets {
                    any |= lane::and_or2_into_any(&mut cand, same, dc);
                }
                any as usize
            }),
            time_ns(|| {
                let mut any = 0u64;
                for (same, dc) in &buckets {
                    any |= scalar_and_or2_into_any(&mut cand_scalar, same, dc);
                }
                any as usize
            }),
        );
        let mut free = vec![!0u64; words];
        let mut free_scalar = free.clone();
        put(
            &format!("bucket_free.c{cubes}"),
            time_ns(|| {
                let mut any = 0u64;
                for (_, dc) in &buckets {
                    any |= lane::and_into_any(&mut free, dc);
                }
                any as usize
            }),
            time_ns(|| {
                let mut any = 0u64;
                for (_, dc) in &buckets {
                    any |= scalar_and_into_any(&mut free_scalar, dc);
                }
                any as usize
            }),
        );
    }
}

/// The cube engine at n = 16/20/24, against the dense oracles where the
/// `2^n` space is small enough to enumerate.
fn engine_metrics(out: &mut BTreeMap<String, f64>) {
    for &n in &[16usize, 20, 24] {
        // --- Full prime generation on a completely specified union of cubes.
        let cover = random_cover(0xAB5E * n as u64, n, 20, n / 2);
        let (sparse_ms, sparse_primes) = time_ms_once(|| recursive::complete_sum(&cover).len());
        out.insert(format!("engine.primes.n{n}.sparse_ms"), sparse_ms);
        if n <= 16 {
            // The dense tabulation starts from every on ∪ dc minterm — only
            // feasible while 2^n is small.
            let f = Function::from_cover(&cover, None).expect("within dense limit");
            let (dense_ms, dense_primes) = time_ms_once(|| quine::prime_implicants(&f).len());
            assert_eq!(sparse_primes, dense_primes, "prime sets disagree at n={n}");
            out.insert(format!("engine.primes.n{n}.dense_ms"), dense_ms);
            println!(
                "  primes n={n}: sparse {sparse_ms:>9.2} ms   dense {dense_ms:>9.2} ms   ({sparse_primes} primes)"
            );
        } else {
            out.insert(format!("engine.primes.n{n}.dense_infeasible"), 1.0);
            println!(
                "  primes n={n}: sparse {sparse_ms:>9.2} ms   dense infeasible (2^{n} tabulation)   ({sparse_primes} primes)"
            );
        }

        // --- Minimization of a dc-heavy incompletely specified function.
        let cf = synthetic_cover_function(0xD0_0D + n as u64, n, 160, 24, n - 8);
        let (sparse_ms, sparse_cubes) = time_ms_once(|| cf.minimize().cube_count());
        out.insert(format!("engine.minimize.n{n}.sparse_ms"), sparse_ms);
        println!("  minimize n={n}: sparse {sparse_ms:>9.2} ms ({sparse_cubes} cubes)");

        // --- Static-hazard analysis of the minimized cover.
        let cover = cf.minimize();
        let (sparse_ms, sparse_regions) =
            time_ms_once(|| fantom_boolean::hazard::static_hazard_regions(&cover).len());
        out.insert(format!("engine.hazard.n{n}.sparse_ms"), sparse_ms);
        if n <= 20 {
            let (dense_ms, dense_pairs) = time_ms_once(|| naive_static_hazard_count(&cover));
            out.insert(format!("engine.hazard.n{n}.dense_ms"), dense_ms);
            println!(
                "  hazard n={n}: sparse {sparse_ms:>9.2} ms ({sparse_regions} regions)   dense {dense_ms:>9.2} ms ({dense_pairs} pairs)"
            );
        } else {
            out.insert(format!("engine.hazard.n{n}.dense_infeasible"), 1.0);
            println!(
                "  hazard n={n}: sparse {sparse_ms:>9.2} ms ({sparse_regions} regions)   dense infeasible (2^{n}·{n} walk)"
            );
        }

        // --- Indexed consensus augmentation (the Step 7 primitives).
        // The full closure (`add_consensus_terms_cover`) runs on the
        // completely specified prime-generation cover, where the closure is
        // bounded by the prime count; dc-heavy inputs belong to the targeted
        // on-pairs variant (closing a dc-heavy function's every covered
        // adjacency enumerates an exponentially larger prime set — the very
        // reason the sparse pipeline uses on-pair augmentation).
        let spec_cover = random_cover(0xAB5E * n as u64, n, 20, n / 2);
        let spec_off = recursive::complement(&spec_cover);
        let (cover_ms, cover_terms) = time_ms_once(|| {
            fantom_boolean::hazard::add_consensus_terms_cover(&spec_off, &spec_cover).cube_count()
        });
        out.insert(format!("consensus.n{n}.cover_ms"), cover_ms);
        let (pairs_ms, pairs_terms) = time_ms_once(|| {
            fantom_boolean::hazard::add_consensus_terms_on_pairs(
                cf.on_cover(),
                cf.off_cover(),
                &cover,
            )
            .cube_count()
        });
        out.insert(format!("consensus.n{n}.on_pairs_ms"), pairs_ms);
        println!(
            "  consensus n={n}: cover {cover_ms:>9.2} ms ({cover_terms} terms)   on-pairs {pairs_ms:>9.2} ms ({pairs_terms} terms)"
        );
    }

    // --- Dc-dense cover-closure variant. The full closure on a dc-heavy
    // function is exactly the shape Step 7 avoids (see above), so this
    // metric pins its cost on a deliberately *bounded* instance instead of
    // skipping it. The closure's work is bounded by the primes of on ∪ dc it
    // can still add, and the off cover is the knob that shrinks that set:
    // here 64 off cubes bind only 5 of 16 positions each, so the off-set is
    // wide, the don't-care fraction drops, and the closure terminates in
    // tens of milliseconds (~400 terms). The knob is *sharp* — at
    // `off_bound = 6` the same shape already runs for minutes, and the
    // `points = 160, off_bound = n - 8` minimization corpus above blows its
    // prime set up exponentially — which is precisely why the pipeline's
    // production path is the targeted on-pairs variant. Kept at n = 16 only.
    let n = 16usize;
    let dc_cf = synthetic_cover_function(0xDCDC, n, 24, 64, 5);
    let dc_base = dc_cf.minimize();
    let (dc_ms, dc_terms) = time_ms_once(|| {
        fantom_boolean::hazard::add_consensus_terms_cover(dc_cf.off_cover(), &dc_base).cube_count()
    });
    out.insert(format!("consensus.n{n}.cover_dc_ms"), dc_ms);
    out.insert(format!("consensus.n{n}.cover_dc_terms"), dc_terms as f64);
    println!("  consensus n={n}: dc-dense cover closure {dc_ms:>9.2} ms ({dc_terms} terms)");
}

/// Batch synthesis service (the `seance::service` layer): sequential-loop
/// baseline, `synthesize_many` throughput at three batch sizes, and cache
/// temperature on a persistent service. The mixed corpus is the
/// resubmission-heavy traffic the service is built for — the small corpus
/// cycled with fresh random state/input/output relabelings — so throughput
/// reflects the worker pool *and* the canonical-form cache together.
fn batch_metrics(out: &mut BTreeMap<String, f64>) {
    use fantom_flow::canonical::relabel;
    use fantom_flow::FlowTable;
    use seance::{synthesize_many, ServiceOptions, SynthesisService};

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

    let corpus = benchmarks::all();
    let mut rng = 0xBA7C_5EED_u64;
    let mut batch = |size: usize| -> Vec<FlowTable> {
        (0..size)
            .map(|i| {
                let t = &corpus[i % corpus.len()];
                let sm = permutation(&mut rng, t.num_states());
                let im = permutation(&mut rng, t.num_inputs());
                let om = permutation(&mut rng, t.num_outputs());
                relabel(t, &sm, &im, &om, &format!("{}_{i}", t.name()))
            })
            .collect()
    };
    let options = ServiceOptions::default();

    // Baseline: a plain sequential synthesize_sparse loop over the batch —
    // what a caller without the service layer would write.
    let seq_batch = batch(64);
    let start = Instant::now();
    for t in &seq_batch {
        std::hint::black_box(
            synthesize_sparse(t, &options.synthesis).expect("corpus machine synthesizes"),
        );
    }
    let seq_s = start.elapsed().as_secs_f64();
    out.insert("batch.seq.b64.machines_per_s".to_string(), 64.0 / seq_s);
    println!("  batch seq      b64   {:>10.0} machines/s", 64.0 / seq_s);

    for &size in &[1usize, 64, 4096] {
        let b = batch(size);
        let start = Instant::now();
        let outcomes = synthesize_many(&b, &options);
        let secs = start.elapsed().as_secs_f64();
        assert!(
            outcomes.iter().all(|o| o.result.is_ok()),
            "batch machine failed"
        );
        let per_s = size as f64 / secs;
        out.insert(format!("batch.throughput.b{size}.machines_per_s"), per_s);
        println!("  batch service  b{size:<5} {per_s:>10.0} machines/s");
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
                let sm = permutation(rng, v.num_states());
                let im = permutation(rng, v.num_inputs());
                let om = permutation(rng, v.num_outputs());
                machines.push(relabel(&v, &sm, &im, &om, v.name()));
            }
        }
        machines
    };
    let service = SynthesisService::new(ServiceOptions::default());
    let cold_batch = class_batch(&mut rng);
    let start = Instant::now();
    let outcomes = service.synthesize_many(&cold_batch);
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    let stats = service.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 64),
        "cold batch must be 64 distinct isomorphism classes"
    );
    let hit_batch = class_batch(&mut rng);
    let start = Instant::now();
    let outcomes = service.synthesize_many(&hit_batch);
    let hit_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 64, "warm batch must be answered from the cache");
    out.insert("batch.cache.cold_ms".to_string(), cold_ms);
    out.insert("batch.cache.hit_ms".to_string(), hit_ms);
    println!(
        "  batch cache    cold {cold_ms:>8.2} ms   hit {hit_ms:>8.2} ms   {:>6.2}x ({} entries)",
        cold_ms / hit_ms,
        stats.entries
    );
}

/// Simulator throughput: the indexed-queue simulator vs the retired global
/// `BinaryHeap` scheduler on the same inertial workload. The circuit is a
/// bank of wide-fanin xor ladders with randomized delays — every skewed
/// input round makes each ladder gate re-evaluate many times inside its own
/// delay window, so the old engine accumulates superseded-event tombstones
/// (extra pops *and* a fatter heap) and re-reads every fanin per
/// re-evaluation, while the indexed queue cancels in place and the
/// counter-based evaluator pays O(1) per fanout edge. Throughput is
/// normalized to *applied* events — the useful work both simulators perform
/// identically — so the ratio is pure engine cost.
fn sim_metrics(out: &mut BTreeMap<String, f64>) {
    use fantom_bench::heap_sim::{HeapDelayStyle, HeapSimulator};
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
                    // glitches are inertially superseded. The indexed queue
                    // cancels those in place; the heap scheduler pays a
                    // tombstone pop for every one.
                    let v = (r + k as u64) % 2 == 0;
                    let t = base + ((l + k) as u64 % 11);
                    let pulse_back = (k % 2 == 0).then_some((net, !v, t + 5));
                    std::iter::once((net, v, t)).chain(pulse_back)
                })
            })
        })
        .collect();

    // Best-of-N per engine: the workload is deterministic, so the fastest
    // run is the closest estimate of each scheduler's true cost — slower
    // repeats only measure machine noise.
    const REPS: usize = 5;
    let mut indexed_s = f64::INFINITY;
    let mut applied = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut indexed = Simulator::builder(&netlist)
            .delay_model(model.clone())
            .style(DelayStyle::Inertial)
            .event_budget(usize::MAX)
            .build();
        for &(net, value, delta) in &stimulus {
            indexed.schedule_input(net, value, delta);
        }
        indexed.run_until_quiet().expect("workload settles");
        indexed_s = indexed_s.min(start.elapsed().as_secs_f64());
        applied = indexed.events_processed();
    }

    let mut heap_s = f64::INFINITY;
    let mut heap_pops = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut heap = HeapSimulator::with_style(&netlist, &model, HeapDelayStyle::Inertial);
        for &(net, value, delta) in &stimulus {
            heap.schedule_input(net, value, delta);
        }
        heap.run_until_quiet(usize::MAX).expect("workload settles");
        heap_s = heap_s.min(start.elapsed().as_secs_f64());
        heap_pops = heap.events_processed();
    }

    let indexed_per_s = applied as f64 / indexed_s;
    let heap_per_s = applied as f64 / heap_s;
    out.insert("sim.events_per_s.indexed".to_string(), indexed_per_s);
    out.insert("sim.events_per_s.heap".to_string(), heap_per_s);
    out.insert("sim.speedup".to_string(), heap_s / indexed_s);
    println!(
        "  sim scheduler: indexed {indexed_per_s:>12.0} ev/s   heap {heap_per_s:>12.0} ev/s   {:>5.2}x  ({applied} applied, {heap_pops} heap pops)",
        heap_s / indexed_s,
    );
}

/// Monte-Carlo hazard-validation campaigns over the full corpus: 1000
/// sampled delay assignments per machine (every stable transition on the
/// small corpus, 2 sampled sequences per assignment on the large suite),
/// asserting every report is clean — the dynamic confirmation of the
/// analytical hazard verdicts.
fn campaign_metrics(out: &mut BTreeMap<String, f64>) {
    use seance::{run_campaign_sparse, CampaignOptions};

    let assignments = 1000;
    let synthesis = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::default()
    };
    for table in benchmarks::all() {
        let result = synthesize_sparse(&table, &synthesis).expect("corpus synthesizes");
        let options = CampaignOptions {
            assignments,
            ..CampaignOptions::default()
        };
        let start = Instant::now();
        let report = run_campaign_sparse(&result, &options);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(report.is_clean(), "{}:\n{}", table.name(), report.render());
        println!(
            "  campaign {:<18} {ms:>9.1} ms   {} steps, {} events, clean",
            table.name(),
            report.steps,
            report.events
        );
        out.insert(format!("campaign.{}.ms", table.name()), ms);
        out.insert(
            format!("campaign.{}.events", table.name()),
            report.events as f64,
        );
    }
    for table in benchmarks::large_suite() {
        let result = synthesize_sparse(&table, &SynthesisOptions::for_large_machines())
            .expect("large machines synthesize");
        let options = CampaignOptions {
            assignments,
            sequences_per_assignment: 2,
            ..CampaignOptions::default()
        };
        let start = Instant::now();
        let report = run_campaign_sparse(&result, &options);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(report.is_clean(), "{}:\n{}", table.name(), report.render());
        println!(
            "  campaign {:<18} {ms:>9.1} ms   {} steps, {} events, clean",
            table.name(),
            report.steps,
            report.events
        );
        out.insert(format!("campaign.{}.ms", table.name()), ms);
        out.insert(
            format!("campaign.{}.events", table.name()),
            report.events as f64,
        );
    }
}

/// Step-7 hazard factoring on the unreduced large suite: the threaded
/// (default) and single-threaded consensus fan-out, timed with the spec /
/// hazard / Step-6 preparation excluded.
fn factoring_metrics(out: &mut BTreeMap<String, f64>) {
    use seance::factoring::{factor_covers, FactoringOptions};
    let options = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::for_large_machines()
    };
    for table in benchmarks::large_suite() {
        let name = table.name().to_string();
        let assignment = fantom_assign::assign_with_options(&table, &options.assignment);
        let spec = seance::SpecifiedTable::new(table.clone(), assignment).expect("spec builds");
        let hazards = seance::hazard::analyze(&spec);
        let equations = seance::fsv::generate_covers(&spec, &hazards).expect("Step 6 succeeds");
        let runs = 10;
        let measure = |parallel_y: bool| {
            let opts = FactoringOptions {
                parallel_y,
                ..FactoringOptions::default()
            };
            let start = Instant::now();
            for _ in 0..runs {
                std::hint::black_box(factor_covers(&spec, &equations, opts));
            }
            start.elapsed().as_secs_f64() * 1e3 / f64::from(runs)
        };
        let threaded_ms = measure(true);
        let serial_ms = measure(false);
        println!(
            "  factor {name:<10} threaded {threaded_ms:>8.3} ms   serial {serial_ms:>8.3} ms ({} Y vars)",
            equations.y_covers.len()
        );
        out.insert(format!("factor.{name}.ms"), threaded_ms);
        out.insert(format!("factor.{name}.serial_ms"), serial_ms);
    }
}

/// Step 6 on the checked-in grid files (`benchmarks/gen_s*_d*.kiss`),
/// unreduced and assigned with the bounded budgets: the least of 3 runs of
/// `fsv::generate_covers`, with assignment, spec and hazard analysis outside
/// the timed region. Keys carry the grid coordinates (`step6.s26.d25.ms`).
fn step6_metrics(out: &mut BTreeMap<String, f64>) {
    use fantom_assign::{assign_with_options, AssignmentOptions};
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let bounded = AssignmentOptions::bounded();
    for &states in &[10usize, 18, 26] {
        for &dc in &[25u32, 50, 75] {
            let path = dir.join(format!(
                "gen_s{states}_i2_o1_d{dc}_f2_c3_m1_r0_x5eedf10c.kiss"
            ));
            let table = benchmarks::import_kiss_file(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let assignment = assign_with_options(&table, &bounded);
            let spec = seance::SpecifiedTable::new(table, assignment).expect("spec builds");
            let hazards = seance::hazard::analyze(&spec);
            let ms = (0..3)
                .map(|_| {
                    time_ms_once(|| {
                        let equations =
                            seance::fsv::generate_covers(&spec, &hazards).expect("Step 6 succeeds");
                        equations.y_covers.len()
                    })
                    .0
                })
                .fold(f64::INFINITY, f64::min);
            println!("  step6 s{states:<3} d{dc:<3} {ms:>9.3} ms");
            out.insert(format!("step6.s{states}.d{dc}.ms"), ms);
        }
    }
}

/// Step-2 reduction metrics: bounded reduction on the large suite (the
/// pivoted, capped Bron–Kerbosch engine) and the exact reducer over the
/// small corpus.
fn reduction_metrics(out: &mut BTreeMap<String, f64>) {
    let options = ReductionOptions::bounded();
    for table in benchmarks::large_suite() {
        let name = table.name().to_string();
        let compat = compatibility(&table);
        let enumeration = maximal_compatibles_bounded(&compat, &options);
        let runs = 20;
        let start = Instant::now();
        let mut reduction = reduce_with_options(&table, &options);
        for _ in 1..runs {
            reduction = reduce_with_options(&table, &options);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
        println!(
            "  reduce {name:<10} {ms:>9.3} ms   {} -> {} states, {} compatibles (complete {})",
            table.num_states(),
            reduction.table.num_states(),
            enumeration.compatibles.len(),
            enumeration.complete,
        );
        out.insert(format!("reduce.{name}.ms"), ms);
        out.insert(
            format!("reduce.{name}.compatibles"),
            enumeration.compatibles.len() as f64,
        );
        out.insert(
            format!("reduce.{name}.classes"),
            reduction.table.num_states() as f64,
        );
        out.insert(
            format!("reduce.{name}.complete"),
            f64::from(enumeration.complete),
        );
    }
    // Exact reduction across the whole small corpus, as one aggregate metric.
    let small = benchmarks::all();
    let runs = 20;
    let start = Instant::now();
    for _ in 0..runs {
        for table in &small {
            std::hint::black_box(reduce(table));
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
    println!(
        "  reduce small corpus ({} machines) {ms:>9.3} ms",
        small.len()
    );
    out.insert("reduce.small_corpus.ms".to_string(), ms);
}

/// Step-3 assignment metrics: the packed Tracey engine over the small corpus
/// (default budgets) and the unreduced large suite (the bounded budgets the
/// large-machine path uses). `vars` records the code width so width
/// regressions are visible alongside time regressions.
fn assignment_metrics(out: &mut BTreeMap<String, f64>) {
    use fantom_assign::{assign_with_options, AssignmentOptions};
    let mut measure = |table: &fantom_flow::FlowTable, options: &AssignmentOptions, runs: u32| {
        let start = Instant::now();
        let mut assignment = assign_with_options(table, options);
        for _ in 1..runs {
            assignment = assign_with_options(table, options);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
        assignment
            .verify(table)
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        println!(
            "  assign {:<14} {ms:>9.3} ms   {} states -> {} vars",
            table.name(),
            table.num_states(),
            assignment.num_vars()
        );
        out.insert(format!("assign.{}.ms", table.name()), ms);
        out.insert(
            format!("assign.{}.vars", table.name()),
            assignment.num_vars() as f64,
        );
    };
    let default = AssignmentOptions::default();
    for table in benchmarks::all() {
        measure(&table, &default, 20);
    }
    let bounded = AssignmentOptions::bounded();
    for table in benchmarks::large_suite() {
        measure(&table, &bounded, 5);
    }
    // Assignment-only coverage of the item-10 generated grid: keys carry the
    // lattice coordinates (`assign.s18.d50.ms`) instead of the generator's
    // long seed-bearing names, mirroring `grid.*`.
    use fantom_flow::generate::{generate, GeneratorOptions};
    for &states in &[10usize, 18, 26] {
        for &dc in &[0.25f64, 0.5, 0.75] {
            let table = generate(&GeneratorOptions {
                states,
                dc_density: dc,
                ..GeneratorOptions::default()
            });
            let runs = 10;
            let start = Instant::now();
            let mut assignment = assign_with_options(&table, &bounded);
            for _ in 1..runs {
                assignment = assign_with_options(&table, &bounded);
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
            assignment
                .verify(&table)
                .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
            let key = format!("assign.s{states}.d{}", (dc * 100.0) as u32);
            println!(
                "  assign s{states:<3} d{:<3}    {ms:>9.3} ms   {} states -> {} vars",
                (dc * 100.0) as u32,
                table.num_states(),
                assignment.num_vars()
            );
            out.insert(format!("{key}.ms"), ms);
            out.insert(format!("{key}.vars"), assignment.num_vars() as f64);
        }
    }
}

/// Item 12: the indexed Step-3 engine vs the retained scalar references.
///
/// `grow_candidates` (shared dichotomy index, one monotone absorption pass,
/// covers from one index query per distinct candidate) is compared against
/// [`fantom_bench::reference::scalar_candidate_growth`] (two wrap-around
/// `try_absorb` passes plus a full separation rescan per candidate), and the
/// lazy-max [`fantom_boolean::covering::greedy_cover`] against the rescan-per-pick
/// [`fantom_bench::reference::scalar_greedy_cover`], on the unreduced large
/// suite. Both comparisons run at the like-for-like configuration (two seed
/// orderings, adjacency seeding off) where the engines provably enumerate
/// identical pools and picks — asserted here so the reference can never
/// silently drift from the production engine.
fn assign_index_metrics(out: &mut BTreeMap<String, f64>) {
    use fantom_assign::{grow_candidates, required_dichotomies, AssignScratch, AssignmentOptions};
    use fantom_bench::reference::{scalar_candidate_growth, scalar_greedy_cover};
    use fantom_boolean::covering::greedy_cover;

    let mut scratch = AssignScratch::default();
    for table in benchmarks::large_suite() {
        let dichotomies = required_dichotomies(&table);
        let options = AssignmentOptions {
            seed_orderings: 2,
            adjacency_seeding: false,
            ..AssignmentOptions::bounded()
        };
        let runs = 5;
        let start = Instant::now();
        let mut pool_len = 0usize;
        for _ in 0..runs {
            pool_len = grow_candidates(&dichotomies, &[], &options, &mut scratch).len();
        }
        let grow_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);

        let start = Instant::now();
        let mut reference =
            scalar_candidate_growth(&dichotomies, 2, options.max_candidate_partitions);
        for _ in 1..runs {
            reference = scalar_candidate_growth(&dichotomies, 2, options.max_candidate_partitions);
        }
        let grow_ref_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);

        let pool = grow_candidates(&dichotomies, &[], &options, &mut scratch);
        assert_eq!(pool.len(), reference.len(), "{}: pool size", table.name());
        for (p, (d, covers)) in pool.iter().zip(&reference) {
            assert_eq!(p.dichotomy(), d, "{}: candidate pool", table.name());
            assert!(p.covers().same_contents(covers), "{}: covers", table.name());
        }

        let covers: Vec<_> = reference.into_iter().map(|(_, c)| c).collect();
        let num = dichotomies.len();
        assert_eq!(
            greedy_cover(&covers, num),
            scalar_greedy_cover(&covers, num),
            "{}: greedy picks",
            table.name()
        );
        let greedy_ns = time_ns(|| greedy_cover(&covers, num).len());
        let greedy_ref_ns = time_ns(|| scalar_greedy_cover(&covers, num).len());

        let name = table.name();
        println!(
            "  index {name:<10} grow {grow_ms:>8.3} ms (scalar {grow_ref_ms:>8.3} ms, {pool_len} candidates)   greedy {greedy_ns:>9.0} ns (scalar {greedy_ref_ns:>9.0} ns)"
        );
        out.insert(format!("assign.index.{name}.grow_ms"), grow_ms);
        out.insert(format!("assign.index.{name}.grow_ref_ms"), grow_ref_ms);
        out.insert(format!("assign.index.{name}.greedy_ns"), greedy_ns);
        out.insert(format!("assign.index.{name}.greedy_ref_ns"), greedy_ref_ns);
    }
}

fn synthesis_metrics(out: &mut BTreeMap<String, f64>) {
    // `e2e.*` keeps the PR 2 shape (Step 2 off, full 40-state tables) so the
    // baseline comparison stays like-for-like; `e2e_reduced.*` is the default
    // large-machine path with bounded Step-2 reduction enabled.
    let unreduced = SynthesisOptions {
        minimize_states: false,
        ..SynthesisOptions::for_large_machines()
    };
    let reduced = SynthesisOptions::for_large_machines();
    for table in benchmarks::large_suite() {
        // Average a few runs — single-shot second-scale samples are too noisy
        // to gate on shared CI runners.
        let runs = 3;
        let start = Instant::now();
        let mut result = synthesize_sparse(&table, &unreduced).expect("sparse synthesis succeeds");
        for _ in 1..runs {
            result = synthesize_sparse(&table, &unreduced).expect("sparse synthesis succeeds");
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
        println!(
            "  e2e   {:<14} {ms:>9.1} ms (sparse, {} vars, depth {})",
            table.name(),
            result.spec.num_vars(),
            result.depth.total_depth
        );
        out.insert(format!("e2e.{}.ms", table.name()), ms);
        out.insert(
            format!("e2e.{}.vars", table.name()),
            result.spec.num_vars() as f64,
        );

        let start = Instant::now();
        let mut result = synthesize_sparse(&table, &reduced).expect("reduced synthesis succeeds");
        for _ in 1..runs {
            result = synthesize_sparse(&table, &reduced).expect("reduced synthesis succeeds");
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
        println!(
            "  e2e   {:<14} {ms:>9.1} ms (sparse + bounded Step 2, {} states, {} vars)",
            format!("{}*", table.name()),
            result.reduced_table.num_states(),
            result.spec.num_vars(),
        );
        out.insert(format!("e2e_reduced.{}.ms", table.name()), ms);
        out.insert(
            format!("e2e_reduced.{}.states", table.name()),
            result.reduced_table.num_states() as f64,
        );
    }
}

/// Generated-machine grid: sparse synthesis over the 3×3 (size × dc-density)
/// lattice of `fantom_flow::generate` machines. Key names carry the grid
/// coordinates (`grid.s18.d50.ms` = 18 states at 50% dc-density); `cubes` is
/// the total first-level gate count of the factored machine (fsv + Y + Z
/// covers) and `depth` the Table-1 total depth, so gate-count regressions in
/// any of Steps 2–7 surface here even when wall time stays flat.
fn grid_metrics(out: &mut BTreeMap<String, f64>) {
    use fantom_flow::generate::{generate, GeneratorOptions};

    let options = SynthesisOptions::for_large_machines();
    for &states in &[10usize, 18, 26] {
        for &dc in &[0.25f64, 0.5, 0.75] {
            let table = generate(&GeneratorOptions {
                states,
                dc_density: dc,
                ..GeneratorOptions::default()
            });
            let runs = 5;
            let start = Instant::now();
            let mut result = synthesize_sparse(&table, &options).expect("grid machine synthesizes");
            for _ in 1..runs {
                result = synthesize_sparse(&table, &options).expect("grid machine synthesizes");
            }
            let ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(runs);
            let cubes = result.factored.fsv_cover.cube_count()
                + result
                    .factored
                    .y_covers
                    .iter()
                    .map(|c| c.cube_count())
                    .sum::<usize>()
                + result
                    .outputs
                    .z_covers
                    .iter()
                    .map(|c| c.cube_count())
                    .sum::<usize>();
            let key = format!("grid.s{states}.d{}", (dc * 100.0) as u32);
            println!(
                "  grid s{states:<3} d{:<3} {ms:>9.3} ms   {cubes:>4} cubes, depth {}",
                (dc * 100.0) as u32,
                result.depth.total_depth
            );
            out.insert(format!("{key}.ms"), ms);
            out.insert(format!("{key}.cubes"), cubes as f64);
            out.insert(format!("{key}.depth"), result.depth.total_depth as f64);
        }
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
    let mut violations = Vec::new();
    for (key, &base) in baseline {
        let Some(&now) = current.get(key) else {
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
            continue; // speedups, ratios and flags are not gated
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

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();

    println!("cube-kernel micro benchmarks ({PAIRS} pairs, {NUM_VARS} vars):");
    micro_metrics(&mut metrics);
    println!("\nlane kernels vs scalar word loops:");
    lane_metrics(&mut metrics);
    println!("\ncube engine vs dense oracles:");
    engine_metrics(&mut metrics);
    println!("\nstate reduction (Step 2):");
    reduction_metrics(&mut metrics);
    println!("\nstate assignment (Step 3):");
    assignment_metrics(&mut metrics);
    println!("\nindexed assignment engine vs scalar references:");
    assign_index_metrics(&mut metrics);
    println!("\nfsv and Y minimization (Step 6):");
    step6_metrics(&mut metrics);
    println!("\nhazard factoring (Step 7):");
    factoring_metrics(&mut metrics);
    println!("\nend-to-end synthesis:");
    synthesis_metrics(&mut metrics);
    println!("\nbatch synthesis service:");
    batch_metrics(&mut metrics);
    println!("\nsimulator scheduler:");
    sim_metrics(&mut metrics);
    println!("\nhazard-validation campaigns:");
    campaign_metrics(&mut metrics);
    println!("\ngenerated-machine grid:");
    grid_metrics(&mut metrics);

    let mut json = String::from("{\n");
    let total = metrics.len();
    for (i, (key, value)) in metrics.iter().enumerate() {
        let _ = writeln!(
            json,
            "  \"{key}\": {value:.4}{}",
            if i + 1 < total { "," } else { "" }
        );
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench JSON");
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
                "perf gate: FAILED — {} regression(s) vs {path}:",
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
        // Ratios, speedups and keys missing from the run are not gated.
        assert!(gate("sim.speedup", 3.0, 0.1).is_empty());
        let base = BTreeMap::from([("grid.s10.d25.cubes".to_string(), 76.0)]);
        assert!(regressions(&BTreeMap::new(), &base).is_empty());
    }
}
