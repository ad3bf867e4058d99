//! `service` workload: one client sends 64-machine batches to a persistent
//! `SynthesisService` (default options, two workers, cache on), each batch
//! after the previous one returned. Most submissions relabel a recurring
//! isomorphism class, so the cache answers them; a fixed share per batch
//! are fresh classes that the pipeline synthesizes.

use std::time::{Duration, Instant};

use fantom_flow::canonical::{canonical_table, canonicalize};
use fantom_flow::validate;
use seance::service::{CacheStatus, ServiceOptions, SynthesisOutcome, SynthesisService};
use seance::{synthesize_many, synthesize_sparse};

use crate::report::Report;
use crate::stats::{room_for_another, Timings};
use crate::trace::{self_time_ns, Tracer};
use crate::{inputs, Quality};

/// Generated recurring classes next to the small corpus.
const GENERATED_CLASSES: usize = 24;
/// Batches per pass; each pass starts a new service.
const BATCHES: usize = 128;
const BATCH_SIZE: usize = 64;
/// Fresh isomorphism classes per batch (cache misses).
const FRESH_PER_BATCH: usize = 2;
const WORKERS: usize = 2;

pub struct Inputs {
    service: inputs::ServiceInputs,
    transitions: Vec<u64>,
}

pub fn setup(seed: u64) -> Inputs {
    let service = inputs::service_inputs(
        seed,
        GENERATED_CLASSES,
        BATCHES,
        BATCH_SIZE,
        FRESH_PER_BATCH,
    );
    let transitions = service
        .batches
        .iter()
        .map(|b| b.iter().map(|t| t.stable_transitions().len() as u64).sum())
        .collect();
    Inputs {
        service,
        transitions,
    }
}

/// A service with the recurring classes already cached, as a long-running
/// server would have them.
fn warm_service(inputs: &Inputs, workers: usize) -> SynthesisService {
    let service = SynthesisService::new(ServiceOptions {
        parallelism: workers,
        ..ServiceOptions::default()
    });
    let warm = service.synthesize_many(&inputs.service.classes);
    assert!(
        warm.iter().all(|o| o.result.is_ok()),
        "recurring classes synthesize"
    );
    service
}

fn lines(outcomes: &[SynthesisOutcome]) -> Vec<String> {
    outcomes.iter().map(SynthesisOutcome::report_line).collect()
}

/// One pass: a new warmed service answers every batch in order.
fn pass(
    inputs: &Inputs,
    workers: usize,
    mut each: impl FnMut(usize, Duration, &[SynthesisOutcome]),
) {
    let service = warm_service(inputs, workers);
    for (b, batch) in inputs.service.batches.iter().enumerate() {
        let start = Instant::now();
        let outcomes = service.synthesize_many(batch);
        each(b, start.elapsed(), &outcomes);
    }
}

/// Report lines of a one-worker service over the same batches: the
/// reference every pass must reproduce byte for byte.
fn reference(inputs: &Inputs) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    pass(inputs, 1, |_, _, outcomes| out.push(lines(outcomes)));
    out
}

pub fn run(inputs: &Inputs, seconds: f64, report: &mut Report) {
    let mut timings = Timings::default();
    let mut first: Vec<Vec<String>> = Vec::new();
    let mut changed = vec![false; inputs.service.batches.len()];
    let start = Instant::now();
    while timings.more(start, seconds) {
        let is_first = timings.is_first_pass();
        pass(inputs, WORKERS, |b, took, outcomes| {
            timings.record(b, took, outcomes.len(), inputs.transitions[b]);
            if is_first {
                first.push(lines(outcomes));
            } else {
                changed[b] |= lines(outcomes) != first[b];
            }
        });
        timings.end_pass();
    }
    let expected = reference(inputs);
    for (b, batch) in inputs.service.batches.iter().enumerate() {
        for (k, table) in batch.iter().enumerate() {
            let line = &first[b][k];
            let ok = line.contains("status=ok") && *line == expected[b][k] && !changed[b];
            report.check(ok, || {
                format!("{}: {line} vs {}", table.name(), expected[b][k])
            });
        }
    }
    // Circuit quality of the recurring classes, which carry all but the
    // fresh share of the traffic; fresh classes vary with the seed.
    let mut quality = Quality::default();
    let serial = ServiceOptions {
        parallelism: 1,
        ..ServiceOptions::default()
    };
    for outcome in synthesize_many(&inputs.service.classes, &serial) {
        let r = outcome.result.expect("recurring classes synthesize");
        quality.add(&r.assignment, &r.factored, &r.outputs.z_covers, &r.depth);
    }
    timings.report(report);
    quality.report(report);
}

pub fn run_traced(inputs: &Inputs, seconds: f64, report: &mut Report, tracer: &mut Tracer) {
    let options = ServiceOptions::default();
    let batches = &inputs.service.batches;
    let mut untraced = Duration::ZERO;
    let mut roots = Vec::new();
    let (mut requests, mut exact, mut hits, mut misses) = (0usize, 0usize, 0usize, 0usize);
    let start = Instant::now();
    let mut n = 0;
    while room_for_another(start, n, seconds) {
        // The same pass untraced, then traced, then once more on one worker
        // with the per-request probes.
        pass(inputs, WORKERS, |_, took, _| untraced += took);
        let pool = warm_service(inputs, WORKERS);
        let warm_stats = pool.cache_stats();
        let mut pooled = Vec::with_capacity(batches.len());
        for (b, batch) in batches.iter().enumerate() {
            let root = tracer.open("batch", None, (n * batches.len() + b) as u64);
            let outcomes = tracer.span("service.pool", root, || pool.synthesize_many(batch));
            tracer.close(root);
            roots.push(root);
            pooled.push(lines(&outcomes));
        }
        if n == 0 {
            let stats = pool.cache_stats();
            hits = stats.hits - warm_stats.hits;
            misses = stats.misses - warm_stats.misses;
        }
        let serial = warm_service(inputs, 1);
        for (b, batch) in batches.iter().enumerate() {
            let root = tracer.open("batch.serial", None, (n * batches.len() + b) as u64);
            let one = tracer.span("service.serial", root, || serial.synthesize_many(batch));
            for (table, outcome) in batch.iter().zip(&one) {
                tracer.span("flow.validate", root, || {
                    validate::validate(table).is_acceptable()
                });
                let (canon, ctable) = tracer.span("flow.canonicalize", root, || {
                    let c = canonicalize(table, &options.canonical);
                    let t = canonical_table(table, &c);
                    (c, t)
                });
                let missed = matches!(&outcome.result, Ok(r) if r.cache == CacheStatus::Miss);
                if missed {
                    let r = tracer.span("service.miss_synth", root, || {
                        synthesize_sparse(&ctable, &options.synthesis)
                    });
                    report.check(r.is_ok(), || {
                        format!("{}: canonical table fails", table.name())
                    });
                }
                if n == 0 {
                    requests += 1;
                    exact += usize::from(canon.exact);
                }
            }
            tracer.close(root);
            roots.push(root);
            if n == 0 {
                let same = lines(&one) == pooled[b];
                report.check(same, || {
                    format!("batch {b}: 2-worker lines differ from 1-worker")
                });
            }
        }
        n += 1;
    }

    let spans = tracer.spans();
    let sum = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    };
    let batches = (n * batches.len()) as f64;
    let (validate_ms, canon_ms, miss_ms) = (
        sum("flow.validate"),
        sum("flow.canonicalize"),
        sum("service.miss_synth"),
    );
    let (pool_ms, serial_ms) = (sum("service.pool"), sum("service.serial"));
    report.set("flow.validate.ms", validate_ms / batches);
    report.set("flow.canonicalize.ms", canon_ms / batches);
    report.set(
        "flow.canonical.exact_ratio",
        exact as f64 / requests.max(1) as f64,
    );
    report.set("service.miss_synth.ms", miss_ms / batches);
    report.set(
        "service.self.ms",
        (serial_ms - validate_ms - canon_ms - miss_ms) / batches,
    );
    report.set(
        "service.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("service.pool.speedup", serial_ms / pool_ms);
    let root_ns: u64 = roots.iter().map(|&r| spans[r].ns()).sum();
    let self_ns: u64 = roots.iter().map(|&r| self_time_ns(spans, r)).sum();
    report.set(
        "trace.span_coverage",
        1.0 - self_ns as f64 / root_ns.max(1) as f64,
    );
    report.set(
        "trace.overhead_ratio",
        pool_ms / (untraced.as_secs_f64() * 1e3),
    );
}
