//! `campaign` workload: the small corpus, the large suite and the grid files
//! are synthesized once in set-up; the timed loop runs Monte-Carlo
//! hazard-validation campaigns (`run_campaign_sparse`, two workers) over
//! several pinned campaign seeds per machine, one campaign at a time, in an
//! order drawn from the run seed.

use std::time::{Duration, Instant};

use fantom_flow::benchmarks;
use seance::emit::{emit_parts, MachineParts};
use seance::{
    run_campaign_sparse, synthesize_sparse, CampaignOptions, CampaignReport, SparseSynthesisResult,
    SynthesisOptions,
};

use crate::report::Report;
use crate::stats::{room_for_another, Timings};
use crate::trace::{self_time_ns, Tracer};
use crate::{inputs, relabel, Quality};

/// Campaign seeds per machine.
const SEEDS_PER_MACHINE: usize = 6;
/// Sampled delay assignments per campaign.
const ASSIGNMENTS: usize = 16;
const WORKERS: usize = 2;

pub struct Inputs {
    machines: Vec<SparseSynthesisResult>,
    /// `(machine index, campaign seed)` per request.
    requests: Vec<(usize, u64)>,
}

pub fn setup(seed: u64) -> Inputs {
    let small = SynthesisOptions {
        parallel_factoring: false,
        ..SynthesisOptions::default()
    };
    let mut tables: Vec<_> = benchmarks::all().into_iter().map(|t| (t, small)).collect();
    let large = benchmarks::large_suite()
        .into_iter()
        .chain(inputs::grid_files());
    tables.extend(large.map(|t| (t, relabel::options())));
    let machines: Vec<SparseSynthesisResult> = tables
        .iter()
        .map(|(t, options)| {
            synthesize_sparse(t, options)
                .unwrap_or_else(|e| panic!("{}: corpus machine fails: {e}", t.name()))
        })
        .collect();
    let requests = inputs::campaign_requests(seed, machines.len(), SEEDS_PER_MACHINE);
    Inputs { machines, requests }
}

fn options(seed: u64, workers: usize, oracle: bool) -> CampaignOptions {
    CampaignOptions {
        seed,
        workers,
        oracle,
        assignments: ASSIGNMENTS,
        ..CampaignOptions::default()
    }
}

fn campaign(
    result: &SparseSynthesisResult,
    options: &CampaignOptions,
) -> (Duration, CampaignReport) {
    let start = Instant::now();
    let report = run_campaign_sparse(result, options);
    (start.elapsed(), report)
}

pub fn run(inputs: &Inputs, seconds: f64, report: &mut Report) {
    let mut timings = Timings::default();
    let mut first: Vec<u64> = Vec::with_capacity(inputs.requests.len());
    let start = Instant::now();
    while timings.more(start, seconds) {
        for (i, &(m, seed)) in inputs.requests.iter().enumerate() {
            let machine = &inputs.machines[m];
            let (took, r) = campaign(machine, &options(seed, WORKERS, true));
            let is_first = timings.is_first_pass();
            timings.record(i, took, 1, r.steps);
            let ok = r.is_clean() && (is_first || r.events == first[i]);
            report.check(ok, || {
                format!("{} seed {seed}: {}", machine.name, r.render())
            });
            if is_first {
                first.push(r.events);
            }
        }
        timings.end_pass();
    }
    let mut quality = Quality::default();
    for r in &inputs.machines {
        quality.add(&r.assignment, &r.factored, &r.outputs.z_covers, &r.depth);
    }
    timings.report(report);
    quality.report(report);
}

pub fn run_traced(inputs: &Inputs, seconds: f64, report: &mut Report, tracer: &mut Tracer) {
    let mut untraced = Duration::ZERO;
    let mut roots = Vec::new();
    let (mut gates, mut events, mut steps, mut protected) = (0usize, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut pass = 0;
    while room_for_another(start, pass, seconds) {
        for (i, &(m, seed)) in inputs.requests.iter().enumerate() {
            let machine = &inputs.machines[m];
            let (took, direct) = campaign(machine, &options(seed, WORKERS, true));
            untraced += took;
            let root = tracer.open("campaign", None, (pass * inputs.requests.len() + i) as u64);
            let pooled = tracer.span("campaign.pool", root, || {
                run_campaign_sparse(machine, &options(seed, WORKERS, true))
            });
            let netlist = tracer.span("emit", root, || {
                emit_parts(
                    &MachineParts::from(machine),
                    CampaignOptions::default().loop_stages,
                )
            });
            let serial = tracer.span("campaign.serial", root, || {
                run_campaign_sparse(machine, &options(seed, 1, true))
            });
            tracer.span("campaign.no_oracle", root, || {
                run_campaign_sparse(machine, &options(seed, 1, false))
            });
            tracer.close(root);
            roots.push(root);
            if pass == 0 {
                let ok = pooled.is_clean()
                    && pooled.events == direct.events
                    && serial.render() == pooled.render();
                report.check(ok, || {
                    format!("{} seed {seed}: traced run differs", machine.name)
                });
                events += pooled.events;
                steps += pooled.steps;
                protected += pooled.protected_steps;
                gates += netlist.netlist.num_gates();
            }
        }
        pass += 1;
    }

    let spans = tracer.spans();
    let sum_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    };
    let n = roots.len() as f64;
    let (pool_ms, serial_ms) = (sum_ms("campaign.pool"), sum_ms("campaign.serial"));
    report.set("emit.ms", sum_ms("emit") / n);
    report.set("emit.gates", (gates / SEEDS_PER_MACHINE) as f64);
    report.set("campaign.ms", serial_ms / n);
    report.set(
        "campaign.oracle.ms",
        (serial_ms - sum_ms("campaign.no_oracle")) / n,
    );
    report.set(
        "campaign.protected_ratio",
        protected as f64 / steps.max(1) as f64,
    );
    report.set("sim.events", events as f64);
    report.set(
        "sim.events_per_s",
        events as f64 * pass as f64 / (serial_ms / 1e3),
    );
    report.set("campaign.pool.speedup", serial_ms / pool_ms);
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
