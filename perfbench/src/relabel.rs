//! `relabel` workload: the grid files and the large suite under seeded
//! relabelings, synthesized one at a time through `synthesize_sparse` with
//! the large-machine options on one core. The traced run times a
//! public-call replica of `synthesize_sparse_with`, step by step.

use std::time::{Duration, Instant};

use fantom_assign::{assign_in, required_dichotomies, AssignScratch};
use fantom_boolean::hazard::{static_hazard_regions, ConsensusScratch};
use fantom_boolean::{Cover, CoverFunction, Cube, Literal};
use fantom_flow::{validate, FlowTable};
use fantom_minimize::reduce_with_options;
use seance::factoring::{factor_covers_with, FactoringOptions};
use seance::{depth, fsv, hazard, outputs};
use seance::{synthesize_sparse, SparseSynthesisResult, SpecifiedTable, SynthesisOptions};

use crate::report::Report;
use crate::stats::{percentile, room_for_another, Timings};
use crate::trace::{self_time_ns, Tracer};
use crate::{inputs, Quality};

/// Seeded relabelings per base machine.
const PER_MACHINE: usize = 20;

/// Span name and per-layer metric of each step of the replica, in pipeline
/// order: the seven steps plus validation and depth.
const STEPS: [(&str, &str); 9] = [
    ("flow.validate", "flow.validate.ms"),
    ("minimize.reduce", "minimize.reduce.ms"),
    ("assign", "assign.ms"),
    ("spec", "spec.ms"),
    ("outputs", "outputs.ms"),
    ("hazard", "hazard.ms"),
    ("fsv", "fsv.ms"),
    ("factoring", "factoring.ms"),
    ("depth", "depth.ms"),
];

pub fn options() -> SynthesisOptions {
    SynthesisOptions {
        parallel_factoring: false,
        ..SynthesisOptions::for_large_machines()
    }
}

pub struct Request {
    table: FlowTable,
    transitions: u64,
}

pub fn setup(seed: u64) -> Vec<Request> {
    inputs::relabel_inputs(seed, PER_MACHINE)
        .into_iter()
        .map(|table| Request {
            transitions: table.stable_transitions().len() as u64,
            table,
        })
        .collect()
}

/// `true` when every single-input change between two on-set points of `f`
/// is held by one cube of `cover`: the static-hazard freedom the sparse
/// Step 7 guarantees. Plain `is_static_hazard_free` is stricter and also
/// flags pairs that end in a don't-care, which the engine leaves free.
fn on_pairs_hazard_free(f: &CoverFunction, cover: &Cover) -> bool {
    static_hazard_regions(cover).iter().all(|r| {
        let v = r.variable;
        let end = |lit: Literal| -> Vec<Cube> {
            let side = r.region.with_literal(v, lit);
            f.on_cover()
                .iter()
                .filter_map(|c| c.intersect(&side))
                .map(|c| c.with_literal(v, Literal::DontCare))
                .collect()
        };
        let (low, high) = (end(Literal::Zero), end(Literal::One));
        !low.iter()
            .any(|a| high.iter().any(|b| a.intersect(b).is_some()))
    })
}

/// The output checks of one result: a race-free assignment, factored covers
/// that implement their functions and hold every on-set single-input change
/// with one cube.
fn check(r: &SparseSynthesisResult) -> Result<(), String> {
    r.assignment
        .verify(&r.reduced_table)
        .map_err(|e| format!("assignment: {e}"))?;
    let functions = std::iter::once((&r.equations.fsv, &r.factored.fsv_cover))
        .chain(r.equations.y.iter().zip(&r.factored.y_covers));
    for (i, (f, c)) in functions.enumerate() {
        let name = if i == 0 {
            "fsv".to_string()
        } else {
            format!("Y{i}")
        };
        if !f.implemented_by(c) {
            return Err(format!("{name} cover does not implement {name}"));
        }
        if !on_pairs_hazard_free(f, c) {
            return Err(format!("{name} cover has a static hazard on the on-set"));
        }
    }
    Ok(())
}

fn synthesize(table: &FlowTable) -> (Duration, Result<SparseSynthesisResult, String>) {
    let start = Instant::now();
    let r = synthesize_sparse(table, &options());
    (start.elapsed(), r.map_err(|e| e.to_string()))
}

pub fn run(requests: &[Request], seconds: f64, report: &mut Report) {
    let mut timings = Timings::default();
    let mut expected: Vec<Option<String>> = Vec::with_capacity(requests.len());
    let mut quality = Quality::default();
    let start = Instant::now();
    while timings.more(start, seconds) {
        for (i, req) in requests.iter().enumerate() {
            let (took, result) = synthesize(&req.table);
            let first = timings.is_first_pass();
            timings.record(i, took, 1, req.transitions);
            let name = req.table.name();
            if first {
                let outcome = result.and_then(|r| {
                    check(&r)?;
                    quality.add(&r.assignment, &r.factored, &r.outputs.z_covers, &r.depth);
                    Ok(r.render_equations())
                });
                report.check(outcome.is_ok(), || format!("{name}: {outcome:?}"));
                expected.push(outcome.ok());
            } else {
                let same = matches!((&result, &expected[i]),
                    (Ok(r), Some(e)) if r.render_equations() == *e);
                report.check(same, || format!("{name}: output changed between passes"));
            }
        }
        timings.end_pass();
    }
    timings.report(report);
    quality.report(report);
}

/// Step-by-step public-call replica of `synthesize_sparse_with`; every step
/// runs in a child span of `root`. `Workspace` fields are crate-private, so
/// the replica brings its own scratch, fresh per call as `synthesize_sparse`
/// does. Returns the result and whether Step 2's reduction was accepted.
fn replica(
    table: &FlowTable,
    options: &SynthesisOptions,
    tracer: &mut Tracer,
    root: usize,
) -> Result<(SparseSynthesisResult, bool), String> {
    let mut assign = AssignScratch::default();
    let mut consensus = ConsensusScratch::default();
    let acceptable = tracer.span("flow.validate", root, || {
        !options.validate_input || validate::validate(table).is_acceptable()
    });
    if !acceptable {
        return Err(format!("{}: invalid flow table", table.name()));
    }
    let (reduced_table, accepted) = tracer.span("minimize.reduce", root, || {
        if !options.minimize_states {
            return (table.clone(), true);
        }
        let reduction = reduce_with_options(table, &options.reduction);
        if validate::is_normal_mode(&reduction.table)
            && validate::is_strongly_connected(&reduction.table)
        {
            (reduction.table, true)
        } else {
            (table.clone(), false)
        }
    });
    let assignment = tracer.span("assign", root, || {
        let a = assign_in(&reduced_table, &options.assignment, &mut assign);
        a.verify(&reduced_table).map(|()| a)
    });
    let assignment = assignment.map_err(|e| e.to_string())?;
    let spec = tracer.span("spec", root, || {
        SpecifiedTable::new(reduced_table.clone(), assignment.clone())
    });
    let spec = spec.map_err(|e| e.to_string())?;
    let outs = tracer.span("outputs", root, || outputs::generate_covers(&spec));
    let outs = outs.map_err(|e| e.to_string())?;
    let hazards = tracer.span("hazard", root, || hazard::analyze(&spec));
    let equations = tracer.span("fsv", root, || fsv::generate_covers(&spec, &hazards));
    let equations = equations.map_err(|e| e.to_string())?;
    let factoring = FactoringOptions {
        fsv_all_primes: options.fsv_all_primes,
        hazard_factoring: options.hazard_factoring,
        parallel_y: options.parallel_factoring,
    };
    let factored = tracer.span("factoring", root, || {
        factor_covers_with(&spec, &equations, factoring, &mut consensus)
    });
    let depth = tracer.span("depth", root, || {
        depth::report_parts(&factored, &outs.z_exprs, &outs.ssd_expr)
    });
    let result = SparseSynthesisResult {
        name: table.name().to_string(),
        reduced_table,
        assignment,
        spec,
        outputs: outs,
        hazards,
        equations,
        factored,
        depth,
        options: *options,
    };
    Ok((result, accepted))
}

/// Exact size counters of the traced pass, summed over the requests.
#[derive(Default)]
struct Counts {
    accepted: usize,
    states_out: usize,
    dichotomies: usize,
    z_cubes: usize,
    hazard_states: usize,
    y_on_cubes: usize,
    y_cubes: usize,
    factored_cubes: usize,
}

impl Counts {
    fn add(&mut self, r: &SparseSynthesisResult, accepted: bool) {
        self.accepted += usize::from(accepted);
        self.states_out += r.reduced_table.num_states();
        self.dichotomies += required_dichotomies(&r.reduced_table).len();
        self.z_cubes += r
            .outputs
            .z_covers
            .iter()
            .map(|c| c.cube_count())
            .sum::<usize>();
        self.hazard_states += r.hazards.hazard_state_count();
        self.y_on_cubes += r
            .equations
            .y
            .iter()
            .map(|f| f.on_cover().cube_count())
            .sum::<usize>();
        self.y_cubes += r
            .equations
            .y_covers
            .iter()
            .map(|c| c.cube_count())
            .sum::<usize>();
        self.factored_cubes += r.factored.fsv_cover.cube_count()
            + r.factored
                .y_covers
                .iter()
                .map(|c| c.cube_count())
                .sum::<usize>();
    }
}

pub fn run_traced(requests: &[Request], seconds: f64, report: &mut Report, tracer: &mut Tracer) {
    let options = options();
    let mut untraced = Duration::ZERO;
    let mut roots = Vec::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut pass = 0;
    while room_for_another(start, pass, seconds) {
        for (i, req) in requests.iter().enumerate() {
            let id = (pass * requests.len() + i) as u64;
            // Alternate which of the two runs of a machine goes first.
            let mut direct = None;
            if (i + pass) % 2 == 0 {
                direct = Some(synthesize(&req.table));
            }
            let root = tracer.open("request", None, id);
            let traced = replica(&req.table, &options, tracer, root);
            tracer.close(root);
            let (took, result) = direct.unwrap_or_else(|| synthesize(&req.table));
            untraced += took;
            roots.push(root);
            if pass == 0 {
                let name = req.table.name();
                let same = match (&traced, &result) {
                    (Ok((t, accepted)), Ok(r)) => {
                        counts.add(t, *accepted);
                        t.render_equations() == r.render_equations()
                    }
                    _ => false,
                };
                report.check(same, || {
                    format!("{name}: replica differs from synthesize_sparse")
                });
            }
        }
        pass += 1;
    }
    layer_metrics(tracer, &roots, untraced, report);
    let n = requests.len() as f64;
    report.set("minimize.reduce.accept_ratio", counts.accepted as f64 / n);
    report.set("minimize.states_out", counts.states_out as f64);
    report.set("assign.dichotomies", counts.dichotomies as f64);
    report.set("outputs.z_cubes", counts.z_cubes as f64);
    report.set("hazard.states", counts.hazard_states as f64);
    report.set("fsv.y_on_cubes", counts.y_on_cubes as f64);
    report.set("fsv.y_cubes", counts.y_cubes as f64);
    report.set("factoring.cubes", counts.factored_cubes as f64);
}

/// Requests whose step spans cover less than this share of the request
/// span do not reconcile, and their spans are left out of the step means.
const MIN_REQUEST_COVERAGE: f64 = 0.9;

/// Step means over the reconciled requests, plus the trace-health ratios.
fn layer_metrics(tracer: &Tracer, roots: &[usize], untraced: Duration, report: &mut Report) {
    let spans = tracer.spans();
    let mut step_ns = [0u64; STEPS.len()];
    let mut fsv_ms = Vec::new();
    let mut root_ns = 0u64;
    let mut self_ns = 0u64;
    let mut reconciled = 0usize;
    // Children follow their root directly: spans are recorded in order.
    for (k, &root) in roots.iter().enumerate() {
        let end = roots.get(k + 1).copied().unwrap_or(spans.len());
        let own = self_time_ns(spans, root);
        root_ns += spans[root].ns();
        self_ns += own;
        let coverage = 1.0 - own as f64 / spans[root].ns().max(1) as f64;
        if coverage < MIN_REQUEST_COVERAGE {
            continue;
        }
        reconciled += 1;
        for s in &spans[root + 1..end] {
            let step = STEPS
                .iter()
                .position(|&(n, _)| n == s.name)
                .expect("known step");
            step_ns[step] += s.ns();
            if s.name == "fsv" {
                fsv_ms.push(s.ns() as f64 / 1e6);
            }
        }
    }
    let per_request = |ns: u64| ns as f64 / 1e6 / reconciled.max(1) as f64;
    for ((_, metric), ns) in STEPS.iter().zip(step_ns) {
        report.set(metric, per_request(ns));
    }
    if !fsv_ms.is_empty() {
        report.set("fsv.p90_ms", percentile(&fsv_ms, 90.0));
        report.set("fsv.max_ms", percentile(&fsv_ms, 100.0));
    }
    report.set(
        "trace.span_coverage",
        1.0 - self_ns as f64 / root_ns.max(1) as f64,
    );
    report.set(
        "trace.overhead_ratio",
        root_ns as f64 / untraced.as_nanos().max(1) as f64,
    );
}
