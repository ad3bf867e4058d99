//! Benchmark of the SEANCE/FANTOM synthesis workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload relabel|service|campaign --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input derives from `--seed`. A run sets its inputs up several times
//! (`setup_s` is the median), then measures closed-loop requests for about
//! `--seconds` seconds, checks every output outside the timed region, and
//! prints one JSON result line last: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a separate traced run with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod campaign;
mod inputs;
mod relabel;
mod report;
mod seed;
mod service;
mod stats;
mod trace;

use std::path::Path;
use std::time::Instant;

use fantom_assign::StateAssignment;
use fantom_boolean::Cover;
use seance::depth::DepthReport;
use seance::factoring::FactoredEquations;

use report::{Report, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-up repeats at least `SETUP_MIN_REPS` times and until it has taken
/// `SETUP_BUDGET_S` (at most `SETUP_MAX_REPS` times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Trace-health tolerance: the spans of a traced run cover at least this
/// share of its request spans...
const MIN_SPAN_COVERAGE: f64 = 0.95;
/// ...and the traced calls take at most this multiple of the same calls
/// untraced.
const MAX_OVERHEAD_RATIO: f64 = 1.25;

/// The circuit-quality counts, summed over a workload's distinct requests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    state_vars: usize,
    gate_cubes: usize,
    depth_total: usize,
}

impl Quality {
    pub fn add(
        &mut self,
        assignment: &StateAssignment,
        factored: &FactoredEquations,
        z_covers: &[Cover],
        depth: &DepthReport,
    ) {
        self.state_vars += assignment.num_vars();
        self.gate_cubes += factored.fsv_cover.cube_count()
            + factored
                .y_covers
                .iter()
                .map(Cover::cube_count)
                .sum::<usize>()
            + z_covers.iter().map(Cover::cube_count).sum::<usize>();
        self.depth_total += depth.total_depth;
    }

    pub fn report(&self, report: &mut Report) {
        report.set("state_vars", self.state_vars as f64);
        report.set("gate_cubes", self.gate_cubes as f64);
        report.set("depth_total", self.depth_total as f64);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Build the inputs repeatedly; the median build time is `setup_s`.
fn timed_setup<T>(build: impl Fn() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut built = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let inputs = build();
        times.push(start.elapsed().as_secs_f64());
        built = Some(inputs);
    }
    (built.expect("at least one set-up"), stats::median(&times))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let setup_s = match args.workload.as_str() {
        "relabel" => {
            let (requests, setup_s) = timed_setup(|| relabel::setup(args.seed));
            if args.trace {
                relabel::run_traced(&requests, args.seconds, &mut report, &mut tracer);
            } else {
                relabel::run(&requests, args.seconds, &mut report);
            }
            setup_s
        }
        "service" => {
            let (inputs, setup_s) = timed_setup(|| service::setup(args.seed));
            if args.trace {
                service::run_traced(&inputs, args.seconds, &mut report, &mut tracer);
            } else {
                service::run(&inputs, args.seconds, &mut report);
            }
            setup_s
        }
        "campaign" => {
            let (inputs, setup_s) = timed_setup(|| campaign::setup(args.seed));
            if args.trace {
                campaign::run_traced(&inputs, args.seconds, &mut report, &mut tracer);
            } else {
                campaign::run(&inputs, args.seconds, &mut report);
            }
            setup_s
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?} (relabel, service, campaign)");
            std::process::exit(2);
        }
    };
    let registry = if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let coverage = report.get("trace.span_coverage").unwrap_or(0.0);
        let overhead = report.get("trace.overhead_ratio").unwrap_or(f64::INFINITY);
        if coverage < MIN_SPAN_COVERAGE || overhead > MAX_OVERHEAD_RATIO {
            eprintln!(
                "perfbench: trace outside tolerance: span coverage {coverage:.4} \
                 (min {MIN_SPAN_COVERAGE}), overhead {overhead:.4} (max {MAX_OVERHEAD_RATIO})"
            );
        }
        PER_LAYER
    } else {
        report.set("setup_s", setup_s);
        report.set(
            "ok_ratio",
            (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        );
        report.set("peak_rss_mb", report::peak_rss_mb());
        END_TO_END
    };
    println!("{}", report.json_line(registry));
}
