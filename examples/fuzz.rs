//! Differential fuzzing CLI: random valid flow tables through the synthesis
//! pipeline under the large-machine options, every cover checked against the
//! dense oracle functions, and each result campaign-validated.
//!
//! ```text
//! cargo run --release --example fuzz -- --budget-seconds 60 --seed from-lockfile
//! ```
//!
//! Flags:
//!
//! * `--budget-seconds N` — wall-clock budget (default 60).
//! * `--max-cases N` — stop after N cases regardless of budget (0 = budget
//!   only; every case is a pure function of `(seed, case index)`, so a cap
//!   makes the whole run reproducible).
//! * `--seed S` — base seed: a decimal/hex (`0x…`) integer, or the literal
//!   `from-lockfile` to fold the bytes of `Cargo.lock` into a seed, so CI
//!   explores a fresh deterministic stream whenever the dependency graph
//!   changes but is replayable for any given commit.
//! * `--campaign-assignments N` — delay assignments per validation campaign
//!   (default 4).
//! * `--emit-corpus DIR` — instead of fuzzing, write the pinned regression
//!   corpus (`seance::fuzz::regression_corpus`) as KISS2 files into DIR and
//!   exit. Regenerates `tests/fuzz_regressions/` byte-identically.
//! * `--emit-benchmarks DIR` — instead of fuzzing, write the 3×3 grid
//!   benchmark machines as KISS2 files into DIR and exit. Regenerates
//!   `benchmarks/`, the files `bench_json` and perfbench read.
//!
//! Exits nonzero on any differential or campaign mismatch; the report
//! (including shrunk reproducers) is printed either way.

use std::time::Duration;

use fantom_flow::generate::{generate_grid, GeneratorOptions};
use fantom_flow::kiss;
use seance::fuzz::{run_fuzz, FuzzOptions};

/// Fold arbitrary bytes into a 64-bit seed (FNV-1a).
fn fold_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn parse_seed(value: &str) -> Result<u64, String> {
    if value == "from-lockfile" {
        let lock = std::fs::read("Cargo.lock")
            .map_err(|e| format!("--seed from-lockfile: cannot read Cargo.lock: {e}"))?;
        return Ok(fold_bytes(&lock));
    }
    let parsed = if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        value.parse()
    };
    parsed.map_err(|e| format!("--seed {value}: {e}"))
}

/// The 3×3 (states × dc-density) grid written to `benchmarks/`, whose files
/// `bench_json` and perfbench read.
fn grid_machines() -> Vec<fantom_flow::FlowTable> {
    generate_grid(
        &GeneratorOptions::default(),
        &[10, 18, 26],
        &[0.25, 0.5, 0.75],
    )
}

fn emit(dir: &str, tables: Vec<fantom_flow::FlowTable>) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    for table in tables {
        let path = std::path::Path::new(dir).join(format!("{}.kiss", table.name()));
        std::fs::write(&path, kiss::write(&table))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = FuzzOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or(format!("{name} needs a value"))
        };
        match flag {
            "--budget-seconds" => {
                options.budget = Duration::from_secs(value("--budget-seconds")?.parse()?);
            }
            "--max-cases" => options.max_cases = value("--max-cases")?.parse()?,
            "--seed" => options.seed = parse_seed(&value("--seed")?)?,
            "--campaign-assignments" => {
                options.campaign_assignments = value("--campaign-assignments")?.parse()?;
            }
            "--emit-corpus" => {
                return emit(&value("--emit-corpus")?, seance::fuzz::regression_corpus());
            }
            "--emit-benchmarks" => {
                return emit(&value("--emit-benchmarks")?, grid_machines());
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
        i += 1;
    }

    println!(
        "fuzzing: seed {:#x}, budget {}s, max cases {}, {} campaign assignments",
        options.seed,
        options.budget.as_secs(),
        options.max_cases,
        options.campaign_assignments
    );
    let report = run_fuzz(&options);
    print!("{}", report.render());
    assert!(report.is_clean(), "fuzz run found mismatches");
    Ok(())
}
