//! Golden campaign reports for the machines of the perfbench `campaign`
//! workload.
//!
//! `tests/campaign.rs` pins that a report does not depend on the worker
//! count and that the corpus is clean, but a changed event or glitch count
//! fails neither. `tests/golden/campaign_reports.txt` pins every rendered
//! report byte for byte: the small corpus (`benchmarks::all()`) under the
//! default options, and the large suite plus the `benchmarks/*.kiss` grid
//! files under `for_large_machines()`, each under two campaign
//! configurations of four assignments (so every delay style runs once):
//!
//! * `oracle`: seed 1, zero-delay oracle on, every stable transition;
//! * `sampled`: seed 2, oracle off, three feedback stages, sampled
//!   sequences.
//!
//! The file is the concatenated `CampaignReport::render` output, all 20
//! machines of the `oracle` configuration first, then the `sampled` ones.
//!
//! On a correct machine every check of a report reads zero, so these goldens
//! cannot tell one check from another. `tests/golden/campaign_mutants.txt`
//! pins a third configuration, `mutants`, whose counters are not zero: each
//! small-corpus machine under the `oracle` options, emitted from two
//! corrupted results, one with `fsv` forced to 0 (named `<machine>+fsv0`)
//! and one with `Y1` complemented (`<machine>+notY1`). Their wrong final
//! states and outputs differ between protected and unprotected steps, so a
//! check counted in the wrong class, dropped in a merge or rendered in the
//! wrong place moves the golden.
//!
//! Each configuration is a separate test so the harness runs them in
//! parallel.

use std::path::Path;

use fantom_boolean::Expr;
use fantom_flow::benchmarks;
use seance::{
    run_campaign_sparse, synthesize_sparse, CampaignOptions, SparseSynthesisResult,
    SynthesisOptions,
};

/// Reports per configuration: 20 machines.
const MACHINES: usize = 20;

fn machines() -> Vec<SparseSynthesisResult> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmarks");
    let small = SynthesisOptions::default();
    let large = SynthesisOptions::for_large_machines();
    let mut tables: Vec<_> = benchmarks::all().into_iter().map(|t| (t, small)).collect();
    let grid = benchmarks::import_kiss_dir(&dir).expect("grid files import");
    tables.extend(
        benchmarks::large_suite()
            .into_iter()
            .chain(grid)
            .map(|t| (t, large)),
    );
    assert_eq!(tables.len(), MACHINES, "the campaign workload's machines");
    tables
        .iter()
        .map(|(t, options)| {
            synthesize_sparse(t, options).unwrap_or_else(|e| panic!("{}: {e}", t.name()))
        })
        .collect()
}

fn configuration(name: &str) -> CampaignOptions {
    let base = CampaignOptions {
        assignments: 4,
        workers: 1,
        ..CampaignOptions::default()
    };
    match name {
        "oracle" | "mutants" => CampaignOptions {
            seed: 1,
            oracle: true,
            ..base
        },
        "sampled" => CampaignOptions {
            seed: 2,
            oracle: false,
            loop_stages: 3,
            sequences_per_assignment: 32,
            ..base
        },
        _ => unreachable!("unknown configuration {name}"),
    }
}

/// The two corrupted results of every small-corpus machine, in corpus order:
/// `fsv` forced to 0, then `Y1` complemented.
fn mutants() -> Vec<SparseSynthesisResult> {
    let mut mutants = Vec::new();
    for table in benchmarks::all() {
        let result = synthesize_sparse(&table, &SynthesisOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", table.name()));
        let mut fsv0 = result.clone();
        fsv0.name = format!("{}+fsv0", result.name);
        fsv0.factored.fsv_expr = Expr::zero();
        let mut not_y1 = result;
        not_y1.name = format!("{}+notY1", not_y1.name);
        let y1 = &mut not_y1.factored.y_exprs[0];
        *y1 = Expr::Not(Box::new(y1.clone()));
        mutants.extend([fsv0, not_y1]);
    }
    mutants
}

/// The rendered reports of one configuration, in corpus order.
fn rendered(name: &str) -> String {
    let options = configuration(name);
    let machines = match name {
        "mutants" => mutants(),
        _ => machines(),
    };
    machines
        .iter()
        .map(|m| run_campaign_sparse(m, &options).render())
        .collect()
}

fn golden(file: &str) -> String {
    std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(file),
    )
    .unwrap_or_else(|e| panic!("golden {file}: {e}"))
}

fn assert_matches_golden(name: &str) {
    let golden = match name {
        "mutants" => golden("campaign_mutants.txt"),
        _ => golden("campaign_reports.txt"),
    };
    let lines: Vec<&str> = golden.lines().collect();
    let per_config = lines.len() / 2;
    let expected = match name {
        "oracle" => &lines[..per_config],
        "sampled" => &lines[per_config..],
        _ => &lines[..],
    };
    let actual = rendered(name);
    let actual: Vec<&str> = actual.lines().collect();
    assert_eq!(actual.len(), expected.len(), "{name}: golden line count");
    let mut machine = "";
    for (a, e) in actual.iter().zip(expected) {
        machine = e.strip_prefix("campaign ").unwrap_or(machine);
        assert_eq!(a, e, "{name}: the report of {machine} moved");
    }
}

#[test]
fn oracle_campaign_reports_match_golden() {
    assert_matches_golden("oracle");
}

#[test]
fn sampled_campaign_reports_match_golden() {
    assert_matches_golden("sampled");
}

#[test]
fn mutant_campaign_reports_match_golden() {
    assert_matches_golden("mutants");
}
