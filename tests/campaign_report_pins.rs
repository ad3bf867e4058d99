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
//! The two configurations are separate tests so the harness runs them in
//! parallel.

use std::path::Path;

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
        "oracle" => CampaignOptions {
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

/// The rendered reports of one configuration, in corpus order.
fn rendered(name: &str) -> String {
    let options = configuration(name);
    let machines = machines();
    assert_eq!(machines.len(), MACHINES, "the campaign workload's machines");
    machines
        .iter()
        .map(|m| run_campaign_sparse(m, &options).render())
        .collect()
}

fn assert_matches_golden(name: &str) {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign_reports.txt"),
    )
    .expect("golden campaign reports");
    let lines: Vec<&str> = golden.lines().collect();
    let per_config = lines.len() / 2;
    let expected = match name {
        "oracle" => &lines[..per_config],
        _ => &lines[per_config..],
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
