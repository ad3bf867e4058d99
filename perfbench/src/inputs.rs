//! Workload inputs, all built from the workload seed.

use std::path::Path;

use fantom_flow::canonical::relabel;
use fantom_flow::generate::{generate, GeneratorOptions};
use fantom_flow::{benchmarks, FlowTable};

use crate::seed::{mix, Rng};

/// The checked-in `benchmarks/*.kiss` grid machines, in file-name order.
pub fn grid_files() -> Vec<FlowTable> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks");
    match benchmarks::import_kiss_dir(&dir) {
        Ok(tables) if !tables.is_empty() => tables,
        Ok(_) => fail(&format!("no .kiss files in {}", dir.display())),
        Err(e) => fail(&format!("cannot import {}: {e}", dir.display())),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2)
}

/// `table` under a random state, input-bit and output-bit relabeling.
pub fn relabeled(table: &FlowTable, rng: &mut Rng, name: &str) -> FlowTable {
    let states = rng.permutation(table.num_states());
    let inputs = rng.permutation(table.num_inputs());
    let outputs = rng.permutation(table.num_outputs());
    relabel(table, &states, &inputs, &outputs, name)
}

/// A seeded generated machine with 6–16 states over two inputs (the
/// service's traffic). Sparse two-input tables keep the synthesis cost of a
/// fresh class light-tailed: with three inputs a 16-state machine can take
/// 100× its median.
pub fn generated(seed: u64) -> FlowTable {
    let mut rng = Rng::new(seed);
    generate(&GeneratorOptions {
        seed,
        states: rng.range(6, 16),
        inputs: 2,
        outputs: rng.range(1, 2),
        dc_density: 0.2,
        ..GeneratorOptions::default()
    })
}

/// Stream ids that keep the input families of one seed independent.
pub mod stream {
    pub const RELABEL: u64 = 1;
    pub const SERVICE_CLASSES: u64 = 2;
    pub const SERVICE_BATCHES: u64 = 3;
    pub const SERVICE_FRESH: u64 = 4;
    pub const CAMPAIGN: u64 = 5;
}

/// Seed of the relabel workload's relabeling panel. The Step 6 cost of a
/// machine is heavy-tailed over labelings (one relabeling of the 26-state
/// grid file takes 30 ms, another 2 s), so a panel drawn from the run seed
/// would move the relabel metrics by 15–25% between seeds. The panel is
/// pinned instead, and the run seed sets the request order.
pub const RELABEL_PANEL: u64 = 1;

/// Relabel workload: every base machine under `per_machine` relabelings of
/// the panel, in an order drawn from `seed`.
pub fn relabel_inputs(seed: u64, per_machine: usize) -> Vec<FlowTable> {
    let mut bases = grid_files();
    bases.extend(benchmarks::large_suite());
    let mut rng = Rng::new(mix(RELABEL_PANEL, stream::RELABEL));
    let mut panel = Vec::with_capacity(bases.len() * per_machine);
    for base in &bases {
        for k in 0..per_machine {
            panel.push(relabeled(base, &mut rng, &format!("{}~r{k}", base.name())));
        }
    }
    let order = Rng::new(mix(seed, stream::RELABEL)).permutation(panel.len());
    let mut slots: Vec<Option<FlowTable>> = panel.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("permutation visits each slot once"))
        .collect()
}

/// Seed of the campaign workload's campaign seeds. How many events a
/// campaign simulates depends on the delay assignments its seed draws, and
/// campaign seeds drawn from the run seed moved `latency_p90_ms` by 15%
/// between run seeds. The campaign seeds are pinned instead, and the run
/// seed sets the request order.
pub const CAMPAIGN_PANEL: u64 = 1;

/// Campaign workload: `per_machine` pinned campaign seeds for each of
/// `machines` machines, as `(machine index, campaign seed)` requests in an
/// order drawn from `seed`.
pub fn campaign_requests(seed: u64, machines: usize, per_machine: usize) -> Vec<(usize, u64)> {
    let base = mix(CAMPAIGN_PANEL, stream::CAMPAIGN);
    let panel: Vec<(usize, u64)> = (0..machines)
        .flat_map(|m| (0..per_machine).map(move |k| (m, mix(base, (m * per_machine + k) as u64))))
        .collect();
    Rng::new(mix(seed, stream::CAMPAIGN))
        .permutation(panel.len())
        .into_iter()
        .map(|i| panel[i])
        .collect()
}

/// Seed of the service workload's generated classes, recurring and fresh.
/// Each recurring class recurs in about 1/32 of the requests, so which
/// 16-state machines recur would move the summed cube counts by 20% between
/// seeds; and the fresh classes, synthesized on a miss, set the slow batches
/// (`latency_p90_ms`). Both sets are pinned; the seed draws the relabeled
/// submissions and which batch each fresh class goes to.
pub const SERVICE_PANEL: u64 = 1;

/// Service workload: the recurring isomorphism classes (the small corpus
/// plus generated machines) and `batches` batches of `batch_size`
/// submissions drawn from `seed`, `fresh` of which per batch are classes
/// the service has not seen.
pub struct ServiceInputs {
    pub classes: Vec<FlowTable>,
    pub batches: Vec<Vec<FlowTable>>,
}

pub fn service_inputs(
    seed: u64,
    generated_classes: usize,
    batches: usize,
    batch_size: usize,
    fresh: usize,
) -> ServiceInputs {
    let mut classes = benchmarks::all();
    let class_seed = mix(SERVICE_PANEL, stream::SERVICE_CLASSES);
    classes.extend((0..generated_classes as u64).map(|k| generated(mix(class_seed, k))));
    let mut rng = Rng::new(mix(seed, stream::SERVICE_BATCHES));
    let fresh_seed = mix(SERVICE_PANEL, stream::SERVICE_FRESH);
    let fresh_order = rng.permutation(batches * fresh);
    let batches = (0..batches)
        .map(|b| {
            let mut batch: Vec<FlowTable> = (0..batch_size - fresh)
                .map(|k| {
                    let class = &classes[rng.below(classes.len())];
                    relabeled(class, &mut rng, &format!("{}~b{b}.{k}", class.name()))
                })
                .collect();
            for k in 0..fresh {
                // Fresh classes go to seeded batches and positions.
                let class = fresh_order[b * fresh + k] as u64;
                let table = generated(mix(fresh_seed, class));
                batch.insert(rng.below(batch.len() + 1), table);
            }
            batch
        })
        .collect();
    ServiceInputs { classes, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(tables: &[FlowTable]) -> Vec<String> {
        tables.iter().map(|t| format!("{t:?}")).collect()
    }

    #[test]
    fn relabel_inputs_repeat_per_seed() {
        let a = relabel_inputs(1, 2);
        assert_eq!(a.len(), 24);
        assert_eq!(names(&a), names(&relabel_inputs(1, 2)));
        // Another seed visits the same pinned panel in another order.
        let mut b = names(&relabel_inputs(2, 2));
        assert_ne!(names(&a), b);
        let mut a = names(&a);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_requests_repeat_per_seed() {
        let a = campaign_requests(1, 5, 3);
        assert_eq!(a.len(), 15);
        assert_eq!(a, campaign_requests(1, 5, 3));
        // Another seed runs the same pinned campaigns in another order.
        let mut b = campaign_requests(2, 5, 3);
        assert_ne!(a, b);
        let mut a = a;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn service_inputs_repeat_per_seed() {
        let a = service_inputs(1, 4, 3, 16, 2);
        let b = service_inputs(1, 4, 3, 16, 2);
        let c = service_inputs(2, 4, 3, 16, 2);
        assert_eq!(a.batches.len(), 3);
        assert!(a.batches.iter().all(|batch| batch.len() == 16));
        assert_eq!(names(&a.classes), names(&c.classes));
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(names(x), names(y));
        }
        assert_ne!(names(&a.batches[0]), names(&c.batches[0]));
    }
}
