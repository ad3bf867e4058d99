//! Run every experiment of the reproduction (E1–E5 in `DESIGN.md`) and print a
//! complete report. The output of this binary is the source of the numbers in
//! `EXPERIMENTS.md`.
//!
//! Run with `cargo run -p fantom-bench --bin experiments --release`.

fn main() {
    println!("================================================================");
    println!("E1 — Table 1: logic depths (paper / measured)");
    println!("================================================================");
    let table1 = fantom_bench::run_table1();
    println!("{}", fantom_bench::render_table1(&table1));

    println!("================================================================");
    println!("E2 — Synthesis time (paper: ~4 s per example on a VAXStation 3100)");
    println!("================================================================");
    for row in &table1 {
        println!("{:<14} {:.2?}", row.measured.benchmark, row.elapsed);
    }
    println!();

    println!("================================================================");
    println!("E3 — Ablation: hazard factoring on vs. off");
    println!("================================================================");
    println!(
        "{}",
        fantom_bench::render_ablation(&fantom_bench::run_ablation())
    );

    println!("================================================================");
    println!("E4 — Baselines: FANTOM vs. Huffman vs. STG expansion");
    println!("================================================================");
    println!(
        "{}",
        fantom_bench::render_baselines(&fantom_bench::run_baselines())
    );

    println!("================================================================");
    println!("E5 — Simulation validation (delay campaigns, 64 assignments each)");
    println!("================================================================");
    println!(
        "{}",
        fantom_bench::render_simulation(&fantom_bench::run_simulation(64))
    );
}
