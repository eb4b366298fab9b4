//! Regenerates **Table I**: MATADOR vs FINN (and the BNN-r/f references on
//! MNIST) across the five evaluation datasets — resources, accuracy,
//! power, latency and throughput.
//!
//! Dataset rows run in parallel (one worker per row); set
//! `MATADOR_THREADS=1` to force the sequential path. The produced rows
//! are bit-identical either way — only the printed wall-clock changes.
//!
//! ```text
//! cargo run -p matador-bench --bin table1 --release [-- --quick --seed N]
//! ```

use matador_bench::eval::{run_table1, EvalOptions};
use matador_bench::table::format_table1;
use matador_datasets::DatasetKind;
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), matador::Error> {
    let opts = EvalOptions::from_args(std::env::args().skip(1))?;
    let threads = matador_par::configured_threads();
    println!(
        "Table I reproduction — sizes {}x{}, tm epochs {}, bnn epochs {}, seed {}, threads {}",
        opts.sizes.train, opts.sizes.test, opts.tm_epochs, opts.bnn_epochs, opts.seed, threads
    );
    println!(
        "(synthetic datasets matched to the real feature widths and class counts; \
         see the README's reproduction notes)\n"
    );

    let started = Instant::now();
    let groups = run_table1(&DatasetKind::TABLE_I, &opts)?;
    let elapsed = started.elapsed();

    println!("{}", format_table1(&groups));

    // Shape summary (the claims the paper's abstract makes).
    println!("shape checks:");
    for (dataset, rows) in &groups {
        let matador = rows.iter().find(|r| r.label == "MATADOR").expect("row");
        let finn = rows.iter().find(|r| r.label == "FINN").expect("row");
        println!(
            "  {dataset:<8} throughput x{:>5.1}  LUTs x{:>4.2}  BRAM x{:>5.1}  power x{:>4.2}  (MATADOR advantage over FINN)",
            matador.throughput_inf_s / finn.throughput_inf_s,
            finn.luts as f64 / matador.luts as f64,
            finn.bram / matador.bram,
            finn.total_pwr_w / matador.total_pwr_w,
        );
    }
    println!(
        "\nwall-clock: {:.2} s for {} dataset rows at {} thread(s) \
         (rows are bit-identical at any MATADOR_THREADS)",
        elapsed.as_secs_f64(),
        groups.len(),
        threads
    );
    Ok(())
}
