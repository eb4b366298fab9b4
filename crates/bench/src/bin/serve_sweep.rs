//! Sharded-serving scaling sweep: shards × batch sizes over one compiled
//! design, through the `matador-serve` runtime.
//!
//! Trains one KWS-6 model, generates the accelerator once, then serves
//! every batch size on pools of every shard count, printing a scaling
//! table of pool cycles, aggregate inf/s at the implemented clock, and
//! latency percentiles. Predictions are asserted
//! bit-identical across shard counts on every run — sharding is a pure
//! throughput knob.
//!
//! ```text
//! cargo run -p matador-bench --bin serve_sweep --release -- \
//!     [--quick] [--seed N] [--shards 1,2,4,8] [--batches 16,64,256] \
//!     [--assert-scaling] [--json BENCH_serve.json] [--metrics-out PATH]
//! ```
//!
//! `--assert-scaling` exits non-zero unless every multi-shard pool beats
//! the single-shard pool's throughput on the largest batch — the CI gate.
//! `--json <path>` writes the whole sweep as a machine-readable artifact
//! in the same shape as `BENCH_inference.json`, so CI can track the serve
//! perf trajectory per commit. `--metrics-out PATH` dumps the process
//! metrics registry after the sweep: JSON at `PATH`, Prometheus text at
//! the `.prom` sibling.

use matador::design::AcceleratorDesign;
use matador_bench::eval::{bad_arg, parse_positive_list, train_spec, EvalOptions};
use matador_bench::{write_metrics_snapshot, BenchArtifact};
use matador_datasets::{generate, DatasetKind};
use matador_serve::{DispatchPolicy, ServeOptions, ShardPool};
use matador_sim::CompiledAccelerator;
use tsetlin::bits::BitVec;

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Sweep-specific flags, split off before [`EvalOptions`] parsing.
struct SweepArgs {
    shards: Vec<usize>,
    batches: Vec<usize>,
    assert_scaling: bool,
    json: Option<String>,
    metrics_out: Option<String>,
    opts: EvalOptions,
}

fn parse_args() -> Result<SweepArgs, matador::Error> {
    let mut shards = vec![1, 2, 4, 8];
    let mut batches = vec![16, 64, 256];
    let mut assert_scaling = false;
    let mut json = None;
    let mut metrics_out = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => shards = parse_positive_list(&arg, args.next())?,
            "--batches" => batches = parse_positive_list(&arg, args.next())?,
            "--assert-scaling" => assert_scaling = true,
            "--json" => {
                json = Some(
                    args.next()
                        .ok_or_else(|| bad_arg("--json requires a path"))?,
                );
            }
            "--metrics-out" => {
                metrics_out = Some(
                    args.next()
                        .ok_or_else(|| bad_arg("--metrics-out requires a path"))?,
                );
            }
            _ => rest.push(arg),
        }
    }
    let opts = EvalOptions::from_args(rest)?;
    Ok(SweepArgs {
        shards,
        batches,
        assert_scaling,
        json,
        metrics_out,
        opts,
    })
}

/// One measured cell of the sweep.
struct Cell {
    pool_cycles: u64,
    inf_s: f64,
    p50: u64,
    p99: u64,
    winners: Vec<usize>,
}

fn measure(accel: &CompiledAccelerator, shards: usize, batch: &[BitVec], clock: f64) -> Cell {
    let mut options = ServeOptions::new(shards);
    options.policy = DispatchPolicy::RoundRobin;
    let mut pool = ShardPool::with_options(accel, options).expect("positive shard count");
    let predictions = pool.serve(batch).expect("engines drain");
    let report = pool.report();
    Cell {
        pool_cycles: report.pool_cycles,
        inf_s: report.throughput_inf_s(clock),
        p50: report.latency_p50_cycles,
        p99: report.latency_p99_cycles,
        winners: predictions.iter().map(|p| p.winner).collect(),
    }
}

fn run() -> Result<bool, matador::Error> {
    let args = parse_args()?;
    let kind = DatasetKind::Kws6;
    let opts = &args.opts;
    // Sweep with recording live, so a --metrics-out dump is populated
    // and the tracked numbers include the record path.
    matador_obs::set_enabled(true);

    eprintln!("[serve_sweep] {kind}: training model + generating accelerator…");
    let data = generate(kind, opts.sizes, opts.seed);
    let threads = matador_par::configured_threads();
    let model = train_spec(kind, opts).fit(&data.train, threads);
    let config = matador::config::MatadorConfig::builder()
        .design_name("serve_sweep")
        .build()
        .expect("default configuration is valid");
    let design = AcceleratorDesign::generate_with_threads(model, config, threads);
    let clock = design.implement().clock_mhz;
    let accel = design.compile_for_sim();
    let test_inputs: Vec<BitVec> = data.test.iter().map(|s| s.input.clone()).collect();

    println!(
        "serve_sweep — {kind} design, {} packets/datapoint, clock {clock:.0} MHz, \
         round-robin dispatch, seed {}",
        accel.shape().num_packets(),
        opts.seed
    );
    println!("(cycle-accurate pooled engines; pool wall-clock = slowest shard)\n");

    let header: Vec<String> = args
        .shards
        .iter()
        .map(|s| format!("{:>21}", format!("shards={s}")))
        .collect();
    println!(
        "{:>7} {}   (inf/s @ pool cycles)",
        "batch",
        header.join(" ")
    );

    let mut gate_passed = true;
    let gate_batch = *args.batches.iter().max().expect("non-empty");
    let mut final_row: Vec<(usize, Cell)> = Vec::new();
    let mut artifact = BenchArtifact::new(
        "serve_throughput",
        kind.to_string(),
        gate_batch,
        opts.seed,
        threads,
    );
    artifact.push_run_metadata();
    for &batch_size in &args.batches {
        let batch: Vec<BitVec> = (0..batch_size)
            .map(|i| test_inputs[i % test_inputs.len()].clone())
            .collect();
        let cells: Vec<(usize, Cell)> = args
            .shards
            .iter()
            .map(|&s| (s, measure(&accel, s, &batch, clock)))
            .collect();
        // Determinism: identical predictions at every shard count.
        for (s, cell) in &cells[1..] {
            assert_eq!(
                cell.winners, cells[0].1.winners,
                "predictions diverged between shards={} and shards={s}",
                cells[0].0
            );
        }
        let row: Vec<String> = cells
            .iter()
            .map(|(_, c)| format!("{:>12.0} @ {:>6}", c.inf_s, c.pool_cycles))
            .collect();
        println!("{batch_size:>7} {}", row.join(" "));
        for (s, c) in &cells {
            artifact.push_row(format!(
                "{{\"shards\": {s}, \"batch\": {batch_size}, \"pool_cycles\": {}, \
                 \"inf_s\": {:.1}, \"latency_p50_cycles\": {}, \"latency_p99_cycles\": {}}}",
                c.pool_cycles, c.inf_s, c.p50, c.p99
            ));
        }
        if batch_size == gate_batch {
            final_row = cells;
        }
    }

    // Latency + scaling summary on the largest batch — the summary and
    // the gate below must survive an unsorted `--batches` list.
    println!("\nlargest batch ({gate_batch}):");
    // The baseline is the first *listed* shard count (1 in the default
    // and CI invocations), not necessarily a single shard.
    let baseline = final_row[0].1.inf_s;
    for (s, cell) in &final_row {
        println!(
            "  shards={s:<2} p50 {:>3} cyc  p99 {:>3} cyc  {:>12.0} inf/s  x{:.2} vs shards={}",
            cell.p50,
            cell.p99,
            cell.inf_s,
            cell.inf_s / baseline,
            final_row[0].0
        );
    }

    if let Some(path) = &args.json {
        artifact.write(path).map_err(matador::Error::other)?;
        println!("\nwrote {path}");
    }
    if let Some(path) = &args.metrics_out {
        let prom = write_metrics_snapshot(path, "serve_throughput_metrics", "KWS-6", opts.seed)
            .map_err(matador::Error::other)?;
        println!("wrote {path} + {prom}");
    }

    if args.assert_scaling {
        for (s, cell) in &final_row[1..] {
            if cell.inf_s <= baseline {
                eprintln!(
                    "::error::shards={s} throughput {:.0} inf/s does not beat \
                     shards={} at {:.0} inf/s",
                    cell.inf_s, final_row[0].0, baseline
                );
                gate_passed = false;
            }
        }
        if gate_passed {
            println!(
                "\nscaling gate passed: every multi-shard pool beats shards={}",
                final_row[0].0
            );
        }
    }
    Ok(gate_passed)
}
