//! Heterogeneous-serving sweep: two generated designs of different bus
//! widths behind one shard pool, under both blind and latency-aware
//! dispatch.
//!
//! Trains one KWS-6 model, then generates *two* accelerators for it: a
//! wide-bus design (few packets per datapoint, low II) and a narrow-bus
//! design (many packets, high II). Both sit behind a single
//! [`ShardPool`] as one [`ShardSpec`] each — the mixed-fleet scenario
//! MATADOR's per-workload design generation produces in a real edge
//! deployment. For every batch size the pool is run under `RoundRobin`
//! and `LatencyAware` dispatch, printing the per-design merged
//! [`ThroughputReport`]s and the whole-pool drain cycles. Winners are
//! asserted bit-identical across policies on every run — dispatch is a
//! pure throughput knob.
//!
//! ```text
//! cargo run -p matador-bench --bin hetero_sweep --release -- \
//!     [--quick] [--seed N] [--batches 16,64,256] \
//!     [--assert-dispatch] [--json BENCH_serve.json]
//! ```
//!
//! `--assert-dispatch` exits non-zero unless `LatencyAware` completes the
//! largest batch in **no more pool cycles** than `RoundRobin` — the
//! `hetero-scaling` CI gate (simulated cycles, so deterministic).
//! `--json <path>` writes the sweep as a machine-readable artifact in the
//! same shape as `BENCH_inference.json`.

use matador::design::AcceleratorDesign;
use matador_bench::eval::{bad_arg, parse_positive_list, train_spec, EvalOptions};
use matador_bench::BenchArtifact;
use matador_datasets::{generate, DatasetKind};
use matador_serve::{DispatchPolicy, ServeOptions, ShardPool, ShardSpec, ThroughputReport};
use tsetlin::bits::BitVec;

/// Bus widths of the two generated designs: 6 packets vs 48 packets per
/// KWS-6 datapoint — an 8× II gap for the dispatcher to exploit.
const WIDE_BUS: usize = 64;
const NARROW_BUS: usize = 8;

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

struct SweepArgs {
    batches: Vec<usize>,
    assert_dispatch: bool,
    json: Option<String>,
    opts: EvalOptions,
}

fn parse_args() -> Result<SweepArgs, matador::Error> {
    let mut batches = vec![16, 64, 256];
    let mut assert_dispatch = false;
    let mut json = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batches" => batches = parse_positive_list(&arg, args.next())?,
            "--assert-dispatch" => assert_dispatch = true,
            "--json" => {
                json = Some(
                    args.next()
                        .ok_or_else(|| bad_arg("--json requires a path"))?,
                );
            }
            _ => rest.push(arg),
        }
    }
    let opts = EvalOptions::from_args(rest)?;
    Ok(SweepArgs {
        batches,
        assert_dispatch,
        json,
        opts,
    })
}

fn policy_slug(policy: DispatchPolicy) -> &'static str {
    match policy {
        DispatchPolicy::RoundRobin => "round_robin",
        DispatchPolicy::LeastQueued => "least_queued",
        DispatchPolicy::LatencyAware => "latency_aware",
    }
}

/// One measured cell: a batch served under one policy over the mixed
/// pool, reported per design and for the pool as a whole.
struct Cell {
    policy: DispatchPolicy,
    /// Per-design merged reports, spec order (wide, narrow).
    per_design: Vec<ThroughputReport>,
    /// Requests each design absorbed, spec order.
    share: Vec<usize>,
    pool_cycles: u64,
    inf_s: f64,
    winners: Vec<usize>,
}

fn measure(specs: &[ShardSpec], policy: DispatchPolicy, batch: &[BitVec], clock: f64) -> Cell {
    let mut options = ServeOptions::new(specs.len());
    options.policy = policy;
    let mut pool = ShardPool::heterogeneous(specs, options).expect("valid specs");
    // Warm the observed-II statistics on both shards so LatencyAware
    // plans from measured steady-state gaps, as a long-running deployment
    // would — deterministic, like everything else in simulated cycles.
    let warm = batch.len().min(8);
    pool.serve(&batch[..warm]).expect("engines drain");
    let warm_report = pool.report();
    let warm_latencies = pool.latencies().len();

    let predictions = pool.serve(batch).expect("engines drain");
    let report = pool.report();
    let latencies = &pool.latencies()[warm_latencies..];
    // Subtract the warmup so the cell reflects the measured batch only.
    let per_design: Vec<ThroughputReport> = report
        .shards
        .iter()
        .map(|stats| {
            let mut delta = *stats;
            let before = warm_report.shards[stats.shard];
            delta.cycles -= before.cycles;
            delta.datapoints -= before.datapoints;
            delta.transfers -= before.transfers;
            delta.stall_cycles -= before.stall_cycles;
            let design_latencies: Vec<u64> = predictions
                .iter()
                .filter(|p| p.shard == stats.shard)
                .map(|p| p.latency_cycles)
                .collect();
            ThroughputReport::merge(vec![delta], &design_latencies)
        })
        .collect();
    let share: Vec<usize> = (0..specs.len())
        .map(|s| predictions.iter().filter(|p| p.shard == s).count())
        .collect();
    // The measured batch's pool drain: the slowest shard's cycle delta.
    let pool_cycles = per_design
        .iter()
        .map(|r| r.pool_cycles)
        .max()
        .expect("two designs");
    let merged = ThroughputReport::merge(
        per_design
            .iter()
            .flat_map(|r: &ThroughputReport| r.shards.clone())
            .collect(),
        latencies,
    );
    Cell {
        policy,
        per_design,
        share,
        pool_cycles,
        inf_s: merged.throughput_inf_s(clock),
        winners: predictions.iter().map(|p| p.winner).collect(),
    }
}

fn run() -> Result<bool, matador::Error> {
    let args = parse_args()?;
    let kind = DatasetKind::Kws6;
    let opts = &args.opts;
    let threads = matador_par::configured_threads();

    eprintln!("[hetero_sweep] {kind}: training model + generating two designs…");
    let data = generate(kind, opts.sizes, opts.seed);
    let model = train_spec(kind, opts).fit(&data.train, threads);
    let design_for = |bus_width: usize, name: &str| {
        let config = matador::config::MatadorConfig::builder()
            .design_name(name)
            .bus_width(bus_width)
            .build()
            .expect("bus widths 1..=64 are valid");
        AcceleratorDesign::generate_with_threads(model.clone(), config, threads)
    };
    let wide = design_for(WIDE_BUS, "hetero_wide");
    let narrow = design_for(NARROW_BUS, "hetero_narrow");
    // One fabric clock for the whole pool: the slower of the two
    // implementations (the pool is only as fast as its critical design).
    let clock = wide.implement().clock_mhz.min(narrow.implement().clock_mhz);
    let specs = vec![
        ShardSpec::new(wide.compile_for_sim()),
        ShardSpec::new(narrow.compile_for_sim()),
    ];
    let design_names = ["wide", "narrow"];
    let test_inputs: Vec<BitVec> = data.test.iter().map(|s| s.input.clone()).collect();

    println!(
        "hetero_sweep — {kind}, one model on two buses: wide {WIDE_BUS}b ({} packets) + \
         narrow {NARROW_BUS}b ({} packets), clock {clock:.0} MHz, seed {}",
        specs[0].beats_per_request(),
        specs[1].beats_per_request(),
        opts.seed
    );
    println!("(mixed pool, per-design merged reports)\n");

    let policies = [DispatchPolicy::RoundRobin, DispatchPolicy::LatencyAware];
    let gate_batch = *args.batches.iter().max().expect("non-empty");
    let mut artifact = BenchArtifact::new(
        "hetero_serve",
        kind.to_string(),
        gate_batch,
        opts.seed,
        threads,
    );
    artifact.push_run_metadata();
    let mut gate_cells: Vec<Cell> = Vec::new();
    for &batch_size in &args.batches {
        let batch: Vec<BitVec> = (0..batch_size)
            .map(|i| test_inputs[i % test_inputs.len()].clone())
            .collect();
        let cells: Vec<Cell> = policies
            .iter()
            .map(|&policy| measure(&specs, policy, &batch, clock))
            .collect();
        // Determinism: identical predictions under every policy.
        for cell in &cells[1..] {
            assert_eq!(
                cell.winners, cells[0].winners,
                "predictions diverged between {:?} and {:?}",
                cells[0].policy, cell.policy
            );
        }
        println!("batch {batch_size}:");
        for cell in &cells {
            let shares: Vec<String> = design_names
                .iter()
                .zip(&cell.share)
                .zip(&cell.per_design)
                .map(|((name, share), report)| {
                    format!("{name} {share} reqs @ {} cyc", report.pool_cycles)
                })
                .collect();
            println!(
                "  {:>13}: pool {:>7} cyc  {:>12.0} inf/s   ({})",
                policy_slug(cell.policy),
                cell.pool_cycles,
                cell.inf_s,
                shares.join(", ")
            );
            for ((name, report), share) in
                design_names.iter().zip(&cell.per_design).zip(&cell.share)
            {
                artifact.push_row(format!(
                    "{{\"policy\": \"{}\", \"design\": \"{name}\", \"batch\": {batch_size}, \
                     \"requests\": {share}, \"pool_cycles\": {}, \"inf_s\": {:.1}, \
                     \"latency_p50_cycles\": {}, \"latency_p99_cycles\": {}}}",
                    policy_slug(cell.policy),
                    report.pool_cycles,
                    report.throughput_inf_s(clock),
                    report.latency_p50_cycles,
                    report.latency_p99_cycles
                ));
            }
            artifact.push_row(format!(
                "{{\"policy\": \"{}\", \"design\": \"pool\", \"batch\": {batch_size}, \
                 \"requests\": {}, \"pool_cycles\": {}, \"inf_s\": {:.1}}}",
                policy_slug(cell.policy),
                cell.winners.len(),
                cell.pool_cycles,
                cell.inf_s
            ));
        }
        if batch_size == gate_batch {
            gate_cells = cells;
        }
    }

    if let Some(path) = &args.json {
        artifact.write(path).map_err(matador::Error::other)?;
        println!("\nwrote {path}");
    }

    let mut gate_passed = true;
    if args.assert_dispatch {
        let round_robin = &gate_cells[0];
        let latency_aware = &gate_cells[1];
        println!(
            "\ndispatch gate (batch {gate_batch}): latency_aware {} cyc vs round_robin {} cyc",
            latency_aware.pool_cycles, round_robin.pool_cycles
        );
        if latency_aware.pool_cycles > round_robin.pool_cycles {
            eprintln!(
                "::error::LatencyAware drained the mixed pool in {} cycles, more than \
                 RoundRobin's {}",
                latency_aware.pool_cycles, round_robin.pool_cycles
            );
            gate_passed = false;
        } else {
            println!(
                "dispatch gate passed: LatencyAware completes the batch in no more pool \
                 cycles than RoundRobin"
            );
        }
    }
    Ok(gate_passed)
}
