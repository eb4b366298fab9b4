//! `serve_batch`: closed loop with one caller over a one-shard turbo
//! pool. Back-to-back `ShardPool::serve` batches are sized so the
//! pool's own cost model plans two chunk workers; the working set
//! overflows L2. Bypasses `Front`, coalescing, faults and partitions.
//!
//! Each round builds a fresh pool and serves `BATCHES_PER_ROUND`
//! batches, so the pool's per-request records stay bounded and peak
//! memory does not grow with how fast the host is.

use crate::common::{self, median, Delta, KwsSetup, Outcome};
use crate::trace::{self, span};
use crate::Args;
use matador_serve::percentile_per_mille as percentile;
use matador_serve::{ServeOptions, ShardPool};
use matador_sim::{CompiledAccelerator, TurboEngine, TurboProgram, BLOCK_LANES, LANES};
use std::time::Instant;
use tsetlin::bits::BitVec;

const SETUPS: usize = 5;
const BATCHES_PER_ROUND: usize = 4;
/// Lower bound on the batch: well past L2 on any current core.
const MIN_BATCH: usize = 32_768;

/// A one-shard turbo pool whose queue takes a whole batch, so each
/// batch is one flush and the chunk cost model sees all of it.
fn pool(accel: &CompiledAccelerator, batch: usize) -> Result<ShardPool<'_>, matador::Error> {
    let _s = span("serve.pool_build");
    let options = ServeOptions {
        queue_depth: batch,
        ..ServeOptions::turbo(1)
    };
    ShardPool::with_options(accel, options).map_err(matador::Error::other)
}

/// The smallest batch (at least [`MIN_BATCH`], whole evaluation blocks)
/// for which the cost model plans two chunk workers.
fn batch_len(program: &TurboProgram) -> usize {
    let threshold = matador_sim::configured_chunk_threshold();
    let words = (2 * threshold).div_ceil(program.chunk_cost().max(1)) as usize;
    (words * LANES).max(MIN_BATCH).next_multiple_of(BLOCK_LANES)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), matador::Error> {
    let mut setup_times = Vec::new();
    let mut flow_times = Vec::new();
    let mut kept: Option<(KwsSetup, CompiledAccelerator)> = None;
    for s in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let setup = common::kws_setup(args.seed, out)?;
        let accel = setup.flow.outcome.design.compile_for_sim();
        // Warm-up: one pool, one full batch.
        let program = TurboProgram::compile(&accel);
        let batch = tile(&setup.inputs, batch_len(&program));
        let mut warm = pool(&accel, batch.len())?;
        let before = Delta::start();
        let served = warm.serve(&batch).map_err(matador::Error::other)?;
        let d = Delta::since(before);
        drop(warm);
        setup_times.push(t.elapsed().as_secs_f64());
        flow_times.push(setup.flow.flow_s);
        if s == 0 {
            let (batches, workers) = d.histogram("matador_turbo_chunk_workers");
            out.fact("batch", batch.len());
            out.fact("planned_chunk_workers", workers / batches.max(1));
            out.fact(
                "consolidated_flushes",
                d.counter("matador_pool_flushes_consolidated_total"),
            );
            out.fact("strips_per_batch", d.counter("matador_turbo_strips_total"));
            let wrong = count_wrong(&served, &setup.expected);
            out.check(wrong == 0, || format!("warm-up: {wrong} wrong winners"));
        }
        kept = Some((setup, accel));
    }
    let (setup, accel) = kept.expect("set up at least once");
    let program = TurboProgram::compile(&accel);
    let n = batch_len(&program);
    let batch = tile(&setup.inputs, n);

    let mut serve_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut first_latencies: Option<Vec<u64>> = None;
    // Registry counts of the pool's `serve` calls alone, without the
    // bare engine's batches: (batches, chunk workers, strips, flushes,
    // consolidated flushes).
    let mut pool_counts = [0u64; 5];
    let started = Instant::now();
    let mut i = 0u32;
    while common::keep_going(args, i, started) {
        trace::set_enabled(args.trace && i.is_multiple_of(2));
        trace::set_iteration(Some(i));
        let mut p = pool(&accel, n)?;
        let mut engine = TurboEngine::from_program(program.clone());
        for _ in 0..BATCHES_PER_ROUND {
            trace::set_enabled(args.trace && i.is_multiple_of(2));
            trace::set_iteration(Some(i));
            let before = Delta::start();
            let t = Instant::now();
            let served = {
                let _s = span("serve.serve");
                p.serve(&batch).map_err(matador::Error::other)?
            };
            let secs = t.elapsed().as_secs_f64();
            let d = Delta::since(before);
            let (batches, workers) = d.histogram("matador_turbo_chunk_workers");
            for (sum, count) in pool_counts.iter_mut().zip([
                batches,
                workers,
                d.counter("matador_turbo_strips_total"),
                d.counter("matador_pool_flushes_total"),
                d.counter("matador_pool_flushes_consolidated_total"),
            ]) {
                *sum += count;
            }
            serve_s.push(secs);
            if args.trace && i > 0 {
                if i.is_multiple_of(2) {
                    &mut traced_s
                } else {
                    &mut untraced_s
                }
                .push(secs);
            }
            let wrong = count_wrong(&served, &setup.expected);
            let bare = {
                let _s = span("sim.turbo");
                engine
                    .run_datapoints(&batch)
                    .map_err(matador::Error::other)?
            };
            let bare_wrong = bare
                .iter()
                .enumerate()
                .filter(|(j, r)| r.winner != setup.expected[j % setup.expected.len()])
                .count();
            out.check(wrong == 0 && bare_wrong == 0, || {
                format!("batch {i}: {wrong} served and {bare_wrong} bare-turbo winners wrong")
            });
            out.attempted += n as u64;
            out.failed += wrong as u64;
            i += 1;
        }
        let lat = p.latencies().to_vec();
        match &first_latencies {
            None => first_latencies = Some(lat),
            Some(f) => out.check(*f == lat, || "pool latencies differ between rounds".into()),
        }
    }
    trace::set_enabled(false);

    let mut lat = first_latencies.expect("ran at least one round");
    lat.sort_unstable();
    let batch_inf_s = n as f64 / median(&serve_s);
    out.e2e("setup_s", median(&setup_times), "s");
    out.e2e("flow_s", median(&flow_times), "s");
    out.e2e("host_ops_s", batch_inf_s, "1/s");
    out.own("batch_inf_s", batch_inf_s, "inf/s");
    common::design_metrics(out, &setup.flow.outcome);
    out.e2e("latency_p50_cycles", percentile(&lat, 500) as f64, "cycles");
    out.e2e(
        "latency_p999_cycles",
        percentile(&lat, 999) as f64,
        "cycles",
    );
    out.e2e(
        "goodput",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
        "fraction",
    );
    out.report.push(format!(
        "batch_inf_s {batch_inf_s:.1} inf/s (median of {} batches of {n}); \
         pool latency over {} requests per round",
        serve_s.len(),
        lat.len()
    ));
    out.fact("threads", common::threads());
    out.fact("avx2", common::avx2());
    out.fact("shards", 1);

    if args.trace {
        common::flow_layers(out, &setup, SETUPS)?;
        common::flow_counts(out, &setup.flow);
        let serve = median(&trace::per_iteration_s("serve.serve"));
        let turbo = median(&trace::per_iteration_s("sim.turbo"));
        out.layer(
            "serve.pool_build_s",
            median(&trace::per_iteration_s("serve.pool_build")),
            "s",
        );
        out.layer("serve.serve_s", serve, "s");
        out.layer("sim.turbo_s", turbo, "s");
        out.layer("serve.overhead_frac", 1.0 - turbo / serve, "fraction");
        let [batches, workers, strips, flushes, consolidated] = pool_counts;
        out.layer(
            "par.chunk_workers",
            workers as f64 / batches.max(1) as f64,
            "workers",
        );
        out.layer(
            "pool.consolidated_frac",
            consolidated as f64 / flushes.max(1) as f64,
            "fraction",
        );
        out.layer(
            "sim.tape_instructions",
            program.chunk_cost() as f64,
            "count",
        );
        out.layer("sim.strips", strips as f64 / batches.max(1) as f64, "count");
        out.layer(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        );
    }
    Ok(())
}

/// `n` inputs cycling through `distinct`.
fn tile(distinct: &[BitVec], n: usize) -> Vec<BitVec> {
    distinct.iter().cycle().take(n).cloned().collect()
}

fn count_wrong(served: &[matador_serve::Prediction], expected: &[usize]) -> usize {
    served
        .iter()
        .enumerate()
        .filter(|(j, p)| p.winner != expected[j % expected.len()])
        .count()
}
