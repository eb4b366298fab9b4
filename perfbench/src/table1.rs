//! `table1_mnist`: one Table I MNIST row group at the `--quick` sizes.
//!
//! Closed loop with one caller: the next group starts when the last one
//! has finished. A group is the MATADOR flow (`MatadorFlow::run`: fit →
//! generate → implement → verify → characterise, then emit) followed by
//! the three MNIST baselines (FINN-MNIST, BNN-r-ref, BNN-f-ref). Every
//! group runs on the same data, so every group must reproduce the first
//! exactly. Traced groups also run the flow stage by stage, untimed,
//! for the per-layer times.

use crate::common::{self, median, Outcome, FLOW_LAYERS};
use crate::trace::{self, span};
use crate::Args;
use matador_baselines::presets::BaselineKind;
use matador_bench::eval::{run_baseline, EvalOptions};
use matador_datasets::{Dataset, DatasetKind};
use matador_serve::percentile_per_mille as percentile;
use std::time::Instant;

const BASELINES: [BaselineKind; 3] = [
    BaselineKind::FinnMnist,
    BaselineKind::BnnRRef,
    BaselineKind::BnnFRef,
];

/// Timed set-ups: the dataset plus one warm-up flow each.
const SETUPS: usize = 3;

/// What must repeat exactly from group to group.
#[derive(Debug, PartialEq)]
struct GroupFacts {
    luts: usize,
    accuracy: u64,
    latency: Vec<u64>,
    baseline_accuracy: Vec<u64>,
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), matador::Error> {
    let kind = DatasetKind::Mnist;
    let opts = EvalOptions {
        seed: args.seed,
        ..EvalOptions::quick()
    };

    let mut setup_times = Vec::new();
    let mut data: Option<Dataset> = None;
    for _ in 0..SETUPS {
        drop(data.take());
        let t = Instant::now();
        let fresh = common::dataset(kind, opts.sizes, opts.seed);
        common::run_flow(kind, &fresh, &opts, out)?;
        data = Some(fresh);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let data = data.expect("set up at least once");

    let mut group_s = Vec::new();
    let mut flow_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut first: Option<GroupFacts> = None;
    let mut last_flow = None;
    let started = Instant::now();
    let mut i = 0u32;
    while common::keep_going(args, i, started) {
        let traced = args.trace && i.is_multiple_of(2);
        trace::set_enabled(traced);
        trace::set_iteration(Some(i));
        let mismatches_before = out.mismatches.len();
        let t = Instant::now();
        let (flow, baselines) = {
            let _g = span("table1.group");
            let flow = common::run_flow(kind, &data, &opts, out)?;
            let baselines: Vec<f64> = BASELINES
                .iter()
                .map(|&b| {
                    let _s = span("baselines.train");
                    run_baseline(b, &data, &opts).test_accuracy
                })
                .collect();
            (flow, baselines)
        };
        let secs = t.elapsed().as_secs_f64();
        if traced {
            common::flow_stages(kind, &data, &opts, &flow.outcome, out)?;
        }
        group_s.push(secs);
        flow_s.push(flow.flow_s);
        if args.trace && i > 0 {
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(secs);
        }
        let facts = GroupFacts {
            luts: flow.outcome.implementation.resources.luts(),
            accuracy: flow.outcome.test_accuracy.to_bits(),
            latency: flow.stream_latencies.clone(),
            baseline_accuracy: baselines.iter().map(|a| a.to_bits()).collect(),
        };
        match &first {
            None => first = Some(facts),
            Some(f) => out.check(*f == facts, || format!("group {i} differs from group 0")),
        }
        out.attempted += 1;
        if out.mismatches.len() > mismatches_before {
            out.failed += 1;
        }
        last_flow = Some(flow);
        i += 1;
    }
    trace::set_enabled(false);
    let flow = last_flow.expect("ran at least one group");

    let mut lat = flow.stream_latencies.clone();
    lat.sort_unstable();
    let table1_s = median(&group_s);
    out.e2e("setup_s", median(&setup_times), "s");
    out.e2e("flow_s", median(&flow_s), "s");
    out.e2e("host_ops_s", 1.0 / table1_s, "1/s");
    out.own("table1_s", table1_s, "s");
    common::design_metrics(out, &flow.outcome);
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
        "table1_s {table1_s:.4} s (median of {} groups); flow_s {:.4} s; \
         stream latency over {} datapoints",
        group_s.len(),
        median(&flow_s),
        lat.len()
    ));

    out.fact("threads", common::threads());
    out.fact("verify_vectors", flow.outcome.verification.system_vectors);
    out.fact("hcbs", flow.outcome.design.num_hcbs());

    if args.trace {
        out.layer(
            "datasets.generate_s",
            trace::setup_s("datasets.generate") / SETUPS as f64,
            "s",
        );
        for (metric, name) in FLOW_LAYERS {
            out.layer(metric, median(&trace::per_iteration_s(name)), "s");
        }
        out.layer(
            "baselines.train_s",
            median(&trace::per_iteration_s("baselines.train")),
            "s",
        );
        let steps = data.train.len() * opts.bnn_epochs * BASELINES.len();
        out.layer("baselines.sample_steps", steps as f64, "count");
        common::flow_counts(out, &flow);
        out.layer(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        );
    }
    Ok(())
}
