//! The two open-loop workloads on `Front`'s virtual clock.
//!
//! - `front_poisson`: seeded Poisson arrivals from four tenants feed a
//!   replicated four-shard turbo pool. A fixed ladder of offered
//!   utilizations is replayed, each rung offering `RUNG_REQUESTS`, so
//!   p99.9 has at least ten samples beyond it.
//! - `front_chaos`: bursty arrivals over a resilient pool of two
//!   clause-partitioned groups (K = 2 each). A pass is `DRILLS` drills,
//!   each killing one member mid-trace. The offered rate is a fixed
//!   share of the capacity of the two logical executors. Every drill
//!   must see its kill injected, detected and acted on; every
//!   `front_poisson` replay must see no fault at all.
//!
//! Requests are submitted exactly when they are due on the virtual
//! clock, so the generator is never late and each latency runs from the
//! scheduled arrival to delivery. Every replay is a pure function of the
//! seed: replays within a run must agree exactly, and every delivered
//! winner must equal `TrainedModel::predict` on its input.

use crate::common::{self, median, Delta, KwsSetup, Outcome};
use crate::trace::{self, span};
use crate::Args;
use matador_serve::percentile_per_mille as percentile;
use matador_serve::{
    EngineBackend, FaultPlan, FlushTrigger, Front, FrontOptions, ServeOptions, ShardPool, ShardSpec,
};
use matador_sim::{CompileOptions, CompilePipeline, CompiledAccelerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

const SETUPS: usize = 5;
const TENANTS: u32 = 4;
const SHARDS: usize = 4;
/// Offered utilization of modelled capacity, in percent, per rung.
const LADDER: [u64; 5] = [30, 50, 70, 90, 100];
/// The rung whose latency and goodput are the end-to-end figures.
const REFERENCE_RUNG: u64 = 70;
const RUNG_REQUESTS: usize = 10_000;
/// Requests of the warm-up replay in each set-up.
const WARM_REQUESTS: usize = 1_000;
/// `front_chaos`: offered share of the two groups' capacity. After the
/// kill the surviving group runs at twice this.
const CHAOS_UTIL_PCT: u64 = 30;
/// Requests per drill; a pass runs `DRILLS` drills with their own
/// arrival seeds. The p99.9 of one drill sits inside its kill
/// transient, a single event, so the figure is the median over drills.
const CHAOS_REQUESTS: usize = 10_000;
const DRILLS: u64 = 9;
const CHAOS_BURST: u64 = 16;
/// Partitions per group and groups in the `front_chaos` pool.
const PARTITIONS: usize = 2;
const GROUPS: usize = 2;
/// The killed member: the second partition of group 0.
const VICTIM: usize = 1;

/// One arrival trace.
#[derive(Clone, Copy)]
struct Load {
    requests: usize,
    mean_gap: f64,
    burst: u64,
    slo: u64,
    seed: u64,
}

/// What one replay produced: a function of the seed alone.
#[derive(Debug, Default, PartialEq)]
struct Replay {
    offered: u64,
    admitted: u64,
    rejected: u64,
    delivered: u64,
    shed: u64,
    in_slo: u64,
    wrong: u64,
    out_of_order: u64,
    errors: Vec<String>,
    /// Sorted arrival → delivery latencies of delivered replies.
    latencies: Vec<u64>,
    /// Cycles from the last arrival to the last delivery: bounded by
    /// the deadline while the pool keeps up, growing with the trace
    /// length once a backlog builds.
    drain_lag: u64,
    triggers: [u64; 4],
    batch_sizes: u64,
    batches: u64,
    flushes: u64,
    consolidated: u64,
    retries: u64,
    redirects: u64,
    faults_injected: u64,
    faults_detected: u64,
    health_transitions: u64,
    /// What the pool reports of itself: resilient mode, and execution
    /// units made of more than one member (partition groups).
    resilient: bool,
    partition_groups: usize,
}

/// Exponential inter-arrival gap with the given mean, in whole cycles.
fn exp_gap(rng: &mut SmallRng, mean: f64) -> u64 {
    let u: f64 = rng.gen();
    (-mean * (1.0 - u).ln()).round() as u64
}

const TRIGGERS: [FlushTrigger; 4] = [
    FlushTrigger::LaneBlockFull,
    FlushTrigger::DeadlinePressure,
    FlushTrigger::IdleTick,
    FlushTrigger::Drain,
];

/// Replays `load` through `front`: each arrival advances the clock to
/// its due cycle and submits with a deadline `slo` cycles out. Returns
/// the replay and the host seconds it took.
fn replay(front: &mut Front<'_>, setup: &KwsSetup, load: Load) -> (Replay, f64) {
    let before = Delta::start();
    let mut rng = SmallRng::seed_from_u64(load.seed);
    let mut r = Replay {
        offered: load.requests as u64,
        ..Replay::default()
    };
    // (tenant, seq, input index) per admitted request, for the oracle.
    let mut sent: Vec<(u32, u64, usize)> = Vec::with_capacity(load.requests);
    let started = Instant::now();
    let mut t = front.now();
    for i in 0..load.requests {
        t += if (i as u64).is_multiple_of(load.burst) {
            exp_gap(&mut rng, load.mean_gap * load.burst as f64)
        } else {
            1
        };
        {
            let _s = span("serve.advance");
            if let Err(e) = front.advance_to(t) {
                r.errors.push(format!("advance_to({t}): {e}"));
            }
        }
        let idx = i % setup.inputs.len();
        let tenant = (i as u32) % TENANTS;
        let mut s = span("serve.submit");
        match front.submit(&setup.inputs[idx], t + load.slo, tenant) {
            Ok(seq) => {
                s.set_seq(seq);
                sent.push((tenant, seq, idx));
            }
            Err(_) => r.rejected += 1,
        }
    }
    {
        let _s = span("serve.advance");
        if let Err(e) = front.advance_to(t + load.slo) {
            r.errors.push(format!("final advance_to: {e}"));
        }
    }
    {
        let _s = span("serve.drain");
        if let Err(e) = front.drain() {
            r.errors.push(format!("drain: {e}"));
        }
    }
    let host_s = started.elapsed().as_secs_f64();

    let sent: BTreeMap<(u32, u64), usize> = sent.into_iter().map(|(t, q, i)| ((t, q), i)).collect();
    let replies = front.take_replies();
    r.shed = front.take_shed().len() as u64;
    r.admitted = front.accepted();
    r.delivered = replies.len() as u64;
    let mut last_seq: BTreeMap<u32, u64> = BTreeMap::new();
    for reply in &replies {
        if reply.met_deadline() {
            r.in_slo += 1;
        }
        match sent.get(&(reply.tenant, reply.seq)) {
            Some(&idx) if setup.expected[idx] == reply.winner => {}
            _ => r.wrong += 1,
        }
        if let Some(prev) = last_seq.insert(reply.tenant, reply.seq) {
            if prev >= reply.seq {
                r.out_of_order += 1;
            }
        }
    }
    r.drain_lag = replies
        .iter()
        .map(|x| x.delivered_at.saturating_sub(t))
        .max()
        .unwrap_or(0);
    r.latencies = replies.iter().map(|x| x.latency_cycles()).collect();
    r.latencies.sort_unstable();
    r.health_transitions = front.pool().health_log().len() as u64;
    r.resilient = front.pool().resilient();
    r.partition_groups = front.pool().units().iter().filter(|u| u.len() > 1).count();

    let d = Delta::since(before);
    for (slot, trigger) in TRIGGERS.iter().enumerate() {
        r.triggers[slot] = d.labelled(
            "matador_front_batches_total",
            &format!("trigger=\"{}\"", trigger.as_label()),
        );
    }
    (r.batches, r.batch_sizes) = d.histogram("matador_front_batch_size");
    r.flushes = d.counter("matador_pool_flushes_total");
    r.consolidated = d.counter("matador_pool_flushes_consolidated_total");
    r.retries = d.counter("matador_pool_retries_total");
    r.redirects = d.counter("matador_pool_redirects_total");
    r.faults_injected = d.counter("matador_faults_injected_total");
    r.faults_detected = d.counter("matador_faults_detected_total");
    (r, host_s)
}

/// Failed requests of a replay: rejected, shed, dropped after
/// admission, or answered wrongly.
fn failed(r: &Replay) -> u64 {
    let dropped = r.admitted.saturating_sub(r.delivered + r.shed);
    r.rejected + r.shed + dropped + r.wrong
}

/// The oracle every replay must pass. A chaos `drill` must have run on
/// the resilient pool of `GROUPS` partition groups and seen its kill
/// injected, detected and acted on; any other replay must have run on a
/// plain pool and seen no fault at all.
fn check(out: &mut Outcome, what: &str, r: &Replay, drill: bool) {
    let path_ok = if drill {
        r.resilient
            && r.partition_groups == GROUPS
            && r.faults_injected >= 1
            && r.faults_detected >= 1
            && r.health_transitions >= 1
    } else {
        !r.resilient
            && r.partition_groups == 0
            && r.faults_injected == 0
            && r.faults_detected == 0
            && r.health_transitions == 0
    };
    out.check(path_ok, || {
        format!(
            "{what}: wrong datapath: resilient {}, partition groups {}, faults injected {} \
             detected {}, health transitions {}",
            r.resilient,
            r.partition_groups,
            r.faults_injected,
            r.faults_detected,
            r.health_transitions
        )
    });
    let dropped = r.admitted.saturating_sub(r.delivered + r.shed);
    out.check(
        r.wrong == 0 && dropped == 0 && r.out_of_order == 0 && r.errors.is_empty(),
        || {
            format!(
                "{what}: {} wrong winners, {dropped} admitted requests dropped, \
                 {} out of order, errors {:?}",
                r.wrong, r.out_of_order, r.errors
            )
        },
    );
}

/// Per-layer metrics shared by both front workloads, from the traced
/// iterations' spans and the replays' registry deltas.
fn front_layers(out: &mut Outcome, replays: &[&Replay], lane_block: usize) {
    for (metric, name) in [
        ("serve.submit_s", "serve.submit"),
        ("serve.advance_s", "serve.advance"),
        ("serve.drain_s", "serve.drain"),
        ("serve.pool_build_s", "serve.pool_build"),
    ] {
        out.layer(metric, median(&trace::per_iteration_s(name)), "s");
    }
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(|r| f(r)).sum::<u64>();
    let batches = sum(|r| r.batches).max(1);
    out.layer(
        "front.batch_fill",
        sum(|r| r.batch_sizes) as f64 / batches as f64 / lane_block as f64,
        "fraction",
    );
    out.layer(
        "pool.consolidated_frac",
        sum(|r| r.consolidated) as f64 / sum(|r| r.flushes).max(1) as f64,
        "fraction",
    );
    for (slot, metric) in [
        "front.batches.fill",
        "front.batches.pressure",
        "front.batches.idle",
        "front.batches.drain",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer(metric, sum_slot(replays, slot) as f64, "count");
    }
    out.layer("pool.retries", sum(|r| r.retries) as f64, "count");
    out.layer("pool.redirects", sum(|r| r.redirects) as f64, "count");
    out.layer(
        "faults.injected",
        sum(|r| r.faults_injected) as f64,
        "count",
    );
    out.layer(
        "faults.detected",
        sum(|r| r.faults_detected) as f64,
        "count",
    );
    out.layer(
        "health.transitions",
        sum(|r| r.health_transitions) as f64,
        "count",
    );
    out.layer(
        "pool.redirect_ratio",
        sum(|r| r.redirects) as f64 / sum(|r| r.delivered).max(1) as f64,
        "ratio",
    );
}

fn sum_slot(replays: &[&Replay], slot: usize) -> u64 {
    replays.iter().map(|r| r.triggers[slot]).sum()
}

/// Set-up shared by both workloads: the KWS-6 design, built `SETUPS`
/// times; `extra` adds the workload's own pool build and warm-up to
/// each timed set-up.
fn setups(
    args: &Args,
    out: &mut Outcome,
    mut extra: impl FnMut(&KwsSetup, &CompiledAccelerator, &mut Outcome) -> Result<(), matador::Error>,
) -> Result<(KwsSetup, CompiledAccelerator), matador::Error> {
    let mut setup_times = Vec::new();
    let mut flow_times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let setup = common::kws_setup(args.seed, out)?;
        let accel = setup.flow.outcome.design.compile_for_sim();
        extra(&setup, &accel, out)?;
        setup_times.push(t.elapsed().as_secs_f64());
        flow_times.push(setup.flow.flow_s);
        kept = Some((setup, accel));
    }
    out.e2e("setup_s", median(&setup_times), "s");
    out.e2e("flow_s", median(&flow_times), "s");
    Ok(kept.expect("set up at least once"))
}

fn replicated(accel: &CompiledAccelerator) -> Result<Front<'_>, matador::Error> {
    let pool = {
        let _s = span("serve.pool_build");
        ShardPool::with_options(accel, ServeOptions::turbo(SHARDS))
            .map_err(matador::Error::other)?
    };
    Front::new(pool, FrontOptions::new()).map_err(matador::Error::other)
}

/// The load for one ladder rung: Poisson arrivals at `util_pct` of the
/// pool's modelled drain bandwidth, deadline twice the drain estimate
/// of one lane block.
fn rung_load(front: &Front<'_>, util_pct: u64, seed: u64) -> Load {
    Load {
        requests: RUNG_REQUESTS,
        mean_gap: front.pool().modeled_ii_cycles() as f64 * 100.0
            / (SHARDS as f64 * util_pct as f64),
        burst: 1,
        slo: 2 * front.drain_estimate_cycles(FrontOptions::new().lane_block),
        seed: seed ^ util_pct,
    }
}

pub fn run_poisson(args: &Args, out: &mut Outcome) -> Result<(), matador::Error> {
    let (setup, accel) = setups(args, out, |setup, accel, out| {
        let mut front = replicated(accel)?;
        let mut load = rung_load(&front, LADDER[0], args.seed);
        load.requests = WARM_REQUESTS;
        let (warm, _) = replay(&mut front, setup, load);
        check(out, "warm-up", &warm, false);
        Ok(())
    })?;

    let mut pass_rate = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut first: Option<Vec<Replay>> = None;
    let mut slo = 0;
    let started = Instant::now();
    let mut i = 0u32;
    while common::keep_going(args, i, started) {
        let traced = args.trace && i.is_multiple_of(2);
        trace::set_enabled(traced);
        trace::set_iteration(Some(i));
        let mut rungs = Vec::new();
        let mut host = 0.0;
        for util in LADDER {
            let mut front = replicated(&accel)?;
            let load = rung_load(&front, util, args.seed);
            slo = load.slo;
            let (r, secs) = replay(&mut front, &setup, load);
            host += secs;
            check(out, &format!("pass {i} rung {util}%"), &r, false);
            out.attempted += r.offered;
            out.failed += failed(&r);
            rungs.push(r);
        }
        let offered: u64 = rungs.iter().map(|r| r.offered).sum();
        pass_rate.push(offered as f64 / host);
        if args.trace && i > 0 {
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(host);
        }
        match &first {
            None => first = Some(rungs),
            Some(f) => out.check(*f == rungs, || format!("pass {i} differs from pass 0")),
        }
        i += 1;
    }
    trace::set_enabled(false);
    let rungs = first.expect("ran at least one pass");

    // The highest rung whose p99.9 meets the deadline with nothing
    // refused and no backlog left to drain after the last arrival.
    let lane_block = FrontOptions::new().lane_block;
    let max_util = LADDER
        .iter()
        .zip(&rungs)
        .filter(|(_, r)| {
            percentile(&r.latencies, 999) <= slo && r.rejected == 0 && r.drain_lag <= slo
        })
        .map(|(u, _)| *u)
        .max()
        .unwrap_or(0);
    let reference = LADDER
        .iter()
        .position(|&u| u == REFERENCE_RUNG)
        .map(|k| &rungs[k])
        .expect("reference rung is on the ladder");
    let front_req_s = median(&pass_rate);
    out.own("max_util_pct", max_util as f64, "%");
    out.e2e("host_ops_s", front_req_s, "1/s");
    out.own("front_req_s", front_req_s, "req/s");
    common::design_metrics(out, &setup.flow.outcome);
    out.e2e(
        "latency_p50_cycles",
        percentile(&reference.latencies, 500) as f64,
        "cycles",
    );
    out.e2e(
        "latency_p999_cycles",
        percentile(&reference.latencies, 999) as f64,
        "cycles",
    );
    out.e2e(
        "goodput",
        reference.in_slo as f64 / reference.offered as f64,
        "fraction",
    );
    out.report.push(format!(
        "front_req_s {front_req_s:.1} req/s (median of {} ladder passes); \
         max_util_pct {max_util} %; SLO {slo} cycles; generator lateness 0 cycles \
         (virtual clock)",
        pass_rate.len()
    ));
    for (util, r) in LADDER.iter().zip(&rungs) {
        out.report.push(format!(
            "  rung {util:>3}%: offered {} delivered {} in-SLO {} rejected {} \
             p50 {} p99.9 {} cycles, last delivery {} cycles after last arrival",
            r.offered,
            r.delivered,
            r.in_slo,
            r.rejected,
            percentile(&r.latencies, 500),
            percentile(&r.latencies, 999),
            r.drain_lag
        ));
    }
    path_facts(out, &rungs.iter().collect::<Vec<_>>());

    if args.trace {
        common::flow_layers(out, &setup, SETUPS)?;
        common::flow_counts(out, &setup.flow);
        front_layers(out, &rungs.iter().collect::<Vec<_>>(), lane_block);
        out.layer(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        );
    }
    Ok(())
}

/// The `front_chaos` pool: two groups of `PARTITIONS` turbo shards.
fn chaos_specs(accel: &CompiledAccelerator) -> Vec<ShardSpec> {
    let plan = CompilePipeline::new(CompileOptions::default().with_partitions(PARTITIONS))
        .partition(accel);
    (0..GROUPS as u32)
        .flat_map(|g| ShardSpec::partitioned(plan.clone(), g))
        .map(|s| s.backend(EngineBackend::Turbo))
        .collect()
}

fn chaos_front(specs: &[ShardSpec], plan: FaultPlan) -> Result<Front<'_>, matador::Error> {
    let pool = {
        let _s = span("serve.pool_build");
        ShardPool::heterogeneous_with_fault_plan(specs, ServeOptions::new(specs.len()), plan)
            .map_err(matador::Error::other)?
    };
    Front::new(pool, FrontOptions::new()).map_err(matador::Error::other)
}

fn chaos_load(front: &Front<'_>, seed: u64) -> Load {
    Load {
        requests: CHAOS_REQUESTS,
        mean_gap: front.pool().modeled_ii_cycles() as f64 * 100.0
            / (GROUPS as f64 * CHAOS_UTIL_PCT as f64),
        burst: CHAOS_BURST,
        slo: 2 * front.drain_estimate_cycles(FrontOptions::new().lane_block),
        seed,
    }
}

/// Every member of a group runs every request of the group, so the
/// victim attempts about half of a trace's `requests`; the kill lands
/// halfway through its share.
fn kill_plan(requests: usize) -> FaultPlan {
    FaultPlan::kill_shard(VICTIM, (requests / GROUPS / 2) as u64)
}

pub fn run_chaos(args: &Args, out: &mut Outcome) -> Result<(), matador::Error> {
    quiet_injected_panics();
    let mut specs = Vec::new();
    let mut partitions = 0;
    let (setup, _accel) = setups(args, out, |setup, accel, out| {
        let before = Delta::start();
        specs = chaos_specs(accel);
        partitions = Delta::since(before).counter("matador_compile_partitions_total");
        let mut front = chaos_front(&specs, kill_plan(WARM_REQUESTS))?;
        let mut load = chaos_load(&front, args.seed);
        load.requests = WARM_REQUESTS;
        let (warm, _) = replay(&mut front, setup, load);
        check(out, "warm-up", &warm, true);
        Ok(())
    })?;

    let mut rate = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut first: Option<Vec<Replay>> = None;
    let started = Instant::now();
    let mut i = 0u32;
    while common::keep_going(args, i, started) {
        let traced = args.trace && i.is_multiple_of(2);
        trace::set_enabled(traced);
        trace::set_iteration(Some(i));
        let mut drills = Vec::new();
        let mut host = 0.0;
        for d in 0..DRILLS {
            let mut front = chaos_front(&specs, kill_plan(CHAOS_REQUESTS))?;
            let load = chaos_load(&front, args.seed ^ (d << 32));
            let (r, secs) = replay(&mut front, &setup, load);
            host += secs;
            rate.push(r.offered as f64 / secs);
            check(out, &format!("pass {i} drill {d}"), &r, true);
            out.attempted += r.offered;
            out.failed += failed(&r);
            drills.push(r);
        }
        if args.trace && i > 0 {
            if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            }
            .push(host);
        }
        match &first {
            None => first = Some(drills),
            Some(f) => out.check(*f == drills, || format!("pass {i} differs from pass 0")),
        }
        i += 1;
    }
    trace::set_enabled(false);
    let drills = first.expect("ran at least one pass");
    let drills: Vec<&Replay> = drills.iter().collect();
    let per_drill = |per_mille: u32| {
        let v: Vec<f64> = drills
            .iter()
            .map(|r| percentile(&r.latencies, per_mille) as f64)
            .collect();
        median(&v)
    };
    let sum = |f: fn(&Replay) -> u64| drills.iter().map(|r| f(r)).sum::<u64>();

    let front_req_s = median(&rate);
    out.e2e("host_ops_s", front_req_s, "1/s");
    out.own("front_req_s", front_req_s, "req/s");
    common::design_metrics(out, &setup.flow.outcome);
    out.e2e("latency_p50_cycles", per_drill(500), "cycles");
    out.e2e("latency_p999_cycles", per_drill(999), "cycles");
    out.e2e(
        "goodput",
        sum(|r| r.in_slo) as f64 / sum(|r| r.offered) as f64,
        "fraction",
    );
    out.report.push(format!(
        "front_req_s {front_req_s:.1} req/s (median of {} drills, {DRILLS} a pass); \
         offered {} admitted {} delivered {} in-SLO {} rejected {} shed {}; \
         median drill p99 {} cycles; generator lateness 0 cycles (virtual clock)",
        rate.len(),
        sum(|r| r.offered),
        sum(|r| r.admitted),
        sum(|r| r.delivered),
        sum(|r| r.in_slo),
        sum(|r| r.rejected),
        sum(|r| r.shed),
        per_drill(990)
    ));
    path_facts(out, &drills);
    out.fact("partitions_compiled", partitions);

    if args.trace {
        common::flow_layers(out, &setup, SETUPS)?;
        common::flow_counts(out, &setup.flow);
        front_layers(out, &drills, FrontOptions::new().lane_block);
        out.layer(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        );
    }
    Ok(())
}

/// Which datapath the replays ran, as the pool and the registry report
/// it. [`check`] holds every replay to the same datapath, so on a
/// correct run the first speaks for all.
fn path_facts(out: &mut Outcome, replays: &[&Replay]) {
    out.fact("threads", common::threads());
    out.fact("avx2", common::avx2());
    out.fact("resilient", replays[0].resilient);
    out.fact("partition_groups", replays[0].partition_groups);
    let flushes: u64 = replays.iter().map(|r| r.flushes).sum();
    let consolidated: u64 = replays.iter().map(|r| r.consolidated).sum();
    out.fact("consolidated_flushes", format!("{consolidated}/{flushes}"));
    out.fact(
        "flush_triggers",
        format!(
            "fill {} pressure {} idle {} drain {}",
            sum_slot(replays, 0),
            sum_slot(replays, 1),
            sum_slot(replays, 2),
            sum_slot(replays, 3)
        ),
    );
}

/// Silences the stderr report of injected worker panics (their payload
/// names the injected fault); every other panic is reported as usual.
fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            prev(info);
        }
    }));
}
