//! Pieces every workload shares: the result record, statistics, the
//! MATADOR flow (whole, and stage by stage for traced runs), and
//! registry deltas.

use crate::trace::{self, span};
use matador::config::MatadorConfig;
use matador::design::AcceleratorDesign;
use matador::flow::{FlowOutcome, MatadorFlow, TrainSpec};
use matador::verify::verify_design;
use matador_bench::eval::{tm_params_for, EvalOptions};
use matador_datasets::{generate, Dataset, DatasetKind, SplitSizes};
use matador_obs::{Registry, SampleValue, Snapshot};
use matador_sim::{LatencyReport, SimEngine};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;
use tsetlin::bits::BitVec;
use tsetlin::tm::MultiClassTm;
use tsetlin::Sample;

/// Gate-level vectors per window and streamed datapoints in
/// verification: the `table1` harness's settings.
const GATE_VECTORS: usize = 32;
const VERIFY_LIMIT: usize = 64;

/// A metric value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations rejected, shed, dropped or answered wrongly.
    pub failed: u64,
    /// Oracle mismatches, one line each.
    pub mismatches: Vec<String>,
    /// End-to-end metrics, by name.
    pub e2e: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics, by name (filled from spans on traced runs).
    pub layer: BTreeMap<&'static str, Metric>,
    /// Figures that exist on this workload only, by name.
    pub own: BTreeMap<&'static str, Metric>,
    /// Which datapath ran: `(fact, value)`.
    pub facts: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, Metric { value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.insert(name, Metric { value, unit });
    }

    pub fn own(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.own.insert(name, Metric { value, unit });
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Records an oracle mismatch when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads the program may use: `MATADOR_THREADS` or the
/// available parallelism, as the program itself resolves it.
pub fn threads() -> usize {
    matador_par::configured_threads()
}

/// Whether the AVX2 transpose kernel can run on this host.
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Registry readings around a stretch of work.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn start() -> Snapshot {
        Registry::global().snapshot()
    }

    pub fn since(before: Snapshot) -> Delta {
        Delta {
            before,
            after: Registry::global().snapshot(),
        }
    }

    /// Increase of the counter family `name`, over every label set.
    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter_total(name)
            .saturating_sub(self.before.counter_total(name))
    }

    /// Increase of the counter `name{labels}`.
    pub fn labelled(&self, name: &str, labels: &str) -> u64 {
        self.after.counter_delta(&self.before, name, labels)
    }

    /// `(count, sum)` recorded into the histogram `name` (no labels).
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        let read = |s: &Snapshot| {
            s.samples
                .iter()
                .find(|x| x.name == name && x.labels.is_empty())
                .and_then(|x| match &x.value {
                    SampleValue::Histogram(h) => Some((h.count, h.sum)),
                    _ => None,
                })
                .unwrap_or((0, 0))
        };
        let (c0, s0) = read(&self.before);
        let (c1, s1) = read(&self.after);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

/// A dataset generated from the benchmark seed.
pub fn dataset(kind: DatasetKind, sizes: SplitSizes, seed: u64) -> Dataset {
    let _s = span("datasets.generate");
    generate(kind, sizes, seed)
}

/// One flow run: samples to a verified [`FlowOutcome`].
pub struct FlowRun {
    pub outcome: FlowOutcome,
    /// Wall seconds from samples to the verified outcome and its
    /// Verilog.
    pub flow_s: f64,
    pub and2_gates: u64,
    pub verilog_bytes: u64,
    /// Per-datapoint latency in the characterisation stream, in cycles
    /// from the first packet of the stream.
    pub stream_latencies: Vec<u64>,
}

fn flow_config(kind: DatasetKind) -> MatadorConfig {
    MatadorConfig::builder()
        .design_name(format!("matador_{}", kind.to_string().to_lowercase()))
        .build()
        .expect("default configuration is valid")
}

/// The datapoints the flow verifies and characterises on.
fn verify_set(data: &Dataset) -> &[Sample] {
    &data.test[..data.test.len().min(VERIFY_LIMIT)]
}

/// Runs the MATADOR flow for `kind` through `MatadorFlow::run` with the
/// `table1` harness's verification settings, plus Verilog emission;
/// `flow_s` times exactly these calls. Trains directly, never through a
/// model or design cache.
///
/// Outside the timed part it replays the flow's characterisation
/// stream for per-datapoint latencies, and checks the oracles: the
/// hardware is bit-equivalent to the model, and the stream classifies
/// as software does and reproduces the flow's latency report.
pub fn run_flow(
    kind: DatasetKind,
    data: &Dataset,
    opts: &EvalOptions,
    out: &mut Outcome,
) -> Result<FlowRun, matador::Error> {
    let started = Instant::now();
    let (outcome, verilog) = {
        let _s = span("core.flow");
        let outcome = MatadorFlow::new(flow_config(kind))
            .gate_vectors(GATE_VECTORS)
            .verify_limit(Some(VERIFY_LIMIT))
            .threads(threads())
            .run(
                TrainSpec {
                    params: tm_params_for(kind),
                    epochs: opts.tm_epochs,
                    seed: opts.seed,
                },
                &data.train,
                &data.test,
            )?;
        let verilog = outcome.design.emit_verilog()?;
        (outcome, verilog)
    };
    let flow_s = started.elapsed().as_secs_f64();

    let verification = &outcome.verification;
    out.check(
        verification.passed()
            && verification.gate_mismatches == 0
            && verification.system_mismatches == 0,
        || format!("{kind}: verification failed: {verification:?}"),
    );
    let batch: Vec<BitVec> = verify_set(data).iter().map(|s| s.input.clone()).collect();
    let results = {
        let _s = span("sim.stream");
        let accel = outcome.design.compile_for_sim();
        let mut sim = SimEngine::new(&accel);
        sim.set_pipelined_sum(outcome.design.config().pipeline_class_sum());
        sim.run_datapoints(&batch)?
    };
    let wrong = batch
        .iter()
        .zip(&results)
        .filter(|(x, r)| r.winner != outcome.model.predict(x))
        .count();
    out.check(wrong == 0, || {
        format!("{kind}: {wrong} characterisation winners differ from TrainedModel::predict")
    });
    out.check(
        LatencyReport::from_results(&results, 0) == outcome.latency,
        || format!("{kind}: the characterisation stream differs from the flow's"),
    );

    let and2_gates = outcome
        .design
        .dags()
        .iter()
        .map(|d| d.and2_count() as u64)
        .sum();
    let verilog_bytes = verilog.iter().map(|f| f.contents.len() as u64).sum();
    let stream_latencies = results.iter().map(|r| r.cycle + 1).collect();
    Ok(FlowRun {
        outcome,
        flow_s,
        and2_gates,
        verilog_bytes,
        stream_latencies,
    })
}

/// The flow once more, one public call at a time with a span around
/// each, for the per-layer times of a traced run. Its outcome must
/// equal `reference`, the one `MatadorFlow::run` produced.
pub fn flow_stages(
    kind: DatasetKind,
    data: &Dataset,
    opts: &EvalOptions,
    reference: &FlowOutcome,
    out: &mut Outcome,
) -> Result<(), matador::Error> {
    let _p = span("flow.stages");
    let threads = threads();
    let model = {
        let _s = span("tsetlin.fit");
        let mut tm = MultiClassTm::new(tm_params_for(kind));
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        tm.fit_with_threads(&data.train, opts.tm_epochs, &mut rng, threads);
        tm.to_model()
    };
    let design = {
        let _s = span("core.generate");
        AcceleratorDesign::generate_with_threads(model.clone(), flow_config(kind), threads)
    };
    let implementation = {
        let _s = span("synth.implement");
        design.implement()
    };
    {
        let _s = span("rtl.emit");
        design.emit_verilog()?;
    }
    let verification = {
        let _s = span("core.verify");
        verify_design(&design, verify_set(data), GATE_VECTORS, 0xD0_D0)?
    };
    let accel = {
        let _s = span("core.compile_for_sim");
        design.compile_for_sim()
    };
    let batch: Vec<BitVec> = verify_set(data).iter().map(|s| s.input.clone()).collect();
    let latency = {
        let _s = span("sim.characterize");
        let mut sim = SimEngine::new(&accel);
        sim.set_pipelined_sum(design.config().pipeline_class_sum());
        LatencyReport::from_results(&sim.run_datapoints(&batch)?, 0)
    };
    let test_accuracy = {
        let _s = span("tsetlin.accuracy");
        model.accuracy(&data.test)
    };
    out.check(
        model == reference.model
            && implementation.resources.luts() == reference.implementation.resources.luts()
            && verification == reference.verification
            && latency == reference.latency
            && test_accuracy.to_bits() == reference.test_accuracy.to_bits(),
        || format!("{kind}: the stage-by-stage flow differs from MatadorFlow::run"),
    );
    Ok(())
}

/// The design metrics every workload reports for the design it built.
pub fn design_metrics(out: &mut Outcome, flow: &FlowOutcome) {
    out.e2e("tm_accuracy", flow.test_accuracy, "fraction");
    out.e2e(
        "design_luts",
        flow.implementation.resources.luts() as f64,
        "LUTs",
    );
    out.e2e("design_inf_s", flow.throughput_inf_s(), "inf/s");
}

/// Per-layer flow metrics and the spans they read.
pub const FLOW_LAYERS: [(&str, &str); 6] = [
    ("tsetlin.fit_s", "tsetlin.fit"),
    ("core.generate_s", "core.generate"),
    ("synth.implement_s", "synth.implement"),
    ("rtl.emit_s", "rtl.emit"),
    ("core.verify_s", "core.verify"),
    ("sim.characterize_s", "sim.characterize"),
];

/// Stage-by-stage flows a traced serving workload runs after set-up.
const STAGE_RUNS: usize = 3;

/// Per-layer flow metrics of a serving workload: the dataset from its
/// `setups` set-ups, the stages from [`STAGE_RUNS`] stage-by-stage
/// flows on the last set-up's data, which this runs.
pub fn flow_layers(
    out: &mut Outcome,
    setup: &KwsSetup,
    setups: usize,
) -> Result<(), matador::Error> {
    trace::set_enabled(true);
    trace::set_iteration(None);
    for _ in 0..STAGE_RUNS {
        flow_stages(
            DatasetKind::Kws6,
            &setup.data,
            &kws_options(setup.seed),
            &setup.flow.outcome,
            out,
        )?;
    }
    trace::set_enabled(false);
    out.layer(
        "datasets.generate_s",
        trace::setup_s("datasets.generate") / setups as f64,
        "s",
    );
    for (metric, name) in FLOW_LAYERS {
        out.layer(metric, trace::setup_s(name) / STAGE_RUNS as f64, "s");
    }
    Ok(())
}

/// A KWS-6 design built the way the serving workloads need it: the
/// flow on the seed's data, plus serving inputs and their expected
/// winners from software inference.
pub struct KwsSetup {
    pub seed: u64,
    pub data: Dataset,
    pub flow: FlowRun,
    pub inputs: Vec<BitVec>,
    pub expected: Vec<usize>,
}

/// Distinct serving inputs drawn from the seed's KWS-6 test split.
const KWS_SERVING_INPUTS: usize = 2_048;

fn kws_options(seed: u64) -> EvalOptions {
    EvalOptions {
        seed,
        ..EvalOptions::quick()
    }
}

pub fn kws_setup(seed: u64, out: &mut Outcome) -> Result<KwsSetup, matador::Error> {
    let kind = DatasetKind::Kws6;
    let opts = kws_options(seed);
    let data = dataset(
        kind,
        SplitSizes {
            train: opts.sizes.train,
            test: KWS_SERVING_INPUTS,
        },
        seed,
    );
    let flow = run_flow(kind, &data, &opts, out)?;
    let inputs: Vec<BitVec> = data.test.iter().map(|s| s.input.clone()).collect();
    let expected = {
        let _s = span("tsetlin.predict");
        inputs
            .iter()
            .map(|x| flow.outcome.model.predict(x))
            .collect()
    };
    Ok(KwsSetup {
        seed,
        data,
        flow,
        inputs,
        expected,
    })
}

/// The flow's deterministic work counts.
pub fn flow_counts(out: &mut Outcome, flow: &FlowRun) {
    out.layer("logic.and2_gates", flow.and2_gates as f64, "count");
    out.layer("rtl.verilog_bytes", flow.verilog_bytes as f64, "bytes");
}

/// Whether the measured loop runs iteration `i`: until `--seconds`
/// have passed, and at least once — three times on a traced run, which
/// needs a warm iteration plus one traced and one untraced for the
/// tracing-overhead ratio.
pub fn keep_going(args: &crate::Args, i: u32, started: Instant) -> bool {
    let min = if args.trace { 3 } else { 1 };
    i < min || started.elapsed().as_secs_f64() < args.seconds
}
