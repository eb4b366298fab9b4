//! The shard pool: N independent engines executing batched prediction
//! requests — over one shared compiled design (the homogeneous
//! constructors) or one design *per shard* (the heterogeneous path).
//!
//! Each shard owns a full engine — its own AXI stream master, HCB
//! register chain and pipeline — exactly as N accelerator instances on
//! the fabric would each sit behind an independent AXI stream. The pool
//! adds the processor-side runtime around them: bounded admission
//! ([`RequestQueue`]), width-aware deterministic dispatch ([`Dispatcher`])
//! and result reassembly in submission order.
//!
//! ## Determinism guarantee
//!
//! A request's classification depends only on the design of the shard
//! that executed it and the datapoint — never on the shard count, the
//! dispatch policy or the worker-thread count. The dispatcher itself is a
//! pure function of submission order and per-shard load profiles, so the
//! *assignment* is also reproducible run-to-run. On a heterogeneous pool
//! every design sharing a feature width must implement the same model for
//! predictions to stay shard-independent; `tests/serve_determinism.rs`
//! and `tests/hetero_determinism.rs` lock in bit-identical predictions
//! and class sums across shard counts, policies, threads and backends.

use crate::dispatch::{DispatchPolicy, Dispatcher, ShardLoad, ShardProfile};
use crate::error::ServeError;
use crate::fault::{
    FaultPlan, FaultState, SliceAction, SliceFaults, SEEDED_FAULTS_PER_SHARD,
    SEEDED_HORIZON_REQUESTS,
};
use crate::health::{HealthTracker, HealthTransition, ShardHealth};
use crate::queue::{RequestQueue, DEFAULT_QUEUE_DEPTH};
use crate::report::{ShardStats, ThroughputReport};
use crate::spec::ShardSpec;
use matador_obs::{Counter, Histogram, Registry};
use matador_sim::{
    CompiledAccelerator, EngineBackend, SimEngine, SimError, SimResult, TurboEngine, TurboProgram,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tsetlin::bits::BitVec;

/// A shard's per-flush mean observed II beyond this multiple of the
/// pool's modeled II is treated as a soft fault (`"ii_outlier"`) — the
/// shard is degraded, not quarantined. Conservative: heterogeneous
/// pools legitimately mix IIs a factor of ~2 apart.
const II_OUTLIER_FACTOR: u64 = 4;

/// Configuration of a serving runtime instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeOptions {
    /// Engine shards in the pool (≥ 1). Ignored on the heterogeneous
    /// path, where the [`ShardSpec`] list sets the shard count.
    pub shards: usize,
    /// Request→shard assignment policy.
    pub policy: DispatchPolicy,
    /// Bounded request-queue depth (≥ 1); submissions beyond it fail with
    /// [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Whether shard engines model the two-stage (pipelined) class sum.
    /// Ignored on the heterogeneous path, where each [`ShardSpec`]
    /// carries its own design's choice.
    pub pipelined_sum: bool,
    /// Whether predictions carry the class sums behind each winner.
    pub capture_class_sums: bool,
    /// Worker threads for shard execution (`None` = the
    /// `MATADOR_THREADS`/available-parallelism default).
    pub threads: Option<usize>,
    /// Chunk-fan-out threshold override for turbo shards (tape-work cost
    /// below which a batch stays serial; see
    /// [`matador_sim::TurboProgram::plan_workers`]). `None` reads the
    /// `MATADOR_CHUNK_THRESHOLD` environment default at pool
    /// construction. Purely a performance knob — results are bit-identical
    /// at any value. It also sets the floor below which a homogeneous
    /// turbo pool consolidates a small flush onto one shard (clamped to
    /// the default; `0` spreads every flush): winners, class sums and
    /// latencies are unaffected, only the shard *assignment* changes.
    pub chunk_threshold: Option<u64>,
    /// Execution engine behind each shard. [`EngineBackend::Turbo`]
    /// produces bit-identical predictions, class sums and cycle stamps
    /// via bit-sliced evaluation and analytic timing — the serving fast
    /// path. Ignored on the heterogeneous path, where each [`ShardSpec`]
    /// picks its own backend.
    pub backend: EngineBackend,
    /// `Some(seed)` arms seeded chaos injection: the pool is built in
    /// resilient mode with [`FaultPlan::seeded`]`(seed, shards,`
    /// [`SEEDED_HORIZON_REQUESTS`]`, `[`SEEDED_FAULTS_PER_SHARD`]`)`
    /// installed — the options-only way to switch on the fault-tolerant
    /// serving path. For an explicit schedule (or resilient mode without
    /// injected faults) use [`ShardPool::with_fault_plan`] instead.
    /// `None` (the default) keeps the classic fail-fast pool.
    #[serde(default)]
    pub fault_seed: Option<u64>,
}

impl ServeOptions {
    /// Options for a pool of `shards` engines with the defaults: round-robin
    /// dispatch, a [`DEFAULT_QUEUE_DEPTH`]-deep queue, plain class sums,
    /// cycle-accurate engines.
    pub fn new(shards: usize) -> Self {
        ServeOptions {
            shards,
            policy: DispatchPolicy::RoundRobin,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            pipelined_sum: false,
            capture_class_sums: false,
            threads: None,
            chunk_threshold: None,
            backend: EngineBackend::CycleAccurate,
            fault_seed: None,
        }
    }

    /// [`ServeOptions::new`] on the [`EngineBackend::Turbo`] backend.
    pub fn turbo(shards: usize) -> Self {
        ServeOptions {
            backend: EngineBackend::Turbo,
            ..ServeOptions::new(shards)
        }
    }

    /// Rejects degenerate options — the single source of truth for both
    /// [`ShardPool::with_options`] and [`crate::ServeSession::new`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] or [`ServeError::ZeroQueueDepth`].
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        self.validate_queue_depth()
    }

    /// The spec-independent half of [`ServeOptions::validate`]: the
    /// heterogeneous constructors check shard count through
    /// [`ShardSpec::validate_all`] (the `shards` field is superseded by
    /// the spec list) but share this queue-depth check.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroQueueDepth`].
    pub fn validate_queue_depth(&self) -> Result<(), ServeError> {
        if self.queue_depth == 0 {
            return Err(ServeError::ZeroQueueDepth);
        }
        Ok(())
    }
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions::new(1)
    }
}

/// Per-shard serving statistics over a pool's lifetime, exposed by
/// [`ShardPool::shard_stats`]. Complements [`crate::ShardStats`] (the
/// engine stream view — cycles, transfers, stalls) with the *dispatch*
/// view: how much work the pool routed to each shard and how fast that
/// shard turned results around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolShardStats {
    /// Shard index.
    pub shard: usize,
    /// Bus beats of work the pool dispatched to this shard (each request
    /// charges its design's packets-per-datapoint).
    pub queued_beats: u64,
    /// Sum of observed result-to-result gaps (cycles) on this shard —
    /// the numerator of its observed steady-state II.
    pub ii_cycles: u64,
    /// Number of gaps behind `ii_cycles`.
    pub ii_samples: u64,
    /// Flushes in which this shard executed at least one request.
    pub flushes_served: u64,
}

/// Pool-level metric handles, resolved once at construction so the flush
/// path never touches the registry lock. Pure sinks: nothing in the pool
/// reads them back, so recording cannot perturb dispatch determinism.
#[derive(Debug, Clone)]
struct PoolMetrics {
    /// `matador_pool_flushes_total` — non-empty flushes executed.
    flushes: Arc<Counter>,
    /// `matador_pool_flushes_consolidated_total` — flushes a multi-shard
    /// pool ran whole on a single shard (the consolidation fast path).
    consolidated: Arc<Counter>,
    /// `matador_pool_dispatched_total{policy=...}` — requests planned by
    /// the configured dispatch policy (the spread path; consolidated
    /// flushes bypass the planner and are counted above instead).
    dispatched: Arc<Counter>,
    /// `matador_pool_retries_total` — redirect rounds a resilient flush
    /// ran after shard failures (one per re-planning pass, not per
    /// request).
    retries: Arc<Counter>,
    /// `matador_pool_redirects_total` — requests re-dispatched from a
    /// failed shard to a surviving one.
    redirects: Arc<Counter>,
}

impl PoolMetrics {
    fn resolve(policy: DispatchPolicy) -> Self {
        let registry = Registry::global();
        PoolMetrics {
            flushes: registry.counter(
                "matador_pool_flushes_total",
                "",
                "Non-empty flushes executed by the shard pool.",
            ),
            consolidated: registry.counter(
                "matador_pool_flushes_consolidated_total",
                "",
                "Flushes a multi-shard pool consolidated onto a single shard.",
            ),
            dispatched: registry.counter(
                "matador_pool_dispatched_total",
                &format!("policy=\"{}\"", policy.as_label()),
                "Requests planned by the configured dispatch policy.",
            ),
            retries: registry.counter(
                "matador_pool_retries_total",
                "",
                "Redirect rounds run after shard failures.",
            ),
            redirects: registry.counter(
                "matador_pool_redirects_total",
                "",
                "Requests re-dispatched from a failed shard to a surviving one.",
            ),
        }
    }
}

/// Bumps `matador_faults_injected_total{kind=...}`. Resolved lazily:
/// only ever reached when a fault plan actually fires, never on the
/// fault-free hot path.
fn count_fault_injected(kind: &'static str) {
    Registry::global()
        .counter(
            "matador_faults_injected_total",
            &format!("kind=\"{kind}\""),
            "Faults injected by the active fault plan, by kind.",
        )
        .inc();
}

/// Bumps `matador_faults_detected_total{kind=...}` — faults the pool
/// *observed* (injected or genuine: `engine_error` counts here without
/// ever being injected).
fn count_fault_detected(kind: &'static str) {
    Registry::global()
        .counter(
            "matador_faults_detected_total",
            &format!("kind=\"{kind}\""),
            "Shard faults detected by the pool, by kind.",
        )
        .inc();
}

/// Per-shard metric handles, registered at pool construction with a
/// `shard="N"` label.
#[derive(Debug, Clone)]
struct ShardMetrics {
    /// `matador_pool_shard_requests_total{shard=...}`.
    requests: Arc<Counter>,
    /// `matador_pool_shard_queued_beats_total{shard=...}`.
    queued_beats: Arc<Counter>,
    /// `matador_pool_shard_ii_cycles{shard=...}` — one sample per flush:
    /// the shard's mean observed result-to-result gap over that flush.
    ii_cycles: Arc<Histogram>,
}

impl ShardMetrics {
    fn resolve(shard: usize) -> Self {
        let registry = Registry::global();
        let labels = format!("shard=\"{shard}\"");
        ShardMetrics {
            requests: registry.counter(
                "matador_pool_shard_requests_total",
                &labels,
                "Requests executed, by shard.",
            ),
            queued_beats: registry.counter(
                "matador_pool_shard_queued_beats_total",
                &labels,
                "Bus beats of work dispatched, by shard.",
            ),
            ii_cycles: registry.histogram(
                "matador_pool_shard_ii_cycles",
                &labels,
                "Observed steady-state II per flush (cycles/result), by shard.",
            ),
        }
    }
}

/// One completed inference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prediction {
    /// Id assigned at submission (monotonic per pool; a
    /// [`crate::ServeSession`] rebases ids to stay monotonic per session).
    pub request: u64,
    /// Winning class index.
    pub winner: usize,
    /// Shard that executed the request.
    pub shard: usize,
    /// First packet acceptance → `result_valid`, inclusive, on that shard.
    pub latency_cycles: u64,
    /// Shard-local cycle at which `result_valid` asserted (cumulative
    /// over the shard's lifetime, not per flush). Together with `shard`
    /// this orders completions *within* a flush deterministically — the
    /// key the front-end's reorder stage sequences replies by.
    pub completed_at_cycle: u64,
    /// Class sums behind the winner, when
    /// [`ServeOptions::capture_class_sums`] is set.
    pub class_sums: Option<Vec<i32>>,
}

/// A pool of engine shards serving batched requests.
///
/// # Lifetime and memory
///
/// A pool retains per-request latency samples and each engine's
/// monitor/result/sum logs for its whole lifetime — memory grows with the
/// total requests served, which is what makes the cumulative
/// [`ShardPool::report`] possible. Scope a pool to a bounded serving
/// window and roll its report up (exactly what [`crate::ServeSession`]
/// does per batch) rather than holding one pool open indefinitely.
///
/// # Examples
///
/// ```
/// use matador_logic::cube::{Cube, Lit};
/// use matador_logic::dag::Sharing;
/// use matador_serve::{ServeOptions, ShardPool};
/// use matador_sim::{AccelShape, CompiledAccelerator};
/// use tsetlin::bits::BitVec;
///
/// let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
/// let cubes = vec![vec![
///     Cube::from_lits([Lit::pos(0)]),
///     Cube::one(),
///     Cube::from_lits([Lit::pos(1)]),
///     Cube::one(),
/// ]];
/// let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
/// let mut pool = ShardPool::with_options(&accel, ServeOptions::new(2)).expect("valid");
/// let batch = vec![BitVec::from_indices(4, &[0]); 6];
/// let predictions = pool.serve(&batch).expect("drains");
/// assert_eq!(predictions.len(), 6);
/// assert!(predictions.iter().all(|p| p.winner == 0));
/// assert_eq!(pool.report().datapoints, 6);
/// ```
#[derive(Debug)]
pub struct ShardPool<'a> {
    /// One compiled design per shard (all identical on the homogeneous
    /// path).
    designs: Vec<&'a CompiledAccelerator>,
    /// Per-shard static dispatch weights (all 1 on the homogeneous path).
    weights: Vec<u32>,
    engines: Vec<PoolEngine<'a>>,
    dispatcher: Dispatcher,
    queue: RequestQueue,
    capture_sums: bool,
    threads: Option<usize>,
    /// Distinct feature widths the pool admits, ascending.
    widths: Vec<usize>,
    /// Whether each shard models the two-stage (pipelined) class sum —
    /// one extra cycle of result latency on that shard.
    pipelined: Vec<bool>,
    /// Per-request latency samples, pool lifetime.
    latencies: Vec<u64>,
    /// Cost of one lane word on the shared turbo tape — `Some` exactly
    /// when every shard runs the same compiled [`TurboProgram`]
    /// (homogeneous turbo pools), which is what makes shard assignment
    /// result-invisible and consolidation sound.
    shared_chunk_cost: Option<u64>,
    /// Chunk-parallelism cost threshold, resolved once at construction.
    chunk_threshold: u64,
    /// Pool-level metric handles (resolved once at construction).
    metrics: PoolMetrics,
    /// Per-shard metric handles, shard-index order.
    shard_metrics: Vec<ShardMetrics>,
    /// Bus beats dispatched to each shard, pool lifetime — the
    /// [`PoolShardStats::queued_beats`] source.
    shard_queued_beats: Vec<u64>,
    /// Flushes in which each shard executed at least one request.
    shard_flushes: Vec<u64>,
    /// Execution units: each entry lists the member shards that must
    /// jointly execute a request. Standalone shards form singleton
    /// units; a partition group's members share one unit (members in
    /// shard order, units ordered by lead = lowest member index). The
    /// dispatcher plans over units, so a partitioned design is one
    /// logical executor however many shards its slices occupy, and the
    /// flush loop ([`ShardPool::run_flush`]) merges its members' partial
    /// class sums into each final winner.
    units: Vec<Vec<usize>>,
    /// Runtime state of the installed [`FaultPlan`] (disarmed and free
    /// on pools without one).
    faults: FaultState,
    /// Per-shard circuit breaker. Present on every pool; only the
    /// resilient flush path ever records transitions, so a classic pool
    /// stays permanently all-healthy.
    health: HealthTracker,
    /// Whether shard failures are contained, quarantined and redirected
    /// ([`ShardPool::with_fault_plan`]) instead of failing the flush
    /// ([`ServeError::Shard`], the classic fail-fast contract).
    resilient: bool,
}

/// One engine shard behind either execution backend. Both variants expose
/// the same result stream, cycle clock and stream statistics, so the pool
/// (and everything above it) is backend-agnostic. Engines are boxed: a
/// pool holds many, and both variants carry sizeable scratch state.
#[derive(Debug)]
enum PoolEngine<'a> {
    Cycle(Box<SimEngine<'a>>),
    Turbo(Box<TurboEngine>),
}

/// What one shard produced for its slice of a flush: classifications in
/// submission order, the class sums behind them, and each datapoint's
/// first-packet acceptance cycle.
struct ShardOutput {
    results: Vec<SimResult>,
    class_sums: Vec<Vec<i32>>,
    first_beats: Vec<u64>,
}

impl PoolEngine<'_> {
    /// Advances the shard clock by `n` dead cycles — the timing half of
    /// an injected stall or queue delay.
    fn inject_idle_cycles(&mut self, n: u64) {
        match self {
            PoolEngine::Cycle(e) => e.inject_idle_cycles(n),
            PoolEngine::Turbo(e) => e.inject_idle_cycles(n),
        }
    }

    fn load(&self) -> ShardLoad {
        match self {
            PoolEngine::Cycle(e) => ShardLoad {
                cycles: e.cycle(),
                ii_cycles: e.observed_ii_cycles(),
                ii_samples: e.observed_ii_samples(),
            },
            PoolEngine::Turbo(e) => ShardLoad {
                cycles: e.cycle(),
                ii_cycles: e.observed_ii_cycles(),
                ii_samples: e.observed_ii_samples(),
            },
        }
    }

    fn stats(&self, shard: usize) -> ShardStats {
        match self {
            PoolEngine::Cycle(e) => ShardStats {
                shard,
                cycles: e.cycle(),
                datapoints: e.monitor().datapoints() as u64,
                transfers: e.stream_transfers(),
                stall_cycles: e.stream_stall_cycles(),
            },
            PoolEngine::Turbo(e) => ShardStats {
                shard,
                cycles: e.cycle(),
                datapoints: e.datapoints(),
                transfers: e.transfers(),
                stall_cycles: e.stall_cycles(),
            },
        }
    }

    /// Runs this shard's slice of a flush.
    fn run(&mut self, inputs: &[BitVec], beats_per_request: u64) -> Result<ShardOutput, SimError> {
        match self {
            PoolEngine::Cycle(e) => {
                let monitor_before = e.monitor().records().len();
                let sums_before = e.class_sums_log().len();
                let results = e.run_datapoints(inputs)?;
                let class_sums = e.class_sums_log()[sums_before..].to_vec();
                // A datapoint's beats transfer back-to-back before the
                // next datapoint's, so fixed-size chunks recover each
                // first-packet acceptance cycle from the monitor (ILA)
                // records.
                let first_beats = e.monitor().records()[monitor_before..]
                    .chunks(beats_per_request as usize)
                    .map(|c| c[0].cycle)
                    .collect();
                Ok(ShardOutput {
                    results,
                    class_sums,
                    first_beats,
                })
            }
            PoolEngine::Turbo(e) => {
                let first_beats = (0..inputs.len())
                    .map(|i| e.next_first_beat_cycle(i))
                    .collect();
                let sums_before = e.class_sums_log().len();
                let results = e.run_datapoints(inputs)?;
                let class_sums = e.class_sums_log()[sums_before..].to_vec();
                Ok(ShardOutput {
                    results,
                    class_sums,
                    first_beats,
                })
            }
        }
    }
}

/// How one shard's slice of a flush failed. `Engine` wraps a genuine
/// engine error; `Corrupted` is the parity check catching an injected
/// [`crate::FaultKind::CorruptSum`] — the results exist but must never
/// be served. A panicked slice produces neither: its outcome stays
/// unset (see [`ShardRun::outcome`]).
#[derive(Debug)]
enum SliceError {
    Engine(SimError),
    Corrupted,
}

/// One engine shard wrapped with its slice's fault directives — the
/// injection shim the flush path executes instead of the bare engine.
/// With clean directives it is a transparent pass-through to
/// [`PoolEngine::run`]: the fault-free path pays two branch tests.
struct FaultyEngine<'e, 'a, 'd> {
    engine: &'e mut PoolEngine<'a>,
    directives: &'d SliceFaults,
}

impl FaultyEngine<'_, '_, '_> {
    /// Runs the slice under its directives. An injected
    /// [`SliceAction::Panic`] raises a real panic *before* touching the
    /// engine — the worker dies exactly as a genuine bug would, and the
    /// shard clock stays consistent for the eventual recovery probe.
    fn run(
        &mut self,
        inputs: &[BitVec],
        beats_per_request: u64,
    ) -> Result<ShardOutput, SliceError> {
        if self.directives.action == SliceAction::Panic {
            panic!("injected fault: shard worker dies before accepting the slice");
        }
        if self.directives.pre_delay > 0 {
            self.engine.inject_idle_cycles(self.directives.pre_delay);
        }
        let output = self
            .engine
            .run(inputs, beats_per_request)
            .map_err(SliceError::Engine)?;
        if self.directives.action == SliceAction::Corrupt {
            return Err(SliceError::Corrupted);
        }
        Ok(output)
    }
}

/// One shard's slice of a flush, mutated on a worker thread.
struct ShardRun<'w> {
    beats_per_request: u64,
    /// The slice's inputs: the caller's borrowed window when the unit
    /// takes all of it, else moved (or, for non-lead partition members,
    /// copied) out of the flush's [`FlushInputs`].
    inputs: Cow<'w, [BitVec]>,
    /// Fault directives for this slice, planned on the pool thread
    /// before workers spawn (clean outside resilient mode).
    directives: SliceFaults,
    /// `None` until the slice runs — and still `None` afterwards iff the
    /// worker panicked (injected or genuine), which is how the resilient
    /// triage detects a lost slice. Empty slices never run.
    outcome: Option<Result<ShardOutput, SliceError>>,
}

impl ShardRun<'_> {
    /// Executes a non-empty slice on `engine` under its fault directives.
    /// May panic (an injected [`SliceAction::Panic`], or a genuine engine
    /// bug); resilient callers contain that with `catch_unwind` /
    /// [`matador_par::try_par_map_mut_with`].
    fn execute(&mut self, engine: &mut PoolEngine<'_>) {
        let mut faulty = FaultyEngine {
            engine,
            directives: &self.directives,
        };
        self.outcome = Some(faulty.run(&self.inputs, self.beats_per_request));
    }
}

/// A flush's inputs, by request index. A `serve` window stays borrowed
/// from the caller; a drained queue is owned. Inputs move out to their
/// runs and a failed run hands them back, so a window input is copied
/// at most once however often it is redirected (partition members
/// beside the lead still get their own copy of an owned slice).
struct FlushInputs<'w> {
    /// The caller's window (`serve`), empty for a drained queue.
    window: &'w [BitVec],
    /// Owned inputs currently at home: the whole drained queue, or the
    /// window copies a failed run handed back (empty until then).
    stash: Vec<Option<BitVec>>,
}

impl<'w> FlushInputs<'w> {
    fn len(&self) -> usize {
        self.window.len().max(self.stash.len())
    }

    /// Feature width of request `ri` (pending requests are always home).
    fn width(&self, ri: usize) -> usize {
        match self.stash.get(ri) {
            Some(Some(input)) => input.len(),
            _ => self.window[ri].len(),
        }
    }

    /// The inputs of requests `indices` (ascending) as one slice: the
    /// borrowed window itself when they are all of it, else owned.
    fn slice(&mut self, indices: &[usize]) -> Cow<'w, [BitVec]> {
        if indices.len() == self.window.len() {
            return Cow::Borrowed(self.window);
        }
        Cow::Owned(
            indices
                .iter()
                .map(|&ri| match self.stash.get_mut(ri).and_then(Option::take) {
                    Some(input) => input,
                    None => self.window[ri].clone(),
                })
                .collect(),
        )
    }

    /// Takes a failed slice's owned inputs back for redirection.
    fn give_back(&mut self, indices: &[usize], slice: Cow<'_, [BitVec]>) {
        if let Cow::Owned(owned) = slice {
            if self.stash.is_empty() {
                self.stash.resize(self.window.len(), None);
            }
            for (input, &ri) in owned.into_iter().zip(indices) {
                self.stash[ri] = Some(input);
            }
        }
    }
}

/// Writes one served unit's predictions (requests `indices`, ids from
/// `first_id`) into `slots`. A unit of one passes its shard's answer
/// straight through; a partition group's members' class sums add up to
/// the final sums, whose argmax is the winner, and its stamps are the
/// slowest member's. The `lead` member takes the attribution.
fn reassemble(
    slots: &mut [Option<Prediction>],
    first_id: u64,
    indices: &[usize],
    lead: usize,
    outputs: &[&ShardOutput],
    capture_sums: bool,
) {
    for (j, &ri) in indices.iter().enumerate() {
        let (winner, class_sums) = match outputs {
            [output] => (
                output.results[j].winner,
                capture_sums.then(|| output.class_sums[j].clone()),
            ),
            _ => {
                let mut merged = outputs[0].class_sums[j].clone();
                for output in &outputs[1..] {
                    for (acc, &s) in merged.iter_mut().zip(&output.class_sums[j]) {
                        *acc += s;
                    }
                }
                (tsetlin::tm::argmax(&merged), capture_sums.then_some(merged))
            }
        };
        let latency = outputs
            .iter()
            .map(|o| o.results[j].cycle - o.first_beats[j] + 1)
            .max();
        let completed = outputs.iter().map(|o| o.results[j].cycle).max();
        slots[ri] = Some(Prediction {
            request: first_id + ri as u64,
            winner,
            shard: lead,
            latency_cycles: latency.expect("units are non-empty"),
            completed_at_cycle: completed.expect("units are non-empty"),
            class_sums,
        });
    }
}

impl<'a> ShardPool<'a> {
    /// Creates a pool of `shards` engines with default options.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] when `shards == 0`.
    pub fn new(accel: &'a CompiledAccelerator, shards: usize) -> Result<Self, ServeError> {
        Self::with_options(accel, ServeOptions::new(shards))
    }

    /// Creates a homogeneous pool — every shard runs `accel` — from
    /// explicit [`ServeOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] or [`ServeError::ZeroQueueDepth`]
    /// on degenerate options.
    pub fn with_options(
        accel: &'a CompiledAccelerator,
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        options.validate()?;
        let queue = RequestQueue::new(options.queue_depth)?;
        // The turbo instruction tapes are immutable: compile them once
        // per pool and hand every shard a copy.
        let program = match options.backend {
            EngineBackend::CycleAccurate => None,
            EngineBackend::Turbo => Some(TurboProgram::compile(accel)),
        };
        // Turbo shards in an all-turbo pool run serially in flush() —
        // each one fans its slice out across the worker budget instead
        // (chunk parallelism composes better than shard parallelism for
        // identical tapes), so they inherit the pool's thread setting.
        let shared_chunk_cost = program.as_ref().map(TurboProgram::chunk_cost);
        let chunk_threshold = options
            .chunk_threshold
            .unwrap_or_else(matador_sim::configured_chunk_threshold);
        let engines = (0..options.shards)
            .map(|_| {
                Self::build_engine(
                    accel,
                    program.as_ref(),
                    options.pipelined_sum,
                    options.capture_class_sums,
                    options.threads,
                    chunk_threshold,
                )
            })
            .collect();
        let mut pool = ShardPool {
            designs: vec![accel; options.shards],
            weights: vec![1; options.shards],
            engines,
            dispatcher: Dispatcher::new(options.policy),
            queue,
            capture_sums: options.capture_class_sums,
            threads: options.threads,
            widths: vec![accel.shape().features],
            pipelined: vec![options.pipelined_sum; options.shards],
            latencies: Vec::new(),
            shared_chunk_cost,
            chunk_threshold,
            metrics: PoolMetrics::resolve(options.policy),
            shard_metrics: (0..options.shards).map(ShardMetrics::resolve).collect(),
            shard_queued_beats: vec![0; options.shards],
            shard_flushes: vec![0; options.shards],
            units: (0..options.shards).map(|s| vec![s]).collect(),
            faults: FaultState::new(&FaultPlan::none(), options.shards),
            health: HealthTracker::new(options.shards),
            resilient: false,
        };
        if let Some(seed) = options.fault_seed {
            pool.install_fault_plan(FaultPlan::seeded(
                seed,
                options.shards,
                SEEDED_HORIZON_REQUESTS,
                SEEDED_FAULTS_PER_SHARD,
            ));
        }
        Ok(pool)
    }

    /// Creates a homogeneous pool in **resilient mode** with `plan`
    /// installed: injected faults — and genuine shard failures — are
    /// contained per shard, fed into the health circuit breaker (see
    /// the [`crate::health`] module docs) and the affected requests are
    /// re-dispatched to surviving compatible shards, instead of failing
    /// the whole flush with [`ServeError::Shard`]. Replies stay
    /// bit-identical to the fault-free pool while at least one
    /// compatible shard survives; once none does, flushes fail with
    /// [`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`].
    /// Pass [`FaultPlan::none`] for resilient mode without injection.
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardPool::with_options`].
    pub fn with_fault_plan(
        accel: &'a CompiledAccelerator,
        options: ServeOptions,
        plan: FaultPlan,
    ) -> Result<Self, ServeError> {
        let mut pool = Self::with_options(accel, options)?;
        pool.install_fault_plan(plan);
        Ok(pool)
    }

    /// [`ShardPool::with_fault_plan`] for a heterogeneous pool: one
    /// engine per [`ShardSpec`], resilient mode, `plan` installed.
    ///
    /// # Errors
    ///
    /// Exactly as [`ShardPool::heterogeneous`].
    pub fn heterogeneous_with_fault_plan(
        specs: &'a [ShardSpec],
        options: ServeOptions,
        plan: FaultPlan,
    ) -> Result<Self, ServeError> {
        let mut pool = Self::heterogeneous(specs, options)?;
        pool.install_fault_plan(plan);
        Ok(pool)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultState::new(&plan, self.shards());
        self.resilient = true;
    }

    /// Creates a heterogeneous pool: one engine per [`ShardSpec`], each
    /// owning its spec's design, backend, pipelining and dispatch weight.
    /// The pool admits exactly the feature widths the specs cover;
    /// requests are routed only to shards whose width matches. `options`
    /// contributes the dispatch policy, queue depth, class-sum capture
    /// and worker-thread count — its `shards`, `backend` and
    /// `pipelined_sum` fields are superseded by the specs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroShards`] for an empty spec list,
    /// [`ServeError::ZeroWeight`] for a zero-weight spec and
    /// [`ServeError::ZeroQueueDepth`] for a zero queue depth.
    pub fn heterogeneous(
        specs: &'a [ShardSpec],
        options: ServeOptions,
    ) -> Result<Self, ServeError> {
        ShardSpec::validate_all(specs)?;
        let queue = RequestQueue::new(options.queue_depth)?;
        // Each turbo spec compiles its own instruction tape: every spec
        // owns its design, so there is no shared-design identity to
        // dedupe on. Replicating one design across many turbo shards is
        // the homogeneous path's job ([`ShardPool::with_options`]
        // compiles once) — the heterogeneous path optimizes for specs
        // that genuinely differ.
        // Heterogeneous shards execute under the pool's shard-level
        // fan-out, so turbo engines pin their intra-batch chunking to the
        // calling worker — shard- and chunk-level parallelism must not
        // multiply.
        let chunk_threshold = options
            .chunk_threshold
            .unwrap_or_else(matador_sim::configured_chunk_threshold);
        let engines = specs
            .iter()
            .map(|spec| {
                let program = match spec.backend {
                    EngineBackend::CycleAccurate => None,
                    EngineBackend::Turbo => Some(TurboProgram::compile(&spec.design)),
                };
                // Partition-group members always capture class sums
                // internally: the partitioned flush needs every member's
                // partial sums to merge the final winner, whether or not
                // the caller asked predictions to carry them.
                Self::build_engine(
                    &spec.design,
                    program.as_ref(),
                    spec.pipelined_sum,
                    options.capture_class_sums || spec.partition_group.is_some(),
                    Some(1),
                    chunk_threshold,
                )
            })
            .collect();
        let mut widths: Vec<usize> = specs.iter().map(ShardSpec::width).collect();
        widths.sort_unstable();
        widths.dedup();
        let mut pool = ShardPool {
            designs: specs.iter().map(|s| &s.design).collect(),
            weights: specs.iter().map(|s| s.weight).collect(),
            engines,
            dispatcher: Dispatcher::new(options.policy),
            queue,
            capture_sums: options.capture_class_sums,
            threads: options.threads,
            widths,
            pipelined: specs.iter().map(|s| s.pipelined_sum).collect(),
            latencies: Vec::new(),
            shared_chunk_cost: None,
            chunk_threshold,
            metrics: PoolMetrics::resolve(options.policy),
            shard_metrics: (0..specs.len()).map(ShardMetrics::resolve).collect(),
            shard_queued_beats: vec![0; specs.len()],
            shard_flushes: vec![0; specs.len()],
            units: Self::units_from_specs(specs),
            faults: FaultState::new(&FaultPlan::none(), specs.len()),
            health: HealthTracker::new(specs.len()),
            resilient: false,
        };
        if let Some(seed) = options.fault_seed {
            pool.install_fault_plan(FaultPlan::seeded(
                seed,
                specs.len(),
                SEEDED_HORIZON_REQUESTS,
                SEEDED_FAULTS_PER_SHARD,
            ));
        }
        Ok(pool)
    }

    fn build_engine(
        accel: &'a CompiledAccelerator,
        program: Option<&TurboProgram>,
        pipelined_sum: bool,
        capture_class_sums: bool,
        chunk_threads: Option<usize>,
        chunk_threshold: u64,
    ) -> PoolEngine<'a> {
        match program {
            None => {
                let mut engine = SimEngine::new(accel);
                engine.set_pipelined_sum(pipelined_sum);
                engine.set_capture_class_sums(capture_class_sums);
                PoolEngine::Cycle(Box::new(engine))
            }
            Some(program) => {
                let mut engine = TurboEngine::from_program(program.clone());
                engine.set_pipelined_sum(pipelined_sum);
                engine.set_capture_class_sums(capture_class_sums);
                engine.set_chunk_threads(chunk_threads);
                engine.set_chunk_threshold(chunk_threshold);
                PoolEngine::Turbo(Box::new(engine))
            }
        }
    }

    /// Execution units from a spec list: a singleton unit per standalone
    /// shard, one multi-member unit per partition group. Members are in
    /// shard order; units are ordered by their lead (lowest) member, so
    /// the layout is a deterministic function of the spec list alone.
    fn units_from_specs(specs: &[ShardSpec]) -> Vec<Vec<usize>> {
        let mut groups: std::collections::BTreeMap<u32, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (shard, spec) in specs.iter().enumerate() {
            if let Some(group) = spec.partition_group {
                groups.entry(group).or_default().push(shard);
            }
        }
        let mut units = Vec::new();
        for (shard, spec) in specs.iter().enumerate() {
            match spec.partition_group {
                None => units.push(vec![shard]),
                Some(group) => {
                    let members = &groups[&group];
                    if members[0] == shard {
                        units.push(members.clone());
                    }
                }
            }
        }
        units
    }

    /// Execution units behind dispatch: each entry lists the member
    /// shards that jointly execute a request (singletons for standalone
    /// shards, the whole member set for a partition group).
    pub fn units(&self) -> &[Vec<usize>] {
        &self.units
    }

    /// Whether every member of a unit is eligible for traffic: a
    /// partition group with even one quarantined member cannot serve
    /// (its partial sums would be incomplete), so it is ineligible whole.
    fn unit_eligible(&self, members: &[usize]) -> bool {
        members.iter().all(|&m| self.health.eligible(m))
    }

    /// Units currently eligible for traffic — the unit-level sibling of
    /// [`ShardPool::healthy_shards`].
    fn eligible_units(&self) -> usize {
        self.units
            .iter()
            .filter(|members| self.unit_eligible(members))
            .count()
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The compiled design shard `shard` executes.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn design(&self, shard: usize) -> &'a CompiledAccelerator {
        self.designs[shard]
    }

    /// Distinct feature widths the pool admits, ascending.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.dispatcher.policy()
    }

    /// The admission queue (pending counts, backpressure counters).
    pub fn queue(&self) -> &RequestQueue {
        &self.queue
    }

    /// Per-request latency samples collected so far (flush order).
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Per-shard serving statistics over the pool's lifetime, shard-index
    /// order: bus beats dispatched, observed result-to-result gap sums
    /// and sample counts (the shard's observed steady-state II is
    /// `ii_cycles / ii_samples`), and the number of flushes the shard
    /// actually executed work in. Unlike the global metrics registry,
    /// these are plain per-pool fields — always collected, regardless of
    /// whether metrics recording is enabled.
    pub fn shard_stats(&self) -> Vec<PoolShardStats> {
        self.engines
            .iter()
            .enumerate()
            .map(|(shard, engine)| {
                let load = engine.load();
                PoolShardStats {
                    shard,
                    queued_beats: self.shard_queued_beats[shard],
                    ii_cycles: load.ii_cycles,
                    ii_samples: load.ii_samples,
                    flushes_served: self.shard_flushes[shard],
                }
            })
            .collect()
    }

    /// Books one shard's slice of a completed flush: lifetime tracking
    /// for [`ShardPool::shard_stats`] plus the per-shard registry
    /// metrics. `before` is the shard's planner profile from before the
    /// slice ran; the observed-II delta since then is this flush's
    /// contribution, returned as the slice's mean result-to-result gap
    /// (`None` when the slice had no gap).
    fn note_shard_work(
        &mut self,
        shard: usize,
        requests: usize,
        before: ShardProfile,
    ) -> Option<u64> {
        let beats = before.beats_per_request * requests as u64;
        self.shard_queued_beats[shard] += beats;
        self.shard_flushes[shard] += 1;
        let m = &self.shard_metrics[shard];
        m.requests.add(requests as u64);
        m.queued_beats.add(beats);
        let load = self.engines[shard].load();
        let cycles = load.ii_cycles - before.load.ii_cycles;
        let samples = load.ii_samples - before.load.ii_samples;
        let ii = (samples > 0).then(|| cycles.div_ceil(samples));
        if let Some(ii) = ii {
            m.ii_cycles.record(ii);
        }
        ii
    }

    /// Each shard's cumulative engine cycle count, shard-index order —
    /// the time base [`Prediction::completed_at_cycle`] stamps live on.
    /// A snapshot taken before a flush turns those stamps into per-flush
    /// completion offsets, which is how the front-end maps shard-local
    /// cycles onto its own clock.
    pub fn shard_cycles(&self) -> Vec<u64> {
        self.engines.iter().map(|e| e.load().cycles).collect()
    }

    /// Whether dispatch may route to `shard` right now: every state but
    /// quarantined. The health-aware accessors below fall back to the
    /// whole pool when *no* shard is eligible, so their values stay
    /// defined (admission has already rejected new work by then).
    fn shard_usable(&self, shard: usize) -> bool {
        self.health.eligible(shard) || self.health.eligible_shards() == 0
    }

    /// The pool's minimum possible request latency in cycles: the fastest
    /// *healthy* shard's first-packet→result time for a lone request on
    /// an idle engine (`P` packet beats + 3 fixed stages, +1 when that
    /// shard's class sum is pipelined). No admission schedule can deliver
    /// a reply sooner, so a deadline inside this floor is unmeetable by
    /// construction. Quarantined shards don't count: under brownout the
    /// floor honestly reflects surviving capacity (and rises if the
    /// fastest shard is the one that died).
    pub fn latency_floor_cycles(&self) -> u64 {
        self.designs
            .iter()
            .zip(&self.pipelined)
            .enumerate()
            .filter(|&(shard, _)| self.shard_usable(shard))
            .map(|(_, (design, &pipelined))| {
                design.shape().num_packets() as u64 + 3 + u64::from(pipelined)
            })
            .min()
            .expect("a pool always has at least one shard")
    }

    /// Modeled steady-state cycles per result on one *healthy* shard:
    /// the pooled observed result-to-result gap when any eligible shard
    /// has history, else the bandwidth-bound fallback (the widest
    /// eligible design's beats per datapoint — a deliberately
    /// conservative cold-start estimate). This is the drain model behind
    /// deadline-aware batch coalescing; quarantined shards' history is
    /// excluded so brownout drain estimates track surviving capacity.
    pub fn modeled_ii_cycles(&self) -> u64 {
        let (cycles, samples) = self
            .engines
            .iter()
            .enumerate()
            .filter(|&(shard, _)| self.shard_usable(shard))
            .map(|(_, e)| e.load())
            .fold((0u64, 0u64), |(c, n), load| {
                (c + load.ii_cycles, n + load.ii_samples)
            });
        if samples > 0 {
            cycles.div_ceil(samples)
        } else {
            self.designs
                .iter()
                .enumerate()
                .filter(|&(shard, _)| self.shard_usable(shard))
                .map(|(_, d)| d.shape().num_packets() as u64)
                .max()
                .expect("a pool always has at least one shard")
        }
    }

    /// Units a flush of `pending` requests would actually execute on: 1
    /// when the flush would run whole on a single unit, the count of
    /// *healthy* units otherwise (never 0 — with everything quarantined
    /// the estimate degrades to serial capacity rather than dividing by
    /// zero). A partition group drains as one executor — its members run
    /// the same slice concurrently — so units count, not member shards.
    /// The front-end's drain model divides by this, not the raw shard
    /// count — a consolidated flush drains serially, a browned-out pool
    /// drains on what survives, and pretending otherwise would fire
    /// deadline-pressure flushes far too late.
    pub fn flush_spread(&self, pending: usize) -> usize {
        if pending > 0 && self.single_executor(pending).is_some() {
            1
        } else {
            self.eligible_units().max(1)
        }
    }

    /// Bus beats one datapoint of `width` features costs on the cheapest
    /// compatible shard — the unit the front-end's fair queueing charges
    /// per request. Falls back to 1 for widths the pool does not admit
    /// (admission rejects those before any costing happens).
    pub fn beats_for_width(&self, width: usize) -> u64 {
        self.designs
            .iter()
            .filter(|d| d.shape().features == width)
            .map(|d| d.shape().num_packets() as u64)
            .min()
            .unwrap_or(1)
    }

    /// Checks a datapoint width against the pool's admitted widths.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WidthMismatch`] (single-width pool) or
    /// [`ServeError::NoCompatibleShard`] (mixed pool) for a width no
    /// shard accepts.
    pub fn check_width(&self, got: usize) -> Result<(), ServeError> {
        if self.widths.binary_search(&got).is_ok() {
            return Ok(());
        }
        // A single-width pool keeps the precise single-design diagnostic;
        // a mixed pool reports the whole admission set.
        if let [expected] = self.widths[..] {
            Err(ServeError::WidthMismatch { expected, got })
        } else {
            Err(ServeError::NoCompatibleShard {
                got,
                widths: self.widths.clone(),
            })
        }
    }

    /// Checks that at least one unit serving `width` is currently
    /// eligible for traffic — every member of it out of quarantine (a
    /// lone quarantined member makes its whole group's partial sums
    /// unmergeable). Trivially `Ok` on a classic (non-resilient) pool
    /// and whenever every shard is healthy — the check costs two loads
    /// on the fault-free path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShardQuarantined`] (naming the unit's first
    /// quarantined member) when exactly one unit serves the width — the
    /// precise single-shard diagnostic — and
    /// [`ServeError::NoHealthyShard`] when several do but every one of
    /// them is blocked. A width no unit serves at all also reports
    /// [`ServeError::NoHealthyShard`] — call [`ShardPool::check_width`]
    /// first for the admission-grade diagnostics.
    pub fn check_healthy(&self, width: usize) -> Result<(), ServeError> {
        if !self.resilient || self.health.all_healthy() {
            return Ok(());
        }
        let mut compatible = 0usize;
        let mut blocked = 0usize;
        for members in &self.units {
            if self.designs[members[0]].shape().features != width {
                continue;
            }
            match members.iter().find(|&&m| !self.health.eligible(m)) {
                None => return Ok(()),
                Some(&m) => {
                    compatible += 1;
                    blocked = m;
                }
            }
        }
        if compatible == 1 {
            Err(ServeError::ShardQuarantined { shard: blocked })
        } else {
            Err(ServeError::NoHealthyShard { width })
        }
    }

    /// Current health state of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.health.state(shard)
    }

    /// Current health state of every shard, shard-index order.
    pub fn health_states(&self) -> &[ShardHealth] {
        self.health.states()
    }

    /// The health transition log, oldest first — every circuit-breaker
    /// edge with its cause and flush number. Deterministic: same fault
    /// plan + same request stream ⇒ same log at any thread count.
    pub fn health_log(&self) -> &[HealthTransition] {
        self.health.log()
    }

    /// Number of shards currently eligible for traffic.
    pub fn healthy_shards(&self) -> usize {
        self.health.eligible_shards()
    }

    /// Whether the pool contains and redirects shard failures
    /// (constructed via [`ShardPool::with_fault_plan`], armed via
    /// [`ServeOptions::fault_seed`], or switched by an operator
    /// [`ShardPool::quarantine_shard`]).
    pub fn resilient(&self) -> bool {
        self.resilient
    }

    /// Operator override: quarantine `shard` immediately (e.g. a
    /// planned drain), switching the pool into resilient mode if it was
    /// not already — a classic pool has no machinery to honor the
    /// quarantine otherwise. The shard probes its way back through the
    /// normal circuit-breaker cooldown.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn quarantine_shard(&mut self, shard: usize) {
        assert!(shard < self.shards(), "shard {shard} out of range");
        self.resilient = true;
        self.health.force_quarantine(shard);
    }

    /// Admits one request into the bounded queue, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WidthMismatch`] for a datapoint that does not
    /// match a single-width pool's design,
    /// [`ServeError::NoCompatibleShard`] when no shard of a mixed pool
    /// accepts the width, and [`ServeError::QueueFull`] when the depth
    /// bound is reached (typed backpressure — flush and retry).
    pub fn submit(&mut self, input: &BitVec) -> Result<u64, ServeError> {
        self.check_width(input.len())?;
        self.queue.push(input.clone())
    }

    /// Dispatches every pending request over the pool's execution units
    /// (requests go only to units whose design accepts their width, or
    /// all to one shard when a homogeneous turbo pool consolidates a
    /// small flush), runs them and returns predictions in submission
    /// order.
    ///
    /// # Errors
    ///
    /// A classic pool returns [`ServeError::Shard`] if a shard's engine
    /// fails to drain; the lowest failing shard index is reported. A hang
    /// is a toolflow bug, not a recoverable condition: the failed flush's
    /// requests are dropped (including any classified by surviving
    /// shards), no latency samples are recorded for it, and surviving
    /// shards' cumulative engine/monitor counters remain visible in
    /// [`ShardPool::report`]. A resilient pool redirects failed slices
    /// instead, and fails with [`ServeError::ShardQuarantined`] /
    /// [`ServeError::NoHealthyShard`] only once no healthy unit is left
    /// for some pending request.
    pub fn flush(&mut self) -> Result<Vec<Prediction>, ServeError> {
        let requests = self.queue.drain();
        let Some(first_id) = requests.first().map(|r| r.id) else {
            return Ok(Vec::new());
        };
        // Queued ids are contiguous: `serve` block-admits only into an
        // empty queue, so between two drains every id comes from a push.
        debug_assert!(requests.iter().zip(first_id..).all(|(r, id)| r.id == id));
        let inputs = FlushInputs {
            window: &[],
            stash: requests.into_iter().map(|r| Some(r.input)).collect(),
        };
        self.run_flush(first_id, inputs)
    }

    /// Profile snapshots for the width-aware planner: cumulative cycles
    /// (every flush drains its engines completely, so cumulative cycles
    /// are exactly what distinguishes shards *across* flushes),
    /// observed-II statistics for latency-aware planning, and each
    /// shard's admitted width and per-datapoint beat cost.
    fn shard_profiles(&self) -> Vec<ShardProfile> {
        self.engines
            .iter()
            .zip(&self.designs)
            .zip(&self.weights)
            .map(|((engine, design), &weight)| ShardProfile {
                load: engine.load(),
                width: design.shape().features,
                beats_per_request: design.shape().num_packets() as u64,
                weight,
            })
            .collect()
    }

    /// Unit profiles for the planner: the lead member stands in for the
    /// unit (a group's members share one width and beat cost by
    /// construction, and their clocks advance in lockstep); the unit's
    /// weight is its most conservative member's.
    fn unit_profiles(&self, profiles: &[ShardProfile]) -> Vec<ShardProfile> {
        self.units
            .iter()
            .map(|members| ShardProfile {
                weight: members
                    .iter()
                    .map(|&m| profiles[m].weight)
                    .min()
                    .expect("units are non-empty"),
                ..profiles[members[0]]
            })
            .collect()
    }

    /// Executes a flush's shard runs (empty slices never run).
    ///
    /// All-turbo pools run their shards serially on the caller: each
    /// shard's engine fans its own slice out across the full worker
    /// budget (intra-shard chunk parallelism), which beats one thread
    /// per shard for identical tapes and never oversubscribes. Pools
    /// with cycle-accurate shards keep the shard-level fan-out — a
    /// cycle engine is single-threaded by nature, and any turbo engines
    /// beside it were pinned to their worker at construction.
    ///
    /// In resilient mode worker panics (injected or genuine) are
    /// contained — on the caller via `catch_unwind`, across workers via
    /// [`matador_par::try_par_map_mut_with`] — and show up as slices
    /// whose outcome was never set. A classic pool propagates panics
    /// unchanged.
    fn execute_runs(
        serial: bool,
        threads: usize,
        resilient: bool,
        engines: &mut [PoolEngine<'a>],
        runs: &mut [ShardRun<'_>],
    ) {
        let mut jobs: Vec<(&mut PoolEngine<'a>, &mut ShardRun<'_>)> = engines
            .iter_mut()
            .zip(runs.iter_mut())
            .filter(|(_, run)| !run.inputs.is_empty())
            .collect();
        if serial {
            for (engine, run) in &mut jobs {
                if resilient {
                    let _ = catch_unwind(AssertUnwindSafe(|| run.execute(engine)));
                } else {
                    run.execute(engine);
                }
            }
        } else if resilient {
            // The panic (if any) is already recorded as the slice's
            // unset outcome; which one surfaced first is irrelevant.
            let _ = matador_par::try_par_map_mut_with(threads, &mut jobs, |_, (engine, run)| {
                run.execute(engine);
            });
        } else {
            matador_par::par_map_mut_with(threads, &mut jobs, |_, (engine, run)| {
                run.execute(engine);
            });
        }
    }

    /// The one flush loop behind [`ShardPool::flush`] and
    /// [`ShardPool::serve`], over request ids `first_id..` in input
    /// order. Every executor is a *unit* of member shards
    /// ([`ShardPool::units`]; a standalone shard is a unit of one), and
    /// a classic pool is one whose fault plan never fires. Each round:
    ///
    /// 1. **Plan.** [`ShardPool::single_executor`] may hand the whole
    ///    round to one unit (consolidation); otherwise the dispatcher
    ///    spreads it over the eligible units' profiles.
    /// 2. **Execute.** Every member runs its unit's slice under its fault
    ///    directives. A unit taking a whole borrowed window runs straight
    ///    off the caller's slice; otherwise inputs move into the slice.
    /// 3. **Triage.** A unit serves only when all its members came back
    ///    clean. Partition parts are disjoint clause ranges cut at even
    ///    boundaries ([`matador_sim::CompilePipeline::partition`]), so
    ///    the members' class sums add up to the monolithic sums: the
    ///    winner is their argmax, latency and completion stamps are the
    ///    slowest member's, and the lead member takes the attribution. A
    ///    unit of one passes its shard's answer straight through.
    /// 4. **Health** (resilient pools only), one rule for every unit, in
    ///    shard order: soft faults degrade; each clean member of a served
    ///    unit is checked for an observed-II outlier, else counts toward
    ///    recovery; hard faults quarantine.
    /// 5. **Redirect or fail.** A lost slice contributes nothing — a
    ///    panicked worker produced no results and a corrupted or partial
    ///    slice is discarded whole — and its requests go back to pending
    ///    for the next round. A classic pool fails fast instead, with
    ///    [`ServeError::Shard`] for the lowest failing shard.
    ///
    /// Termination: every round that loses a slice quarantines at least
    /// one previously-eligible member (breakers cannot half-open
    /// mid-flush — cooldowns only advance in
    /// [`HealthTracker::begin_flush`]), so after at most `shards` rounds
    /// the flush completes or the health check fails it typed. Every
    /// served reply was computed cleanly by a healthy unit, which keeps
    /// winners and class sums bit-identical to the fault-free run.
    fn run_flush(
        &mut self,
        first_id: u64,
        mut inputs: FlushInputs<'_>,
    ) -> Result<Vec<Prediction>, ServeError> {
        let n = inputs.len();
        self.metrics.flushes.inc();
        if self.resilient {
            // Advance quarantine cooldowns (Quarantined → Probing) before
            // anything is planned, so half-open probes ride ordinary
            // traffic this flush.
            self.health.begin_flush();
        }
        let mut slots: Vec<Option<Prediction>> = Vec::new();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut round = 0u64;
        while !pending.is_empty() {
            // No healthy capacity for some pending width ⇒ the flush
            // fails typed (its requests are dropped, exactly like the
            // classic `ServeError::Shard` contract). Free on a classic
            // pool.
            for &ri in &pending {
                self.check_healthy(inputs.width(ri))?;
            }
            if round > 0 {
                self.metrics.retries.inc();
                self.metrics.redirects.add(pending.len() as u64);
            }

            // 1. Plan: per-unit work lists, submission order within each.
            let profiles = self.shard_profiles();
            let mut unit_work: Vec<Vec<usize>> = vec![Vec::new(); self.units.len()];
            if let Some(unit) = self.single_executor(pending.len()) {
                // The dispatcher's round-robin cursors are left untouched,
                // which keeps the assignment deterministic for any flush
                // sequence.
                if round == 0 && self.units.len() > 1 {
                    self.metrics.consolidated.inc();
                }
                unit_work[unit] = std::mem::take(&mut pending);
            } else {
                if round == 0 {
                    self.metrics.dispatched.add(pending.len() as u64);
                }
                let unit_profiles = self.unit_profiles(&profiles);
                let eligible: Vec<bool> = self
                    .units
                    .iter()
                    .map(|members| self.unit_eligible(members))
                    .collect();
                let widths: Vec<usize> = pending.iter().map(|&ri| inputs.width(ri)).collect();
                let plan = self
                    .dispatcher
                    .plan_eligible(&unit_profiles, &widths, &eligible);
                for (ri, unit) in pending.drain(..).zip(plan) {
                    unit_work[unit].push(ri);
                }
            }
            round += 1;

            // 2. Execute. Every member needs its unit's slice: a borrowed
            // window is shared as is, an owned slice is copied for every
            // member but the lead.
            let mut slices: Vec<Cow<'_, [BitVec]>> = vec![Cow::Borrowed(&[]); self.engines.len()];
            for (members, indices) in self.units.iter().zip(&unit_work) {
                if indices.is_empty() {
                    continue;
                }
                let slice = inputs.slice(indices);
                for &m in &members[1..] {
                    slices[m] = slice.clone();
                }
                slices[members[0]] = slice;
            }
            // Fault directives are planned up front on the pool thread —
            // the injector's state is single-threaded, workers only read
            // their own directive.
            let mut runs: Vec<ShardRun<'_>> = slices
                .into_iter()
                .zip(&profiles)
                .enumerate()
                .map(|(shard, (inputs, profile))| {
                    let directives = if self.faults.armed() && !inputs.is_empty() {
                        self.faults.plan_slice(shard, inputs.len())
                    } else {
                        SliceFaults::clean()
                    };
                    for &label in directives.soft.iter().chain(&directives.hard) {
                        count_fault_injected(label);
                    }
                    ShardRun {
                        beats_per_request: profile.beats_per_request,
                        inputs,
                        directives,
                        outcome: None,
                    }
                })
                .collect();
            let modeled_ii = self.modeled_ii_cycles();
            let serial = self.shared_chunk_cost.is_some();
            let threads = self.threads.unwrap_or_else(matador_par::configured_threads);
            Self::execute_runs(
                serial,
                threads,
                self.resilient,
                &mut self.engines,
                &mut runs,
            );

            // 3. Triage, unit by unit. Reply slots are allocated only now,
            // so they never overlap the engines' own working memory.
            if slots.is_empty() {
                slots.resize(n, None);
            }
            if !self.resilient {
                let failure = runs
                    .iter()
                    .enumerate()
                    .find_map(|(shard, run)| match &run.outcome {
                        Some(Err(SliceError::Engine(error))) => Some((shard, *error)),
                        _ => None,
                    });
                if let Some((shard, error)) = failure {
                    return Err(ServeError::Shard { shard, error });
                }
            }
            let mut served_shards: Vec<usize> = Vec::new();
            let mut hard_faults: Vec<(usize, &'static str)> = Vec::new();
            for (members, indices) in self.units.iter().zip(&unit_work) {
                if indices.is_empty() {
                    continue;
                }
                let failed_before = hard_faults.len();
                for &m in members {
                    let cause = match &runs[m].outcome {
                        Some(Ok(_)) => continue,
                        Some(Err(SliceError::Engine(_))) => "engine_error",
                        Some(Err(SliceError::Corrupted)) => "corrupt_sum",
                        // An unset outcome after execution means the
                        // worker panicked — injected (the directive names
                        // it) or genuine.
                        None => runs[m].directives.hard.unwrap_or("panic"),
                    };
                    hard_faults.push((m, cause));
                }
                if hard_faults.len() > failed_before {
                    // A partial result is a vote subtotal: the whole slice
                    // goes back for redirection.
                    inputs.give_back(indices, std::mem::take(&mut runs[members[0]].inputs));
                    pending.extend_from_slice(indices);
                    continue;
                }
                let outputs: Vec<&ShardOutput> = members
                    .iter()
                    .map(|&m| match &runs[m].outcome {
                        Some(Ok(output)) => output,
                        _ => unreachable!("failed units never reach reassembly"),
                    })
                    .collect();
                reassemble(
                    &mut slots,
                    first_id,
                    indices,
                    members[0],
                    &outputs,
                    self.capture_sums,
                );
                served_shards.extend_from_slice(members);
            }

            // 4. Bookkeeping — every member of a served unit did real
            // engine work — and health, in deterministic shard order.
            for (shard, run) in runs.iter().enumerate() {
                for &label in &run.directives.soft {
                    count_fault_detected(label);
                    self.health.note_soft(shard, label);
                }
            }
            for shard in served_shards {
                let ii = self.note_shard_work(shard, runs[shard].inputs.len(), profiles[shard]);
                if !self.resilient || !runs[shard].directives.soft.is_empty() {
                    continue;
                }
                if ii.is_some_and(|ii| ii > II_OUTLIER_FACTOR.saturating_mul(modeled_ii.max(1))) {
                    count_fault_detected("ii_outlier");
                    self.health.note_soft(shard, "ii_outlier");
                } else {
                    self.health.note_clean(shard);
                }
            }
            for (shard, cause) in hard_faults {
                count_fault_detected(cause);
                self.health.note_hard(shard, cause);
            }
            // 5. Redirect. Submission order keeps re-planning
            // deterministic and independent of which shards failed in
            // what order.
            pending.sort_unstable();
        }
        let predictions: Vec<Prediction> = slots
            .into_iter()
            .map(|p| p.expect("the flush loop serves every request or fails typed"))
            .collect();
        self.latencies
            .extend(predictions.iter().map(|p| p.latency_cycles));
        Ok(predictions)
    }

    /// The unit a flush of `pending` requests should run on when one
    /// unit can take it whole: the only unit of a one-unit pool, or — on
    /// a homogeneous turbo pool — the least-loaded eligible shard (tie →
    /// lowest index) when the flush carries less than one consolidation
    /// floor of tape work per shard. Every turbo shard there runs the
    /// same immutable instruction tape, so the assignment is
    /// result-invisible and spreading such a flush only buys per-shard
    /// dispatch overhead.
    ///
    /// The floor is the chunk threshold *clamped to the built-in default*:
    /// `chunk_threshold` is an intra-shard fan-out knob whose `u64::MAX`
    /// sentinel means "never chunk", and before the clamp that sentinel
    /// leaked into this decision — `spread_floor` saturated to `u64::MAX`
    /// and every flush, however large, consolidated onto a single shard,
    /// silently turning a multi-shard pool into one shard. Clamping keeps
    /// the two knobs decoupled: threshold `0` disables consolidation
    /// (every flush spreads), the default passes through unchanged, and
    /// `u64::MAX` disables chunking only, leaving consolidation at the
    /// default floor.
    fn single_executor(&self, pending: usize) -> Option<usize> {
        if self.units.len() == 1 {
            return Some(0);
        }
        let chunk_cost = self.shared_chunk_cost?;
        let lane_words = pending.div_ceil(matador_sim::LANES) as u64;
        let batch_cost = chunk_cost.saturating_mul(lane_words);
        if !Self::flush_consolidates(batch_cost, self.chunk_threshold, self.units.len() as u64) {
            return None;
        }
        // Never consolidate onto a quarantined shard. With nothing
        // eligible there is no single executor (and the flush loop's
        // health check has already failed the flush typed).
        self.units
            .iter()
            .enumerate()
            .filter(|(_, members)| self.unit_eligible(members))
            .min_by_key(|&(unit, members)| (self.engines[members[0]].load().cycles, unit))
            .map(|(unit, _)| unit)
    }

    /// Whether a flush of `batch_cost` tape work (chunk cost × lane
    /// words) may consolidate onto one shard of a `shards`-shard pool.
    ///
    /// The per-shard floor is `chunk_threshold` clamped to
    /// [`matador_sim::DEFAULT_CHUNK_THRESHOLD`]: the threshold's
    /// `u64::MAX` sentinel ("never chunk") must not leak into the
    /// consolidation decision, where it would saturate the floor and
    /// consolidate *every* flush — see [`ShardPool::single_executor`].
    /// Threshold `0` keeps its "always spread" meaning for both knobs.
    fn flush_consolidates(batch_cost: u64, chunk_threshold: u64, shards: u64) -> bool {
        let spread_floor = chunk_threshold
            .min(matador_sim::DEFAULT_CHUNK_THRESHOLD)
            .saturating_mul(shards);
        batch_cost < spread_floor
    }

    /// Serves a whole batch and returns predictions in input order.
    /// Anything already queued flushes first; the batch then runs as
    /// queue-capacity windows, each flushed straight off the borrowed
    /// slice exactly as [`ShardPool::flush`] runs the queue. Ids
    /// come from a block admission ([`RequestQueue::admit_block`]), so
    /// ids and admission counters advance exactly as if every input had
    /// been submitted, the depth bound is respected (the backpressure
    /// counter, [`RequestQueue::rejected`], only ever reflects real
    /// external rejections), and a unit taking a whole window — a
    /// one-shard pool, or a consolidated flush — runs it without
    /// copying a datapoint.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WidthMismatch`] /
    /// [`ServeError::NoCompatibleShard`] — checked for the *whole* batch
    /// up front, before anything is flushed, so a malformed input cannot
    /// strand already-classified predictions — and propagates the flush
    /// errors of [`ShardPool::flush`].
    pub fn serve(&mut self, inputs: &[BitVec]) -> Result<Vec<Prediction>, ServeError> {
        for input in inputs {
            self.check_width(input.len())?;
        }
        let mut out = self.flush()?;
        for window in inputs.chunks(self.queue.capacity()) {
            let first_id = self.queue.admit_block(window.len())?;
            let inputs = FlushInputs {
                window,
                stash: Vec::new(),
            };
            let predictions = self.run_flush(first_id, inputs)?;
            if out.is_empty() {
                out = predictions;
            } else {
                out.extend(predictions);
            }
        }
        Ok(out)
    }

    /// Merges every shard's stream statistics (engine cycles, monitor
    /// datapoint counts, transfers, stalls) and the pool's latency samples
    /// into a whole-pool [`ThroughputReport`].
    pub fn report(&self) -> ThroughputReport {
        let shards = self
            .engines
            .iter()
            .enumerate()
            .map(|(i, e)| e.stats(i))
            .collect();
        ThroughputReport::merge(shards, &self.latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use matador_sim::AccelShape;

    /// 8-feature, 2-packet accelerator: class 0 votes for x0, class 1 for
    /// x4 (mirrors the engine's own test design).
    fn accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::from_lits([Lit::pos(2)]),
            Cube::from_lits([Lit::pos(3)]),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    /// The same boolean function as [`accel`], recompiled on a 2-bit bus:
    /// 4 packets per datapoint instead of 2. Predictions agree with
    /// `accel()` on every input; only the stream geometry differs.
    fn narrow_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 2,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
            Cube::one(),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
        ];
        let w2 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
        ];
        let w3 = vec![Cube::one(); 4];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1, w2, w3], Sharing::Enabled)
    }

    /// A 6-feature design — a different width class entirely.
    fn six_feature_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 3,
            features: 6,
            classes: 2,
            clauses_per_class: 1,
        };
        let w0 = vec![Cube::from_lits([Lit::pos(0)]), Cube::one()];
        let w1 = vec![Cube::one(), Cube::from_lits([Lit::pos(0)])];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    fn inputs(n: usize) -> Vec<BitVec> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    BitVec::from_indices(8, &[0])
                } else {
                    BitVec::from_indices(8, &[4])
                }
            })
            .collect()
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let a = accel();
        assert!(matches!(
            ShardPool::new(&a, 0).unwrap_err(),
            ServeError::ZeroShards
        ));
    }

    #[test]
    fn predictions_match_reference_on_every_shard_count() {
        let a = accel();
        let xs = inputs(11);
        let expected: Vec<usize> = xs
            .iter()
            .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
            .collect();
        for shards in [1, 2, 3, 8] {
            let mut pool = ShardPool::new(&a, shards).expect("valid");
            let winners: Vec<usize> = pool
                .serve(&xs)
                .expect("drains")
                .iter()
                .map(|p| p.winner)
                .collect();
            assert_eq!(winners, expected, "shards={shards}");
        }
    }

    #[test]
    fn round_robin_spreads_requests() {
        let a = accel();
        let mut pool = ShardPool::new(&a, 4).expect("valid");
        let preds = pool.serve(&inputs(8)).expect("drains");
        let shards: Vec<usize> = preds.iter().map(|p| p.shard).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn width_mismatch_is_typed() {
        let a = accel();
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        let err = pool.submit(&BitVec::zeros(5)).unwrap_err();
        assert_eq!(
            err,
            ServeError::WidthMismatch {
                expected: 8,
                got: 5
            }
        );
    }

    #[test]
    fn serve_rejects_malformed_batches_atomically() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.queue_depth = 2;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        // A bad width deep in the batch (past several flush boundaries)
        // must fail before *anything* runs — no stranded predictions, no
        // phantom datapoints in the report.
        let mut batch = inputs(7);
        batch.push(BitVec::zeros(5));
        let err = pool.serve(&batch).unwrap_err();
        assert!(matches!(err, ServeError::WidthMismatch { got: 5, .. }));
        assert_eq!(pool.report().datapoints, 0);
        assert!(pool.latencies().is_empty());
        // The pool stays fully usable afterwards.
        assert_eq!(pool.serve(&inputs(7)).expect("drains").len(), 7);
    }

    #[test]
    fn bounded_queue_backpressures_then_recovers() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.queue_depth = 3;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        for _ in 0..3 {
            pool.submit(&BitVec::from_indices(8, &[0]))
                .expect("admitted");
        }
        let err = pool.submit(&BitVec::from_indices(8, &[0])).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 3 });
        assert_eq!(pool.queue().rejected(), 1);
        // serve() flushes *before* the bound would trip: a batch much
        // larger than the queue completes in order without recording any
        // self-inflicted rejections.
        let preds = pool.serve(&inputs(10)).expect("drains");
        assert_eq!(preds.len(), 3 + 10);
        assert_eq!(pool.queue().rejected(), 1);
    }

    #[test]
    fn latency_matches_single_engine_formula() {
        let a = accel(); // 2 packets → latency 2 + 3
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        let preds = pool.serve(&inputs(4)).expect("drains");
        for p in &preds {
            assert_eq!(p.latency_cycles, 2 + 3, "{p:?}");
        }
        let report = pool.report();
        assert_eq!(report.latency_p50_cycles, 5);
        assert_eq!(report.latency_p99_cycles, 5);
        assert_eq!(report.datapoints, 4);
    }

    #[test]
    fn pipelined_sum_option_adds_one_cycle() {
        let a = accel();
        let mut options = ServeOptions::new(1);
        options.pipelined_sum = true;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        let preds = pool.serve(&inputs(2)).expect("drains");
        assert!(preds.iter().all(|p| p.latency_cycles == 2 + 4));
    }

    #[test]
    fn class_sums_captured_when_requested() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.capture_class_sums = true;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        let xs = inputs(6);
        let preds = pool.serve(&xs).expect("drains");
        for (x, p) in xs.iter().zip(&preds) {
            assert_eq!(
                p.class_sums.as_deref(),
                Some(a.reference_class_sums(x).as_slice())
            );
        }
        // Off by default: no sums carried.
        let mut plain = ShardPool::new(&a, 2).expect("valid");
        assert!(plain.serve(&xs).expect("drains")[0].class_sums.is_none());
    }

    #[test]
    fn multi_shard_pool_cycles_beat_single_shard() {
        let a = accel();
        let xs = inputs(32);
        let pool_cycles = |shards: usize| {
            let mut pool = ShardPool::new(&a, shards).expect("valid");
            pool.serve(&xs).expect("drains");
            pool.report().pool_cycles
        };
        let one = pool_cycles(1);
        let four = pool_cycles(4);
        assert!(four < one, "4 shards {four} !< 1 shard {one}");
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let a = accel();
        let xs = inputs(17);
        let run = |threads: usize| {
            let mut options = ServeOptions::new(4);
            options.threads = Some(threads);
            options.capture_class_sums = true;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            (preds, pool.report())
        };
        let sequential = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn least_queued_balances_cumulative_load_across_flushes() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.policy = DispatchPolicy::LeastQueued;
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        // First flush: one request lands on shard 0 (tie → lowest index),
        // leaving shard 0 with cycle history and shard 1 idle.
        let first = pool.serve(&inputs(1)).expect("drains");
        assert_eq!(first[0].shard, 0);
        // Second flush: shard 1 has strictly less accumulated load, so it
        // absorbs the next requests until it catches up.
        let second = pool.serve(&inputs(2)).expect("drains");
        assert_eq!(
            second.iter().map(|p| p.shard).collect::<Vec<_>>(),
            vec![1, 1]
        );
    }

    #[test]
    fn least_queued_agrees_with_round_robin_on_predictions() {
        let a = accel();
        let xs = inputs(13);
        let winners = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(3);
            options.policy = policy;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            pool.serve(&xs)
                .expect("drains")
                .iter()
                .map(|p| p.winner)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            winners(DispatchPolicy::RoundRobin),
            winners(DispatchPolicy::LeastQueued)
        );
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let a = accel();
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        assert!(pool.flush().expect("trivially drains").is_empty());
        assert_eq!(pool.report().datapoints, 0);
    }

    #[test]
    fn turbo_backend_is_bit_identical_including_reports() {
        let a = accel();
        let xs = inputs(23);
        for shards in [1usize, 3] {
            for policy in [
                DispatchPolicy::RoundRobin,
                DispatchPolicy::LeastQueued,
                DispatchPolicy::LatencyAware,
            ] {
                let serve_twice = |backend: EngineBackend| {
                    let mut options = ServeOptions::new(shards);
                    options.policy = policy;
                    options.capture_class_sums = true;
                    options.backend = backend;
                    // Shard *assignments* must match the cycle pool too,
                    // so keep the turbo pool on the configured policy:
                    // threshold 0 spreads every flush.
                    options.chunk_threshold = Some(0);
                    let mut pool = ShardPool::with_options(&a, options).expect("valid");
                    // Two batches exercise the cumulative shard clocks the
                    // stateful policies dispatch on.
                    let mut preds = pool.serve(&xs[..9]).expect("drains");
                    preds.extend(pool.serve(&xs[9..]).expect("drains"));
                    (preds, pool.report())
                };
                let cycle = serve_twice(EngineBackend::CycleAccurate);
                let turbo = serve_twice(EngineBackend::Turbo);
                assert_eq!(turbo, cycle, "shards={shards} {policy:?}");
            }
        }
    }

    #[test]
    fn small_turbo_flushes_consolidate_onto_the_least_loaded_shard() {
        let a = accel();
        let xs = inputs(12);
        // Well below one chunk threshold of work per shard: the default
        // round-robin policy would spread, consolidation sends the whole
        // flush to one shard instead.
        let mut pool = ShardPool::with_options(&a, ServeOptions::turbo(4)).expect("valid");
        let first = pool.serve(&xs).expect("infallible");
        assert!(first.iter().all(|p| p.shard == 0), "fresh pool → shard 0");
        // The next flush finds shard 0 loaded and picks an idle shard.
        let second = pool.serve(&xs).expect("infallible");
        assert!(second.iter().all(|p| p.shard == 1), "tie → lowest idle");
        // Winners and latencies are exactly the single-shard answers.
        let mut single = ShardPool::with_options(&a, ServeOptions::turbo(1)).expect("valid");
        let alone = single.serve(&xs).expect("infallible");
        for (p, q) in first.iter().zip(&alone) {
            assert_eq!((p.winner, p.latency_cycles), (q.winner, q.latency_cycles));
        }
    }

    /// Pins the consolidation decision at the three interesting
    /// thresholds. The `u64::MAX` rows are the regression for the
    /// sentinel-overflow bug: pre-fix, `spread_floor` saturated to
    /// `u64::MAX` and a flush of *any* cost consolidated, so a
    /// multi-shard pool sweeping `chunk_threshold = u64::MAX` (the
    /// documented "disable chunk fan-out" sentinel) silently served every
    /// flush from one shard.
    #[test]
    fn consolidation_floor_is_decoupled_from_the_chunk_sentinel() {
        use matador_sim::DEFAULT_CHUNK_THRESHOLD as DEFAULT;
        let consolidates =
            |cost: u64, threshold: u64| ShardPool::flush_consolidates(cost, threshold, 4);
        // Threshold 0: consolidation disabled, every flush spreads.
        assert!(!consolidates(0, 0));
        assert!(!consolidates(1, 0));
        // Default threshold: small flushes consolidate, big ones spread.
        assert!(consolidates(4 * DEFAULT - 1, DEFAULT));
        assert!(!consolidates(4 * DEFAULT, DEFAULT));
        // u64::MAX sentinel: chunking is disabled, but consolidation must
        // keep the *default* floor — a batch past it still spreads over
        // the shards. Pre-fix both asserts below failed.
        assert!(!consolidates(4 * DEFAULT, u64::MAX));
        assert!(!consolidates(u64::MAX, u64::MAX));
        // ... while genuinely small flushes still consolidate at MAX,
        // exactly as they do at the default.
        assert!(consolidates(4 * DEFAULT - 1, u64::MAX));
        // In-between thresholds below the default pass through unclamped.
        assert!(consolidates(4 * 100 - 1, 100));
        assert!(!consolidates(4 * 100, 100));
    }

    #[test]
    fn chunk_sentinel_pool_still_consolidates_small_flushes() {
        // Pool-level companion to the pure-function regression: with the
        // sentinel threshold a small flush behaves exactly as it does at
        // the default — consolidated onto the least-loaded shard — and a
        // zero threshold spreads even a tiny flush round-robin.
        let a = accel();
        let serve_shards = |threshold: u64| {
            let mut options = ServeOptions::turbo(4);
            options.chunk_threshold = Some(threshold);
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            pool.serve(&inputs(8))
                .expect("drains")
                .iter()
                .map(|p| p.shard)
                .collect::<Vec<_>>()
        };
        assert_eq!(serve_shards(u64::MAX), vec![0; 8], "sentinel consolidates");
        assert_eq!(
            serve_shards(matador_sim::DEFAULT_CHUNK_THRESHOLD),
            vec![0; 8],
            "default consolidates"
        );
        assert_eq!(
            serve_shards(0),
            vec![0, 1, 2, 3, 0, 1, 2, 3],
            "threshold 0 spreads round-robin"
        );
    }

    #[test]
    fn turbo_convenience_options_select_the_backend() {
        let a = accel();
        let options = ServeOptions::turbo(2);
        assert_eq!(options.backend, EngineBackend::Turbo);
        let mut pool = ShardPool::with_options(&a, options).expect("valid");
        let preds = pool.serve(&inputs(5)).expect("infallible");
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|p| p.latency_cycles == 2 + 3));
    }

    #[test]
    fn latency_aware_matches_least_queued_on_uniform_load() {
        let a = accel();
        let xs = inputs(12);
        let serve_fresh = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(3);
            options.policy = policy;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            pool.serve(&xs).expect("drains")
        };
        // From a fresh (uniform) pool the two policies plan identically —
        // same shard assignment, same predictions.
        assert_eq!(
            serve_fresh(DispatchPolicy::LatencyAware),
            serve_fresh(DispatchPolicy::LeastQueued)
        );
    }

    #[test]
    fn latency_aware_beats_least_queued_on_a_skewed_batch() {
        let a = accel(); // 2 packets → a 1-datapoint flush costs 5 cycles
        let run = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(2);
            options.policy = policy;
            let mut pool = ShardPool::with_options(&a, options).expect("valid");
            // Skew the histories: a lone request lands on shard 0.
            pool.serve(&inputs(1)).expect("drains");
            let before: Vec<u64> = pool.report().shards.iter().map(|s| s.cycles).collect();
            let preds = pool.serve(&inputs(8)).expect("drains");
            let makespan = pool
                .report()
                .shards
                .iter()
                .zip(&before)
                .map(|(s, b)| s.cycles - b)
                .max()
                .expect("two shards");
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            (winners, makespan)
        };
        let (lq_winners, lq_makespan) = run(DispatchPolicy::LeastQueued);
        let (la_winners, la_makespan) = run(DispatchPolicy::LatencyAware);
        // Identical answers (dispatch never changes predictions) …
        assert_eq!(la_winners, lq_winners);
        // … but LeastQueued "repays" shard 0's history by overloading
        // shard 1 (3/5 split → 13-cycle drain), while LatencyAware
        // schedules the batch itself evenly (4/4 → 11 cycles).
        assert_eq!(lq_makespan, 13);
        assert_eq!(la_makespan, 11);
    }

    #[test]
    fn drain_model_accessors_reflect_the_designs() {
        let a = accel(); // 2 packets/datapoint
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        assert_eq!(pool.latency_floor_cycles(), 2 + 3);
        assert_eq!(pool.beats_for_width(8), 2);
        assert_eq!(pool.beats_for_width(99), 1, "unserved width falls back");
        // No steady-state history yet: the bandwidth-bound fallback.
        assert_eq!(pool.modeled_ii_cycles(), 2);
        assert_eq!(pool.shard_cycles(), vec![0, 0]);
        pool.serve(&inputs(8)).expect("drains");
        assert!(pool.shard_cycles().iter().all(|&c| c > 0));
        // Back-to-back streaming observes the bandwidth-bound II.
        assert_eq!(pool.modeled_ii_cycles(), 2);
        // A pipelined class sum raises the floor by its extra cycle.
        let mut opts = ServeOptions::new(1);
        opts.pipelined_sum = true;
        let pool = ShardPool::with_options(&a, opts).expect("valid");
        assert_eq!(pool.latency_floor_cycles(), 2 + 4);
    }

    #[test]
    fn completion_stamps_match_shard_clocks() {
        let a = accel();
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        let before = pool.shard_cycles();
        let preds = pool.serve(&inputs(6)).expect("drains");
        let after = pool.shard_cycles();
        for p in &preds {
            // Stamps live on the shard-local clock, inside this flush.
            assert!(p.completed_at_cycle > before[p.shard], "{p:?}");
            assert!(p.completed_at_cycle <= after[p.shard], "{p:?}");
        }
        // Within one shard, stamps are strictly increasing in
        // submission order — the reorder stage's ordering key.
        for shard in 0..2 {
            let stamps: Vec<u64> = preds
                .iter()
                .filter(|p| p.shard == shard)
                .map(|p| p.completed_at_cycle)
                .collect();
            assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        }
    }

    // --- heterogeneous pools ---

    fn hetero_specs() -> Vec<ShardSpec> {
        vec![ShardSpec::new(accel()), ShardSpec::new(narrow_accel())]
    }

    #[test]
    fn empty_spec_list_is_a_typed_error() {
        let specs: Vec<ShardSpec> = Vec::new();
        assert!(matches!(
            ShardPool::heterogeneous(&specs, ServeOptions::new(1)).unwrap_err(),
            ServeError::ZeroShards
        ));
    }

    #[test]
    fn zero_weight_spec_is_a_typed_error() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(accel()).weight(0)];
        assert_eq!(
            ShardPool::heterogeneous(&specs, ServeOptions::new(1)).unwrap_err(),
            ServeError::ZeroWeight { shard: 1 }
        );
    }

    #[test]
    fn mixed_bus_widths_agree_with_the_reference_on_every_request() {
        // Same model compiled on a 4-bit and a 2-bit bus behind one pool:
        // identical predictions regardless of which shard serves which
        // request, under every policy.
        let specs = hetero_specs();
        let xs = inputs(13);
        let expected: Vec<usize> = xs
            .iter()
            .map(|x| tsetlin::tm::argmax(&specs[0].design.reference_class_sums(x)))
            .collect();
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let mut options = ServeOptions::new(1);
            options.policy = policy;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            assert_eq!(winners, expected, "{policy:?}");
            // Both shards actually participated.
            assert!(preds.iter().any(|p| p.shard == 0), "{policy:?}");
            assert!(preds.iter().any(|p| p.shard == 1), "{policy:?}");
        }
    }

    #[test]
    fn no_compatible_shard_is_typed_not_a_panic() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(six_feature_accel())];
        let mut pool = ShardPool::heterogeneous(&specs, ServeOptions::new(1)).expect("valid");
        assert_eq!(pool.widths(), &[6, 8]);
        let err = pool.submit(&BitVec::zeros(5)).unwrap_err();
        assert_eq!(
            err,
            ServeError::NoCompatibleShard {
                got: 5,
                widths: vec![6, 8],
            }
        );
        // The batched entry point rejects atomically too.
        let err = pool
            .serve(&[BitVec::zeros(8), BitVec::zeros(5)])
            .unwrap_err();
        assert!(matches!(err, ServeError::NoCompatibleShard { got: 5, .. }));
        assert_eq!(pool.report().datapoints, 0);
    }

    #[test]
    fn mixed_widths_route_only_to_compatible_shards() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(six_feature_accel())];
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastQueued,
            DispatchPolicy::LatencyAware,
        ] {
            let mut options = ServeOptions::new(1);
            options.policy = policy;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let batch = vec![
                BitVec::from_indices(8, &[0]),
                BitVec::from_indices(6, &[0]),
                BitVec::from_indices(8, &[4]),
                BitVec::from_indices(6, &[3]),
            ];
            let preds = pool.serve(&batch).expect("drains");
            let shards: Vec<usize> = preds.iter().map(|p| p.shard).collect();
            // Width 8 → shard 0 only; width 6 → shard 1 only.
            assert_eq!(shards, vec![0, 1, 0, 1], "{policy:?}");
        }
    }

    #[test]
    fn latency_aware_sends_more_to_the_wide_bus_shard() {
        // Shard 0: 2 beats/datapoint (4-bit bus). Shard 1: 4
        // beats/datapoint (2-bit bus). LatencyAware levels queued beats,
        // so the wide shard absorbs ~2× the requests; RoundRobin
        // alternates blindly and drains slower.
        let specs = hetero_specs();
        let makespan = |policy: DispatchPolicy| {
            let mut options = ServeOptions::new(1);
            options.policy = policy;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&inputs(12)).expect("drains");
            let wide = preds.iter().filter(|p| p.shard == 0).count();
            (wide, pool.report().pool_cycles)
        };
        let (rr_wide, rr_cycles) = makespan(DispatchPolicy::RoundRobin);
        let (la_wide, la_cycles) = makespan(DispatchPolicy::LatencyAware);
        assert_eq!(rr_wide, 6);
        assert!(la_wide > rr_wide, "LatencyAware wide-shard share {la_wide}");
        assert!(
            la_cycles < rr_cycles,
            "LatencyAware {la_cycles} !< RoundRobin {rr_cycles}"
        );
    }

    #[test]
    fn weights_bias_dispatch_on_equal_designs() {
        let specs = vec![ShardSpec::new(accel()), ShardSpec::new(accel()).weight(3)];
        let mut options = ServeOptions::new(1);
        options.policy = DispatchPolicy::LeastQueued;
        let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
        let preds = pool.serve(&inputs(8)).expect("drains");
        let to_heavy = preds.iter().filter(|p| p.shard == 1).count();
        assert_eq!(to_heavy, 6, "weight-3 shard absorbs 3/4 of the batch");
    }

    #[test]
    fn heterogeneous_per_shard_backends_are_bit_identical() {
        // One cycle-accurate shard and one turbo shard of the *same*
        // design in one pool: every prediction, class sum, latency and
        // report entry matches a fully cycle-accurate pool.
        let xs = inputs(17);
        let run = |backends: [EngineBackend; 2]| {
            let specs = vec![
                ShardSpec::new(accel()).backend(backends[0]),
                ShardSpec::new(accel()).backend(backends[1]),
            ];
            let mut options = ServeOptions::new(1);
            options.capture_class_sums = true;
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            let preds = pool.serve(&xs).expect("drains");
            (preds, pool.report())
        };
        let all_cycle = run([EngineBackend::CycleAccurate, EngineBackend::CycleAccurate]);
        let mixed = run([EngineBackend::CycleAccurate, EngineBackend::Turbo]);
        let all_turbo = run([EngineBackend::Turbo, EngineBackend::Turbo]);
        assert_eq!(mixed, all_cycle);
        assert_eq!(all_turbo, all_cycle);
    }

    #[test]
    fn shard_stats_track_dispatched_work_per_shard() {
        let a = accel(); // 2 beats/datapoint
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        assert!(pool
            .shard_stats()
            .iter()
            .all(|s| s.queued_beats == 0 && s.flushes_served == 0 && s.ii_samples == 0));
        pool.serve(&inputs(6)).expect("drains");
        let stats = pool.shard_stats();
        assert_eq!(stats.len(), 2);
        // Round-robin: 3 requests × 2 beats to each shard, one flush each.
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.shard, i);
            assert_eq!(s.queued_beats, 6, "{s:?}");
            assert_eq!(s.flushes_served, 1, "{s:?}");
            // 3 results per shard → 2 observed result-to-result gaps.
            assert_eq!(s.ii_samples, 2, "{s:?}");
            assert!(s.ii_cycles > 0, "{s:?}");
        }
    }

    #[test]
    fn shard_stats_attribute_consolidated_flushes_to_one_shard() {
        let a = accel();
        let mut pool = ShardPool::with_options(&a, ServeOptions::turbo(4)).expect("valid");
        pool.serve(&inputs(12)).expect("infallible");
        let stats = pool.shard_stats();
        // The whole flush consolidated onto shard 0: 12 × 2 beats there,
        // nothing anywhere else.
        assert_eq!(stats[0].queued_beats, 24);
        assert_eq!(stats[0].flushes_served, 1);
        for s in &stats[1..] {
            assert_eq!((s.queued_beats, s.flushes_served), (0, 0), "{s:?}");
        }
    }

    #[test]
    fn heterogeneous_replicated_design_matches_homogeneous_pool() {
        // Two specs replicating one design == the homogeneous 2-shard
        // pool, observation for observation.
        let a = accel();
        let xs = inputs(9);
        let mut homo = ShardPool::new(&a, 2).expect("valid");
        let homo_preds = homo.serve(&xs).expect("drains");
        let specs = vec![ShardSpec::new(a.clone()), ShardSpec::new(a.clone())];
        let mut hetero = ShardPool::heterogeneous(&specs, ServeOptions::new(2)).expect("valid");
        let hetero_preds = hetero.serve(&xs).expect("drains");
        assert_eq!(hetero_preds, homo_preds);
        assert_eq!(hetero.report(), homo.report());
    }

    /// Serializes panic-hook swaps across tests (the hook is process
    /// state) and silences the stderr spew from injected worker panics.
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let _guard = HOOK_LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match result {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    use crate::fault::FaultEvent;
    use crate::FaultKind;

    /// Serves one batch on a classic pool of some shape and on the same
    /// shape in resilient mode with [`FaultPlan::none`] (`pool(None)` /
    /// `pool(Some(plan))`): predictions, report and per-shard stats must
    /// agree observation for observation. Returns the predictions.
    fn assert_empty_plan_matches_classic<'a>(
        shape: &str,
        pool: impl Fn(Option<FaultPlan>) -> ShardPool<'a>,
    ) -> Vec<Prediction> {
        let xs = inputs(13);
        let mut classic = pool(None);
        let expected = classic.serve(&xs).expect("drains");
        let mut resilient = pool(Some(FaultPlan::none()));
        assert!(resilient.resilient(), "{shape}");
        assert_eq!(resilient.serve(&xs).expect("drains"), expected, "{shape}");
        assert_eq!(resilient.report(), classic.report(), "{shape}");
        assert_eq!(resilient.shard_stats(), classic.shard_stats(), "{shape}");
        assert!(resilient.health_log().is_empty(), "{shape}");
        assert_eq!(resilient.healthy_shards(), resilient.shards(), "{shape}");
        expected
    }

    #[test]
    fn empty_fault_plan_matches_the_classic_pool() {
        let a = accel();
        let homogeneous = |options: ServeOptions| {
            let a = &a;
            move |plan: Option<FaultPlan>| {
                let options = ServeOptions {
                    capture_class_sums: true,
                    ..options
                };
                match plan {
                    None => ShardPool::with_options(a, options),
                    Some(plan) => ShardPool::with_fault_plan(a, options, plan),
                }
                .expect("valid")
            }
        };
        let spread =
            assert_empty_plan_matches_classic("3-shard cycle", homogeneous(ServeOptions::new(3)));
        assert!(
            spread.iter().any(|p| p.shard != 0),
            "the cycle pool spreads"
        );
        let consolidated =
            assert_empty_plan_matches_classic("4-shard turbo", homogeneous(ServeOptions::turbo(4)));
        assert!(
            consolidated.iter().all(|p| p.shard == 0),
            "the turbo pool consolidates"
        );

        let wide = wide_accel();
        let mut specs = partitioned_specs(&wide, 2, 0);
        specs.extend(partitioned_specs(&wide, 2, 1));
        let options = ServeOptions {
            capture_class_sums: true,
            ..ServeOptions::new(4)
        };
        let partitioned = assert_empty_plan_matches_classic("two K = 2 groups", |plan| {
            match plan {
                None => ShardPool::heterogeneous(&specs, options),
                Some(plan) => ShardPool::heterogeneous_with_fault_plan(&specs, options, plan),
            }
            .expect("valid")
        });
        assert!(
            partitioned.iter().any(|p| p.shard == 0) && partitioned.iter().any(|p| p.shard == 2)
        );
    }

    /// [`accel`]'s boolean function compiled on a `bus`-bit bus: every
    /// window keeps the literals of its own feature range. A narrower
    /// bus streams more packets per datapoint — the same answers at a
    /// proportionally higher II.
    fn accel_on_bus(bus: usize) -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: bus,
            features: 8,
            classes: 2,
            clauses_per_class: 2,
        };
        let clauses: [&[usize]; 4] = [&[0], &[1], &[2, 4], &[3]];
        let windows: Vec<Vec<Cube>> = (0..8 / bus)
            .map(|w| {
                clauses
                    .iter()
                    .map(|features| {
                        Cube::from_lits(
                            features
                                .iter()
                                .filter(|&&f| f / bus == w)
                                .map(|&f| Lit::pos((f % bus) as u32)),
                        )
                    })
                    .collect()
            })
            .collect();
        CompiledAccelerator::from_window_cubes(shape, &windows, Sharing::Enabled)
    }

    #[test]
    fn ii_outlier_degrades_a_shard_far_slower_than_the_pool() {
        // One model on an 8-bit bus (1 packet, II 1) and a 1-bit bus (8
        // packets, II 8) behind a fault-free resilient pool.
        let specs = vec![
            ShardSpec::new(accel_on_bus(8)),
            ShardSpec::new(accel_on_bus(1)),
        ];
        let mut pool = ShardPool::heterogeneous_with_fault_plan(
            &specs,
            ServeOptions::new(1),
            FaultPlan::none(),
        )
        .expect("valid");
        // Round-robin over three requests: the wide shard observes one
        // gap of II 1, the narrow shard none yet.
        pool.serve(&inputs(3)).expect("drains");
        assert!(pool.health_log().is_empty());
        assert_eq!(pool.modeled_ii_cycles(), 1);
        // Now the narrow shard streams two requests back to back: its II
        // of 8 exceeds II_OUTLIER_FACTOR × the modeled II of 1.
        let preds = pool.serve(&inputs(4)).expect("a soft fault loses nothing");
        assert_eq!(preds.len(), 4);
        assert_eq!(pool.shard_stats()[1].ii_cycles, 8);
        let log = pool.health_log();
        assert_eq!(log.len(), 1, "{log:?}");
        assert_eq!(
            (log[0].shard, log[0].from, log[0].to, log[0].cause),
            (1, ShardHealth::Healthy, ShardHealth::Degraded, "ii_outlier")
        );
    }

    #[test]
    fn injected_panic_redirects_work_and_quarantines_the_shard() {
        with_quiet_panics(|| {
            let a = accel();
            let xs = inputs(8);
            let expected: Vec<usize> = xs
                .iter()
                .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
                .collect();
            let plan = FaultPlan::from_events(vec![FaultEvent {
                shard: 0,
                at_request: 0,
                kind: FaultKind::Panic,
            }]);
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
            let preds = pool.serve(&xs).expect("the survivor absorbs the slice");
            // Zero drops, correct winners, and nothing served by the
            // shard that died before accepting its slice.
            assert_eq!(preds.len(), xs.len());
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            assert_eq!(winners, expected);
            assert!(preds.iter().all(|p| p.shard == 1));
            assert_eq!(pool.shard_health(0), ShardHealth::Quarantined);
            assert_eq!(pool.shard_health(1), ShardHealth::Healthy);
            let log = pool.health_log();
            assert_eq!(log.len(), 1);
            assert_eq!(
                (log[0].shard, log[0].from, log[0].to, log[0].cause),
                (0, ShardHealth::Healthy, ShardHealth::Quarantined, "panic")
            );
        });
    }

    #[test]
    fn corrupted_results_are_discarded_and_recomputed() {
        let a = accel();
        let xs = inputs(10);
        let expected: Vec<usize> = xs
            .iter()
            .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
            .collect();
        let plan = FaultPlan::from_events(vec![FaultEvent {
            shard: 1,
            at_request: 0,
            kind: FaultKind::CorruptSum,
        }]);
        let mut pool = ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
        let preds = pool.serve(&xs).expect("redirected");
        let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
        // The corrupted slice was thrown away whole — every served
        // winner came from a clean run, so they all match the reference.
        assert_eq!(winners, expected);
        assert!(preds.iter().all(|p| p.shard == 0));
        assert_eq!(pool.shard_health(1), ShardHealth::Quarantined);
    }

    #[test]
    fn soft_faults_degrade_without_losing_work() {
        let a = accel();
        let xs = inputs(6);
        let plan = FaultPlan::from_events(vec![FaultEvent {
            shard: 0,
            at_request: 0,
            kind: FaultKind::Stall { cycles: 500 },
        }]);
        let mut pool = ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
        let preds = pool.serve(&xs).expect("stalls only delay");
        assert_eq!(preds.len(), xs.len());
        // The stalled shard still served its slice — degraded, not
        // quarantined — and one clean flush heals it.
        assert!(preds.iter().any(|p| p.shard == 0));
        assert_eq!(pool.shard_health(0), ShardHealth::Degraded);
        pool.serve(&inputs(4)).expect("clean flush");
        assert_eq!(pool.shard_health(0), ShardHealth::Healthy);
    }

    #[test]
    fn killing_the_only_shard_is_a_typed_quarantine_error() {
        with_quiet_panics(|| {
            let a = accel();
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(1), FaultPlan::kill_shard(0, 0))
                    .expect("valid");
            let err = pool.serve(&inputs(4)).unwrap_err();
            assert_eq!(err, ServeError::ShardQuarantined { shard: 0 });
        });
    }

    #[test]
    fn killing_every_shard_leaves_no_healthy_capacity() {
        with_quiet_panics(|| {
            let a = accel();
            let plan = FaultPlan::kill_shard(0, 0).merged(&FaultPlan::kill_shard(1, 0));
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
            let err = pool.serve(&inputs(6)).unwrap_err();
            assert_eq!(err, ServeError::NoHealthyShard { width: 8 });
            assert_eq!(pool.healthy_shards(), 0);
        });
    }

    #[test]
    fn killed_shard_mid_trace_loses_no_requests() {
        with_quiet_panics(|| {
            let a = accel();
            let xs = inputs(32);
            let mut reference = ShardPool::new(&a, 4).expect("valid");
            let expected: Vec<usize> = reference
                .serve(&xs)
                .expect("drains")
                .iter()
                .map(|p| p.winner)
                .collect();
            // Shard 1 dies once it has attempted 4 requests — mid-trace,
            // with work already served and more still to come.
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(4), FaultPlan::kill_shard(1, 4))
                    .expect("valid");
            let mut winners = Vec::new();
            for window in xs.chunks(8) {
                winners.extend(
                    pool.serve(window)
                        .expect("survivors absorb")
                        .iter()
                        .map(|p| p.winner),
                );
            }
            assert_eq!(winners, expected);
            assert_eq!(pool.shard_health(1), ShardHealth::Quarantined);
            assert_eq!(pool.healthy_shards(), 3);
        });
    }

    #[test]
    fn quarantined_shard_recovers_through_a_half_open_probe() {
        with_quiet_panics(|| {
            let a = accel();
            let plan = FaultPlan::from_events(vec![FaultEvent {
                shard: 0,
                at_request: 0,
                kind: FaultKind::Panic,
            }]);
            let mut pool =
                ShardPool::with_fault_plan(&a, ServeOptions::new(2), plan).expect("valid");
            pool.serve(&inputs(4)).expect("redirected");
            assert_eq!(pool.shard_health(0), ShardHealth::Quarantined);
            // Cooldown counts flushes, not requests: after
            // PROBE_COOLDOWN_FLUSHES the breaker half-opens and a clean
            // probe slice closes it.
            for _ in 0..crate::PROBE_COOLDOWN_FLUSHES {
                pool.serve(&inputs(4)).expect("drains");
            }
            assert_eq!(pool.shard_health(0), ShardHealth::Healthy);
            let preds = pool.serve(&inputs(4)).expect("drains");
            assert!(
                preds.iter().any(|p| p.shard == 0),
                "recovered shard rejoins"
            );
            let states: Vec<(ShardHealth, ShardHealth)> = pool
                .health_log()
                .iter()
                .filter(|t| t.shard == 0)
                .map(|t| (t.from, t.to))
                .collect();
            assert_eq!(
                states,
                vec![
                    (ShardHealth::Healthy, ShardHealth::Quarantined),
                    (ShardHealth::Quarantined, ShardHealth::Probing),
                    (ShardHealth::Probing, ShardHealth::Healthy),
                ]
            );
        });
    }

    #[test]
    fn operator_quarantine_brownouts_admission() {
        let a = accel();
        let mut pool = ShardPool::new(&a, 2).expect("valid");
        assert!(!pool.resilient());
        pool.quarantine_shard(1);
        assert!(pool.resilient());
        assert_eq!(pool.healthy_shards(), 1);
        assert!(pool.check_healthy(8).is_ok());
        pool.quarantine_shard(0);
        assert_eq!(
            pool.check_healthy(8).unwrap_err(),
            ServeError::NoHealthyShard { width: 8 }
        );
    }

    #[test]
    fn chaos_replay_is_bit_identical() {
        with_quiet_panics(|| {
            let a = accel();
            let xs = inputs(48);
            let run = |threads: usize| {
                let plan = FaultPlan::seeded(7, 2, 24, 2);
                let mut options = ServeOptions::new(2);
                options.threads = Some(threads);
                let mut pool = ShardPool::with_fault_plan(&a, options, plan).expect("valid");
                let mut preds = Vec::new();
                for window in xs.chunks(8) {
                    preds.extend(pool.serve(window).expect("survivors absorb"));
                }
                (preds, pool.health_log().to_vec())
            };
            let (preds_a, log_a) = run(1);
            let (preds_b, log_b) = run(8);
            assert_eq!(preds_a, preds_b);
            assert_eq!(log_a, log_b);
            assert!(!log_a.is_empty(), "a seeded plan injects something");
        });
    }

    #[test]
    fn fault_seed_option_arms_the_injector() {
        let a = accel();
        let mut options = ServeOptions::new(2);
        options.fault_seed = Some(11);
        let pool = ShardPool::with_options(&a, options).expect("valid");
        assert!(pool.resilient());
    }

    /// A partitionable twin of [`accel`]: the same 8-feature, 2-packet
    /// geometry with four clauses per class, so the compile pipeline can
    /// cut it into two clause-range parts.
    fn wide_accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 8,
            classes: 2,
            clauses_per_class: 4,
        };
        let w0 = vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(2)]),
            Cube::from_lits([Lit::pos(3)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::from_lits([Lit::pos(1)]),
        ];
        let w1 = vec![
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
            Cube::one(),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(3)]),
        ];
        CompiledAccelerator::from_window_cubes(shape, &[w0, w1], Sharing::Enabled)
    }

    fn partitioned_specs(a: &CompiledAccelerator, k: usize, group: u32) -> Vec<ShardSpec> {
        use matador_sim::{CompileOptions, CompilePipeline};
        let plan = CompilePipeline::new(CompileOptions::default().with_partitions(k)).partition(a);
        ShardSpec::partitioned(plan, group)
    }

    #[test]
    fn partitioned_group_is_bit_identical_to_monolithic() {
        let a = wide_accel();
        let xs = inputs(9);
        let mono_specs = vec![ShardSpec::new(a.clone())];
        let mut options = ServeOptions::new(1);
        options.capture_class_sums = true;
        let mut mono = ShardPool::heterogeneous(&mono_specs, options).expect("valid");
        let expected = mono.serve(&xs).expect("drains");

        let specs = partitioned_specs(&a, 2, 0);
        assert_eq!(specs.len(), 2, "cpc 4 splits into two parts");
        let mut options = ServeOptions::new(2);
        options.capture_class_sums = true;
        let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
        assert_eq!(pool.units(), &[vec![0, 1]]);
        let preds = pool.serve(&xs).expect("drains");
        // Observation-for-observation identical: winners, merged class
        // sums, latency and completion stamps, and the lead member as
        // the shard attribution (the monolithic pool's only shard is 0,
        // which is also the group's lead).
        assert_eq!(preds, expected);
    }

    #[test]
    fn partition_group_coexists_with_standalone_shards() {
        let a = wide_accel();
        let six = six_feature_accel();
        let mut specs = partitioned_specs(&a, 2, 0);
        specs.push(ShardSpec::new(six.clone()));
        let mut pool = ShardPool::heterogeneous(&specs, ServeOptions::new(3)).expect("valid");
        assert_eq!(pool.units(), &[vec![0, 1], vec![2]]);
        let wide = inputs(4);
        let narrow: Vec<BitVec> = (0..3)
            .map(|i| {
                if i % 2 == 0 {
                    BitVec::from_indices(6, &[0])
                } else {
                    BitVec::zeros(6)
                }
            })
            .collect();
        for x in wide.iter().chain(&narrow) {
            pool.submit(x).expect("admitted");
        }
        let preds = pool.flush().expect("drains");
        assert_eq!(preds.len(), 7);
        // Width routes each request: 8-feature inputs to the group
        // (attributed to its lead), 6-feature inputs to the standalone
        // shard — winners matching each design's own reference.
        for (p, x) in preds[..4].iter().zip(&wide) {
            assert_eq!(p.shard, 0);
            assert_eq!(p.winner, tsetlin::tm::argmax(&a.reference_class_sums(x)));
        }
        for (p, x) in preds[4..].iter().zip(&narrow) {
            assert_eq!(p.shard, 2);
            assert_eq!(p.winner, tsetlin::tm::argmax(&six.reference_class_sums(x)));
        }
    }

    #[test]
    fn grouped_flush_spread_counts_units_not_shards() {
        let a = wide_accel();
        let mut specs = partitioned_specs(&a, 2, 0);
        specs.extend(partitioned_specs(&a, 2, 1));
        let pool = ShardPool::heterogeneous(&specs, ServeOptions::new(4)).expect("valid");
        assert_eq!(pool.shards(), 4);
        assert_eq!(pool.units().len(), 2);
        assert_eq!(pool.flush_spread(16), 2);
    }

    #[test]
    fn partitioned_member_panic_redirects_to_the_sibling_group() {
        with_quiet_panics(|| {
            let a = wide_accel();
            let xs = inputs(6);
            let expected: Vec<usize> = xs
                .iter()
                .map(|x| tsetlin::tm::argmax(&a.reference_class_sums(x)))
                .collect();
            // Two replica groups of the same partitioned design; one
            // member of group 0 panics on its first slice.
            let mut specs = partitioned_specs(&a, 2, 0);
            specs.extend(partitioned_specs(&a, 2, 1));
            let plan = FaultPlan::from_events(vec![FaultEvent {
                shard: 1,
                at_request: 0,
                kind: FaultKind::Panic,
            }]);
            let mut pool =
                ShardPool::heterogeneous_with_fault_plan(&specs, ServeOptions::new(4), plan)
                    .expect("valid");
            let preds = pool.serve(&xs).expect("a sibling unit absorbs the slice");
            // Zero drops, correct winners: the failed unit's whole slice
            // was discarded (a lone partial sum is meaningless) and
            // re-served by a full unit.
            assert_eq!(preds.len(), xs.len());
            let winners: Vec<usize> = preds.iter().map(|p| p.winner).collect();
            assert_eq!(winners, expected);
            assert!(!pool.health_log().is_empty(), "the panic was observed");
        });
    }

    #[test]
    fn partitioned_group_with_no_sibling_fails_typed_when_a_member_dies() {
        with_quiet_panics(|| {
            let a = wide_accel();
            let specs = partitioned_specs(&a, 2, 0);
            let plan = FaultPlan::kill_shard(1, 0);
            let mut pool =
                ShardPool::heterogeneous_with_fault_plan(&specs, ServeOptions::new(2), plan)
                    .expect("valid");
            // The only unit serving width 8 has a permanently dead
            // member: the flush must fail typed, never spin.
            let err = pool.serve(&inputs(4)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ServeError::ShardQuarantined { shard: 1 }
                        | ServeError::NoHealthyShard { width: 8 }
                ),
                "got {err:?}"
            );
        });
    }

    #[test]
    fn partitioned_serving_is_thread_count_invariant() {
        let a = wide_accel();
        let xs = inputs(13);
        let run = |threads: usize| {
            let specs = partitioned_specs(&a, 2, 0);
            let mut options = ServeOptions::new(2);
            options.capture_class_sums = true;
            options.threads = Some(threads);
            let mut pool = ShardPool::heterogeneous(&specs, options).expect("valid");
            pool.serve(&xs).expect("drains")
        };
        assert_eq!(run(1), run(8));
    }
}
