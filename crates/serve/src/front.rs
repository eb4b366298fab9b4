//! Open-submission serving front-end: deadline-aware dynamic batching
//! over a [`ShardPool`].
//!
//! [`ShardPool`] is a batch engine: callers assemble a batch, flush it,
//! and read predictions back. A deployed service does not see batches —
//! it sees a stream of independent `submit(request, deadline, tenant)`
//! calls — so [`Front`] closes that gap with a coalescer that forms
//! batches *dynamically*, flushing when any of three triggers fires:
//!
//! - **Lane-block fill**: the pending set reaches one lane block
//!   (default [`matador_sim::LANES`] = 64 requests) — a full word of the
//!   bit-sliced datapath, the point of diminishing batching returns.
//! - **Deadline pressure**: the tightest pending deadline's slack falls
//!   below the pool's modeled drain time (derived from the engines'
//!   observed initiation intervals via [`ShardPool::modeled_ii_cycles`]),
//!   so waiting any longer would start missing SLOs.
//! - **Idle tick**: no new submission has arrived for a configurable
//!   quiet window, so there is nothing to gain by holding the batch open.
//!
//! Admission is multi-tenant: each tenant carries a token-bucket quota
//! (integer millitokens, so refill arithmetic is exact and replayable)
//! and rejected submissions fail with typed errors —
//! [`ServeError::QuotaExceeded`] names the tenant and a retry horizon,
//! [`ServeError::DeadlineUnmeetable`] rejects deadlines tighter than the
//! pool's latency floor at admission time instead of accepting a
//! guaranteed miss. Batch formation drains per-tenant FIFOs by
//! deficit-round-robin, so a bursty tenant cannot starve a quiet one.
//!
//! Over a resilient pool (see the [`crate::fault`] and [`crate::health`]
//! modules) the front browns out instead of lying: admission rejects
//! widths with no healthy shard left
//! ([`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`]),
//! drain estimates recompute from surviving capacity (quarantined
//! shards drop out of [`ShardPool::flush_spread`] and the modeled II),
//! and — opt-in via [`FrontOptions::shed_on_brownout`] — a flush sheds
//! requests whose deadlines shrank out of reach rather than running
//! them into a guaranteed miss ([`ShedNotice`], [`Front::take_shed`]).
//! [`Front::drain`] is watchdogged: a pass that stops reducing the
//! pending set surfaces [`ServeError::Stalled`] instead of hanging.
//!
//! Shards complete out of submission order (a lightly loaded shard
//! finishes its slice first), so a reorder stage re-sequences
//! completions into **in-order per-tenant delivery**: replies for a
//! tenant are released strictly by submission sequence, each stamped
//! with the virtual cycle at which it could actually be handed back
//! (its own completion, or the completion of the earlier request that
//! was still holding it).
//!
//! ## Virtual time
//!
//! The front runs on a *virtual* cycle clock, not the wall clock: the
//! driver advances it explicitly ([`Front::advance_to`]) and every
//! trigger, quota refill and delivery stamp is a pure function of the
//! submitted trace. That keeps the workspace determinism contract
//! intact — the same seeded trace replays bit-identically at any
//! `MATADOR_THREADS` and shard count. Timer scheduling rides on
//! [`matador_par::reactor::TimerWheel`] with lazy cancellation: stale
//! timers are re-checked against current state when they expire, never
//! descheduled.
//!
//! ## Observability
//!
//! Every front records into [`matador_obs::Registry::global`]:
//! admissions and rejections by outcome, the batch-trigger mix, batch
//! sizes, per-request slack at flush, delivery latency, deadline misses,
//! and per-tenant queue depth/DRR deficit gauges (see the README metric
//! table). Each request also carries a [`matador_obs::TraceId`] through
//! submit → admit → batch → shard → reorder → deliver into a bounded
//! [`matador_obs::FlightRecorder`] ([`Front::flight_recorder`]), dumped
//! to stderr when a flush fails with a typed engine error. Metrics are
//! pure sinks — nothing here reads them back — so instrumentation
//! cannot perturb the replay contract.
//!
//! ```
//! use matador_logic::cube::{Cube, Lit};
//! use matador_logic::dag::Sharing;
//! use matador_serve::{Front, FrontOptions, ServeOptions, ShardPool};
//! use matador_sim::{AccelShape, CompiledAccelerator};
//! use tsetlin::bits::BitVec;
//!
//! let shape = AccelShape { bus_width: 4, features: 4, classes: 2, clauses_per_class: 2 };
//! let cubes = vec![vec![
//!     Cube::from_lits([Lit::pos(0)]),
//!     Cube::one(),
//!     Cube::from_lits([Lit::pos(1)]),
//!     Cube::one(),
//! ]];
//! let accel = CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled);
//! let pool = ShardPool::with_options(&accel, ServeOptions::turbo(2)).expect("valid options");
//!
//! let mut front = Front::new(pool, FrontOptions::new()).expect("valid options");
//! let input = BitVec::from_indices(4, &[0]);
//! for _ in 0..3 {
//!     front.submit(&input, 10_000, 0).expect("admitted");
//! }
//! front.drain().expect("engines drain");
//! let replies = front.take_replies();
//! assert_eq!(replies.len(), 3);
//! assert!(replies.iter().all(|r| r.winner == 0 && r.met_deadline()));
//! ```

use crate::error::ServeError;
use crate::pool::ShardPool;
use crate::report::ThroughputReport;
use matador_obs::{Counter, FlightRecorder, Gauge, Histogram, Registry, TraceId};
use matador_par::reactor::TimerWheel;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use tsetlin::bits::BitVec;

/// Millitokens one request costs against a tenant's bucket. Quotas are
/// kept in integer millitokens so sub-request-per-cycle refill rates
/// stay exact — no floating point in the admission path.
pub const MILLITOKENS_PER_REQUEST: u64 = 1_000;

/// Timer token: idle-tick flush check.
const TOKEN_IDLE: u64 = 0;
/// Timer token: deadline-pressure flush check.
const TOKEN_DEADLINE: u64 = 1;

/// Per-tenant rate limit: a token bucket in requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Bucket capacity in requests: the burst a tenant may submit
    /// back-to-back. Zero admits nothing.
    pub burst_requests: u64,
    /// Refill rate in millitokens per virtual cycle
    /// ([`MILLITOKENS_PER_REQUEST`] = one request). Zero means the
    /// burst is all the tenant ever gets.
    pub millitokens_per_cycle: u64,
}

/// Token bucket in integer millitokens; refill is exact and replayable.
#[derive(Debug, Clone)]
struct TokenBucket {
    capacity: u64,
    level: u64,
    rate: u64,
    last_refill: u64,
}

impl TokenBucket {
    fn new(quota: TenantQuota, now: u64) -> Self {
        let capacity = quota.burst_requests.saturating_mul(MILLITOKENS_PER_REQUEST);
        TokenBucket {
            capacity,
            level: capacity,
            rate: quota.millitokens_per_cycle,
            last_refill: now,
        }
    }

    /// Takes one request's worth of tokens, or reports how many cycles
    /// until the bucket will have refilled enough (`u64::MAX` when the
    /// rate is zero).
    fn try_take(&mut self, now: u64) -> Result<(), u64> {
        let elapsed = now.saturating_sub(self.last_refill);
        self.level = self
            .level
            .saturating_add(elapsed.saturating_mul(self.rate))
            .min(self.capacity);
        self.last_refill = now;
        if self.level >= MILLITOKENS_PER_REQUEST {
            self.level -= MILLITOKENS_PER_REQUEST;
            Ok(())
        } else if self.rate == 0 {
            Err(u64::MAX)
        } else {
            Err((MILLITOKENS_PER_REQUEST - self.level).div_ceil(self.rate))
        }
    }
}

/// What fired a flush — recorded per batch so a replayed trace can
/// assert batch boundaries, not just final predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// The pending set reached one lane block.
    LaneBlockFull,
    /// The tightest pending deadline's slack fell below the modeled
    /// drain time.
    DeadlinePressure,
    /// No submission arrived for the idle window.
    IdleTick,
    /// An explicit [`Front::drain`] at shutdown.
    Drain,
}

impl FlushTrigger {
    /// Stable label for metrics and flight-recorder lines.
    pub fn as_label(&self) -> &'static str {
        match self {
            FlushTrigger::LaneBlockFull => "lane_block_full",
            FlushTrigger::DeadlinePressure => "deadline_pressure",
            FlushTrigger::IdleTick => "idle_tick",
            FlushTrigger::Drain => "drain",
        }
    }
}

/// Stable `reason` label for an admission rejection.
fn rejection_reason(error: &ServeError) -> &'static str {
    match error {
        ServeError::QuotaExceeded { .. } => "quota_exceeded",
        ServeError::DeadlineUnmeetable { .. } => "deadline_unmeetable",
        ServeError::QueueFull { .. } => "queue_full",
        ServeError::WidthMismatch { .. } | ServeError::NoCompatibleShard { .. } => "width_mismatch",
        ServeError::ShardQuarantined { .. } | ServeError::NoHealthyShard { .. } => {
            "no_healthy_shard"
        }
        _ => "other",
    }
}

/// Registry handles the front records through, resolved once at
/// construction so the submit/flush paths never touch the registry
/// lock. Counters/histograms are process-wide series shared by every
/// front in the process (they accumulate, Prometheus-style).
#[derive(Debug, Clone)]
struct FrontMetrics {
    admitted: Arc<Counter>,
    rejected_quota: Arc<Counter>,
    rejected_deadline: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_width: Arc<Counter>,
    rejected_unhealthy: Arc<Counter>,
    rejected_other: Arc<Counter>,
    batches_lane_block: Arc<Counter>,
    batches_deadline: Arc<Counter>,
    batches_idle: Arc<Counter>,
    batches_drain: Arc<Counter>,
    batch_size: Arc<Histogram>,
    slack_at_flush: Arc<Histogram>,
    delivery_latency: Arc<Histogram>,
    deadline_misses: Arc<Counter>,
    shed: Arc<Counter>,
    pending: Arc<Gauge>,
}

impl FrontMetrics {
    fn resolve() -> Self {
        let r = Registry::global();
        let rejected = |reason: &str| {
            r.counter(
                "matador_front_rejected_total",
                &format!("reason=\"{reason}\""),
                "Submissions rejected at admission, by outcome.",
            )
        };
        let batches = |trigger: &str| {
            r.counter(
                "matador_front_batches_total",
                &format!("trigger=\"{trigger}\""),
                "Batches flushed, by trigger.",
            )
        };
        FrontMetrics {
            admitted: r.counter(
                "matador_front_admitted_total",
                "",
                "Submissions admitted into a tenant queue.",
            ),
            rejected_quota: rejected("quota_exceeded"),
            rejected_deadline: rejected("deadline_unmeetable"),
            rejected_queue_full: rejected("queue_full"),
            rejected_width: rejected("width_mismatch"),
            rejected_unhealthy: rejected("no_healthy_shard"),
            rejected_other: rejected("other"),
            batches_lane_block: batches("lane_block_full"),
            batches_deadline: batches("deadline_pressure"),
            batches_idle: batches("idle_tick"),
            batches_drain: batches("drain"),
            batch_size: r.histogram(
                "matador_front_batch_size",
                "",
                "Requests per flushed batch.",
            ),
            slack_at_flush: r.histogram(
                "matador_front_slack_at_flush_cycles",
                "",
                "Deadline slack remaining when a request was flushed.",
            ),
            delivery_latency: r.histogram(
                "matador_front_delivery_latency_cycles",
                "",
                "Admission-to-delivery latency per reply.",
            ),
            deadline_misses: r.counter(
                "matador_front_deadline_misses_total",
                "",
                "Replies delivered after their deadline.",
            ),
            shed: r.counter(
                "matador_front_shed_total",
                "",
                "Admitted requests shed by brownout load shedding.",
            ),
            pending: r.gauge(
                "matador_front_pending_requests",
                "",
                "Requests admitted but not yet flushed.",
            ),
        }
    }

    fn rejected(&self, error: &ServeError) -> &Counter {
        match rejection_reason(error) {
            "quota_exceeded" => &self.rejected_quota,
            "deadline_unmeetable" => &self.rejected_deadline,
            "queue_full" => &self.rejected_queue_full,
            "width_mismatch" => &self.rejected_width,
            "no_healthy_shard" => &self.rejected_unhealthy,
            _ => &self.rejected_other,
        }
    }

    fn batches(&self, trigger: FlushTrigger) -> &Counter {
        match trigger {
            FlushTrigger::LaneBlockFull => &self.batches_lane_block,
            FlushTrigger::DeadlinePressure => &self.batches_deadline,
            FlushTrigger::IdleTick => &self.batches_idle,
            FlushTrigger::Drain => &self.batches_drain,
        }
    }
}

/// One dynamically formed batch: when it flushed, why, and how big it
/// was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Virtual cycle at which the batch flushed.
    pub at: u64,
    /// Which trigger fired.
    pub trigger: FlushTrigger,
    /// Requests in the batch (≤ the lane block).
    pub size: usize,
}

/// A delivered reply: the prediction plus the serving timeline the
/// front-end observed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The submitting tenant.
    pub tenant: u32,
    /// Per-tenant submission sequence number (delivery is strictly
    /// in-order per tenant).
    pub seq: u64,
    /// Pool-level request id, for cross-referencing pool diagnostics.
    pub request: u64,
    /// Predicted class index.
    pub winner: usize,
    /// Per-class sums, when the pool captures them.
    pub class_sums: Option<Vec<i32>>,
    /// Shard that executed the request.
    pub shard: usize,
    /// Virtual cycle the request was admitted.
    pub submitted_at: u64,
    /// The absolute deadline the caller asked for.
    pub deadline: u64,
    /// Virtual cycle the reply was released to the caller: its own
    /// completion, or the completion of the earlier same-tenant request
    /// that was still holding it in the reorder stage.
    pub delivered_at: u64,
}

impl Reply {
    /// End-to-end latency as the caller saw it: admission → delivery,
    /// including queueing, batching and reorder wait. A duration on the
    /// same clock as the pool's service-only latency samples (see the
    /// time-base notes on [`crate::report`]).
    pub fn latency_cycles(&self) -> u64 {
        self.delivered_at - self.submitted_at
    }

    /// Whether delivery beat the deadline.
    pub fn met_deadline(&self) -> bool {
        self.delivered_at <= self.deadline
    }
}

/// One request dropped by brownout load shedding
/// ([`FrontOptions::shed_on_brownout`]): at flush time its deadline was
/// already inside the pool's healthy-capacity latency floor, so holding
/// it could only produce a guaranteed deadline miss. Collected via
/// [`Front::take_shed`] — a shed is an explicit, typed outcome the
/// driver reports back to the caller, never a silent timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedNotice {
    /// The submitting tenant.
    pub tenant: u32,
    /// Per-tenant submission sequence number (the reorder stage skips
    /// it, so later replies for the tenant still deliver in order).
    pub seq: u64,
    /// The absolute deadline that became unmeetable.
    pub deadline: u64,
    /// Virtual cycle the request was shed.
    pub shed_at: u64,
}

impl ShedNotice {
    /// The typed error a driver relays to the shed request's caller.
    pub fn as_error(&self) -> ServeError {
        ServeError::Shed {
            tenant: self.tenant,
            seq: self.seq,
        }
    }
}

/// Tuning knobs for the front-end coalescer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontOptions {
    /// Batch-fill flush threshold in requests. Defaults to
    /// [`matador_sim::LANES`]: one word of the bit-sliced datapath.
    /// Must be positive and no larger than the pool's queue depth.
    pub lane_block: usize,
    /// Quiet window after the last submission before an idle flush, in
    /// virtual cycles. Zero disables the idle trigger.
    pub idle_cycles: u64,
    /// Hard bound on requests buffered across all tenants; admission
    /// beyond it is [`ServeError::QueueFull`].
    pub max_pending: usize,
    /// Deficit-round-robin quantum in requests per tenant per round.
    pub drr_quantum: u64,
    /// Per-tenant rate limit applied to every tenant; `None` admits
    /// without quota.
    pub quota: Option<TenantQuota>,
    /// Request lifecycles retained by the flight recorder
    /// ([`Front::flight_recorder`]); zero rounds up to one.
    pub flight_capacity: usize,
    /// Brownout load shedding: when `true`, a flush sheds queued
    /// requests whose deadlines are already inside the pool's (health-
    /// aware) latency floor instead of running them into a guaranteed
    /// miss. Sheds surface as [`ShedNotice`]s via [`Front::take_shed`].
    /// Default `false`: browned-out pools run everything and report
    /// misses honestly.
    pub shed_on_brownout: bool,
}

impl FrontOptions {
    /// Defaults: lane-block 64, idle window 4096 cycles, 1024 pending,
    /// quantum 1, no quota, 256 flight-recorder slots.
    pub fn new() -> Self {
        FrontOptions {
            lane_block: matador_sim::LANES,
            idle_cycles: 4_096,
            max_pending: 1_024,
            drr_quantum: 1,
            quota: None,
            flight_capacity: matador_obs::DEFAULT_FLIGHT_CAPACITY,
            shed_on_brownout: false,
        }
    }
}

impl Default for FrontOptions {
    fn default() -> Self {
        FrontOptions::new()
    }
}

/// One admitted-but-not-yet-flushed request in a tenant's FIFO.
#[derive(Debug, Clone)]
struct Admitted {
    seq: u64,
    input: BitVec,
    deadline: u64,
    submitted_at: u64,
    /// Flight-recorder span carried through batch → shard → delivery.
    trace: TraceId,
}

/// A pool prediction lifted onto the front's virtual clock, ordered by
/// `(at, shard, request)` before it enters the reorder stage.
struct Completion {
    at: u64,
    shard: usize,
    request: u64,
    winner: usize,
    class_sums: Option<Vec<i32>>,
}

/// A completed prediction parked in the reorder stage until every
/// earlier same-tenant sequence number has been delivered.
#[derive(Debug, Clone)]
struct Parked {
    reply: Reply,
    completed_at: u64,
    trace: TraceId,
}

/// Per-tenant serving state: FIFO of admitted requests, DRR deficit,
/// quota bucket, and the reorder stage's delivery cursor.
#[derive(Debug, Clone)]
struct Tenant {
    queue: VecDeque<Admitted>,
    bucket: Option<TokenBucket>,
    deficit: u64,
    next_seq: u64,
    next_deliver_seq: u64,
    parked: BTreeMap<u64, Parked>,
    /// Sequence numbers dropped by brownout shedding; the delivery
    /// cursor skips them so later replies are not held hostage by a
    /// request that will never complete.
    shed_seqs: BTreeSet<u64>,
    /// Published queue depth / DRR deficit, labelled by tenant id.
    depth_gauge: Arc<Gauge>,
    deficit_gauge: Arc<Gauge>,
}

impl Tenant {
    fn new(id: u32, quota: Option<TenantQuota>, now: u64) -> Self {
        let labels = format!("tenant=\"{id}\"");
        Tenant {
            queue: VecDeque::new(),
            bucket: quota.map(|q| TokenBucket::new(q, now)),
            deficit: 0,
            next_seq: 0,
            next_deliver_seq: 0,
            parked: BTreeMap::new(),
            shed_seqs: BTreeSet::new(),
            depth_gauge: Registry::global().gauge(
                "matador_front_tenant_queue_depth",
                &labels,
                "Admitted-but-unflushed requests per tenant.",
            ),
            deficit_gauge: Registry::global().gauge(
                "matador_front_tenant_deficit",
                &labels,
                "Deficit-round-robin credit per tenant.",
            ),
        }
    }

    fn publish_gauges(&self) {
        self.depth_gauge.set(self.queue.len() as i64);
        self.deficit_gauge.set(self.deficit as i64);
    }
}

/// The open-submission front-end: owns a [`ShardPool`] and turns a
/// stream of per-request submissions into deadline-aware dynamic
/// batches. See the module docs for the full model.
#[derive(Debug)]
pub struct Front<'a> {
    pool: ShardPool<'a>,
    options: FrontOptions,
    /// The virtual clock. Monotonic; advanced by the driver.
    now: u64,
    /// Per-shard virtual cycle at which the shard's previously assigned
    /// work completes. `max(now, busy_until)` is when a new flush's
    /// slice starts executing on that shard.
    busy_until: Vec<u64>,
    tenants: BTreeMap<u32, Tenant>,
    pending_total: usize,
    timers: TimerWheel,
    last_activity: u64,
    delivered: Vec<Reply>,
    shed: Vec<ShedNotice>,
    batches: Vec<BatchRecord>,
    /// Admission → delivery durations, one per delivered reply.
    latencies: Vec<u64>,
    accepted: u64,
    rejected: u64,
    metrics: FrontMetrics,
    flight: FlightRecorder,
}

impl<'a> Front<'a> {
    /// Wraps `pool` behind the coalescer.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroQueueDepth`] when `lane_block` is zero
    /// and [`ServeError::QueueFull`] (naming the pool's depth) when
    /// `lane_block` exceeds the pool's queue capacity — a full lane
    /// block must be admissible in one flush.
    pub fn new(pool: ShardPool<'a>, options: FrontOptions) -> Result<Self, ServeError> {
        if options.lane_block == 0 || options.max_pending == 0 || options.drr_quantum == 0 {
            return Err(ServeError::ZeroQueueDepth);
        }
        if options.lane_block > pool.queue().capacity() {
            return Err(ServeError::QueueFull {
                capacity: pool.queue().capacity(),
            });
        }
        let busy_until = vec![0; pool.shards()];
        Ok(Front {
            pool,
            options,
            now: 0,
            busy_until,
            tenants: BTreeMap::new(),
            pending_total: 0,
            timers: TimerWheel::new(),
            last_activity: 0,
            delivered: Vec::new(),
            shed: Vec::new(),
            batches: Vec::new(),
            latencies: Vec::new(),
            accepted: 0,
            rejected: 0,
            metrics: FrontMetrics::resolve(),
            flight: FlightRecorder::new(options.flight_capacity),
        })
    }

    /// The virtual clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests admitted but not yet flushed, across all tenants.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Submissions admitted over the front's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Submissions rejected (quota, deadline, backpressure, width).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Every batch flushed so far: boundary, trigger and size.
    pub fn batches(&self) -> &[BatchRecord] {
        &self.batches
    }

    /// The wrapped pool (read-only: diagnostics and drain modeling).
    pub fn pool(&self) -> &ShardPool<'a> {
        &self.pool
    }

    /// The flight recorder: the last `flight_capacity` request
    /// lifecycles (including rejections) with virtual-clock stamps.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Mutable flight-recorder access (e.g.
    /// [`FlightRecorder::set_dump_on_drop`]).
    pub fn flight_recorder_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// Modeled cycles to drain `pending` requests: the pool's
    /// per-request initiation interval over the parallel width a flush
    /// of that size would actually use ([`ShardPool::flush_spread`] — a
    /// consolidated flush runs on one shard), plus the latency floor
    /// for the last request to emerge.
    pub fn drain_estimate_cycles(&self, pending: usize) -> u64 {
        (pending as u64)
            .div_ceil(self.pool.flush_spread(pending) as u64)
            .saturating_mul(self.pool.modeled_ii_cycles())
            .saturating_add(self.pool.latency_floor_cycles())
    }

    /// Submits one request for `tenant` with an absolute virtual-cycle
    /// `deadline`, returning the tenant's submission sequence number.
    /// May flush (and therefore execute) synchronously when the
    /// submission fills a lane block or puts the tightest deadline
    /// under pressure.
    ///
    /// # Errors
    ///
    /// - [`ServeError::WidthMismatch`] / [`ServeError::NoCompatibleShard`]:
    ///   the input's width fits no shard (checked first; never counts
    ///   against quota).
    /// - [`ServeError::QueueFull`]: `max_pending` requests are already
    ///   buffered — backpressure, retry after a flush.
    /// - [`ServeError::DeadlineUnmeetable`]: `deadline` is tighter than
    ///   the pool's latency floor from `now`; rejecting at admission
    ///   beats accepting a guaranteed miss (and does not charge quota).
    /// - [`ServeError::QuotaExceeded`]: the tenant's bucket is empty.
    ///   Tokens are only ever consumed by submissions that are actually
    ///   admitted.
    /// - [`ServeError::Shard`]: a synchronous flush's engine failed.
    pub fn submit(
        &mut self,
        input: &BitVec,
        deadline: u64,
        tenant: u32,
    ) -> Result<u64, ServeError> {
        match self.admit(input, deadline, tenant) {
            Ok(seq) => Ok(seq),
            Err(e) => {
                self.rejected += 1;
                self.metrics.rejected(&e).inc();
                // Rejections are traced too: the seq the request would
                // have received, with the rejection reason as outcome.
                let seq = self.tenants.get(&tenant).map_or(0, |t| t.next_seq);
                let reason = rejection_reason(&e);
                let trace = self.flight.begin(tenant, seq, self.now, deadline);
                self.flight.update(trace, |l| l.rejected = Some(reason));
                Err(e)
            }
        }
    }

    fn admit(&mut self, input: &BitVec, deadline: u64, tenant: u32) -> Result<u64, ServeError> {
        self.pool.check_width(input.len())?;
        // Brownout admission: a resilient pool with every compatible
        // shard quarantined rejects typed up front instead of accepting
        // work it cannot currently run. Free for fault-free pools.
        self.pool.check_healthy(input.len())?;
        if self.pending_total >= self.options.max_pending {
            return Err(ServeError::QueueFull {
                capacity: self.options.max_pending,
            });
        }
        let earliest = self.now + self.pool.latency_floor_cycles();
        if deadline < earliest {
            return Err(ServeError::DeadlineUnmeetable { deadline, earliest });
        }
        let now = self.now;
        let quota = self.options.quota;
        let entry = self
            .tenants
            .entry(tenant)
            .or_insert_with(|| Tenant::new(tenant, quota, now));
        if let Some(bucket) = entry.bucket.as_mut() {
            if let Err(retry_cycles) = bucket.try_take(now) {
                return Err(ServeError::QuotaExceeded {
                    tenant,
                    retry_cycles,
                });
            }
        }
        let seq = entry.next_seq;
        entry.next_seq += 1;
        let trace = self.flight.begin(tenant, seq, now, deadline);
        let entry = self
            .tenants
            .get_mut(&tenant)
            .expect("tenant entry created above");
        entry.queue.push_back(Admitted {
            seq,
            input: input.clone(),
            deadline,
            submitted_at: now,
            trace,
        });
        entry.publish_gauges();
        self.pending_total += 1;
        self.accepted += 1;
        self.metrics.admitted.inc();
        self.metrics.pending.set(self.pending_total as i64);
        self.last_activity = now;
        if self.options.idle_cycles > 0 {
            self.timers
                .arm(now.saturating_add(self.options.idle_cycles), TOKEN_IDLE);
        }
        if self.pending_total >= self.options.lane_block {
            self.flush_batch(FlushTrigger::LaneBlockFull)?;
        } else if self.deadline_pressure() {
            self.flush_batch(FlushTrigger::DeadlinePressure)?;
        } else {
            // Arm a pressure check for the point at which draining the
            // *current* pending set would start eating this deadline's
            // slack. Lazily cancelled: if the set has grown by then, a
            // fill or an earlier pressure flush already handled it.
            let guard = self.drain_estimate_cycles(self.pending_total);
            self.timers
                .arm(deadline.saturating_sub(guard).max(now), TOKEN_DEADLINE);
        }
        Ok(seq)
    }

    /// Advances the virtual clock to `cycle`, firing any timer-driven
    /// flushes (idle ticks, deadline pressure) that fall in between, in
    /// deterministic `(tick, token)` order. Monotonic: a `cycle` in the
    /// past only processes timers already due.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] if a timer-driven flush's engine
    /// fails to drain.
    pub fn advance_to(&mut self, cycle: u64) -> Result<(), ServeError> {
        while let Some(tick) = self.timers.next_deadline() {
            if tick > cycle {
                break;
            }
            self.now = self.now.max(tick);
            for (_, token) in self.timers.pop_expired(tick) {
                if self.pending_total == 0 {
                    continue; // stale timer: nothing to flush
                }
                match token {
                    TOKEN_IDLE => {
                        if self.now >= self.last_activity.saturating_add(self.options.idle_cycles) {
                            self.flush_batch(FlushTrigger::IdleTick)?;
                        }
                    }
                    _ => {
                        if self.deadline_pressure() {
                            self.flush_batch(FlushTrigger::DeadlinePressure)?;
                        }
                    }
                }
            }
        }
        self.now = self.now.max(cycle);
        Ok(())
    }

    /// Flushes until no request is pending (trigger
    /// [`FlushTrigger::Drain`]): the shutdown path, and the way a
    /// closed-loop driver forces completion.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] if a flush's engine fails,
    /// [`ServeError::NoHealthyShard`] / [`ServeError::ShardQuarantined`]
    /// when a resilient pool has no surviving capacity for the pending
    /// work, and [`ServeError::Stalled`] if a full flush pass stops
    /// reducing the pending set — the bounded-progress watchdog that
    /// turns a would-be hang into a typed error.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        while self.pending_total > 0 {
            let before = self.pending_total;
            self.flush_batch(FlushTrigger::Drain)?;
            if self.pending_total >= before {
                return Err(ServeError::Stalled {
                    pending: self.pending_total,
                    virtual_clock: self.now,
                });
            }
        }
        Ok(())
    }

    /// Takes every reply delivered since the last call, in delivery
    /// order (per-tenant in-order; across tenants by virtual completion
    /// time, ties broken by shard then request id).
    pub fn take_replies(&mut self) -> Vec<Reply> {
        std::mem::take(&mut self.delivered)
    }

    /// Takes every [`ShedNotice`] recorded since the last call, in shed
    /// order. Empty unless [`FrontOptions::shed_on_brownout`] is set.
    pub fn take_shed(&mut self) -> Vec<ShedNotice> {
        std::mem::take(&mut self.shed)
    }

    /// Corrupts the pending-request accounting, simulating the
    /// lost-request bug class the drain watchdog exists to catch.
    #[cfg(test)]
    fn inject_phantom_pending(&mut self, phantoms: usize) {
        self.pending_total += phantoms;
    }

    /// Front-end throughput report: the pool's per-shard stream
    /// statistics merged with the front's **admission → delivery**
    /// latency samples (queueing and batching included), rather than
    /// the pool's service-only samples.
    pub fn report(&self) -> ThroughputReport {
        ThroughputReport::merge(self.pool.report().shards, &self.latencies)
    }

    /// Whether the tightest pending deadline's slack is at or below the
    /// modeled time to drain the whole pending set.
    fn deadline_pressure(&self) -> bool {
        let tightest = self
            .tenants
            .values()
            .flat_map(|t| t.queue.iter().map(|a| a.deadline))
            .min();
        match tightest {
            Some(deadline) => {
                deadline.saturating_sub(self.now) <= self.drain_estimate_cycles(self.pending_total)
            }
            None => false,
        }
    }

    /// Deficit-round-robin batch formation: tenants in id order each
    /// earn `drr_quantum` requests of credit per round and spend it
    /// from their FIFO, until the batch fills a lane block or the
    /// pending set is empty. Deficits persist across batches for
    /// backlogged tenants and reset when a tenant's queue empties
    /// (classic DRR), so a bursty tenant cannot starve a quiet one.
    fn form_batch(&mut self) -> Vec<(u32, Admitted)> {
        let ids: Vec<u32> = self.tenants.keys().copied().collect();
        let mut batch: Vec<(u32, Admitted)> = Vec::new();
        loop {
            let mut progressed = false;
            for &id in &ids {
                let tenant = self
                    .tenants
                    .get_mut(&id)
                    .expect("tenant ids snapshot: entries are never removed");
                if tenant.queue.is_empty() {
                    tenant.deficit = 0;
                    continue;
                }
                tenant.deficit = tenant.deficit.saturating_add(self.options.drr_quantum);
                while tenant.deficit > 0
                    && batch.len() < self.options.lane_block
                    && !tenant.queue.is_empty()
                {
                    let admitted = tenant
                        .queue
                        .pop_front()
                        .expect("loop guard: queue is non-empty");
                    batch.push((id, admitted));
                    tenant.deficit -= 1;
                    progressed = true;
                }
                if tenant.queue.is_empty() {
                    tenant.deficit = 0;
                }
                tenant.publish_gauges();
                if batch.len() == self.options.lane_block {
                    self.pending_total -= batch.len();
                    return batch;
                }
            }
            if !progressed {
                break;
            }
        }
        self.pending_total -= batch.len();
        batch
    }

    /// Forms one batch, executes it on the pool, virtualizes the
    /// completion times onto the front's clock, and runs the reorder
    /// stage to deliver replies in per-tenant submission order.
    ///
    /// On a typed engine failure the flight recorder is dumped to
    /// stderr before the error propagates — the black-box read-out.
    fn flush_batch(&mut self, trigger: FlushTrigger) -> Result<(), ServeError> {
        let result = self.flush_batch_inner(trigger);
        if result.is_err() && self.flight.traced() > 0 {
            eprintln!("{}", self.flight.render());
        }
        result
    }

    /// Brownout load shedding: drops every request in the formed batch
    /// whose deadline already sits inside the pool's health-aware
    /// latency floor — running it could only produce a guaranteed miss
    /// on browned-out capacity. Slack decides, so the requests with the
    /// least hope go first; survivors flush normally. Each shed is
    /// recorded as a [`ShedNotice`], counted, traced, and skipped by
    /// the tenant's delivery cursor.
    fn shed_hopeless(&mut self, batch: Vec<(u32, Admitted)>) -> Vec<(u32, Admitted)> {
        let earliest = self.now.saturating_add(self.pool.latency_floor_cycles());
        let mut kept = Vec::with_capacity(batch.len());
        for (tenant_id, admitted) in batch {
            if admitted.deadline >= earliest {
                kept.push((tenant_id, admitted));
                continue;
            }
            self.metrics.shed.inc();
            self.flight
                .update(admitted.trace, |l| l.rejected = Some("shed"));
            let tenant = self
                .tenants
                .get_mut(&tenant_id)
                .expect("admitted requests always have a tenant entry");
            tenant.shed_seqs.insert(admitted.seq);
            self.shed.push(ShedNotice {
                tenant: tenant_id,
                seq: admitted.seq,
                deadline: admitted.deadline,
                shed_at: self.now,
            });
        }
        kept
    }

    fn flush_batch_inner(&mut self, trigger: FlushTrigger) -> Result<(), ServeError> {
        let mut batch = self.form_batch();
        if self.options.shed_on_brownout {
            batch = self.shed_hopeless(batch);
        }
        if batch.is_empty() {
            return Ok(());
        }
        let size = batch.len();
        self.metrics.batches(trigger).inc();
        self.metrics.batch_size.record(size as u64);
        self.metrics.pending.set(self.pending_total as i64);
        let trigger_label = trigger.as_label();
        let now = self.now;
        for (_, admitted) in &batch {
            self.metrics
                .slack_at_flush
                .record(admitted.deadline.saturating_sub(now));
            self.flight.update(admitted.trace, |l| {
                l.batched_at = Some(now);
                l.trigger = Some(trigger_label);
            });
        }
        let before = self.pool.shard_cycles();
        let mut meta: BTreeMap<u64, (u32, Admitted)> = BTreeMap::new();
        for (tenant, admitted) in batch {
            let id = self.pool.submit(&admitted.input)?;
            meta.insert(id, (tenant, admitted));
        }
        let predictions = self.pool.flush()?;
        let after = self.pool.shard_cycles();

        // Virtualize: each shard's slice starts when the shard is next
        // free on the front's clock, and a request completes its
        // shard-local stamp's worth of cycles after that start.
        let starts: Vec<u64> = self
            .busy_until
            .iter()
            .map(|&busy| busy.max(self.now))
            .collect();
        for (shard, (&b, &a)) in before.iter().zip(&after).enumerate() {
            if a > b {
                self.busy_until[shard] = starts[shard] + (a - b);
            }
        }
        let mut completions: Vec<Completion> = predictions
            .into_iter()
            .map(|p| Completion {
                at: starts[p.shard] + (p.completed_at_cycle - before[p.shard]),
                shard: p.shard,
                request: p.request,
                winner: p.winner,
                class_sums: p.class_sums,
            })
            .collect();
        completions.sort_unstable_by_key(|c| (c.at, c.shard, c.request));

        // Reorder stage: park each completion under its tenant's
        // sequence number, then release every reply whose predecessors
        // have all completed. A reply released by a *later* completion
        // is stamped with that completion's time — it could not have
        // been handed back any earlier.
        for Completion {
            at: completed_at,
            shard,
            request,
            winner,
            class_sums,
        } in completions
        {
            let (tenant_id, admitted) = meta
                .remove(&request)
                .expect("every prediction answers a request submitted this flush");
            self.flight.update(admitted.trace, |l| {
                l.shard = Some(shard);
                l.completed_at = Some(completed_at);
            });
            let tenant = self
                .tenants
                .get_mut(&tenant_id)
                .expect("admitted requests always have a tenant entry");
            tenant.parked.insert(
                admitted.seq,
                Parked {
                    reply: Reply {
                        tenant: tenant_id,
                        seq: admitted.seq,
                        request,
                        winner,
                        class_sums,
                        shard,
                        submitted_at: admitted.submitted_at,
                        deadline: admitted.deadline,
                        delivered_at: 0, // stamped at release below
                    },
                    completed_at,
                    trace: admitted.trace,
                },
            );
            loop {
                // Shed sequence numbers will never complete: hop the
                // cursor over them so the replies behind are released.
                while tenant.shed_seqs.remove(&tenant.next_deliver_seq) {
                    tenant.next_deliver_seq += 1;
                }
                let Some(parked) = tenant.parked.remove(&tenant.next_deliver_seq) else {
                    break;
                };
                let mut reply = parked.reply;
                reply.delivered_at = parked.completed_at.max(completed_at);
                let latency = reply.delivered_at - reply.submitted_at;
                self.latencies.push(latency);
                self.metrics.delivery_latency.record(latency);
                if !reply.met_deadline() {
                    self.metrics.deadline_misses.inc();
                }
                self.flight
                    .update(parked.trace, |l| l.delivered_at = Some(reply.delivered_at));
                self.delivered.push(reply);
                tenant.next_deliver_seq += 1;
            }
        }
        self.batches.push(BatchRecord {
            at: self.now,
            trigger,
            size,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServeOptions;
    use matador_logic::cube::{Cube, Lit};
    use matador_logic::dag::Sharing;
    use matador_sim::{AccelShape, CompiledAccelerator};

    fn accel() -> CompiledAccelerator {
        let shape = AccelShape {
            bus_width: 4,
            features: 4,
            classes: 2,
            clauses_per_class: 2,
        };
        let cubes = vec![vec![
            Cube::from_lits([Lit::pos(0)]),
            Cube::one(),
            Cube::from_lits([Lit::pos(1)]),
            Cube::one(),
        ]];
        CompiledAccelerator::from_window_cubes(shape, &cubes, Sharing::Enabled)
    }

    fn front<'a>(accel: &'a CompiledAccelerator, options: FrontOptions) -> Front<'a> {
        let pool = ShardPool::with_options(accel, ServeOptions::turbo(2)).expect("valid options");
        Front::new(pool, options).expect("valid options")
    }

    fn class0(width: usize) -> BitVec {
        BitVec::from_indices(width, &[0])
    }

    fn class1(width: usize) -> BitVec {
        BitVec::from_indices(width, &[1])
    }

    #[test]
    fn lane_block_fill_flushes_synchronously() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 4,
                ..FrontOptions::new()
            },
        );
        for i in 0..3 {
            assert_eq!(f.submit(&class0(4), 1_000_000, 0).expect("admitted"), i);
            assert!(f.batches().is_empty());
        }
        f.submit(&class1(4), 1_000_000, 0).expect("admitted");
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::LaneBlockFull);
        assert_eq!(f.batches()[0].size, 4);
        assert_eq!(f.pending(), 0);
        let replies = f.take_replies();
        assert_eq!(replies.len(), 4);
        // Per-tenant delivery is strictly in submission order, stamped
        // with non-decreasing delivery times, and classified correctly.
        let seqs: Vec<u64> = replies.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(replies
            .windows(2)
            .all(|w| w[0].delivered_at <= w[1].delivered_at));
        assert_eq!(replies[3].winner, 1);
        assert!(replies.iter().all(|r| r.met_deadline()));
    }

    #[test]
    fn idle_tick_flushes_a_partial_batch() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                idle_cycles: 100,
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 7).expect("admitted");
        f.advance_to(99).expect("no flush yet");
        assert_eq!(f.pending(), 1);
        f.advance_to(100).expect("idle flush");
        assert_eq!(f.pending(), 0);
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::IdleTick);
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].tenant, 7);
        // The flush happened at the idle tick, so service starts there.
        assert!(replies[0].delivered_at >= 100);
    }

    #[test]
    fn deadline_pressure_flushes_before_slack_runs_out() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        // Loose deadline: parks in the queue.
        f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        assert!(f.batches().is_empty());
        // A deadline just past the unmeetable floor lands inside the
        // drain estimate → immediate pressure flush.
        let tight = f.now() + f.pool().latency_floor_cycles();
        f.submit(&class1(4), tight, 0).expect("admitted");
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::DeadlinePressure);
        assert_eq!(f.batches()[0].size, 2);
    }

    #[test]
    fn armed_deadline_timer_fires_under_pressure() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                idle_cycles: 0, // isolate the deadline trigger
                ..FrontOptions::new()
            },
        );
        let deadline = 10_000;
        f.submit(&class0(4), deadline, 0).expect("admitted");
        assert!(f.batches().is_empty());
        f.advance_to(deadline).expect("pressure flush");
        assert_eq!(f.batches().len(), 1);
        assert_eq!(f.batches()[0].trigger, FlushTrigger::DeadlinePressure);
        // The flush fired *before* the deadline, with drain-time slack.
        let at = f.batches()[0].at;
        assert!(at < deadline);
        assert!(at + f.drain_estimate_cycles(1) >= deadline);
    }

    #[test]
    fn unmeetable_deadline_rejects_at_admission() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        let floor = f.pool().latency_floor_cycles();
        assert!(floor > 0);
        let err = f.submit(&class0(4), floor - 1, 0).expect_err("rejected");
        assert_eq!(
            err,
            ServeError::DeadlineUnmeetable {
                deadline: floor - 1,
                earliest: floor,
            }
        );
        assert_eq!(f.rejected(), 1);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn quota_rejects_and_refills_deterministically() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                quota: Some(TenantQuota {
                    burst_requests: 2,
                    millitokens_per_cycle: 10, // 1 request / 100 cycles
                }),
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 3).expect("burst 1");
        f.submit(&class0(4), 1_000_000, 3).expect("burst 2");
        let err = f
            .submit(&class0(4), 1_000_000, 3)
            .expect_err("bucket empty");
        assert_eq!(
            err,
            ServeError::QuotaExceeded {
                tenant: 3,
                retry_cycles: 100,
            }
        );
        // Other tenants are unaffected by tenant 3's exhaustion.
        f.submit(&class0(4), 1_000_000, 4)
            .expect("tenant 4 admitted");
        // After the advertised retry horizon the bucket readmits.
        f.advance_to(f.now() + 100).expect("advance");
        f.submit(&class0(4), 1_000_000, 3).expect("refilled");
        assert_eq!(f.accepted(), 4);
        assert_eq!(f.rejected(), 1);
    }

    #[test]
    fn zero_rate_quota_reports_unbounded_retry() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                quota: Some(TenantQuota {
                    burst_requests: 1,
                    millitokens_per_cycle: 0,
                }),
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 0).expect("burst");
        let err = f
            .submit(&class0(4), 1_000_000, 0)
            .expect_err("never refills");
        assert_eq!(
            err,
            ServeError::QuotaExceeded {
                tenant: 0,
                retry_cycles: u64::MAX,
            }
        );
    }

    #[test]
    fn max_pending_is_typed_backpressure() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 8,
                max_pending: 2,
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        f.submit(&class0(4), 1_000_000, 1).expect("admitted");
        let err = f.submit(&class0(4), 1_000_000, 2).expect_err("full");
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        // Draining restores admission.
        f.drain().expect("drains");
        f.submit(&class0(4), 1_000_000, 2).expect("readmitted");
    }

    #[test]
    fn drr_interleaves_a_bursty_tenant_with_a_quiet_one() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 64,
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        // Tenant 0 bursts six requests; tenant 1 submits two.
        for _ in 0..6 {
            f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        }
        for _ in 0..2 {
            f.submit(&class1(4), 1_000_000, 1).expect("admitted");
        }
        f.drain().expect("drains");
        let replies = f.take_replies();
        assert_eq!(replies.len(), 8);
        // DRR gives tenant 1's first request a slot in the first round,
        // not behind tenant 0's whole burst: among the first four batch
        // positions (pool request ids 0..4), both tenants appear.
        let mut ids: Vec<(u64, u32)> = replies.iter().map(|r| (r.request, r.tenant)).collect();
        ids.sort_unstable();
        let first_two: Vec<u32> = ids.iter().take(2).map(|&(_, t)| t).collect();
        assert_eq!(first_two, vec![0, 1]);
        // Per-tenant order still holds.
        for tenant in [0, 1] {
            let seqs: Vec<u64> = replies
                .iter()
                .filter(|r| r.tenant == tenant)
                .map(|r| r.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let accel = accel();
        let run = || {
            let mut f = front(
                &accel,
                FrontOptions {
                    lane_block: 4,
                    idle_cycles: 200,
                    ..FrontOptions::new()
                },
            );
            let mut t = 0;
            for i in 0..11u64 {
                t += 37 * (i % 3 + 1);
                f.advance_to(t).expect("advance");
                let input = if i % 2 == 0 { class0(4) } else { class1(4) };
                f.submit(&input, t + 5_000, (i % 3) as u32)
                    .expect("admitted");
            }
            f.advance_to(t + 10_000).expect("advance");
            f.drain().expect("drains");
            (f.take_replies(), f.batches().to_vec())
        };
        let (replies_a, batches_a) = run();
        let (replies_b, batches_b) = run();
        assert_eq!(replies_a, replies_b);
        assert_eq!(batches_a, batches_b);
        assert_eq!(replies_a.len(), 11);
    }

    #[test]
    fn report_uses_admission_to_delivery_latencies() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        // Requests age in the queue before an explicit drain, so the
        // front's latency samples must exceed the pool's service-only
        // samples.
        for _ in 0..3 {
            f.submit(&class0(4), 1_000_000, 0).expect("admitted");
        }
        f.advance_to(5_000).expect("advance");
        f.drain().expect("drains");
        let front_report = f.report();
        let pool_report = f.pool().report();
        assert_eq!(front_report.datapoints, 3);
        assert!(front_report.latency_p50_cycles >= 5_000);
        assert!(front_report.latency_p50_cycles > pool_report.latency_p50_cycles);
        assert_eq!(front_report.shards, pool_report.shards);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let accel = accel();
        let pool = ShardPool::with_options(&accel, ServeOptions::turbo(1)).expect("valid");
        let capacity = pool.queue().capacity();
        let err = Front::new(
            pool,
            FrontOptions {
                lane_block: capacity + 1,
                ..FrontOptions::new()
            },
        )
        .expect_err("lane block must fit the pool queue");
        assert_eq!(err, ServeError::QueueFull { capacity });
        let pool = ShardPool::with_options(&accel, ServeOptions::turbo(1)).expect("valid");
        assert_eq!(
            Front::new(
                pool,
                FrontOptions {
                    lane_block: 0,
                    ..FrontOptions::new()
                },
            )
            .expect_err("zero lane block"),
            ServeError::ZeroQueueDepth
        );
    }

    #[test]
    fn nothing_is_dropped_under_mixed_triggers() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 3,
                idle_cycles: 50,
                ..FrontOptions::new()
            },
        );
        let mut admitted = 0u64;
        for i in 0..20u64 {
            f.advance_to(i * 29).expect("advance");
            if f.submit(&class0(4), i * 29 + 2_000, (i % 2) as u32).is_ok() {
                admitted += 1;
            }
        }
        f.advance_to(20 * 29 + 5_000).expect("advance");
        f.drain().expect("drains");
        let replies = f.take_replies();
        assert_eq!(replies.len() as u64, admitted);
        assert_eq!(f.accepted(), admitted);
        assert_eq!(f.pending(), 0);
        // Every flush this trace produced is attributed to a trigger
        // and sums back to the admitted count.
        let total: usize = f.batches().iter().map(|b| b.size).sum();
        assert_eq!(total as u64, admitted);
    }

    #[test]
    fn drain_watchdog_turns_lost_pending_into_a_typed_stall() {
        let accel = accel();
        let mut f = front(&accel, FrontOptions::new());
        f.inject_phantom_pending(3);
        assert_eq!(
            f.drain().expect_err("no flush can retire phantoms"),
            ServeError::Stalled {
                pending: 3,
                virtual_clock: 0,
            }
        );
    }

    #[test]
    fn browned_out_pool_rejects_admission_typed() {
        let accel = accel();
        let mut pool =
            ShardPool::with_options(&accel, ServeOptions::turbo(2)).expect("valid options");
        pool.quarantine_shard(0);
        pool.quarantine_shard(1);
        let mut f = Front::new(pool, FrontOptions::new()).expect("valid options");
        let err = f
            .submit(&class0(4), 1_000_000, 0)
            .expect_err("no healthy shard");
        assert_eq!(err, ServeError::NoHealthyShard { width: 4 });
        assert_eq!(f.rejected(), 1);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn brownout_shed_is_typed_and_skips_the_delivery_cursor() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 8,
                idle_cycles: 0,
                shed_on_brownout: true,
                ..FrontOptions::new()
            },
        );
        let floor = f.pool().latency_floor_cycles();
        // seq 0 is tight, seq 1 is loose; both admissible now.
        f.submit(&class0(4), floor + 10, 0).expect("admitted");
        f.submit(&class1(4), 1_000_000, 0).expect("admitted");
        // Strand seq 0: jump the clock past its usable slack before any
        // timer-driven flush could run it (the direct write stands in
        // for a brownout stretching the drain estimates mid-backlog).
        f.now = floor + 11;
        f.drain().expect("drains");
        let shed = f.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(
            (
                shed[0].tenant,
                shed[0].seq,
                shed[0].deadline,
                shed[0].shed_at
            ),
            (0, 0, floor + 10, floor + 11)
        );
        assert_eq!(shed[0].as_error(), ServeError::Shed { tenant: 0, seq: 0 });
        // seq 1 is not held hostage by the shed predecessor: the
        // delivery cursor hops seq 0 and releases it in order.
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert_eq!((replies[0].seq, replies[0].winner), (1, 1));
    }

    #[test]
    fn without_shed_opt_in_stale_deadlines_run_and_miss_honestly() {
        let accel = accel();
        let mut f = front(
            &accel,
            FrontOptions {
                lane_block: 8,
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        );
        let floor = f.pool().latency_floor_cycles();
        f.submit(&class0(4), floor + 10, 0).expect("admitted");
        f.now = floor + 11;
        f.drain().expect("drains");
        assert!(f.take_shed().is_empty());
        let replies = f.take_replies();
        assert_eq!(replies.len(), 1);
        assert!(!replies[0].met_deadline(), "served late, reported honestly");
    }

    #[test]
    fn front_delivers_in_order_over_a_killed_shard() {
        use crate::{FaultPlan, ShardHealth};
        let accel = accel();
        let pool =
            ShardPool::with_fault_plan(&accel, ServeOptions::turbo(2), FaultPlan::kill_shard(0, 0))
                .expect("valid options");
        let mut f = Front::new(
            pool,
            FrontOptions {
                idle_cycles: 0,
                ..FrontOptions::new()
            },
        )
        .expect("valid options");
        for i in 0..6u64 {
            let input = if i % 2 == 0 { class0(4) } else { class1(4) };
            f.submit(&input, 1_000_000, 0).expect("admitted");
        }
        f.drain().expect("the survivor absorbs everything");
        let replies = f.take_replies();
        assert_eq!(replies.len(), 6, "zero drops");
        let seqs: Vec<u64> = replies.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        let winners: Vec<usize> = replies.iter().map(|r| r.winner).collect();
        assert_eq!(winners, vec![0, 1, 0, 1, 0, 1]);
        assert_eq!(f.pool().shard_health(0), ShardHealth::Quarantined);
    }
}
