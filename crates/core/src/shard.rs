//! Address-sharded parallel replay.
//!
//! The offline analyses ([`profile_events`], task
//! extraction) are pure functions of a recorded event stream, which makes
//! them parallelizable without touching the capture side. The scheme is the
//! classic shadow-memory sharding used by parallel memory profilers:
//!
//! * memory events are partitioned by a block-cyclic address split chosen
//!   by [`ShardSpec`] — every address's full access history lands on
//!   exactly one shard, so per-address shadow state (last write, read set,
//!   cap evictions) evolves *identically* to the sequential run;
//! * control events (enter/exit/block/predicate) are broadcast to all
//!   shards, so every shard maintains an identical execution-index tree and
//!   construct pool — dependence attribution needs the tree, and the tree
//!   is cheap next to shadow lookups;
//! * per-shard [`DepProfile`]s are merged deterministically: duration,
//!   instance and nesting statistics are control-derived and therefore
//!   identical in every shard (shard 0's copy is kept); dependence edges are
//!   disjoint per dynamic occurrence and union with min/sum semantics via
//!   [`DepProfile::merge_edge`], whose lowest-address tie rule makes the
//!   merge commutative.
//!
//! The result is **equal** (`==`) to the sequential and live profiles: the
//! determinism guarantee the parity tests assert for every bundled
//! workload. (The CLI's `replay --jobs N` no longer shards: it pipelines
//! decode against one profiler, `alchemist_trace::replay_pipelined`, which
//! measured faster on every workload. This module stays for the library
//! API and the benchmark's traced spans.)
//!
//! The batched fan-out ([`run_sharded_batched`]) keeps its one partitioner
//! thread cheap: it only routes, sending each worker lists of row
//! references into the shared, already-decoded batches. Each worker copies
//! its own rows — a broadcast control row is copied once by every worker —
//! so the copying scales with the worker count instead of serializing on
//! the partitioner.
//!
//! Memory note: the partition starts page-granular —
//! `(addr >> PAGE_SHIFT) % jobs` with the page size matched to
//! [`ShadowMemory`](crate::shadow::ShadowMemory)'s
//! [`PAGE_WORDS`](crate::shadow::PAGE_WORDS)-cell
//! pages — so each worker faults only the shadow pages it owns and the
//! fleet's `pages_allocated` sums to the sequential run's instead of
//! multiplying by `jobs`. Page ownership is only kept when the stream's
//! page traffic actually spreads: [`ShardSpec::for_batches`] measures the
//! per-shard balance at a ladder of block sizes
//! ([`CANDIDATE_SHIFTS`]: 4096 → 512 → 64 → 8 → 1 words) and takes the
//! coarsest stride whose max/min shard load stays within
//! [`MAX_SHARD_IMBALANCE`]. Small single-threaded programs concentrate
//! their globals and frame slots on one or two pages, so the ladder
//! deliberately falls through to finer strides — ultimately `addr % jobs`,
//! which rebalances perfectly but re-introduces the `jobs ×` page
//! duplication. That duplication is bounded by `jobs × touched pages` and
//! is the right trade below tens of jobs; streams that genuinely spread
//! (threaded workloads whose spawned stacks live on their own pages, big
//! multi-page arrays) keep whole-page ownership automatically.

use crate::pool::PoolStats;
use crate::profile::DepProfile;
use crate::profiler::{AlchemistProfiler, ProfileConfig};
use crate::runner::{profile_batches, profile_events};
use crate::shadow::PAGE_SHIFT;
use alchemist_lang::hir::FuncId;
use alchemist_obs::{span_opt, Counter, Metrics, ShardMetrics, Stage};
use alchemist_vm::{BlockId, Event, EventBatch, Module, Pc, Tid, Time, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A shard replay worker died mid-stream.
///
/// Workers run under [`catch_unwind`], so one shard's panic (an analysis
/// bug, a poisoned sink) no longer aborts the whole replay: the panicking
/// shard is reported here — with its id, how many events it had consumed
/// and the panic payload — while the surviving shards drain their queues
/// and join cleanly. Only the *first* failing shard (lowest id) is
/// returned; the merged result is unusable either way once any address
/// shard is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Shard id of the worker that panicked.
    pub shard: u32,
    /// Events the worker had consumed before dying.
    pub events: u64,
    /// The panic payload, stringified (`&str` / `String` payloads verbatim,
    /// anything else as `<non-string panic payload>`).
    pub payload: String,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard worker {} panicked after {} events: {}",
            self.shard, self.events, self.payload
        )
    }
}

impl std::error::Error for ShardError {}

/// Stringifies a panic payload for [`ShardError::payload`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Joins every worker, collecting finished sinks; if any worker panicked,
/// returns the lowest-id failure *after* all handles joined (surviving
/// shards always drain cleanly, no thread is left detached).
fn join_shards<S>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<S, (u64, String)>>>,
) -> Result<Vec<S>, ShardError> {
    let mut sinks = Vec::with_capacity(handles.len());
    let mut first_err: Option<ShardError> = None;
    for (k, handle) in handles.into_iter().enumerate() {
        let joined = match handle.join() {
            Ok(result) => result,
            // The worker body is wrapped in catch_unwind, so a join error
            // means the panic escaped the wrapper (e.g. a panicking Drop
            // during unwind) — still report it rather than re-panic.
            Err(payload) => Err((0, panic_message(payload))),
        };
        match joined {
            Ok(sink) => sinks.push(sink),
            Err((events, payload)) => {
                first_err.get_or_insert(ShardError {
                    shard: k as u32,
                    events,
                    payload,
                });
            }
        }
    }
    match first_err {
        None => Ok(sinks),
        Some(err) => Err(err),
    }
}

/// Block-size ladder (log2 words) the partition chooser walks, coarsest
/// first: whole shadow pages, then 512-, 64- and 8-word blocks, down to
/// single-word interleaving (`addr % jobs`, the pre-page-partition scheme).
pub const CANDIDATE_SHIFTS: [u32; 5] = [PAGE_SHIFT, 9, 6, 3, 0];

/// A candidate stride is accepted when `max <= MAX_SHARD_IMBALANCE * min`
/// over its per-shard memory-event counts.
pub const MAX_SHARD_IMBALANCE: u64 = 2;

/// The chooser samples at most ~this many rows (deterministic stride over
/// the stream) so spec selection stays a fraction of one decode pass even
/// at tens of millions of events.
const CHOOSER_SAMPLE_ROWS: usize = 1 << 21;

/// How a recorded stream's address space is split across replay workers: a
/// block-cyclic partition `(addr >> shift) % jobs`.
///
/// `shift = PAGE_SHIFT` gives whole-page ownership (each worker faults
/// only its own shadow pages); `shift = 0` is single-word interleaving
/// (best balance, `jobs ×` page duplication). [`ShardSpec::for_batches`] /
/// [`ShardSpec::for_events`] pick the coarsest balanced stride for a
/// concrete stream; the choice is a pure function of the stream and `jobs`,
/// so sequential/parallel parity holds for every choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    jobs: u32,
    shift: u32,
}

impl ShardSpec {
    /// A spec with an explicit block size (`1 << shift` words). `jobs` is
    /// clamped to at least 1, `shift` to at most 31.
    pub fn with_shift(jobs: u32, shift: u32) -> Self {
        ShardSpec {
            jobs: jobs.max(1),
            shift: shift.min(31),
        }
    }

    /// Worker count of the partition.
    pub fn jobs(&self) -> u32 {
        self.jobs
    }

    /// Log2 of the block size in words.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Block size in words (`1 << shift`).
    pub fn block_words(&self) -> u32 {
        1 << self.shift
    }

    /// The shard owning `addr`.
    #[inline]
    pub fn shard_of(&self, addr: u32) -> u32 {
        (addr >> self.shift) % self.jobs
    }

    /// Chooses the coarsest balanced stride for a batched stream: walks
    /// [`CANDIDATE_SHIFTS`] coarsest-first and returns the first whose
    /// per-shard memory-event counts stay within [`MAX_SHARD_IMBALANCE`];
    /// if none qualifies, the stride minimizing the *largest* shard (the
    /// replay's critical path), coarsest-first on ties.
    pub fn for_batches(batches: &[EventBatch], jobs: u32) -> Self {
        if jobs <= 1 {
            return Self::with_shift(jobs, PAGE_SHIFT);
        }
        let total: usize = batches.iter().map(|b| b.len()).sum();
        let stride = (total / CHOOSER_SAMPLE_ROWS).max(1);
        let addrs = batches
            .iter()
            .flat_map(|b| (0..b.len()).map(move |i| (b, i)))
            .step_by(stride)
            .filter(|(b, i)| b.tag(*i).is_memory())
            .map(|(b, i)| b.addr(i));
        Self::with_shift(jobs, choose_shift(jobs, addrs))
    }

    /// [`ShardSpec::for_batches`] over a per-event stream.
    pub fn for_events(events: &[Event], jobs: u32) -> Self {
        if jobs <= 1 {
            return Self::with_shift(jobs, PAGE_SHIFT);
        }
        let stride = (events.len() / CHOOSER_SAMPLE_ROWS).max(1);
        let addrs = events.iter().step_by(stride).filter_map(|ev| match *ev {
            Event::Read { addr, .. } | Event::Write { addr, .. } => Some(addr),
            _ => None,
        });
        Self::with_shift(jobs, choose_shift(jobs, addrs))
    }
}

/// One counting pass over (sampled) memory addresses, tallying every
/// candidate stride at once, then the ladder walk described on
/// [`ShardSpec::for_batches`].
fn choose_shift(jobs: u32, addrs: impl Iterator<Item = u32>) -> u32 {
    let j = jobs as usize;
    let mut counts = vec![0u64; CANDIDATE_SHIFTS.len() * j];
    for addr in addrs {
        for (si, &shift) in CANDIDATE_SHIFTS.iter().enumerate() {
            counts[si * j + ((addr >> shift) % jobs) as usize] += 1;
        }
    }
    let row_max_min = |si: usize| {
        let row = &counts[si * j..(si + 1) * j];
        // Invariant: `jobs >= 1` (clamped by every caller), so each row has
        // at least one cell and the fallbacks below never fire — they exist
        // only to keep the closure total.
        (
            *row.iter().max().unwrap_or(&0),
            *row.iter().min().unwrap_or(&0),
        )
    };
    for (si, &shift) in CANDIDATE_SHIFTS.iter().enumerate() {
        let (max, min) = row_max_min(si);
        if max <= MAX_SHARD_IMBALANCE * min {
            return shift;
        }
    }
    // Nothing balances (hot frame slots usually guarantee that for small
    // single-threaded programs): minimize the critical path instead.
    let mut best = (u64::MAX, CANDIDATE_SHIFTS[0]);
    for (si, &shift) in CANDIDATE_SHIFTS.iter().enumerate() {
        let (max, _) = row_max_min(si);
        if max < best.0 {
            best = (max, shift);
        }
    }
    best.1
}

/// Default bound on in-flight sub-batches per shard channel.
pub const SHARD_CHANNEL_DEPTH: usize = 16;

/// Default flush threshold: a per-shard sub-batch is handed off once it has
/// accumulated at least this many row references, so per-send channel cost
/// amortizes over thousands of events.
pub const SHARD_FLUSH_EVENTS: usize = 4096;

/// Tunables for the batched fan-out's channel hand-off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardTuning {
    /// Bounded channel capacity, in sub-batches, per shard
    /// ([`SHARD_CHANNEL_DEPTH`] by default). A sub-batch is a list of row
    /// references (4 bytes per row), so peak buffered memory is about
    /// `jobs × (channel_depth + 2) × flush_events` references (queued,
    /// being copied, or filling) plus one scratch [`EventBatch`] of copied
    /// rows per worker.
    pub channel_depth: usize,
    /// Minimum row references accumulated before a sub-batch is sent
    /// ([`SHARD_FLUSH_EVENTS`] by default; the stream's tail flushes
    /// whatever remains).
    pub flush_events: usize,
}

impl Default for ShardTuning {
    fn default() -> Self {
        ShardTuning {
            channel_depth: SHARD_CHANNEL_DEPTH,
            flush_events: SHARD_FLUSH_EVENTS,
        }
    }
}

impl ShardTuning {
    fn normalized(self) -> Self {
        ShardTuning {
            channel_depth: self.channel_depth.max(1),
            flush_events: self.flush_events.max(1),
        }
    }
}

/// A [`TraceSink`] adapter that forwards every control event to `inner` but
/// only the memory events whose address belongs to one shard.
///
/// Wrapping any sequential analysis sink in a `ShardFilter` per worker is
/// all it takes to shard it: the inner sink observes the exact sub-stream
/// the sequential run would deliver for its addresses, in the same order
/// and with the same timestamps.
#[derive(Debug)]
pub struct ShardFilter<S> {
    shard: u32,
    spec: ShardSpec,
    inner: S,
    /// Reused sub-batch for the `on_batch` bulk path.
    scratch: EventBatch,
}

impl<S> ShardFilter<S> {
    /// Wraps `inner` as shard `shard` of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= spec.jobs()` (the filter would drop every
    /// memory event).
    pub fn new(shard: u32, spec: ShardSpec, inner: S) -> Self {
        assert!(
            shard < spec.jobs(),
            "shard {shard} out of range for {} jobs",
            spec.jobs()
        );
        ShardFilter {
            shard,
            spec,
            inner,
            scratch: EventBatch::new(),
        }
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    #[inline]
    fn owns(&self, addr: u32) -> bool {
        self.spec.shard_of(addr) == self.shard
    }
}

impl<S: TraceSink> TraceSink for ShardFilter<S> {
    fn on_enter_function(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        self.inner.on_enter_function(t, func, fp, tid);
    }
    fn on_exit_function(&mut self, t: Time, func: FuncId, tid: Tid) {
        self.inner.on_exit_function(t, func, tid);
    }
    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        self.inner.on_block_entry(t, block, tid);
    }
    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        self.inner.on_predicate(t, pc, block, taken, tid);
    }
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if self.owns(addr) {
            self.inner.on_read(t, addr, pc, tid);
        }
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        if self.owns(addr) {
            self.inner.on_write(t, addr, pc, tid);
        }
    }
    fn on_batch(&mut self, batch: &EventBatch) {
        // Single pass: copy the shard's sub-stream (all control rows plus
        // owned memory rows) into the reusable scratch batch, then hand the
        // inner sink one bulk call.
        self.scratch.clear();
        for i in 0..batch.len() {
            if !batch.tag(i).is_memory() || self.owns(batch.addr(i)) {
                self.scratch.push_index(batch, i);
            }
        }
        let scratch = std::mem::take(&mut self.scratch);
        self.inner.on_batch(&scratch);
        self.scratch = scratch; // keep the capacity for the next batch
    }
}

/// Appends one batch's rows to per-shard accumulators in a single pass:
/// control rows go to every accumulator, memory rows only to the shard
/// owning their address under `spec`.
fn partition_into(batch: &EventBatch, spec: ShardSpec, accs: &mut [EventBatch]) {
    for i in 0..batch.len() {
        if batch.tag(i).is_memory() {
            accs[spec.shard_of(batch.addr(i)) as usize].push_index(batch, i);
        } else {
            for acc in accs.iter_mut() {
                acc.push_index(batch, i);
            }
        }
    }
}

/// Splits one batch into `spec.jobs()` per-shard sub-batches in a single
/// pass: control rows are appended to every sub-batch, memory rows only to
/// the shard owning their address ([`ShardSpec::shard_of`]). Concatenating
/// sub-batch `k` across a batch stream therefore reproduces exactly the
/// event sub-stream a [`ShardFilter`] for shard `k` would deliver — and the
/// rows [`run_sharded_batched`] hands worker `k`.
pub fn partition_batch(batch: &EventBatch, spec: ShardSpec) -> Vec<EventBatch> {
    let jobs = spec.jobs();
    // Size sub-batches from one cheap tag scan — every sub-batch carries
    // all control rows plus its share of the memory rows. Capacity at
    // `batch.len()` each would pin ~jobs× the stream's memory.
    let memory = batch.tags().iter().filter(|t| t.is_memory()).count();
    let control = batch.len() - memory;
    let capacity = control + memory / jobs as usize + 1;
    let mut subs: Vec<EventBatch> = (0..jobs)
        .map(|_| EventBatch::with_capacity(capacity))
        .collect();
    partition_into(batch, spec, &mut subs);
    subs
}

/// One hand-off unit of the batched fan-out: references to the rows one
/// shard consumes, in stream order, grouped into one run per input batch.
/// The rows themselves stay in the caller's decoded batches; the worker
/// copies them out with [`RowRefs::gather_into`].
#[derive(Debug)]
struct RowRefs {
    /// `(input batch index, end offset into rows)` per contributing input
    /// batch; a run starts where the previous one ends.
    runs: Vec<(usize, usize)>,
    /// Row indices within their run's input batch.
    rows: Vec<u32>,
}

impl RowRefs {
    fn with_capacity(rows: usize) -> Self {
        RowRefs {
            runs: Vec::new(),
            rows: Vec::with_capacity(rows),
        }
    }

    fn clear(&mut self) {
        self.runs.clear();
        self.rows.clear();
    }

    /// Ends the run of input batch `b`, if `b` contributed any rows.
    fn close_run(&mut self, b: usize) {
        let start = self.runs.last().map_or(0, |&(_, end)| end);
        if self.rows.len() > start {
            self.runs.push((b, self.rows.len()));
        }
    }

    /// Replaces `out`'s rows with the referenced rows of `batches`, copied
    /// column by column one run at a time.
    fn gather_into(&self, batches: &[EventBatch], out: &mut EventBatch) {
        out.clear();
        let mut start = 0;
        for &(b, end) in &self.runs {
            out.extend_from_rows(&batches[b], &self.rows[start..end]);
            start = end;
        }
    }
}

/// Runs one sink per address shard over `events` on scoped worker threads
/// and returns the finished sinks in shard order. The partition is chosen
/// by [`ShardSpec::for_events`].
///
/// This is the shared fan-out primitive behind [`profile_events_par`] and
/// `alchemist_parsim::extract_tasks_from_events_par`: `make_sink(k)`
/// builds the sequential analysis sink for shard `k`, each worker wraps it
/// in a [`ShardFilter`] and dispatches the whole stream, and the caller
/// merges the returned sinks however its analysis requires.
///
/// # Errors
///
/// [`ShardError`] if any worker panicked; the surviving workers are joined
/// first, so no thread outlives the call.
pub fn run_sharded<S, F>(events: &[Event], jobs: usize, make_sink: F) -> Result<Vec<S>, ShardError>
where
    S: TraceSink + Send,
    F: Fn(u32) -> S + Sync,
{
    let jobs = jobs.clamp(1, u32::MAX as usize);
    let spec = ShardSpec::for_events(events, jobs as u32);
    run_sharded_spec(events, spec, make_sink)
}

/// [`run_sharded`] with an explicit, caller-chosen partition.
///
/// # Errors
///
/// [`ShardError`] if any worker panicked; the surviving workers are joined
/// first, so no thread outlives the call.
pub fn run_sharded_spec<S, F>(
    events: &[Event],
    spec: ShardSpec,
    make_sink: F,
) -> Result<Vec<S>, ShardError>
where
    S: TraceSink + Send,
    F: Fn(u32) -> S + Sync,
{
    std::thread::scope(|s| {
        let make_sink = &make_sink;
        let handles: Vec<_> = (0..spec.jobs())
            .map(|k| {
                s.spawn(move || {
                    let mut done = 0u64;
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut filter = ShardFilter::new(k, spec, make_sink(k));
                        for ev in events {
                            ev.dispatch(&mut filter);
                            done += 1;
                        }
                        filter.into_inner()
                    }));
                    result.map_err(|payload| (done, panic_message(payload)))
                })
            })
            .collect();
        join_shards(handles)
    })
}

/// Batched twin of [`run_sharded`]: runs one sink per address shard over a
/// stream of [`EventBatch`]es.
///
/// Unlike the per-event path — where every worker scans the *whole* stream
/// behind a [`ShardFilter`] (O(jobs × N) filtering) — this routes each
/// batch's rows to their shards **once**, in a single pass, then lets
/// every worker consume only its own rows via bulk
/// [`TraceSink::on_batch`] calls. Each worker's sink observes exactly the
/// sub-stream the filter would deliver (the rows [`partition_batch`]
/// splits off for its shard), so analyses merge identically.
///
/// The single partitioner thread only *routes*: for each row it appends a
/// row reference (input batch, row index) to the owning shard's pending
/// list — every shard's, for a control row — and never copies a column.
/// A list is sent once it holds at least [`SHARD_FLUSH_EVENTS`] references,
/// through a bounded channel whose drained lists are pooled back to the
/// partitioner, so the hand-off costs one channel round-trip per
/// *thousands* of rows and steady-state routing allocates nothing. Each
/// worker copies its referenced rows out of the shared `batches`, column
/// by column, into one reused [`EventBatch`] and hands that to its sink:
/// the per-row copying, broadcast control rows included, runs on the
/// workers in parallel instead of on the partitioner's critical path.
/// At most about `jobs × (SHARD_CHANNEL_DEPTH + 2)` reference lists exist
/// (queued, being copied, or filling), each of about
/// [`SHARD_FLUSH_EVENTS`] 4-byte references, plus one scratch sub-batch
/// of copied rows per worker.
///
/// # Errors
///
/// [`ShardError`] if any worker panicked. A dead worker's channel simply
/// stops accepting sends — the sender keeps feeding the surviving shards,
/// which drain and join cleanly before the error is returned.
///
/// # Panics
///
/// Panics if an input batch holds more than 2³² rows (row references are
/// `u32` offsets).
pub fn run_sharded_batched<S, F>(
    batches: &[EventBatch],
    jobs: usize,
    make_sink: F,
) -> Result<Vec<S>, ShardError>
where
    S: TraceSink + Send,
    F: Fn(u32) -> S + Sync,
{
    run_sharded_batched_with(batches, jobs, ShardTuning::default(), None, make_sink)
}

/// [`run_sharded_batched`] with explicit hand-off tuning and optional
/// self-instrumentation: when `metrics` is `Some`, the routing/send loop
/// runs under a `shard_partition` stage span, the sender's per-shard
/// channel-send wait and the workers' recv-wait / busy time (row copy plus
/// sink) / delivered row counts are folded into per-shard [`ShardMetrics`]
/// at join, and the batch/sub-batch counters are bumped. All timing is one
/// clock pair per *sub-batch* (thousands of events), and with `None` this
/// *is* [`run_sharded_batched`] — no clock reads at all.
///
/// # Errors
///
/// [`ShardError`] if any worker panicked (see [`run_sharded_batched`]).
///
/// # Panics
///
/// See [`run_sharded_batched`].
pub fn run_sharded_batched_with<S, F>(
    batches: &[EventBatch],
    jobs: usize,
    tuning: ShardTuning,
    metrics: Option<&Metrics>,
    make_sink: F,
) -> Result<Vec<S>, ShardError>
where
    S: TraceSink + Send,
    F: Fn(u32) -> S + Sync,
{
    let jobs = jobs.clamp(1, u32::MAX as usize);
    let spec = ShardSpec::for_batches(batches, jobs as u32);
    run_sharded_batched_spec(batches, spec, tuning, metrics, make_sink)
}

/// [`run_sharded_batched_with`] with an explicit, caller-chosen partition
/// (callers that display or log the partition compute it once via
/// [`ShardSpec::for_batches`] and pass it here, keeping the two in sync).
///
/// # Errors
///
/// [`ShardError`] if any worker panicked (see [`run_sharded_batched`]).
///
/// # Panics
///
/// See [`run_sharded_batched`].
pub fn run_sharded_batched_spec<S, F>(
    batches: &[EventBatch],
    spec: ShardSpec,
    tuning: ShardTuning,
    metrics: Option<&Metrics>,
    make_sink: F,
) -> Result<Vec<S>, ShardError>
where
    S: TraceSink + Send,
    F: Fn(u32) -> S + Sync,
{
    let jobs = spec.jobs() as usize;
    let tuning = tuning.normalized();
    assert!(
        batches.iter().all(|b| b.len() as u64 <= 1 << 32),
        "an input batch exceeds 2^32 rows"
    );
    std::thread::scope(|s| {
        let make_sink = &make_sink;
        // Consumed reference lists flow back to the sender through an
        // unbounded return channel and get refilled in place: the steady
        // state recycles `jobs × channel_depth + jobs` lists with no
        // allocation.
        let (pool_tx, pool_rx) = std::sync::mpsc::channel::<RowRefs>();
        let (senders, handles): (Vec<_>, Vec<_>) = (0..jobs)
            .map(|k| {
                let (tx, rx) = std::sync::mpsc::sync_channel::<RowRefs>(tuning.channel_depth);
                let pool_tx = pool_tx.clone();
                let handle = s.spawn(move || {
                    // A panic anywhere below drops `rx`, which the sender
                    // observes as a disconnected channel — not a deadlock.
                    let mut done = 0u64;
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut sink = make_sink(k as u32);
                        let mut scratch = EventBatch::new();
                        let Some(m) = metrics else {
                            while let Ok(mut refs) = rx.recv() {
                                refs.gather_into(batches, &mut scratch);
                                done += scratch.len() as u64;
                                sink.on_batch(&scratch);
                                refs.clear();
                                let _ = pool_tx.send(refs); // sender may have finished
                            }
                            return sink;
                        };
                        let mut sm = ShardMetrics {
                            shard: k,
                            ..ShardMetrics::default()
                        };
                        loop {
                            let t0 = Instant::now();
                            let Ok(mut refs) = rx.recv() else { break };
                            let t1 = Instant::now();
                            sm.recv_wait_ns += (t1 - t0).as_nanos() as u64;
                            refs.gather_into(batches, &mut scratch);
                            done += scratch.len() as u64;
                            sm.events += scratch.len() as u64;
                            sm.mem_events +=
                                scratch.tags().iter().filter(|t| t.is_memory()).count() as u64;
                            sink.on_batch(&scratch);
                            sm.busy_ns += t1.elapsed().as_nanos() as u64;
                            refs.clear();
                            let _ = pool_tx.send(refs);
                        }
                        m.record_shard(sm);
                        sink
                    }));
                    result.map_err(|payload| (done, panic_message(payload)))
                });
                (tx, handle)
            })
            .unzip();
        // Workers hold the remaining pool_tx clones.
        drop(pool_tx);
        // One routing pass over the stream, instead of one filtered scan
        // per worker; workers copy and consume concurrently as lists fill.
        {
            let _partition_span = span_opt(metrics, Stage::ShardPartition);
            let mut pending: Vec<RowRefs> = (0..jobs)
                .map(|_| RowRefs::with_capacity(tuning.flush_events))
                .collect();
            let mut send_wait: Vec<u64> = vec![0; if metrics.is_some() { jobs } else { 0 }];
            // A send to a panicked worker fails with a disconnect (the
            // worker dropped its receiver during unwind). The list is
            // dropped and the shard marked dead — the panic itself is
            // reported at join, and the other shards keep streaming.
            let mut dead: Vec<bool> = vec![false; jobs];
            let mut sent = 0u64;
            let timed_send = |k: usize, refs: RowRefs, send_wait: &mut [u64], dead: &mut [bool]| {
                if dead[k] {
                    return;
                }
                if metrics.is_some() {
                    let t0 = Instant::now();
                    dead[k] = senders[k].send(refs).is_err();
                    send_wait[k] += t0.elapsed().as_nanos() as u64;
                } else {
                    dead[k] = senders[k].send(refs).is_err();
                }
            };
            for (b, batch) in batches.iter().enumerate() {
                for (i, tag) in batch.tags().iter().enumerate() {
                    let row = i as u32; // bounded by the 2^32-row assertion above
                    if tag.is_memory() {
                        let k = spec.shard_of(batch.addr(i)) as usize;
                        pending[k].rows.push(row);
                    } else {
                        for refs in pending.iter_mut() {
                            refs.rows.push(row);
                        }
                    }
                }
                for (k, refs) in pending.iter_mut().enumerate() {
                    refs.close_run(b);
                    if refs.rows.len() < tuning.flush_events {
                        continue;
                    }
                    let fresh = pool_rx
                        .try_recv()
                        .unwrap_or_else(|_| RowRefs::with_capacity(tuning.flush_events));
                    let full = std::mem::replace(refs, fresh);
                    sent += 1;
                    timed_send(k, full, &mut send_wait, &mut dead);
                }
            }
            for (k, rest) in pending.into_iter().enumerate() {
                if !rest.rows.is_empty() {
                    sent += 1;
                    timed_send(k, rest, &mut send_wait, &mut dead);
                }
            }
            if let Some(m) = metrics {
                m.add(Counter::ShardBatchesPartitioned, batches.len() as u64);
                m.add(Counter::ShardSubBatchesSent, sent);
                for (k, ns) in send_wait.into_iter().enumerate() {
                    m.record_shard(ShardMetrics {
                        shard: k,
                        send_wait_ns: ns,
                        ..ShardMetrics::default()
                    });
                }
            }
        }
        drop(senders); // close the channels so workers finish
        join_shards(handles)
    })
}

/// Memory events per shard under the partition [`ShardSpec::for_events`]
/// would choose for a `jobs`-way split (control events are broadcast and
/// not counted). Used by benches to show how balanced the address
/// partition is.
pub fn shard_event_counts(events: &[Event], jobs: usize) -> Vec<u64> {
    let jobs = jobs.clamp(1, u32::MAX as usize);
    shard_event_counts_spec(events, ShardSpec::for_events(events, jobs as u32))
}

/// [`shard_event_counts`] under an explicit partition.
pub fn shard_event_counts_spec(events: &[Event], spec: ShardSpec) -> Vec<u64> {
    let mut counts = vec![0u64; spec.jobs() as usize];
    for ev in events {
        if let Event::Read { addr, .. } | Event::Write { addr, .. } = *ev {
            counts[spec.shard_of(addr) as usize] += 1;
        }
    }
    counts
}

/// [`shard_event_counts`] over a batch stream: one pass over the tag and
/// address columns, no row reconstruction.
pub fn shard_batch_counts(batches: &[EventBatch], jobs: usize) -> Vec<u64> {
    let jobs = jobs.clamp(1, u32::MAX as usize);
    shard_batch_counts_spec(batches, ShardSpec::for_batches(batches, jobs as u32))
}

/// [`shard_batch_counts`] under an explicit partition.
pub fn shard_batch_counts_spec(batches: &[EventBatch], spec: ShardSpec) -> Vec<u64> {
    let mut counts = vec![0u64; spec.jobs() as usize];
    for batch in batches {
        for i in 0..batch.len() {
            if batch.tag(i).is_memory() {
                counts[spec.shard_of(batch.addr(i)) as usize] += 1;
            }
        }
    }
    counts
}

/// Merges per-shard profiles into the sequential-equivalent whole.
///
/// Shard 0 contributes everything (its control-derived statistics are
/// identical to every other shard's); the remaining shards contribute only
/// their dependence edges, dropped-reader counts and shadow-layout
/// telemetry (summed: under a page-granular spec each page faults in
/// exactly one worker and the sum equals the sequential run's; under
/// finer strides workers fault overlapping pages and the sum reports the
/// fleet's total — either way the counters are excluded from profile
/// equality).
pub fn merge_shard_profiles(shards: Vec<DepProfile>) -> DepProfile {
    let mut iter = shards.into_iter();
    // Invariant: callers pass one profile per shard and `jobs >= 1`; the
    // default only materializes for an (accepted, degenerate) empty input.
    let mut base = iter.next().unwrap_or_default();
    for shard in iter {
        base.dropped_readers += shard.dropped_readers;
        base.shadow_stats.pages_allocated += shard.shadow_stats.pages_allocated;
        base.shadow_stats.read_set_spills += shard.shadow_stats.read_set_spills;
        // Dependence detections partition by address exactly like the
        // memory events that produce them, so the thread-classification
        // counters sum to the sequential run's.
        base.intra_thread_deps += shard.intra_thread_deps;
        base.cross_thread_deps += shard.cross_thread_deps;
        for c in shard.constructs() {
            for (key, stat) in &c.edges {
                base.merge_edge(c.id, *key, *stat);
            }
        }
    }
    base
}

/// Parallel variant of [`profile_events`]: replays a
/// recorded event stream through `jobs` address shards on scoped worker
/// threads and merges the per-shard profiles.
///
/// Produces a [`DepProfile`] **equal** to the sequential replay (and hence
/// to live instrumentation of the run that recorded `events`), plus the
/// pool statistics and maximum depth — which are control-derived and
/// identical in every shard. `jobs <= 1` falls back to the sequential path.
///
/// # Errors
///
/// [`ShardError`] if any shard worker panicked (see [`run_sharded`]).
///
/// # Examples
///
/// ```
/// use alchemist_core::{profile_events, profile_events_par, ProfileConfig};
/// use alchemist_vm::{compile_source, run, ExecConfig, RecordingSink};
///
/// let src = "int g; int main() { int i; for (i = 0; i < 9; i++) g += i; return g; }";
/// let module = compile_source(src).unwrap();
/// let mut rec = RecordingSink::default();
/// let out = run(&module, &ExecConfig::default(), &mut rec).unwrap();
///
/// let (seq, _, _) = profile_events(
///     &module, rec.events.iter().copied(), out.steps, ProfileConfig::default());
/// let (par, _, _) = profile_events_par(
///     &module, &rec.events, out.steps, ProfileConfig::default(), 4).unwrap();
/// assert_eq!(par, seq);
/// ```
pub fn profile_events_par(
    module: &Module,
    events: &[Event],
    total_steps: u64,
    config: ProfileConfig,
    jobs: usize,
) -> Result<(DepProfile, PoolStats, usize), ShardError> {
    if jobs <= 1 {
        return Ok(profile_events(
            module,
            events.iter().copied(),
            total_steps,
            config,
        ));
    }
    let profilers = run_sharded(events, jobs, |_| {
        AlchemistProfiler::new(module, config.clone())
    })?;
    Ok(finish_shard_profilers(profilers, total_steps, None))
}

/// Extracts per-shard profiles from finished profilers and merges them.
/// When `metrics` is `Some`, each shard's shadow-layout telemetry (pages
/// faulted, read-set spills) is recorded per shard and the merge runs under
/// a `merge` stage span.
fn finish_shard_profilers(
    profilers: Vec<AlchemistProfiler<'_>>,
    total_steps: u64,
    metrics: Option<&Metrics>,
) -> (DepProfile, PoolStats, usize) {
    let mut shards: Vec<(DepProfile, PoolStats, usize)> = profilers
        .into_iter()
        .map(|prof| {
            let pool_stats = prof.pool_stats();
            let max_depth = prof.max_depth();
            (prof.into_profile(total_steps), pool_stats, max_depth)
        })
        .collect();
    // Invariant: the fan-out produced exactly `jobs >= 1` profilers, so
    // shard 0 always exists here.
    let (pool_stats, max_depth) = (shards[0].1, shards[0].2);
    debug_assert!(
        shards
            .iter()
            .all(|(_, ps, d)| (*ps, *d) == (pool_stats, max_depth)),
        "control-derived statistics must be identical across shards"
    );
    if let Some(m) = metrics {
        for (k, (profile, _, _)) in shards.iter().enumerate() {
            m.record_shard(ShardMetrics {
                shard: k,
                pages_allocated: profile.shadow_stats.pages_allocated,
                read_set_spills: profile.shadow_stats.read_set_spills,
                ..ShardMetrics::default()
            });
        }
    }
    let profiles = shards.drain(..).map(|(p, _, _)| p).collect();
    let _merge_span = span_opt(metrics, Stage::Merge);
    (merge_shard_profiles(profiles), pool_stats, max_depth)
}

/// Batched twin of [`profile_events_par`]: profiles a stream of
/// [`EventBatch`]es through `jobs` address shards via
/// [`run_sharded_batched`] (single-pass partitioning, bulk dispatch) and
/// merges the per-shard profiles.
///
/// Produces a [`DepProfile`] **equal** to the sequential batched replay,
/// the per-event replay and live instrumentation of the recorded run.
/// `jobs <= 1` falls back to the sequential batched path.
///
/// # Errors
///
/// [`ShardError`] if any shard worker panicked (see
/// [`run_sharded_batched`]).
///
/// # Examples
///
/// ```
/// use alchemist_core::{profile_batches_par, profile_events, ProfileConfig};
/// use alchemist_vm::{compile_source, run, EventBatch, ExecConfig, RecordingSink};
///
/// let src = "int g; int main() { int i; for (i = 0; i < 9; i++) g += i; return g; }";
/// let module = compile_source(src).unwrap();
/// let mut rec = RecordingSink::default();
/// let out = run(&module, &ExecConfig::default(), &mut rec).unwrap();
///
/// let (seq, _, _) = profile_events(
///     &module, rec.events.iter().copied(), out.steps, ProfileConfig::default());
/// let batches: Vec<EventBatch> = rec.events.chunks(16).map(EventBatch::from_events).collect();
/// let (par, _, _) = profile_batches_par(
///     &module, &batches, out.steps, ProfileConfig::default(), 4).unwrap();
/// assert_eq!(par, seq);
/// ```
pub fn profile_batches_par(
    module: &Module,
    batches: &[EventBatch],
    total_steps: u64,
    config: ProfileConfig,
    jobs: usize,
) -> Result<(DepProfile, PoolStats, usize), ShardError> {
    profile_batches_par_with(module, batches, total_steps, config, jobs, None)
}

/// [`profile_batches_par`] with self-instrumentation: when `metrics` is
/// `Some`, the sharded fan-out records per-shard channel waits, busy time,
/// delivered row counts and shadow telemetry (via
/// [`run_sharded_batched_with`]), the merge runs under a `merge` stage
/// span, and the `profile.events` / `profile.deps` counters are bumped
/// with the stream's event count and the merged dependence-detection
/// total. The produced profile is **equal** to the uninstrumented one.
///
/// # Errors
///
/// [`ShardError`] if any shard worker panicked (see
/// [`run_sharded_batched`]).
pub fn profile_batches_par_with(
    module: &Module,
    batches: &[EventBatch],
    total_steps: u64,
    config: ProfileConfig,
    jobs: usize,
    metrics: Option<&Metrics>,
) -> Result<(DepProfile, PoolStats, usize), ShardError> {
    let jobs = jobs.clamp(1, u32::MAX as usize);
    let spec = ShardSpec::for_batches(batches, jobs as u32);
    profile_batches_par_spec(
        module,
        batches,
        total_steps,
        config,
        spec,
        ShardTuning::default(),
        metrics,
    )
}

/// [`profile_batches_par_with`] with an explicit partition and hand-off
/// tuning, for callers that compute the [`ShardSpec`] once and reuse it
/// (e.g. to report the per-shard counts next to the profile).
///
/// # Errors
///
/// [`ShardError`] if any shard worker panicked (see
/// [`run_sharded_batched`]).
pub fn profile_batches_par_spec(
    module: &Module,
    batches: &[EventBatch],
    total_steps: u64,
    config: ProfileConfig,
    spec: ShardSpec,
    tuning: ShardTuning,
    metrics: Option<&Metrics>,
) -> Result<(DepProfile, PoolStats, usize), ShardError> {
    let result = if spec.jobs() <= 1 {
        profile_batches(module, batches, total_steps, config)
    } else {
        let profilers = run_sharded_batched_spec(batches, spec, tuning, metrics, |_| {
            AlchemistProfiler::new(module, config.clone())
        })?;
        finish_shard_profilers(profilers, total_steps, metrics)
    };
    if let Some(m) = metrics {
        m.add(
            Counter::ProfileEvents,
            batches.iter().map(|b| b.len() as u64).sum(),
        );
        m.add(
            Counter::ProfileDeps,
            result.0.intra_thread_deps + result.0.cross_thread_deps,
        );
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_vm::{compile_source, run, CountingSink, ExecConfig, RecordingSink};

    const CHURN: &str = "int a[16]; int sum;
        void mix(int k) {
            int i;
            for (i = 0; i < 16; i++) a[i] = a[(i + k) % 16] + i;
        }
        int main() {
            int r;
            for (r = 0; r < 6; r++) { mix(r); sum += a[r]; }
            return sum;
        }";

    fn record(src: &str) -> (alchemist_vm::Module, Vec<Event>, u64) {
        let module = compile_source(src).unwrap();
        let mut rec = RecordingSink::default();
        let out = run(&module, &ExecConfig::default(), &mut rec).unwrap();
        (module, rec.events, out.steps)
    }

    /// Specs covering the ladder's extremes and a middle stride; parity and
    /// partition properties must hold for every one of them.
    fn specs(jobs: u32) -> Vec<ShardSpec> {
        [PAGE_SHIFT, 6, 0]
            .into_iter()
            .map(|shift| ShardSpec::with_shift(jobs, shift))
            .collect()
    }

    #[test]
    fn shard_filter_partitions_memory_and_broadcasts_control() {
        let (_m, events, _) = record(CHURN);
        let jobs = 3;
        let mut totals = CountingSink::default();
        for ev in &events {
            ev.dispatch(&mut totals);
        }
        for spec in specs(jobs) {
            let mut mem_seen = 0;
            for k in 0..jobs {
                let mut f = ShardFilter::new(k, spec, CountingSink::default());
                for ev in &events {
                    ev.dispatch(&mut f);
                }
                let c = f.into_inner();
                assert_eq!(c.enters, totals.enters, "control broadcast");
                assert_eq!(c.predicates, totals.predicates, "control broadcast");
                mem_seen += c.reads + c.writes;
            }
            assert_eq!(
                mem_seen,
                totals.reads + totals.writes,
                "memory events partition exactly (shift {})",
                spec.shift()
            );
        }
    }

    #[test]
    fn shard_counts_cover_all_memory_events() {
        let (_m, events, _) = record(CHURN);
        let mut totals = CountingSink::default();
        for ev in &events {
            ev.dispatch(&mut totals);
        }
        for jobs in [1usize, 2, 5] {
            let counts = shard_event_counts(&events, jobs);
            assert_eq!(counts.len(), jobs);
            assert_eq!(counts.iter().sum::<u64>(), totals.reads + totals.writes);
        }
    }

    #[test]
    fn chooser_keeps_page_granularity_when_pages_balance() {
        // Four equally hot pages: page-granular ownership is balanced, so
        // the ladder should stop at PAGE_SHIFT.
        let jobs = 4u32;
        let addrs: Vec<u32> = (0..4096u32)
            .map(|i| (i % 4) * (1 << PAGE_SHIFT) + (i * 7) % 4096)
            .collect();
        assert_eq!(choose_shift(jobs, addrs.into_iter()), PAGE_SHIFT);
    }

    #[test]
    fn chooser_falls_through_when_one_page_dominates() {
        // Everything on page 0, spread within the page: every coarse stride
        // is pathologically clustered and the ladder must fall through to a
        // finer one that balances (word interleave balances perfectly here).
        let jobs = 4u32;
        let addrs: Vec<u32> = (0..4096u32).collect();
        let shift = choose_shift(jobs, addrs.clone().into_iter());
        assert!(shift < PAGE_SHIFT, "page stride kept despite clustering");
        let spec = ShardSpec::with_shift(jobs, shift);
        let mut counts = vec![0u64; jobs as usize];
        for a in addrs {
            counts[spec.shard_of(a) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= MAX_SHARD_IMBALANCE * min, "{counts:?}");
    }

    #[test]
    fn chooser_minimizes_critical_path_when_nothing_balances() {
        // One address takes 90% of the traffic: no stride can balance, so
        // the chooser must pick the stride with the smallest largest shard
        // rather than panic or default blindly.
        let jobs = 4u32;
        let mut addrs = vec![5u32; 900];
        addrs.extend((0..100u32).map(|i| i * 11));
        let shift = choose_shift(jobs, addrs.iter().copied());
        let best_max = CANDIDATE_SHIFTS
            .iter()
            .map(|&s| {
                let spec = ShardSpec::with_shift(jobs, s);
                let mut counts = vec![0u64; jobs as usize];
                for &a in &addrs {
                    counts[spec.shard_of(a) as usize] += 1;
                }
                *counts.iter().max().unwrap()
            })
            .min()
            .unwrap();
        let spec = ShardSpec::with_shift(jobs, shift);
        let mut counts = vec![0u64; jobs as usize];
        for &a in &addrs {
            counts[spec.shard_of(a) as usize] += 1;
        }
        assert_eq!(*counts.iter().max().unwrap(), best_max);
    }

    #[test]
    fn single_job_spec_is_page_granular_and_trivial() {
        let spec = ShardSpec::for_events(&[], 1);
        assert_eq!(spec.jobs(), 1);
        assert_eq!(spec.shift(), PAGE_SHIFT);
        assert_eq!(spec.shard_of(0xFFFF_FFFF), 0);
    }

    #[test]
    fn parallel_profile_equals_sequential_for_any_job_count() {
        let (module, events, steps) = record(CHURN);
        let (seq, seq_pool, seq_depth) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        for jobs in [1usize, 2, 3, 4, 7, 16] {
            let (par, pool, depth) =
                profile_events_par(&module, &events, steps, ProfileConfig::default(), jobs)
                    .unwrap();
            assert_eq!(par, seq, "jobs={jobs}");
            assert_eq!(pool, seq_pool, "jobs={jobs}");
            assert_eq!(depth, seq_depth, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_profile_matches_under_tiny_reader_cap() {
        // Cap evictions are per-address state; sharding must not change
        // which reads are dropped or how many.
        let (module, events, steps) = record(CHURN);
        let cfg = ProfileConfig {
            reader_cap: 1,
            ..Default::default()
        };
        let (seq, _, _) = profile_events(&module, events.iter().copied(), steps, cfg.clone());
        let (par, _, _) = profile_events_par(&module, &events, steps, cfg, 4).unwrap();
        assert_eq!(par.dropped_readers, seq.dropped_readers);
        assert_eq!(par, seq);
    }

    #[test]
    fn more_jobs_than_addresses_is_fine() {
        let (module, events, steps) = record("int g; int main() { g = 1; return g; }");
        let (seq, _, _) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        let (par, _, _) =
            profile_events_par(&module, &events, steps, ProfileConfig::default(), 64).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_filter_rejects_out_of_range_shard() {
        let _ = ShardFilter::new(
            4,
            ShardSpec::with_shift(4, PAGE_SHIFT),
            CountingSink::default(),
        );
    }

    /// Batches the recorded stream into blocks of `size` events.
    fn to_batches(events: &[Event], size: usize) -> Vec<EventBatch> {
        events.chunks(size).map(EventBatch::from_events).collect()
    }

    #[test]
    fn partition_batch_matches_the_shard_filter_substream() {
        let (_m, events, _) = record(CHURN);
        let batch = EventBatch::from_events(&events);
        for jobs in [1u32, 2, 3, 5] {
            for spec in specs(jobs) {
                let subs = partition_batch(&batch, spec);
                assert_eq!(subs.len(), jobs as usize);
                for (k, sub) in subs.iter().enumerate() {
                    // The filter's per-event sub-stream is the ground truth.
                    let mut f =
                        ShardFilter::new(k as u32, spec, alchemist_vm::RecordingSink::default());
                    for ev in &events {
                        ev.dispatch(&mut f);
                    }
                    let expect = f.into_inner().events;
                    let got: Vec<Event> = sub.iter().collect();
                    assert_eq!(got, expect, "jobs={jobs} shift={} shard={k}", spec.shift());
                }
            }
        }
    }

    #[test]
    fn shard_filter_on_batch_equals_per_event_filtering() {
        let (_m, events, _) = record(CHURN);
        for jobs in [2u32, 3] {
            for spec in specs(jobs) {
                for k in 0..jobs {
                    let mut per_event =
                        ShardFilter::new(k, spec, alchemist_vm::RecordingSink::default());
                    for ev in &events {
                        ev.dispatch(&mut per_event);
                    }
                    let mut batched =
                        ShardFilter::new(k, spec, alchemist_vm::RecordingSink::default());
                    for batch in to_batches(&events, 17) {
                        batched.on_batch(&batch);
                    }
                    assert_eq!(
                        batched.into_inner().events,
                        per_event.into_inner().events,
                        "jobs={jobs} shift={} shard={k}",
                        spec.shift()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_profile_equals_sequential_for_any_job_count() {
        let (module, events, steps) = record(CHURN);
        let (seq, seq_pool, seq_depth) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        for batch_size in [16usize, 4096] {
            let batches = to_batches(&events, batch_size);
            for jobs in [1usize, 2, 3, 7] {
                let (par, pool, depth) =
                    profile_batches_par(&module, &batches, steps, ProfileConfig::default(), jobs)
                        .unwrap();
                assert_eq!(par, seq, "batch_size={batch_size} jobs={jobs}");
                assert_eq!(pool, seq_pool, "batch_size={batch_size} jobs={jobs}");
                assert_eq!(depth, seq_depth, "batch_size={batch_size} jobs={jobs}");
            }
        }
    }

    #[test]
    fn batched_profile_equals_sequential_under_every_ladder_stride() {
        // The chooser picks ONE spec per stream, but parity must hold for
        // every spec it could ever pick (any pure address partition works).
        let (module, events, steps) = record(CHURN);
        let (seq, _, _) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        let batches = to_batches(&events, 64);
        for &shift in &CANDIDATE_SHIFTS {
            let spec = ShardSpec::with_shift(3, shift);
            let (par, _, _) = profile_batches_par_spec(
                &module,
                &batches,
                steps,
                ProfileConfig::default(),
                spec,
                ShardTuning::default(),
                None,
            )
            .unwrap();
            assert_eq!(par, seq, "shift={shift}");
        }
    }

    #[test]
    fn tiny_flush_threshold_and_depth_still_merge_exactly() {
        // Degenerate tuning (flush every row, depth 1) maximizes channel
        // traffic; the merged profile must not change.
        let (module, events, steps) = record(CHURN);
        let (seq, _, _) = profile_events(
            &module,
            events.iter().copied(),
            steps,
            ProfileConfig::default(),
        );
        let batches = to_batches(&events, 16);
        let tuning = ShardTuning {
            channel_depth: 1,
            flush_events: 1,
        };
        let spec = ShardSpec::for_batches(&batches, 3);
        let (par, _, _) = profile_batches_par_spec(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            spec,
            tuning,
            None,
        )
        .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn instrumented_sharded_profile_equals_uninstrumented() {
        let (module, events, steps) = record(CHURN);
        let batches = to_batches(&events, 16);
        let jobs = 3usize;
        let (plain, _, _) =
            profile_batches_par(&module, &batches, steps, ProfileConfig::default(), jobs).unwrap();
        let m = Metrics::new();
        let (instr, _, _) = profile_batches_par_with(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            jobs,
            Some(&m),
        )
        .unwrap();
        assert_eq!(instr, plain);

        // Counters describe the stream and the merged profile.
        let total_events: u64 = batches.iter().map(|b| b.len() as u64).sum();
        assert_eq!(m.get(Counter::ProfileEvents), total_events);
        assert_eq!(
            m.get(Counter::ProfileDeps),
            plain.intra_thread_deps + plain.cross_thread_deps
        );
        assert_eq!(
            m.get(Counter::ShardBatchesPartitioned),
            batches.len() as u64
        );
        // Fat hand-off: sub-batches accumulate to the flush threshold, so
        // far fewer sends than input batches — but at least one flush per
        // shard that received anything.
        let sent = m.get(Counter::ShardSubBatchesSent);
        assert!(sent >= 1 && sent <= (batches.len() * jobs) as u64, "{sent}");

        // Per-shard rows: one per shard, mem rows partition exactly, and
        // every shard carries its shadow telemetry.
        let shards = m.shards();
        assert_eq!(shards.len(), jobs);
        let expect_counts = shard_batch_counts(&batches, jobs);
        for (k, sm) in shards.iter().enumerate() {
            assert_eq!(sm.shard, k);
            assert_eq!(sm.mem_events, expect_counts[k], "shard {k}");
            assert!(sm.events >= sm.mem_events);
        }
        let pages: u64 = shards.iter().map(|s| s.pages_allocated).sum();
        assert_eq!(pages, plain.shadow_stats.pages_allocated);

        // Stage spans fired exactly once each.
        assert_eq!(m.stage(Stage::ShardPartition).1, 1);
        assert_eq!(m.stage(Stage::Merge).1, 1);
    }

    #[test]
    fn fat_handoff_sends_few_fat_sub_batches() {
        // With the default 4096-row flush threshold, a multi-thousand-event
        // stream split into small input batches must still reach each
        // worker in a handful of fat sends, not one send per input batch.
        let (module, events, steps) = record(CHURN);
        let batches = to_batches(&events, 64);
        let jobs = 2usize;
        let m = Metrics::new();
        let _ = profile_batches_par_with(
            &module,
            &batches,
            steps,
            ProfileConfig::default(),
            jobs,
            Some(&m),
        )
        .unwrap();
        let sent = m.get(Counter::ShardSubBatchesSent);
        let delivered: u64 = m.shards().iter().map(|s| s.events).sum();
        assert!(sent > 0);
        // Average rows per send is bounded below by the stream size over
        // the worst-case send count: ceil(rows_k / flush) + 1 per shard.
        let min_avg = delivered / (2 * (delivered / SHARD_FLUSH_EVENTS as u64 + jobs as u64));
        assert!(
            delivered / sent >= min_avg.max(64),
            "sent={sent} delivered={delivered}"
        );
    }

    #[test]
    fn fanout_hands_each_shard_exactly_its_partition_batch_rows() {
        // Row-exact delivery through the reference hand-off: shard k's sink
        // must see the concatenation of `partition_batch(b, spec)[k]` over
        // the input batches — no row dropped, duplicated or reordered, even
        // where the merged profile would not notice.
        let (_m, events, _) = record(
            "int a[64]; int sum;
            int main() {
                int r; int i;
                for (r = 0; r < 12; r++)
                    for (i = 0; i < 64; i++) { a[i] = a[(i + r) % 64] + i; sum += a[i]; }
                return sum;
            }",
        );
        assert!(
            events.len() > 2 * SHARD_FLUSH_EVENTS,
            "{} events",
            events.len()
        );
        let tunings = [
            ShardTuning::default(),
            ShardTuning {
                channel_depth: 1,
                flush_events: 1,
            },
        ];
        // Input batches smaller than the default flush threshold (many runs
        // per send) and larger than it (one run spanning a whole send).
        for batch_size in [16usize, SHARD_FLUSH_EVENTS + 1000] {
            let batches = to_batches(&events, batch_size);
            for tuning in tunings {
                for spec in [1, 3].into_iter().flat_map(specs) {
                    let sinks = run_sharded_batched_spec(&batches, spec, tuning, None, |_| {
                        RecordingSink::default()
                    })
                    .unwrap();
                    assert_eq!(sinks.len(), spec.jobs() as usize);
                    for (k, sink) in sinks.iter().enumerate() {
                        let expect: Vec<Event> = batches
                            .iter()
                            .flat_map(|b| {
                                partition_batch(b, spec)
                                    .swap_remove(k)
                                    .iter()
                                    .collect::<Vec<_>>()
                            })
                            .collect();
                        assert!(
                            sink.events == expect,
                            "batch_size={batch_size} {tuning:?} jobs={} shift={} shard={k}",
                            spec.jobs(),
                            spec.shift()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_batch_counts_agree_with_event_counts() {
        let (_m, events, _) = record(CHURN);
        let batches = to_batches(&events, 9);
        for jobs in [1usize, 2, 5] {
            assert_eq!(
                shard_batch_counts(&batches, jobs),
                shard_event_counts(&events, jobs),
                "jobs={jobs}"
            );
        }
    }

    /// A sink that panics on the first control event when armed.
    #[derive(Debug)]
    struct Bomb {
        armed: bool,
    }

    impl TraceSink for Bomb {
        fn on_block_entry(&mut self, _t: Time, _block: BlockId, _tid: Tid) {
            if self.armed {
                panic!("shard bomb detonated");
            }
        }
    }

    #[test]
    fn panicking_worker_is_a_typed_error_on_the_event_path() {
        let (_m, events, _) = record(CHURN);
        let err = run_sharded(&events, 3, |k| Bomb { armed: k == 1 }).unwrap_err();
        assert_eq!(err.shard, 1);
        assert!(err.payload.contains("shard bomb"), "{}", err.payload);
        let msg = err.to_string();
        assert!(msg.contains("shard worker 1 panicked"), "{msg}");
    }

    #[test]
    fn panicking_worker_is_a_typed_error_on_the_batched_path() {
        let (_m, events, _) = record(CHURN);
        let batches = to_batches(&events, 16);
        // Degenerate tuning maximizes post-mortem sends: the sender must
        // absorb the dead shard's disconnected channel (not panic, not
        // deadlock) while the surviving shards drain to completion.
        let tuning = ShardTuning {
            channel_depth: 1,
            flush_events: 1,
        };
        let spec = ShardSpec::with_shift(3, 0);
        let err =
            run_sharded_batched_spec(&batches, spec, tuning, None, |k| Bomb { armed: k == 0 })
                .unwrap_err();
        assert_eq!(err.shard, 0);
        assert!(err.payload.contains("shard bomb"), "{}", err.payload);
    }

    #[test]
    fn healthy_fanout_still_returns_every_sink() {
        let (_m, events, _) = record(CHURN);
        let sinks = run_sharded(&events, 4, |_| Bomb { armed: false }).unwrap();
        assert_eq!(sinks.len(), 4);
        let batches = to_batches(&events, 16);
        let sinks = run_sharded_batched(&batches, 4, |_| Bomb { armed: false }).unwrap();
        assert_eq!(sinks.len(), 4);
    }

    #[test]
    fn non_string_panic_payloads_are_reported_generically() {
        #[derive(Debug)]
        struct IntBomb;
        impl TraceSink for IntBomb {
            fn on_block_entry(&mut self, _t: Time, _block: BlockId, _tid: Tid) {
                std::panic::panic_any(42u32);
            }
        }
        let (_m, events, _) = record(CHURN);
        let err = run_sharded(&events, 2, |_| IntBomb).unwrap_err();
        assert_eq!(err.payload, "<non-string panic payload>");
    }
}
