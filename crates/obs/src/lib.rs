//! Self-instrumentation for the Alchemist pipeline.
//!
//! This crate provides a lightweight metrics layer — monotonic counters,
//! named stage spans, fixed-bucket latency histograms, and per-shard
//! slots — that the rest of the workspace threads through as an
//! `Option<&Metrics>` (or `Option<Arc<Metrics>>` where a struct owns it).
//! When the handle is `None` every instrumentation site collapses to a
//! branch on a `None` option, so the uninstrumented paths stay exactly as
//! fast as before.
//!
//! Design constraints (pinned by `crates/core/tests/zero_alloc.rs`):
//!
//! * **Allocation-free on the hot path.** Counters are a fixed array of
//!   [`AtomicU64`] indexed by the [`Counter`] enum; histograms use a fixed
//!   number of log2 buckets; stage spans add into fixed cells. The only
//!   allocating operations are [`Metrics::record_shard`] and
//!   [`Metrics::record_thread_quanta`], which run once per shard join /
//!   run end, never per event.
//! * **Stable, versioned reporting.** [`report::MetricsReport`] snapshots
//!   everything into a plain struct with a pinned
//!   [`report::SCHEMA_VERSION`], renderable as text or JSON (hand-rolled;
//!   the workspace is offline and carries no serde).

pub mod report;

pub use report::{MetricsReport, SCHEMA_VERSION};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pre-registered monotonic counters. Adding a variant extends the metrics
/// schema; names are stable `layer.metric` strings used in the JSON report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events the VM interpreter delivered to its sink.
    VmEvents,
    /// Bytecode instructions the interpreter executed.
    VmInstructions,
    /// Event batches flushed by the VM's batching sink.
    VmBatchesFlushed,
    /// Scheduler context switches between program threads.
    VmContextSwitches,
    /// Program threads spawned (not counting main).
    VmThreadsSpawned,
    /// Chunks the trace writer encoded and wrote.
    TraceChunksWritten,
    /// Total bytes of `.alct` output (header + chunks + footer).
    TraceBytesWritten,
    /// Events encoded into the trace.
    TraceEventsWritten,
    /// Chunks decoded (streaming reader or parallel decode workers).
    TraceChunksDecoded,
    /// Compressed payload bytes decoded.
    TraceBytesDecoded,
    /// Events decoded from the trace.
    TraceEventsDecoded,
    /// Corrupt/truncated chunks skipped by salvage replay (`--recover`).
    TraceChunksSkipped,
    /// Events salvaged by recovery replay (what survived the damage).
    TraceEventsSalvaged,
    /// Events run through dependence profiling.
    ProfileEvents,
    /// Distinct dependence edges detected (intra- + cross-thread).
    ProfileDeps,
    /// `.alcp` profile artifacts encoded and written.
    ProfileSaves,
    /// `.alcp` profile artifacts decoded and loaded.
    ProfileLoads,
    /// Partial-profile merges performed (one per absorbed profile).
    ProfileMerges,
    /// Whole batches partitioned for sharded replay.
    ShardBatchesPartitioned,
    /// Non-empty per-shard sub-batches sent over shard channels.
    ShardSubBatchesSent,
    /// Parallel tasks identified by the parsim extractor.
    ParsimTasksExtracted,
}

impl Counter {
    pub const COUNT: usize = 21;

    /// Every counter, in declaration (= report) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::VmEvents,
        Counter::VmInstructions,
        Counter::VmBatchesFlushed,
        Counter::VmContextSwitches,
        Counter::VmThreadsSpawned,
        Counter::TraceChunksWritten,
        Counter::TraceBytesWritten,
        Counter::TraceEventsWritten,
        Counter::TraceChunksDecoded,
        Counter::TraceBytesDecoded,
        Counter::TraceEventsDecoded,
        Counter::TraceChunksSkipped,
        Counter::TraceEventsSalvaged,
        Counter::ProfileEvents,
        Counter::ProfileDeps,
        Counter::ProfileSaves,
        Counter::ProfileLoads,
        Counter::ProfileMerges,
        Counter::ShardBatchesPartitioned,
        Counter::ShardSubBatchesSent,
        Counter::ParsimTasksExtracted,
    ];

    /// Stable `layer.metric` name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::VmEvents => "vm.events",
            Counter::VmInstructions => "vm.instructions",
            Counter::VmBatchesFlushed => "vm.batches_flushed",
            Counter::VmContextSwitches => "vm.context_switches",
            Counter::VmThreadsSpawned => "vm.threads_spawned",
            Counter::TraceChunksWritten => "trace.chunks_written",
            Counter::TraceBytesWritten => "trace.bytes_written",
            Counter::TraceEventsWritten => "trace.events_written",
            Counter::TraceChunksDecoded => "trace.chunks_decoded",
            Counter::TraceBytesDecoded => "trace.bytes_decoded",
            Counter::TraceEventsDecoded => "trace.events_decoded",
            Counter::TraceChunksSkipped => "trace.chunks_skipped",
            Counter::TraceEventsSalvaged => "trace.events_salvaged",
            Counter::ProfileEvents => "profile.events",
            Counter::ProfileDeps => "profile.deps",
            Counter::ProfileSaves => "profile.saves",
            Counter::ProfileLoads => "profile.loads",
            Counter::ProfileMerges => "profile.merges",
            Counter::ShardBatchesPartitioned => "shard.batches_partitioned",
            Counter::ShardSubBatchesSent => "shard.sub_batches_sent",
            Counter::ParsimTasksExtracted => "parsim.tasks_extracted",
        }
    }
}

/// Named pipeline stages timed by spans. `shard_worker[i]` busy time is
/// reported from [`ShardMetrics::busy_ns`] rather than a variant here, since
/// the worker count is dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Source → module front-end (lex/parse/lower).
    Parse,
    /// VM interpretation (instrumented execution).
    Exec,
    /// Trace chunk encoding + writing.
    Encode,
    /// Trace decoding (streaming or chunk-parallel). In a pipelined
    /// replay: each decoding thread's busy time, one call per thread.
    Decode,
    /// Splitting batches into per-shard sub-batches.
    ShardPartition,
    /// Merging per-shard profiles/traces back together.
    Merge,
    /// Dependence profiling proper. In a pipelined replay: the calling
    /// thread's time inside the sink (the profiler and any analysis
    /// sharing the pass), one call.
    Profile,
    /// Parallel-task extraction (parsim).
    Extract,
    /// Whole-command wall time, recorded once by the CLI.
    Total,
}

impl Stage {
    pub const COUNT: usize = 9;

    /// Every stage, in declaration (= report) order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Parse,
        Stage::Exec,
        Stage::Encode,
        Stage::Decode,
        Stage::ShardPartition,
        Stage::Merge,
        Stage::Profile,
        Stage::Extract,
        Stage::Total,
    ];

    /// Stable stage name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Exec => "exec",
            Stage::Encode => "encode",
            Stage::Decode => "decode",
            Stage::ShardPartition => "shard_partition",
            Stage::Merge => "merge",
            Stage::Profile => "profile",
            Stage::Extract => "extract",
            Stage::Total => "total",
        }
    }
}

/// Fixed-bucket latency histograms (log2 nanosecond buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall time to decode one trace chunk into events.
    DecodeChunkNs,
    /// Wall time to encode + write one trace chunk.
    EncodeChunkNs,
}

impl Hist {
    pub const COUNT: usize = 2;

    /// Every histogram, in declaration (= report) order.
    pub const ALL: [Hist; Hist::COUNT] = [Hist::DecodeChunkNs, Hist::EncodeChunkNs];

    /// Stable histogram name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Hist::DecodeChunkNs => "decode.chunk_ns",
            Hist::EncodeChunkNs => "encode.chunk_ns",
        }
    }
}

/// Number of log2 buckets per histogram. Bucket `i` counts samples in
/// `[2^(i-1), 2^i)` ns (bucket 0 counts 0-ns samples); the last bucket
/// absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

/// Bucket index for a nanosecond sample.
#[inline]
pub fn hist_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        let b = 64 - (ns.leading_zeros() as usize);
        b.min(HIST_BUCKETS - 1)
    }
}

struct StageCell {
    wall_ns: AtomicU64,
    calls: AtomicU64,
}

struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// Per-shard metrics, accumulated thread-locally inside each shard worker
/// and merged into [`Metrics`] exactly once at join time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Shard index (block-cyclic address-partition lane: page-granular
    /// `(addr >> shift) % jobs`, with the stride chosen per stream by the
    /// balance ladder in `alchemist_core::shard::ShardSpec`).
    pub shard: usize,
    /// Event rows delivered to this shard's sink (control rows are
    /// broadcast, so these overlap across shards).
    pub events: u64,
    /// Memory event rows (the partitioned, non-overlapping portion).
    pub mem_events: u64,
    /// Nanoseconds the sender spent blocked pushing into this shard's
    /// bounded channel.
    pub send_wait_ns: u64,
    /// Nanoseconds this shard's worker spent blocked waiting to receive.
    pub recv_wait_ns: u64,
    /// Nanoseconds this shard's worker spent actually processing batches:
    /// copying its routed rows out of the shared input batches, then
    /// running its sink on them.
    pub busy_ns: u64,
    /// Shadow-memory pages faulted in by this shard's profiler.
    pub pages_allocated: u64,
    /// Read-set inline-capacity spills in this shard's profiler.
    pub read_set_spills: u64,
}

impl ShardMetrics {
    fn merge_from(&mut self, other: &ShardMetrics) {
        self.events += other.events;
        self.mem_events += other.mem_events;
        self.send_wait_ns += other.send_wait_ns;
        self.recv_wait_ns += other.recv_wait_ns;
        self.busy_ns += other.busy_ns;
        self.pages_allocated += other.pages_allocated;
        self.read_set_spills += other.read_set_spills;
    }
}

/// The shared metrics sink. Cheap to create; every recording operation on
/// the event path is a single atomic add.
pub struct Metrics {
    counters: [AtomicU64; Counter::COUNT],
    stages: [StageCell; Stage::COUNT],
    hists: [HistCell; Hist::COUNT],
    shards: Mutex<Vec<ShardMetrics>>,
    /// `(tid, quanta)` pairs recorded once at the end of a VM run.
    sched: Mutex<Vec<(u32, u64)>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Metrics");
        for c in Counter::ALL {
            let v = self.get(c);
            if v != 0 {
                s.field(c.name(), &v);
            }
        }
        s.finish_non_exhaustive()
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stages: std::array::from_fn(|_| StageCell {
                wall_ns: AtomicU64::new(0),
                calls: AtomicU64::new(0),
            }),
            hists: std::array::from_fn(|_| HistCell {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
            }),
            shards: Mutex::new(Vec::new()),
            sched: Mutex::new(Vec::new()),
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Record `ns` of wall time (one call) against a stage.
    #[inline]
    pub fn record_span(&self, s: Stage, ns: u64) {
        let cell = &self.stages[s as usize];
        cell.wall_ns.fetch_add(ns, Ordering::Relaxed);
        cell.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(wall_ns, calls)` recorded so far for a stage.
    #[inline]
    pub fn stage(&self, s: Stage) -> (u64, u64) {
        let cell = &self.stages[s as usize];
        (
            cell.wall_ns.load(Ordering::Relaxed),
            cell.calls.load(Ordering::Relaxed),
        )
    }

    /// Start a span that records into `s` when dropped.
    #[inline]
    pub fn span(&self, s: Stage) -> SpanGuard<'_> {
        SpanGuard {
            metrics: self,
            stage: s,
            start: Instant::now(),
        }
    }

    /// Record one nanosecond sample into a histogram.
    #[inline]
    pub fn observe_ns(&self, h: Hist, ns: u64) {
        let cell = &self.hists[h as usize];
        cell.buckets[hist_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `(count, total_ns)` recorded so far for a histogram.
    pub fn hist_totals(&self, h: Hist) -> (u64, u64) {
        let cell = &self.hists[h as usize];
        (
            cell.count.load(Ordering::Relaxed),
            cell.total_ns.load(Ordering::Relaxed),
        )
    }

    /// Bucket counts for a histogram.
    pub fn hist_buckets(&self, h: Hist) -> [u64; HIST_BUCKETS] {
        let cell = &self.hists[h as usize];
        std::array::from_fn(|i| cell.buckets[i].load(Ordering::Relaxed))
    }

    /// Merge one shard's locally-accumulated metrics. Fields are summed if
    /// the shard index was recorded before (e.g. sender-side send-wait plus
    /// worker-side busy time). Called at join time, not on the hot path.
    pub fn record_shard(&self, sm: ShardMetrics) {
        let mut shards = self.shards.lock().unwrap();
        if let Some(existing) = shards.iter_mut().find(|s| s.shard == sm.shard) {
            existing.merge_from(&sm);
        } else {
            shards.push(sm);
            shards.sort_by_key(|s| s.shard);
        }
    }

    /// Snapshot of all per-shard metrics, sorted by shard index.
    pub fn shards(&self) -> Vec<ShardMetrics> {
        self.shards.lock().unwrap().clone()
    }

    /// Record the number of scheduler quanta a program thread consumed.
    /// Called once per thread at the end of a VM run.
    pub fn record_thread_quanta(&self, tid: u32, quanta: u64) {
        let mut sched = self.sched.lock().unwrap();
        if let Some(entry) = sched.iter_mut().find(|(t, _)| *t == tid) {
            entry.1 += quanta;
        } else {
            sched.push((tid, quanta));
            sched.sort_by_key(|(t, _)| *t);
        }
    }

    /// Snapshot of `(tid, quanta)` pairs, sorted by tid.
    pub fn sched(&self) -> Vec<(u32, u64)> {
        self.sched.lock().unwrap().clone()
    }

    /// Snapshot everything into a stable, versioned report.
    pub fn report(&self, command: &str) -> report::MetricsReport {
        report::MetricsReport::snapshot(self, command)
    }
}

/// Records elapsed wall time into a [`Stage`] on drop.
pub struct SpanGuard<'a> {
    metrics: &'a Metrics,
    stage: Stage,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.metrics
            .record_span(self.stage, self.start.elapsed().as_nanos() as u64);
    }
}

/// Span over an `Option<&Metrics>`: a no-op (not even a clock read) when the
/// handle is absent.
#[inline]
pub fn span_opt<'a>(metrics: Option<&'a Metrics>, stage: Stage) -> OptSpan<'a> {
    OptSpan {
        inner: metrics.map(|m| (m, stage, Instant::now())),
    }
}

/// Guard returned by [`span_opt`].
pub struct OptSpan<'a> {
    inner: Option<(&'a Metrics, Stage, Instant)>,
}

impl Drop for OptSpan<'_> {
    fn drop(&mut self) {
        if let Some((m, stage, start)) = self.inner.take() {
            m.record_span(stage, start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_and_order_are_stable() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "Counter::ALL must follow declaration order");
        }
        // Names are unique and dot-scoped.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        assert!(Counter::ALL.iter().all(|c| c.name().contains('.')));
    }

    #[test]
    fn stage_names_and_order_are_stable() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.incr(Counter::VmEvents);
        m.add(Counter::VmEvents, 9);
        m.add(Counter::TraceBytesWritten, 123);
        assert_eq!(m.get(Counter::VmEvents), 10);
        assert_eq!(m.get(Counter::TraceBytesWritten), 123);
        assert_eq!(m.get(Counter::ProfileDeps), 0);
    }

    #[test]
    fn spans_record_wall_and_calls() {
        let m = Metrics::new();
        m.record_span(Stage::Decode, 100);
        m.record_span(Stage::Decode, 50);
        let (wall, calls) = m.stage(Stage::Decode);
        assert_eq!(wall, 150);
        assert_eq!(calls, 2);
        {
            let _g = m.span(Stage::Parse);
        }
        let (_, parse_calls) = m.stage(Stage::Parse);
        assert_eq!(parse_calls, 1);
    }

    #[test]
    fn span_opt_none_is_inert() {
        {
            let _g = span_opt(None, Stage::Exec);
        }
        let m = Metrics::new();
        {
            let _g = span_opt(Some(&m), Stage::Exec);
        }
        assert_eq!(m.stage(Stage::Exec).1, 1);
    }

    #[test]
    fn hist_bucketing() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1023), 10);
        assert_eq!(hist_bucket(1024), 11);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);

        let m = Metrics::new();
        m.observe_ns(Hist::DecodeChunkNs, 0);
        m.observe_ns(Hist::DecodeChunkNs, 3);
        m.observe_ns(Hist::DecodeChunkNs, 1 << 40);
        let (count, total) = m.hist_totals(Hist::DecodeChunkNs);
        assert_eq!(count, 3);
        assert_eq!(total, 3 + (1u64 << 40));
        let buckets = m.hist_buckets(Hist::DecodeChunkNs);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[2], 1);
        assert_eq!(buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn shard_metrics_merge_by_index() {
        let m = Metrics::new();
        m.record_shard(ShardMetrics {
            shard: 1,
            events: 10,
            mem_events: 8,
            busy_ns: 100,
            ..Default::default()
        });
        m.record_shard(ShardMetrics {
            shard: 0,
            events: 5,
            ..Default::default()
        });
        // Sender-side send-wait merges into the same shard slot.
        m.record_shard(ShardMetrics {
            shard: 1,
            send_wait_ns: 42,
            ..Default::default()
        });
        let shards = m.shards();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].shard, 0);
        assert_eq!(shards[0].events, 5);
        assert_eq!(shards[1].shard, 1);
        assert_eq!(shards[1].events, 10);
        assert_eq!(shards[1].send_wait_ns, 42);
        assert_eq!(shards[1].busy_ns, 100);
    }

    #[test]
    fn thread_quanta_merge_by_tid() {
        let m = Metrics::new();
        m.record_thread_quanta(1, 3);
        m.record_thread_quanta(0, 7);
        m.record_thread_quanta(1, 2);
        assert_eq!(m.sched(), vec![(0, 7), (1, 5)]);
    }
}
