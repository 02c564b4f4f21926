//! Pipelined replay: decode on worker threads, analysis on the caller's.
//!
//! [`replay_pipelined`] is the one entry point for replaying a whole trace
//! into a sink. At `jobs <= 1` it is [`TraceReader::replay_batched_into`]:
//! decode and analysis interleave on the calling thread. At `jobs >= 2` it
//! overlaps the two layers. `jobs - 1` scoped workers pull raw chunks from
//! the reader one at a time ([`TraceReader::next_raw_chunk`]) and decode
//! each into a pooled [`EventBatch`]; the calling thread hands the decoded
//! batches to the sink **in trace order**, one `on_batch` call per chunk.
//! The sink sees exactly the sequential reader's event stream, needs no
//! `Send` bound, and there is nothing to merge afterwards. When the next
//! batch has not arrived yet, the calling thread decodes a chunk itself
//! instead of waiting, so while decode is the bottleneck (on traces whose
//! profiling is cheap) no thread sits idle.
//!
//! Memory is bounded by a fixed window of [`REPLAY_WINDOW`] batches, not by
//! trace length. A worker takes a free batch *before* it claims the next
//! chunk, and the calling thread returns each batch to the pool once the
//! sink is done with it. Taking the batch first keeps in-order delivery
//! deadlock-free: every claimed chunk already owns the batch it decodes
//! into, so the chunk the sink is waiting for can always finish.
//!
//! Errors match the sequential reader. Results are consumed in trace order,
//! so the error returned is the first one the sequential reader would have
//! hit, structural (from the chunk scan) or payload-level (from a decode).
//! Workers are panic-isolated: a panic while reading or decoding a chunk
//! becomes that chunk's [`TraceError::WorkerPanicked`]. A panic in the sink
//! stops the workers and unwinds out of the call once they are joined.

use crate::error::TraceError;
use crate::par::decode_chunk_into;
use crate::reader::{RawChunk, ReplaySummary, TraceReader};
use alchemist_obs::{Counter, Hist, Metrics, Stage};
use alchemist_vm::{EventBatch, TraceSink, DEFAULT_BATCH_EVENTS};
use std::collections::BTreeMap;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Decoded batches a pipelined replay holds at once: waiting for the sink,
/// being decoded, or being consumed. With the default 4096-event chunks
/// that is about 2 MiB of batch columns, whatever the trace's length.
pub const REPLAY_WINDOW: usize = 16;

/// How [`replay_pipelined`] runs.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Threads to use. `<= 1` replays on the calling thread alone;
    /// `N >= 2` decodes on `N - 1` worker threads (at most
    /// [`REPLAY_WINDOW`]) while the calling thread drives the sink.
    pub jobs: usize,
    /// Events per `on_batch` call when `jobs <= 1`. The pipelined path
    /// delivers one batch per trace chunk instead.
    pub batch_size: usize,
    /// Where to record counters, stage spans and the per-chunk decode
    /// histogram, if anywhere. The `profile` stage gets the calling
    /// thread's time inside the sink (one call), the `decode` stage the
    /// decode time: one call when `jobs <= 1` ([`TraceReader::with_metrics`]),
    /// one per thread when `jobs >= 2`.
    pub metrics: Option<Arc<Metrics>>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            jobs: 1,
            batch_size: DEFAULT_BATCH_EVENTS,
            metrics: None,
        }
    }
}

/// Replays the whole trace into `sink`, decoding on `options.jobs - 1`
/// worker threads when `options.jobs >= 2` (see the [module
/// docs](self)).
///
/// The sink observes the same events in the same order on every job count,
/// so a profile built from it is `==` to the sequential one.
///
/// # Errors
///
/// The first [`TraceError`] in trace order, which is the one the
/// sequential reader would have returned; a panicking decode worker
/// surfaces as [`TraceError::WorkerPanicked`]. Batches delivered before
/// the error are not rolled back.
///
/// # Examples
///
/// ```
/// use alchemist_trace::{replay_pipelined, ReplayOptions, TraceReader, TraceWriter};
/// use alchemist_vm::{compile_source, run, ExecConfig, RecordingSink};
///
/// let src = "int g; int main() { int i; for (i = 0; i < 64; i++) g += i; return g; }";
/// let module = compile_source(src)?;
/// let mut writer = TraceWriter::new(Vec::new(), None).unwrap().with_chunk_capacity(32);
/// let out = run(&module, &ExecConfig::default(), &mut writer).unwrap();
/// let (bytes, _) = writer.finish(out.steps).unwrap();
///
/// let mut live = RecordingSink::default();
/// run(&module, &ExecConfig::default(), &mut live).unwrap();
///
/// let reader = TraceReader::new(bytes.as_slice()).unwrap();
/// let mut replayed = RecordingSink::default();
/// let options = ReplayOptions { jobs: 3, ..ReplayOptions::default() };
/// let summary = replay_pipelined(reader, &mut replayed, options).unwrap();
/// assert_eq!(replayed, live);
/// assert_eq!(summary.total_steps, out.steps);
/// # Ok::<(), alchemist_lang::LangError>(())
/// ```
pub fn replay_pipelined<R, S>(
    reader: TraceReader<R>,
    sink: &mut S,
    options: ReplayOptions,
) -> Result<ReplaySummary, TraceError>
where
    R: Read + Send,
    S: TraceSink + ?Sized,
{
    let ReplayOptions {
        jobs,
        batch_size,
        metrics,
    } = options;
    if jobs <= 1 {
        let mut reader = match metrics {
            Some(m) => reader.with_metrics(m),
            None => reader,
        };
        return reader.replay_batched_into(sink, batch_size);
    }
    pipeline(
        reader,
        sink,
        jobs - 1,
        metrics.as_deref(),
        decode_chunk_into,
    )
}

/// What a worker reports for one position of the trace's chunk sequence.
enum Outcome {
    /// The chunk at this position, decoded.
    Batch(EventBatch),
    /// The footer sits at this position: the trace ended cleanly, with the
    /// footer's step count.
    End(Option<u64>),
    /// Reading or decoding this position failed.
    Failed(TraceError),
}

/// The reader and the next position to hand out, behind one lock.
struct Scan<R: Read> {
    reader: TraceReader<R>,
    next: usize,
    /// Set at the footer or the first failure: no position after it is
    /// ever claimed.
    finished: bool,
}

/// Batches the window holds but no worker or sink is using.
struct Pool {
    free: Vec<EventBatch>,
    /// Batches created so far; never more than [`REPLAY_WINDOW`].
    created: usize,
    /// Set when the calling thread leaves: waiting workers exit.
    stop: bool,
}

struct Shared<R: Read> {
    scan: Mutex<Scan<R>>,
    pool: Mutex<Pool>,
    returned: Condvar,
}

/// Locks `m`, ignoring poison: no code holding these locks can panic
/// (reader calls run under `catch_unwind`), and the data stays valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<R: Read> Shared<R> {
    /// A batch of the window, waiting for one to be returned if `wait`;
    /// `None` once the pipeline stops, or if none is free and `!wait`.
    fn take_batch(&self, wait: bool) -> Option<EventBatch> {
        let mut pool = lock(&self.pool);
        loop {
            if pool.stop {
                return None;
            }
            if let Some(batch) = pool.free.pop() {
                return Some(batch);
            }
            if pool.created < REPLAY_WINDOW {
                pool.created += 1;
                return Some(EventBatch::new());
            }
            if !wait {
                return None;
            }
            pool = self
                .returned
                .wait(pool)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn put_batch(&self, batch: EventBatch) {
        lock(&self.pool).free.push(batch);
        self.returned.notify_one();
    }

    fn stop(&self) {
        lock(&self.pool).stop = true;
        self.returned.notify_all();
    }

    /// Claims the next position and reads its raw chunk: `Ok` with a chunk
    /// to decode, or `Err` with the outcome that ends the sequence there.
    /// `None` once the sequence has ended.
    fn claim(&self) -> Option<(usize, Result<RawChunk, Outcome>)> {
        let mut scan = lock(&self.scan);
        if scan.finished {
            return None;
        }
        let pos = scan.next;
        scan.next += 1;
        let read = catch_unwind(AssertUnwindSafe(|| scan.reader.next_raw_chunk()))
            .unwrap_or_else(|payload| Err(TraceError::worker_panicked(pos as u64, payload)));
        let claimed = match read {
            Ok(Some(chunk)) => return Some((pos, Ok(chunk))),
            Ok(None) => Outcome::End(scan.reader.total_steps()),
            Err(e) => Outcome::Failed(e),
        };
        scan.finished = true;
        Some((pos, Err(claimed)))
    }

    /// Ends the sequence early: the chunk just decoded failed, so nothing
    /// after it will be delivered.
    fn finish_scan(&self) {
        lock(&self.scan).finished = true;
    }
}

/// Stops the workers however the calling thread leaves the scope, a panic
/// unwinding out of the sink included, so the scope's join never waits on
/// a worker parked for a free batch.
struct StopOnDrop<'a, R: Read>(&'a Shared<R>);

impl<R: Read> Drop for StopOnDrop<'_, R> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// The `jobs >= 2` path, with the per-chunk decode step as a parameter.
fn pipeline<R, S, F>(
    reader: TraceReader<R>,
    sink: &mut S,
    workers: usize,
    metrics: Option<&Metrics>,
    decode: F,
) -> Result<ReplaySummary, TraceError>
where
    R: Read + Send,
    S: TraceSink + ?Sized,
    F: Fn(&RawChunk, &mut EventBatch) -> Result<(), TraceError> + Sync,
{
    let shared = Shared {
        scan: Mutex::new(Scan {
            reader,
            next: 0,
            finished: false,
        }),
        pool: Mutex::new(Pool {
            free: Vec::new(),
            created: 0,
            stop: false,
        }),
        returned: Condvar::new(),
    };
    let workers = workers.clamp(1, REPLAY_WINDOW);
    std::thread::scope(|s| {
        let (tx, rx) = channel();
        for _ in 0..workers {
            let (shared, decode, tx) = (&shared, &decode, tx.clone());
            s.spawn(move || decode_worker(shared, &tx, decode, metrics));
        }
        drop(tx);
        let _stop = StopOnDrop(&shared);
        deliver(&shared, &rx, sink, &decode, metrics)
    })
}

/// One decode worker: take a free batch, claim a chunk, decode it, send it.
fn decode_worker<R, F>(
    shared: &Shared<R>,
    results: &Sender<(usize, Outcome)>,
    decode: &F,
    metrics: Option<&Metrics>,
) where
    R: Read,
    F: Fn(&RawChunk, &mut EventBatch) -> Result<(), TraceError>,
{
    let mut busy_ns = 0u64;
    while let Some(batch) = shared.take_batch(true) {
        let Some(done) = decode_next(shared, batch, decode, metrics, &mut busy_ns) else {
            break;
        };
        if results.send(done).is_err() {
            break; // the calling thread has left
        }
    }
    if let Some(m) = metrics {
        m.record_span(Stage::Decode, busy_ns);
    }
}

/// Claims the next position and decodes its chunk into `batch`, adding
/// the decode time to `busy_ns`. `None`, with the batch back in the pool,
/// once the sequence has ended.
fn decode_next<R, F>(
    shared: &Shared<R>,
    mut batch: EventBatch,
    decode: &F,
    metrics: Option<&Metrics>,
    busy_ns: &mut u64,
) -> Option<(usize, Outcome)>
where
    R: Read,
    F: Fn(&RawChunk, &mut EventBatch) -> Result<(), TraceError>,
{
    let Some((pos, claimed)) = shared.claim() else {
        shared.put_batch(batch);
        return None;
    };
    let chunk = match claimed {
        Ok(chunk) => chunk,
        Err(last) => {
            shared.put_batch(batch);
            return Some((pos, last));
        }
    };
    let t0 = metrics.map(|_| Instant::now());
    let decoded = catch_unwind(AssertUnwindSafe(|| decode(&chunk, &mut batch)))
        .unwrap_or_else(|payload| Err(TraceError::worker_panicked(pos as u64, payload)));
    if let (Some(m), Some(t0)) = (metrics, t0) {
        let ns = t0.elapsed().as_nanos() as u64;
        *busy_ns += ns;
        m.observe_ns(Hist::DecodeChunkNs, ns);
    }
    let outcome = match decoded {
        Ok(()) => {
            if let Some(m) = metrics {
                m.incr(Counter::TraceChunksDecoded);
                m.add(Counter::TraceBytesDecoded, chunk.payload.len() as u64);
            }
            Outcome::Batch(batch)
        }
        Err(e) => {
            // The batch is dropped with its window slot, which is safe: no
            // position after this one is claimed.
            shared.finish_scan();
            Outcome::Failed(e)
        }
    };
    Some((pos, outcome))
}

/// The calling thread's side: reorder the workers' results and hand each
/// batch to the sink in trace order. When the next batch has not arrived,
/// it decodes a chunk itself instead of waiting, if the window has a batch
/// to spare, so on a decode-bound trace no thread sits idle.
fn deliver<R, S, F>(
    shared: &Shared<R>,
    results: &Receiver<(usize, Outcome)>,
    sink: &mut S,
    decode: &F,
    metrics: Option<&Metrics>,
) -> Result<ReplaySummary, TraceError>
where
    R: Read,
    S: TraceSink + ?Sized,
    F: Fn(&RawChunk, &mut EventBatch) -> Result<(), TraceError>,
{
    let mut pending = BTreeMap::new();
    let mut next = 0usize;
    let mut events = 0u64;
    let mut sink_ns = 0u64;
    let mut decode_ns = 0u64;
    loop {
        let Some(outcome) = pending.remove(&next) else {
            let lost = || {
                TraceError::worker_lost(
                    next as u64,
                    "every decode worker exited before delivering this chunk",
                )
            };
            let (pos, outcome) = match results.try_recv() {
                Ok(done) => done,
                Err(TryRecvError::Empty) => {
                    let helped = shared.take_batch(false).and_then(|batch| {
                        decode_next(shared, batch, decode, metrics, &mut decode_ns)
                    });
                    match helped {
                        Some(done) => done,
                        None => results.recv().map_err(|_| lost())?,
                    }
                }
                Err(TryRecvError::Disconnected) => return Err(lost()),
            };
            pending.insert(pos, outcome);
            continue;
        };
        match outcome {
            Outcome::Batch(batch) => {
                let t0 = metrics.map(|_| Instant::now());
                sink.on_batch(&batch);
                if let Some(t0) = t0 {
                    sink_ns += t0.elapsed().as_nanos() as u64;
                }
                events += batch.len() as u64;
                shared.put_batch(batch);
                next += 1;
            }
            Outcome::End(total_steps) => {
                if let Some(m) = metrics {
                    m.record_span(Stage::Decode, decode_ns);
                    m.record_span(Stage::Profile, sink_ns);
                    m.add(Counter::TraceEventsDecoded, events);
                }
                return Ok(ReplaySummary {
                    events,
                    total_steps: total_steps.ok_or(TraceError::Truncated("missing footer"))?,
                });
            }
            Outcome::Failed(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::tests::{sample_trace, sample_trace_with};
    use crate::writer::TraceWriter;
    use alchemist_vm::{Event, RecordingSink, Tid};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn replay(bytes: &[u8], jobs: usize) -> Result<(RecordingSink, ReplaySummary), TraceError> {
        let reader = TraceReader::new(bytes)?;
        let mut sink = RecordingSink::default();
        let options = ReplayOptions {
            jobs,
            ..ReplayOptions::default()
        };
        let summary = replay_pipelined(reader, &mut sink, options)?;
        Ok((sink, summary))
    }

    fn raw_chunks(bytes: &[u8]) -> Vec<RawChunk> {
        let mut reader = TraceReader::new(bytes).unwrap();
        reader.read_raw_chunks().unwrap().0
    }

    #[test]
    fn every_job_count_delivers_the_sequential_stream() {
        // 800 events in 7-event chunks: 115 chunks, so the 16-batch window
        // wraps many times.
        let (bytes, live) = sample_trace(7, 200);
        assert!(raw_chunks(&bytes).len() > 6 * REPLAY_WINDOW);
        for jobs in [1usize, 2, 3, 4, 9] {
            let (sink, summary) = replay(&bytes, jobs).unwrap();
            assert_eq!(sink.events, live.events, "jobs={jobs}");
            assert_eq!(summary.events, live.events.len() as u64, "jobs={jobs}");
        }
    }

    #[test]
    fn edge_cases_deliver_the_sequential_stream() {
        let (empty, _) = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .finish(5)
            .unwrap();
        let single = sample_trace(1000, 5);
        assert_eq!(raw_chunks(&single.0).len(), 1);
        let v2 = sample_trace_with(TraceWriter::new_v2(Vec::new(), None).unwrap(), 7, 40, |i| {
            Tid(i % 5)
        });
        assert!(v2.1.events.iter().any(|e| e.tid() != Tid::MAIN));
        for jobs in [2usize, 3, 4, 64] {
            let (sink, summary) = replay(&empty, jobs).unwrap();
            assert!(sink.events.is_empty(), "jobs={jobs}");
            assert_eq!((summary.events, summary.total_steps), (0, 5), "jobs={jobs}");
            for (bytes, live) in [&single, &v2] {
                let (sink, _) = replay(bytes, jobs).unwrap();
                assert_eq!(sink.events, live.events, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn corruption_errors_exactly_where_the_sequential_reader_does() {
        let (bytes, _) = sample_trace(7, 12);
        for pos in (8..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let Ok(reader) = TraceReader::new(corrupt.as_slice()) else {
                continue; // the header itself is rejected, on any job count
            };
            let seq: Result<Vec<Event>, TraceError> = reader.collect();
            for jobs in [2usize, 4] {
                match (&seq, replay(&corrupt, jobs)) {
                    (Ok(events), Ok((sink, _))) => {
                        assert_eq!(&sink.events, events, "flip at {pos}")
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "flip at {pos}, jobs={jobs}")
                    }
                    (a, b) => panic!("flip at {pos}, jobs={jobs}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn a_panicking_decode_is_a_typed_error_at_its_chunk() {
        let (bytes, live) = sample_trace(7, 200);
        let chunks = raw_chunks(&bytes);
        let bad = chunks[20].t_first;
        let before: usize = chunks[..20].iter().map(|c| c.events as usize).sum();
        for workers in [1usize, 3] {
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let mut sink = RecordingSink::default();
            let err = pipeline(reader, &mut sink, workers, None, |chunk, batch| {
                assert_ne!(chunk.t_first, bad, "decoder bug");
                decode_chunk_into(chunk, batch)
            })
            .unwrap_err();
            match err {
                TraceError::WorkerPanicked(p) => {
                    assert_eq!(p.chunk_index, 20, "workers={workers}");
                    assert!(p.payload.contains("decoder bug"), "{p:?}");
                }
                other => panic!("workers={workers}: {other:?}"),
            }
            // Everything before the bad chunk was delivered, nothing after.
            assert_eq!(sink.events, live.events[..before], "workers={workers}");
        }
    }

    /// Panics on its `n`th batch.
    struct PanicOnBatch {
        n: usize,
    }

    impl TraceSink for PanicOnBatch {
        fn on_batch(&mut self, _batch: &EventBatch) {
            self.n -= 1;
            assert!(self.n > 0, "sink gave up");
        }
    }

    #[test]
    fn a_panicking_sink_unwinds_out_of_the_call() {
        // Far more chunks than the window: when the sink panics, workers
        // are parked waiting for free batches and must be released.
        let (bytes, _) = sample_trace(7, 200);
        for jobs in [2usize, 4] {
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let mut sink = PanicOnBatch { n: 3 };
            let options = ReplayOptions {
                jobs,
                ..ReplayOptions::default()
            };
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                replay_pipelined(reader, &mut sink, options)
            }));
            let payload = unwound.expect_err("the sink's panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"sink gave up"),
                "jobs={jobs}"
            );
        }
    }

    /// A byte source that publishes how far the reader has read.
    struct SharedCursor<'a> {
        bytes: &'a [u8],
        pos: &'a AtomicUsize,
    }

    impl Read for SharedCursor<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let at = self.pos.load(Ordering::SeqCst);
            let n = buf.len().min(self.bytes.len() - at);
            buf[..n].copy_from_slice(&self.bytes[at..at + n]);
            self.pos.store(at + n, Ordering::SeqCst);
            Ok(n)
        }
    }

    /// Counts, at every delivery, the chunks read but not yet delivered.
    struct WindowProbe<'a> {
        pos: &'a AtomicUsize,
        /// Byte offset at which each chunk's payload ends.
        ends: Vec<usize>,
        delivered: usize,
        max_ahead: usize,
    }

    impl TraceSink for WindowProbe<'_> {
        fn on_batch(&mut self, batch: &EventBatch) {
            let read = self.pos.load(Ordering::SeqCst);
            let claimed = self.ends.iter().filter(|&&end| end <= read).count();
            self.max_ahead = self.max_ahead.max(claimed - self.delivered);
            self.delivered += 1;
            // A slow sink, so the workers get every chance to run ahead.
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = std::hint::black_box(acc.wrapping_add(i ^ batch.len() as u64));
            }
        }
    }

    #[test]
    fn the_pipeline_never_holds_more_chunks_than_its_window() {
        let (bytes, live) = sample_trace(7, 400);
        let pos = AtomicUsize::new(0);
        let mut scan = TraceReader::new(SharedCursor {
            bytes: &bytes,
            pos: &pos,
        })
        .unwrap();
        let mut ends = Vec::new();
        while scan.next_raw_chunk().unwrap().is_some() {
            ends.push(pos.load(Ordering::SeqCst));
        }
        assert!(ends.len() > 10 * REPLAY_WINDOW);
        for jobs in [2usize, 4, 9] {
            let pos = AtomicUsize::new(0);
            let reader = TraceReader::new(SharedCursor {
                bytes: &bytes,
                pos: &pos,
            })
            .unwrap();
            let mut probe = WindowProbe {
                pos: &pos,
                ends: ends.clone(),
                delivered: 0,
                max_ahead: 0,
            };
            let options = ReplayOptions {
                jobs,
                ..ReplayOptions::default()
            };
            let summary = replay_pipelined(reader, &mut probe, options).unwrap();
            assert_eq!(summary.events, live.events.len() as u64);
            assert_eq!(probe.delivered, ends.len(), "one batch per chunk");
            assert!(
                probe.max_ahead <= REPLAY_WINDOW,
                "jobs={jobs}: {} chunks read but undelivered",
                probe.max_ahead
            );
        }
    }

    #[test]
    fn metrics_count_like_the_sequential_replay_and_split_the_stages() {
        let (bytes, live) = sample_trace(7, 200);
        let chunks = raw_chunks(&bytes).len() as u64;
        let counts = |jobs: usize| {
            let m = Arc::new(Metrics::new());
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let options = ReplayOptions {
                jobs,
                batch_size: DEFAULT_BATCH_EVENTS,
                metrics: Some(Arc::clone(&m)),
            };
            replay_pipelined(reader, &mut RecordingSink::default(), options).unwrap();
            let c = [
                Counter::TraceChunksDecoded,
                Counter::TraceBytesDecoded,
                Counter::TraceEventsDecoded,
            ]
            .map(|c| m.get(c));
            (c, m)
        };
        let (seq, _) = counts(1);
        assert_eq!(seq[0], chunks);
        assert_eq!(seq[2], live.events.len() as u64);
        let (par, m) = counts(4);
        assert_eq!(par, seq, "same counters on every job count");
        assert_eq!(m.stage(Stage::Decode).1, 4, "one decode span per thread");
        assert_eq!(m.stage(Stage::Profile).1, 1, "one sink span");
        assert_eq!(m.hist_totals(Hist::DecodeChunkNs).0, chunks);
    }
}
