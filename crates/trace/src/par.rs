//! Chunk-parallel trace decoding.
//!
//! `.alct` chunks are self-contained — each carries its own event count and
//! reseeds the delta codec at its `t_first` — so after the cheap sequential
//! scan that slices the stream into [`RawChunk`]s, every payload decodes
//! independently. [`decode_batches_par`] fans the chunks out to scoped
//! worker threads (work-stealing over an atomic cursor, so a few oversized
//! chunks cannot serialize the pool) and returns one [`EventBatch`] per
//! chunk in trace order.
//!
//! Errors match the sequential reader: the error reported is the one it
//! would have hit first, a payload error in an earlier chunk before a
//! structural one in a later chunk, and no events are returned.

use crate::error::TraceError;
use crate::format;
use crate::reader::{RawChunk, RecoveryReport, ReplaySummary, TraceReader};
use alchemist_obs::{span_opt, Counter, Hist, Metrics, Stage};
use alchemist_vm::EventBatch;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Decodes one raw chunk into `batch` (cleared first) with
/// [`format::decode_chunk`].
///
/// # Errors
///
/// Any payload-level [`TraceError`]; rows decoded before the error remain
/// in `batch` and should be discarded by the caller.
pub fn decode_chunk_into(chunk: &RawChunk, batch: &mut EventBatch) -> Result<(), TraceError> {
    batch.clear();
    format::decode_chunk(
        chunk.version,
        chunk.t_first,
        chunk.events,
        &chunk.payload,
        batch,
    )
}

/// Runs `decode` over every chunk on `jobs` worker threads (work-stealing
/// over an atomic cursor) and returns the per-chunk results in trace
/// order. `jobs <= 1` decodes inline.
///
/// Every call of `decode` runs under [`catch_unwind`]: on any job count a
/// panic becomes that chunk's [`TraceError::WorkerPanicked`] result, so
/// the caller reports it in trace order like any other decode error.
fn decode_chunks_ordered<T, F>(
    chunks: &[RawChunk],
    jobs: usize,
    decode: F,
) -> Vec<Result<T, TraceError>>
where
    T: Send,
    F: Fn(&RawChunk) -> Result<T, TraceError> + Sync,
{
    let decode_one = |i: usize, chunk: &RawChunk| {
        catch_unwind(AssertUnwindSafe(|| decode(chunk)))
            .unwrap_or_else(|payload| Err(TraceError::worker_panicked(i as u64, payload)))
    };
    if jobs <= 1 {
        return chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| decode_one(i, chunk))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let (cursor, decode_one) = (&cursor, &decode_one);
    let mut slots: Vec<Option<Result<T, TraceError>>> = chunks.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(i) else {
                            return done;
                        };
                        done.push((i, decode_one(i, chunk)));
                    }
                })
            })
            .collect();
        for handle in handles {
            // The decode itself cannot unwind past `decode_one`; a worker
            // lost anyway leaves its chunks as `None`, reported below.
            for (i, result) in handle.join().unwrap_or_default() {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(TraceError::worker_lost(
                    i as u64,
                    "decode worker exited before decoding this chunk",
                ))
            })
        })
        .collect()
}

/// Decodes every chunk into its own batch on `jobs` threads, in trace
/// order. With `metrics`, each chunk's decode latency goes into
/// [`Hist::DecodeChunkNs`] along with the chunk and byte counters.
fn decode_batches(
    chunks: &[RawChunk],
    jobs: usize,
    metrics: Option<&Metrics>,
) -> Vec<Result<EventBatch, TraceError>> {
    let jobs = jobs.max(1).min(chunks.len().max(1));
    decode_chunks_ordered(chunks, jobs, |chunk| {
        let t0 = metrics.map(|_| Instant::now());
        let mut batch = EventBatch::new();
        decode_chunk_into(chunk, &mut batch)?;
        if let (Some(m), Some(t0)) = (metrics, t0) {
            m.observe_ns(Hist::DecodeChunkNs, t0.elapsed().as_nanos() as u64);
            m.incr(Counter::TraceChunksDecoded);
            m.add(Counter::TraceBytesDecoded, chunk.payload.len() as u64);
        }
        Ok(batch)
    })
}

/// Decodes a whole trace chunk-parallel into one [`EventBatch`] per chunk.
///
/// Concatenating the batches' rows yields exactly the sequential reader's
/// event stream, with the same `total_steps`, but the payloads decode on
/// `jobs` worker threads (`jobs <= 1`, or a single-chunk trace, decodes
/// inline). Batch-aware consumers (`alchemist_core::profile_batches`,
/// fan-outs) then process them without ever materializing a
/// `Vec<Event>`; [`EventBatch::iter`] yields the events of a batch.
///
/// # Errors
///
/// The first error in trace order, as the sequential reader reports it
/// (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use alchemist_trace::{decode_batches_par, TraceReader, TraceWriter};
/// use alchemist_vm::{compile_source, run, Event, ExecConfig, RecordingSink};
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
/// let (batches, summary) = decode_batches_par(reader, 4).unwrap();
/// let events: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
/// assert_eq!(events, live.events);
/// assert_eq!(summary.total_steps, out.steps);
/// # Ok::<(), alchemist_lang::LangError>(())
/// ```
pub fn decode_batches_par<R: Read>(
    reader: TraceReader<R>,
    jobs: usize,
) -> Result<(Vec<EventBatch>, ReplaySummary), TraceError> {
    decode_batches_par_with(reader, jobs, None)
}

/// [`decode_batches_par`] with self-instrumentation: when `metrics` is
/// `Some`, the whole fan-out runs under a `decode` stage span, every worker
/// records its chunk's decode latency into [`Hist::DecodeChunkNs`] plus the
/// chunk/byte counters, and the total decoded event count is folded in at
/// the end. With `None` this *is* [`decode_batches_par`] — not even a clock
/// read on any path.
///
/// # Errors
///
/// Same as [`decode_batches_par`].
pub fn decode_batches_par_with<R: Read>(
    mut reader: TraceReader<R>,
    jobs: usize,
    metrics: Option<&Metrics>,
) -> Result<(Vec<EventBatch>, ReplaySummary), TraceError> {
    let _decode_span = span_opt(metrics, Stage::Decode);
    // Scan up to the first structural error, but report it only after the
    // chunks before it have decoded: a payload error among them comes
    // first in trace order.
    let mut chunks = Vec::new();
    let scanned = loop {
        match reader.next_raw_chunk() {
            Ok(Some(chunk)) => chunks.push(chunk),
            Ok(None) => {
                break reader
                    .total_steps()
                    .ok_or(TraceError::Truncated("missing footer"))
            }
            Err(e) => break Err(e),
        }
    };
    let batches = decode_batches(&chunks, jobs, metrics)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let total_steps = scanned?;
    let events = batches.iter().map(|b| b.len() as u64).sum();
    if let Some(m) = metrics {
        m.add(Counter::TraceEventsDecoded, events);
    }
    Ok((
        batches,
        ReplaySummary {
            events,
            total_steps,
        },
    ))
}

/// Salvage twin of [`decode_batches_par_with`]: skips corrupt chunks
/// instead of aborting and never fails past the header.
///
/// The chunk scan drops chunks with bad CRCs or truncated payloads
/// ([`TraceReader::read_raw_chunks_recover`]); this layer additionally
/// drops chunks whose payloads fail to *decode* — the only way v1/v2
/// corruption (no CRC) can be detected — and folds those into the same
/// [`RecoveryReport`]. Surviving batches are in trace order; the summary's
/// `total_steps` is exact when the footer survived and a lower-bound
/// estimate otherwise.
pub fn decode_batches_par_recover<R: Read>(
    mut reader: TraceReader<R>,
    jobs: usize,
    metrics: Option<&Metrics>,
) -> (Vec<EventBatch>, ReplaySummary, RecoveryReport) {
    let _decode_span = span_opt(metrics, Stage::Decode);
    let (chunks, total_steps, mut report) = reader.read_raw_chunks_recover();
    let decoded = decode_batches(&chunks, jobs, metrics);
    let mut batches = Vec::with_capacity(chunks.len());
    let mut events = 0u64;
    for (chunk, result) in chunks.iter().zip(decoded) {
        match result {
            Ok(batch) => {
                events += batch.len() as u64;
                batches.push(batch);
            }
            Err(err) => {
                // The scan credited this chunk as salvaged; take it back.
                report.events_salvaged -= chunk.events;
                report.record_failure(&err, chunk.events, None);
            }
        }
    }
    if let Some(m) = metrics {
        m.add(Counter::TraceEventsDecoded, events);
    }
    (
        batches,
        ReplaySummary {
            events,
            total_steps,
        },
        report,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use alchemist_lang::hir::FuncId;
    use alchemist_vm::{Event, Pc, RecordingSink, Tid, TraceSink};

    /// The events of a whole-trace decode, flattened.
    fn decode_events(bytes: &[u8], jobs: usize) -> Result<Vec<Event>, TraceError> {
        let (batches, _) = decode_batches_par(TraceReader::new(bytes)?, jobs)?;
        Ok(batches.iter().flat_map(EventBatch::iter).collect())
    }

    /// What the sequential reader's iterator yields: the events, or its
    /// error's text.
    fn iterate(bytes: &[u8]) -> Result<Vec<Event>, String> {
        TraceReader::new(bytes)
            .and_then(|r| r.collect())
            .map_err(|e| e.to_string())
    }

    /// A trace of `rounds` enter/read/write/exit groups in chunks of
    /// `chunk_capacity` events, with the live stream it must replay to.
    pub(crate) fn sample_trace(chunk_capacity: usize, rounds: u32) -> (Vec<u8>, RecordingSink) {
        sample_trace_with(
            TraceWriter::new(Vec::new(), Some("int main() { return 0; }")).unwrap(),
            chunk_capacity,
            rounds,
            |_| Tid::MAIN,
        )
    }

    /// [`sample_trace`] through writer `w`, with thread ids from `tid_of`.
    pub(crate) fn sample_trace_with(
        w: TraceWriter<Vec<u8>>,
        chunk_capacity: usize,
        rounds: u32,
        tid_of: impl Fn(u32) -> Tid,
    ) -> (Vec<u8>, RecordingSink) {
        let mut live = RecordingSink::default();
        let mut w = w.with_chunk_capacity(chunk_capacity);
        let mut t = 0;
        for i in 0..rounds {
            let tid = tid_of(i);
            live.on_enter_function(t, FuncId(i % 3), 8 * i, tid);
            w.on_enter_function(t, FuncId(i % 3), 8 * i, tid);
            t += 2;
            live.on_read(t, i, Pc(i * 5), tid);
            w.on_read(t, i, Pc(i * 5), tid);
            t += 1;
            live.on_write(t, i + 100, Pc(i * 5 + 1), tid);
            w.on_write(t, i + 100, Pc(i * 5 + 1), tid);
            t += 40;
            live.on_exit_function(t, FuncId(i % 3), tid);
            w.on_exit_function(t, FuncId(i % 3), tid);
            t += 1;
        }
        let (bytes, _) = w.finish(t).unwrap();
        (bytes, live)
    }

    #[test]
    fn parallel_decode_equals_sequential_iteration() {
        let (bytes, live) = sample_trace(7, 40);
        let seq = iterate(&bytes).unwrap();
        assert_eq!(seq, live.events);
        for jobs in [1usize, 2, 4, 9] {
            assert_eq!(decode_events(&bytes, jobs).unwrap(), seq, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_batch_decode_equals_event_decode() {
        let (bytes, live) = sample_trace(7, 40);
        for jobs in [1usize, 2, 4, 9] {
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let (batches, summary) = decode_batches_par(reader, jobs).unwrap();
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(flat, live.events, "jobs={jobs}");
            assert_eq!(summary.events, live.events.len() as u64);
            // One batch per event-bearing chunk, each matching its chunk.
            let infos = TraceReader::new(bytes.as_slice())
                .unwrap()
                .read_chunk_infos()
                .unwrap();
            assert_eq!(batches.len(), infos.len(), "jobs={jobs}");
            for (b, info) in batches.iter().zip(&infos) {
                assert_eq!(b.len() as u64, info.events, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn metrics_instrumented_decode_matches_uninstrumented() {
        let (bytes, live) = sample_trace(7, 40);
        let m = Metrics::new();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let (batches, summary) = decode_batches_par_with(reader, 4, Some(&m)).unwrap();
        let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
        assert_eq!(flat, live.events);
        assert_eq!(summary.events, live.events.len() as u64);

        let infos = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_chunk_infos()
            .unwrap();
        assert_eq!(m.get(Counter::TraceChunksDecoded), infos.len() as u64);
        assert_eq!(m.get(Counter::TraceEventsDecoded), live.events.len() as u64);
        assert!(m.get(Counter::TraceBytesDecoded) > 0);
        let (count, _total) = m.hist_totals(Hist::DecodeChunkNs);
        assert_eq!(count, infos.len() as u64);
        let (wall, calls) = m.stage(Stage::Decode);
        assert_eq!(calls, 1);
        assert!(wall > 0);
    }

    #[test]
    fn batch_decode_reports_corruption_like_event_decode() {
        // The v2 twin of the test below: the thread-id column is damaged
        // too, and both decoders must agree on the events or the error.
        let (bytes, _) =
            sample_trace_with(TraceWriter::new_v2(Vec::new(), None).unwrap(), 7, 12, |i| {
                Tid(i % 3)
            });
        for pos in (8..bytes.len()).step_by(5) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let seq = iterate(&corrupt);
            for jobs in [1usize, 4] {
                let par = decode_events(&corrupt, jobs).map_err(|e| e.to_string());
                assert_eq!(par, seq, "flip at {pos}, jobs={jobs}");
            }
        }
    }

    #[test]
    fn a_panicking_decode_is_that_chunks_typed_error_on_any_job_count() {
        let (bytes, _) = sample_trace(7, 40);
        let (chunks, _) = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_raw_chunks()
            .unwrap();
        let bad = chunks[3].t_first;
        for jobs in [1usize, 2, 4] {
            let results = decode_chunks_ordered(&chunks, jobs, |chunk| {
                assert_ne!(chunk.t_first, bad, "decoder bug");
                let mut batch = EventBatch::new();
                decode_chunk_into(chunk, &mut batch).map(|()| batch)
            });
            assert_eq!(results.len(), chunks.len(), "jobs={jobs}");
            for (i, result) in results.iter().enumerate() {
                match result {
                    Err(TraceError::WorkerPanicked(p)) => {
                        assert_eq!((i, p.chunk_index), (3, 3), "jobs={jobs}");
                        assert!(p.payload.contains("decoder bug"), "{p:?}");
                    }
                    other => assert!(other.is_ok(), "jobs={jobs} chunk {i}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_decode_of_empty_trace() {
        let (bytes, _) = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .finish(5)
            .unwrap();
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let (batches, summary) = decode_batches_par(reader, 8).unwrap();
        assert!(batches.is_empty());
        assert_eq!((summary.events, summary.total_steps), (0, 5));
    }

    #[test]
    fn more_jobs_than_chunks_is_fine() {
        let (bytes, live) = sample_trace(1000, 5);
        assert_eq!(decode_events(&bytes, 32).unwrap(), live.events);
    }

    #[test]
    fn corruption_behaves_like_the_sequential_reader() {
        // Flip byte positions in turn: the parallel decoder must deliver
        // the sequential reader's events where the flip is benign, and
        // fail with its error text where it is not.
        let (bytes, _) = sample_trace(7, 12);
        for pos in (8..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let par = decode_events(&corrupt, 4).map_err(|e| e.to_string());
            assert_eq!(par, iterate(&corrupt), "flip at {pos}");
        }
    }

    #[test]
    fn a_payload_error_wins_over_a_later_structural_error() {
        // Chunk 1's first event loses its lead byte's tag (a payload
        // error) and the trace loses its footer (a structural error two
        // chunks later): the sequential reader stops at chunk 1.
        let (bytes, _) = sample_trace(7, 12);
        let chunks = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_raw_chunks()
            .unwrap()
            .0;
        let needle = chunks[1].payload.as_slice();
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        let mut corrupt = bytes[..bytes.len() - 2].to_vec();
        corrupt[at] |= 0x07;
        let seq = iterate(&corrupt);
        assert_eq!(seq, Err("undefined event tag 7".to_string()));
        for jobs in [1usize, 4] {
            let par = decode_events(&corrupt, jobs).map_err(|e| e.to_string());
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_decode_preserves_v2_thread_ids() {
        let (bytes, live) =
            sample_trace_with(TraceWriter::new_v2(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 5)
            });
        assert!(live.events.iter().any(|e| e.tid() != Tid::MAIN));
        for jobs in [1usize, 2, 4] {
            assert_eq!(
                decode_events(&bytes, jobs).unwrap(),
                live.events,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn recover_decode_of_a_clean_trace_matches_normal_decode() {
        let fixtures = [
            sample_trace_with(TraceWriter::new(Vec::new(), None).unwrap(), 7, 40, |_| {
                Tid::MAIN
            }),
            sample_trace_with(TraceWriter::new_v2(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 5)
            }),
            sample_trace_with(TraceWriter::new_v3(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 5)
            }),
        ];
        for (bytes, live) in &fixtures {
            let reader = TraceReader::new(bytes.as_slice()).unwrap();
            let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
            assert!(report.is_clean(), "{report:?}");
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(flat, live.events);
            assert_eq!(summary.events, live.events.len() as u64);
            assert_eq!(report.events_salvaged, summary.events);
        }
    }

    #[test]
    fn recover_decode_salvages_prefixes_of_truncated_traces() {
        let (bytes, live) = sample_trace(7, 40);
        for cut in (10..bytes.len()).step_by(17) {
            let Ok(reader) = TraceReader::new(&bytes[..cut]) else {
                continue; // cut inside the header: nothing to salvage
            };
            let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(
                flat[..],
                live.events[..flat.len()],
                "cut={cut}: salvage must be a clean prefix"
            );
            assert_eq!(summary.events, flat.len() as u64);
            assert!(
                !report.is_clean() || cut == bytes.len(),
                "cut={cut}: truncation must be reported"
            );
        }
    }

    #[test]
    fn recover_decode_never_errors_on_flipped_bytes() {
        let (bytes, live) = sample_trace(7, 12);
        for pos in (8..bytes.len()).step_by(13) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xff;
            let Ok(reader) = TraceReader::new(corrupt.as_slice()) else {
                continue;
            };
            let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
            let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(summary.events, flat.len() as u64, "flip at {pos}");
            assert_eq!(report.events_salvaged, summary.events, "flip at {pos}");
            if report.is_clean() {
                assert_eq!(flat, live.events, "flip at {pos} was claimed clean");
            }
        }
    }

    #[test]
    fn recover_decode_skips_crc_corrupt_chunks_on_v3() {
        let (bytes, live) =
            sample_trace_with(TraceWriter::new_v3(Vec::new(), None).unwrap(), 7, 40, |i| {
                Tid(i % 3)
            });
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let (clean_batches, _, _) = decode_batches_par_recover(reader, 1, None);
        assert!(clean_batches.len() >= 3);
        // Corrupt one payload byte of an interior chunk.
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let (raw, _, _) = r.read_raw_chunks_recover();
        let needle = raw[1].payload.as_slice();
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x80;
        let reader = TraceReader::new(corrupt.as_slice()).unwrap();
        let (batches, summary, report) = decode_batches_par_recover(reader, 4, None);
        assert_eq!(report.chunks_skipped, 1, "{report:?}");
        assert_eq!(report.crc_mismatches, 1);
        assert!(report.footer_recovered);
        let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
        let expect: Vec<Event> = clean_batches
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .flat_map(|(_, b)| b.iter())
            .collect();
        assert_eq!(flat, expect, "all chunks but the corrupt one survive");
        assert_eq!(summary.events, live.events.len() as u64 - raw[1].events);
    }

    #[test]
    fn raw_chunks_partition_the_events() {
        let (bytes, live) = sample_trace(8, 25);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let (chunks, total_steps) = r.read_raw_chunks().unwrap();
        assert!(chunks.len() > 1);
        assert_eq!(
            chunks.iter().map(|c| c.events).sum::<u64>(),
            live.events.len() as u64
        );
        assert!(total_steps > 0);
        let mut batch = EventBatch::new();
        let mut rejoined = Vec::new();
        for chunk in &chunks {
            decode_chunk_into(chunk, &mut batch).unwrap();
            rejoined.extend(batch.iter());
        }
        assert_eq!(rejoined, live.events);
    }
}
