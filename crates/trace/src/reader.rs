//! Replay: a [`TraceReader`] decodes a recorded trace back into the exact
//! event stream the interpreter produced, one event at a time
//! (`Iterator`), into a sink ([`TraceReader::replay_into`]), in blocks
//! ([`TraceReader::read_batch`]) or windowed by time with whole-chunk
//! skipping ([`TraceReader::replay_window`]), each over whole chunks
//! decoded by [`format::decode_chunk`].

use crate::error::TraceError;
use crate::format;
use crate::varint;
use alchemist_obs::{Counter, Metrics, Stage};
use alchemist_vm::{Event, EventBatch, TraceSink};
use std::io::Read;
use std::sync::Arc;
use std::time::Instant;

/// Chunk-level metadata, decodable without touching the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Events in the chunk.
    pub events: u64,
    /// Timestamp of the chunk's first event.
    pub t_first: u64,
    /// Timestamp of the chunk's last event.
    pub t_last: u64,
    /// Encoded payload size in bytes.
    pub payload_bytes: u64,
}

/// One event-bearing chunk with its payload still encoded: the unit of
/// work for parallel decode ([`decode_batches_par`](crate::decode_batches_par)
/// and [`replay_pipelined`](crate::replay_pipelined)).
///
/// The delta codec resets at every chunk boundary (it is seeded with
/// `t_first`), so a `RawChunk` decodes independently of every other chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChunk {
    /// Events in the chunk.
    pub events: u64,
    /// Timestamp of the chunk's first event (seeds the codec state).
    pub t_first: u64,
    /// Trace format version the payload was encoded under. v2 payloads
    /// open with a thread-id column before the event stream.
    pub version: u16,
    /// The still-encoded payload.
    pub payload: Vec<u8>,
}

/// What a full replay delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Events dispatched to the sink.
    pub events: u64,
    /// The recorded run's total retired-instruction count (from the
    /// footer); this is what profile finalization needs.
    pub total_steps: u64,
}

struct ChunkHeader {
    payload_len: u64,
    events: u64,
    t_first: u64,
    t_span: u64,
    /// Stored payload CRC-32 (v3 traces only).
    crc: Option<u32>,
}

/// What salvage replay (`--recover`) had to work around, and what it saved.
///
/// Produced by [`TraceReader::read_raw_chunks_recover`] /
/// [`TraceReader::read_chunk_infos_recover`] (and refined by
/// [`decode_batches_par_recover`](crate::decode_batches_par_recover), which
/// also drops chunks whose *payloads* fail to decode). A report with
/// [`RecoveryReport::is_clean`] `== true` means the salvaged result is
/// exactly what a normal replay would have produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Event-bearing chunks seen in the stream, good and bad.
    pub chunks_total: u64,
    /// Chunks dropped (bad CRC, truncated, or undecodable payload).
    pub chunks_skipped: u64,
    /// Events delivered from surviving chunks.
    pub events_salvaged: u64,
    /// Events declared by dropped chunks (lower bound on what was lost).
    pub events_lost: u64,
    /// Byte offset of the first chunk that failed, if any failed.
    pub first_bad_offset: Option<u64>,
    /// The stream ended mid-chunk (or on a hard I/O error): everything
    /// after `first_bad_offset` was abandoned.
    pub truncated_tail: bool,
    /// The footer was read intact; `total_steps` is exact, not estimated.
    pub footer_recovered: bool,
    /// Chunks whose stored CRC-32 did not match their payload (v3 only).
    pub crc_mismatches: u64,
    /// Chunks lost to truncation (stream ended inside header or payload).
    pub truncations: u64,
    /// Chunks lost to payload/structural decode errors.
    pub decode_errors: u64,
}

impl RecoveryReport {
    /// `true` when nothing was skipped, the tail was intact and the footer
    /// was read — i.e. salvage degenerated to a normal full replay.
    pub fn is_clean(&self) -> bool {
        self.chunks_skipped == 0
            && !self.truncated_tail
            && self.footer_recovered
            && self.decode_errors == 0
    }

    /// Folds one failed chunk into the tallies (shared by the scan and the
    /// decode layers; the decode layer no longer knows file offsets, so
    /// `offset` is optional).
    pub(crate) fn record_failure(&mut self, err: &TraceError, events: u64, offset: Option<u64>) {
        self.chunks_skipped += 1;
        self.events_lost += events;
        if self.first_bad_offset.is_none() {
            self.first_bad_offset = offset;
        }
        match err {
            TraceError::ChecksumMismatch { .. } => self.crc_mismatches += 1,
            TraceError::Truncated(_) | TraceError::Io(_) => self.truncations += 1,
            _ => self.decode_errors += 1,
        }
    }
}

/// A [`Read`] adapter that tracks the absolute byte offset, so salvage can
/// report *where* a trace went bad.
#[derive(Debug)]
struct Counting<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.offset += n as u64;
        Ok(n)
    }
}

/// Streaming decoder for `.alct` traces.
///
/// Iterating yields `Result<Event, TraceError>`; any corruption surfaces
/// as a typed error, never a panic. Use one access mode per reader —
/// event iteration, [`TraceReader::replay_into`],
/// [`TraceReader::replay_window`], [`TraceReader::read_chunk_infos`], or
/// [`TraceReader::read_raw_chunks`] — since all of them advance the same
/// underlying stream.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: Counting<R>,
    version: u16,
    source: Option<String>,
    /// Payload of the chunk being decoded.
    chunk: Vec<u8>,
    /// That chunk's decoded rows (those before `failed`, if it failed).
    decoded: EventBatch,
    /// Next row of `decoded` to hand out.
    row: usize,
    /// The error that ends the chunk, reported once `decoded` is used up.
    failed: Option<TraceError>,
    total_steps: Option<u64>,
    finished: bool,
    events_read: u64,
    /// Chunk headers read so far (context for checksum errors).
    chunks_seen: u64,
    metrics: Option<Arc<Metrics>>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating magic, version and header flags.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] for
    /// foreign files, [`TraceError::Truncated`] for streams cut inside the
    /// header, [`TraceError::CorruptSource`] if the embedded program is not
    /// UTF-8.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut input = Counting {
            inner: input,
            offset: 0,
        };
        let mut magic = [0u8; 4];
        read_exact_or(&mut input, &mut magic, "header magic")?;
        if magic != format::MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let mut word = [0u8; 2];
        read_exact_or(&mut input, &mut word, "header version")?;
        let version = u16::from_le_bytes(word);
        if !(format::MIN_VERSION..=format::MAX_VERSION).contains(&version) {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                min_supported: format::MIN_VERSION,
                max_supported: format::MAX_VERSION,
                chunk_index: 0,
            });
        }
        read_exact_or(&mut input, &mut word, "header flags")?;
        let flags = u16::from_le_bytes(word);
        if flags & !format::KNOWN_FLAGS != 0 {
            return Err(TraceError::Malformed("unknown header flag bits"));
        }
        let source = if flags & format::FLAG_SOURCE != 0 {
            let len =
                varint::read_u64_from(&mut input)?.ok_or(TraceError::Truncated("source length"))?;
            if len > format::MAX_SOURCE_BYTES {
                return Err(TraceError::ChunkTooLarge(len));
            }
            let mut bytes = vec![0u8; len as usize];
            read_exact_or(&mut input, &mut bytes, "embedded source")?;
            Some(String::from_utf8(bytes).map_err(|e| TraceError::CorruptSource(e.utf8_error()))?)
        } else {
            None
        };
        Ok(TraceReader {
            input,
            version,
            source,
            chunk: Vec::new(),
            decoded: EventBatch::new(),
            row: 0,
            failed: None,
            total_steps: None,
            finished: false,
            events_read: 0,
            chunks_seen: 0,
            metrics: None,
        })
    }

    /// Attaches a metrics sink: streaming decode counts each loaded chunk
    /// and its payload bytes, and folds the total decoded event count in at
    /// the footer. Costs a couple of atomic adds per chunk, nothing per
    /// event; [`TraceReader::replay_batched_into`] also records its
    /// `decode` and `profile` spans. (Chunk-parallel decode records through
    /// [`decode_batches_par_with`](crate::decode_batches_par_with) instead.)
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The trace format version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The embedded mini-C source, if the trace carries one.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// The recorded run's step count. Available once the footer has been
    /// reached (after a full replay or iteration to the end).
    pub fn total_steps(&self) -> Option<u64> {
        self.total_steps
    }

    /// Events decoded so far.
    pub fn events_read(&self) -> u64 {
        self.events_read
    }

    fn read_chunk_header(&mut self) -> Result<Option<ChunkHeader>, TraceError> {
        let Some(payload_len) = varint::read_u64_from(&mut self.input)? else {
            return Ok(None);
        };
        let need = |v: Result<Option<u64>, TraceError>| {
            v.and_then(|o| o.ok_or(TraceError::Truncated("chunk header")))
        };
        let events = need(varint::read_u64_from(&mut self.input))?;
        let t_first = need(varint::read_u64_from(&mut self.input))?;
        let t_span = need(varint::read_u64_from(&mut self.input))?;
        let crc = if self.version >= format::VERSION_V3 {
            let mut word = [0u8; 4];
            read_exact_or(&mut self.input, &mut word, "chunk crc")?;
            Some(u32::from_le_bytes(word))
        } else {
            None
        };
        if payload_len > format::MAX_CHUNK_BYTES {
            return Err(TraceError::ChunkTooLarge(payload_len));
        }
        // Every event is at least one byte, so this bounds hostile counts.
        if events > payload_len {
            return Err(TraceError::Malformed("event count exceeds payload size"));
        }
        self.chunks_seen += 1;
        Ok(Some(ChunkHeader {
            payload_len,
            events,
            t_first,
            t_span,
            crc,
        }))
    }

    /// Reads a chunk's payload into `self.chunk` and, on v3 traces,
    /// verifies it against the stored CRC-32.
    fn read_payload(&mut self, head: &ChunkHeader) -> Result<(), TraceError> {
        self.chunk.resize(head.payload_len as usize, 0);
        read_exact_or(&mut self.input, &mut self.chunk, "chunk payload")?;
        if let Some(expected) = head.crc {
            let actual = format::crc32(&self.chunk);
            if actual != expected {
                return Err(TraceError::ChecksumMismatch {
                    expected,
                    actual,
                    chunk_index: self.chunks_seen - 1,
                });
            }
        }
        Ok(())
    }

    /// Handles a footer chunk; returns the decoded step count.
    fn read_footer(&mut self, head: &ChunkHeader) -> Result<u64, TraceError> {
        self.read_payload(head)?;
        let mut pos = 0;
        let steps = varint::read_u64(&self.chunk, &mut pos)?;
        if pos != self.chunk.len() {
            return Err(TraceError::Malformed("trailing bytes in footer"));
        }
        // The footer must be the last thing in the stream.
        let mut probe = [0u8; 1];
        match self.input.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => return Err(TraceError::Malformed("data after footer")),
            Err(e) => return Err(e.into()),
        }
        self.total_steps = Some(steps);
        self.finished = true;
        if let Some(m) = &self.metrics {
            m.add(Counter::TraceEventsDecoded, self.events_read);
        }
        Ok(steps)
    }

    /// Reads the next event-bearing chunk's header and payload, or the
    /// footer (`None`).
    fn next_chunk(&mut self) -> Result<Option<ChunkHeader>, TraceError> {
        let Some(head) = self.read_chunk_header()? else {
            return Err(TraceError::Truncated("missing footer"));
        };
        if head.events == 0 {
            self.read_footer(&head)?;
            return Ok(None);
        }
        self.read_payload(&head)?;
        Ok(Some(head))
    }

    /// Makes sure rows wait in `decoded[row..]`, decoding the next chunk
    /// when they run out; a chunk's decode error waits until the rows
    /// before it are used up. Returns `false` at the (well-formed) end.
    fn fill(&mut self) -> Result<bool, TraceError> {
        while self.row >= self.decoded.len() {
            if let Some(err) = self.failed.take() {
                return Err(err);
            }
            let Some(head) = (if self.finished {
                None
            } else {
                self.next_chunk()?
            }) else {
                return Ok(false);
            };
            if let Some(m) = &self.metrics {
                m.incr(Counter::TraceChunksDecoded);
                m.add(Counter::TraceBytesDecoded, head.payload_len);
            }
            self.decoded.clear();
            self.row = 0;
            let (version, t_first, events) = (self.version, head.t_first, head.events);
            self.failed =
                format::decode_chunk(version, t_first, events, &self.chunk, &mut self.decoded)
                    .err();
        }
        Ok(true)
    }

    /// Decodes the next event, or `None` at the (well-formed) end.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the stream produces; after an error the reader
    /// should be discarded.
    pub fn next_event(&mut self) -> Result<Option<Event>, TraceError> {
        if !self.fill()? {
            return Ok(None);
        }
        let ev = self.decoded.get(self.row);
        self.row += 1;
        self.events_read += 1;
        Ok(Some(ev))
    }

    /// Replays every event into `sink`, in recorded order.
    ///
    /// Feeding an [`AlchemistProfiler`-style] sink here is equivalent to
    /// running it live on the interpreter: same calls, same timestamps.
    ///
    /// [`AlchemistProfiler`-style]: alchemist_vm::TraceSink
    ///
    /// # Errors
    ///
    /// Any decode error; events already delivered are not rolled back.
    pub fn replay_into<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
    ) -> Result<ReplaySummary, TraceError> {
        let mut events = 0;
        while let Some(ev) = self.next_event()? {
            ev.dispatch(sink);
            events += 1;
        }
        Ok(ReplaySummary {
            events,
            total_steps: self
                .total_steps
                .ok_or(TraceError::Truncated("missing footer"))?,
        })
    }

    /// Decodes up to `max` events (minimum 1) directly into `batch`,
    /// clearing it first and crossing chunk boundaries as needed — no
    /// intermediate `Vec<Event>` is materialized. Returns `false` once the
    /// trace is exhausted and the batch stayed empty.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the stream produces; rows already decoded into
    /// `batch` are not rolled back.
    pub fn read_batch(&mut self, batch: &mut EventBatch, max: usize) -> Result<bool, TraceError> {
        batch.clear();
        let max = max.max(1);
        while batch.len() < max && self.fill()? {
            let take = (max - batch.len()).min(self.decoded.len() - self.row);
            if batch.is_empty() && take == self.decoded.len() {
                // The whole chunk fits: hand its rows over without a copy
                // (and keep the caller's empty batch for the next chunk).
                std::mem::swap(batch, &mut self.decoded);
            } else {
                batch.extend_from_range(&self.decoded, self.row..self.row + take);
                self.row += take;
            }
            self.events_read += take as u64;
        }
        Ok(!batch.is_empty())
    }

    /// Replays the whole trace into `sink` in blocks of `batch_size`
    /// events, one [`TraceSink::on_batch`] call per block.
    ///
    /// Delivers exactly the stream [`TraceReader::replay_into`] would —
    /// batch-unaware sinks observe identical per-event callbacks via the
    /// trait default — while batch-aware sinks pay one virtual call per
    /// block. One `EventBatch` is reused for every block. With metrics
    /// attached, reading the blocks is one `decode` span and the sink's
    /// time one `profile` span.
    ///
    /// # Errors
    ///
    /// Any decode error; blocks already delivered are not rolled back.
    pub fn replay_batched_into<S: TraceSink + ?Sized>(
        &mut self,
        sink: &mut S,
        batch_size: usize,
    ) -> Result<ReplaySummary, TraceError> {
        let mut batch = EventBatch::with_capacity(batch_size.max(1));
        let mut events = 0;
        // One clock read per switch between decoding and the sink.
        let mut clock = self.metrics.as_ref().map(|_| Instant::now());
        let mut lap = |spent: &mut u64| {
            if let Some(since) = clock.as_mut() {
                let now = Instant::now();
                *spent += now.duration_since(*since).as_nanos() as u64;
                *since = now;
            }
        };
        let (mut decode_ns, mut sink_ns) = (0, 0);
        while self.read_batch(&mut batch, batch_size)? {
            lap(&mut decode_ns);
            events += batch.len() as u64;
            sink.on_batch(&batch);
            lap(&mut sink_ns);
        }
        lap(&mut decode_ns);
        if let Some(m) = &self.metrics {
            m.record_span(Stage::Decode, decode_ns);
            m.record_span(Stage::Profile, sink_ns);
        }
        Ok(ReplaySummary {
            events,
            total_steps: self
                .total_steps
                .ok_or(TraceError::Truncated("missing footer"))?,
        })
    }

    /// Replays only events with `t_lo <= t <= t_hi`, skipping the decode of
    /// every chunk whose time range lies outside the window. Returns the
    /// number of events delivered.
    ///
    /// # Errors
    ///
    /// Any decode error encountered in chunks that must be read.
    pub fn replay_window<S: TraceSink + ?Sized>(
        &mut self,
        t_lo: u64,
        t_hi: u64,
        sink: &mut S,
    ) -> Result<u64, TraceError> {
        let mut delivered = 0;
        while let Some(head) = self.next_chunk()? {
            let t_last = head.t_first.saturating_add(head.t_span);
            if t_last < t_lo || head.t_first > t_hi {
                continue; // skip: payload consumed but never decoded
            }
            let decoded = format::decode_chunk(
                self.version,
                head.t_first,
                head.events,
                &self.chunk,
                &mut self.decoded,
            );
            for ev in self.decoded.iter() {
                if t_lo <= ev.time() && ev.time() <= t_hi {
                    ev.dispatch(sink);
                    delivered += 1;
                }
            }
            self.decoded.clear();
            decoded?;
        }
        Ok(delivered)
    }

    /// Reads the next event-bearing chunk *without decoding its payload*.
    /// Returns `None` once the footer has been read; the step count is then
    /// available from [`TraceReader::total_steps`].
    ///
    /// This is the fan-out point for parallel replay: the sequential part
    /// (I/O plus header parsing) is a fraction of the decode cost, and the
    /// returned chunks decode independently on worker threads.
    ///
    /// # Errors
    ///
    /// Structural errors only; payload corruption surfaces later, when the
    /// chunk is decoded.
    pub fn next_raw_chunk(&mut self) -> Result<Option<RawChunk>, TraceError> {
        let Some(head) = (if self.finished {
            None
        } else {
            self.next_chunk()?
        }) else {
            return Ok(None);
        };
        Ok(Some(RawChunk {
            events: head.events,
            t_first: head.t_first,
            version: self.version,
            payload: std::mem::take(&mut self.chunk),
        }))
    }

    /// Reads every remaining event-bearing chunk with
    /// [`TraceReader::next_raw_chunk`], returning them alongside the
    /// footer's step count. Consumes the reader's stream.
    ///
    /// # Errors
    ///
    /// Structural errors only; payload corruption surfaces later, when a
    /// chunk is decoded.
    pub fn read_raw_chunks(&mut self) -> Result<(Vec<RawChunk>, u64), TraceError> {
        let mut chunks = Vec::new();
        while let Some(chunk) = self.next_raw_chunk()? {
            chunks.push(chunk);
        }
        let total_steps = self
            .total_steps
            .ok_or(TraceError::Truncated("missing footer"))?;
        Ok((chunks, total_steps))
    }

    /// Reads chunk metadata for the whole trace without decoding any
    /// payload. Consumes the reader's stream.
    ///
    /// # Errors
    ///
    /// Structural errors only; payload corruption is invisible here.
    pub fn read_chunk_infos(&mut self) -> Result<Vec<ChunkInfo>, TraceError> {
        let mut infos = Vec::new();
        while let Some(head) = self.next_chunk()? {
            infos.push(ChunkInfo {
                events: head.events,
                t_first: head.t_first,
                t_last: head.t_first.saturating_add(head.t_span),
                payload_bytes: head.payload_len,
            });
        }
        Ok(infos)
    }

    /// Shared salvage walk: visits every intact event-bearing chunk,
    /// absorbing failures into a [`RecoveryReport`] instead of propagating
    /// them. Stops at damage it cannot resynchronise past (a mangled chunk
    /// header, a truncated payload, a hard I/O error); a v3 CRC mismatch is
    /// skippable because the payload length is still trusted. Returns the
    /// footer's step count, or an estimate from the last seen chunk's time
    /// range when the footer is missing.
    fn recover_scan(
        &mut self,
        mut on_chunk: impl FnMut(&ChunkHeader, &mut Vec<u8>, u16),
    ) -> (u64, RecoveryReport) {
        let mut report = RecoveryReport::default();
        let mut last_t_end: Option<u64> = None;
        loop {
            let chunk_start = self.input.offset;
            let head = match self.read_chunk_header() {
                Ok(Some(head)) => head,
                // Clean EOF at a chunk boundary: the footer never made it.
                Ok(None) => break,
                Err(err) => {
                    // A damaged header leaves no trustworthy payload length
                    // to resynchronise over; abandon the tail.
                    report.record_failure(&err, 0, Some(chunk_start));
                    report.truncated_tail = true;
                    break;
                }
            };
            if head.events == 0 {
                match self.read_footer(&head) {
                    Ok(steps) => {
                        report.footer_recovered = true;
                        return (steps, report);
                    }
                    Err(err) => {
                        report.record_failure(&err, 0, Some(chunk_start));
                        break;
                    }
                }
            }
            report.chunks_total += 1;
            let t_end = head.t_first.saturating_add(head.t_span);
            last_t_end = Some(last_t_end.map_or(t_end, |t: u64| t.max(t_end)));
            match self.read_payload(&head) {
                Ok(()) => {
                    report.events_salvaged += head.events;
                    on_chunk(&head, &mut self.chunk, self.version);
                }
                Err(err) => {
                    let resynced = matches!(err, TraceError::ChecksumMismatch { .. });
                    report.record_failure(&err, head.events, Some(chunk_start));
                    if resynced {
                        continue; // payload fully consumed: next chunk is in sync
                    }
                    report.truncated_tail = true;
                    break;
                }
            }
        }
        // No footer: estimate the run length from the last chunk's time
        // range (an event at time t implies at least t + 1 retired steps).
        let total = last_t_end.map_or(0, |t| t.saturating_add(1));
        self.total_steps = Some(total);
        self.finished = true;
        (total, report)
    }

    /// Salvage twin of [`TraceReader::read_raw_chunks`]: reads every chunk
    /// that survives validation, skipping corrupt ones instead of aborting,
    /// and never fails — damage is tallied in the returned
    /// [`RecoveryReport`]. The step count is exact when
    /// [`RecoveryReport::footer_recovered`] is set and a lower-bound
    /// estimate otherwise.
    ///
    /// Note: on v1/v2 traces (no per-chunk CRC) payload corruption is
    /// invisible to this scan and only surfaces when the chunk is decoded —
    /// [`decode_batches_par_recover`](crate::decode_batches_par_recover)
    /// layers that on top.
    pub fn read_raw_chunks_recover(&mut self) -> (Vec<RawChunk>, u64, RecoveryReport) {
        let mut chunks = Vec::new();
        let (total_steps, report) = self.recover_scan(|head, payload, version| {
            chunks.push(RawChunk {
                events: head.events,
                t_first: head.t_first,
                version,
                payload: std::mem::take(payload),
            });
        });
        (chunks, total_steps, report)
    }

    /// Salvage twin of [`TraceReader::read_chunk_infos`]: chunk metadata
    /// for every chunk that survives validation, plus the recovery tally.
    /// Infallible; see [`TraceReader::read_raw_chunks_recover`].
    pub fn read_chunk_infos_recover(&mut self) -> (Vec<ChunkInfo>, u64, RecoveryReport) {
        let mut infos = Vec::new();
        let (total_steps, report) = self.recover_scan(|head, _payload, _version| {
            infos.push(ChunkInfo {
                events: head.events,
                t_first: head.t_first,
                t_last: head.t_first.saturating_add(head.t_span),
                payload_bytes: head.payload_len,
            });
        });
        (infos, total_steps, report)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Event, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated(what)
        } else {
            TraceError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use alchemist_lang::hir::FuncId;
    use alchemist_vm::{Pc, RecordingSink, Tid};

    fn sample_trace(chunk_capacity: usize) -> (Vec<u8>, RecordingSink) {
        let mut live = RecordingSink::default();
        let mut w = TraceWriter::new(Vec::new(), Some("int main() { return 0; }"))
            .unwrap()
            .with_chunk_capacity(chunk_capacity);
        let mut t = 0;
        for i in 0..25u32 {
            live.on_enter_function(t, FuncId(i % 3), 8 * i, Tid::MAIN);
            w.on_enter_function(t, FuncId(i % 3), 8 * i, Tid::MAIN);
            t += 2;
            live.on_read(t, i, Pc(i * 5), Tid::MAIN);
            w.on_read(t, i, Pc(i * 5), Tid::MAIN);
            t += 1;
            live.on_write(t, i + 100, Pc(i * 5 + 1), Tid::MAIN);
            w.on_write(t, i + 100, Pc(i * 5 + 1), Tid::MAIN);
            t += 40;
            live.on_exit_function(t, FuncId(i % 3), Tid::MAIN);
            w.on_exit_function(t, FuncId(i % 3), Tid::MAIN);
            t += 1;
        }
        let (bytes, _) = w.finish(t).unwrap();
        (bytes, live)
    }

    #[test]
    fn replay_reproduces_the_recording() {
        let (bytes, live) = sample_trace(7);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.source(), Some("int main() { return 0; }"));
        let mut replayed = RecordingSink::default();
        let summary = r.replay_into(&mut replayed).unwrap();
        assert_eq!(replayed, live);
        assert_eq!(summary.events, live.events.len() as u64);
        assert_eq!(r.total_steps(), Some(summary.total_steps));
    }

    #[test]
    fn writer_and_streaming_reader_metrics_are_symmetric() {
        use alchemist_obs::{Counter, Metrics};
        let m = Arc::new(Metrics::new());
        let mut w = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .with_chunk_capacity(7)
            .with_metrics(Arc::clone(&m));
        let mut t = 0;
        for i in 0..25u32 {
            w.on_read(t, i, Pc(i), Tid::MAIN);
            t += 1;
        }
        let (bytes, stats) = w.finish(t).unwrap();
        assert_eq!(m.get(Counter::TraceChunksWritten), stats.chunks);
        assert_eq!(m.get(Counter::TraceEventsWritten), 25);
        assert_eq!(m.get(Counter::TraceBytesWritten), stats.bytes);

        let mut r = TraceReader::new(bytes.as_slice())
            .unwrap()
            .with_metrics(Arc::clone(&m));
        let mut sink = RecordingSink::default();
        r.replay_into(&mut sink).unwrap();
        assert_eq!(
            m.get(Counter::TraceChunksDecoded),
            m.get(Counter::TraceChunksWritten)
        );
        assert_eq!(m.get(Counter::TraceEventsDecoded), 25);
        assert!(m.get(Counter::TraceBytesDecoded) > 0);
    }

    #[test]
    fn iterator_yields_the_same_events() {
        let (bytes, live) = sample_trace(100_000);
        let r = TraceReader::new(bytes.as_slice()).unwrap();
        let events: Vec<Event> = r.map(|e| e.unwrap()).collect();
        assert_eq!(events, live.events);
    }

    #[test]
    fn batched_replay_reproduces_the_recording() {
        let (bytes, live) = sample_trace(7);
        // Batch sizes below, at and above the chunk size, plus a prime.
        for batch_size in [1usize, 3, 7, 11, 4096] {
            let mut r = TraceReader::new(bytes.as_slice()).unwrap();
            let mut replayed = RecordingSink::default();
            let summary = r
                .replay_batched_into(&mut replayed, batch_size)
                .unwrap_or_else(|e| panic!("batch_size={batch_size}: {e}"));
            assert_eq!(replayed, live, "batch_size={batch_size}");
            assert_eq!(summary.events, live.events.len() as u64);
            assert_eq!(r.total_steps(), Some(summary.total_steps));
        }
    }

    #[test]
    fn read_batch_crosses_chunk_boundaries() {
        let (bytes, live) = sample_trace(5); // chunks of 5 events
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut batch = alchemist_vm::EventBatch::new();
        let mut got = Vec::new();
        // 8 > 5: every full batch spans a chunk boundary.
        while r.read_batch(&mut batch, 8).unwrap() {
            assert!(batch.len() <= 8);
            got.extend(batch.iter());
        }
        assert_eq!(got, live.events);
        // Exhausted reader keeps answering false with an empty batch.
        assert!(!r.read_batch(&mut batch, 8).unwrap());
        assert!(batch.is_empty());
    }

    #[test]
    fn windowed_replay_delivers_exactly_the_window() {
        let (bytes, live) = sample_trace(5);
        let (lo, hi) = (50, 400);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut windowed = RecordingSink::default();
        let n = r.replay_window(lo, hi, &mut windowed).unwrap();
        let expect: Vec<Event> = live
            .events
            .iter()
            .copied()
            .filter(|e| (lo..=hi).contains(&e.time()))
            .collect();
        assert_eq!(windowed.events, expect);
        assert_eq!(n as usize, expect.len());
        assert!(!expect.is_empty(), "window test must cover events");
    }

    /// Replays `[lo, hi]` and checks it against filtering the live stream.
    fn check_window(bytes: &[u8], live: &RecordingSink, lo: u64, hi: u64) -> usize {
        let mut r = TraceReader::new(bytes).unwrap();
        let mut windowed = RecordingSink::default();
        let n = r.replay_window(lo, hi, &mut windowed).unwrap();
        let expect: Vec<Event> = live
            .events
            .iter()
            .copied()
            .filter(|e| (lo..=hi).contains(&e.time()))
            .collect();
        assert_eq!(windowed.events, expect, "window [{lo}, {hi}]");
        assert_eq!(n as usize, expect.len(), "window [{lo}, {hi}]");
        expect.len()
    }

    #[test]
    fn window_bounds_are_inclusive_at_exact_chunk_boundaries() {
        // Small chunks so boundary timestamps are mid-trace, not trivial.
        let (bytes, live) = sample_trace(5);
        let infos = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_chunk_infos()
            .unwrap();
        assert!(infos.len() >= 3, "need interior chunks to stress");
        for info in &infos {
            // Window starting exactly at a chunk's first event: that event
            // is delivered (lower bound inclusive), nothing earlier is.
            let n = check_window(&bytes, &live, info.t_first, u64::MAX);
            assert!(n > 0);
            // Window ending exactly at a chunk's last event: inclusive.
            let n = check_window(&bytes, &live, 0, info.t_last);
            assert!(n > 0);
            // Degenerate single-instant windows on both boundaries.
            check_window(&bytes, &live, info.t_first, info.t_first);
            check_window(&bytes, &live, info.t_last, info.t_last);
            // One past the chunk's end excludes its last event but keeps
            // everything before it.
            if info.t_last > 0 {
                check_window(&bytes, &live, 0, info.t_last - 1);
            }
        }
    }

    #[test]
    fn empty_windows_deliver_nothing() {
        let (bytes, live) = sample_trace(5);
        let t_end = live.events.last().unwrap().time();
        // Inverted bounds.
        assert_eq!(check_window(&bytes, &live, 10, 9), 0);
        // Entirely after the trace.
        assert_eq!(check_window(&bytes, &live, t_end + 1, t_end + 100), 0);
        // Between two events (timestamps 0,2,3 then a +40 gap per round).
        assert_eq!(check_window(&bytes, &live, 5, 40), 0);
    }

    #[test]
    fn whole_trace_window_equals_full_replay() {
        let (bytes, live) = sample_trace(5);
        let n = check_window(&bytes, &live, 0, u64::MAX);
        assert_eq!(n, live.events.len());
        let t_first = live.events.first().unwrap().time();
        let t_end = live.events.last().unwrap().time();
        // The tight [first, last] window is also the whole trace.
        assert_eq!(
            check_window(&bytes, &live, t_first, t_end),
            live.events.len()
        );
    }

    #[test]
    fn chunk_infos_partition_the_event_stream() {
        let (bytes, live) = sample_trace(8);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let infos = r.read_chunk_infos().unwrap();
        let total: u64 = infos.iter().map(|c| c.events).sum();
        assert_eq!(total, live.events.len() as u64);
        for w in infos.windows(2) {
            assert!(w[0].t_last <= w[1].t_first, "chunks are time-ordered");
        }
    }

    #[test]
    fn empty_trace_replays_zero_events() {
        let (bytes, _) = TraceWriter::new(Vec::new(), None)
            .unwrap()
            .finish(9)
            .unwrap();
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let summary = r.replay_into(&mut alchemist_vm::NullSink).unwrap();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.total_steps, 9);
    }

    /// A v2 trace whose events rotate across three threads, with chunk
    /// boundaries falling mid-thread-run.
    fn sample_v2_trace(chunk_capacity: usize) -> (Vec<u8>, RecordingSink) {
        let mut live = RecordingSink::default();
        let mut w = TraceWriter::new_v2(Vec::new(), Some("spawn demo"))
            .unwrap()
            .with_chunk_capacity(chunk_capacity);
        let mut t = 0;
        for i in 0..25u32 {
            let tid = Tid(i % 3);
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
    fn v2_replay_preserves_thread_ids() {
        for chunk_capacity in [1usize, 7, 100_000] {
            let (bytes, live) = sample_v2_trace(chunk_capacity);
            let mut r = TraceReader::new(bytes.as_slice()).unwrap();
            assert_eq!(r.version(), format::VERSION_V2);
            let mut replayed = RecordingSink::default();
            let summary = r.replay_into(&mut replayed).unwrap();
            assert_eq!(replayed, live, "chunk_capacity={chunk_capacity}");
            assert_eq!(summary.events, live.events.len() as u64);
        }
    }

    #[test]
    fn v2_windowed_replay_preserves_thread_ids() {
        let (bytes, live) = sample_v2_trace(5);
        let (lo, hi) = (50, 400);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let mut windowed = RecordingSink::default();
        r.replay_window(lo, hi, &mut windowed).unwrap();
        let expect: Vec<Event> = live
            .events
            .iter()
            .copied()
            .filter(|e| (lo..=hi).contains(&e.time()))
            .collect();
        assert_eq!(windowed.events, expect);
        assert!(expect.iter().any(|e| e.tid() != Tid::MAIN));
    }

    #[test]
    fn v1_traces_decode_with_implicit_main_tid() {
        let (bytes, live) = sample_trace(7);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.version(), format::VERSION);
        let mut replayed = RecordingSink::default();
        r.replay_into(&mut replayed).unwrap();
        assert!(replayed.events.iter().all(|e| e.tid() == Tid::MAIN));
        assert_eq!(replayed, live);
    }

    #[test]
    fn future_version_error_reports_the_supported_range() {
        // Hand-build a v4 header: magic + version 4 + empty flags.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&format::MAGIC);
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        let err = TraceReader::new(bytes.as_slice()).unwrap_err();
        match err {
            TraceError::UnsupportedVersion {
                found,
                min_supported,
                max_supported,
                chunk_index,
            } => {
                assert_eq!(found, 4);
                assert_eq!(min_supported, format::MIN_VERSION);
                assert_eq!(max_supported, format::MAX_VERSION);
                assert_eq!(chunk_index, 0, "rejected at the header");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn raw_chunks_carry_the_format_version() {
        let (bytes, _) = sample_v2_trace(7);
        let (chunks, _) = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_raw_chunks()
            .unwrap();
        assert!(!chunks.is_empty());
        assert!(chunks.iter().all(|c| c.version == format::VERSION_V2));
    }

    /// A v3 trace mirroring `sample_v2_trace` (CRC per chunk).
    fn sample_v3_trace(chunk_capacity: usize) -> (Vec<u8>, RecordingSink) {
        let mut live = RecordingSink::default();
        let mut w = TraceWriter::new_v3(Vec::new(), Some("spawn demo"))
            .unwrap()
            .with_chunk_capacity(chunk_capacity);
        let mut t = 0;
        for i in 0..25u32 {
            let tid = Tid(i % 3);
            live.on_enter_function(t, FuncId(i % 3), 8 * i, tid);
            w.on_enter_function(t, FuncId(i % 3), 8 * i, tid);
            t += 2;
            live.on_read(t, i, Pc(i * 5), tid);
            w.on_read(t, i, Pc(i * 5), tid);
            t += 40;
            live.on_exit_function(t, FuncId(i % 3), tid);
            w.on_exit_function(t, FuncId(i % 3), tid);
            t += 1;
        }
        let (bytes, _) = w.finish(t).unwrap();
        (bytes, live)
    }

    #[test]
    fn v3_roundtrips_with_thread_ids_and_verified_crcs() {
        for chunk_capacity in [1usize, 7, 100_000] {
            let (bytes, live) = sample_v3_trace(chunk_capacity);
            let mut r = TraceReader::new(bytes.as_slice()).unwrap();
            assert_eq!(r.version(), format::VERSION_V3);
            let mut replayed = RecordingSink::default();
            let summary = r.replay_into(&mut replayed).unwrap();
            assert_eq!(replayed, live, "chunk_capacity={chunk_capacity}");
            assert_eq!(summary.events, live.events.len() as u64);
        }
    }

    #[test]
    fn v3_detects_payload_corruption_positively() {
        let (bytes, _) = sample_v3_trace(7);
        // Flip one byte in the middle of the file (past the header).
        let mut corrupt = bytes.clone();
        let pos = bytes.len() / 2;
        corrupt[pos] ^= 0x01;
        let mut r = TraceReader::new(corrupt.as_slice()).unwrap();
        let err = r.replay_into(&mut alchemist_vm::NullSink).unwrap_err();
        // The flip lands in a payload (CRC mismatch) or a chunk head
        // (structural error); either way it is a typed error, and a CRC
        // mismatch carries both sums.
        if let TraceError::ChecksumMismatch {
            expected, actual, ..
        } = err
        {
            assert_ne!(expected, actual);
        }
    }

    #[test]
    fn recover_scan_of_a_clean_trace_is_clean() {
        let (bytes, live) = sample_v3_trace(5);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let (chunks, total_steps, report) = r.read_raw_chunks_recover();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.footer_recovered);
        assert_eq!(report.chunks_skipped, 0);
        assert_eq!(report.events_salvaged, live.events.len() as u64);
        assert_eq!(report.first_bad_offset, None);
        assert!(total_steps > 0);
        assert_eq!(
            chunks.iter().map(|c| c.events).sum::<u64>(),
            live.events.len() as u64
        );
    }

    #[test]
    fn recover_skips_a_crc_corrupt_chunk_and_resyncs() {
        let (bytes, live) = sample_v3_trace(5);
        let (clean_chunks, _, _) = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_raw_chunks_recover();
        assert!(clean_chunks.len() >= 3, "need interior chunks");
        // Corrupt the middle chunk's payload: find it by scanning for its
        // payload bytes (unique enough for this fixture) — instead, flip a
        // byte inside every chunk payload one at a time via offsets from a
        // fresh scan of the file layout.
        let infos = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_chunk_infos()
            .unwrap();
        assert_eq!(infos.len(), clean_chunks.len());
        // Walk the file re-deriving each chunk's payload offset: header is
        // everything before the first chunk; simpler to corrupt by searching
        // for each payload slice.
        let target = 1; // second chunk
        let needle = clean_chunks[target].payload.as_slice();
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("payload bytes present");
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0xff;
        let mut r = TraceReader::new(corrupt.as_slice()).unwrap();
        let (chunks, total_steps, report) = r.read_raw_chunks_recover();
        assert_eq!(report.chunks_skipped, 1, "{report:?}");
        assert_eq!(report.crc_mismatches, 1);
        assert!(!report.truncated_tail, "CRC skip must resync");
        assert!(report.footer_recovered);
        assert!(report.first_bad_offset.is_some());
        assert_eq!(report.events_lost, clean_chunks[target].events);
        assert_eq!(chunks.len(), clean_chunks.len() - 1);
        // The surviving chunks are exactly the clean ones minus the target.
        let survived: u64 = chunks.iter().map(|c| c.events).sum();
        assert_eq!(
            survived,
            live.events.len() as u64 - clean_chunks[target].events
        );
        assert!(total_steps > 0);
    }

    #[test]
    fn recover_salvages_the_prefix_of_a_truncated_trace() {
        let (bytes, _) = sample_v3_trace(5);
        let (clean_chunks, clean_steps, _) = TraceReader::new(bytes.as_slice())
            .unwrap()
            .read_raw_chunks_recover();
        // Cut the file mid-way: salvage must return complete chunks only.
        for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 3] {
            let mut r = TraceReader::new(&bytes[..cut]).unwrap();
            let (chunks, total_steps, report) = r.read_raw_chunks_recover();
            assert!(!report.footer_recovered, "cut={cut}");
            assert!(chunks.len() <= clean_chunks.len());
            assert_eq!(
                &chunks[..],
                &clean_chunks[..chunks.len()],
                "salvaged chunks must be a clean prefix (cut={cut})"
            );
            assert!(total_steps <= clean_steps);
        }
    }

    #[test]
    fn recover_estimates_steps_when_the_footer_is_missing() {
        let (bytes, live) = sample_v3_trace(100_000); // single chunk
                                                      // Chop off the footer exactly: scan for the last chunk boundary by
                                                      // replaying sizes. Easiest: drop the trailing footer bytes —
                                                      // footer = head varints (>=4 bytes) + crc(4) + payload(>=1).
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        let (chunks, _, report) = r.read_raw_chunks_recover();
        assert!(report.footer_recovered);
        assert_eq!(chunks.len(), 1);
        // Now truncate just past the single data chunk's payload end.
        let needle = chunks[0].payload.as_slice();
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        let cut = pos + needle.len();
        let mut r = TraceReader::new(&bytes[..cut]).unwrap();
        let (chunks2, total_steps, report2) = r.read_raw_chunks_recover();
        assert_eq!(chunks2, chunks);
        assert!(!report2.footer_recovered);
        assert!(!report2.truncated_tail, "clean cut at a chunk boundary");
        let t_last = live.events.last().unwrap().time();
        assert!(total_steps >= t_last, "{total_steps} vs t_last {t_last}");
    }

    #[test]
    fn data_after_footer_is_rejected() {
        let (mut bytes, _) = sample_trace(7);
        bytes.push(0x00);
        let mut r = TraceReader::new(bytes.as_slice()).unwrap();
        assert!(matches!(
            r.replay_into(&mut alchemist_vm::NullSink),
            Err(TraceError::Malformed("data after footer"))
        ));
    }
}
