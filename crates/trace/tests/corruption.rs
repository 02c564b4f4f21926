//! Hostile-input robustness: corrupt, truncated and mutated trace files
//! must decode to typed [`TraceError`]s — never panic, never allocate
//! unboundedly.

use alchemist_trace::{
    decode_batches_par, decode_batches_par_recover, replay_pipelined, ReplayOptions, TraceError,
    TraceReader, TraceWriter,
};
use alchemist_vm::{compile_source, Event, EventBatch, ExecConfig, NullSink, RecordingSink};
use proptest::prelude::*;

/// A small but realistic trace: several chunks, all event kinds.
fn valid_trace() -> Vec<u8> {
    let src = "int g;
int work(int x) { int i; for (i = 0; i < 9; i++) g += x * i; return g; }
int main() { int i; for (i = 0; i < 12; i++) { if (i % 2 == 0) work(i); } return g; }";
    let module = compile_source(src).expect("compiles");
    let mut w = TraceWriter::new(Vec::new(), Some(src))
        .expect("header")
        .with_chunk_capacity(64);
    let out = alchemist_vm::run(&module, &ExecConfig::default(), &mut w).expect("runs");
    let (bytes, stats) = w.finish(out.steps).expect("finish");
    assert!(stats.chunks >= 3, "test needs a multi-chunk trace");
    bytes
}

/// The same workload recorded under v3 (per-chunk CRC-32).
fn valid_trace_v3() -> Vec<u8> {
    let src = "int g;
int work(int x) { int i; for (i = 0; i < 9; i++) g += x * i; return g; }
int main() { int i; for (i = 0; i < 12; i++) { if (i % 2 == 0) work(i); } return g; }";
    let module = compile_source(src).expect("compiles");
    let mut w = TraceWriter::new_v3(Vec::new(), Some(src))
        .expect("header")
        .with_chunk_capacity(64);
    let out = alchemist_vm::run(&module, &ExecConfig::default(), &mut w).expect("runs");
    let (bytes, stats) = w.finish(out.steps).expect("finish");
    assert!(stats.chunks >= 3, "test needs a multi-chunk trace");
    bytes
}

/// A small threaded trace (v2): two workers rotated every few
/// instructions, so thread-id runs break inside chunks.
fn valid_trace_v2() -> Vec<u8> {
    let src = "int g; int s[2];
void work(int who) { int i; for (i = 0; i < 6; i++) { s[who] += i; g += who; } }
int main() { spawn { work(0); } spawn { work(1); } join; return g; }";
    let module = compile_source(src).expect("compiles");
    let cfg = ExecConfig {
        quantum: 5,
        ..ExecConfig::default()
    };
    let mut w = TraceWriter::new_v2(Vec::new(), Some(src))
        .expect("header")
        .with_chunk_capacity(64);
    let out = alchemist_vm::run(&module, &cfg, &mut w).expect("runs");
    let (bytes, stats) = w.finish(out.steps).expect("finish");
    assert!(stats.chunks >= 3, "test needs a multi-chunk trace");
    bytes
}

/// Drains a reader, returning the first error if any.
fn drain(bytes: &[u8]) -> Result<u64, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    reader.replay_into(&mut NullSink).map(|s| s.events)
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = valid_trace();
    bytes[..4].copy_from_slice(b"GZIP");
    assert!(matches!(drain(&bytes), Err(TraceError::BadMagic(m)) if &m == b"GZIP"));
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = valid_trace();
    bytes[4] = 0xff;
    bytes[5] = 0x7f;
    assert!(matches!(
        drain(&bytes),
        Err(TraceError::UnsupportedVersion {
            found: 0x7fff,
            min_supported: 1,
            max_supported: 3,
            chunk_index: 0,
        })
    ));
}

#[test]
fn hand_built_v4_header_reports_supported_range() {
    // A from-scratch header claiming format version 4 — one past the
    // newest this reader knows. The error must carry the found version,
    // the full supported range and the chunk index (0 = rejected at the
    // header, before any chunk decodes).
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ALCT");
    bytes.extend_from_slice(&4u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    let err = drain(&bytes).expect_err("v4 must be rejected");
    match &err {
        TraceError::UnsupportedVersion {
            found,
            min_supported,
            max_supported,
            chunk_index,
        } => {
            assert_eq!(*found, 4);
            assert_eq!(*min_supported, 1);
            assert_eq!(*max_supported, 3);
            assert_eq!(*chunk_index, 0);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("version 4"), "{msg}");
    assert!(msg.contains("1..=3"), "{msg}");
}

#[test]
fn unknown_flag_bits_are_rejected() {
    let mut bytes = valid_trace();
    bytes[6] |= 0x80;
    assert!(matches!(drain(&bytes), Err(TraceError::Malformed(_))));
}

#[test]
fn truncation_inside_the_header_is_typed() {
    let bytes = valid_trace();
    for cut in [0, 2, 4, 5, 7] {
        assert!(
            matches!(drain(&bytes[..cut]), Err(TraceError::Truncated(_))),
            "cut at {cut}"
        );
    }
}

#[test]
fn truncation_mid_chunk_is_typed() {
    let bytes = valid_trace();
    // Cut at several points inside the chunked region (past the header +
    // embedded source, before the footer).
    let len = bytes.len();
    for cut in [len - 1, len - 7, len / 2, len * 3 / 4] {
        let err = drain(&bytes[..cut]).expect_err("truncated trace must error");
        assert!(
            matches!(
                err,
                TraceError::Truncated(_) | TraceError::Malformed(_) | TraceError::BadEventTag(_)
            ),
            "cut at {cut}: unexpected {err:?}"
        );
    }
}

#[test]
fn missing_footer_is_reported() {
    let src = "int main() { return 1; }";
    let module = compile_source(src).expect("compiles");
    let mut w = TraceWriter::new(Vec::new(), None)
        .expect("header")
        .with_chunk_capacity(4);
    let out = alchemist_vm::run(&module, &ExecConfig::default(), &mut w).expect("runs");
    let (full, _) = w.finish(out.steps).expect("finish");
    // Chop the footer off: find how many bytes a footer takes (it is the
    // tail of the stream) by re-encoding without it being possible —
    // instead, truncate progressively until the error flips to Truncated.
    let err = drain(&full[..full.len() - 3]).expect_err("no footer");
    assert!(matches!(
        err,
        TraceError::Truncated(_) | TraceError::Malformed(_)
    ));
}

#[test]
fn giant_declared_chunk_does_not_allocate() {
    // Header with no source, then a chunk declaring a 2^62-byte payload.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ALCT");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    // payload_len = 2^62 (varint), events = 1, t_first = 0, t_span = 0.
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]);
    bytes.extend_from_slice(&[0x01, 0x00, 0x00]);
    assert!(matches!(drain(&bytes), Err(TraceError::ChunkTooLarge(_))));
}

#[test]
fn event_count_larger_than_payload_is_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ALCT");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    // payload_len = 2, events = 100, t_first = 0, t_span = 0, payload.
    bytes.extend_from_slice(&[0x02, 0x64, 0x00, 0x00, 0x28, 0x28]);
    assert!(matches!(drain(&bytes), Err(TraceError::Malformed(_))));
}

#[test]
fn non_utf8_embedded_source_is_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ALCT");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&1u16.to_le_bytes()); // FLAG_SOURCE
    bytes.extend_from_slice(&[0x02, 0xff, 0xfe]); // len 2, invalid UTF-8
    assert!(matches!(
        TraceReader::new(bytes.as_slice()).err(),
        Some(TraceError::CorruptSource(_))
    ));
}

proptest! {
    /// Flipping any single byte must produce either a clean decode or a
    /// typed error — never a panic (the harness would abort the test).
    #[test]
    fn single_byte_flips_never_panic(idx in any::<usize>(), bit in 0u8..8) {
        let mut bytes = valid_trace();
        let i = idx % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = drain(&bytes);
    }

    /// Truncating at any length must produce either a clean decode of a
    /// prefix or a typed error — never a panic and never an OOM.
    #[test]
    fn arbitrary_truncations_never_panic(cut in any::<usize>()) {
        let bytes = valid_trace();
        let cut = cut % (bytes.len() + 1);
        let _ = drain(&bytes[..cut]);
    }

    /// Random byte-splices (overwrite a short run with noise) decode to a
    /// result, never a panic.
    #[test]
    fn random_splices_never_panic(
        start in any::<usize>(),
        noise in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = valid_trace();
        let start = start % bytes.len();
        let end = (start + noise.len()).min(bytes.len());
        bytes[start..end].copy_from_slice(&noise[..end - start]);
        let _ = drain(&bytes);
    }

    /// v3: any single-byte flip in a payload is caught by the chunk CRC
    /// (typed error on the strict path), and the salvage path never errors
    /// and never reports the mangled trace as clean.
    #[test]
    fn v3_flips_are_caught_and_salvage_never_panics(idx in any::<usize>(), bit in 0u8..8) {
        let mut bytes = valid_trace_v3();
        let i = idx % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = drain(&bytes);
        if let Ok(reader) = TraceReader::new(bytes.as_slice()) {
            let (_, summary, report) = decode_batches_par_recover(reader, 2, None);
            prop_assert_eq!(report.events_salvaged, summary.events);
        }
    }

    /// Salvage of any truncation never panics and keeps its own tallies
    /// consistent.
    #[test]
    fn truncation_salvage_is_self_consistent(cut in any::<usize>()) {
        let bytes = valid_trace_v3();
        let cut = cut % (bytes.len() + 1);
        if let Ok(reader) = TraceReader::new(&bytes[..cut]) {
            let (batches, summary, report) = decode_batches_par_recover(reader, 2, None);
            let delivered: u64 = batches.iter().map(|b| b.len() as u64).sum();
            prop_assert_eq!(delivered, summary.events);
            prop_assert_eq!(report.events_salvaged, summary.events);
            prop_assert!(report.is_clean() || cut < bytes.len());
        }
    }
}

/// What a read path made of a trace: the events it delivered, then the
/// footer's step count or its error's text.
type Delivered = (Vec<Event>, Result<u64, String>);

fn open(bytes: &[u8]) -> Result<TraceReader<&[u8]>, Delivered> {
    TraceReader::new(bytes).map_err(|e| (Vec::new(), Err(e.to_string())))
}

/// The reference: the reader's event iterator.
fn iterate(bytes: &[u8]) -> Delivered {
    let mut reader = match open(bytes) {
        Ok(reader) => reader,
        Err(failed) => return failed,
    };
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => return (events, Ok(reader.total_steps().expect("footer read"))),
            Err(e) => return (events, Err(e.to_string())),
        }
    }
}

/// `read_batch` at `size`, the rows of every batch concatenated, those
/// left in the batch by an error included.
fn read_batches(bytes: &[u8], size: usize) -> Delivered {
    let mut reader = match open(bytes) {
        Ok(reader) => reader,
        Err(failed) => return failed,
    };
    let (mut batch, mut events) = (EventBatch::new(), Vec::new());
    loop {
        let more = reader.read_batch(&mut batch, size);
        events.extend(batch.iter());
        match more {
            Ok(true) => {}
            Ok(false) => return (events, Ok(reader.total_steps().expect("footer read"))),
            Err(e) => return (events, Err(e.to_string())),
        }
    }
}

/// `replay_pipelined` into a recording sink.
fn pipelined(bytes: &[u8], jobs: usize, batch_size: usize) -> Delivered {
    let reader = match open(bytes) {
        Ok(reader) => reader,
        Err(failed) => return failed,
    };
    let mut sink = RecordingSink::default();
    let options = ReplayOptions {
        jobs,
        batch_size,
        metrics: None,
    };
    let replayed = replay_pipelined(reader, &mut sink, options);
    (
        sink.events,
        replayed.map(|s| s.total_steps).map_err(|e| e.to_string()),
    )
}

/// `decode_batches_par`, its batches flattened.
fn materialized(bytes: &[u8], jobs: usize) -> Delivered {
    let reader = match open(bytes) {
        Ok(reader) => reader,
        Err(failed) => return failed,
    };
    match decode_batches_par(reader, jobs) {
        Ok((batches, summary)) => (
            batches.iter().flat_map(EventBatch::iter).collect(),
            Ok(summary.total_steps),
        ),
        Err(e) => (Vec::new(), Err(e.to_string())),
    }
}

/// Every read path reads `bytes` the way the event iterator does: the
/// same events and step count, or the same error. The event-by-event
/// paths (`read_batch`, one-event `replay_batched_into`) must also have
/// delivered the same events before the error.
fn check_read_paths_agree(bytes: &[u8], what: &str) {
    let reference = iterate(bytes);
    let verdict = |(events, result): Delivered| result.map(|steps| (events, steps));
    let expect = verdict(reference.clone());
    for size in [1, 7, 4096] {
        let got = read_batches(bytes, size);
        assert_eq!(got, reference, "{what}: read_batch at {size}");
    }
    let got = pipelined(bytes, 1, 1);
    assert_eq!(got, reference, "{what}: replay_batched_into at 1");
    for jobs in [1, 3] {
        let got = pipelined(bytes, jobs, 4096);
        assert_eq!(
            verdict(got),
            expect,
            "{what}: replay_pipelined at {jobs} jobs"
        );
    }
    for jobs in [1, 4] {
        let got = materialized(bytes, jobs);
        assert_eq!(
            verdict(got),
            expect,
            "{what}: decode_batches_par at {jobs} jobs"
        );
    }
}

/// The byte ranges of the first two chunk headers.
fn first_two_chunk_heads(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    struct Tell<'a>(&'a [u8], &'a std::cell::Cell<usize>);
    impl std::io::Read for Tell<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.read(buf)?;
            self.1.set(self.1.get() + n);
            Ok(n)
        }
    }
    let at = std::cell::Cell::new(0);
    let mut reader = TraceReader::new(Tell(bytes, &at)).expect("header");
    (0..2)
        .map(|_| {
            let start = at.get();
            let chunk = reader.next_raw_chunk().expect("chunk").expect("two chunks");
            start..at.get() - chunk.payload.len()
        })
        .collect()
}

#[test]
fn every_read_path_fails_like_the_iterator_on_bit_flips() {
    // Every bit of the first two chunk headers, and one bit of every other
    // byte: all bits everywhere would take too long for a debug test run.
    for (name, bytes) in [("v1", valid_trace()), ("v2", valid_trace_v2())] {
        check_read_paths_agree(&bytes, name);
        let heads = first_two_chunk_heads(&bytes);
        assert!(heads.iter().all(|h| h.len() >= 4), "{name}: {heads:?}");
        for i in 0..bytes.len() {
            for bit in 0..8 {
                if bit != i % 8 && !heads.iter().any(|h| h.contains(&i)) {
                    continue;
                }
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                check_read_paths_agree(&flipped, &format!("{name}, byte {i} bit {bit}"));
            }
        }
    }
}

#[test]
fn every_read_path_fails_like_the_iterator_on_every_truncation() {
    for (name, bytes) in [("v1", valid_trace()), ("v2", valid_trace_v2())] {
        for cut in 0..bytes.len() {
            check_read_paths_agree(&bytes[..cut], &format!("{name}, cut at {cut}"));
        }
    }
}
