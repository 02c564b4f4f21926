//! Property tests for batched trace round-trips: for arbitrary event
//! sequences, encoding through `TraceWriter::on_batch` must produce the
//! byte-identical `.alct` stream the per-event path produces, and decoding
//! through the batched readers (`read_batch`, `decode_batches_par`,
//! `replay_pipelined`) must reproduce the per-event round-trip exactly —
//! including when batch and chunk boundaries disagree, so batches straddle
//! chunk edges both ways.
//!
//! The v2 (threaded) format gets the same treatment with arbitrary tid
//! streams: thread ids must survive every encode/decode path bit-exactly,
//! across chunk boundaries, at any batch granularity.
//!
//! Addresses, pcs and frame pointers range over all of `u32`, and some
//! timestamp deltas reach 2^40, so besides the one-byte varints the
//! decoder reads inline, every read path also decodes five-byte field
//! deltas, the multi-byte timestamp escape and values next to `u32::MAX`.

use alchemist_lang::hir::FuncId;
use alchemist_trace::{
    decode_batches_par, replay_pipelined, ReplayOptions, TraceReader, TraceWriter,
};
use alchemist_vm::{BlockId, Event, EventBatch, Pc, RecordingSink, Tid, TraceSink};
use proptest::prelude::*;

/// One raw generated row: (timestamp delta, kind selector, field a,
/// field b, tid selector).
type RawEvent = (u64, u8, u32, u32, u8);

/// A field value: one near zero (one-byte deltas between neighbours),
/// anywhere in `u32` (five-byte deltas) or next to `u32::MAX`, a third of
/// the time each.
fn field() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..64, any::<u32>(), (u32::MAX - 63)..=u32::MAX]
}

/// A timestamp delta: below 40 (mostly inline in the lead byte), and one
/// time in eight up to 2^40 (the multi-byte escape).
fn dt() -> impl Strategy<Value = u64> {
    (0u64..40, 0u64..=(1 << 40), 0u8..8).prop_map(
        |(small, big, pick)| {
            if pick == 0 {
                big
            } else {
                small
            }
        },
    )
}

/// Materializes raw rows into a valid event stream (non-decreasing
/// timestamps, every kind reachable) and its final step count. `tid_mod`
/// folds the tid selector onto that many distinct threads (1 = all events
/// on [`Tid::MAIN`], the v1 shape).
fn build_events(raw: &[RawEvent], tid_mod: u32) -> (Vec<Event>, u64) {
    let mut t = 0u64;
    let mut events = Vec::with_capacity(raw.len());
    for &(dt, kind, a, b, tsel) in raw {
        t += dt;
        let tid = Tid(u32::from(tsel) % tid_mod.max(1));
        events.push(match kind % 7 {
            0 => Event::Enter {
                t,
                func: FuncId(a % 64),
                fp: b,
                tid,
            },
            1 => Event::Exit {
                t,
                func: FuncId(a % 64),
                tid,
            },
            2 => Event::Block {
                t,
                block: BlockId(a % 512),
                tid,
            },
            3 => Event::Predicate {
                t,
                pc: Pc(a),
                block: BlockId(b % 512),
                taken: false,
                tid,
            },
            4 => Event::Predicate {
                t,
                pc: Pc(a),
                block: BlockId(b % 512),
                taken: true,
                tid,
            },
            5 => Event::Read {
                t,
                addr: a,
                pc: Pc(b),
                tid,
            },
            _ => Event::Write {
                t,
                addr: a,
                pc: Pc(b),
                tid,
            },
        });
    }
    (events, t + 1)
}

fn encode_per_event(events: &[Event], total_steps: u64, chunk_cap: usize, v2: bool) -> Vec<u8> {
    let w = if v2 {
        TraceWriter::new_v2(Vec::new(), None)
    } else {
        TraceWriter::new(Vec::new(), None)
    };
    let mut w = w.unwrap().with_chunk_capacity(chunk_cap);
    for e in events {
        e.dispatch(&mut w);
    }
    w.finish(total_steps).unwrap().0
}

/// Shared body: batched encode must equal per-event bytes, and every
/// decode path must reproduce the original events.
fn check_roundtrip(
    events: &[Event],
    total_steps: u64,
    chunk_cap: usize,
    write_batch: usize,
    read_batch: usize,
    v2: bool,
) {
    let per_event_bytes = encode_per_event(events, total_steps, chunk_cap, v2);

    // Batched encode: same bytes, chunk boundaries included.
    let w = if v2 {
        TraceWriter::new_v2(Vec::new(), None)
    } else {
        TraceWriter::new(Vec::new(), None)
    };
    let mut w = w.unwrap().with_chunk_capacity(chunk_cap);
    for sl in events.chunks(write_batch.max(1)) {
        w.on_batch(&EventBatch::from_events(sl));
    }
    let (batched_bytes, stats) = w.finish(total_steps).unwrap();
    prop_assert_eq!(&batched_bytes, &per_event_bytes);
    prop_assert_eq!(stats.events, events.len() as u64);

    // Per-event decode is the reference.
    let mut reader = TraceReader::new(per_event_bytes.as_slice()).unwrap();
    prop_assert_eq!(reader.version(), if v2 { 2 } else { 1 });
    let decoded: Vec<Event> = (&mut reader).map(|e| e.unwrap()).collect();
    prop_assert_eq!(&decoded, events);

    // Batched streaming decode at a granularity unrelated to the chunk
    // size, so batches regularly straddle chunk edges.
    let mut r = TraceReader::new(per_event_bytes.as_slice()).unwrap();
    let mut batch = EventBatch::new();
    let mut streamed = Vec::with_capacity(events.len());
    while r.read_batch(&mut batch, read_batch.max(1)).unwrap() {
        prop_assert!(batch.len() <= read_batch.max(1));
        streamed.extend(batch.iter());
    }
    prop_assert_eq!(&streamed, events);
    prop_assert_eq!(r.total_steps(), Some(total_steps));

    // Chunk-parallel batch decode.
    let (batches, summary) =
        decode_batches_par(TraceReader::new(per_event_bytes.as_slice()).unwrap(), 4).unwrap();
    let flat: Vec<Event> = batches.iter().flat_map(|b| b.iter()).collect();
    prop_assert_eq!(&flat, events);
    prop_assert_eq!(summary.events, events.len() as u64);
    prop_assert_eq!(summary.total_steps, total_steps);

    // The replay pipeline: chunks decoded on two worker threads.
    let mut sink = RecordingSink::default();
    let options = ReplayOptions {
        jobs: 3,
        ..ReplayOptions::default()
    };
    let reader = TraceReader::new(per_event_bytes.as_slice()).unwrap();
    let summary = replay_pipelined(reader, &mut sink, options).unwrap();
    prop_assert_eq!(&sink.events, events);
    prop_assert_eq!(summary.total_steps, total_steps);
}

proptest! {
    /// Writing via `on_batch` — at any batch granularity — produces the
    /// byte-identical trace, and both batched read paths decode it back to
    /// the original events, across chunk boundaries.
    #[test]
    fn batched_roundtrip_equals_per_event_roundtrip(
        raw in proptest::collection::vec(
            (dt(), 0u8..7, field(), field(), 0u8..1), 0..250),
        chunk_cap in 1usize..33,
        write_batch in 1usize..50,
        read_batch in 1usize..50,
    ) {
        let (events, total_steps) = build_events(&raw, 1);
        check_roundtrip(&events, total_steps, chunk_cap, write_batch, read_batch, false);
    }

    /// The v2 format round-trips arbitrary tid streams — including tid
    /// runs that straddle chunk boundaries (chunk caps as small as one
    /// event) and batch granularities unrelated to either.
    #[test]
    fn v2_roundtrip_preserves_arbitrary_tid_streams(
        raw in proptest::collection::vec(
            (dt(), 0u8..7, field(), field(), any::<u8>()), 0..250),
        tid_mod in 1u32..9,
        chunk_cap in 1usize..33,
        write_batch in 1usize..50,
        read_batch in 1usize..50,
    ) {
        let (events, total_steps) = build_events(&raw, tid_mod);
        check_roundtrip(&events, total_steps, chunk_cap, write_batch, read_batch, true);
    }

    /// A v2 trace of an all-main-thread stream decodes to exactly the same
    /// events as its v1 encoding — the tid column is pure overhead, never
    /// a semantic change.
    #[test]
    fn v2_of_single_threaded_stream_decodes_like_v1(
        raw in proptest::collection::vec(
            (dt(), 0u8..7, field(), field(), 0u8..1), 0..120),
        chunk_cap in 1usize..17,
    ) {
        let (events, total_steps) = build_events(&raw, 1);
        let v1 = encode_per_event(&events, total_steps, chunk_cap, false);
        let v2 = encode_per_event(&events, total_steps, chunk_cap, true);
        let d1: Vec<Event> = TraceReader::new(v1.as_slice()).unwrap().map(|e| e.unwrap()).collect();
        let d2: Vec<Event> = TraceReader::new(v2.as_slice()).unwrap().map(|e| e.unwrap()).collect();
        prop_assert_eq!(&d1, &events);
        prop_assert_eq!(&d2, &events);
    }

    /// An EventBatch is a lossless carrier: pushing any event sequence in
    /// and iterating it back is the identity — thread ids included.
    #[test]
    fn event_batch_is_lossless(
        raw in proptest::collection::vec(
            (0u64..1000, 0u8..7, 0u32..u32::MAX, 0u32..u32::MAX, any::<u8>()), 0..200),
    ) {
        let (events, _) = build_events(&raw, 256);
        let batch = EventBatch::from_events(&events);
        prop_assert_eq!(batch.len(), events.len());
        let back: Vec<Event> = batch.iter().collect();
        prop_assert_eq!(back, events);
    }
}
