//! The `.alct` wire format: constants, codec state, per-event encoding,
//! and [`decode_chunk`], the one decoder: every read path (the streaming
//! [`TraceReader`](crate::TraceReader), the replay pipeline's workers,
//! chunk-parallel decode) hands it whole chunks and gets
//! [`EventBatch`] rows back, with no [`Event`] value in between.
//!
//! ## Layout
//!
//! ```text
//! file   := header chunk* footer
//! header := "ALCT" version:u16le flags:u16le [src_len:varint src:bytes]
//! chunk  := payload_len:varint event_count:varint t_first:varint
//!           t_span:varint payload:bytes
//! footer := a chunk with event_count == 0 whose payload is
//!           total_steps:varint
//! ```
//!
//! The `flags` word currently defines bit 0 (`FLAG_SOURCE`): the header
//! carries the mini-C source of the recorded program, which makes the trace
//! self-contained — replay can recompile the module and drive any analysis
//! without the original file.
//!
//! ## Chunks
//!
//! Chunks are self-delimiting (`payload_len` is the exact payload size) and
//! carry their own event count and absolute time range `[t_first, t_first +
//! t_span]`, so a reader can skip a chunk without decoding it — time
//! windowing and chunk-level statistics cost only header decodes. The
//! delta-codec state resets at every chunk boundary, which is what makes
//! chunks independently decodable.
//!
//! ## Events
//!
//! Each event starts with one lead byte: the kind tag in the low 3 bits and
//! an inline timestamp delta in the high 5 bits (values `0..=30`; `31`
//! escapes to an extension varint of `dt - 31`). Remaining fields are
//! zigzag-varint deltas against the previous value of the same field kind
//! within the chunk (previous address for addresses, previous pc for pcs,
//! and so on), so the hot sequential patterns — a scan through an array,
//! events from one code region — encode in one byte per field.

use crate::error::TraceError;
use crate::varint;
use alchemist_vm::{Event, EventBatch, EventTag};

/// File magic: the first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"ALCT";

/// Format version 1: the classic single-threaded layout. Still the default
/// for recording — every v1 producer keeps emitting byte-identical files.
pub const VERSION: u16 = 1;

/// Format version 2: identical to v1 except that each event-bearing chunk's
/// payload starts with a *thread-id column* — `event_count` zigzag-varint
/// deltas against the previous tid (starting from 0 at every chunk
/// boundary) — followed by the unchanged v1 event stream.
pub const VERSION_V2: u16 = 2;

/// Format version 3: the v2 layout plus a 4-byte little-endian CRC-32
/// (IEEE) of the payload, written between the four chunk-head varints and
/// the payload itself. `payload_len` does *not* include the CRC word. The
/// footer chunk is checksummed the same way. The CRC detects corruption
/// positively, which is what makes salvage replay (`--recover`) able to
/// skip a damaged chunk and resynchronise at the next one.
pub const VERSION_V3: u16 = 3;

/// Oldest version this reader decodes.
pub const MIN_VERSION: u16 = VERSION;

/// Newest version this reader decodes.
pub const MAX_VERSION: u16 = VERSION_V3;

/// Header flag: the mini-C source is embedded after the flags word.
pub const FLAG_SOURCE: u16 = 1 << 0;

/// All flag bits this version defines; others must be zero.
pub const KNOWN_FLAGS: u16 = FLAG_SOURCE;

/// Sanity cap on one chunk's payload (a corrupt length field must not
/// trigger a multi-gigabyte allocation).
pub const MAX_CHUNK_BYTES: u64 = 64 << 20;

/// Sanity cap on the embedded source size.
pub const MAX_SOURCE_BYTES: u64 = 16 << 20;

/// Largest timestamp delta carried inline in the lead byte.
const DT_INLINE_MAX: u64 = 30;
/// Lead-byte dt field value that escapes to an extension varint.
const DT_ESCAPE: u8 = 31;

const TAG_ENTER: u8 = 0;
const TAG_EXIT: u8 = 1;
const TAG_BLOCK: u8 = 2;
const TAG_PRED_NOT_TAKEN: u8 = 3;
const TAG_PRED_TAKEN: u8 = 4;
const TAG_READ: u8 = 5;
const TAG_WRITE: u8 = 6;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `data` —
/// the checksum v3 chunks carry. Table-driven, one table built at compile
/// time; matches the ubiquitous zlib/`cksum -o 3` definition so external
/// tools can verify chunks independently.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_concat(data, &[])
}

/// [`crc32`] over the concatenation `a ++ b`, without materialising it —
/// the writer checksums the tid column and event stream as one payload.
pub fn crc32_concat(a: &[u8], b: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &byte in a.iter().chain(b) {
        crc = TABLE[((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Per-chunk delta-codec state, identical on both sides of the wire.
#[derive(Debug, Clone, Copy)]
pub struct CodecState {
    prev_t: u64,
    prev_func: u32,
    prev_fp: u32,
    prev_block: u32,
    prev_pc: u32,
    prev_addr: u32,
}

impl CodecState {
    /// Fresh state for a chunk whose first event occurs at `t_first`.
    pub fn new(t_first: u64) -> Self {
        CodecState {
            prev_t: t_first,
            prev_func: 0,
            prev_fp: 0,
            prev_block: 0,
            prev_pc: 0,
            prev_addr: 0,
        }
    }
}

fn delta32(prev: &mut u32, new: u32) -> i64 {
    let d = i64::from(new) - i64::from(*prev);
    *prev = new;
    d
}

fn apply32(prev: &mut u32, delta: i64, what: &'static str) -> Result<u32, TraceError> {
    let v = i64::from(*prev)
        .checked_add(delta)
        .filter(|v| (0..=i64::from(u32::MAX)).contains(v))
        .ok_or(TraceError::Malformed(what))?;
    *prev = v as u32;
    Ok(v as u32)
}

/// Appends the encoding of `ev` to `out`, updating `state`.
///
/// Timestamps must be non-decreasing within a chunk (the interpreter's
/// retired-instruction clock guarantees this for live recording).
pub fn encode_event(state: &mut CodecState, ev: &Event, out: &mut Vec<u8>) {
    let t = ev.time();
    debug_assert!(t >= state.prev_t, "timestamps must not run backwards");
    let dt = t.saturating_sub(state.prev_t);
    state.prev_t = t;

    let (tag, inline_dt) = {
        let tag = match ev {
            Event::Enter { .. } => TAG_ENTER,
            Event::Exit { .. } => TAG_EXIT,
            Event::Block { .. } => TAG_BLOCK,
            Event::Predicate { taken: false, .. } => TAG_PRED_NOT_TAKEN,
            Event::Predicate { taken: true, .. } => TAG_PRED_TAKEN,
            Event::Read { .. } => TAG_READ,
            Event::Write { .. } => TAG_WRITE,
        };
        if dt <= DT_INLINE_MAX {
            (tag, dt as u8)
        } else {
            (tag, DT_ESCAPE)
        }
    };
    out.push(tag | (inline_dt << 3));
    if inline_dt == DT_ESCAPE {
        varint::write_u64(out, dt - DT_INLINE_MAX - 1);
    }

    match *ev {
        Event::Enter { func, fp, .. } => {
            varint::write_i64(out, delta32(&mut state.prev_func, func.0));
            varint::write_i64(out, delta32(&mut state.prev_fp, fp));
        }
        Event::Exit { func, .. } => {
            varint::write_i64(out, delta32(&mut state.prev_func, func.0));
        }
        Event::Block { block, .. } => {
            varint::write_i64(out, delta32(&mut state.prev_block, block.0));
        }
        Event::Predicate { pc, block, .. } => {
            varint::write_i64(out, delta32(&mut state.prev_pc, pc.0));
            varint::write_i64(out, delta32(&mut state.prev_block, block.0));
        }
        Event::Read { addr, pc, .. } | Event::Write { addr, pc, .. } => {
            varint::write_i64(out, delta32(&mut state.prev_addr, addr));
            varint::write_i64(out, delta32(&mut state.prev_pc, pc.0));
        }
    }
}

/// Decodes one event-bearing chunk's payload and appends its `events` rows
/// to `batch`: the trace's one decoder, behind every read path.
///
/// A v2 `version` payload opens with the thread-id column (v1 rows stay
/// on the main thread); `t_first` seeds the timestamp deltas. Rows are
/// written in place ([`EventBatch::append_rows`]), and one-byte varints,
/// the common case, are read inline.
///
/// # Errors
///
/// [`TraceError::Truncated`] when the payload ends early,
/// [`TraceError::BadEventTag`] on an undefined kind tag, and
/// [`TraceError::Malformed`] when a delta walks a field out of range,
/// bytes remain after the last event, or `events` exceeds the payload
/// size. `batch` then keeps the rows an event-by-event reader delivers
/// before the error: none for a bad thread-id column, all but the last
/// for trailing bytes.
pub fn decode_chunk(
    version: u16,
    t_first: u64,
    events: u64,
    payload: &[u8],
    batch: &mut EventBatch,
) -> Result<(), TraceError> {
    let (start, mut done) = (batch.len(), 0);
    let decoded = decode_rows(version, t_first, events, payload, batch, &mut done);
    if decoded.is_err() {
        batch.truncate(start + done);
    }
    decoded
}

/// Reads a zigzag delta: a one-byte varint inline, longer ones through
/// [`varint::read_i64`].
#[inline(always)]
fn read_delta(buf: &[u8], pos: &mut usize) -> Result<i64, TraceError> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(varint::unzigzag(u64::from(byte)))
        }
        _ => varint::read_i64(buf, pos),
    }
}

/// [`decode_chunk`]'s body: appends the rows, counting in `done` those a
/// per-event reader would deliver.
fn decode_rows(
    version: u16,
    t_first: u64,
    events: u64,
    buf: &[u8],
    batch: &mut EventBatch,
    done: &mut usize,
) -> Result<(), TraceError> {
    // Every event takes at least one byte, so this bounds the rows grown.
    if events > buf.len() as u64 {
        return Err(TraceError::Malformed("event count exceeds payload size"));
    }
    let n = events as usize;
    let mut rows = batch.append_rows(n);
    let mut pos = 0;
    if version >= VERSION_V2 {
        let mut prev = 0;
        for tid in rows.tids_mut() {
            let d = read_delta(buf, &mut pos)?;
            *tid = apply32(&mut prev, d, "thread id out of range")?;
        }
    }
    let mut t = t_first;
    let (mut func, mut fp, mut block, mut pc, mut addr) = (0, 0, 0, 0, 0);
    for i in 0..n {
        let Some(&lead) = buf.get(pos) else {
            return Err(TraceError::Truncated("event lead byte"));
        };
        pos += 1;
        let dt = match lead >> 3 {
            DT_ESCAPE => varint::read_u64(buf, &mut pos)?
                .checked_add(DT_INLINE_MAX + 1)
                .ok_or(TraceError::Malformed("timestamp delta overflows u64"))?,
            inline => u64::from(inline),
        };
        t = t
            .checked_add(dt)
            .ok_or(TraceError::Malformed("timestamp overflows u64"))?;
        match lead & 0x07 {
            TAG_ENTER => {
                let (dfunc, dfp) = (read_delta(buf, &mut pos)?, read_delta(buf, &mut pos)?);
                let f = apply32(&mut func, dfunc, "function id out of range")?;
                let p = apply32(&mut fp, dfp, "frame pointer out of range")?;
                rows.set(i, EventTag::Enter, t, p, 0, f);
            }
            TAG_EXIT => {
                let dfunc = read_delta(buf, &mut pos)?;
                let f = apply32(&mut func, dfunc, "function id out of range")?;
                rows.set(i, EventTag::Exit, t, 0, 0, f);
            }
            TAG_BLOCK => {
                let dblock = read_delta(buf, &mut pos)?;
                let b = apply32(&mut block, dblock, "block id out of range")?;
                rows.set(i, EventTag::Block, t, 0, 0, b);
            }
            tag @ (TAG_PRED_NOT_TAKEN | TAG_PRED_TAKEN) => {
                let (dpc, dblock) = (read_delta(buf, &mut pos)?, read_delta(buf, &mut pos)?);
                let p = apply32(&mut pc, dpc, "pc out of range")?;
                let b = apply32(&mut block, dblock, "block id out of range")?;
                let tag = if tag == TAG_PRED_TAKEN {
                    EventTag::PredTaken
                } else {
                    EventTag::PredNotTaken
                };
                rows.set(i, tag, t, 0, p, b);
            }
            tag @ (TAG_READ | TAG_WRITE) => {
                let (daddr, dpc) = (read_delta(buf, &mut pos)?, read_delta(buf, &mut pos)?);
                let a = apply32(&mut addr, daddr, "address out of range")?;
                let p = apply32(&mut pc, dpc, "pc out of range")?;
                let tag = if tag == TAG_READ {
                    EventTag::Read
                } else {
                    EventTag::Write
                };
                rows.set(i, tag, t, a, p, 0);
            }
            other => return Err(TraceError::BadEventTag(other)),
        }
        *done = i + 1;
    }
    if pos != buf.len() {
        // The per-event reader fails the chunk's last event here.
        *done = done.saturating_sub(1);
        return Err(TraceError::Malformed("trailing bytes in chunk"));
    }
    Ok(())
}

/// Appends a v2 thread-id column to `out`: one zigzag-varint delta per
/// entry against the previous tid, starting from 0 (the codec resets at
/// every chunk boundary, like [`CodecState`]). Runs of same-thread events —
/// the common case under quantum scheduling — encode as one zero byte each.
pub fn encode_tid_column(tids: &[u32], out: &mut Vec<u8>) {
    let mut prev: u32 = 0;
    for &tid in tids {
        varint::write_i64(out, i64::from(tid) - i64::from(prev));
        prev = tid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alchemist_lang::hir::FuncId;
    use alchemist_vm::{BlockId, Pc, Tid};
    use proptest::prelude::*;

    /// The reference decoder: one event from `buf[*pos..]` on thread `tid`,
    /// advancing `*pos` and `state`. It is the per-event loop the readers
    /// ran before [`decode_chunk`], kept to check that decoder against.
    pub(crate) fn decode_event(
        state: &mut CodecState,
        buf: &[u8],
        pos: &mut usize,
        tid: Tid,
    ) -> Result<Event, TraceError> {
        let Some(&lead) = buf.get(*pos) else {
            return Err(TraceError::Truncated("event lead byte"));
        };
        *pos += 1;
        let tag = lead & 0x07;
        let inline_dt = lead >> 3;
        let dt = if inline_dt == DT_ESCAPE {
            let ext = varint::read_u64(buf, pos)?;
            ext.checked_add(DT_INLINE_MAX + 1)
                .ok_or(TraceError::Malformed("timestamp delta overflows u64"))?
        } else {
            u64::from(inline_dt)
        };
        let t = state
            .prev_t
            .checked_add(dt)
            .ok_or(TraceError::Malformed("timestamp overflows u64"))?;
        state.prev_t = t;
        match tag {
            TAG_ENTER => {
                let dfunc = varint::read_i64(buf, pos)?;
                let dfp = varint::read_i64(buf, pos)?;
                let func = apply32(&mut state.prev_func, dfunc, "function id out of range")?;
                let fp = apply32(&mut state.prev_fp, dfp, "frame pointer out of range")?;
                Ok(Event::Enter {
                    t,
                    func: FuncId(func),
                    fp,
                    tid,
                })
            }
            TAG_EXIT => {
                let dfunc = varint::read_i64(buf, pos)?;
                let func = apply32(&mut state.prev_func, dfunc, "function id out of range")?;
                Ok(Event::Exit {
                    t,
                    func: FuncId(func),
                    tid,
                })
            }
            TAG_BLOCK => {
                let dblock = varint::read_i64(buf, pos)?;
                let block = apply32(&mut state.prev_block, dblock, "block id out of range")?;
                Ok(Event::Block {
                    t,
                    block: BlockId(block),
                    tid,
                })
            }
            TAG_PRED_NOT_TAKEN | TAG_PRED_TAKEN => {
                let dpc = varint::read_i64(buf, pos)?;
                let dblock = varint::read_i64(buf, pos)?;
                let pc = apply32(&mut state.prev_pc, dpc, "pc out of range")?;
                let block = apply32(&mut state.prev_block, dblock, "block id out of range")?;
                Ok(Event::Predicate {
                    t,
                    pc: Pc(pc),
                    block: BlockId(block),
                    taken: tag == TAG_PRED_TAKEN,
                    tid,
                })
            }
            TAG_READ | TAG_WRITE => {
                let daddr = varint::read_i64(buf, pos)?;
                let dpc = varint::read_i64(buf, pos)?;
                let addr = apply32(&mut state.prev_addr, daddr, "address out of range")?;
                let pc = apply32(&mut state.prev_pc, dpc, "pc out of range")?;
                let pc = Pc(pc);
                Ok(if tag == TAG_READ {
                    Event::Read { t, addr, pc, tid }
                } else {
                    Event::Write { t, addr, pc, tid }
                })
            }
            other => Err(TraceError::BadEventTag(other)),
        }
    }

    /// The reference thread-id column decoder: `count` entries from
    /// `buf[*pos..]`, advancing `*pos`.
    fn decode_tid_column(
        buf: &[u8],
        pos: &mut usize,
        count: usize,
    ) -> Result<Vec<u32>, TraceError> {
        let mut prev: u32 = 0;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let d = varint::read_i64(buf, pos)?;
            out.push(apply32(&mut prev, d, "thread id out of range")?);
        }
        Ok(out)
    }

    /// What the reference decoders deliver from one chunk, event by event,
    /// as the readers did: the events before the first error, then the
    /// error (the thread-id column first; trailing bytes fail the last
    /// event).
    fn reference(
        version: u16,
        t_first: u64,
        events: u64,
        payload: &[u8],
    ) -> (Vec<Event>, Result<(), String>) {
        let mut pos = 0;
        let mut out = Vec::new();
        let tids = if version >= VERSION_V2 {
            match decode_tid_column(payload, &mut pos, events as usize) {
                Ok(tids) => tids,
                Err(e) => return (out, Err(e.to_string())),
            }
        } else {
            vec![0; events as usize]
        };
        let mut state = CodecState::new(t_first);
        for (i, &tid) in tids.iter().enumerate() {
            match decode_event(&mut state, payload, &mut pos, Tid(tid)) {
                Ok(_) if i + 1 == tids.len() && pos != payload.len() => {
                    return (out, Err("malformed trace: trailing bytes in chunk".into()));
                }
                Ok(ev) => out.push(ev),
                Err(e) => return (out, Err(e.to_string())),
            }
        }
        if tids.is_empty() && pos != payload.len() {
            return (out, Err("malformed trace: trailing bytes in chunk".into()));
        }
        (out, Ok(()))
    }

    /// [`decode_chunk`] into a batch that already holds one row, which
    /// must survive: the decoder appends. The rows' unused columns must
    /// hold 0, as [`EventBatch::push_event`] leaves them.
    fn decode(
        version: u16,
        t_first: u64,
        events: u64,
        payload: &[u8],
    ) -> (Vec<Event>, Result<(), String>) {
        let first = event(2, 7, 7, 0, Tid(7));
        let mut batch = EventBatch::from_events(&[first]);
        let result = decode_chunk(version, t_first, events, payload, &mut batch);
        let mut rows: Vec<Event> = batch.iter().collect();
        assert_eq!(batch, EventBatch::from_events(&rows), "unused columns");
        assert_eq!(rows.remove(0), first, "the decoder only appends");
        (rows, result.map_err(|e| e.to_string()))
    }

    /// One chunk payload: the v2 thread-id column if `v2`, then the events.
    fn encode_chunk(events: &[Event], v2: bool) -> Vec<u8> {
        let mut out = Vec::new();
        if v2 {
            let tids: Vec<u32> = events.iter().map(|e| e.tid().0).collect();
            encode_tid_column(&tids, &mut out);
        }
        let mut state = CodecState::new(events.first().map_or(0, Event::time));
        for e in events {
            encode_event(&mut state, e, &mut out);
        }
        out
    }

    /// An event of kind `kind % 7` at time `t` on thread `tid`, with
    /// fields drawn from `a` and `b`.
    fn event(kind: u8, t: u64, a: u32, b: u32, tid: Tid) -> Event {
        match kind % 7 {
            0 => Event::Enter {
                t,
                func: FuncId(a),
                fp: b,
                tid,
            },
            1 => Event::Exit {
                t,
                func: FuncId(a),
                tid,
            },
            2 => Event::Block {
                t,
                block: BlockId(a),
                tid,
            },
            3 | 4 => Event::Predicate {
                t,
                pc: Pc(a),
                block: BlockId(b),
                taken: kind % 7 == 4,
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
        }
    }

    /// Every kind, at field values from 0 to `u32::MAX`, on the thread
    /// `tid(i)` gives the `i`th event.
    fn sample_events(tid: impl Fn(u32) -> Tid) -> Vec<Event> {
        let fields = [(0, 16), (3, 3), (40, 3), (44, 4), (100, 41), (u32::MAX, 42)];
        let mut events = Vec::new();
        let mut t = 5;
        for (i, &(a, b)) in fields.iter().enumerate() {
            for kind in 0..7u8 {
                let n = events.len() as u32;
                events.push(event(kind, t, a, b ^ n, tid(n)));
                t += [0, 1, 30, 31, 1000][(i + usize::from(kind)) % 5];
            }
        }
        events.push(event(1, 1 << 40, 0, 0, tid(99)));
        events
    }

    #[test]
    fn events_roundtrip_through_the_codec() {
        let threads = [0, 2, 2, 1, u32::MAX, 0, 7];
        for v2 in [false, true] {
            let events = sample_events(|i| {
                if v2 {
                    Tid(threads[i as usize % threads.len()])
                } else {
                    Tid::MAIN
                }
            });
            let buf = encode_chunk(&events, v2);
            let version = if v2 { VERSION_V2 } else { VERSION };
            let n = events.len() as u64;
            let decoded = decode(version, events[0].time(), n, &buf);
            assert_eq!(decoded, (events.clone(), Ok(())), "v2={v2}");
            assert_eq!(decoded, reference(version, events[0].time(), n, &buf));
        }
    }

    #[test]
    fn adjacent_accesses_encode_in_three_bytes() {
        // dt=1, addr +1, pc 0 from the previous access: the hot pattern.
        let mut enc = CodecState::new(0);
        let mut buf = Vec::new();
        encode_event(&mut enc, &event(5, 0, 0, 0, Tid::MAIN), &mut buf);
        let before = buf.len();
        encode_event(&mut enc, &event(5, 1, 1, 0, Tid::MAIN), &mut buf);
        assert_eq!(buf.len() - before, 3);
    }

    #[test]
    fn large_dt_uses_the_escape() {
        let mut enc = CodecState::new(0);
        let mut buf = Vec::new();
        let ev = event(2, 1 << 40, 0, 0, Tid::MAIN);
        encode_event(&mut enc, &ev, &mut buf);
        assert_eq!(buf[0] >> 3, DT_ESCAPE);
        assert_eq!(decode(VERSION, 0, 1, &buf), (vec![ev], Ok(())));
    }

    #[test]
    fn tid_column_roundtrips_mixed_threads() {
        let tids = [0u32, 0, 1, 1, 2, 0, 7, 7, 3, u32::MAX];
        let events: Vec<Event> = (0..tids.len())
            .map(|i| event(2, i as u64, 9, 0, Tid(tids[i])))
            .collect();
        let buf = encode_chunk(&events, true);
        let mut batch = EventBatch::new();
        decode_chunk(VERSION_V2, 0, tids.len() as u64, &buf, &mut batch).unwrap();
        assert_eq!(batch.tids(), tids);
        assert_eq!(batch.iter().collect::<Vec<_>>(), events);
    }

    #[test]
    fn all_main_tid_column_is_one_byte_per_event() {
        let tids = [0u32; 16];
        let mut buf = Vec::new();
        encode_tid_column(&tids, &mut buf);
        assert_eq!(buf.len(), 16);
    }

    #[test]
    fn truncated_tid_column_is_a_typed_error() {
        // Five-byte deltas, so the cut column still covers the event count.
        let mut buf = Vec::new();
        encode_tid_column(&[u32::MAX, 0, 7], &mut buf);
        buf.pop();
        let mut batch = EventBatch::new();
        assert!(matches!(
            decode_chunk(VERSION_V2, 0, 3, &buf, &mut batch),
            Err(TraceError::Truncated(_))
        ));
        assert!(batch.is_empty(), "no row of the chunk survives");
    }

    #[test]
    fn negative_tid_delta_underflow_is_a_typed_error() {
        // A lone delta of -1 would take the running tid below zero.
        let mut buf = Vec::new();
        varint::write_i64(&mut buf, -1);
        encode_event(
            &mut CodecState::new(0),
            &event(2, 0, 0, 0, Tid::MAIN),
            &mut buf,
        );
        let mut batch = EventBatch::new();
        assert!(matches!(
            decode_chunk(VERSION_V2, 0, 1, &buf, &mut batch),
            Err(TraceError::Malformed("thread id out of range"))
        ));
        assert!(batch.is_empty());
    }

    #[test]
    fn crc32_matches_the_ieee_reference_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // One flipped bit must change the sum.
        assert_ne!(crc32(b"alchemist"), crc32(b"alchemisu"));
        // The concat form equals a CRC over the joined bytes.
        assert_eq!(crc32_concat(b"12345", b"6789"), crc32(b"123456789"));
        assert_eq!(crc32_concat(b"", b"123456789"), crc32(b"123456789"));
    }

    #[test]
    fn bad_tag_is_a_typed_error() {
        // Tag 7 is undefined; dt bits zero.
        let mut batch = EventBatch::new();
        assert!(matches!(
            decode_chunk(VERSION, 0, 1, &[0x07], &mut batch),
            Err(TraceError::BadEventTag(7))
        ));
        assert!(batch.is_empty());
    }

    #[test]
    fn truncated_event_is_a_typed_error() {
        let events = [
            event(2, 0, 1, 0, Tid::MAIN),
            event(5, 0, 1 << 20, 9000, Tid::MAIN),
        ];
        let buf = encode_chunk(&events, false);
        let (rows, result) = decode(VERSION, 0, 2, &buf[..buf.len() - 1]);
        assert_eq!(rows, events[..1], "the event before the cut survives");
        assert_eq!(result, Err("truncated trace: varint".to_string()));
    }

    #[test]
    fn trailing_bytes_fail_the_last_event() {
        let events = sample_events(|_| Tid::MAIN);
        let mut buf = encode_chunk(&events, false);
        buf.push(0);
        let (rows, result) = decode(VERSION, events[0].time(), events.len() as u64, &buf);
        assert_eq!(rows, events[..events.len() - 1]);
        assert_eq!(
            result,
            Err("malformed trace: trailing bytes in chunk".to_string())
        );
    }

    #[test]
    fn an_event_count_beyond_the_payload_grows_nothing() {
        let mut batch = EventBatch::new();
        assert!(matches!(
            decode_chunk(VERSION_V2, 0, u64::MAX, &[0, 0], &mut batch),
            Err(TraceError::Malformed("event count exceeds payload size"))
        ));
        assert!(batch.is_empty());
    }

    proptest! {
        /// On valid chunks and on damaged ones (a flipped bit, a cut, a
        /// stray byte, a wrong event count), the chunk decoder delivers
        /// exactly what the reference decoder delivers event by event,
        /// then the same error. Fields span the whole `u32` range and some
        /// timestamp deltas need the multi-byte escape, so the one-byte
        /// fast paths' fallbacks run too.
        #[test]
        fn chunk_decoder_matches_the_reference_decoder(
            raw in proptest::collection::vec(
                (0u8..7, 0u64..40, any::<u64>(), any::<u32>(), any::<u32>(), 0u32..4),
                1..60,
            ),
            v2 in any::<bool>(),
            damage in (0u8..5, any::<usize>(), 0u8..8),
        ) {
            let mut t = 0u64;
            let events: Vec<Event> = raw
                .iter()
                .map(|&(kind, dt, big, a, b, tid)| {
                    // One event in eight takes a delta of up to 2^40.
                    t += if big % 8 == 0 { big >> 24 } else { dt };
                    let small = |x: u32| if big % 3 == 0 { x } else { x % 70 };
                    let tid = if v2 { Tid(tid * (a % 1000)) } else { Tid::MAIN };
                    event(kind, t, small(a), small(b), tid)
                })
                .collect();
            let mut buf = encode_chunk(&events, v2);
            let mut count = events.len() as u64;
            let (mode, at, bit) = damage;
            let len = buf.len();
            match mode {
                0 => {}
                1 => buf[at % len] ^= 1 << bit,
                2 => buf.truncate(at % len),
                3 => buf.insert(at % (len + 1), bit.wrapping_mul(37)),
                _ => count = if bit % 2 == 0 { count + 1 } else { count - 1 },
            }
            let version = if v2 { VERSION_V2 } else { VERSION };
            let t_first = events[0].time();
            if count <= buf.len() as u64 {
                let got = decode(version, t_first, count, &buf);
                prop_assert_eq!(&got, &reference(version, t_first, count, &buf));
                if mode == 0 {
                    prop_assert_eq!(got, (events, Ok(())));
                }
            }
        }
    }
}
