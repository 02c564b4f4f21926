//! Struct-of-arrays event batches: the bulk interface of the event pipeline.
//!
//! The per-event [`TraceSink`] callbacks are the *semantic* interface —
//! one call per retired instrumentation point — but moving tens of millions
//! of events one call at a time caps throughput everywhere downstream
//! (encoding, replay, shard partitioning). An [`EventBatch`] carries the
//! same stream as parallel columns (`tag`/`time`/`addr`/`pc`/`aux`), so a
//! whole block of events crosses each layer boundary in a single
//! [`TraceSink::on_batch`] call, the columns stay cache-resident during
//! tight per-row loops, and batch-aware sinks (the trace codec, the shard
//! partitioner, fan-outs) can process rows without re-materializing
//! [`Event`] values.
//!
//! [`BatchingSink`] adapts the two worlds: it exposes the per-event
//! callbacks, accumulates rows into a reusable batch, and flushes to the
//! inner sink's `on_batch` at a configurable size. The interpreter uses it
//! when [`ExecConfig::batch_events`](crate::ExecConfig) is set, so every
//! existing sink works unchanged while batch-aware sinks get the bulk path.

use crate::events::{Event, Tid, Time, TraceSink};
use crate::op::{BlockId, Pc};
use alchemist_lang::hir::FuncId;

/// Default events-per-batch flush threshold (matches the trace codec's
/// default chunk size, so one batch fills one chunk).
pub const DEFAULT_BATCH_EVENTS: usize = 4096;

/// Discriminant of one batch row. Predicate outcomes are folded into the
/// tag (as in the `.alct` wire format) so a row needs no boolean column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventTag {
    /// Function entry (`addr` = frame base, `aux` = function id).
    Enter,
    /// Function exit (`aux` = function id).
    Exit,
    /// Basic-block entry (`aux` = block id).
    Block,
    /// Conditional branch, not taken (`pc` = branch pc, `aux` = block id).
    PredNotTaken,
    /// Conditional branch, taken (`pc` = branch pc, `aux` = block id).
    PredTaken,
    /// Memory read (`addr` = word address, `pc` = reading pc).
    Read,
    /// Memory write (`addr` = word address, `pc` = writing pc).
    Write,
}

impl EventTag {
    /// Whether this row is a data-memory access (the events an address
    /// shard owns; everything else is control and broadcast).
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, EventTag::Read | EventTag::Write)
    }
}

/// A block of events in struct-of-arrays layout.
///
/// Column meaning depends on the row's [`EventTag`] (see its variants);
/// unused columns hold 0 for that row, which keeps `PartialEq` meaningful
/// and the row encoding canonical.
///
/// # Examples
///
/// ```
/// use alchemist_vm::{Event, EventBatch, Pc, RecordingSink, Tid, TraceSink};
///
/// let mut batch = EventBatch::new();
/// batch.push_read(3, 100, Pc(7), Tid::MAIN);
/// batch.push_write(4, 101, Pc(8), Tid(1));
/// assert_eq!(batch.len(), 2);
/// assert_eq!(
///     batch.get(0),
///     Event::Read { t: 3, addr: 100, pc: Pc(7), tid: Tid::MAIN }
/// );
///
/// // Delivering a batch to any sink is equivalent to the per-event calls.
/// let mut rec = RecordingSink::default();
/// rec.on_batch(&batch);
/// assert_eq!(rec.events.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    tags: Vec<EventTag>,
    times: Vec<Time>,
    addrs: Vec<u32>,
    pcs: Vec<u32>,
    auxs: Vec<u32>,
    tids: Vec<u32>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// An empty batch with room for `capacity` rows in every column.
    pub fn with_capacity(capacity: usize) -> Self {
        EventBatch {
            tags: Vec::with_capacity(capacity),
            times: Vec::with_capacity(capacity),
            addrs: Vec::with_capacity(capacity),
            pcs: Vec::with_capacity(capacity),
            auxs: Vec::with_capacity(capacity),
            tids: Vec::with_capacity(capacity),
        }
    }

    /// Builds a batch from a slice of events.
    pub fn from_events(events: &[Event]) -> Self {
        let mut batch = EventBatch::with_capacity(events.len());
        for ev in events {
            batch.push_event(ev);
        }
        batch
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Removes all rows, keeping the columns' capacity for reuse.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Keeps the first `len` rows and drops the rest (no-op if `len >=
    /// self.len()`), keeping the columns' capacity.
    pub fn truncate(&mut self, len: usize) {
        self.tags.truncate(len);
        self.times.truncate(len);
        self.addrs.truncate(len);
        self.pcs.truncate(len);
        self.auxs.truncate(len);
        self.tids.truncate(len);
    }

    /// Appends `n` all-zero rows and returns them for overwriting in
    /// place: each column grows once, and a row costs slice writes instead
    /// of six `Vec::push`es. Drop rows left unwritten with
    /// [`EventBatch::truncate`].
    pub fn append_rows(&mut self, n: usize) -> RowsMut<'_> {
        let len = self.len() + n;
        self.tags.resize(len, EventTag::Enter);
        self.times.resize(len, 0);
        self.addrs.resize(len, 0);
        self.pcs.resize(len, 0);
        self.auxs.resize(len, 0);
        self.tids.resize(len, 0);
        let start = len - n;
        RowsMut {
            tags: &mut self.tags[start..],
            times: &mut self.times[start..],
            addrs: &mut self.addrs[start..],
            pcs: &mut self.pcs[start..],
            auxs: &mut self.auxs[start..],
            tids: &mut self.tids[start..],
        }
    }

    /// Appends rows `range` of `src`, one slice copy per column. Panics,
    /// before appending anything, if `range` is out of bounds.
    pub fn extend_from_range(&mut self, src: &EventBatch, range: std::ops::Range<usize>) {
        self.tags.extend_from_slice(&src.tags[range.clone()]);
        self.times.extend_from_slice(&src.times[range.clone()]);
        self.addrs.extend_from_slice(&src.addrs[range.clone()]);
        self.pcs.extend_from_slice(&src.pcs[range.clone()]);
        self.auxs.extend_from_slice(&src.auxs[range.clone()]);
        self.tids.extend_from_slice(&src.tids[range]);
    }

    #[inline]
    fn push_row(&mut self, tag: EventTag, t: Time, addr: u32, pc: u32, aux: u32, tid: Tid) {
        self.tags.push(tag);
        self.times.push(t);
        self.addrs.push(addr);
        self.pcs.push(pc);
        self.auxs.push(aux);
        self.tids.push(tid.0);
    }

    /// Appends a function-entry row.
    #[inline]
    pub fn push_enter(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        self.push_row(EventTag::Enter, t, fp, 0, func.0, tid);
    }

    /// Appends a function-exit row.
    #[inline]
    pub fn push_exit(&mut self, t: Time, func: FuncId, tid: Tid) {
        self.push_row(EventTag::Exit, t, 0, 0, func.0, tid);
    }

    /// Appends a block-entry row.
    #[inline]
    pub fn push_block(&mut self, t: Time, block: BlockId, tid: Tid) {
        self.push_row(EventTag::Block, t, 0, 0, block.0, tid);
    }

    /// Appends a predicate row.
    #[inline]
    pub fn push_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        let tag = if taken {
            EventTag::PredTaken
        } else {
            EventTag::PredNotTaken
        };
        self.push_row(tag, t, 0, pc.0, block.0, tid);
    }

    /// Appends a memory-read row.
    #[inline]
    pub fn push_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.push_row(EventTag::Read, t, addr, pc.0, 0, tid);
    }

    /// Appends a memory-write row.
    #[inline]
    pub fn push_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.push_row(EventTag::Write, t, addr, pc.0, 0, tid);
    }

    /// Appends one event as a row.
    #[inline]
    pub fn push_event(&mut self, ev: &Event) {
        match *ev {
            Event::Enter { t, func, fp, tid } => self.push_enter(t, func, fp, tid),
            Event::Exit { t, func, tid } => self.push_exit(t, func, tid),
            Event::Block { t, block, tid } => self.push_block(t, block, tid),
            Event::Predicate {
                t,
                pc,
                block,
                taken,
                tid,
            } => self.push_predicate(t, pc, block, taken, tid),
            Event::Read { t, addr, pc, tid } => self.push_read(t, addr, pc, tid),
            Event::Write { t, addr, pc, tid } => self.push_write(t, addr, pc, tid),
        }
    }

    /// Copies row `i` of `src` into this batch (a column-wise copy; no
    /// [`Event`] value is materialized). Used where rows are selected one
    /// at a time, like a shard filter's bulk path.
    #[inline]
    pub fn push_index(&mut self, src: &EventBatch, i: usize) {
        self.push_row(
            src.tags[i],
            src.times[i],
            src.addrs[i],
            src.pcs[i],
            src.auxs[i],
            Tid(src.tids[i]),
        );
    }

    /// Appends rows `rows` of `src`, in the order given, one column at a
    /// time (no [`Event`] value is materialized). A shard worker copies
    /// the rows routed to it out of the shared input batches this way.
    ///
    /// # Panics
    ///
    /// Panics, before appending anything, if an index is `>= src.len()`.
    pub fn extend_from_rows(&mut self, src: &EventBatch, rows: &[u32]) {
        fn gather<T: Copy>(dst: &mut Vec<T>, col: &[T], rows: &[u32]) {
            dst.extend(rows.iter().map(|&i| col[i as usize]));
        }
        // Checked up front so a bad index cannot leave the columns at
        // different lengths.
        let n = src.len();
        assert!(
            rows.iter().all(|&i| (i as usize) < n),
            "row index out of range for a {n}-row batch"
        );
        gather(&mut self.tags, &src.tags, rows);
        gather(&mut self.times, &src.times, rows);
        gather(&mut self.addrs, &src.addrs, rows);
        gather(&mut self.pcs, &src.pcs, rows);
        gather(&mut self.auxs, &src.auxs, rows);
        gather(&mut self.tids, &src.tids, rows);
    }

    /// Row `i`'s tag.
    #[inline]
    pub fn tag(&self, i: usize) -> EventTag {
        self.tags[i]
    }

    /// Row `i`'s timestamp.
    #[inline]
    pub fn time(&self, i: usize) -> Time {
        self.times[i]
    }

    /// Row `i`'s address column (word address / frame base).
    #[inline]
    pub fn addr(&self, i: usize) -> u32 {
        self.addrs[i]
    }

    /// Row `i`'s pc column.
    #[inline]
    pub fn pc(&self, i: usize) -> u32 {
        self.pcs[i]
    }

    /// Row `i`'s aux column (function id / block id).
    #[inline]
    pub fn aux(&self, i: usize) -> u32 {
        self.auxs[i]
    }

    /// Row `i`'s thread id.
    #[inline]
    pub fn tid(&self, i: usize) -> Tid {
        Tid(self.tids[i])
    }

    /// The tag column.
    pub fn tags(&self) -> &[EventTag] {
        &self.tags
    }

    /// The timestamp column.
    pub fn times(&self) -> &[Time] {
        &self.times
    }

    /// The thread-id column (raw `u32`s).
    pub fn tids(&self) -> &[u32] {
        &self.tids
    }

    /// Reconstructs row `i` as an [`Event`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> Event {
        let t = self.times[i];
        let tid = Tid(self.tids[i]);
        match self.tags[i] {
            EventTag::Enter => Event::Enter {
                t,
                func: FuncId(self.auxs[i]),
                fp: self.addrs[i],
                tid,
            },
            EventTag::Exit => Event::Exit {
                t,
                func: FuncId(self.auxs[i]),
                tid,
            },
            EventTag::Block => Event::Block {
                t,
                block: BlockId(self.auxs[i]),
                tid,
            },
            EventTag::PredNotTaken | EventTag::PredTaken => Event::Predicate {
                t,
                pc: Pc(self.pcs[i]),
                block: BlockId(self.auxs[i]),
                taken: self.tags[i] == EventTag::PredTaken,
                tid,
            },
            EventTag::Read => Event::Read {
                t,
                addr: self.addrs[i],
                pc: Pc(self.pcs[i]),
                tid,
            },
            EventTag::Write => Event::Write {
                t,
                addr: self.addrs[i],
                pc: Pc(self.pcs[i]),
                tid,
            },
        }
    }

    /// Iterates the rows as [`Event`] values.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Delivers every row to `sink` through the matching per-event
    /// callback, in order. This is the compatibility bridge behind the
    /// default [`TraceSink::on_batch`]: a sink that overrides nothing
    /// observes exactly the per-event stream.
    pub fn dispatch_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for i in 0..self.len() {
            let t = self.times[i];
            let tid = Tid(self.tids[i]);
            match self.tags[i] {
                EventTag::Enter => {
                    sink.on_enter_function(t, FuncId(self.auxs[i]), self.addrs[i], tid);
                }
                EventTag::Exit => sink.on_exit_function(t, FuncId(self.auxs[i]), tid),
                EventTag::Block => sink.on_block_entry(t, BlockId(self.auxs[i]), tid),
                EventTag::PredNotTaken => {
                    sink.on_predicate(t, Pc(self.pcs[i]), BlockId(self.auxs[i]), false, tid);
                }
                EventTag::PredTaken => {
                    sink.on_predicate(t, Pc(self.pcs[i]), BlockId(self.auxs[i]), true, tid);
                }
                EventTag::Read => sink.on_read(t, self.addrs[i], Pc(self.pcs[i]), tid),
                EventTag::Write => sink.on_write(t, self.addrs[i], Pc(self.pcs[i]), tid),
            }
        }
    }
}

/// The rows [`EventBatch::append_rows`] appended, numbered from 0.
#[derive(Debug)]
pub struct RowsMut<'a> {
    tags: &'a mut [EventTag],
    times: &'a mut [Time],
    addrs: &'a mut [u32],
    pcs: &'a mut [u32],
    auxs: &'a mut [u32],
    tids: &'a mut [u32],
}

impl RowsMut<'_> {
    /// Overwrites row `i` but its thread id; pass 0 for the columns `tag`
    /// leaves unused (see [`EventTag`]). Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, tag: EventTag, t: Time, addr: u32, pc: u32, aux: u32) {
        self.tags[i] = tag;
        self.times[i] = t;
        self.addrs[i] = addr;
        self.pcs[i] = pc;
        self.auxs[i] = aux;
    }

    /// The rows' thread-id column.
    pub fn tids_mut(&mut self) -> &mut [u32] {
        self.tids
    }
}

/// Adapts a batch-aware sink to the per-event interface: accumulates
/// events into a reusable [`EventBatch`] and flushes it to the inner
/// sink's [`TraceSink::on_batch`] every `capacity` events.
///
/// Used by [`run`](crate::run) when
/// [`ExecConfig::batch_events`](crate::ExecConfig) is above 1, and usable
/// standalone to batch any event source in front of any sink. Remember to
/// [`flush`](BatchingSink::flush) (or [`into_inner`](BatchingSink::into_inner))
/// after the final event; dropping the adapter does **not** flush.
///
/// # Examples
///
/// ```
/// use alchemist_vm::{BatchingSink, CountingSink, Pc, Tid, TraceSink};
///
/// let mut counts = CountingSink::default();
/// let mut batcher = BatchingSink::new(&mut counts, 8);
/// for i in 0..20 {
///     batcher.on_read(i, i as u32, Pc(0), Tid::MAIN);
/// }
/// batcher.flush(); // deliver the final partial batch
/// drop(batcher);
/// assert_eq!(counts.reads, 20);
/// ```
#[derive(Debug)]
pub struct BatchingSink<S> {
    inner: S,
    batch: EventBatch,
    capacity: usize,
}

impl<S: TraceSink> BatchingSink<S> {
    /// Wraps `inner`, flushing every `capacity` events (minimum 1).
    pub fn new(inner: S, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BatchingSink {
            inner,
            batch: EventBatch::with_capacity(capacity),
            capacity,
        }
    }

    /// Delivers any buffered events to the inner sink now.
    pub fn flush(&mut self) {
        if !self.batch.is_empty() {
            self.inner.on_batch(&self.batch);
            self.batch.clear();
        }
    }

    /// Flushes, then returns the inner sink.
    pub fn into_inner(mut self) -> S {
        self.flush();
        self.inner
    }

    /// Events currently buffered (below one flush threshold).
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    #[inline]
    fn maybe_flush(&mut self) {
        if self.batch.len() >= self.capacity {
            self.flush();
        }
    }
}

impl<S: TraceSink> TraceSink for BatchingSink<S> {
    fn on_enter_function(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        self.batch.push_enter(t, func, fp, tid);
        self.maybe_flush();
    }
    fn on_exit_function(&mut self, t: Time, func: FuncId, tid: Tid) {
        self.batch.push_exit(t, func, tid);
        self.maybe_flush();
    }
    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        self.batch.push_block(t, block, tid);
        self.maybe_flush();
    }
    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        self.batch.push_predicate(t, pc, block, taken, tid);
        self.maybe_flush();
    }
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.batch.push_read(t, addr, pc, tid);
        self.maybe_flush();
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.batch.push_write(t, addr, pc, tid);
        self.maybe_flush();
    }
    fn on_batch(&mut self, batch: &EventBatch) {
        // Preserve order: anything buffered precedes the incoming batch.
        self.flush();
        self.inner.on_batch(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CountingSink, RecordingSink};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Enter {
                t: 0,
                func: FuncId(1),
                fp: 64,
                tid: Tid::MAIN,
            },
            Event::Block {
                t: 1,
                block: BlockId(2),
                tid: Tid(1),
            },
            Event::Predicate {
                t: 2,
                pc: Pc(10),
                block: BlockId(2),
                taken: true,
                tid: Tid(1),
            },
            Event::Read {
                t: 3,
                addr: 7,
                pc: Pc(11),
                tid: Tid(2),
            },
            Event::Write {
                t: 4,
                addr: 7,
                pc: Pc(12),
                tid: Tid::MAIN,
            },
            Event::Predicate {
                t: 5,
                pc: Pc(10),
                block: BlockId(2),
                taken: false,
                tid: Tid(1),
            },
            Event::Exit {
                t: 6,
                func: FuncId(1),
                tid: Tid::MAIN,
            },
        ]
    }

    #[test]
    fn rows_roundtrip_through_get_and_iter() {
        let events = sample_events();
        let batch = EventBatch::from_events(&events);
        assert_eq!(batch.len(), events.len());
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(batch.get(i), *ev);
        }
        let collected: Vec<Event> = batch.iter().collect();
        assert_eq!(collected, events);
    }

    #[test]
    fn dispatch_into_equals_per_event_delivery() {
        let events = sample_events();
        let batch = EventBatch::from_events(&events);
        let mut via_batch = RecordingSink::default();
        batch.dispatch_into(&mut via_batch);
        assert_eq!(via_batch.events, events);
    }

    #[test]
    fn push_index_copies_rows_verbatim() {
        let src = EventBatch::from_events(&sample_events());
        let mut dst = EventBatch::new();
        for i in (0..src.len()).rev() {
            dst.push_index(&src, i);
        }
        let reversed: Vec<Event> = dst.iter().collect();
        let mut expect: Vec<Event> = src.iter().collect();
        expect.reverse();
        assert_eq!(reversed, expect);
    }

    #[test]
    fn extend_from_rows_gathers_rows_in_the_given_order() {
        let src = EventBatch::from_events(&sample_events());
        let rows = [6u32, 0, 3, 3, 4];
        let mut dst = EventBatch::from_events(&sample_events()[..1]);
        dst.extend_from_rows(&src, &rows);
        let mut expect = vec![src.get(0)];
        expect.extend(rows.iter().map(|&i| src.get(i as usize)));
        assert_eq!(dst.iter().collect::<Vec<Event>>(), expect);
    }

    #[test]
    fn extend_from_rows_rejects_a_bad_index_without_appending() {
        let src = EventBatch::from_events(&sample_events());
        let mut dst = EventBatch::new();
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dst.extend_from_rows(&src, &[1, 7]);
        }));
        assert!(bad.is_err());
        assert_eq!(dst, EventBatch::new(), "no column was extended");
    }

    #[test]
    fn clear_retains_capacity() {
        let mut batch = EventBatch::with_capacity(16);
        for ev in sample_events() {
            batch.push_event(&ev);
        }
        let cap = batch.tags.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.tags.capacity(), cap);
    }

    #[test]
    fn memory_tags_are_exactly_reads_and_writes() {
        for tag in [
            EventTag::Enter,
            EventTag::Exit,
            EventTag::Block,
            EventTag::PredNotTaken,
            EventTag::PredTaken,
        ] {
            assert!(!tag.is_memory());
        }
        assert!(EventTag::Read.is_memory());
        assert!(EventTag::Write.is_memory());
    }

    #[test]
    fn batching_sink_flushes_at_capacity_and_on_demand() {
        let mut rec = RecordingSink::default();
        let mut batcher = BatchingSink::new(&mut rec, 3);
        for ev in sample_events() {
            ev.dispatch(&mut batcher);
        }
        // 7 events, capacity 3: two full flushes happened, one row pending.
        assert_eq!(batcher.pending(), 1);
        batcher.flush();
        assert_eq!(batcher.pending(), 0);
        drop(batcher);
        assert_eq!(rec.events, sample_events());
    }

    #[test]
    fn batching_sink_forwards_incoming_batches_in_order() {
        let mut rec = RecordingSink::default();
        let mut batcher = BatchingSink::new(&mut rec, 100);
        let events = sample_events();
        // One buffered per-event row, then a whole batch: order must hold.
        events[0].dispatch(&mut batcher);
        batcher.on_batch(&EventBatch::from_events(&events[1..]));
        drop(batcher);
        assert_eq!(rec.events, events);
    }

    #[test]
    fn into_inner_flushes_the_tail() {
        let mut counts = CountingSink::default();
        let mut batcher = BatchingSink::new(&mut counts, 64);
        batcher.on_read(0, 1, Pc(0), Tid::MAIN);
        batcher.on_write(1, 1, Pc(1), Tid::MAIN);
        let _ = batcher.into_inner();
        assert_eq!(counts.reads, 1);
        assert_eq!(counts.writes, 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut counts = CountingSink::default();
        let mut batcher = BatchingSink::new(&mut counts, 0);
        batcher.on_read(0, 1, Pc(0), Tid::MAIN);
        assert_eq!(batcher.pending(), 0, "capacity 1 flushes every event");
        drop(batcher);
        assert_eq!(counts.reads, 1);
    }
}
