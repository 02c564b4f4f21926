//! The trace-event interface between the interpreter and profilers.
//!
//! This is the reproduction's stand-in for the Valgrind instrumentation
//! layer of the original Alchemist: the interpreter calls into a
//! [`TraceSink`] with exactly the events the paper's instrumentation rules
//! consume — function entry/exit, predicate executions, basic-block entries
//! (for the post-dominator rule) and every data-memory access.
//!
//! All timestamps are *retired instruction counts*, matching the paper's
//! "time stamp ... simulated by the number of executed instructions".
//! Since the scheduler interleaves threads on one shared clock, timestamps
//! stay globally non-decreasing across the whole stream.
//!
//! Every event carries the [`Tid`] of the thread that produced it. The
//! main thread is always [`Tid::MAIN`]; single-threaded programs therefore
//! produce streams whose tid column is uniformly zero.

use crate::batch::{EventBatch, EventTag};
use crate::op::{BlockId, Pc};
use alchemist_lang::hir::FuncId;
use std::fmt;

/// Instruction-count timestamp.
pub type Time = u64;

/// A thread id. The main thread is [`Tid::MAIN`] (0); spawned threads get
/// sequential ids in spawn order, never reused within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tid(pub u32);

impl Tid {
    /// The main thread's id.
    pub const MAIN: Tid = Tid(0);
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Receiver of execution events.
///
/// All methods default to no-ops so sinks override only what they need.
/// Running with the provided [`NullSink`] measures "original" (uninstrumented)
/// execution for overhead comparisons.
pub trait TraceSink {
    /// A function was entered; its frame occupies `[fp, fp + frame_words)`.
    fn on_enter_function(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        let _ = (t, func, fp, tid);
    }

    /// A function is about to return.
    fn on_exit_function(&mut self, t: Time, func: FuncId, tid: Tid) {
        let _ = (t, func, tid);
    }

    /// Control entered a basic block.
    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        let _ = (t, block, tid);
    }

    /// A conditional branch executed.
    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        let _ = (t, pc, block, taken, tid);
    }

    /// A data-memory word was read.
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        let _ = (t, addr, pc, tid);
    }

    /// A data-memory word was written.
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        let _ = (t, addr, pc, tid);
    }

    /// A block of events arrived at once (the bulk path of the pipeline).
    ///
    /// The default delivers every row through the matching per-event
    /// callback above, so sinks that predate batching — including
    /// third-party ones — behave identically without changes. Sinks on hot
    /// paths override this to process whole batches per virtual call (the
    /// trace codec, the profiler, fan-outs, shard filters).
    ///
    /// Implementations must preserve the row order and must not assume a
    /// batch is non-empty or full.
    fn on_batch(&mut self, batch: &EventBatch) {
        batch.dispatch_into(self);
    }
}

/// Forwarding impl: any `&mut S` is itself a sink.
///
/// [`run`](crate::run) already borrows its sink, but APIs that take a sink
/// *by value* — combinators like a tee, helpers generic over `S:
/// TraceSink` — would otherwise consume the caller's only binding, forcing
/// `Option`-dance workarounds to get the sink back for inspection. With
/// this impl the caller hands such an API `&mut sink` and keeps ownership:
///
/// ```
/// use alchemist_vm::{CountingSink, Pc, Tid, TraceSink};
///
/// fn feed(mut sink: impl TraceSink) {
///     sink.on_read(0, 1, Pc(0), Tid::MAIN);
/// }
///
/// let mut counts = CountingSink::default();
/// feed(&mut counts); // lends instead of moving
/// feed(&mut counts);
/// assert_eq!(counts.reads, 2); // still ours to inspect
/// ```
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn on_enter_function(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        (**self).on_enter_function(t, func, fp, tid);
    }
    fn on_exit_function(&mut self, t: Time, func: FuncId, tid: Tid) {
        (**self).on_exit_function(t, func, tid);
    }
    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        (**self).on_block_entry(t, block, tid);
    }
    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        (**self).on_predicate(t, pc, block, taken, tid);
    }
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        (**self).on_read(t, addr, pc, tid);
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        (**self).on_write(t, addr, pc, tid);
    }
    fn on_batch(&mut self, batch: &EventBatch) {
        (**self).on_batch(batch);
    }
}

/// A sink that ignores every event (native-speed baseline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn on_batch(&mut self, _batch: &EventBatch) {}
}

/// Counts events by category; useful for tests and overhead accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Function entries observed.
    pub enters: u64,
    /// Function exits observed.
    pub exits: u64,
    /// Block entries observed.
    pub blocks: u64,
    /// Predicate executions observed.
    pub predicates: u64,
    /// Reads observed.
    pub reads: u64,
    /// Writes observed.
    pub writes: u64,
}

impl TraceSink for CountingSink {
    fn on_enter_function(&mut self, _t: Time, _func: FuncId, _fp: u32, _tid: Tid) {
        self.enters += 1;
    }
    fn on_exit_function(&mut self, _t: Time, _func: FuncId, _tid: Tid) {
        self.exits += 1;
    }
    fn on_block_entry(&mut self, _t: Time, _block: BlockId, _tid: Tid) {
        self.blocks += 1;
    }
    fn on_predicate(&mut self, _t: Time, _pc: Pc, _block: BlockId, _taken: bool, _tid: Tid) {
        self.predicates += 1;
    }
    fn on_read(&mut self, _t: Time, _addr: u32, _pc: Pc, _tid: Tid) {
        self.reads += 1;
    }
    fn on_write(&mut self, _t: Time, _addr: u32, _pc: Pc, _tid: Tid) {
        self.writes += 1;
    }
    fn on_batch(&mut self, batch: &EventBatch) {
        // One pass over the tag column; no row reconstruction.
        for tag in batch.tags() {
            match tag {
                EventTag::Enter => self.enters += 1,
                EventTag::Exit => self.exits += 1,
                EventTag::Block => self.blocks += 1,
                EventTag::PredNotTaken | EventTag::PredTaken => self.predicates += 1,
                EventTag::Read => self.reads += 1,
                EventTag::Write => self.writes += 1,
            }
        }
    }
}

/// One recorded event (see [`RecordingSink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Function entry.
    Enter {
        /// Timestamp.
        t: Time,
        /// The function entered.
        func: FuncId,
        /// Frame base address.
        fp: u32,
        /// Executing thread.
        tid: Tid,
    },
    /// Function exit.
    Exit {
        /// Timestamp.
        t: Time,
        /// The function exiting.
        func: FuncId,
        /// Executing thread.
        tid: Tid,
    },
    /// Basic-block entry.
    Block {
        /// Timestamp.
        t: Time,
        /// The block entered.
        block: BlockId,
        /// Executing thread.
        tid: Tid,
    },
    /// Conditional-branch execution.
    Predicate {
        /// Timestamp.
        t: Time,
        /// The branch instruction.
        pc: Pc,
        /// The block containing the branch.
        block: BlockId,
        /// Whether the branch was taken.
        taken: bool,
        /// Executing thread.
        tid: Tid,
    },
    /// Memory read.
    Read {
        /// Timestamp.
        t: Time,
        /// Word address.
        addr: u32,
        /// The reading instruction.
        pc: Pc,
        /// Executing thread.
        tid: Tid,
    },
    /// Memory write.
    Write {
        /// Timestamp.
        t: Time,
        /// Word address.
        addr: u32,
        /// The writing instruction.
        pc: Pc,
        /// Executing thread.
        tid: Tid,
    },
}

impl Event {
    /// The event's timestamp.
    pub fn time(&self) -> Time {
        match *self {
            Event::Enter { t, .. }
            | Event::Exit { t, .. }
            | Event::Block { t, .. }
            | Event::Predicate { t, .. }
            | Event::Read { t, .. }
            | Event::Write { t, .. } => t,
        }
    }

    /// The thread that produced the event.
    pub fn tid(&self) -> Tid {
        match *self {
            Event::Enter { tid, .. }
            | Event::Exit { tid, .. }
            | Event::Block { tid, .. }
            | Event::Predicate { tid, .. }
            | Event::Read { tid, .. }
            | Event::Write { tid, .. } => tid,
        }
    }

    /// Delivers the event to `sink` by calling the matching trait method.
    ///
    /// This is the replay primitive: any stream of [`Event`]s (a
    /// [`RecordingSink`], a decoded trace file) can drive any sink exactly
    /// as a live interpreter run would.
    pub fn dispatch<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        match *self {
            Event::Enter { t, func, fp, tid } => sink.on_enter_function(t, func, fp, tid),
            Event::Exit { t, func, tid } => sink.on_exit_function(t, func, tid),
            Event::Block { t, block, tid } => sink.on_block_entry(t, block, tid),
            Event::Predicate {
                t,
                pc,
                block,
                taken,
                tid,
            } => sink.on_predicate(t, pc, block, taken, tid),
            Event::Read { t, addr, pc, tid } => sink.on_read(t, addr, pc, tid),
            Event::Write { t, addr, pc, tid } => sink.on_write(t, addr, pc, tid),
        }
    }
}

/// Records the full event stream (tests and the oracle profiler).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingSink {
    /// The recorded events, in order.
    pub events: Vec<Event>,
}

impl TraceSink for RecordingSink {
    fn on_enter_function(&mut self, t: Time, func: FuncId, fp: u32, tid: Tid) {
        self.events.push(Event::Enter { t, func, fp, tid });
    }
    fn on_exit_function(&mut self, t: Time, func: FuncId, tid: Tid) {
        self.events.push(Event::Exit { t, func, tid });
    }
    fn on_block_entry(&mut self, t: Time, block: BlockId, tid: Tid) {
        self.events.push(Event::Block { t, block, tid });
    }
    fn on_predicate(&mut self, t: Time, pc: Pc, block: BlockId, taken: bool, tid: Tid) {
        self.events.push(Event::Predicate {
            t,
            pc,
            block,
            taken,
            tid,
        });
    }
    fn on_read(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.events.push(Event::Read { t, addr, pc, tid });
    }
    fn on_write(&mut self, t: Time, addr: u32, pc: Pc, tid: Tid) {
        self.events.push(Event::Write { t, addr, pc, tid });
    }
    fn on_batch(&mut self, batch: &EventBatch) {
        self.events.reserve(batch.len());
        self.events.extend(batch.iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tallies() {
        let mut s = CountingSink::default();
        s.on_read(0, 1, Pc(0), Tid::MAIN);
        s.on_read(1, 2, Pc(1), Tid(1));
        s.on_write(2, 1, Pc(2), Tid::MAIN);
        s.on_predicate(3, Pc(3), BlockId(0), true, Tid::MAIN);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.predicates, 1);
        assert_eq!(s.blocks, 0);
    }

    #[test]
    fn dispatch_replays_into_any_sink() {
        let mut rec = RecordingSink::default();
        rec.on_enter_function(0, FuncId(1), 8, Tid::MAIN);
        rec.on_predicate(1, Pc(4), BlockId(2), false, Tid(2));
        rec.on_read(2, 9, Pc(5), Tid::MAIN);
        rec.on_write(3, 9, Pc(6), Tid(1));
        rec.on_block_entry(4, BlockId(3), Tid(1));
        rec.on_exit_function(5, FuncId(1), Tid::MAIN);

        let mut replayed = RecordingSink::default();
        for e in &rec.events {
            assert_eq!(
                e.time(),
                rec.events.iter().position(|x| x == e).unwrap() as u64
            );
            e.dispatch(&mut replayed);
        }
        assert_eq!(rec, replayed);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn feed<S: TraceSink>(mut s: S) {
            s.on_read(0, 1, Pc(0), Tid::MAIN);
        }
        let mut counts = CountingSink::default();
        feed(&mut counts);
        feed(&mut counts);
        assert_eq!(counts.reads, 2);
    }

    #[test]
    fn counting_sink_batch_override_matches_per_event() {
        let mut rec = RecordingSink::default();
        rec.on_enter_function(0, FuncId(0), 8, Tid::MAIN);
        rec.on_predicate(1, Pc(4), BlockId(2), true, Tid(3));
        rec.on_read(2, 9, Pc(5), Tid(3));
        rec.on_write(3, 9, Pc(6), Tid::MAIN);
        rec.on_block_entry(4, BlockId(3), Tid::MAIN);
        rec.on_exit_function(5, FuncId(0), Tid::MAIN);
        let batch = EventBatch::from_events(&rec.events);

        let mut per_event = CountingSink::default();
        for e in &rec.events {
            e.dispatch(&mut per_event);
        }
        let mut batched = CountingSink::default();
        batched.on_batch(&batch);
        assert_eq!(batched, per_event);

        let mut rebatched = RecordingSink::default();
        rebatched.on_batch(&batch);
        assert_eq!(rebatched.events, rec.events);
    }

    #[test]
    fn recording_sink_preserves_order_and_tids() {
        let mut s = RecordingSink::default();
        s.on_enter_function(0, FuncId(0), 16, Tid::MAIN);
        s.on_write(1, 16, Pc(2), Tid(7));
        s.on_exit_function(2, FuncId(0), Tid::MAIN);
        assert_eq!(s.events.len(), 3);
        assert!(matches!(s.events[0], Event::Enter { fp: 16, .. }));
        assert_eq!(s.events[1].tid(), Tid(7));
        assert!(matches!(s.events[2], Event::Exit { .. }));
    }

    #[test]
    fn tid_display_and_default() {
        assert_eq!(Tid(3).to_string(), "t3");
        assert_eq!(Tid::default(), Tid::MAIN);
    }
}
