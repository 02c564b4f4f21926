//! Shadow memory for online dependence detection.
//!
//! Every profiled memory word carries shadow state: the last write access
//! and the set of distinct read sites since that write. Each access is
//! tagged with its instruction, timestamp and the construct instance (index
//! tree node) that was executing — enough to classify and attribute RAW,
//! WAR and WAW dependences the moment the second access occurs:
//!
//! * a **read** forms a RAW edge with the last write;
//! * a **write** forms a WAW edge with the last write and a WAR edge with
//!   every recorded read since that write, then clears the read set.
//!
//! Keeping all *distinct read pcs* (rather than only the most recent read)
//! preserves the static WAR edge set the paper reports in Table IV; the set
//! is capped per address to bound memory, replacing the stalest entry on
//! overflow.
//!
//! # Paged layout
//!
//! Shadow cells live in a **two-level paged table**: the address's top bits
//! ([`PAGE_SHIFT`]) select a page, the low bits a cell within it. Pages
//! hold [`PAGE_WORDS`] cells each and are allocated on first touch, so
//! untouched address ranges cost nothing, and every lookup after the first
//! touch is two array indexings — no hashing, for dense globals and high
//! frame addresses alike. [`ShadowMemory::with_dense_limit`] pre-sizes the
//! page-table spine for a known-dense prefix so the spine never
//! reallocates mid-run; the pages themselves always fault lazily.
//!
//! A cell keeps only the last write and a `u32` handle to its read set:
//! **40 bytes** with the profiler's [`NodeRef`] tag and 32 with the `()`
//! and `Option<TaskId>` tags of the stats audit and the parallel
//! simulator. A page therefore costs 160 KiB (128 KiB) to fault in. The
//! cell is kept this small because a page is allocated and initialized
//! whole on first touch: a program that touches all of a 2^20-word table
//! faults in 256 pages per shadow.
//!
//! # Read-set pool
//!
//! The read sets live out of line, in a pool owned by the
//! [`ShadowMemory`]. A cell takes a set on its first read after a write
//! and gives it back, cleared, at its next write; released sets go on a
//! free list and are reused before the pool grows, so the pool holds as
//! many sets as there were words read since their last write at the
//! busiest moment of the run. Sets are allocated 64 at a time in blocks
//! that never move, so growing the pool copies nothing. A set with
//! [`INLINE_READERS`] inline slots takes 224 bytes with the [`NodeRef`]
//! tag. The worst case is a word that is read and never written again: it
//! keeps its set to the end of the run, so a read-mostly program pays a
//! cell plus a set for every word it reads.
//!
//! # Allocation-free hot path
//!
//! Each read set is an inline small-vector ([`INLINE_READERS`] slots — the
//! default `reader_cap`): as long as a set stays within the inline
//! capacity, [`ShadowMemory::on_read`] and [`ShadowMemory::on_write`]
//! perform **no heap allocation** once the page is faulted in and the pool
//! holds as many sets as the run keeps in use at once — in a steady state
//! every set a read takes is one a write released. A `reader_cap` above
//! the inline capacity spills that set to a heap vector (counted in
//! [`ShadowStats::read_set_spills`]); the spill storage is retained across
//! write-clears and stays with the pooled set, so each set pays for the
//! spill at most once. Writes report their dependences through a
//! caller-supplied callback instead of returning a `Vec`, so detection
//! itself never allocates.
//!
//! # Determinism rules
//!
//! Results are independent of the backing layout by construction — paging
//! and pooling affect *where* a cell and its read set live, never what
//! they record. The rules that matter for replay parity are all per-cell:
//!
//! * a read from an already-recorded pc replaces that entry (keeping the
//!   later, more constraining timestamp), never growing the set;
//! * at the cap, the **stalest** entry (minimum `(t, pc)` — timestamp
//!   ties break toward the lowest pc) is evicted, so sequential and
//!   address-sharded replay pick identical victims regardless of
//!   insertion order, and `dropped_readers` advances identically;
//! * a write emits the WAW edge first, then the WAR edges in read-set
//!   order (insertion order, as evolved under the two rules above).

use crate::construct::DepKind;
use crate::pool::NodeRef;
use alchemist_vm::{Pc, Tid, Time};
use std::mem::MaybeUninit;

/// Log2 of [`PAGE_WORDS`]: address bits consumed by the in-page offset.
pub const PAGE_SHIFT: u32 = 12;

/// Shadow cells per page (4 Ki cells). One page covers a 4096-word-aligned
/// address range; the whole table is `Vec<Option<Box<[Cell]>>>` indexed by
/// `addr >> PAGE_SHIFT`.
pub const PAGE_WORDS: usize = 1 << PAGE_SHIFT;

const PAGE_MASK: u32 = (PAGE_WORDS as u32) - 1;

/// Inline capacity of a cell's read set: read sets at or below this many
/// distinct sites (the default `reader_cap`) never touch the heap.
pub const INLINE_READERS: usize = 8;

/// One recorded access, tagged with attribution data `T` (the construct
/// instance for the profiler, a task id for the parallel simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access<T = NodeRef> {
    /// The accessing instruction.
    pub pc: Pc,
    /// When it happened.
    pub t: Time,
    /// Thread that performed the access ([`Tid::MAIN`] for single-threaded
    /// runs). Dependence heads carry it so a later access can classify the
    /// edge as intra- or cross-thread.
    pub tid: Tid,
    /// Attribution tag: the construct instance (or task) executing at the
    /// time of the access.
    pub node: T,
}

/// A dependence detected between two accesses to the same address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedDep<T = NodeRef> {
    /// The earlier access (the dependence head).
    pub head: Access<T>,
    /// Tail instruction.
    pub tail_pc: Pc,
    /// Tail timestamp.
    pub tail_t: Time,
    /// The conflicting address (for resolving the variable name).
    pub addr: u32,
}

/// Allocation-telemetry counters for one [`ShadowMemory`].
///
/// These describe *how* the layout behaved (memory faulted in, inline
/// capacity exceeded), not *what* was detected — two runs with identical
/// dependence output can differ here (e.g. sequential vs sharded replay
/// fault pages independently), so the counters are excluded from profile
/// equality and merged additively across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowStats {
    /// Pages faulted in on first touch; each holds [`PAGE_WORDS`] cells.
    pub pages_allocated: u64,
    /// Times a read set outgrew [`INLINE_READERS`] and moved to a heap
    /// vector (possible only when `reader_cap` exceeds the inline
    /// capacity). Counts spill *events*, which bound — but can exceed —
    /// the actual allocations: a pooled set that spills again after a
    /// write-clear reuses its retained spill capacity.
    pub read_set_spills: u64,
}

/// A cell's read set, held in the [`ReadSetPool`]: an in-crate
/// small-vector of accesses.
///
/// Elements live in the inline buffer while `len <= INLINE_READERS` and in
/// `spill` beyond that. A write-clear resets `len` (and `spill`) but keeps
/// the spill vector's capacity, so a set spills at most once per capacity
/// level even under repeated fill/clear cycles.
struct ReadSet<T: Copy> {
    /// Total recorded reads; the storage invariant keys off this.
    len: u32,
    /// Inline storage; only `inline[..len]` is initialized, and only while
    /// `len <= INLINE_READERS`.
    inline: [MaybeUninit<Access<T>>; INLINE_READERS],
    /// Heap storage once the set outgrows the inline buffer; holds *all*
    /// `len` elements then (the inline buffer is dead past the spill).
    spill: Vec<Access<T>>,
}

impl<T: Copy> ReadSet<T> {
    fn new() -> Self {
        ReadSet {
            len: 0,
            // SAFETY: an array of `MaybeUninit` is trivially "initialized".
            inline: unsafe { MaybeUninit::uninit().assume_init() },
            spill: Vec::new(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn as_slice(&self) -> &[Access<T>] {
        if self.len() <= INLINE_READERS {
            // SAFETY: the storage invariant guarantees `inline[..len]` is
            // initialized while `len <= INLINE_READERS`.
            unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr() as *const Access<T>, self.len())
            }
        } else {
            &self.spill
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [Access<T>] {
        if self.len() <= INLINE_READERS {
            // SAFETY: as in `as_slice`.
            unsafe {
                std::slice::from_raw_parts_mut(
                    self.inline.as_mut_ptr() as *mut Access<T>,
                    self.len(),
                )
            }
        } else {
            &mut self.spill
        }
    }

    /// Appends an access. Returns `true` when this push spilled the set
    /// from the inline buffer to the heap (the caller counts it).
    #[inline]
    fn push(&mut self, access: Access<T>) -> bool {
        let n = self.len();
        let spilled = if n < INLINE_READERS {
            self.inline[n].write(access);
            false
        } else {
            let first = n == INLINE_READERS;
            if first {
                // SAFETY: at the spill point all INLINE_READERS inline
                // slots are initialized.
                let inline = unsafe {
                    std::slice::from_raw_parts(
                        self.inline.as_ptr() as *const Access<T>,
                        INLINE_READERS,
                    )
                };
                self.spill.clear();
                self.spill.extend_from_slice(inline);
            }
            self.spill.push(access);
            first
        };
        self.len += 1;
        spilled
    }

    /// Empties the set, retaining any spill capacity for reuse.
    #[inline]
    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for ReadSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Handle value of a cell with no read set in the pool.
const NO_READS: u32 = u32::MAX;

#[derive(Debug)]
struct Cell<T: Copy> {
    last_write: Option<Access<T>>,
    /// Handle of this cell's read set in the shadow's [`ReadSetPool`], or
    /// [`NO_READS`] while no read happened since the last write.
    reads: u32,
}

impl<T: Copy> Cell<T> {
    fn new() -> Self {
        Cell {
            last_write: None,
            reads: NO_READS,
        }
    }

    /// Whether any access was ever recorded here. Once true, stays true: a
    /// write pins `last_write`, and a read set is only released *by* a
    /// write.
    #[inline]
    fn touched(&self) -> bool {
        self.last_write.is_some() || self.reads != NO_READS
    }
}

/// Read sets per pool block.
const POOL_BLOCK: usize = 64;

/// The read sets of every cell read since its last write, out of line so
/// the cells stay small (see the [module docs](self#read-set-pool)). Sets
/// live in fixed blocks of [`POOL_BLOCK`] that never move once allocated,
/// so growing the pool copies no set and leaves no freed buffer behind.
#[derive(Debug)]
struct ReadSetPool<T: Copy> {
    blocks: Vec<Box<[ReadSet<T>; POOL_BLOCK]>>,
    /// Sets handed out so far; the next fresh handle.
    len: u32,
    /// Handles of cleared sets, reused last-released first.
    free: Vec<u32>,
}

impl<T: Copy> ReadSetPool<T> {
    fn new() -> Self {
        ReadSetPool {
            blocks: Vec::new(),
            len: 0,
            free: Vec::new(),
        }
    }

    /// The handle of an empty set for a cell's first read since its last
    /// write: the last one released, else a fresh one.
    #[inline]
    fn take(&mut self) -> u32 {
        if let Some(handle) = self.free.pop() {
            return handle;
        }
        if (self.len as usize).is_multiple_of(POOL_BLOCK) {
            self.grow();
        }
        self.len += 1;
        self.len - 1
    }

    /// Allocates the next block of sets. No handle it covers may reach
    /// [`NO_READS`].
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        assert!(
            self.len as usize + POOL_BLOCK <= NO_READS as usize,
            "read-set pool exhausted its u32 handles"
        );
        let block: Box<[ReadSet<T>]> = (0..POOL_BLOCK).map(|_| ReadSet::new()).collect();
        match block.try_into() {
            Ok(block) => self.blocks.push(block),
            Err(_) => unreachable!("a block holds POOL_BLOCK sets"),
        }
    }

    #[inline]
    fn get_mut(&mut self, handle: u32) -> &mut ReadSet<T> {
        let h = handle as usize;
        &mut self.blocks[h / POOL_BLOCK][h % POOL_BLOCK]
    }
}

/// Shadow state for the whole profiled address range, in the two-level
/// paged layout described in the [module docs](self).
#[derive(Debug)]
pub struct ShadowMemory<T: Copy = NodeRef> {
    /// Page table: `pages[addr >> PAGE_SHIFT]`, faulted in on first touch.
    pages: Vec<Option<Box<[Cell<T>]>>>,
    /// The read sets the cells' handles point into.
    pool: ReadSetPool<T>,
    reader_cap: usize,
    /// Addresses with shadow state (touched cells), maintained
    /// incrementally so [`ShadowMemory::len`] is O(1).
    occupied: usize,
    /// Layout telemetry (pages faulted, read-set spills).
    stats: ShadowStats,
    /// Count of reads dropped because a cell's read set was full.
    pub dropped_readers: u64,
}

impl<T: Copy> ShadowMemory<T> {
    /// Creates shadow memory keeping at most `reader_cap` distinct read
    /// sites per address between writes. Every page — dense globals and
    /// high frame addresses alike — is faulted in on first touch.
    pub fn new(reader_cap: usize) -> Self {
        Self::with_dense_limit(reader_cap, 0)
    }

    /// Like [`ShadowMemory::new`], additionally pre-sizing the page
    /// *table* (the outer spine of `Option` slots, not the pages
    /// themselves) to cover addresses `0..dense_limit` — e.g. the global
    /// segment, whose size is known up front — so the spine never
    /// reallocates while the hot loop runs over that range. Cells are
    /// still faulted in page-at-a-time on first touch; a program that
    /// never touches an address range never pays for it. Detection
    /// results are identical either way.
    pub fn with_dense_limit(reader_cap: usize, dense_limit: u32) -> Self {
        let spine = (dense_limit as usize).div_ceil(PAGE_WORDS);
        let mut pages = Vec::new();
        pages.resize_with(spine, || None);
        ShadowMemory {
            pages,
            pool: ReadSetPool::new(),
            reader_cap: reader_cap.max(1),
            occupied: 0,
            stats: ShadowStats::default(),
            dropped_readers: 0,
        }
    }

    /// Number of addresses with shadow state.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no address has been accessed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Layout telemetry: pages faulted in, read-set spills.
    pub fn stats(&self) -> ShadowStats {
        self.stats
    }

    /// Allocates the cells of page `page` (growing the page table as
    /// needed). Off the hot path: each page faults at most once.
    #[cold]
    #[inline(never)]
    fn fault_in(pages: &mut Vec<Option<Box<[Cell<T>]>>>, stats: &mut ShadowStats, page: usize) {
        if page >= pages.len() {
            pages.resize_with(page + 1, || None);
        }
        let slot = &mut pages[page];
        debug_assert!(slot.is_none(), "page {page} faulted twice");
        let mut cells = Vec::with_capacity(PAGE_WORDS);
        cells.resize_with(PAGE_WORDS, Cell::new);
        *slot = Some(cells.into_boxed_slice());
        stats.pages_allocated += 1;
    }

    /// The cell for `addr`, faulting its page in if needed. Borrows only
    /// the page table and the stats, so the caller can use the pool while
    /// it holds the cell.
    #[inline]
    fn cell<'a>(
        pages: &'a mut Vec<Option<Box<[Cell<T>]>>>,
        stats: &mut ShadowStats,
        addr: u32,
    ) -> &'a mut Cell<T> {
        let page = (addr >> PAGE_SHIFT) as usize;
        if page >= pages.len() || pages[page].is_none() {
            Self::fault_in(pages, stats, page);
        }
        // Both indexings are in bounds: `fault_in` grew the table and
        // populated the page.
        let cells = pages[page].as_mut().expect("page faulted in");
        &mut cells[(addr & PAGE_MASK) as usize]
    }

    /// Records a read; returns the RAW dependence it completes, if any.
    ///
    /// Allocation-free while the cell's read set stays within
    /// [`INLINE_READERS`], the page is already faulted in and the pool has
    /// a free set (or the cell already holds one).
    pub fn on_read(&mut self, addr: u32, access: Access<T>) -> Option<DetectedDep<T>> {
        let reader_cap = self.reader_cap;
        let mut dropped = false;
        let mut spilled = false;
        let cell = Self::cell(&mut self.pages, &mut self.stats, addr);
        let was_touched = cell.touched();
        if cell.reads == NO_READS {
            cell.reads = self.pool.take();
        }
        let reads = self.pool.get_mut(cell.reads);
        // Track the read for future WAR detection.
        if let Some(existing) = reads.as_mut_slice().iter_mut().find(|r| r.pc == access.pc) {
            // Same site read again: keep the later (more constraining) one.
            *existing = access;
        } else if reads.len() < reader_cap {
            spilled = reads.push(access);
        } else {
            // Replace the stalest entry; ties on the timestamp break by
            // lowest pc so sequential and sharded replay evict identically
            // (set order is an accident of insertion history).
            dropped = true;
            if let Some(oldest) = reads.as_mut_slice().iter_mut().min_by_key(|r| (r.t, r.pc)) {
                *oldest = access;
            }
        }
        let dep = cell.last_write.map(|head| DetectedDep {
            head,
            tail_pc: access.pc,
            tail_t: access.t,
            addr,
        });
        if !was_touched {
            self.occupied += 1;
        }
        if dropped {
            self.dropped_readers += 1;
        }
        if spilled {
            self.stats.read_set_spills += 1;
        }
        dep
    }

    /// Records a write, reporting each dependence it completes through
    /// `emit`: the WAW edge with the previous write first (if any), then
    /// one WAR edge per recorded read since that write, in read-set order.
    /// The read set is cleared and returned to the pool, and the write
    /// becomes the cell's `last_write`, regardless of what `emit` does.
    ///
    /// The callback form keeps the hot path allocation-free: dependences
    /// stream straight into the caller's profile with no intermediate
    /// `Vec`.
    pub fn on_write<F>(&mut self, addr: u32, access: Access<T>, emit: &mut F)
    where
        F: FnMut(DepKind, DetectedDep<T>),
    {
        let cell = Self::cell(&mut self.pages, &mut self.stats, addr);
        let was_touched = cell.touched();
        if let Some(head) = cell.last_write {
            emit(
                DepKind::Waw,
                DetectedDep {
                    head,
                    tail_pc: access.pc,
                    tail_t: access.t,
                    addr,
                },
            );
        }
        let handle = std::mem::replace(&mut cell.reads, NO_READS);
        if handle != NO_READS {
            let reads = self.pool.get_mut(handle);
            for head in reads.as_slice() {
                emit(
                    DepKind::War,
                    DetectedDep {
                        head: *head,
                        tail_pc: access.pc,
                        tail_t: access.t,
                        addr,
                    },
                );
            }
            // Back to the pool, cleared, for the next cell read after a
            // write.
            reads.clear();
            self.pool.free.push(handle);
        }
        cell.last_write = Some(access);
        if !was_touched {
            self.occupied += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::NodeId;

    fn acc(pc: u32, t: Time) -> Access {
        Access {
            pc: Pc(pc),
            t,
            tid: Tid::MAIN,
            node: NodeRef {
                id: NodeId(0),
                gen: 0,
            },
        }
    }

    /// Collects `on_write`'s callback output as `(waw, wars)` — the shape
    /// the old return-based API had, which the tests assert against.
    fn write_collect(
        s: &mut ShadowMemory,
        addr: u32,
        access: Access,
    ) -> (Option<DetectedDep>, Vec<DetectedDep>) {
        let mut waw = None;
        let mut wars = Vec::new();
        s.on_write(addr, access, &mut |kind, dep| match kind {
            DepKind::Waw => {
                assert!(waw.is_none(), "at most one WAW per write");
                waw = Some(dep);
            }
            DepKind::War => wars.push(dep),
            DepKind::Raw => panic!("writes never emit RAW"),
        });
        (waw, wars)
    }

    #[test]
    fn read_after_write_detects_raw() {
        let mut s = ShadowMemory::new(8);
        let (waw, wars) = write_collect(&mut s, 100, acc(1, 10));
        assert!(waw.is_none() && wars.is_empty());
        let raw = s.on_read(100, acc(2, 15)).expect("RAW detected");
        assert_eq!(raw.head.pc, Pc(1));
        assert_eq!(raw.tail_pc, Pc(2));
        assert_eq!(raw.tail_t, 15);
    }

    #[test]
    fn read_without_prior_write_is_not_raw() {
        let mut s = ShadowMemory::new(8);
        assert!(s.on_read(5, acc(1, 1)).is_none());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn write_after_write_detects_waw() {
        let mut s = ShadowMemory::new(8);
        write_collect(&mut s, 7, acc(1, 1));
        let (waw, _) = write_collect(&mut s, 7, acc(2, 9));
        let waw = waw.expect("WAW detected");
        assert_eq!(waw.head.pc, Pc(1));
        assert_eq!(waw.tail_pc, Pc(2));
    }

    #[test]
    fn write_after_reads_detects_all_distinct_wars() {
        let mut s = ShadowMemory::new(8);
        write_collect(&mut s, 7, acc(1, 1));
        s.on_read(7, acc(10, 2));
        s.on_read(7, acc(11, 3));
        s.on_read(7, acc(10, 4)); // same site again: updated, not duplicated
        let (_, wars) = write_collect(&mut s, 7, acc(2, 9));
        assert_eq!(wars.len(), 2);
        let heads: Vec<_> = wars.iter().map(|w| (w.head.pc, w.head.t)).collect();
        assert!(
            heads.contains(&(Pc(10), 4)),
            "same-site read keeps later time"
        );
        assert!(heads.contains(&(Pc(11), 3)));
    }

    #[test]
    fn reads_cleared_after_write() {
        let mut s = ShadowMemory::new(8);
        s.on_read(7, acc(10, 2));
        let (_, wars1) = write_collect(&mut s, 7, acc(1, 5));
        assert_eq!(wars1.len(), 1);
        let (_, wars2) = write_collect(&mut s, 7, acc(2, 6));
        assert!(wars2.is_empty(), "read set cleared by the first write");
    }

    #[test]
    fn addresses_are_independent() {
        let mut s = ShadowMemory::new(8);
        write_collect(&mut s, 1, acc(1, 1));
        assert!(s.on_read(2, acc(2, 2)).is_none());
        assert!(s.on_read(1, acc(3, 3)).is_some());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn len_matches_a_full_rescan() {
        // The occupancy counter must agree with an O(n) scan of touched
        // cells, across pre-faulted pages, lazily faulted pages and
        // repeated touches of the same address.
        let mut s: ShadowMemory = ShadowMemory::with_dense_limit(4, 16);
        let far = 3 * PAGE_WORDS as u32 + 5; // a lazily faulted page
        for (addr, pc) in [(0u32, 1u32), (3, 2), (3, 3), (far, 4), (far, 5), (7, 6)] {
            if pc % 2 == 0 {
                s.on_read(addr, acc(pc, pc as Time));
            } else {
                write_collect(&mut s, addr, acc(pc, pc as Time));
            }
            let scan: usize = s
                .pages
                .iter()
                .flatten()
                .map(|cells| cells.iter().filter(|c| c.touched()).count())
                .sum();
            assert_eq!(s.len(), scan, "after touching {addr}");
        }
        assert_eq!(s.len(), 4); // 0, 3, 7 on page 0; one far cell
    }

    #[test]
    fn pages_fault_on_first_touch_only() {
        let mut s: ShadowMemory = ShadowMemory::new(8);
        assert_eq!(s.stats().pages_allocated, 0);
        s.on_read(3, acc(1, 1)); // page 0
        assert_eq!(s.stats().pages_allocated, 1);
        s.on_read(7, acc(2, 2)); // page 0 again: no new fault
        assert_eq!(s.stats().pages_allocated, 1);
        let far = 5 * PAGE_WORDS as u32;
        write_collect(&mut s, far, acc(3, 3)); // page 5
        assert_eq!(s.stats().pages_allocated, 2);
        // Intermediate pages (1..5) stay unallocated.
        assert_eq!(s.pages.iter().filter(|p| p.is_some()).count(), 2);
    }

    #[test]
    fn dense_limit_sizes_the_spine_without_faulting() {
        let s: ShadowMemory = ShadowMemory::with_dense_limit(8, PAGE_WORDS as u32 + 1);
        assert_eq!(s.pages.len(), 2, "two spine slots cover 4097 words");
        assert_eq!(s.stats().pages_allocated, 0, "no page faulted yet");
        assert_eq!(s.len(), 0);
        let exact: ShadowMemory = ShadowMemory::with_dense_limit(8, PAGE_WORDS as u32);
        assert_eq!(exact.pages.len(), 1);
    }

    #[test]
    fn read_sets_spill_above_inline_capacity() {
        // reader_cap above INLINE_READERS forces the spill path; detection
        // output is unaffected.
        let cap = INLINE_READERS + 4;
        let mut s = ShadowMemory::new(cap);
        for i in 0..cap as u32 {
            s.on_read(1, acc(10 + i, i as Time));
        }
        assert_eq!(s.stats().read_set_spills, 1, "one spill event");
        assert_eq!(s.dropped_readers, 0, "cap not hit");
        let (_, wars) = write_collect(&mut s, 1, acc(2, 99));
        assert_eq!(wars.len(), cap, "every distinct site kept");
        // The spilled vector is reused: filling the same cell again does
        // not count another spill.
        for i in 0..cap as u32 {
            s.on_read(1, acc(10 + i, 50 + i as Time));
        }
        assert_eq!(s.stats().read_set_spills, 2, "spill re-counted per event");
        let (_, wars) = write_collect(&mut s, 1, acc(2, 200));
        assert_eq!(wars.len(), cap);
    }

    #[test]
    fn inline_read_sets_never_spill() {
        let mut s = ShadowMemory::new(INLINE_READERS);
        for round in 0..3u64 {
            for i in 0..INLINE_READERS as u32 {
                s.on_read(1, acc(10 + i, round * 100 + i as Time));
            }
            write_collect(&mut s, 1, acc(2, round * 100 + 50));
        }
        assert_eq!(s.stats().read_set_spills, 0);
        assert_eq!(s.dropped_readers, 0);
    }

    #[test]
    fn eviction_ties_break_by_lowest_pc() {
        // Two reads at the same timestamp: the one with the lower pc is the
        // deterministic victim, regardless of insertion order.
        for (first, second) in [(10u32, 11u32), (11, 10)] {
            let mut s = ShadowMemory::new(2);
            s.on_read(1, acc(first, 5));
            s.on_read(1, acc(second, 5));
            s.on_read(1, acc(12, 6)); // evicts pc=10 (t=5 tie, lowest pc)
            let (_, wars) = write_collect(&mut s, 1, acc(2, 9));
            let pcs: Vec<_> = wars.iter().map(|w| w.head.pc).collect();
            assert!(
                pcs.contains(&Pc(11)) && pcs.contains(&Pc(12)) && !pcs.contains(&Pc(10)),
                "insertion order {first},{second}: survivors {pcs:?}"
            );
        }
    }

    #[test]
    fn reader_cap_replaces_stalest() {
        let mut s = ShadowMemory::new(2);
        s.on_read(1, acc(10, 1));
        s.on_read(1, acc(11, 2));
        s.on_read(1, acc(12, 3)); // evicts pc=10 (t=1)
        assert_eq!(s.dropped_readers, 1);
        let (_, wars) = write_collect(&mut s, 1, acc(2, 9));
        let pcs: Vec<_> = wars.iter().map(|w| w.head.pc).collect();
        assert!(pcs.contains(&Pc(11)) && pcs.contains(&Pc(12)));
        assert!(!pcs.contains(&Pc(10)));
    }

    #[test]
    fn waw_emitted_before_wars() {
        let mut s = ShadowMemory::new(8);
        write_collect(&mut s, 1, acc(1, 1));
        s.on_read(1, acc(10, 2));
        s.on_read(1, acc(11, 3));
        let mut kinds = Vec::new();
        s.on_write(1, acc(2, 9), &mut |kind, _| kinds.push(kind));
        assert_eq!(kinds, [DepKind::Waw, DepKind::War, DepKind::War]);
    }

    #[test]
    fn a_recycled_read_set_forgets_its_previous_owner() {
        // Word 1 spills past the inline capacity, then its write hands the
        // set back; word 2 takes the same set and must see only its own
        // reader, from the inline buffer again.
        let cap = INLINE_READERS + 4;
        let mut s = ShadowMemory::new(cap);
        for i in 0..cap as u32 {
            s.on_read(1, acc(10 + i, i as Time));
        }
        let (_, wars) = write_collect(&mut s, 1, acc(2, 50));
        assert_eq!(wars.len(), cap);
        assert_eq!(s.pool.free, [0], "word 1's set is back on the free list");
        s.on_read(2, acc(99, 60));
        assert_eq!(s.pool.len, 1, "word 2 reused word 1's set");
        assert!(s.pool.free.is_empty());
        let (_, wars) = write_collect(&mut s, 2, acc(3, 70));
        let heads: Vec<_> = wars.iter().map(|w| (w.head.pc, w.head.t)).collect();
        assert_eq!(heads, [(Pc(99), 60)], "none of word 1's readers leak");
        assert_eq!(s.stats().read_set_spills, 1);
    }

    #[test]
    fn the_free_list_recycles_one_set_across_many_words() {
        let mut s = ShadowMemory::new(8);
        for addr in 0..10_000u32 {
            let t = 2 * addr as Time;
            s.on_read(addr, acc(10, t));
            let (_, wars) = write_collect(&mut s, addr, acc(2, t + 1));
            assert_eq!(wars.len(), 1);
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.pool.len, 1, "one set served every word in turn");
        assert_eq!(s.pool.blocks.len(), 1);
        assert_eq!(s.pool.free, [0]);
    }

    #[test]
    fn words_read_and_never_written_keep_their_sets() {
        // The worst case: every read-only word holds a pooled set, so the
        // pool grows block by block with the number of such words.
        let mut s = ShadowMemory::new(8);
        let words = 3 * POOL_BLOCK as u32 + 1;
        for addr in 0..words {
            s.on_read(addr, acc(10, addr as Time));
        }
        assert_eq!(s.pool.len, words);
        assert_eq!(s.pool.blocks.len(), 4);
        assert!(s.pool.free.is_empty());
    }

    #[test]
    fn cells_stay_small() {
        // The last write plus a `u32` read-set handle; the read set itself
        // lives in the pool. A page of the profiler's cells is 160 KiB.
        assert_eq!(std::mem::size_of::<Cell<NodeRef>>(), 40);
        assert_eq!(std::mem::size_of::<Cell<()>>(), 32);
        assert_eq!(std::mem::size_of::<Cell<Option<u32>>>(), 32);
        assert_eq!(PAGE_WORDS * std::mem::size_of::<Cell<NodeRef>>(), 160 << 10);
    }
}
