//! Shadow-memory hot-path microbenchmarks.
//!
//! Isolates the structures the profiler hits once per memory event —
//! [`ShadowMemory::on_read`]/[`ShadowMemory::on_write`] and
//! [`DepProfile::record_dependence`] — from the interpreter, the trace
//! codec and the indexing stack, so layout changes (paging, inline read
//! sets, hashing) show up undiluted:
//!
//! * `dense_*` — every access lands in one page (the global-segment
//!   pattern): pure cell-update cost, page faulted once at warm-up;
//! * `paged_sparse_*` — accesses stride across many pages (high frame
//!   addresses, large arrays): adds the page-indexing and, during
//!   warm-up, the first-touch faulting the old sparse `HashMap` path
//!   used to pay per lookup;
//! * `fault_in_256_pages` — a fresh shadow per iteration, one word read
//!   and written on each of 256 pages (a 2^20-word table, the
//!   `wide-memory` benchmark's footprint): the first-touch cost of the
//!   cell layout, page allocation and the read-set pool, with no steady
//!   state to hide it;
//! * `readset_inline` vs `readset_spill` — the same rotating-reader
//!   pattern under a reader cap at the inline capacity vs far above it
//!   (spilled read sets), bounding the cost of the heap fallback;
//! * `record_dependence_*` — the profile-map update walk against warm
//!   edge maps (the steady-state case: no new edges, only min/count
//!   updates).
//!
//! Set `ALCHEMIST_BENCH_QUICK=1` for the CI smoke mode (one short sample
//! per benchmark, reduced iteration counts).

use alchemist_core::shadow::{Access, DetectedDep, ShadowMemory};
use alchemist_core::{
    ConstructKind, ConstructPool, DepKind, DepProfile, INLINE_READERS, PAGE_WORDS,
};
use alchemist_vm::{Pc, Tid, Time};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn quick_mode() -> bool {
    std::env::var_os("ALCHEMIST_BENCH_QUICK").is_some()
}

fn acc(pc: u32, t: Time) -> Access<u32> {
    Access {
        pc: Pc(pc),
        t,
        node: 0,
        tid: Tid::MAIN,
    }
}

/// Consumes emitted dependences so the optimizer cannot drop the work.
fn sink(count: &mut u64) -> impl FnMut(DepKind, DetectedDep<u32>) + '_ {
    move |_, dep| *count += black_box(dep.addr) as u64 % 2
}

fn bench_shadow(c: &mut Criterion) {
    let events: u64 = if quick_mode() { 20_000 } else { 400_000 };

    let mut group = c.benchmark_group("shadow_hot_path");
    if quick_mode() {
        group.sample_size(1);
    }

    // Dense: reads and writes cycling over one page's worth of addresses,
    // ~3 reads per write (a typical workload mix), read sets within the
    // inline capacity.
    // Shadows live outside the measured closures: the warm-up pass faults
    // their pages, the timed passes measure steady state.
    let mut dense: ShadowMemory<u32> = ShadowMemory::with_dense_limit(8, 1024);
    group.bench_function("dense_mixed_rw", move |b| {
        let s = &mut dense;
        b.iter(|| {
            let mut emitted = 0u64;
            for i in 0..events {
                let addr = (i % 1024) as u32;
                let t = i as Time;
                if i % 4 == 3 {
                    s.on_write(addr, acc((i % 7) as u32, t), &mut sink(&mut emitted));
                } else if let Some(dep) = s.on_read(addr, acc((i % 3) as u32 + 10, t)) {
                    emitted += dep.addr as u64 % 2;
                }
            }
            black_box((s.len(), emitted))
        })
    });

    // Sparse/paged: the same mix but striding across one address per page
    // over 64 pages — the pattern the old HashMap backing served.
    // 64 pages fault during the warm-up pass; the timed passes measure the
    // steady-state two-level indexing the old HashMap path paid hashing
    // for.
    let mut sparse: ShadowMemory<u32> = ShadowMemory::new(8);
    group.bench_function("paged_sparse_mixed_rw", move |b| {
        let s = &mut sparse;
        b.iter(|| {
            let mut emitted = 0u64;
            for i in 0..events {
                let addr = ((i % 64) as u32) * PAGE_WORDS as u32 + 17;
                let t = i as Time;
                if i % 4 == 3 {
                    s.on_write(addr, acc((i % 7) as u32, t), &mut sink(&mut emitted));
                } else if let Some(dep) = s.on_read(addr, acc((i % 3) as u32 + 10, t)) {
                    emitted += dep.addr as u64 % 2;
                }
            }
            black_box((s.stats().pages_allocated, emitted))
        })
    });

    // Fault-in: nothing is warm. Each iteration builds a shadow, faults in
    // 256 pages through one read and one write per page, and drops it, so
    // the time is the pages' allocation and initialization plus one pooled
    // read set taken and released per page.
    group.bench_function("fault_in_256_pages", |b| {
        b.iter(|| {
            let mut s: ShadowMemory<u32> = ShadowMemory::new(8);
            let mut emitted = 0u64;
            for page in 0..256u32 {
                let addr = page * PAGE_WORDS as u32 + page % 7;
                let t = 2 * page as Time;
                if let Some(dep) = s.on_read(addr, acc(10, t)) {
                    emitted += dep.addr as u64 % 2;
                }
                s.on_write(addr, acc(1, t + 1), &mut sink(&mut emitted));
            }
            black_box((s.stats().pages_allocated, emitted))
        })
    });

    // Read-set pressure: rotate through more distinct read sites than the
    // inline capacity, then clear with a write. With the cap at the
    // inline capacity this exercises eviction; with a large cap it
    // exercises the spill path.
    let sites = (INLINE_READERS + 4) as u64;
    for (name, cap) in [
        ("readset_inline", INLINE_READERS),
        ("readset_spill", INLINE_READERS * 4),
    ] {
        let mut shadow: ShadowMemory<u32> = ShadowMemory::with_dense_limit(cap, 64);
        group.bench_function(name, move |b| {
            let s = &mut shadow;
            b.iter(|| {
                let mut emitted = 0u64;
                for i in 0..events {
                    let addr = (i % 16) as u32;
                    let t = i as Time;
                    if i % 32 == 31 {
                        s.on_write(addr, acc(1, t), &mut sink(&mut emitted));
                    } else {
                        let pc = 100 + (i % sites) as u32;
                        if let Some(dep) = s.on_read(addr, acc(pc, t)) {
                            emitted += dep.addr as u64 % 2;
                        }
                    }
                }
                black_box((s.dropped_readers, s.stats().read_set_spills, emitted))
            })
        });
    }

    group.finish();
}

fn bench_record_dependence(c: &mut Criterion) {
    let events: u64 = if quick_mode() { 20_000 } else { 400_000 };

    let mut group = c.benchmark_group("record_dependence");
    if quick_mode() {
        group.sample_size(1);
    }

    // A three-deep completed ancestor chain (branch in loop in method):
    // every record walks all three and updates each one's edge map.
    let mut pool = ConstructPool::new(1 << 20, 64);
    let method = pool.push_instance(Pc(0), ConstructKind::Method, None, 0);
    let lp = pool.push_instance(Pc(10), ConstructKind::Loop, Some(method), 1);
    let iff = pool.push_instance(Pc(20), ConstructKind::Branch, Some(lp), 2);
    pool.complete_instance(iff, 50);
    pool.complete_instance(lp, 60);
    pool.complete_instance(method, 70);

    // Steady state: a bounded working set of static edges, hit repeatedly.
    for (name, distinct_edges) in [("warm_few_edges", 4u32), ("warm_many_edges", 256u32)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut profile = DepProfile::new();
                for i in 0..events {
                    let e = (i % distinct_edges as u64) as u32;
                    profile.record_dependence(
                        &pool,
                        if e.is_multiple_of(3) {
                            DepKind::Raw
                        } else {
                            DepKind::War
                        },
                        Pc(100 + e),
                        iff,
                        3 + (i % 40),
                        Pc(500 + e),
                        45,
                        e % 8,
                        Tid::MAIN,
                        Tid::MAIN,
                    );
                }
                black_box(profile.len())
            })
        });
    }

    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_shadow(c);
    bench_record_dependence(c);
}

criterion_group!(
    name = suite;
    config = Criterion::default().sample_size(10);
    targets = benches
);
criterion_main!(suite);
