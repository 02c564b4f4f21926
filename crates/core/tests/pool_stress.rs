//! Stress and property tests of the construct pool and the frame-memory
//! tracing decision.

use alchemist_core::{
    profile_module, ConstructKind, ConstructPool, DepKind, NodeRef, ProfileConfig,
};
use alchemist_vm::{compile_source, ExecConfig, Pc};
use proptest::prelude::*;

/// Random push/complete sequences: pool invariants hold regardless of
/// capacity.
///
/// * a reference resolves until (and only until) its slot is reused;
/// * reuse never happens inside a node's retirement window
///   (`now - t_exit < t_exit - t_enter`);
/// * parent references either resolve to the true parent or are detected
///   stale — never misattributed.
#[derive(Debug, Clone)]
enum Action {
    Push { dur: u64, gap: u64 },
    CompleteOldest,
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..50, 0u64..10).prop_map(|(dur, gap)| Action::Push { dur, gap }),
            Just(Action::CompleteOldest),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pool_invariants_under_pressure(
        actions in arb_actions(),
        capacity in 1usize..16,
    ) {
        let mut pool = ConstructPool::new(capacity, 8);
        let mut now: u64 = 0;
        // Live instances: (ref, t_enter); completed: (ref, t_enter, t_exit).
        let mut live: Vec<(NodeRef, u64)> = Vec::new();
        let mut completed: Vec<(NodeRef, u64, u64)> = Vec::new();
        for (i, a) in actions.iter().enumerate() {
            match a {
                Action::Push { dur, gap } => {
                    now += gap;
                    let r = pool.push_instance(
                        Pc(i as u32),
                        ConstructKind::Loop,
                        live.last().map(|(r, _)| *r),
                        now,
                    );
                    live.push((r, now));
                    now += dur;
                }
                Action::CompleteOldest => {
                    if let Some((r, t_enter)) = live.pop() {
                        pool.complete_instance(r, now);
                        completed.push((r, t_enter, now));
                        now += 1;
                    }
                }
            }
        }
        // Every live instance still resolves with its original start time.
        for (r, t_enter) in &live {
            let node = pool.resolve(*r);
            prop_assert!(node.is_some(), "live node evicted");
            prop_assert_eq!(node.unwrap().t_enter, *t_enter);
            prop_assert!(node.unwrap().t_exit.is_none());
        }
        // Completed instances either resolve unchanged or were reused, and
        // reuse only after their retirement window.
        for (r, t_enter, t_exit) in &completed {
            match pool.resolve(*r) {
                Some(node) => {
                    prop_assert_eq!(node.t_enter, *t_enter);
                    prop_assert_eq!(node.t_exit, Some(*t_exit));
                }
                None => {
                    // Slot reused: the new occupant must have started no
                    // earlier than the retirement point.
                    let occupant = pool.node(r.id);
                    let window = t_exit - t_enter;
                    prop_assert!(
                        occupant.t_enter >= t_exit + window,
                        "reused at {} inside window [{}, {})",
                        occupant.t_enter,
                        t_exit,
                        t_exit + window
                    );
                }
            }
        }
    }
}

/// Pool pressure can only *lose* dependence information, never invent it,
/// and a pool comfortably above the live-construct count reproduces the
/// unbounded answer exactly. (Per Table I's guarantee, a dropped edge had
/// `Tdep > Tdur` for the retired *instance*; against the construct's mean
/// duration the classification of the surviving minimum may differ, which
/// is why small capacities may under-report — but never over-report.)
#[test]
fn pool_capacity_monotonicity_for_hot_constructs() {
    let w = alchemist_workloads::by_name("gzip-1.3.5").unwrap();
    let module = w.module();
    let exec = w.exec_config(alchemist_workloads::Scale::Tiny);
    let mut per_capacity = Vec::new();
    for capacity in [64usize, 4096, 1_000_000] {
        let cfg = ProfileConfig {
            pool_capacity: capacity,
            ..Default::default()
        };
        let (profile, ..) = profile_module(&module, &exec, cfg).unwrap();
        let flush = module.func_by_name("flush_block").unwrap().1.entry;
        let c = profile.construct(flush).unwrap();
        per_capacity.push((c.violating_count(DepKind::Raw), c.edge_count(DepKind::Raw)));
    }
    // Generous pools agree exactly with the reference answer.
    assert_eq!(
        per_capacity[1], per_capacity[2],
        "a pool above the live-node count must be lossless: {per_capacity:?}"
    );
    // Tiny pools never report MORE than the reference.
    assert!(
        per_capacity[0].0 <= per_capacity[2].0 && per_capacity[0].1 <= per_capacity[2].1,
        "pressure must only lose information: {per_capacity:?}"
    );
}

/// Frame-memory tracing (off by default) demonstrably changes only
/// frame-address dependences: with it on, extra edges appear on stack
/// slots; global-variable edges are identical. This validates the
/// futures-model filtering decision documented in the
/// `alchemist_core::profiler` module docs.
#[test]
fn frame_tracing_adds_only_frame_edges() {
    let src = "
        int g;
        int work(int n) {
            int local = 0;
            int i;
            for (i = 0; i < n; i++) local += i;
            g += local;
            return local;
        }
        int main() { work(5); work(7); return g; }";
    let module = compile_source(src).unwrap();
    let exec = ExecConfig::default();
    let (off, ..) = profile_module(&module, &exec, ProfileConfig::default()).unwrap();
    let cfg_on = ProfileConfig {
        trace_frame_memory: true,
        ..Default::default()
    };
    let (on, ..) = profile_module(&module, &exec, cfg_on).unwrap();

    let globals_top = module.global_words;
    let work = module.func_by_name("work").unwrap().1.entry;
    let off_work = off.construct(work).unwrap();
    let on_work = on.construct(work).unwrap();

    // Every global-address edge in the filtered profile appears identically
    // in the full profile.
    for (key, stat) in &off_work.edges {
        let full = on_work.edges.get(key).expect("global edge must persist");
        assert_eq!(full.min_tdep, stat.min_tdep);
        assert!(stat.sample_addr < globals_top);
    }
    // The full profile has strictly more edges, all of them on frame
    // addresses (the cross-call WAW/WAR on recycled stack slots).
    assert!(on_work.edges.len() > off_work.edges.len());
    for (key, stat) in &on_work.edges {
        if !off_work.edges.contains_key(key) {
            assert!(
                stat.sample_addr >= globals_top,
                "unexpected new global edge {key:?}"
            );
        }
    }
}
