//! Property tests validating the online profiler against the brute-force
//! oracle (`alchemist_core::oracle`):
//!
//! * with a generous pool and reader cap, the online profiler must produce
//!   exactly the oracle's profile (durations, instance counts, every edge's
//!   min distance and exercise count);
//! * with a tiny pool, the online profile must be a *subset*: no invented
//!   edges, no distances smaller than the oracle's, durations untouched;
//! * on every bundled workload, sequential and threaded, the online
//!   profile equals the oracle's under both the generous and the default
//!   configuration.

mod common;

use alchemist_core::oracle::oracle_profile;
use alchemist_core::{AlchemistProfiler, DepProfile, ProfileConfig};
use alchemist_vm::{compile_source, ExecConfig, Module, RecordingSink};
use alchemist_workloads::Scale;
use common::{gen_program, GenConfig};
use proptest::prelude::*;

fn run_both(src: &str, config: ProfileConfig) -> Option<(Module, DepProfile, DepProfile)> {
    let module = compile_source(src).ok()?;
    let exec_cfg = ExecConfig {
        max_steps: 2_000_000,
        ..ExecConfig::default()
    };

    let mut rec = RecordingSink::default();
    let outcome = alchemist_vm::run(&module, &exec_cfg, &mut rec).ok()?;
    let oracle = oracle_profile(&module, &rec.events, outcome.steps);

    let mut prof = AlchemistProfiler::new(&module, config);
    let outcome2 = alchemist_vm::run(&module, &exec_cfg, &mut prof).ok()?;
    assert_eq!(outcome.steps, outcome2.steps, "determinism");
    let online = prof.into_profile(outcome2.steps);
    Some((module, oracle, online))
}

fn assert_profiles_equal(oracle: &DepProfile, online: &DepProfile) {
    assert_eq!(oracle.total_steps, online.total_steps);
    assert_eq!(oracle.len(), online.len(), "same construct set");
    for oc in oracle.constructs() {
        let pc = online
            .construct(oc.id.head)
            .unwrap_or_else(|| panic!("online missing construct {:?}", oc.id));
        assert_eq!(oc.id.kind, pc.id.kind, "{:?}", oc.id);
        assert_eq!(oc.inst, pc.inst, "inst of {:?}", oc.id);
        assert_eq!(oc.ttotal, pc.ttotal, "ttotal of {:?}", oc.id);
        assert_eq!(
            oc.edges.len(),
            pc.edges.len(),
            "edge count of {:?}: oracle {:?} vs online {:?}",
            oc.id,
            oc.edges.keys().collect::<Vec<_>>(),
            pc.edges.keys().collect::<Vec<_>>()
        );
        for (key, ostat) in &oc.edges {
            let pstat = pc
                .edges
                .get(key)
                .unwrap_or_else(|| panic!("online missing edge {key:?} of {:?}", oc.id));
            assert_eq!(ostat.min_tdep, pstat.min_tdep, "min_tdep of {key:?}");
            assert_eq!(ostat.count, pstat.count, "count of {key:?}");
        }
        assert_eq!(oc.nested_in, pc.nested_in, "nesting stats of {:?}", oc.id);
    }
}

fn assert_online_subset(oracle: &DepProfile, online: &DepProfile) {
    // Durations and instances never depend on the pool.
    for oc in oracle.constructs() {
        let pc = online
            .construct(oc.id.head)
            .expect("construct set identical");
        assert_eq!(oc.inst, pc.inst);
        assert_eq!(oc.ttotal, pc.ttotal);
    }
    for pc in online.constructs() {
        let oc = oracle
            .construct(pc.id.head)
            .expect("no invented constructs");
        for (key, pstat) in &pc.edges {
            let ostat = oc
                .edges
                .get(key)
                .unwrap_or_else(|| panic!("online invented edge {key:?}"));
            assert!(
                pstat.min_tdep >= ostat.min_tdep,
                "online min_tdep {} below oracle {} for {key:?}",
                pstat.min_tdep,
                ostat.min_tdep
            );
            assert!(pstat.count <= ostat.count, "count inflated for {key:?}");
        }
    }
}

fn big_pool() -> ProfileConfig {
    ProfileConfig {
        pool_capacity: 1_000_000,
        reader_cap: 4096,
        ..ProfileConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn online_profiler_matches_oracle_exactly(seed in any::<u64>()) {
        let src = gen_program(seed, GenConfig::default());
        if let Some((_m, oracle, online)) = run_both(&src, big_pool()) {
            assert_profiles_equal(&oracle, &online);
        }
    }

    #[test]
    fn online_matches_oracle_on_deep_programs(seed in any::<u64>()) {
        let src = gen_program(
            seed,
            GenConfig { helpers: 3, max_depth: 4, block_len: 3 },
        );
        if let Some((_m, oracle, online)) = run_both(&src, big_pool()) {
            assert_profiles_equal(&oracle, &online);
        }
    }

    #[test]
    fn tiny_pool_yields_sound_subset(seed in any::<u64>()) {
        let src = gen_program(seed, GenConfig::default());
        let config = ProfileConfig {
            pool_capacity: 4,
            reader_cap: 4096,
            ..ProfileConfig::default()
        };
        if let Some((_m, oracle, online)) = run_both(&src, config) {
            assert_online_subset(&oracle, &online);
        }
    }
}

/// The generator must produce compiling, terminating programs virtually
/// always — otherwise the properties above are vacuous.
#[test]
fn generator_yield_is_high() {
    let mut ok = 0;
    let total = 200;
    for seed in 0..total {
        let src = gen_program(seed as u64 * 7 + 1, GenConfig::default());
        let module = match compile_source(&src) {
            Ok(m) => m,
            Err(e) => panic!("seed {seed}: generated program fails to compile: {e}\n{src}"),
        };
        let cfg = ExecConfig {
            max_steps: 2_000_000,
            ..ExecConfig::default()
        };
        if alchemist_vm::run(&module, &cfg, &mut alchemist_vm::NullSink).is_ok() {
            ok += 1;
        }
    }
    assert!(
        ok == total,
        "only {ok}/{total} generated programs ran to completion"
    );
}

/// A fixed regression corpus: shapes that exercised bugs during
/// development or are structurally nasty (early returns from loops,
/// breaks out of nested loops, conditionals sharing join blocks).
#[test]
fn handwritten_corpus_matches_oracle() {
    let corpus: &[&str] = &[
        // Early return from a nested loop.
        "int g;
         int find(int needle) {
             int i; int j;
             for (i = 0; i < 5; i++)
                 for (j = 0; j < 5; j++) {
                     g++;
                     if (i * 5 + j == needle) return i;
                 }
             return -1;
         }
         int main() { return find(7) + find(23) + g; }",
        // break + continue in the same loop.
        "int acc;
         int main() {
             int i;
             for (i = 0; i < 20; i++) {
                 if (i % 3 == 0) continue;
                 if (i > 11) break;
                 acc += i;
             }
             return acc;
         }",
        // Conditionals whose joins coincide (if at end of loop body).
        "int x;
         int main() {
             int i;
             for (i = 0; i < 6; i++) {
                 if (i & 1) { x += 1; if (x > 3) x -= 2; }
             }
             return x;
         }",
        // Recursion with globals.
        "int depth;
         int down(int n) {
             depth = depth + 1;
             if (n <= 0) return 0;
             return down(n - 1) + 1;
         }
         int main() { down(6); return down(3) + depth; }",
        // do-while with shared state.
        "int s;
         int main() {
             int i = 0;
             do { s += i; i++; } while (i < 7);
             do { s ^= i; i--; } while (i > 0);
             return s;
         }",
        // Short-circuit predicates in a loop condition.
        "int n; int hits;
         int main() {
             int i = 0;
             while (i < 30 && n < 10) {
                 if (i % 4 == 0 || i % 6 == 0) { n++; hits += i; }
                 i++;
             }
             return hits;
         }",
        // while(1) with breaks (no loop predicate at the header).
        "int g;
         int main() {
             int i = 0;
             while (1) {
                 if (i > 8) break;
                 g += i;
                 if (g > 30) break;
                 i++;
             }
             return g;
         }",
    ];
    for (i, src) in corpus.iter().enumerate() {
        let (_m, oracle, online) =
            run_both(src, big_pool()).unwrap_or_else(|| panic!("corpus #{i} failed"));
        assert_profiles_equal(&oracle, &online);
    }
}

/// The bundled workloads (the paper's eight and the three threaded ones)
/// at `Scale::Small`, against the oracle: far longer event streams than the
/// generated programs above, and real thread interleavings. None of them
/// overflows the default reader cap or construct pool, so the default
/// configuration must match the oracle exactly too.
#[test]
fn bundled_workloads_match_oracle() {
    for w in alchemist_workloads::all() {
        let module = w.module();
        let exec_cfg = w.exec_config(Scale::Small);
        let mut rec = RecordingSink::default();
        let outcome = alchemist_vm::run(&module, &exec_cfg, &mut rec)
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
        let oracle = oracle_profile(&module, &rec.events, outcome.steps);
        for (label, config) in [
            ("big pool", big_pool()),
            ("default", ProfileConfig::default()),
        ] {
            let mut prof = AlchemistProfiler::new(&module, config);
            let steps = alchemist_vm::run(&module, &exec_cfg, &mut prof)
                .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name))
                .steps;
            assert_eq!(outcome.steps, steps, "{}: determinism", w.name);
            let online = prof.into_profile(steps);
            assert_profiles_equal(&oracle, &online);
            assert!(oracle == online, "{} ({label}): online != oracle", w.name);
        }
    }
}
