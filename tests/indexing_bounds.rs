//! Regression guards for the generalized predicate rule (rules 3/4 in the
//! `alchemist_core::index` module docs):
//! control shapes whose construct regions extend past loop iterations —
//! compound loop conditions, `if (c) break` bodies — must not grow the
//! indexing stack with the iteration count.

use alchemist_core::{AlchemistProfiler, ProfileConfig};
use alchemist_vm::{compile_source, run, ExecConfig};

fn max_depth_of(src: &str) -> usize {
    let module = compile_source(src).expect("compiles");
    let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
    run(&module, &ExecConfig::default(), &mut prof).expect("runs");
    prof.max_depth()
}

#[test]
fn compound_while_condition_keeps_depth_constant() {
    // while (a && b): the second operand's post-dominator is the loop
    // exit; the literal paper rules would push one unclosed instance per
    // iteration. 10 vs 10000 iterations must give the same depth.
    let prog = |n: u32| {
        format!(
            "int g; int main() {{ int i = 0; \
             while (i < {n} && g >= 0) {{ g += i & 3; i++; }} return g; }}"
        )
    };
    let small = max_depth_of(&prog(10));
    let large = max_depth_of(&prog(10_000));
    assert_eq!(small, large, "stack depth grew with iterations");
    assert!(large < 8, "depth {large} is not construct-structured");
}

#[test]
fn break_guards_keep_depth_constant() {
    let prog = |n: u32| {
        format!(
            "int g; int main() {{ int i = 0; \
             while (1) {{ \
                 if (i >= {n}) break; \
                 g += i; \
                 if (g > 1000000000) break; \
                 i++; \
             }} return g; }}"
        )
    };
    let small = max_depth_of(&prog(10));
    let large = max_depth_of(&prog(10_000));
    assert_eq!(small, large);
}

#[test]
fn nested_compound_conditions_keep_depth_structural() {
    let prog = |n: u32| {
        format!(
            "int g; int main() {{ int i; int j; \
             for (i = 0; i < {n}; i++) \
                 for (j = 0; j < 4 && g < 1000000000; j++) \
                     if (g % 3 == 0 || j % 2 == 1) g += j; \
             return g; }}"
        )
    };
    let small = max_depth_of(&prog(5));
    let large = max_depth_of(&prog(2_000));
    assert_eq!(small, large);
    assert!(large < 12, "depth {large}");
}

#[test]
fn pool_stays_bounded_on_iteration_heavy_runs() {
    let src = "int g; int main() { int i; \
               for (i = 0; i < 50000; i++) g ^= i; return g; }";
    let module = compile_source(src).unwrap();
    let cfg = ProfileConfig {
        pool_capacity: 256,
        ..Default::default()
    };
    let mut prof = AlchemistProfiler::new(&module, cfg);
    run(&module, &ExecConfig::default(), &mut prof).expect("runs");
    let stats = prof.pool_stats();
    assert!(stats.allocated <= 256, "allocated {}", stats.allocated);
    assert_eq!(
        stats.overflow_growths, 0,
        "iteration churn must recycle, not grow"
    );
    assert!(stats.reused > 40_000, "reused only {}", stats.reused);
}
