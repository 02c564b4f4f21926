//! Indexing ablation (`IndexMode::CallContextOnly` against
//! `IndexMode::Full`): what the execution-index tree buys over plain
//! aggregation by static construct.
//!
//! The paper's section III argues context-insensitive profiles cannot
//! distinguish (a) same-iteration, (b) cross-iteration and (c) cross-call
//! dependences of the same static edge — and that calling-context
//! sensitivity alone is not enough either (the F/A/B example). This
//! ablation profiles that exact example and prints, per nesting construct,
//! the verdict Alchemist reaches vs what a flat profile would conclude.

use alchemist_core::{
    profile_module, ConstructKind, DepKind, IndexMode, ProfileConfig, ProfileReport,
};
use alchemist_vm::{compile_source, ExecConfig};

// The paper's "Inadequacy of Context Sensitivity" example: dependences
// between A() and B() at four different nesting distances.
const SRC: &str = "
int cell_same_j[4];
int cell_cross_j[4];
int cell_cross_i[4];
int cell_cross_f[4];
void a(int i, int j) {
    cell_same_j[0] = i + j;                 // consumed in the same j iter
    if (j == 0) cell_cross_j[0] = i;        // consumed next j iteration
    if (i == 0 && j == 0) cell_cross_i[0] = 1;   // consumed next i iter
    cell_cross_f[0] = cell_cross_f[0] + 1;  // consumed by the next F() call
}
void b(int i, int j) {
    int x = cell_same_j[0];
    int y = j > 0 ? cell_cross_j[0] : 0;
    int z = i > 0 ? cell_cross_i[0] : 0;
    cell_same_j[1] = x + y + z;
}
void f() {
    int i;
    int j;
    for (i = 0; i < 3; i++) {
        for (j = 0; j < 3; j++) {
            a(i, j);
            b(i, j);
        }
    }
}
int main() { f(); f(); return cell_cross_f[0]; }
";

fn main() {
    let module = compile_source(SRC).expect("example compiles");
    let (profile, exec, _, _) =
        profile_module(&module, &ExecConfig::default(), ProfileConfig::default())
            .expect("example runs");
    let _ = exec;
    let report = ProfileReport::new(&profile, &module);
    println!("=== Indexing ablation: the paper's F/A/B nesting example ===\n");
    println!("A static profiler sees *one* edge set for A->B. Alchemist");
    println!("attributes each dynamic dependence to exactly the constructs");
    println!("whose boundaries it crosses:\n");
    for c in report.ranked() {
        if !matches!(c.kind, ConstructKind::Loop | ConstructKind::Method) {
            continue;
        }
        let raws: Vec<String> = c
            .edges_of(DepKind::Raw)
            .map(|e| {
                format!(
                    "{} (line {} -> {}, Tdep={})",
                    e.var.as_deref().unwrap_or("?"),
                    e.head_line,
                    e.tail_line,
                    e.min_tdep
                )
            })
            .collect();
        println!(
            "{:<22} inst={:<4} crossing RAW: {}",
            c.label,
            c.inst,
            if raws.is_empty() {
                "none".to_owned()
            } else {
                raws.join(", ")
            }
        );
    }
    println!();
    println!("Expected shape: the j loop carries only the cross-j cell, the");
    println!("i loop additionally the cross-i cell, and Method f only the");
    println!("cross-call cell — none of which a flat or purely");
    println!("calling-context-sensitive profile can separate.");

    // The baseline: calling-context-only indexing (the paper's section III
    // comparison). Loop constructs vanish; every intra-invocation
    // dependence becomes invisible or smeared onto the procedures.
    let ctx_cfg = ProfileConfig {
        index_mode: IndexMode::CallContextOnly,
        ..ProfileConfig::default()
    };
    let (ctx_profile, ..) = profile_module(&module, &ExecConfig::default(), ctx_cfg).expect("runs");
    let ctx_report = ProfileReport::new(&ctx_profile, &module);
    println!();
    println!("--- calling-context-only baseline on the same run ---\n");
    for c in ctx_report.ranked() {
        let raws = c.edges_of(DepKind::Raw).count();
        println!(
            "{:<22} inst={:<4} crossing RAW edges: {}",
            c.label, c.inst, raws
        );
    }
    let full_constructs = report.ranked().len();
    let ctx_constructs = ctx_report.ranked().len();
    println!();
    println!(
        "full indexing distinguishes {full_constructs} constructs; the \
         context-only baseline {ctx_constructs} — the i/j loop verdicts \
         (parallelizable or not) are simply absent."
    );
}
