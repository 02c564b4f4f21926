//! Whole-suite shape assertions: the qualitative results of the paper's
//! evaluation must hold on the reproduced workloads.
//!
//! These are the cheap (Tiny/Small scale) versions of the claims the bench
//! harness reports at full scale; `alchemist_bench::experiments` has one
//! function per table and figure.

use alchemist::prelude::*;
use alchemist::workloads::{self, Scale};

fn report_for(name: &str, scale: Scale) -> (alchemist_vm::Module, ProfileReport) {
    let w = workloads::by_name(name).expect("workload exists");
    let (module, profile, _) = w.profile(scale);
    let report = ProfileReport::new(&profile, &module);
    (module, report)
}

/// Paper Fig. 6(a): gzip's largest construct is the driver loop with very
/// few violating RAW deps — a prime candidate.
#[test]
fn gzip_driver_loop_is_top_candidate() {
    let (_m, report) = report_for("gzip-1.3.5", Scale::Small);
    let top_loop = report
        .ranked()
        .iter()
        .find(|c| c.kind == ConstructKind::Loop)
        .expect("a loop ranks high");
    assert!(
        top_loop.norm_size > 0.5,
        "driver loop dominates the run: {:.3}",
        top_loop.norm_size
    );
    let flush = report.find("Method flush_block").expect("profiled");
    assert!(flush.norm_size > 0.1, "flush_block is sizable");
}

/// Paper Fig. 6(b): after removing the top construct, flush_block becomes
/// the leading remaining candidate — the paper's second parallelization
/// step.
#[test]
fn gzip_removal_step_promotes_flush_block() {
    let (_m, report) = report_for("gzip-1.3.5", Scale::Small);
    let main_head = report.find("Method main").unwrap().head;
    let zip_head = report.find("Method zip").unwrap().head;
    let top_loop = report
        .ranked()
        .iter()
        .find(|c| c.kind == ConstructKind::Loop)
        .unwrap()
        .head;
    let reduced = report
        .remove_with_nested(main_head)
        .remove_with_nested(zip_head)
        .remove_with_nested(top_loop);
    let leader = reduced
        .ranked()
        .iter()
        .find(|c| c.kind == ConstructKind::Method)
        .expect("a method remains");
    assert_eq!(
        leader.label,
        "Method flush_block",
        "flush_block leads after removal: {:?}",
        reduced.top(5).iter().map(|c| &c.label).collect::<Vec<_>>()
    );
}

/// Paper Fig. 6(c): the parser's dictionary constructs are large but
/// serial (violating RAW through the shared cursor), while the sentence
/// loop is clean.
#[test]
fn parser_dictionary_serial_sentences_parallel() {
    let (m, report) = report_for("197.parser", Scale::Small);
    let read_dict = report.find("Method read_dictionary").expect("profiled");
    assert!(
        read_dict.violating_raw > 0,
        "cursor chain must violate: {read_dict:?}"
    );
    // The sentence loop's only violating RAW is the `linkages` reduction,
    // which the recipe privatizes; the parsing work itself is independent.
    let w = workloads::by_name("197.parser").unwrap();
    let sentence_loop = w.resolve_targets(&m)[0];
    let c = report.by_head(sentence_loop).expect("profiled");
    for e in c.edges_of(DepKind::Raw).filter(|e| e.violating) {
        assert_eq!(
            e.var.as_deref(),
            Some("linkages"),
            "unexpected serial dependence in sentence loop: {e:?}"
        );
    }
}

/// Paper Fig. 6(d): xlload (C1) runs once more than the batch loop's
/// iteration count, and slightly outweighs the batch loop body.
#[test]
fn lisp_xlload_runs_once_more_than_batch_iterations() {
    let (_m, report) = report_for("130.li", Scale::Small);
    let xlload = report.find("Method xlload").expect("profiled");
    // 12 batches: 1 initial + 11 in-loop top-level calls, but xlload
    // recurses — count instances of the OUTERMOST calls via run_program.
    let run_program = report.find("Method run_program").expect("profiled");
    assert_eq!(run_program.inst, 12);
    assert!(xlload.inst >= 12, "xlload called at least once per batch");
}

/// Paper section IV-B1: delaunay's hottest constructs carry many violating
/// RAW dependences — not amenable to parallelization.
#[test]
fn delaunay_hot_constructs_heavily_violating() {
    let (_m, report) = report_for("delaunay", Scale::Small);
    let hot: Vec<_> = report
        .top(6)
        .iter()
        .filter(|c| matches!(c.kind, ConstructKind::Loop | ConstructKind::Method))
        .collect();
    let max_viol = hot.iter().map(|c| c.violating_raw).max().unwrap_or(0);
    assert!(
        max_viol >= 5,
        "refinement constructs must show dense violating RAW, got {max_viol}"
    );
    // And no sizable construct is a clean candidate.
    for c in &hot {
        if c.norm_size > 0.3 && c.label != "Method main" {
            assert!(
                !c.is_candidate(),
                "{} should not be spawnable: {c:?}",
                c.label
            );
        }
    }
}

/// Paper Table IV shape: bzip2/ogg marked constructs show WAW/WAR
/// conflicts on the shared state the paper privatized.
#[test]
fn table4_conflicts_name_the_papers_variables() {
    let (m, report) = report_for("bzip2", Scale::Small);
    let w = workloads::by_name("bzip2").unwrap();
    let head = w.resolve_targets(&m)[0];
    let c = report.by_head(head).unwrap();
    let conflict_vars: Vec<String> = c
        .edges
        .iter()
        .filter(|e| e.violating && e.kind != DepKind::Raw)
        .filter_map(|e| e.var.clone())
        .collect();
    assert!(
        conflict_vars.iter().any(|v| v.starts_with("bzf_")),
        "BZFILE-state conflicts expected, got {conflict_vars:?}"
    );

    let (m, report) = report_for("ogg", Scale::Small);
    let w = workloads::by_name("ogg").unwrap();
    let head = w.resolve_targets(&m)[0];
    let c = report.by_head(head).unwrap();
    let vars: Vec<String> = c.edges.iter().filter_map(|e| e.var.clone()).collect();
    assert!(
        vars.iter().any(|v| v == "errors" || v == "samples_read"),
        "ogg's errors/samples_read conflicts expected, got {vars:?}"
    );
}

/// Paper Table V shape: the speedup ORDER must match the paper —
/// aes < par2 < bzip2 <= ogg, with delaunay at the bottom.
#[test]
fn table5_speedup_order_matches_paper() {
    let speedup = |name: &str| -> f64 {
        let w = workloads::by_name(name).unwrap();
        let spec = w.parallel.as_ref().unwrap();
        let m = w.module();
        let mut cfg = ExtractConfig::default();
        for head in w.resolve_targets(&m) {
            cfg = cfg.mark(head);
        }
        for v in spec.privatized {
            cfg = cfg.privatize(v);
        }
        let trace = extract_tasks(&m, &w.exec_config(Scale::Small), cfg).expect("runs");
        simulate(&trace, &SimConfig::with_threads(4)).speedup
    };
    let aes = speedup("aes");
    let par2 = speedup("par2");
    let bzip2 = speedup("bzip2");
    let ogg = speedup("ogg");
    let delaunay = speedup("delaunay");
    assert!(
        delaunay < aes && aes < par2 && par2 < bzip2 && bzip2 <= ogg + 0.2,
        "order violated: delaunay {delaunay:.2} aes {aes:.2} par2 {par2:.2} \
         bzip2 {bzip2:.2} ogg {ogg:.2}"
    );
    assert!(ogg > 3.0, "ogg near-linear, got {ogg:.2}");
    assert!(
        delaunay <= 1.05,
        "delaunay must not speed up, got {delaunay:.2}"
    );
}

/// Profiling must not perturb program results (transparency).
#[test]
fn profiling_is_transparent() {
    for w in workloads::all() {
        let native = w.run_native(Scale::Tiny);
        let (_m, _p, profiled) = w.profile(Scale::Tiny);
        assert_eq!(native.output, profiled.output, "{}", w.name);
        assert_eq!(native.exit_value, profiled.exit_value, "{}", w.name);
        assert_eq!(native.steps, profiled.steps, "{}", w.name);
    }
}

/// Privatization is required: without the paper's transformations, the
/// near-linear workloads collapse (the profile-guided recipe is what
/// unlocks the speedup).
#[test]
fn transformations_are_load_bearing() {
    let w = workloads::by_name("bzip2").unwrap();
    let m = w.module();
    let mut with = ExtractConfig::default();
    let mut without = ExtractConfig::default();
    for head in w.resolve_targets(&m) {
        with = with.mark(head);
        without = without.mark(head);
    }
    for v in w.parallel.as_ref().unwrap().privatized {
        with = with.privatize(v);
    }
    let cfg = w.exec_config(Scale::Small);
    let s_with = simulate(
        &extract_tasks(&m, &cfg, with).unwrap(),
        &SimConfig::with_threads(4),
    )
    .speedup;
    let s_without = simulate(
        &extract_tasks(&m, &cfg, without).unwrap(),
        &SimConfig::with_threads(4),
    )
    .speedup;
    assert!(
        s_with > s_without + 0.5,
        "privatization must matter: with {s_with:.2} vs without {s_without:.2}"
    );
}
