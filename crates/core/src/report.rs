//! Profile reports: the paper's user-facing output.
//!
//! * [`ProfileReport::render`] prints the ranked construct list with RAW
//!   edges, in the style of the paper's Fig. 2;
//! * [`ProfileReport::render_war_waw`] prints the WAR/WAW profile (Fig. 3);
//! * [`ProfileReport::fig6_series`] produces the normalized
//!   (size, violating-RAW) points plotted in Fig. 6;
//! * [`ProfileReport::remove_with_nested`] implements the paper's iterative
//!   refinement: after deciding to parallelize construct `C`, remove `C`
//!   and every construct that has exactly one nested instance per instance
//!   of `C` (those are parallelized along with `C`), then re-rank — this is
//!   how Fig. 6(b) is derived from Fig. 6(a).

use crate::construct::{ConstructKind, DepKind};
use crate::fxhash::FxHashMap;
use crate::profile::DepProfile;
use crate::shadow::{ShadowStats, INLINE_READERS};
use alchemist_vm::{Module, Pc};
use std::fmt::Write as _;

/// One dependence edge, resolved to source lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReport {
    /// Dependence kind.
    pub kind: DepKind,
    /// Head (earlier) instruction.
    pub head_pc: Pc,
    /// Tail (later) instruction.
    pub tail_pc: Pc,
    /// Source line of the head.
    pub head_line: u32,
    /// Source line of the tail.
    pub tail_line: u32,
    /// Minimum observed dependence distance.
    pub min_tdep: u64,
    /// Times the edge was exercised.
    pub count: u64,
    /// `true` when `min_tdep <= Tdur` (hinders parallelization).
    pub violating: bool,
    /// The conflicting address (at the minimum-distance exercise).
    pub var_addr: u32,
    /// Name of the global variable containing [`EdgeReport::var_addr`], if
    /// it is a global (the paper reports conflicts per variable, e.g.
    /// "conflicts on `ivec`").
    pub var: Option<String>,
    /// Exercises whose head and tail ran on different program threads.
    /// Such exercises are already parallel in the source; an edge with
    /// `cross_count == count` never serializes anything.
    pub cross_count: u64,
}

/// One construct's resolved profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructReport {
    /// Static head pc.
    pub head: Pc,
    /// Construct kind.
    pub kind: ConstructKind,
    /// Human-readable label (`Method flush_block`, `Loop (main, 14)`).
    pub label: String,
    /// Source line of the head.
    pub line: u32,
    /// Total instructions across instances.
    pub ttotal: u64,
    /// Completed instances.
    pub inst: u64,
    /// Mean instance duration.
    pub tdur_mean: u64,
    /// All edges, RAW first, then WAR, then WAW; violating first within a
    /// kind, then by ascending distance.
    pub edges: Vec<EdgeReport>,
    /// Distinct violating static RAW edges.
    pub violating_raw: usize,
    /// Distinct violating static WAR edges.
    pub violating_war: usize,
    /// Distinct violating static WAW edges.
    pub violating_waw: usize,
    /// `ttotal` normalized to the run's total instructions.
    pub norm_size: f64,
    /// `violating_raw` normalized to the run's total violating RAW edges.
    pub norm_violations: f64,
    /// Instances nested within other constructs (ancestor head -> count).
    pub nested_in: FxHashMap<Pc, u64>,
}

impl ConstructReport {
    /// Edges of one kind.
    pub fn edges_of(&self, kind: DepKind) -> impl Iterator<Item = &EdgeReport> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }

    /// Whether every RAW distance exceeds the duration — the paper's
    /// headline criterion for a parallelization candidate.
    pub fn is_candidate(&self) -> bool {
        self.violating_raw == 0
    }
}

/// A point of the Fig. 6 scatter data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Point {
    /// Construct label.
    pub label: String,
    /// Rank (1-based, by size).
    pub rank: usize,
    /// Normalized instruction count.
    pub norm_size: f64,
    /// Normalized violating static RAW count.
    pub norm_violations: f64,
    /// Raw violating static RAW count.
    pub violating_raw: usize,
}

/// The whole-run report: constructs ranked by total instructions.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    constructs: Vec<ConstructReport>,
    /// Total instructions of the profiled run.
    pub total_steps: u64,
    /// Total distinct violating static RAW edges across constructs.
    pub total_violating_raw: usize,
    /// Reads the profiler's shadow memory dropped at the per-address reader
    /// cap; non-zero means the WAR edge set may be incomplete.
    pub dropped_readers: u64,
    /// Shadow-memory layout telemetry from the profiled run: pages faulted
    /// in and read-set spills past the inline capacity (the PR-3 cap audit
    /// extended to the paged, allocation-free layout).
    pub shadow_stats: ShadowStats,
    /// Dependences whose head and tail ran on the same program thread.
    pub intra_thread_deps: u64,
    /// Dependences whose head and tail ran on different program threads
    /// (zero for single-threaded programs).
    pub cross_thread_deps: u64,
    /// Caller-supplied caveats rendered as trailing `note:` lines — e.g.
    /// the CLI's salvage note when a profile came from a `--recover`
    /// replay that dropped corrupt chunks.
    pub notes: Vec<String>,
}

impl ProfileReport {
    /// Builds a report from a finished profile.
    pub fn new(profile: &DepProfile, module: &Module) -> Self {
        let total_violating_raw = profile.total_violating(DepKind::Raw).max(1);
        let total_steps = profile.total_steps.max(1);
        let mut constructs: Vec<ConstructReport> = profile
            .constructs()
            .map(|c| {
                let tdur = c.tdur_mean();
                let mut edges: Vec<EdgeReport> = c
                    .edges
                    .iter()
                    .map(|(k, s)| EdgeReport {
                        kind: k.kind,
                        head_pc: k.head,
                        tail_pc: k.tail,
                        head_line: module.line_at(k.head),
                        tail_line: module.line_at(k.tail),
                        min_tdep: s.min_tdep,
                        count: s.count,
                        violating: s.min_tdep <= tdur,
                        var_addr: s.sample_addr,
                        var: module
                            .globals
                            .iter()
                            .find(|g| {
                                g.offset <= s.sample_addr && s.sample_addr < g.offset + g.words
                            })
                            .map(|g| g.name.clone()),
                        cross_count: s.cross_count,
                    })
                    .collect();
                edges.sort_by_key(|e| (e.kind, !e.violating, e.min_tdep, e.head_pc, e.tail_pc));
                ConstructReport {
                    head: c.id.head,
                    kind: c.id.kind,
                    label: c.id.label(module),
                    line: module.line_at(c.id.head),
                    ttotal: c.ttotal,
                    inst: c.inst,
                    tdur_mean: tdur,
                    violating_raw: c.violating_count(DepKind::Raw),
                    violating_war: c.violating_count(DepKind::War),
                    violating_waw: c.violating_count(DepKind::Waw),
                    norm_size: c.ttotal as f64 / total_steps as f64,
                    norm_violations: c.violating_count(DepKind::Raw) as f64
                        / total_violating_raw as f64,
                    nested_in: c.nested_in.clone(),
                    edges,
                }
            })
            .collect();
        constructs.sort_by(|a, b| b.ttotal.cmp(&a.ttotal).then(a.head.cmp(&b.head)));
        ProfileReport {
            constructs,
            total_steps: profile.total_steps,
            total_violating_raw: profile.total_violating(DepKind::Raw),
            dropped_readers: profile.dropped_readers,
            shadow_stats: profile.shadow_stats,
            intra_thread_deps: profile.intra_thread_deps,
            cross_thread_deps: profile.cross_thread_deps,
            notes: Vec::new(),
        }
    }

    /// Appends a caveat rendered as a trailing `note:` line. Used for
    /// facts the profile cannot see itself, like a salvaged replay having
    /// dropped corrupt chunks (an incomplete profile must never print as
    /// silently complete).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Constructs ranked by total instructions, largest first.
    pub fn ranked(&self) -> &[ConstructReport] {
        &self.constructs
    }

    /// The `n` largest constructs.
    pub fn top(&self, n: usize) -> &[ConstructReport] {
        &self.constructs[..n.min(self.constructs.len())]
    }

    /// Finds a construct whose label contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&ConstructReport> {
        self.constructs.iter().find(|c| c.label.contains(needle))
    }

    /// Finds the construct headed at `pc`.
    pub fn by_head(&self, pc: Pc) -> Option<&ConstructReport> {
        self.constructs.iter().find(|c| c.head == pc)
    }

    /// The paper's refinement step: remove construct `head` plus every
    /// construct all of whose instances sit inside `head` with exactly one
    /// instance per `head` instance (they get parallelized "for free"),
    /// then re-rank and re-normalize. Returns the reduced report.
    pub fn remove_with_nested(&self, head: Pc) -> ProfileReport {
        let target_inst = self.by_head(head).map(|c| c.inst).unwrap_or(0);
        let keep: Vec<ConstructReport> = self
            .constructs
            .iter()
            .filter(|c| {
                if c.head == head {
                    return false;
                }
                let inside = c.nested_in.get(&head).copied().unwrap_or(0);
                // Exactly one instance per instance of the removed
                // construct, and no instances outside it.
                !(inside == c.inst && c.inst == target_inst)
            })
            .cloned()
            .collect();
        let total_violating_raw: usize = keep.iter().map(|c| c.violating_raw).sum();
        let mut report = ProfileReport {
            constructs: keep,
            total_steps: self.total_steps,
            total_violating_raw,
            dropped_readers: self.dropped_readers,
            shadow_stats: self.shadow_stats,
            intra_thread_deps: self.intra_thread_deps,
            cross_thread_deps: self.cross_thread_deps,
            notes: self.notes.clone(),
        };
        let denom = total_violating_raw.max(1) as f64;
        for c in &mut report.constructs {
            c.norm_violations = c.violating_raw as f64 / denom;
        }
        report
    }

    /// Normalized (size, violating-RAW) series for the `n` largest
    /// constructs — the data behind Fig. 6.
    pub fn fig6_series(&self, n: usize) -> Vec<Fig6Point> {
        self.top(n)
            .iter()
            .enumerate()
            .map(|(i, c)| Fig6Point {
                label: c.label.clone(),
                rank: i + 1,
                norm_size: c.norm_size,
                norm_violations: c.norm_violations,
                violating_raw: c.violating_raw,
            })
            .collect()
    }

    /// Renders the ranked RAW profile in the paper's Fig. 2 style.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        for (i, c) in self.top(top_n).iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>2}. {:<28} Tdur={:<12} inst={}",
                i + 1,
                c.label,
                c.ttotal,
                c.inst
            );
            for e in c.edges_of(DepKind::Raw) {
                let var = e.var.as_deref().unwrap_or("?");
                let _ = writeln!(
                    out,
                    "      RAW: line {:>4} -> line {:<4} ({var}) Tdep={:<10} x{:<6}{}{}",
                    e.head_line,
                    e.tail_line,
                    e.min_tdep,
                    e.count,
                    if e.violating { "  [VIOLATING]" } else { "" },
                    if e.cross_count > 0 {
                        format!("  [cross-thread x{}]", e.cross_count)
                    } else {
                        String::new()
                    }
                );
            }
        }
        if self.dropped_readers > 0 {
            let _ = writeln!(
                out,
                "note: {} read(s) dropped at the per-address reader cap; \
                 WAR edges may be undercounted",
                self.dropped_readers
            );
        }
        if self.cross_thread_deps > 0 {
            let _ = writeln!(
                out,
                "cross-thread: {} of {} dependences crossed program threads \
                 (already parallel in the source; they never serialize the \
                 what-if schedule)",
                self.cross_thread_deps,
                self.cross_thread_deps + self.intra_thread_deps
            );
        }
        if self.shadow_stats.read_set_spills > 0 {
            let _ = writeln!(
                out,
                "note: {} read-set spill(s) past the inline capacity of \
                 {INLINE_READERS}; results are exact but those cells left \
                 the allocation-free inline path",
                self.shadow_stats.read_set_spills
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders the WAR/WAW profile in the paper's Fig. 3 style for one
    /// construct.
    pub fn render_war_waw(&self, head: Pc) -> String {
        let mut out = String::new();
        let Some(c) = self.by_head(head) else {
            return out;
        };
        let _ = writeln!(out, "{:<28} Tdur={:<12} inst={}", c.label, c.ttotal, c.inst);
        for kind in [DepKind::Waw, DepKind::War] {
            for e in c.edges_of(kind) {
                let var = e.var.as_deref().unwrap_or("?");
                let _ = writeln!(
                    out,
                    "      {}: line {:>4} -> line {:<4} ({var}) Tdep={:<10} x{:<6}{}{}",
                    kind,
                    e.head_line,
                    e.tail_line,
                    e.min_tdep,
                    e.count,
                    if e.violating { "  [VIOLATING]" } else { "" },
                    if e.cross_count > 0 {
                        format!("  [cross-thread x{}]", e.cross_count)
                    } else {
                        String::new()
                    }
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{AlchemistProfiler, ProfileConfig};
    use alchemist_vm::{compile_source, run, ExecConfig};

    fn report_for(src: &str) -> ProfileReport {
        let module = compile_source(src).unwrap();
        let mut prof = AlchemistProfiler::new(&module, ProfileConfig::default());
        let outcome = run(&module, &ExecConfig::default(), &mut prof).unwrap();
        let profile = prof.into_profile(outcome.steps);
        ProfileReport::new(&profile, &module)
    }

    const GZIP_MINI: &str = "
        int buf[8];
        int count;
        int out[64];
        int outcnt;
        void flush_block() {
            int i;
            for (i = 0; i < count; i++) out[outcnt++] = buf[i] * 3;
            count = 0;
        }
        int main() {
            int j;
            for (j = 0; j < 40; j++) {
                if (count == 8) flush_block();
                buf[count++] = j;
            }
            flush_block();
            return outcnt;
        }";

    #[test]
    fn main_ranks_first_by_size() {
        let r = report_for(GZIP_MINI);
        assert_eq!(r.ranked()[0].label, "Method main");
        assert!(r.ranked()[0].norm_size > 0.99);
        assert_eq!(r.ranked()[0].inst, 1);
    }

    #[test]
    fn ranking_is_monotone_in_ttotal() {
        let r = report_for(GZIP_MINI);
        let sizes: Vec<u64> = r.ranked().iter().map(|c| c.ttotal).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn flush_block_has_cross_call_dependences() {
        let r = report_for(GZIP_MINI);
        let fb = r.find("Method flush_block").expect("flush_block profiled");
        assert_eq!(fb.inst, 5, "four in-loop flushes plus the final one");
        assert!(
            fb.edges_of(DepKind::Raw).count() > 0,
            "outcnt/count flow across calls"
        );
        // The outcnt self-dependence (outcnt++ to outcnt++) appears.
        assert!(fb.edges_of(DepKind::Waw).count() > 0);
    }

    #[test]
    fn fig6_series_is_normalized() {
        let r = report_for(GZIP_MINI);
        let pts = r.fig6_series(5);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!((0.0..=1.0).contains(&p.norm_size), "{p:?}");
            assert!((0.0..=1.0).contains(&p.norm_violations), "{p:?}");
        }
        assert_eq!(pts[0].rank, 1);
    }

    #[test]
    fn render_contains_tdur_and_edges() {
        let r = report_for(GZIP_MINI);
        let text = r.render(10);
        assert!(text.contains("Method main"), "{text}");
        assert!(text.contains("Tdur="));
        assert!(text.contains("RAW: line"));
    }

    #[test]
    fn render_notes_capped_read_sets() {
        let src = "int g; int a; int b; int c;
             int main() { g = 1; a = g; b = g; c = g; g = 2; return g; }";
        let module = compile_source(src).unwrap();
        let cfg = ProfileConfig {
            reader_cap: 1,
            ..Default::default()
        };
        let mut prof = AlchemistProfiler::new(&module, cfg);
        let outcome = run(&module, &ExecConfig::default(), &mut prof).unwrap();
        let capped = ProfileReport::new(&prof.into_profile(outcome.steps), &module);
        assert!(capped.dropped_readers > 0);
        assert!(
            capped
                .render(10)
                .contains("dropped at the per-address reader cap"),
            "{}",
            capped.render(10)
        );
        let clean = report_for(src);
        assert_eq!(clean.dropped_readers, 0);
        assert!(!clean.render(10).contains("dropped"));
    }

    #[test]
    fn with_note_renders_trailing_note_lines_and_survives_refinement() {
        let r = report_for(GZIP_MINI);
        assert!(!r.render(5).contains("salvaged replay"));
        let salvaged = r.with_note("salvaged replay: 2 of 9 chunk(s) skipped");
        let text = salvaged.render(5);
        assert!(
            text.contains("note: salvaged replay: 2 of 9 chunk(s) skipped"),
            "{text}"
        );
        let main_head = salvaged.find("Method main").unwrap().head;
        assert!(salvaged
            .remove_with_nested(main_head)
            .render(5)
            .contains("salvaged replay"));
    }

    #[test]
    fn render_war_waw_lists_waw_edges() {
        let r = report_for(GZIP_MINI);
        let fb = r.find("flush_block").unwrap();
        let text = r.render_war_waw(fb.head);
        assert!(text.contains("WAW: line"), "{text}");
    }

    #[test]
    fn remove_with_nested_drops_target() {
        let r = report_for(GZIP_MINI);
        let main_head = r.find("Method main").unwrap().head;
        let reduced = r.remove_with_nested(main_head);
        assert!(reduced.find("Method main").is_none());
        // The top-level `for` loop has exactly one instance... no: it has
        // 41 instances (iterations). It must survive.
        assert!(reduced
            .ranked()
            .iter()
            .any(|c| c.kind == ConstructKind::Loop));
    }

    #[test]
    fn remove_with_nested_drops_single_instance_children() {
        // g runs once inside main: removing main removes g as well.
        let r = report_for(
            "int x;
             void g() { x = 1; }
             int main() { g(); return x; }",
        );
        let main_head = r.find("Method main").unwrap().head;
        let reduced = r.remove_with_nested(main_head);
        assert!(
            reduced.find("Method g").is_none(),
            "single-instance nested construct removed with its parent"
        );
    }

    #[test]
    fn removal_renormalizes_violations() {
        let r = report_for(GZIP_MINI);
        let main_head = r.find("Method main").unwrap().head;
        let reduced = r.remove_with_nested(main_head);
        let sum: f64 = reduced.ranked().iter().map(|c| c.norm_violations).sum();
        if reduced.total_violating_raw > 0 {
            assert!((sum - 1.0).abs() < 1e-9, "normalized violations sum to 1");
        }
    }

    #[test]
    fn candidate_flag_requires_zero_violating_raw() {
        let r = report_for(
            "int a[16];
             int main() { int i; for (i = 0; i < 16; i++) a[i] = i; return a[0]; }",
        );
        let lp = r
            .ranked()
            .iter()
            .find(|c| c.kind == ConstructKind::Loop)
            .unwrap();
        assert!(lp.is_candidate(), "independent loop is a candidate: {lp:?}");
    }
}
