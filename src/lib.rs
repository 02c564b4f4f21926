//! # Alchemist
//!
//! A full reproduction of **"Alchemist: A Transparent Dependence Distance
//! Profiling Infrastructure"** (Zhang, Navabi, Jagannathan — CGO 2009) as a
//! Rust workspace.
//!
//! Alchemist profiles a sequential program once and reports, for **every**
//! program construct (procedure, loop, conditional), the RAW/WAR/WAW
//! dependences between the construct and its continuation together with
//! their time distances — enough to decide which constructs can be spawned
//! as futures and which variables must be privatized first.
//!
//! The original tool instruments native binaries through Valgrind; this
//! reproduction ships its own execution substrate (a mini-C frontend and a
//! tracing bytecode VM) so the entire pipeline is self-contained and
//! deterministic. The repository's `README.md` describes each crate's role
//! and the measured performance; the `alchemist-bench` crate's benches
//! regenerate the paper's tables and figures.
//!
//! ## Crates
//!
//! | crate | role |
//! |---|---|
//! | [`lang`] | mini-C lexer, parser, resolver |
//! | [`cfg`](mod@cfg) | dominators, post-dominators, natural loops |
//! | [`vm`] | bytecode compiler + tracing interpreter |
//! | [`core`](mod@core) | execution indexing + dependence profiling (the paper) |
//! | [`parsim`] | profile-guided parallel-schedule simulation (Table V) |
//! | [`trace`] | binary record/replay traces with offline analyses |
//! | [`obs`] | metrics: counters, stage spans, histograms (`--metrics`) |
//! | [`workloads`] | the paper's eight benchmarks, re-implemented |
//!
//! ## Quick start
//!
//! ```
//! use alchemist::prelude::*;
//!
//! let outcome = profile_source(
//!     "int total;
//!      void add(int x) { total += x; }
//!      int main() { int i; for (i = 0; i < 10; i++) add(i); return total; }",
//!     vec![],
//! ).unwrap();
//! println!("{}", outcome.report().render(5));
//! ```

#![warn(missing_docs)]

pub use alchemist_cfg as cfg;
pub use alchemist_core as core;
pub use alchemist_lang as lang;
pub use alchemist_obs as obs;
pub use alchemist_parsim as parsim;
pub use alchemist_trace as trace;
pub use alchemist_vm as vm;
pub use alchemist_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use alchemist_core::{
        profile_events, profile_module, profile_source, AlchemistProfiler, ConstructKind, DepKind,
        ProfileConfig, ProfileOutcome, ProfileReport,
    };
    pub use alchemist_lang::compile_to_hir;
    pub use alchemist_parsim::{
        extract_tasks, extract_tasks_from_events, simulate, suggest_candidates, ExtractConfig,
        SimConfig,
    };
    pub use alchemist_trace::{TraceReader, TraceWriter};
    pub use alchemist_vm::{compile_source, run, ExecConfig, NullSink};
    pub use alchemist_workloads::{Scale, Workload};
}

pub use alchemist_core::{profile_source, ProfileOutcome};
