//! # alchemist-vm
//!
//! Bytecode compiler and tracing interpreter: the execution substrate of the
//! Alchemist dependence-distance profiler (CGO 2009 reproduction).
//!
//! The original Alchemist instruments native binaries through Valgrind. This
//! crate replaces that layer with a deterministic VM that produces the same
//! kinds of events a DBI tool would:
//!
//! * per-instruction timestamps (retired-instruction counts),
//! * every data-memory read and write with its word address,
//! * function entry/exit,
//! * conditional-branch (predicate) executions, and
//! * basic-block entries — which is where the paper's post-dominator rule
//!   (instrumentation rule 5) fires.
//!
//! The compiled [`Module`] also carries the static control-flow facts the
//! profiler needs (immediate post-dominators per block, loop/branch
//! classification per predicate), computed by [`analysis`] using
//! `alchemist-cfg`.
//!
//! ## Example
//!
//! ```
//! use alchemist_lang::compile_to_hir;
//! use alchemist_vm::{compile, run, CountingSink, ExecConfig};
//!
//! let hir = compile_to_hir(
//!     "int g;
//!      int main() { int i; for (i = 0; i < 10; i++) g += i; return g; }",
//! )?;
//! let module = compile(&hir);
//! let mut sink = CountingSink::default();
//! let outcome = run(&module, &ExecConfig::default(), &mut sink).unwrap();
//! assert_eq!(outcome.exit_value, 45);
//! assert!(sink.writes >= 10); // the ten stores to `g`, at least
//! # Ok::<(), alchemist_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod batch;
pub mod compiler;
pub mod error;
pub mod events;
pub mod interp;
pub mod module;
pub mod op;

pub use analysis::{BlockInfo, ModuleAnalysis, PredKind};
pub use batch::{BatchingSink, EventBatch, EventTag, RowsMut, DEFAULT_BATCH_EVENTS};
pub use compiler::compile;
pub use error::{Trap, TrapKind};
pub use events::{CountingSink, Event, NullSink, RecordingSink, Tid, Time, TraceSink};
pub use interp::{
    clear_interrupt, interrupt_requested, request_interrupt, run, run_with_metrics, ExecConfig,
    ExecOutcome, Interp,
};
pub use module::{FuncInfo, GlobalInfo, Module};
pub use op::{pack_ref, unpack_ref, BlockId, Op, Pc};

/// Compiles mini-C source all the way to an executable [`Module`].
///
/// # Errors
///
/// Returns the first frontend error ([`alchemist_lang::LangError`]).
///
/// # Examples
///
/// ```
/// let m = alchemist_vm::compile_source("int main() { return 7; }")?;
/// assert_eq!(m.funcs.len(), 1);
/// # Ok::<(), alchemist_lang::LangError>(())
/// ```
pub fn compile_source(src: &str) -> Result<Module, alchemist_lang::LangError> {
    let hir = alchemist_lang::compile_to_hir(src)?;
    Ok(compile(&hir))
}
