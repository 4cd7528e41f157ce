//! Synthetic workload generation for `branch-lab`.
//!
//! The paper's measurements require instruction traces whose branch
//! behaviour spans predictable code, systematically hard-to-predict (H2P)
//! branches, and rarely-executed branches, with full ground truth for
//! dependency analysis. This crate provides:
//!
//! * a program IR and [`ProgramBuilder`] ([`Program`]);
//! * a deterministic [`Interpreter`] that executes programs into
//!   [`bp_trace::Trace`]s;
//! * composable behaviour [`motifs`];
//! * [`WorkloadSpec`] — a parameterized benchmark description with multiple
//!   *application inputs* per benchmark (the paper's §III-A methodology);
//! * the two datasets: [`specint_suite`] (Table I) and [`lcf_suite`]
//!   (Table II).
//!
//! # Examples
//!
//! ```
//! use bp_workloads::specint_suite;
//!
//! let leela = &specint_suite()[6];
//! assert_eq!(leela.name, "641.leela_s");
//! let trace = leela.trace(0, 10_000);
//! assert_eq!(trace.len(), 10_000);
//! // Traces are deterministic per (workload, input).
//! assert_eq!(trace.insts(), leela.trace(0, 10_000).insts());
//! ```

#![warn(missing_docs)]

mod disasm;
mod interp;
pub mod motifs;
mod program;
mod spec;
mod store;
mod suite;

pub use interp::Interpreter;
pub use motifs::{Emitter, RareTier, VarGapSpec};
pub use program::{Block, BlockId, Op, Program, ProgramBuilder, Terminator, CODE_BASE, INST_BYTES};
pub use spec::{Family, MotifSet, WorkloadSpec};
pub use store::{DerivedKey, StoreReader, StoreStats, TraceKey, TraceStore};
pub use suite::{
    find_workload, lcf_suite, specint_suite, suite_digest, workload_names, LCF_TRACE_LEN,
    SPECINT_TRACE_LEN,
};
