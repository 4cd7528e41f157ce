//! Trace substrate for `branch-lab`.
//!
//! This crate defines the minimal RISC-like instruction set used by the
//! synthetic workload interpreter, the retired-instruction record format
//! that every other crate consumes, in-memory [`Trace`] containers, and
//! slice iteration matching the paper's 30M-instruction slicing methodology
//! (scaled down via [`SliceConfig`]).
//!
//! The record format intentionally carries *more* ground truth than a
//! hardware trace would: source/destination registers, the value written by
//! each instruction, and memory addresses. The paper's §IV-A dependency
//! analysis and Fig. 10 register-value study require exactly this
//! information.
//!
//! # Examples
//!
//! ```
//! use bp_trace::{InstClass, RetiredInst, Trace, TraceMeta};
//!
//! let mut trace = Trace::new(TraceMeta::new("demo", 0));
//! trace.push(RetiredInst::cond_branch(0x40, true, 0x80, Some(1), Some(2)));
//! assert_eq!(trace.conditional_branches().count(), 1);
//! assert_eq!(trace[0].class, InstClass::Branch);
//! ```

#![warn(missing_docs)]

mod ahead;
mod codec_v3;
mod interval;
mod isa;
mod reader;
mod record;
mod serialize;
mod slice;
mod trace;

pub use codec_v3::{TraceWriter, BLOCK_RECORDS, MAX_BLOCK_PAYLOAD};
pub use interval::{bbv_bucket, profile_intervals, IntervalProfile};
pub use isa::{BranchKind, Cond, InstClass, Reg, NUM_REGS};
pub use reader::{BptrReader, SharedReader, SliceReader, TraceReader};
pub use record::{BranchInfo, RetiredInst};
pub use serialize::{ReadTraceError, WriteTraceError};
pub use slice::{SliceConfig, Slices};
pub use trace::{BranchView, ConditionalBranches, Trace, TraceMeta};
