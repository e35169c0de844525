//! The MAL (MonetDB Assembler Language) layer (§3, §3.1).
//!
//! "Figure 1 shows the design of MonetDB as a back-end that acts as a BAT
//! Algebra virtual machine programmed with the MonetDB Assembler Language
//! (MAL). The top consists of a variety of query language compilers that
//! produce MAL programs."
//!
//! * [`program`] — MAL programs: sequences of zero-degree-of-freedom
//!   instructions over BAT-valued variables (an instruction may bind
//!   multiple results, e.g. `(l, r) := algebra.join(a, b)`).
//! * [`parser`] — the textual MAL form, for tests, examples and debugging.
//! * [`optimizer`] — the second tier of §3.1: "a collection of optimizer
//!   modules, which are assembled into optimization pipelines … The
//!   approach breaks with the hitherto omnipresent cost-based optimizers."
//!   The pass order is written once there; the four pipeline
//!   constructors are views of it.
//! * [`mitosis`] — the multi-core modules of that tier: `mitosis` slices
//!   base-column binds into horizontal fragments and `mergetable`
//!   propagates operators fragment-wise, inserting `mat.pack` /
//!   `mat.packsum` merges (§3.1's parallelization chain).
//! * [`frame`] — the third tier's execution core: the slot frame and the
//!   instruction step that every scheduler of a plan runs on.
//! * [`interp`] — the serial scheduler over that core: the interpreter
//!   over the BAT Algebra, and `execute_instr`, where opcodes meet it.
//!   (`mammoth-parallel` and `mammoth-recycler` are the other schedulers.)
//! * [`analysis`] — static analysis over plans: a verifier (SSA
//!   discipline, arity, kinds, column types, plan structure) that a
//!   checked pipeline holds its result to, and a liveness analysis that powers
//!   the `garbage_collect` pass (whose `language.pass` markers are what
//!   releases dead intermediates at run time).

#![deny(unsafe_code)]

pub mod analysis;
pub mod combine;
pub mod frame;
pub mod interp;
pub mod mitosis;
pub mod optimizer;
pub mod parser;
pub mod program;

pub use analysis::{
    analyze_props, analyze_props_with_facts, bound_column_facts, check_bat, check_props_enabled,
    column_facts, column_facts_with_zonemaps, column_props, Analysis, PropFacts, Props, PropsError,
    CHECK_PROPS_ENV,
};
pub use analysis::{verify, verify_with_catalog, Liveness, VerifyError, VerifyErrorKind};
pub use combine::{
    aggregate_combine, gather_combine, partial_column, shard_partials_table, shard_table_name,
    GatherColumn, PartialMerge,
};
pub use frame::{ExecStats, Frame, StepCtx};
pub use interp::{execute_instr, Interpreter, PlanExecutor};
pub use mammoth_types::{EventKind, ProfiledRun, TraceEvent, TRACE_ENV};
pub use mitosis::{bound_column_types, column_types, ColumnTypes, Mergetable, Mitosis};
pub use optimizer::{
    default_pipeline, default_pipeline_with_props, parallel_pipeline, parallel_pipeline_with_props,
    CommonSubexpr, ConstantFold, DeadCode, FusePipeline, GarbageCollect, OptimizerPass, PassError,
    Pipeline, SelectElimination, SharedAnalysis, SortedSelect,
};
pub use parser::parse_program;
pub use program::{
    Arg, FilterTest, Instr, MalValue, OpCode, PipelineFilter, PipelineOut, PipelineSink,
    PipelineSpec, Program, SelectArgs, VarId,
};
