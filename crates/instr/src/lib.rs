//! The pointer-tracker "compiler pass" and its substrate.
//!
//! DangSan's pointer tracker is an LLVM (LTO) pass that finds every
//! pointer-typed store and inserts a `registerptr` call, with two static
//! optimizations (§6): hoisting loop-invariant registrations out of
//! free-free loops, and eliding registrations of pointer-arithmetic
//! write-backs. Reproducing it against real LLVM would exercise LLVM, not
//! DangSan, so this crate provides the minimal compiler stack the pass
//! actually needs:
//!
//! * [`ir`] — a typed, block-structured register IR with the relevant
//!   features (pointer vs integer types, GEP, calls, heap ops);
//! * [`builder`] — ergonomic construction of IR programs;
//! * [`analysis`] — CFG, dominator tree, natural loops, transitive
//!   may-call-`free`;
//! * [`instrument`](mod@instrument) — the pass itself (naive and optimized variants);
//! * [`interp`] — an interpreter that runs instrumented programs against a
//!   hooked heap, turning dangling-pointer dereferences into
//!   [`interp::Trap::UseAfterFree`].

pub mod analysis;
pub mod builder;
pub mod fuzz;
pub mod instrument;
pub mod interp;
pub mod ir;
pub mod text;

pub use instrument::{instrument, PassOptions, PassReport};
pub use interp::{run_instrumented, Machine, Trap};
pub use text::{parse_program, print_program, ParseError};
