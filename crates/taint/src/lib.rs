//! # chaser-taint
//!
//! A bitwise dynamic taint engine modelled on DECAF's, extended — as the
//! Chaser paper describes — with propagation rules for floating-point
//! helper calls.
//!
//! Taint is tracked at *bit* granularity through CPU registers, IR
//! temporaries and (physical) guest memory. Chaser marks injected faults as
//! taint sources: the bits the injector flipped become the initial
//! [`TaintMask`], and the engine's per-IR-op rules carry those bits through
//! the program. The VM's execution engine consults [`TaintState`] on every
//! op; tainted memory loads and stores are reported back to Chaser's tracer
//! (the paper's `DECAF_READ_TAINTMEM_CB` / `DECAF_WRITE_TAINTMEM_CB`).
//!
//! Two propagation policies are provided (an ablation the paper's design
//! discussion motivates):
//!
//! * [`TaintPolicy::Precise`] — value-aware bitwise rules (DECAF-style):
//!   logical ops use controlling-value rules, arithmetic spreads upward from
//!   the lowest tainted bit (carry propagation), constant shifts shift the
//!   mask.
//! * [`TaintPolicy::Conservative`] — any tainted input bit taints all 64
//!   output bits.
//!
//! Floating-point helpers always taint the whole result when any operand
//! bit is tainted: an exponent or mantissa bit influences every bit of an
//! IEEE-754 result in general.
//!
//! # Example
//!
//! ```
//! use chaser_taint::{TaintMask, TaintPolicy, TaintState};
//!
//! let mut taint = TaintState::new(TaintPolicy::Precise);
//! // Mark one bit of physical address 0x1000 as a fault site.
//! taint.mem_mut().store8(0x1000, TaintMask::bit(5));
//! assert_eq!(taint.mem().tainted_bytes(), 1);
//! assert!(taint.mem().load8(0x1000).is_tainted());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mask;
mod policy;
mod prov;
mod shadow;
mod state;

pub use mask::TaintMask;
pub use policy::{PropKind, TaintPolicy};
pub use prov::ProvSet;
pub use shadow::ShadowMem;
pub use state::TaintState;
