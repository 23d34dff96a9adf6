//! Alpha AXP instruction-set subset for the OM link-time-optimization
//! reproduction (Srivastava & Wall, PLDI 1994).
//!
//! This crate is the bottom of the stack: a format-level instruction model
//! ([`Inst`]), binary [`encode()`](encode())/[`decode()`](decode()), a disassembler, register
//! define/use summaries ([`Effects`]) for dependence testing, 21064-class
//! latency/dual-issue tables ([`timing`]) shared with the `om-sim` timing
//! model, and the one list scheduler ([`sched`]) that both compile-time
//! scheduling and OM's rescheduling run.
//!
//! # Example
//!
//! ```
//! use om_alpha::{Inst, Reg, encode::encode, decode::decode};
//!
//! // The address load of a typical AXP call sequence: ldq pv, 144(gp)
//! let address_load = Inst::ldq(Reg::PV, 144, Reg::GP);
//! let word = encode(address_load);
//! assert_eq!(decode(word), Ok(address_load));
//! assert_eq!(address_load.to_string(), "ldq pv, 144(gp)");
//! ```

pub mod decode;
pub mod disasm;
pub mod effects;
pub mod encode;
pub mod inst;
pub mod reg;
pub mod sched;
pub mod timing;

pub use decode::{decode, decode_all, DecodeError};
pub use effects::Effects;
pub use encode::{encode, encode_all};
pub use inst::{BrOp, FOprOp, Inst, JmpOp, MemOp, Operand, OprOp, PalOp};
pub use reg::Reg;
