//! # wlac-netlist — word-level RTL netlists
//!
//! The netlist model used throughout the WLAC assertion checker
//! (a reproduction of Huang & Cheng, DAC 2000). A design is a
//! [`Netlist`] of word-level primitives ([`GateKind`]): Boolean gates,
//! arithmetic units, comparators, multiplexors and flip-flops — the five
//! primitive classes the paper's "quick synthesis" produces. Sequential
//! behaviour is analysed through [`Unrolling`], the time-frame expansion
//! that turns flip-flops into frame-connecting buffers and initial-state
//! variables.
//!
//! # Examples
//!
//! ```
//! use wlac_netlist::Netlist;
//! use wlac_bv::Bv;
//!
//! // if (a > b) y = a - b; else y = 0;
//! let mut nl = Netlist::new("sat_sub");
//! let a = nl.input("a", 8);
//! let b = nl.input("b", 8);
//! let gt = nl.gt(a, b);
//! let diff = nl.sub(a, b);
//! let zero = nl.constant(&Bv::zero(8));
//! let y = nl.mux(gt, diff, zero);
//! nl.mark_output("y", y);
//!
//! assert_eq!(nl.stats().gates, 4);
//! assert_eq!(nl.interface_nets(), vec![gt]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gate;
mod ids;
mod inputs;
mod netlist;
mod stats;
mod unroll;

pub use gate::{Gate, GateKind};
pub use ids::{GateId, NetId};
pub use inputs::{GateInputs, InlineIds};
pub use netlist::{CombinationalCycleError, GateShapeError, NetInfo, Netlist};
pub use stats::CircuitStats;
pub use unroll::{InitialState, Unrolling};
