//! Event-driven gate-level logic simulation with glitch detection and
//! Monte-Carlo hazard-validation building blocks.
//!
//! The paper validates FANTOM machines on real hardware; this workspace
//! substitutes a delay-accurate logic simulator (see `DESIGN.md`,
//! "Substitutions"). Hazards are defined in terms of gate- and line-delay
//! orderings, so an event-driven simulator that assigns adversarial
//! (randomised) delays to every gate exercises exactly the orderings that
//! make a hazard observable.
//!
//! The crate provides:
//!
//! * [`Netlist`] — gates ([`GateKind`]), rising-edge D flip-flops and nets,
//!   including direct construction from `fantom_boolean::Expr` trees, plus
//!   the [`Fanout`] indexes both evaluation engines walk (the readers of
//!   each net as `(gate, multiplicity)` pairs, its drivers, the flip-flops
//!   it clocks, the flip-flop outputs, each net's sole driver and whether it
//!   clocks a flip-flop) and the packed per-gate record every engine
//!   evaluates a gate from (its output net and a rule on its true-input
//!   count), built once per netlist and shared by every simulator, oracle
//!   and harness over it,
//! * [`DelayModel`] — unit, fixed and seeded-random gate delays,
//! * [`Simulator`] — an event-driven simulator (transport or inertial
//!   [`DelayStyle`]) with waveform recording, configured through
//!   [`SimulatorBuilder`]: delay model and style, per-gate delay overrides
//!   for the loop-delay assumption, monitors, and the event budget enforced
//!   by the argument-free [`Simulator::run_until_quiet`] /
//!   [`Simulator::settle`]. It schedules on a private timing wheel, a ring
//!   of FIFOs with one slot per time unit over the longest delay, so a
//!   schedule is an append, a pop a slot read and an inertial cancellation
//!   a counter bump,
//! * [`campaign`] — Monte-Carlo campaign building blocks: deterministic
//!   delay sweeps ([`campaign::DelaySweep`]), the zero-delay differential
//!   oracle ([`campaign::ZeroDelayOracle`], dirty-flag + process-queue
//!   propagation over true-input counters and the gate records, with the
//!   slow feedback gates held until the rest of the logic settles), the
//!   per-worker [`campaign::StepMemo`] that runs each transition's
//!   initialization rounds and settles its oracle once per start state
//!   rather than once per delay assignment, and runs its event loop once
//!   per start state and input skew across the delay assignments that
//!   differ only in time scale, and the per-trial [`campaign::Harness`],
//! * [`analysis`] — waveform transition counting, from which campaigns
//!   detect glitches.
//!
//! Errors are unified in [`SimError`]: budget exhaustion, oscillation and
//! inconsistent initialization, each naming the offending net.
//!
//! # Example
//!
//! ```
//! use fantom_sim::{DelayModel, GateKind, Netlist, Simulator};
//!
//! let mut netlist = Netlist::new();
//! let a = netlist.add_primary_input("a");
//! let b = netlist.add_primary_input("b");
//! let y = netlist.add_net("y");
//! netlist.add_gate(GateKind::And, vec![a, b], y);
//!
//! let mut sim = Simulator::builder(&netlist)
//!     .delay_model(DelayModel::Unit)
//!     .event_budget(1_000)
//!     .build();
//! sim.set_input(a, true);
//! sim.set_input(b, true);
//! sim.run_until_quiet().expect("combinational circuit settles");
//! assert!(sim.value(y));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
mod delay;
mod netlist;
mod queue;
mod sim;

pub use delay::DelayModel;
pub use netlist::{Dff, Fanout, Gate, GateKind, NetId, Netlist};
pub use sim::{DelayStyle, SimError, Simulator, SimulatorBuilder, Waveform, DEFAULT_EVENT_BUDGET};
