//! # aorta-sim — deterministic discrete-event simulation kernel
//!
//! Every timing-sensitive result in the Aorta reproduction is measured in
//! *virtual time* driven by this crate, which makes experiments deterministic
//! (seeded) and laptop-scale. The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual clock
//!   types with arithmetic and human-readable display,
//! * [`EventQueue`] — a stable (FIFO-on-tie) priority queue of timestamped
//!   events,
//! * [`LinkModel`] — a network-link model with base latency, jitter and
//!   packet loss, used by the communication layer,
//! * [`CpuModel`] + [`OpCounter`] — an operation-counting model that converts
//!   algorithmic work into virtual *scheduling time* (the paper reports the
//!   scheduling time of its algorithms on a 1.5 GHz notebook; wall-clock on
//!   modern hardware cannot reproduce those absolute numbers, op counts can
//!   reproduce their shape),
//! * [`SimRng`] — a seeded, forkable random source,
//! * [`metrics`] — duration statistics for experiment reporting.
//!
//! # Example
//!
//! ```
//! use aorta_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.push(SimTime::ZERO + SimDuration::from_millis(2), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(2));
//! ```

#![warn(missing_docs)]

mod cpu;
mod fault;
mod link;
pub mod metrics;
mod queue;
mod rng;
mod time;
mod trace;

pub use cpu::{CpuModel, OpCounter};
pub use fault::{FaultConfig, FaultEvent, FaultPlan};
pub use link::{Delivery, LinkModel};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceBuffer, TraceEvent};
