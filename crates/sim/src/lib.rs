//! Deterministic discrete-event simulation engine.
//!
//! This crate is the bottom layer of the `decluster` reproduction of
//! Holland & Gibson's *Parity Declustering for Continuous Operation in
//! Redundant Disk Arrays* (ASPLOS 1992). It mirrors the role of the
//! event-driven core of Berkeley's `raidSim`: everything above it (the disk
//! model, the striping driver, the workload generator) expresses behaviour
//! as timestamped events, and this crate orders and dispatches them.
//!
//! Design points:
//!
//! * **Integer time.** [`SimTime`] is a microsecond counter (`u64`), so event
//!   ordering is exact and runs are bit-for-bit reproducible.
//! * **Stable ordering.** Events scheduled for the same instant pop in the
//!   order they were scheduled (a monotone sequence number breaks ties).
//! * **No interior mutability.** The queue holds plain event values `E`; the
//!   caller owns the world state and dispatches popped events itself, which
//!   keeps the simulator free of `Rc<RefCell<…>>` webs.
//!
//! # Examples
//!
//! ```
//! use decluster_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ms(2), Ev::Pong);
//! q.schedule(SimTime::from_ms(1), Ev::Ping);
//! assert_eq!(q.pop().map(|(t, e)| (t.as_ms_f64(), e)), Some((1.0, Ev::Ping)));
//! assert_eq!(q.pop().map(|(t, e)| (t.as_ms_f64(), e)), Some((2.0, Ev::Pong)));
//! assert!(q.pop().is_none());
//! ```

#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod probe;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use histogram::LatencyHistogram;
pub use probe::{
    DiskSample, DiskTimeline, NoProbe, Observations, OpClass, Probe, ReconSample, Recorder,
    TimelineSample,
};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{OnlineStats, ResponseStats};
pub use time::SimTime;
