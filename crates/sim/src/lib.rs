//! The simulation engine and experiment suite of the `bpush`
//! reproduction of *Pitoura & Chrysanthis, ICDCS 1999*.
//!
//! * [`Simulation`] advances a [`bpush_server::BroadcastServer`] and a
//!   population of [`bpush_client::QueryExecutor`]s cycle by cycle and
//!   reduces the query outcomes to [`MethodMetrics`] (abort rate, latency
//!   in cycles, span, size overhead), validating every committed readset
//!   against the serializability ground truth.
//! * [`runner`] fans parameter sweeps out across CPU cores.
//! * [`monitors_for`] attaches online invariant monitors
//!   ([`bpush_obs::Monitors`]) that check each method's published
//!   consistency rules *during* the run; with a flight recorder
//!   ([`Simulation::with_flight_recorder`]) the first violation dumps a
//!   replayable `bpush-capture-v1` window into a [`CaptureSlot`].
//! * [`experiments`] regenerates every table and figure of the paper's
//!   §5 — see DESIGN.md for the experiment index and EXPERIMENTS.md for
//!   the recorded outputs.
//!
//! # Example
//!
//! ```
//! use bpush_core::Method;
//! use bpush_sim::{experiments, Simulation};
//!
//! let mut config = experiments::quick_defaults();
//! config.n_clients = 2;
//! config.queries_per_client = 5;
//! let metrics = Simulation::new(config, Method::Sgt)?.run()?;
//! assert_eq!(metrics.violations, 0);
//! println!("sgt abort rate: {:.1}%", metrics.abort_pct());
//! # Ok::<(), bpush_types::BpushError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chart;
pub mod experiments;
pub mod runner;
mod simulation;
mod table;

pub use runner::{run_jobs, run_replicated, run_sharded_with_workers, Job};
pub use simulation::{monitors_for, CaptureSlot, MethodMetrics, Simulation};
pub use table::{fnum, Table};
