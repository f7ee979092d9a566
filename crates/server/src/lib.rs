//! The broadcast-push server simulator.
//!
//! §2 of *Pitoura & Chrysanthis 1999* assumes a server that periodically
//! broadcasts the content of a database while update transactions commit
//! against it; each cycle's bcast is a transaction-consistent snapshot of
//! the database as of the beginning of the cycle. This crate builds that
//! server from scratch:
//!
//! * [`WriteHistory`] — the database: every committed value in serial
//!   order, from which the server airs current values and the old
//!   versions the multiversion broadcast method needs (§3.2), and against
//!   which the serializability validator in `bpush-core` judges,
//! * [`ServerTxn`] / [`WorkloadGenerator`] — the update-transaction
//!   workload of §5.1 (N transactions per cycle, reads four times more
//!   frequent than writes, Zipf-skewed with an offset against the client
//!   read pattern),
//! * [`ConflictTracker`] — derives the conflict edges among committed
//!   transactions that the SGT method broadcasts (§3.3), live only when
//!   the server airs them, and replays the commit log into the audit's
//!   conflict graph when that is asked for,
//! * [`BroadcastServer`] — ties everything together and emits one
//!   [`bpush_broadcast::Bcast`] per cycle, preceded by the control
//!   information each protocol requires, and keeps every cycle's
//!   committed transactions for that replay.
//!
//! # Example
//!
//! ```
//! use bpush_server::{BroadcastServer, ServerOptions};
//! use bpush_types::ServerConfig;
//!
//! let config = ServerConfig { broadcast_size: 100, update_range: 50,
//!     server_read_range: 100, updates_per_cycle: 10,
//!     ..ServerConfig::default() };
//! let mut server = BroadcastServer::new(config, ServerOptions::default(), 42)?;
//! let bcast = server.run_cycle();           // cycle 0: initial snapshot
//! assert_eq!(bcast.item_count(), 100);
//! let bcast = server.run_cycle();           // cycle 1
//! assert!(!bcast.control().invalidation().is_empty(), "cycle 0 made updates");
//! # Ok::<(), bpush_types::BpushError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod conflicts;
mod history;
mod server;
mod txn;
mod workload;

pub use conflicts::ConflictTracker;
pub use history::WriteHistory;
pub use server::{BroadcastMode, BroadcastServer, ServerOptions};
pub use txn::ServerTxn;
pub use workload::{ScriptedWorkload, WorkloadGenerator, WorkloadSource};
