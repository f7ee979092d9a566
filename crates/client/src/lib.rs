//! The broadcast-push client runtime.
//!
//! Pairs a [`bpush_core::ReadOnlyProtocol`] with the machinery a real
//! client needs (§4, §5.1 of *Pitoura & Chrysanthis 1999*):
//!
//! * [`ClientCache`] — an LRU cache kept coherent by invalidation +
//!   autoprefetch, with the versioned (§4.1) and split multiversion
//!   (§4.2) extensions,
//! * [`QueryExecutor`] — runs queries against the broadcast: samples
//!   Zipf-skewed readsets, waits for items' slots, thinks between reads,
//!   tracks spans and latency, injects disconnections, and reports a
//!   [`QueryOutcome`] per query,
//! * [`BroadcastSession`] — the embeddable client: the application owns
//!   the radio loop and asks the session where to tune,
//! * [`WireClient`] — the sans-IO client: framed broadcast bytes in,
//!   directives and values out,
//! * [`lru::LruMap`] — the replacement policy building block: one
//!   key-sorted vector of entries and their last touches.
//!
//! One core, three drivers, one wire step: the paper's client (§2.1,
//! §3–§4) is a single automaton — hear the control segment, ask the
//! method for a directive, serve the read from cache or air, commit or
//! abort — and it is written once, in the crate-private `core` module,
//! which owns the protocol, the cache, the cache decision point, the
//! in-flight transaction table and the optional wire link (the byte
//! buffer control segments are framed out of and decoded from). The
//! three public clients differ only in how the broadcast reaches them
//! and in what they account for: the executor adds the slot clock,
//! tuning cost and events of a simulated client, the session answers
//! with [`ReadStep`]s, the wire client pushes transport bytes into the
//! link and keeps the data and directory segments. A wire-fed executor
//! ([`QueryExecutor::with_wire_feed`]) pushes its own encoding of each
//! report into the same link, so there is one place a control segment
//! is heard off the wire. A behaviour of the automaton is therefore the
//! same under the simulator, in an embedding application and behind a
//! byte transport.
//!
//! # Example
//!
//! ```
//! use bpush_client::{CacheParams, ClientCache, QueryExecutor};
//! use bpush_core::Method;
//! use bpush_server::{BroadcastServer, ServerOptions};
//! use bpush_types::{ClientConfig, ClientId, ServerConfig, Slot};
//!
//! let sc = ServerConfig { broadcast_size: 100, update_range: 50,
//!     server_read_range: 100, updates_per_cycle: 10,
//!     ..ServerConfig::default() };
//! let cc = ClientConfig { read_range: 100, reads_per_query: 4,
//!     ..ClientConfig::default() };
//! let mut server = BroadcastServer::new(sc, ServerOptions::plain(), 1)?;
//! let mut client = QueryExecutor::new(
//!     ClientId::new(0), cc, Method::InvalidationOnly.build_protocol(),
//!     None, 5, 42)?;
//! let mut start = Slot::ZERO;
//! let mut finished = Vec::new();
//! for _ in 0..40 {
//!     let bcast = server.run_cycle();
//!     finished.extend(client.run_cycle(&bcast, start, true)?);
//!     start = start.plus(bcast.total_slots());
//! }
//! assert_eq!(finished.len(), 5);
//! # Ok::<(), bpush_types::BpushError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod core;
mod executor;
pub mod lru;
pub mod session;
pub mod wire;

pub use cache::{CacheParams, CacheStats, ClientCache};
pub use executor::{QueryExecutor, QueryOutcome};
pub use session::{BroadcastSession, ReadStep, TxnHandle};
pub use wire::WireClient;
