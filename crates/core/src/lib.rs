//! Read-only transaction processing for broadcast push — the primary
//! contribution of *Pitoura & Chrysanthis, ICDCS 1999*.
//!
//! Clients of a broadcast-push server execute read-only transactions
//! ("queries") whose readsets must form a subset of a consistent database
//! state, validated **entirely at the client** from control information on
//! the broadcast — never by contacting the server, which is what makes
//! every method scale independently of the client population.
//!
//! # The methods
//!
//! | Method | Paper | Idea |
//! |---|---|---|
//! | [`InvalidationOnly`] | §3.1 | abort on any invalidated read |
//! | [`InvalidationOnly`] + versioned cache | §4.1, Thm. 4 | continue from old-enough cache entries |
//! | [`MultiversionBroadcast`] | §3.2 | read the snapshot of the first-read cycle |
//! | [`Sgt`] | §3.3 | serialization-graph testing at the client |
//! | [`MultiversionCaching`] | §4.2, Thm. 5 | snapshot of the first-invalidation cycle, old versions from cache |
//!
//! All five implement [`ReadOnlyProtocol`]: a client runtime feeds them
//! the per-cycle [`ControlInfo`](bpush_broadcast::ControlInfo), asks for a
//! [`ReadConstraint`] before each read, offers a [`ReadCandidate`]
//! (from cache or from the broadcast), and the protocol accepts the read
//! or dooms the query.
//!
//! [`validator::SerializabilityValidator`] independently checks every
//! committed readset against the server's ground-truth write history —
//! the executable form of the paper's Theorems 1–5.
//!
//! # Example: invalidation-only in a few lines
//!
//! ```
//! use bpush_core::{InvalidationOnly, ReadDirective, ReadOnlyProtocol};
//! use bpush_broadcast::{ControlInfo, InvalidationReport};
//! use bpush_types::{Cycle, Granularity, ItemId, QueryId};
//!
//! let mut p = InvalidationOnly::new();
//! let q = QueryId::new(0);
//! p.begin_query(q, Cycle::new(3));
//! // at cycle 4, a report invalidates item 7:
//! let report = InvalidationReport::new(
//!     Cycle::new(4), 1, [ItemId::new(7)], Granularity::Item, 1);
//! let ctrl = ControlInfo::new(Cycle::new(4), report, None, None);
//! p.on_control(&ctrl);
//! // the query had not read item 7 yet, so it is still active:
//! assert!(matches!(p.read_directive(q, ItemId::new(7), Cycle::new(4)),
//!                  ReadDirective::Read(_)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conformance;
pub mod instrument;
mod invalidation;
mod method;
mod multiversion;
mod mvcache;
mod protocol;
mod readset;
mod sgt;
pub mod validator;

pub use invalidation::InvalidationOnly;
pub use method::Method;
pub use multiversion::MultiversionBroadcast;
pub use mvcache::MultiversionCaching;
pub use protocol::{
    AbortReason, CacheMode, ProtocolStep, ReadCandidate, ReadConstraint, ReadDirective,
    ReadOnlyProtocol, ReadOutcome, Source,
};
pub use readset::ReadSet;
pub use sgt::{Sgt, SgtConfig};
