//! Conflict serialization graphs for the SGT read-only transaction method.
//!
//! §3.3 of *Pitoura & Chrysanthis 1999* validates client queries by
//! **serialization-graph testing**: the server broadcasts, each cycle, the
//! *difference* of its conflict serialization graph (the edges incident to
//! transactions committed during the previous cycle), and every client
//! maintains a local copy of the graph extended with its own active
//! read-only transactions. A read is accepted only if it closes no cycle.
//!
//! This crate provides:
//!
//! * [`Window`] — the Lemma-1 window an SGT client and the monitors'
//!   graph lane keep: the diffs they heard, one shared chunk per cycle
//!   with the floor it was admitted under, plus a small overlay of the
//!   query edges `R → T_f` and `T_l → R`. Nothing is linked per offered
//!   edge; the acceptance test ([`Window::would_close_cycle`]) and the
//!   monitors' [`Window::path_exists`] search backward over the chunks'
//!   in-edges when a read asks,
//! * [`SerializationGraph`] — the server's whole-history graph over
//!   committed transactions, linked and append-only
//!   ([`SerializationGraph::push`] once per cycle's diff): a dense `u32`
//!   node interner with one forward adjacency list of ids per node, the
//!   graph the end-of-run audit replays and the judge reads,
//! * [`GraphDiff`] — the per-cycle difference the server broadcasts,
//! * [`Node`] — graph nodes: committed server transactions or local
//!   read-only queries.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use bpush_sgraph::{GraphDiff, Window};
//! use bpush_types::{Cycle, QueryId, TxnId};
//!
//! let (c1, c2) = (Cycle::new(1), Cycle::new(2));
//! let (t1, t2) = (TxnId::new(c1, 0), TxnId::new(c2, 0));
//! let r = QueryId::new(0);
//!
//! let mut w = Window::new();
//! w.add_precedence(r, t1); // t1 overwrote something r read
//! w.advance(Some(c1), Some(&Arc::new(GraphDiff::new(c1, vec![t1], vec![]))));
//! // server conflict t1 -> t2, heard in the next cycle's diff
//! w.advance(Some(c1), Some(&Arc::new(GraphDiff::new(c2, vec![t2], vec![(t1, t2)]))));
//!
//! // r now wants to read a value written by t2: edge t2 -> r would close
//! // the cycle r -> t1 -> t2 -> r, so the read must be rejected.
//! assert!(w.would_close_cycle(t2, r));
//! // and reading from t1 directly closes r -> t1 -> r as well.
//! assert!(w.would_close_cycle(t1, r));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod diff;
mod graph;
mod node;
mod window;

pub use diff::GraphDiff;
pub use graph::SerializationGraph;
pub use node::Node;
pub use window::Window;
