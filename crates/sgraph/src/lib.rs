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
//! * [`SerializationGraph`] — the graph itself on a dense `u32` node
//!   interner with one forward and one reverse adjacency list of ids per
//!   node (no reverse entry for an old → new transaction edge, which the
//!   window never needs), with incremental edge insertion,
//!   allocation-free cycle/path queries, and the Lemma-1 window written
//!   once ([`SerializationGraph::advance`]): it drops what fell out of
//!   the window and integrates only the part of a broadcast diff inside
//!   it. A window transaction finds its id in a per-cycle slot vector
//!   (`SG^i` in the paper is one slot vector) kept in a deque from the
//!   window start; a small sorted side table holds the transactions
//!   below it and the query nodes have their own,
//! * [`GraphDiff`] — the per-cycle difference the server broadcasts,
//! * [`Node`] — graph nodes: committed server transactions or local
//!   read-only queries.
//!
//! # Example
//!
//! ```
//! use bpush_sgraph::{Node, SerializationGraph};
//! use bpush_types::{Cycle, QueryId, TxnId};
//!
//! let mut g = SerializationGraph::new();
//! let t1 = TxnId::new(Cycle::new(1), 0);
//! let t2 = TxnId::new(Cycle::new(2), 0);
//! let r = QueryId::new(0);
//!
//! g.add_edge(Node::Txn(t1), Node::Txn(t2)); // server conflict t1 -> t2
//! g.add_edge(Node::Query(r), Node::Txn(t1)); // t1 overwrote something r read
//!
//! // r now wants to read a value written by t2: edge t2 -> r would close
//! // the cycle r -> t1 -> t2 -> r, so the read must be rejected.
//! assert!(g.would_close_cycle(Node::Txn(t2), Node::Query(r)));
//! // and reading from t1 directly closes r -> t1 -> r as well.
//! assert!(g.would_close_cycle(Node::Txn(t1), Node::Query(r)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod diff;
mod graph;
mod node;

pub use diff::GraphDiff;
pub use graph::SerializationGraph;
pub use node::Node;
