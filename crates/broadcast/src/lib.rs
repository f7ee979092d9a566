//! The broadcast-medium substrate of the `bpush` suite.
//!
//! §2.1 of *Pitoura & Chrysanthis 1999* models the push channel as a
//! periodic sequence of **buckets** (the disk-block analog): each
//! broadcast cycle ("bcycle") transmits a **bcast** consisting of control
//! information followed by the database content, organized by one of
//! several schemes:
//!
//! * [`organization::Flat`] — every item once per cycle, fixed positions
//!   (the paper's evaluation default),
//! * [`organization::MultiversionClustered`] — all retained versions of an
//!   item broadcast successively (Figure 2a); positions shift each cycle
//!   so a fresh [`Directory`] is broadcast and read,
//! * [`organization::MultiversionOverflow`] — fixed positions plus
//!   overflow buckets holding old versions at the end of the bcast
//!   (Figure 2b),
//! * [`organization::BroadcastDisks`] — the §7 broadcast-disk extension
//!   where hot items appear multiple times per major cycle.
//!
//! The crate also carries the **control information** the protocols need
//! ([`control`]) and the **analytic size model** of §3 used to regenerate
//! Figure 7 ([`size_model`]).
//!
//! Time is measured in [`bpush_types::Slot`]s: transmitting one bucket
//! takes one slot, and all latency accounting downstream counts slots.
//!
//! # Example
//!
//! ```
//! use bpush_broadcast::organization::Flat;
//! use bpush_broadcast::{Bcast, ControlInfo, ItemRecord};
//! use bpush_types::{Cycle, ItemId, ItemValue};
//!
//! let records: Vec<ItemRecord> = (0..10)
//!     .map(|i| ItemRecord::new(ItemId::new(i), ItemValue::initial(), None))
//!     .collect();
//! let bcast = Flat::new(1).assemble(Cycle::ZERO, ControlInfo::empty(Cycle::ZERO), records);
//! assert_eq!(bcast.data_slots(), 10);
//! let slot = bcast.slot_of_current(ItemId::new(3)).expect("item on air");
//! assert!(slot >= bcast.control_slots());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bcast;
mod bucket;
pub mod control;
mod directory;
pub mod feed;
pub mod organization;
pub mod size_model;
pub mod wire;

pub use bcast::{Bcast, RecordColumn};
pub use bucket::{Bucket, BucketHeader, ItemRecord, OldVersion};
pub use control::{AugmentedReport, ControlInfo, InvalidationReport};
pub use directory::Directory;
