//! Exhaustive small-scope model checker for the read-only transaction
//! processing methods of Pitoura & Chrysanthis.
//!
//! The checker enumerates **every** bounded execution within a
//! [`Scope`] — all interleavings of server update-transaction commits,
//! broadcast-cycle boundaries, per-item read positions, client doze
//! intervals, and cache hit/miss choices — and validates each committed
//! query's readset against the serialization-graph criterion of §2.2
//! ([`bpush_core::validator::SerializabilityBatch`]).
//! Violations are shrunk by greedy delta-debugging ([`minimize`]) into
//! deterministic counterexamples serialized in the `mc-schedule v1`
//! text format ([`Schedule::render`]) and replayed by
//! [`run_schedule`] — the regression harness in `tests/mc_replay.rs`
//! replays a checked-in counterexample on every `cargo test`.
//!
//! Small-scope checking complements the per-method conformance battery
//! (`bpush_core::conformance`) and the random workloads of `bpush-sim`:
//! the battery probes protocol *contracts* pointwise, the simulator
//! samples large executions, and the checker proves the absence of
//! serializability violations over an exhaustively covered space of
//! small ones. The seeded [`BrokenInvalidation`] fixture — which passes
//! the conformance battery — demonstrates the checker finds real bugs
//! the other layers miss.
//!
//! Drive it with `cargo xtask mc [--scope ci|default] [--json]`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod broken;
mod checker;
mod exec;
mod ground;
mod minimize;
mod report;
mod schedule;
mod scope;
mod spec;

pub use broken::{BrokenInvalidation, ImpairedSgt, Impairment};
pub use checker::{
    audit_monitors, check_all, check_spec, check_spec_with, McReport, McViolation, MonitorAudit,
};
pub use exec::{
    monitors_for_spec, run_schedule, run_schedule_monitored, run_schedule_with, Execution, FeedMode,
};
pub use minimize::minimize;
pub use report::{render_json, render_text};
pub use schedule::{ReadSpec, Schedule, ScheduleError};
pub use scope::Scope;
pub use spec::ProtocolSpec;

/// FNV-1a over a canonical state string: cheap, deterministic across
/// runs and platforms (unlike `DefaultHasher`, whose output is
/// unspecified), and collision-safe enough for counting distinct states
/// in a space of at most a few million.
pub(crate) fn fnv64(s: &str) -> u64 {
    s.bytes().fold(FNV64_OFFSET, fnv64_byte)
}

/// The FNV-1a 64-bit offset basis: the hash of nothing.
pub(crate) const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step.
fn fnv64_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
}

/// Continues FNV-1a hash `h` over the little-endian bytes of `x`.
pub(crate) fn fnv64_fold(h: u64, x: u64) -> u64 {
    x.to_le_bytes().into_iter().fold(h, fnv64_byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64("foobar"), 0x85944171f73967e8);
    }
}
