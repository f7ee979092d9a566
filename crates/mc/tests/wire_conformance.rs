//! The wire-fed conformance battery (acceptance criterion of the
//! sans-IO refactor): every genuine method, raw and instrumented, run
//! wire-fed and struct-fed over the same bounded executions, must
//! produce identical fates, identical readsets, identical operation
//! counters (including the per-`AbortReason` breakdowns), and
//! byte-identical canonical state hashes. Any encode/decode divergence
//! in the wire codec shows up here as a mismatch.

use bpush_mc::{
    check_spec, check_spec_with, run_schedule, run_schedule_with, FeedMode, ProtocolSpec, ReadSpec,
    Schedule, Scope,
};
use bpush_obs::Obs;
use bpush_types::{Cycle, ItemId};

/// A schedule whose commit script invalidates a read across a cycle
/// boundary — the minimal execution that makes every report kind
/// (invalidation, and on SGT servers the augmented report and graph
/// diff) carry real content over the wire.
fn boundary_schedule() -> Schedule {
    Schedule {
        items: 2,
        versions: 2,
        cycles: 2,
        commits: vec![vec![vec![ItemId::new(0), ItemId::new(1)]]],
        missed: Vec::new(),
        begin: Cycle::ZERO,
        reads: vec![
            ReadSpec {
                item: ItemId::new(0),
                cycle: Cycle::ZERO,
                from_cache: false,
            },
            ReadSpec {
                item: ItemId::new(1),
                cycle: Cycle::new(1),
                from_cache: false,
            },
        ],
    }
}

/// A longer schedule with a missed cycle, so disconnection handling and
/// multi-cycle report windows also cross the wire.
fn doze_schedule() -> Schedule {
    Schedule {
        items: 2,
        versions: 2,
        cycles: 3,
        commits: vec![vec![vec![ItemId::new(0)]], vec![vec![ItemId::new(1)]]],
        missed: vec![Cycle::new(1)],
        begin: Cycle::ZERO,
        reads: vec![
            ReadSpec {
                item: ItemId::new(0),
                cycle: Cycle::ZERO,
                from_cache: false,
            },
            ReadSpec {
                item: ItemId::new(1),
                cycle: Cycle::new(2),
                from_cache: false,
            },
        ],
    }
}

/// Raw protocols: wire-fed replays are bit-identical to struct-fed
/// replays for every genuine method on every probe schedule.
#[test]
fn wire_fed_replays_are_bit_identical_raw() {
    for schedule in [boundary_schedule(), doze_schedule()] {
        for spec in ProtocolSpec::genuine() {
            let struct_fed = run_schedule(spec, &schedule).unwrap();
            let wire_fed = run_schedule_with(spec, &schedule, &Obs::off(), FeedMode::Wire).unwrap();
            assert_eq!(struct_fed.committed, wire_fed.committed, "{spec}");
            assert_eq!(struct_fed.abort, wire_fed.abort, "{spec}");
            assert_eq!(struct_fed.reads, wire_fed.reads, "{spec}");
            assert_eq!(
                struct_fed.state_hashes, wire_fed.state_hashes,
                "{spec}: the wire perturbed the canonical state hashes"
            );
        }
    }
}

/// Instrumented protocols: the full event-derived counter set —
/// including the per-`AbortReason` dimensions — matches between the
/// wire-fed and struct-fed runs, and the hashes still agree.
#[test]
fn wire_fed_replays_are_bit_identical_instrumented() {
    for schedule in [boundary_schedule(), doze_schedule()] {
        for spec in ProtocolSpec::genuine() {
            let obs_a = Obs::recording(1 << 12);
            let obs_b = Obs::recording(1 << 12);
            let struct_fed = run_schedule_with(spec, &schedule, &obs_a, FeedMode::Struct).unwrap();
            let wire_fed = run_schedule_with(spec, &schedule, &obs_b, FeedMode::Wire).unwrap();
            assert_eq!(struct_fed.committed, wire_fed.committed, "{spec}");
            assert_eq!(struct_fed.abort, wire_fed.abort, "{spec}");
            assert_eq!(struct_fed.state_hashes, wire_fed.state_hashes, "{spec}");
            let snap_a = obs_a.snapshot().expect("recording");
            let snap_b = obs_b.snapshot().expect("recording");
            assert_eq!(
                snap_a.counters, snap_b.counters,
                "{spec}: wire-fed counters diverged"
            );
        }
    }
}

/// The exhaustive check itself runs wire-fed: for every genuine method
/// the whole ci-scope report — executions, committed/aborted split,
/// distinct canonical states, dedup count, verdict — is bit-identical
/// to the struct-fed check. `distinct_states` equality is the strong
/// claim: the two modes explored exactly the same canonical state sets.
#[test]
fn ci_scope_exhaustive_check_is_feed_invariant() {
    for spec in ProtocolSpec::genuine() {
        let struct_fed = check_spec(spec, &Scope::ci()).unwrap();
        let wire_fed = check_spec_with(spec, &Scope::ci(), &Obs::off(), FeedMode::Wire).unwrap();
        assert_eq!(struct_fed.executions, wire_fed.executions, "{spec}");
        assert_eq!(struct_fed.committed, wire_fed.committed, "{spec}");
        assert_eq!(struct_fed.aborted, wire_fed.aborted, "{spec}");
        assert_eq!(
            struct_fed.distinct_states, wire_fed.distinct_states,
            "{spec}: wire-fed exploration reached different states"
        );
        assert_eq!(
            struct_fed.deduped_validations, wire_fed.deduped_validations,
            "{spec}"
        );
        assert_eq!(struct_fed.passed(), wire_fed.passed(), "{spec}");
    }
}

/// The seeded bug is still found wire-fed: transporting reports over
/// the wire must not mask genuine protocol defects.
#[test]
fn wire_fed_checker_still_catches_the_broken_fixture() {
    let report = check_spec_with(
        ProtocolSpec::BrokenInvalidation,
        &Scope::ci(),
        &Obs::off(),
        FeedMode::Wire,
    )
    .unwrap();
    assert!(
        report.violation.is_some(),
        "the seeded bug must be found wire-fed too"
    );
}
