//! Pins the model checker's explored states, not just their count.
//!
//! `McReport::distinct_states` is what `mc --scope ci --json` prints; two
//! runs can agree on it and still have walked different states. Each
//! genuine method's `state_digest` folds every canonical per-cycle state
//! hash of a scope — the database version vector and the protocol's
//! debug snapshot, which for SGT includes its serialization graph's
//! `Debug` text — into one FNV-1a digest, struct-fed and wire-fed. A
//! change to what any protocol state prints, or to which states a run
//! reaches, moves a digest.
//!
//! The ci scope (two cycles, one transaction each) never gives a graph
//! node two successors, so it cannot see their order; the same scope one
//! cycle longer can, and costs a fifth of a second more.

#![allow(clippy::unwrap_used)]

use bpush_mc::{check_spec_with, FeedMode, ProtocolSpec, Scope};

/// The digests in `ProtocolSpec::genuine()` order, computed at the commit
/// before the SGT graph's transactions moved into per-cycle slots; that
/// change left every protocol's states as they were.
const CI: &[(&str, u64)] = &[
    ("inv-only", 0xc985_a738_13e8_aef4),
    ("inv+cache", 0xac1b_505b_73a4_24b5),
    ("inv+vcache", 0x20bd_4047_f292_82b5),
    ("multiversion", 0x3435_7f14_7d18_36b7),
    ("sgt", 0x611a_c99e_e451_d7c9),
    ("sgt+cache", 0x0980_515f_e5ee_b43d),
    ("mv-caching", 0x40d4_3a76_f0f0_4b9d),
    ("sgt+versions", 0xdbda_4538_c167_0ed5),
];

/// The same, for the ci scope with three cycles.
const CI_THREE_CYCLES: &[(&str, u64)] = &[
    ("inv-only", 0x027b_c4f5_6755_88e1),
    ("inv+cache", 0xa1b8_f415_bac7_99b5),
    ("inv+vcache", 0xcd7a_0738_7aaa_d691),
    ("multiversion", 0xbf00_c1e5_4c90_ec0f),
    ("sgt", 0x6737_b351_5613_2f7d),
    ("sgt+cache", 0x27b0_d738_7dd1_b505),
    ("mv-caching", 0x508f_a8b4_6e76_999d),
    ("sgt+versions", 0xb215_c2de_df69_9e7f),
];

/// Every genuine method's digest at `scope`, after checking that the
/// wire-fed run reaches exactly the struct-fed run's states.
fn digests(scope: &Scope) -> Vec<(&'static str, u64)> {
    let off = bpush_obs::Obs::off();
    ProtocolSpec::genuine()
        .into_iter()
        .map(|spec| {
            let by_struct = check_spec_with(spec, scope, &off, FeedMode::Struct).unwrap();
            let by_wire = check_spec_with(spec, scope, &off, FeedMode::Wire).unwrap();
            assert_eq!(
                by_wire.state_digest, by_struct.state_digest,
                "{spec}: wire-fed states differ from struct-fed ones"
            );
            (spec.name(), by_struct.state_digest)
        })
        .collect()
}

#[test]
fn ci_scope_state_digests_are_pinned() {
    for (scope, pinned) in [
        (Scope::ci(), CI),
        (
            Scope {
                cycles: 3,
                ..Scope::ci()
            },
            CI_THREE_CYCLES,
        ),
    ] {
        let got = digests(&scope);
        let rendered: Vec<String> = got
            .iter()
            .map(|(name, d)| format!("(\"{name}\", 0x{d:016x}),"))
            .collect();
        assert_eq!(
            got, pinned,
            "{} cycles: state digests moved; now {rendered:#?}",
            scope.cycles
        );
    }
}
