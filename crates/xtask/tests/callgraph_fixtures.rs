//! Proves the interprocedural rules (L8–L15) against a fixture workspace
//! with one passing and one violating case per rule, then self-checks the
//! real workspace's contract surfaces: the hot-path set must cover the
//! PR-3 hot functions, the sans-IO surface must cover the protocol core,
//! the protocol-enum and decode-path surfaces must cover the wire
//! vocabulary, and the escape-hatch budget must stay within its pinned
//! ceiling.

use std::path::{Path, PathBuf};

use xtask::{lint_workspace, lint_workspace_report, lint_workspace_report_with_workers, Rule};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("callgraph")
}

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives at <root>/crates/xtask")
        .to_path_buf()
}

/// Every seeded interprocedural violation is reported with its exact
/// rule, file, and line — and the passing twins stay silent.
#[test]
fn fixtures_yield_exact_interprocedural_diagnostics() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let got: Vec<(&str, String, usize)> = diags
        .iter()
        .map(|d| (d.rule.code(), d.file.display().to_string(), d.line))
        .collect();

    let want: Vec<(&str, String, usize)> = [
        // core: the renamed `Instant` import (alias leg) …
        ("L11/taint", "crates/core/src/lib.rs", 6),
        // … and the clock reached through the helper crate (cross-crate leg).
        ("L11/taint", "crates/core/src/lib.rs", 14),
        // decode: `decode_header` reaches a raw index through `peek`;
        // the checked `take_u8` twin is clean.
        ("L14/decode-bounds", "crates/decode/src/lib.rs", 20),
        // hotpath: `feed` allocates one hop away; `probe` is clean.
        ("L8/hot-alloc", "crates/hotpath/src/lib.rs", 15),
        // lockorder: the alpha→beta edge (via the call under the guard)
        // that closes the cycle against backward's beta→alpha.
        ("L10/lock-order", "crates/lockorder/src/lib.rs", 26),
        // mutant: the seeded wildcard arm and unchecked decode index.
        ("L13/state-total", "crates/mutant/src/lib.rs", 23),
        ("L14/decode-bounds", "crates/mutant/src/lib.rs", 30),
        // overflow: unchecked tick arithmetic on both operand shapes;
        // the saturating `advance` twin is clean.
        ("L15/overflow", "crates/overflow/src/lib.rs", 21),
        ("L15/overflow", "crates/overflow/src/lib.rs", 27),
        // panicreach: a hot entry reaching an index one hop away and a
        // non-constant divisor; the checked `probe` twin is clean.
        ("L12/panic-reach", "crates/panicreach/src/lib.rs", 13),
        ("L12/panic-reach", "crates/panicreach/src/lib.rs", 23),
        // sansio: `decode` reaches a clock; `width` is pure.
        ("L9/sans-io", "crates/sansio/src/lib.rs", 14),
        // statetotal: the wildcard arm; the exhaustive `advance` twin is
        // clean.
        ("L13/state-total", "crates/statetotal/src/lib.rs", 29),
    ]
    .into_iter()
    .map(|(r, f, l)| (r, f.to_string(), l))
    .collect();

    assert_eq!(
        got,
        want,
        "diagnostics mismatch; full output:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The seeded determinism mutant (`use std::time::Instant as Stamp;`
/// plus a helper-indirected clock read) evades L2's text match but is
/// caught twice by L11's token-level taint.
#[test]
fn taint_mutant_passes_l2_but_is_caught_by_l11() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let core_diags: Vec<_> = diags
        .iter()
        .filter(|d| d.file.starts_with("crates/core"))
        .collect();
    assert!(
        core_diags.iter().all(|d| d.rule == Rule::Taint),
        "the mutant must evade every rule except L11: {core_diags:?}"
    );
    assert_eq!(core_diags.len(), 2, "both taint legs must fire");
    assert!(
        !core_diags.iter().any(|d| d.rule == Rule::Determinism),
        "L2's text match must NOT see the renamed import"
    );
}

/// Diagnostics carry the resolved call chain and the needle's exact
/// location, so a violation two crates away is still actionable.
#[test]
fn diagnostic_messages_name_the_chain_and_needle() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let msg = |rule: Rule| {
        diags
            .iter()
            .find(|d| d.rule == rule)
            .map(|d| d.message.clone())
            .unwrap_or_default()
    };
    let hot = msg(Rule::HotAlloc);
    assert!(hot.contains("`feed`"), "{hot}");
    assert!(hot.contains("crates/util/src/lib.rs:12"), "{hot}");
    assert!(hot.contains("feed → grow"), "{hot}");

    let sans = msg(Rule::SansIo);
    assert!(sans.contains("`decode`"), "{sans}");
    assert!(sans.contains("`Instant::now`"), "{sans}");
    assert!(sans.contains("decode → stamp_micros"), "{sans}");

    let lock = msg(Rule::LockOrder);
    assert!(
        lock.contains("lockorder/alpha → lockorder/beta → lockorder/alpha"),
        "{lock}"
    );

    let taint = msg(Rule::Taint);
    assert!(taint.contains("`Stamp`"), "{taint}");
    assert!(taint.contains("std::time::Instant"), "{taint}");

    let reach = msg(Rule::PanicReach);
    assert!(reach.contains("`scan`"), "{reach}");
    assert!(reach.contains("crates/panicreach/src/lib.rs:18"), "{reach}");
    assert!(reach.contains("scan → pick"), "{reach}");

    let state = msg(Rule::StateTotal);
    assert!(
        state.contains("`Kind`") || state.contains("`Step`"),
        "{state}"
    );
    assert!(state.contains("hides"), "{state}");

    let decode = msg(Rule::DecodeBounds);
    assert!(decode.contains("`bytes[…]`"), "{decode}");
    assert!(decode.contains("take_*"), "{decode}");

    let overflow = msg(Rule::Overflow);
    assert!(overflow.contains("tick-typed"), "{overflow}");
}

/// The L14 chain enrichment names the decode entry that reaches the raw
/// access, and the L13 message lists exactly the hidden variants.
#[test]
fn dataflow_messages_carry_chains_and_hidden_variants() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let decode = diags
        .iter()
        .find(|d| d.rule == Rule::DecodeBounds && d.file.starts_with("crates/decode"))
        .expect("the decode fixture violation fires");
    assert!(
        decode
            .message
            .contains("(reached from decode entry via decode_header → peek)"),
        "{}",
        decode.message
    );

    let state = diags
        .iter()
        .find(|d| d.rule == Rule::StateTotal && d.file.starts_with("crates/statetotal"))
        .expect("the statetotal fixture violation fires");
    assert!(
        state.message.contains("hides `Reading`, `Done`"),
        "{}",
        state.message
    );
}

/// The seeded mutant (`mutant` fixture crate) is behaviorally identical
/// to its checked twin on every input today's tests feed it — the
/// tier-1-style assertions below pass — yet L13 and L14 catch the
/// latent wildcard arm and unchecked index at their exact lines.
#[test]
fn seeded_mutant_passes_behavioral_tests_but_is_caught_by_l13_and_l14() {
    // Behavioral twins of the mutant's two functions (same bodies the
    // fixture carries), plus the checked variants a fix would install.
    enum Kind {
        Item,
        #[allow(dead_code)]
        Bucket,
    }
    let mutant_width = |kind: &Kind| -> usize {
        match kind {
            Kind::Item => 4,
            _ => 2,
        }
    };
    let checked_width = |kind: &Kind| -> usize {
        match kind {
            Kind::Item => 4,
            Kind::Bucket => 2,
        }
    };
    let mutant_decode = |bytes: &[u8]| -> u8 { bytes[0] };
    let checked_decode = |bytes: &[u8]| -> Option<u8> { bytes.first().copied() };

    // Tier-1-style behavioral assertions: on every valid input the
    // mutant is indistinguishable from the checked twin.
    for kind in [Kind::Item, Kind::Bucket] {
        assert_eq!(mutant_width(&kind), checked_width(&kind));
    }
    for frame in [&[7u8, 1, 2][..], &[0][..]] {
        assert_eq!(Some(mutant_decode(frame)), checked_decode(frame));
    }

    // …and yet the lint pins both latent defects to their exact lines.
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    let mutant: Vec<(Rule, usize)> = diags
        .iter()
        .filter(|d| d.file.starts_with("crates/mutant"))
        .map(|d| (d.rule, d.line))
        .collect();
    assert_eq!(
        mutant,
        [(Rule::StateTotal, 23), (Rule::DecodeBounds, 30)],
        "the mutant must be caught by exactly L13 and L14"
    );
}

/// Restricting to a single rule keeps exactly that rule's findings —
/// the `--rule` contract, checked for each of the four dataflow rules.
#[test]
fn single_rule_filtering_isolates_each_dataflow_rule() {
    let diags = lint_workspace(&fixture_root()).expect("fixture tree lints");
    for (rule, expected) in [
        (Rule::PanicReach, 2),
        (Rule::StateTotal, 2),
        (Rule::DecodeBounds, 2),
        (Rule::Overflow, 2),
    ] {
        let only: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
        assert_eq!(only.len(), expected, "{}: {only:?}", rule.code());
    }
}

/// The per-file pass is order-stable: any worker count yields the
/// byte-identical report (satellite of the parallel read+lex pass).
#[test]
fn worker_count_does_not_change_the_report() {
    let one = lint_workspace_report_with_workers(&fixture_root(), 1).expect("serial pass lints");
    let many = lint_workspace_report_with_workers(&fixture_root(), 7).expect("parallel pass lints");
    let serial: Vec<String> = one.diagnostics.iter().map(|d| d.to_string()).collect();
    let parallel: Vec<String> = many.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(serial, parallel, "diagnostics must not depend on workers");
    assert_eq!(one.files, many.files);
    assert_eq!(one.suppressions, many.suppressions);
    assert_eq!(one.hot_functions, many.hot_functions);
    assert_eq!(one.protocol_enums, many.protocol_enums);
    assert_eq!(one.decode_files, many.decode_files);
    assert_eq!(one.timing.workers, 1);
    assert_eq!(many.timing.workers, 7usize.clamp(1, one.files));
}

/// The workspace hot-path set provably covers the PR-3 hot functions:
/// removing a `hot_path` marker from any of these (e.g. from
/// `SerializationGraph::path_exists`) fails this test.
#[test]
fn hot_path_set_covers_the_pr3_hot_functions() {
    let report = lint_workspace_report(&real_root()).expect("workspace lints");
    const REQUIRED: &[&str] = &[
        // PR-3 SGT hot path (allocation-freedom contract).
        "sgraph::path_exists",
        "sgraph::would_close_cycle",
        "sgraph::remove_query",
        // Per-cycle report probes.
        "broadcast::any_stale",
        "broadcast::any_invalidated",
        "broadcast::matches_in",
        "broadcast::any_entry_matching",
        "broadcast::gallop_to",
        "broadcast::lookup",
        // Broadcast feed decode path: the refill reader and the entry
        // primitives inlined into the decode loops.
        "broadcast::take",
        "broadcast::take_held",
        "broadcast::refill",
        "broadcast::take_u32",
        "broadcast::take_cycle_rel",
        "broadcast::take_txn",
        // PR-9 sans-IO segment framing: the wire-fed feed path.
        "broadcast::from_byte",
        "broadcast::take_opt_txn",
        "broadcast::pop",
        // Monitor report screen: every heard control of an active lane.
        "obs::screen",
        "obs::lookup",
        // Per-read `Bcast` lookups over the dense record / CSR layout.
        "broadcast::current",
        "broadcast::next_slot_of_current",
        "broadcast::occurrences_of",
        "broadcast::old_versions_of",
    ];
    for name in REQUIRED {
        assert!(
            report.hot_functions.iter().any(|h| h == name),
            "`{name}` must carry the hot_path contract; current set: {:?}",
            report.hot_functions
        );
    }
}

/// The sans-IO surface covers the protocol core — the ROADMAP item-1
/// boundary: codec, control information, protocol vocabulary, readsets.
#[test]
fn sans_io_surface_covers_the_protocol_core() {
    let report = lint_workspace_report(&real_root()).expect("workspace lints");
    for file in [
        "crates/broadcast/src/control.rs",
        "crates/broadcast/src/feed.rs",
        "crates/broadcast/src/wire.rs",
        "crates/core/src/protocol.rs",
        "crates/core/src/readset.rs",
        "crates/obs/src/monitor.rs",
    ] {
        assert!(
            report.sans_io_files.iter().any(|f| f == file),
            "`{file}` must declare sans_io; current surface: {:?}",
            report.sans_io_files
        );
    }
}

/// The protocol-enum surface covers the wire vocabulary the L13
/// exhaustiveness contract protects — removing a `protocol_enum` marker
/// from any of these fails this test.
#[test]
fn protocol_enum_surface_covers_the_wire_vocabulary() {
    let report = lint_workspace_report(&real_root()).expect("workspace lints");
    for name in [
        "AbortReason",
        "CacheMode",
        "DecodedSegment",
        "Granularity",
        "Method",
        "MonitorKind",
        "MonitorPolicy",
        "CoverageRule",
        "ProtocolStep",
        "ReadDirective",
        "ReadOutcome",
        "ReadPlan",
        "ReadStep",
        "SegmentKind",
        "Source",
    ] {
        assert!(
            report.protocol_enums.iter().any(|e| e == name),
            "`{name}` must carry the protocol_enum contract; current set: {:?}",
            report.protocol_enums
        );
    }
}

/// The decode-path surface covers the wire codec — the file whose every
/// byte read must go through the checked `take_*` accessors.
#[test]
fn decode_path_surface_covers_the_wire_codec() {
    let report = lint_workspace_report(&real_root()).expect("workspace lints");
    for file in [
        "crates/broadcast/src/wire.rs",
        "crates/broadcast/src/feed.rs",
    ] {
        assert!(
            report.decode_files.iter().any(|f| f == file),
            "`{file}` must declare decode_path; current surface: {:?}",
            report.decode_files
        );
    }
}

/// The escape hatch is a budget, not a loophole: per-rule allow counts
/// in the real workspace must stay under a pinned ceiling. Raising a
/// ceiling is a reviewed decision, not a drive-by.
#[test]
fn suppression_budget_stays_within_ceiling() {
    let report = lint_workspace_report(&real_root()).expect("workspace lints");
    let ceiling = |rule: Rule| -> usize {
        match rule {
            // documented panics on caller bugs (a stale transaction
            // handle, a read before any cycle was heard) and invariants
            // a constructor established. The one wire site is mc's
            // `FeedMode::Wire` round trip — a decode failure on
            // self-encoded bytes IS the bug that mode exists to surface;
            // the simulator's wire-fed clients return it as
            // `BpushError::Internal` instead.
            Rule::Panic => 23,
            Rule::Casts => 1,     // u32 length field in segment framing
            Rule::LockOrder => 1, // name-resolution over-approximation
            // structurally-bounded hot-path indexing (CSR arena slots,
            // galloping-probe brackets) and nonzero-by-construction
            // divisors — each carries its invariant inline.
            Rule::PanicReach => 23,
            _ => 0,
        }
    };
    let mut total = 0;
    for (rule, count) in &report.suppressions {
        total += count;
        assert!(
            *count <= ceiling(*rule),
            "{} has {} allows, over its ceiling of {}",
            rule.code(),
            count,
            ceiling(*rule)
        );
    }
    assert!(total <= 27, "workspace-wide allow budget exceeded: {total}");
}
