//! Differential property test for cohort validation: a cohort of
//! queries validated together inside one protocol instance (one
//! `on_control` pass over every active readset, one shared
//! `last_heard`, and for SGT one shared graph) must produce the same
//! directives, outcomes, and [`AbortReason`](bpush_core::AbortReason)
//! counters as the same queries driven one per instance. Every variant
//! of the three report-probing methods is covered, SGT both with and
//! without augmented reports.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use std::collections::BTreeMap;

use proptest::prelude::*;

use bpush_broadcast::{AugmentedReport, ControlInfo, InvalidationReport};
use bpush_core::{
    InvalidationOnly, MultiversionCaching, ReadCandidate, ReadDirective, ReadOnlyProtocol,
    ReadOutcome, Sgt, SgtConfig, Source,
};
use bpush_types::{Cycle, Granularity, ItemId, ItemValue, QueryId, TxnId};

/// One random client script: a fixed cohort of queries all begun at
/// cycle 0, each with dated reads and an optional finish cycle, heard
/// against a shared stream of (possibly missed) invalidation reports.
#[derive(Debug, Clone)]
struct Script {
    /// Per query: `(cycle, item)` reads, nondecreasing in cycle.
    reads: Vec<Vec<(u64, u32)>>,
    /// Per query: the cycle at whose start it finishes, if any.
    finish: Vec<Option<u64>>,
    /// Per cycle `1..=CYCLES`: `(heard, updated items)`.
    reports: Vec<(bool, Vec<u32>)>,
}

const CYCLES: u64 = 6;

fn script() -> impl Strategy<Value = Script> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u64..CYCLES, 0u32..40), 0..6).prop_map(|mut v| {
                v.sort_unstable();
                v
            }),
            1..4,
        ),
        // one finish slot per possible query (surplus sliced off below)
        proptest::collection::vec(
            (proptest::bool::ANY, 1u64..CYCLES + 1)
                .prop_map(|(some, c)| if some { Some(c) } else { None }),
            4..5,
        ),
        proptest::collection::vec(
            (
                proptest::bool::weighted(0.85),
                proptest::collection::vec(0u32..40, 0..6),
            ),
            (CYCLES as usize)..(CYCLES as usize + 1),
        ),
    )
        .prop_map(|(reads, finish, reports)| {
            let n = reads.len();
            Script {
                finish: finish[..n].to_vec(),
                reads,
                reports,
            }
        })
}

fn current_candidate() -> ReadCandidate {
    let value = ItemValue::initial();
    ReadCandidate {
        value,
        last_writer_tag: value.writer(),
        valid_from: Cycle::ZERO,
        valid_until: None,
        source: Source::BroadcastCurrent,
    }
}

fn ctrl(cycle: u64, items: &[u32], augmented: bool) -> ControlInfo {
    let c = Cycle::new(cycle);
    let aug = augmented.then(|| {
        let prev = c.checked_sub(1).unwrap_or(Cycle::ZERO);
        AugmentedReport::new(
            prev,
            items.iter().map(|&i| (ItemId::new(i), TxnId::new(prev, 0))),
        )
    });
    ControlInfo::new(
        c,
        InvalidationReport::new(
            c,
            1,
            items.iter().map(|&i| ItemId::new(i)),
            Granularity::Item,
            1,
        ),
        aug,
        None,
    )
}

/// Per-query observable log plus the tally of every abort reason seen
/// in a directive or outcome.
type Observed = (Vec<Vec<String>>, BTreeMap<String, usize>);

/// A protocol-instance factory paired with its name and whether it
/// consumes augmented reports.
type MethodCase = (
    &'static str,
    bool,
    Box<dyn Fn() -> Box<dyn ReadOnlyProtocol>>,
);

/// Drives `queries` (cohort mode: all in one instance; isolated mode:
/// one instance each) through the script, logging every directive and
/// outcome per query, plus one end-of-cycle directive probe so doomed
/// transitions are observed even without a read that cycle.
fn drive(
    factory: &dyn Fn() -> Box<dyn ReadOnlyProtocol>,
    s: &Script,
    augmented: bool,
    cohort: bool,
) -> Observed {
    let n = s.reads.len();
    let mut instances: Vec<Box<dyn ReadOnlyProtocol>> = if cohort {
        vec![factory()]
    } else {
        (0..n).map(|_| factory()).collect()
    };
    let of = |q: usize| if cohort { 0 } else { q };
    let mut logs = vec![Vec::new(); n];
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    let mut active = vec![true; n];
    for q in 0..n {
        instances[of(q)].begin_query(QueryId::new(q as u64), Cycle::ZERO);
    }
    for now in 0..=CYCLES {
        if now > 0 {
            let (heard, items) = &s.reports[(now - 1) as usize];
            for p in &mut instances {
                if *heard {
                    p.on_control(&ctrl(now, items, augmented));
                } else {
                    p.on_missed_cycle(Cycle::new(now));
                }
            }
        }
        for q in 0..n {
            if !active[q] {
                continue;
            }
            let qid = QueryId::new(q as u64);
            for &(rc, item) in &s.reads[q] {
                if rc != now {
                    continue;
                }
                let d = instances[of(q)].read_directive(qid, ItemId::new(item), Cycle::new(now));
                logs[q].push(format!("{now} {item} {d:?}"));
                if let ReadDirective::Doom(r) = d {
                    *reasons.entry(format!("{r:?}")).or_default() += 1;
                    continue;
                }
                let o = instances[of(q)].apply_read(
                    qid,
                    ItemId::new(item),
                    &current_candidate(),
                    Cycle::new(now),
                );
                logs[q].push(format!("{now} {item} {o:?}"));
                if let ReadOutcome::Rejected(r) = o {
                    *reasons.entry(format!("{r:?}")).or_default() += 1;
                }
            }
            // end-of-cycle probe: observe doomed/pinned state transitions
            let d = instances[of(q)].read_directive(qid, ItemId::new(99), Cycle::new(now));
            logs[q].push(format!("{now} probe {d:?}"));
            if let ReadDirective::Doom(r) = d {
                *reasons.entry(format!("{r:?}")).or_default() += 1;
            }
            if s.finish[q] == Some(now) {
                instances[of(q)].finish_query(qid);
                active[q] = false;
            }
        }
    }
    (logs, reasons)
}

proptest! {
    /// Driving a cohort of queries through one protocol instance
    /// observes exactly the same directives, outcomes, and abort-reason
    /// counters as driving each query in its own instance.
    #[test]
    fn cohort_validation_matches_isolated_queries(s in script()) {
        let methods: Vec<MethodCase> = vec![
            ("inv-only", false, Box::new(|| Box::new(InvalidationOnly::new()) as _)),
            ("inv-versioned", false, Box::new(|| {
                Box::new(InvalidationOnly::with_versioned_cache()) as _
            })),
            ("inv-strict-versioned", false, Box::new(|| {
                Box::new(InvalidationOnly::with_strict_versioned_cache()) as _
            })),
            ("mv-caching", false, Box::new(|| Box::new(MultiversionCaching::new()) as _)),
            ("mv-caching-strict", false, Box::new(|| {
                Box::new(MultiversionCaching::strict()) as _
            })),
            ("sgt", true, Box::new(|| Box::new(Sgt::new(SgtConfig::default())) as _)),
            // a server that airs no SGT information: the invalidation
            // report alone dooms every query it names
            ("sgt-without-augmented", false, Box::new(|| {
                Box::new(Sgt::new(SgtConfig::default())) as _
            })),
        ];
        for (name, augmented, factory) in &methods {
            let (cohort_logs, cohort_reasons) = drive(factory, &s, *augmented, true);
            let (iso_logs, iso_reasons) = drive(factory, &s, *augmented, false);
            prop_assert_eq!(&cohort_logs, &iso_logs, "{}: logs diverge", name);
            prop_assert_eq!(
                &cohort_reasons, &iso_reasons,
                "{}: abort-reason counters diverge", name
            );
        }
    }
}
