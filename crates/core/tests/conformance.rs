//! Runs every `ReadOnlyProtocol` implementation through the conformance
//! battery — both raw and wrapped in [`Instrumented`] — and proves the
//! wrapper is behaviorally transparent.
//!
//! This file is also the evidence `cargo xtask lint` (rule
//! `L4/conformance`) scans for: it names each implementing type —
//! `InvalidationOnly`, `MultiversionBroadcast`, `Sgt`,
//! `MultiversionCaching`, `Instrumented` — next to the battery that
//! exercises it.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use bpush_broadcast::{ControlInfo, InvalidationReport};
use bpush_core::conformance;
use bpush_core::instrument::Instrumented;
use bpush_core::{
    InvalidationOnly, Method, MultiversionBroadcast, MultiversionCaching, ReadCandidate,
    ReadDirective, ReadOnlyProtocol, Sgt, SgtConfig, Source,
};
use bpush_types::{Cycle, Granularity, ItemId, ItemValue, QueryId, TxnId};

/// Asserts the battery finds nothing to complain about.
fn assert_conformant(label: &str, factory: &dyn Fn() -> Box<dyn ReadOnlyProtocol>) {
    let violations = conformance::check(factory);
    assert!(
        violations.is_empty(),
        "{label} failed the conformance battery:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn invalidation_only_conforms() {
    assert_conformant("InvalidationOnly", &|| Box::new(InvalidationOnly::new()));
    assert_conformant("InvalidationOnly (versioned cache)", &|| {
        Box::new(InvalidationOnly::with_versioned_cache())
    });
}

#[test]
fn multiversion_broadcast_conforms() {
    assert_conformant("MultiversionBroadcast", &|| {
        Box::new(MultiversionBroadcast::new())
    });
}

#[test]
fn sgt_conforms() {
    assert_conformant("Sgt", &|| Box::new(Sgt::new(SgtConfig::default())));
    assert_conformant("Sgt (cache)", &|| {
        Box::new(Sgt::new(SgtConfig {
            use_cache: true,
            ..SgtConfig::default()
        }))
    });
}

#[test]
fn multiversion_caching_conforms() {
    assert_conformant("MultiversionCaching", &|| {
        Box::new(MultiversionCaching::new())
    });
}

/// `SgtVersionedItems` is not part of `Method::ALL` (it is the §5.2.2
/// disconnection enhancement of SGT with per-item version numbers), so
/// it needs explicit coverage — raw and wrapped.
#[test]
fn sgt_versioned_items_conforms() {
    let m = Method::SgtVersionedItems;
    assert_conformant(m.name(), &|| m.build_protocol());
    assert_conformant(&format!("Instrumented<{}>", m.name()), &|| {
        Box::new(Instrumented::new(m.build_protocol()))
    });
}

#[test]
fn every_method_conforms() {
    for method in Method::ALL {
        assert_conformant(method.name(), &|| method.build_protocol());
    }
}

/// The battery must be unable to tell an `Instrumented`-wrapped protocol
/// from the raw one, for every method.
#[test]
fn every_method_conforms_under_instrumentation() {
    for method in Method::ALL {
        assert_conformant(&format!("Instrumented<{}>", method.name()), &|| {
            Box::new(Instrumented::new(method.build_protocol()))
        });
    }
}

/// Wrapping must compose: two layers of instrumentation still conform.
#[test]
fn double_instrumentation_conforms() {
    for method in Method::ALL {
        assert_conformant(&format!("Instrumented^2<{}>", method.name()), &|| {
            Box::new(Instrumented::new(Box::new(Instrumented::new(
                method.build_protocol(),
            ))))
        });
    }
}

fn report_ctrl(cycle: u64, items: &[u32]) -> ControlInfo {
    let c = Cycle::new(cycle);
    ControlInfo::new(
        c,
        InvalidationReport::new(
            c,
            1,
            items.iter().map(|&i| ItemId::new(i)),
            Granularity::Item,
            1,
        ),
        None,
        None,
    )
}

fn candidate(version_cycle: Option<u64>) -> ReadCandidate {
    let value = match version_cycle {
        None => ItemValue::initial(),
        Some(c) => ItemValue::written_by(TxnId::new(Cycle::new(c), 0)),
    };
    ReadCandidate {
        value,
        last_writer_tag: value.writer(),
        valid_from: value.version(),
        valid_until: None,
        source: Source::BroadcastCurrent,
    }
}

/// Drives a protocol through a fixed script and logs every observable
/// output (name, directives, outcomes) as strings for comparison.
fn drive(p: &mut dyn ReadOnlyProtocol) -> Vec<String> {
    let mut log = vec![p.name().to_string(), format!("{:?}", p.cache_mode())];
    p.on_control(&report_ctrl(0, &[]));
    let q = QueryId::new(0);
    p.begin_query(q, Cycle::new(0));
    let d0 = p.read_directive(q, ItemId::new(1), Cycle::new(0));
    log.push(format!("{d0:?}"));
    let o0 = p.apply_read(q, ItemId::new(1), &candidate(None), Cycle::new(0));
    log.push(format!("{o0:?}"));
    // Next cycle invalidates item 1 (already read) and item 2.
    p.on_control(&report_ctrl(1, &[1, 2]));
    let d1 = p.read_directive(q, ItemId::new(2), Cycle::new(1));
    log.push(format!("{d1:?}"));
    if let ReadDirective::Read(_) = d1 {
        let o1 = p.apply_read(q, ItemId::new(2), &candidate(Some(1)), Cycle::new(1));
        log.push(format!("{o1:?}"));
    }
    p.finish_query(q);
    // A disconnection, then a fresh query to show state was released.
    p.on_missed_cycle(Cycle::new(2));
    p.on_control(&report_ctrl(3, &[]));
    let q2 = QueryId::new(1);
    p.begin_query(q2, Cycle::new(3));
    let d2 = p.read_directive(q2, ItemId::new(5), Cycle::new(3));
    log.push(format!("{d2:?}"));
    p.finish_query(q2);
    log
}

/// For every method, the scripted observable behavior of the raw protocol
/// and of its `Instrumented` wrapper must be identical.
#[test]
fn instrumentation_is_transparent() {
    for method in Method::ALL {
        let mut raw = method.build_protocol();
        let raw_log = drive(raw.as_mut());

        let mut wrapped = Instrumented::new(method.build_protocol());
        let wrapped_log = drive(&mut wrapped);

        assert_eq!(
            raw_log,
            wrapped_log,
            "Instrumented changed observable behavior of {}",
            method.name()
        );
    }
}

/// The wrapper's counters must reflect exactly the calls the script made.
#[test]
fn instrumentation_counts_calls() {
    let mut wrapped = Instrumented::new(Method::InvalidationOnly.build_protocol());
    let log = drive(&mut wrapped);
    let stats = wrapped.stats();
    assert_eq!(stats.controls, 3, "script hears 3 control segments");
    assert_eq!(stats.missed_cycles, 1, "script misses 1 cycle");
    assert_eq!(stats.queries, 2, "script begins 2 queries");
    // Every apply_read lands in accepts or rejects; the script applies at
    // least one and logged each outcome.
    let applies = log
        .iter()
        .filter(|l| l.contains("Accepted") || l.contains("Rejected"))
        .count();
    assert_eq!(
        stats.accepts + stats.rejects,
        applies as u64,
        "accepts + rejects must equal applied reads"
    );
    // The inner protocol survives unwrap.
    let inner = wrapped.into_inner();
    assert_eq!(inner.name(), "inv-only");
}
