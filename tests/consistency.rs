//! The master invariant, across every method and a wide configuration
//! space: **no committed read-only transaction ever observes an
//! inconsistent database state** (§2.2) — whatever the granularity,
//! layout, report window, cache size or disconnection pattern.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use bpush_core::Method;
use bpush_sim::Simulation;
use bpush_types::config::MultiversionLayout;
use bpush_types::{CacheConfig, ClientConfig, Granularity, ServerConfig, SimConfig};

fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        server: ServerConfig {
            broadcast_size: 200,
            update_range: 100,
            server_read_range: 200,
            updates_per_cycle: 15,
            txns_per_cycle: 5,
            offset: 20,
            versions_retained: 6,
            ..ServerConfig::default()
        },
        client: ClientConfig {
            read_range: 100,
            reads_per_query: 6,
            cache: CacheConfig {
                capacity: 30,
                ..CacheConfig::default()
            },
            ..ClientConfig::default()
        },
        n_clients: 3,
        queries_per_client: 12,
        warmup_cycles: 2,
        max_cycles: 50_000,
        seed,
    }
}

fn assert_clean(config: SimConfig, method: Method, layout: MultiversionLayout, label: &str) {
    let metrics = Simulation::with_layout(config, method, layout)
        .unwrap_or_else(|e| panic!("{label}: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        metrics.violations, 0,
        "{label}: {} committed readsets violated serializability",
        metrics.violations
    );
    assert!(metrics.queries > 0, "{label}: no queries measured");
}

#[test]
fn all_methods_default_config() {
    for method in Method::ALL {
        assert_clean(
            base_config(1),
            method,
            MultiversionLayout::Overflow,
            method.name(),
        );
    }
}

/// The end-of-run audit against the criterion, on real runs: for one
/// method of each family at quick scale, every committed readset gets
/// the same verdict from [`SerializabilityBatch`] and from the §2.2
/// criterion written out over `path_exists` — some first overwriter of a
/// value read is, or reaches, the writer of a value read — over the
/// history and conflict graph of a server replayed from the same seed for
/// the same number of cycles, and the run itself reports no violation.
/// `Simulation` hands the batch only the readsets the interval check
/// rejects: every readset of the three snapshot methods passes that
/// check, and some SGT readset fails it, so the batch leg runs.
#[test]
fn audit_verdicts_match_the_criterion() {
    use bpush_core::validator::{SerializabilityBatch, SerializabilityValidator};
    use bpush_sgraph::Node;
    for method in [
        Method::InvalidationOnly,
        Method::MultiversionBroadcast,
        Method::Sgt,
        Method::MultiversionCaching,
    ] {
        let config =
            bpush_sim::experiments::config_for(method, bpush_sim::experiments::quick_defaults());
        let mut committed = Vec::new();
        let metrics = Simulation::new(config.clone(), method)
            .unwrap()
            .run_with_observer(|o| {
                if o.committed() {
                    committed.push(o.reads.clone());
                }
            })
            .unwrap();
        assert_eq!(metrics.violations, 0, "{method}");
        assert!(!committed.is_empty(), "{method}: nothing to audit");

        // the server is a pure function of its seed: replay it
        let mut server = bpush_server::BroadcastServer::new(
            config.server.clone(),
            method.server_options(MultiversionLayout::Overflow),
            bpush_types::seed::SeedSequence::new(config.seed).derive(&["server"]),
        )
        .unwrap();
        for _ in 0..metrics.cycles {
            server.run_cycle();
        }
        let (history, graph) = (server.history(), server.conflict_graph());
        let mut batch = SerializabilityBatch::new(history, graph);
        let interval = SerializabilityValidator::new(history);
        let mut interval_rejects = 0;
        for reads in &committed {
            let writers = || reads.iter().filter_map(|r| r.value.writer());
            let violates = reads
                .iter()
                .filter_map(|r| history.next_overwrite(r.item, r.value)?.writer())
                .any(|o| {
                    writers().any(|w| o == w || graph.path_exists(Node::Txn(o), Node::Txn(w)))
                });
            assert_eq!(batch.check(reads).is_ok(), !violates, "{method}: {reads:?}");
            assert!(!violates, "{method}: {reads:?}");
            if interval.check(reads).is_err() {
                interval_rejects += 1;
            }
        }
        if method == Method::Sgt {
            assert!(interval_rejects > 0, "{method}: the batch leg never ran");
        } else {
            assert_eq!(interval_rejects, 0, "{method}: a snapshot readset is torn");
        }
    }
}

#[test]
fn multiversion_clustered_layout() {
    assert_clean(
        base_config(2),
        Method::MultiversionBroadcast,
        MultiversionLayout::Clustered,
        "multiversion/clustered",
    );
}

#[test]
fn bucket_granularity_is_conservative_not_wrong() {
    for method in [
        Method::InvalidationOnly,
        Method::InvalidationCache,
        Method::InvalidationVersionedCache,
        Method::MultiversionCaching,
    ] {
        let mut cfg = base_config(3);
        cfg.server.granularity = Granularity::Bucket;
        cfg.server.items_per_bucket = 5;
        assert_clean(
            cfg,
            method,
            MultiversionLayout::Overflow,
            &format!("{}/bucket-granularity", method.name()),
        );
    }
}

#[test]
fn windowed_reports_stay_consistent() {
    for window in [2u32, 4] {
        for method in [
            Method::InvalidationOnly,
            Method::InvalidationVersionedCache,
            Method::Sgt,
            Method::MultiversionCaching,
        ] {
            let mut cfg = base_config(4);
            cfg.server.report_window = window;
            assert_clean(
                cfg,
                method,
                MultiversionLayout::Overflow,
                &format!("{}/window-{window}", method.name()),
            );
        }
    }
}

#[test]
fn disconnections_never_break_consistency() {
    for method in Method::ALL {
        let mut cfg = base_config(5);
        cfg.client.disconnect_prob = 0.3;
        cfg.server.versions_retained = 16;
        assert_clean(
            cfg,
            method,
            MultiversionLayout::Overflow,
            &format!("{}/disconnect", method.name()),
        );
    }
    // the versioned-items SGT variant under heavy gaps
    let mut cfg = base_config(6);
    cfg.client.disconnect_prob = 0.4;
    assert_clean(
        cfg,
        Method::SgtVersionedItems,
        MultiversionLayout::Overflow,
        "sgt+versions/disconnect",
    );
}

#[test]
fn tiny_caches_and_huge_queries() {
    let mut cfg = base_config(7);
    cfg.client.cache.capacity = 3;
    cfg.client.reads_per_query = 20;
    cfg.server.versions_retained = 48;
    for method in Method::ALL {
        assert_clean(
            cfg.clone(),
            method,
            MultiversionLayout::Overflow,
            &format!("{}/tiny-cache", method.name()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Randomized configurations: any method, any update volume, offset,
    /// query size, cache size, disconnect rate, window and granularity —
    /// committed readsets are always consistent.
    #[test]
    fn randomized_configurations_stay_consistent(
        seed in 0u64..1000,
        method_idx in 0usize..Method::ALL.len(),
        updates in 5u32..60,
        offset in 0u32..100,
        reads in 2u32..12,
        cache in 0u32..40,
        disconnect in 0u32..4,
        window in 1u32..4,
        bucket_grain in proptest::bool::ANY,
    ) {
        let method = Method::ALL[method_idx];
        let mut cfg = base_config(seed);
        cfg.server.updates_per_cycle = updates;
        cfg.server.offset = offset;
        cfg.server.report_window = window;
        cfg.server.versions_retained = 4 * reads + 8;
        if bucket_grain {
            cfg.server.granularity = Granularity::Bucket;
            cfg.server.items_per_bucket = 4;
        }
        cfg.client.reads_per_query = reads;
        cfg.client.cache.capacity = cache;
        cfg.client.disconnect_prob = f64::from(disconnect) * 0.1;
        cfg.n_clients = 2;
        cfg.queries_per_client = 8;

        let metrics = Simulation::new(cfg, method)
            .expect("valid config")
            .run()
            .expect("run completes");
        prop_assert_eq!(metrics.violations, 0, "{} violated consistency", method);
    }
}
