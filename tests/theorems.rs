//! Executable forms of the paper's Theorems 1–5: not just "consistent",
//! but consistent with exactly the *currency* each method promises
//! (Table 1's currency column).

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use bpush_client::{CacheParams, ClientCache, QueryExecutor, QueryOutcome};
use bpush_core::validator::{SerializabilityBatch, SerializabilityValidator};
use bpush_core::{CacheMode, Method};
use bpush_server::{BroadcastServer, ServerOptions};
use bpush_types::config::MultiversionLayout;
use bpush_types::{ClientConfig, ClientId, Cycle, ItemValue, ServerConfig, Slot};

fn server_config() -> ServerConfig {
    ServerConfig {
        broadcast_size: 150,
        update_range: 80,
        server_read_range: 150,
        updates_per_cycle: 12,
        txns_per_cycle: 4,
        offset: 0, // maximum overlap: plenty of invalidations to exercise
        versions_retained: 40,
        ..ServerConfig::default()
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        read_range: 80,
        reads_per_query: 6,
        think_time: 2,
        ..ClientConfig::default()
    }
}

/// Runs `budget` queries of `method` against a fresh server; returns the
/// outcomes and the server for ground-truth inspection.
fn run_method(method: Method, budget: u32, seed: u64) -> (Vec<QueryOutcome>, BroadcastServer) {
    let mut server = BroadcastServer::new(
        server_config(),
        method.server_options(MultiversionLayout::Overflow),
        seed,
    )
    .unwrap();
    let cache = match method.cache_mode() {
        CacheMode::None => None,
        mode => Some(ClientCache::new(CacheParams {
            mode,
            current_capacity: 25,
            old_capacity: if mode == CacheMode::Multiversion {
                15
            } else {
                0
            },
            items_per_bucket: 1,
        })),
    };
    let mut client = QueryExecutor::new(
        ClientId::new(0),
        client_config(),
        method.build_protocol(),
        cache,
        budget,
        seed ^ 0xABCD,
    )
    .unwrap();
    let mut outcomes = Vec::new();
    let mut start = Slot::ZERO;
    while !client.is_done() {
        let bcast = server.run_cycle();
        outcomes.extend(client.run_cycle(&bcast, start, true).unwrap());
        start = start.plus(bcast.total_slots());
    }
    (outcomes, server)
}

/// Whether `value` of `item` is exactly the value current at database
/// state `state`, per the server's ground truth.
fn current_at(
    server: &BroadcastServer,
    item: bpush_types::ItemId,
    value: ItemValue,
    state: Cycle,
) -> bool {
    if value.version() > state {
        return false;
    }
    match server.history().next_overwrite(item, value) {
        None => true,
        Some(next) => next.version() > state,
    }
}

/// Theorem 1: a committed invalidation-only query reads the values of the
/// database state broadcast at the cycle of its last read — the state at
/// which it commits. Every value must still be current at the finish
/// cycle's snapshot.
#[test]
fn theorem1_invalidation_only_reads_commit_snapshot() {
    let (outcomes, server) = run_method(Method::InvalidationOnly, 40, 11);
    let committed: Vec<_> = outcomes.iter().filter(|o| o.committed()).collect();
    assert!(!committed.is_empty(), "need committed queries to check");
    for o in &committed {
        for r in &o.reads {
            assert!(
                current_at(&server, r.item, r.value, o.finished_cycle),
                "query {} read a value stale at its commit snapshot {}",
                o.id,
                o.finished_cycle
            );
        }
    }
}

/// Theorem 2: a committed multiversion-broadcast query reads exactly the
/// database state broadcast at `c_0`, the cycle of its first read.
#[test]
fn theorem2_multiversion_reads_first_read_snapshot() {
    let (outcomes, server) = run_method(Method::MultiversionBroadcast, 40, 22);
    let committed: Vec<_> = outcomes.iter().filter(|o| o.committed()).collect();
    assert!(!committed.is_empty());
    // the method accepts every query within the retention budget
    assert_eq!(committed.len(), outcomes.len(), "multiversion accepts all");
    for o in &committed {
        let c0 = o.first_read_cycle.expect("cacheless method reads on air");
        for r in &o.reads {
            assert!(
                current_at(&server, r.item, r.value, c0),
                "query {} read a value not in its c0={c0} snapshot",
                o.id
            );
        }
    }
}

/// Theorem 3: a committed SGT query is serializable together with all
/// server update transactions (checked against the full conflict graph),
/// and its currency lies between the first-read and commit snapshots:
/// the witnessed serialization interval must not end before the query
/// began.
#[test]
fn theorem3_sgt_serializable() {
    let (outcomes, server) = run_method(Method::Sgt, 40, 33);
    let committed: Vec<_> = outcomes.iter().filter(|o| o.committed()).collect();
    assert!(!committed.is_empty());
    let mut batch = SerializabilityBatch::new(server.history(), server.conflict_graph());
    for o in &committed {
        batch
            .check(&o.reads)
            .unwrap_or_else(|e| panic!("query {}: {e}", o.id));
    }
}

/// SGT accepts strictly more than invalidation-only on identical
/// workloads in aggregate (its whole point, §3.3).
#[test]
fn sgt_dominates_invalidation_only_in_aggregate() {
    let (inv, _) = run_method(Method::InvalidationOnly, 60, 44);
    let (sgt, _) = run_method(Method::Sgt, 60, 44);
    let commits = |os: &[QueryOutcome]| os.iter().filter(|o| o.committed()).count();
    assert!(
        commits(&sgt) >= commits(&inv),
        "sgt {} vs inv {}",
        commits(&sgt),
        commits(&inv)
    );
}

/// Theorem 4: a committed versioned-cache query reads a single consistent
/// snapshot (validated), and it keeps committing *after* an invalidation
/// whenever the cache can serve old-enough values — so with a warm cache
/// its accept rate must beat the plain cached method's.
#[test]
fn theorem4_versioned_cache_survives_invalidation() {
    let (plain, server_a) = run_method(Method::InvalidationCache, 60, 55);
    let (versioned, server_b) = run_method(Method::InvalidationVersionedCache, 60, 55);
    let commits = |os: &[QueryOutcome]| os.iter().filter(|o| o.committed()).count();
    assert!(
        commits(&versioned) >= commits(&plain),
        "versioned {} vs plain {}",
        commits(&versioned),
        commits(&plain)
    );
    for (outcomes, server) in [(&plain, &server_a), (&versioned, &server_b)] {
        let validator = SerializabilityValidator::new(server.history());
        for o in outcomes.iter().filter(|o| o.committed()) {
            validator
                .check(&o.reads)
                .unwrap_or_else(|e| panic!("query {}: {e}", o.id));
        }
    }
}

/// Theorem 5: a committed multiversion-caching query observes exactly one
/// prefix snapshot (the `c_u − 1` state): the interval check must pass,
/// and the witnessed interval must be anchored no earlier than the cycle
/// the query started minus one.
#[test]
fn theorem5_multiversion_caching_snapshot() {
    let (outcomes, server) = run_method(Method::MultiversionCaching, 60, 66);
    let committed: Vec<_> = outcomes.iter().filter(|o| o.committed()).collect();
    assert!(!committed.is_empty());
    let validator = SerializabilityValidator::new(server.history());
    for o in &committed {
        let interval = validator
            .check(&o.reads)
            .unwrap_or_else(|e| panic!("query {}: {e}", o.id));
        // currency: the snapshot is never older than the state at which
        // the query's first value was overwritten; in particular every
        // value read was written before the query finished
        if let Some(after) = interval.after {
            assert!(after.cycle() <= o.finished_cycle);
        }
    }
}

/// §3.2: a `V`-multiversion server guarantees every query of span ≤ V;
/// with retention cut to 1 the same workload sees aborts, and those
/// aborts are honest (no inconsistent commits either way).
#[test]
fn retention_bound_is_sharp() {
    let (full, _) = run_method(Method::MultiversionBroadcast, 40, 77);
    assert!(full.iter().all(|o| o.committed()), "V covers every span");

    let mut server = BroadcastServer::new(
        ServerConfig {
            versions_retained: 1,
            ..server_config()
        },
        ServerOptions::multiversion(MultiversionLayout::Overflow),
        77,
    )
    .unwrap();
    let mut client = QueryExecutor::new(
        ClientId::new(0),
        ClientConfig {
            reads_per_query: 12,
            ..client_config()
        },
        Method::MultiversionBroadcast.build_protocol(),
        None,
        40,
        77 ^ 0xABCD,
    )
    .unwrap();
    let mut outcomes = Vec::new();
    let mut start = Slot::ZERO;
    while !client.is_done() {
        let bcast = server.run_cycle();
        outcomes.extend(client.run_cycle(&bcast, start, true).unwrap());
        start = start.plus(bcast.total_slots());
    }
    assert!(
        outcomes.iter().any(|o| !o.committed()),
        "span > V queries must risk aborts"
    );
    let validator = SerializabilityValidator::new(server.history());
    for o in outcomes.iter().filter(|o| o.committed()) {
        validator.check(&o.reads).unwrap();
    }
}
