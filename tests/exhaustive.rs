//! Exhaustive model checking on a tiny universe: enumerate **every**
//! possible server update pattern over a few items and cycles, drive a
//! deterministic client script under each method, and verify that no
//! committed readset is ever inconsistent. Where proptest samples, this
//! test covers the whole space.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use bpush_client::{CacheParams, ClientCache, QueryExecutor};
use bpush_core::validator::SerializabilityBatch;
use bpush_core::{CacheMode, Method};
use bpush_server::{BroadcastServer, ServerOptions, ServerTxn};
use bpush_types::config::MultiversionLayout;
use bpush_types::{ClientConfig, ClientId, Cycle, ItemId, Slot, TxnId};

/// Exhaustive model checking: bit `i + cycle * N_ITEMS` of a pattern
/// decides whether item `i` is updated during that cycle, and *every*
/// pattern is driven through the real server pipeline via
/// [`ScriptedWorkload`].
const N_ITEMS: u32 = 3;
const N_CYCLES: u64 = 3;

/// The scripted update sets for one enumeration pattern.
fn script_of(pattern: u32) -> Vec<Vec<ItemId>> {
    (0..N_CYCLES)
        .map(|cycle| {
            (0..N_ITEMS)
                .filter(|i| pattern & (1 << (i + (cycle as u32) * N_ITEMS)) != 0)
                .map(ItemId::new)
                .collect()
        })
        .collect()
}

fn run_pattern(method: Method, pattern: u32, seed: u64) -> (usize, usize) {
    let config = bpush_types::ServerConfig {
        broadcast_size: N_ITEMS,
        update_range: N_ITEMS,
        server_read_range: N_ITEMS,
        updates_per_cycle: 1,
        txns_per_cycle: 1,
        offset: 0,
        theta: 0.5,
        versions_retained: 3,
        ..bpush_types::ServerConfig::default()
    };
    let server = BroadcastServer::new(
        config,
        method.server_options(MultiversionLayout::Overflow),
        seed,
    )
    .expect("valid");
    let mut server = server.with_workload(Box::new(bpush_server::ScriptedWorkload::new(
        script_of(pattern),
    )));
    let cache = match method.cache_mode() {
        CacheMode::None => None,
        mode => Some(ClientCache::new(CacheParams {
            mode,
            current_capacity: 2,
            old_capacity: if mode == CacheMode::Multiversion {
                2
            } else {
                0
            },
            items_per_bucket: 1,
        })),
    };
    let client_config = ClientConfig {
        read_range: N_ITEMS,
        reads_per_query: 2,
        think_time: 1,
        cache: bpush_types::CacheConfig {
            capacity: 2,
            old_version_fraction: if method.cache_mode() == CacheMode::Multiversion {
                0.4
            } else {
                0.0
            },
        },
        ..ClientConfig::default()
    };
    let mut client = QueryExecutor::new(
        ClientId::new(0),
        client_config,
        method.build_protocol(),
        cache,
        4,
        seed ^ 0x5a5a,
    )
    .expect("valid");

    let mut outcomes = Vec::new();
    let mut start = Slot::ZERO;
    for _ in 0..(N_CYCLES * 8) {
        let bcast = server.run_cycle();
        outcomes.extend(client.run_cycle(&bcast, start, true).expect("cycle runs"));
        start = start.plus(bcast.total_slots());
        if client.is_done() {
            break;
        }
    }
    let mut batch = SerializabilityBatch::new(server.history(), server.conflict_graph());
    let mut committed = 0;
    for o in outcomes.iter().filter(|o| o.committed()) {
        committed += 1;
        batch
            .check(&o.reads)
            .unwrap_or_else(|e| panic!("{method} pattern {pattern:b} seed {seed}: {e}"));
    }
    (committed, outcomes.len())
}

/// Exhaustively enumerate every update pattern over the tiny universe
/// (2^(items x cycles) = 512 patterns), for every method and two client
/// seeds; every committed readset must be consistent, and across the
/// sweep both commits and aborts must occur.
#[test]
fn exhaustive_tiny_universe() {
    let patterns = 1u32 << (N_ITEMS as u64 * N_CYCLES);
    for method in Method::ALL {
        let mut commits = 0usize;
        let mut total = 0usize;
        for pattern in 0..patterns {
            for seed in [1u64, 2] {
                let (c, t) = run_pattern(method, pattern, seed);
                commits += c;
                total += t;
            }
        }
        assert!(total > 0, "{method}: nothing ran");
        assert!(commits > 0, "{method}: nothing ever committed");
    }
}

/// The scripted pipeline really applies the scripted updates: the
/// all-ones pattern updates every item every scripted cycle.
#[test]
fn scripted_pattern_reaches_history() {
    let config = bpush_types::ServerConfig {
        broadcast_size: N_ITEMS,
        update_range: N_ITEMS,
        server_read_range: N_ITEMS,
        updates_per_cycle: 1,
        txns_per_cycle: 1,
        theta: 0.5,
        offset: 0,
        ..bpush_types::ServerConfig::default()
    };
    let all_ones = (1u32 << (N_ITEMS as u64 * N_CYCLES)) - 1;
    let mut server = BroadcastServer::new(config, ServerOptions::plain(), 0)
        .expect("valid")
        .with_workload(Box::new(bpush_server::ScriptedWorkload::new(script_of(
            all_ones,
        ))));
    for _ in 0..(N_CYCLES + 1) {
        server.run_cycle();
    }
    for i in 0..N_ITEMS {
        assert_eq!(
            server.history().writes_of(ItemId::new(i)).len(),
            N_CYCLES as usize,
            "item {i} must be written every scripted cycle"
        );
    }
}

/// The scripted-transaction path of the server: committing handwritten
/// transactions through `ServerTxn` validates the read-before-write
/// invariant end to end.
#[test]
fn server_txn_invariants_hold_under_enumeration() {
    // every subset of a 3-item write set, with the mandated read-superset
    for mask in 0u32..8 {
        let writes: Vec<ItemId> = (0..3)
            .filter(|i| mask & (1 << i) != 0)
            .map(ItemId::new)
            .collect();
        let mut reads = writes.clone();
        reads.push(ItemId::new(0)); // extra read is always allowed
        let txn = ServerTxn::new(TxnId::new(Cycle::ZERO, 0), reads, writes.clone());
        for w in &writes {
            assert!(txn.writes_item(*w));
            assert!(txn.reads_item(*w), "read-before-write holds");
        }
    }
}
