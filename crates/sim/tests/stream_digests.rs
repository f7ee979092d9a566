//! Pins the workload streams draw for draw, not just the metrics they
//! lead to.
//!
//! The server's update stream and the clients' readsets are the inputs
//! of every run, so a faster sampler must hand out the very same ranks:
//! the same RNG calls in the same order, giving the same items and
//! transactions. Each case folds a stream into an FNV-1a digest —
//! 200 cycles of `WorkloadGenerator::generate_cycle` in three shapes,
//! and 500 readsets drawn the way `QueryExecutor` draws them. A change
//! to what the samplers return, or to how many random numbers they
//! take, moves a digest.

#![allow(clippy::unwrap_used)]

use bpush_client::QueryExecutor;
use bpush_obs::flight::fnv64;
use bpush_server::WorkloadGenerator;
use bpush_types::{ClientConfig, Cycle, ItemId, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cycles of update transactions folded per server shape.
const CYCLES: u64 = 200;

/// Readsets folded for the client stream.
const READSETS: usize = 500;

/// The digests, computed with the binary-search Zipf sampler and the
/// `BTreeSet` distinct draw — before the guide table and the bitset.
const DEFAULT_STREAM: u64 = 0x19f8_bede_4def_c1d2;
const UPDATE_STORM_STREAM: u64 = 0x5976_78c2_1fdf_e27b;
const BIG_DB_STREAM: u64 = 0x5b7a_c5bf_627e_2716;
const CLIENT_READSETS: u64 = 0xef71_e4a7_0412_2f44;

/// The seed of `paper_defaults()`, which the benchmark also uses.
const SEED: u64 = 0x1999_1cdc;

fn push_items(bytes: &mut Vec<u8>, items: &[ItemId]) {
    bytes.extend_from_slice(&u32::try_from(items.len()).unwrap().to_le_bytes());
    for item in items {
        bytes.extend_from_slice(&item.index().to_le_bytes());
    }
}

/// The digest of `CYCLES` cycles of `config`'s update stream: every
/// transaction's id, reads and writes, in serial order.
fn server_digest(config: &ServerConfig) -> u64 {
    let mut gen = WorkloadGenerator::new(config, SEED).unwrap();
    let mut bytes = Vec::new();
    for c in 0..CYCLES {
        for txn in gen.generate_cycle(Cycle::new(c)) {
            bytes.extend_from_slice(&txn.id().cycle().number().to_le_bytes());
            bytes.extend_from_slice(&txn.id().seq().to_le_bytes());
            push_items(&mut bytes, txn.reads());
            push_items(&mut bytes, txn.writes());
        }
    }
    fnv64(&bytes)
}

/// The update-storm shape: D=5000, U=400 over 2000 items, N=20.
fn update_storm() -> ServerConfig {
    ServerConfig {
        broadcast_size: 5000,
        update_range: 2000,
        server_read_range: 5000,
        updates_per_cycle: 400,
        txns_per_cycle: 20,
        ..ServerConfig::default()
    }
}

/// The big-db shape: server reads Zipf over all 20000 items.
fn big_db() -> ServerConfig {
    ServerConfig {
        broadcast_size: 20_000,
        server_read_range: 20_000,
        ..ServerConfig::default()
    }
}

#[test]
fn the_default_update_stream_is_pinned() {
    assert_eq!(server_digest(&ServerConfig::default()), DEFAULT_STREAM);
}

#[test]
fn the_update_storm_stream_is_pinned() {
    assert_eq!(server_digest(&update_storm()), UPDATE_STORM_STREAM);
}

#[test]
fn the_big_db_stream_is_pinned() {
    assert_eq!(server_digest(&big_db()), BIG_DB_STREAM);
}

/// `QueryExecutor` draws each readset from its read pattern with its
/// own seeded generator; this replays that draw for one client.
#[test]
fn the_client_readsets_are_pinned() {
    let config = ClientConfig::default();
    let pattern = QueryExecutor::read_pattern(&config).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut bytes = Vec::new();
    for _ in 0..READSETS {
        let items = pattern.sample_distinct(&mut rng, config.reads_per_query as usize);
        push_items(&mut bytes, &items);
    }
    assert_eq!(fnv64(&bytes), CLIENT_READSETS);
}
