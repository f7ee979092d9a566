//! What the wire admits of a graph diff: only a diff an SGT client's
//! window can keep as it is.
//!
//! An SGT client keeps each heard diff as the in-edge list of its
//! cycle's commits and searches it by binary search, so the decoder
//! rejects — besides commits outside the covered cycle and backward
//! edges — commits not strictly ascending, edges not grouped by
//! ascending target, a target that is not a listed commit, and an edge
//! listed twice. This test breaks each rule in turn in an encoded diff
//! and requires `Err`, never a panic, both from the bare decoder and from
//! a wire-fed SGT client pushed the framed control segment.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]

use proptest::collection::btree_set as set_of;
use proptest::prelude::*;

use bpush_broadcast::feed::SegmentKind;
use bpush_broadcast::wire::{decode_diff, BitWriter, WireParams};
use bpush_client::WireClient;
use bpush_core::{Sgt, SgtConfig};
use bpush_types::{Cycle, TxnId};

fn params() -> WireParams {
    WireParams::derive(1000, 4, 16, 8)
}

/// Writes a diff's commits and edges as the encoder lays them out,
/// whether or not they are well formed.
fn put_diff(w: &mut BitWriter, now: Cycle, committed: &[TxnId], edges: &[(TxnId, TxnId)]) {
    let p = params();
    let put_txn = |w: &mut BitWriter, t: TxnId| {
        w.put(now.number() - t.cycle().number(), p.txn_age_bits);
        w.put(u64::from(t.seq()), p.seq_bits);
    };
    w.put(committed.len() as u64, p.count_bits);
    for &t in committed {
        put_txn(w, t);
    }
    w.put(edges.len() as u64, p.count_bits);
    for &(a, b) in edges {
        put_txn(w, a);
        put_txn(w, b);
    }
}

/// The diff alone, as `decode_diff` reads it.
fn diff_bytes(now: Cycle, committed: &[TxnId], edges: &[(TxnId, TxnId)]) -> Vec<u8> {
    let mut w = BitWriter::new();
    put_diff(&mut w, now, committed, edges);
    w.into_bytes()
}

/// A framed control segment for `now`: an empty invalidation report, no
/// augmented report, and the diff.
fn control_segment(now: Cycle, committed: &[TxnId], edges: &[(TxnId, TxnId)]) -> Vec<u8> {
    let p = params();
    let mut w = BitWriter::new();
    w.put(1, 32); // window
    w.put(0, 1); // item granularity
    w.put(1, 32); // items per bucket
    w.put(0, 1); // no augmented report
    w.put(1, 1); // a graph diff
    w.put(0, p.count_bits); // no invalidated item
    put_diff(&mut w, now, committed, edges);
    let payload = w.into_bytes();
    let mut segment = vec![SegmentKind::Control.to_byte()];
    segment.extend_from_slice(&now.number().to_be_bytes());
    segment.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    segment.extend_from_slice(&payload);
    segment
}

fn sgt_client() -> WireClient {
    WireClient::new(Box::new(Sgt::new(SgtConfig::default())), params())
}

/// Which rule a malformed variant breaks.
const RULES: [&str; 4] = [
    "commits not strictly ascending",
    "edges not grouped by ascending target",
    "a target that is not a listed commit",
    "an edge listed twice",
];

proptest! {
    /// A well-formed diff decodes and is heard; breaking any one
    /// admission rule in it makes both the decoder and the wire-fed SGT
    /// client return `Err`, without a panic. The diff's last target may
    /// have a long run of in-edges, so a repeated edge is found by the
    /// in-place sort as well as through the run filter.
    #[test]
    fn each_broken_admission_rule_is_an_error(
        now in 10u64..60,
        seqs in set_of(0u32..16, 2..6),
        sources in proptest::collection::vec(set_of((1u64..5, 0u32..16), 1..4), 6..7),
        long_run in proptest::bool::ANY,
        rule in 0usize..4,
        at in 0usize..64,
    ) {
        let now = Cycle::new(now);
        let prev = now.prev();
        let mut committed: Vec<TxnId> = seqs.iter().map(|&s| TxnId::new(prev, s)).collect();
        let mut edges = Vec::new();
        for (&to, from) in committed.iter().zip(&sources) {
            for &(age, seq) in from {
                edges.push((TxnId::new(Cycle::new(prev.number() - age), seq), to));
            }
        }
        if long_run {
            let last = *committed.last().unwrap();
            edges.retain(|&(_, to)| to != last);
            for age in 1..6 {
                for seq in 0..14 {
                    edges.push((TxnId::new(Cycle::new(prev.number() - age), seq), last));
                }
            }
        }
        prop_assert!(decode_diff(&diff_bytes(now, &committed, &edges), params(), now).is_ok());
        prop_assert!(sgt_client().push(&control_segment(now, &committed, &edges)).is_ok());

        match rule {
            0 => {
                let i = at % (committed.len() - 1);
                if at % 2 == 0 {
                    committed.swap(i, i + 1);
                } else {
                    committed.insert(i, committed[i]);
                }
            }
            1 => {
                let last = edges.pop().unwrap();
                edges.insert(0, last);
            }
            2 => {
                committed.remove(at % committed.len());
            }
            _ => {
                let run_start = edges.iter().position(|e| e.1 == edges.last().unwrap().1).unwrap();
                if long_run && at % 2 == 0 {
                    // far apart in a run longer than the filtered bound
                    edges.push(edges[run_start]);
                } else {
                    let i = at % edges.len();
                    edges.insert(i, edges[i]);
                }
            }
        }
        let label = RULES[rule];
        let decoded = decode_diff(&diff_bytes(now, &committed, &edges), params(), now);
        prop_assert!(decoded.is_err(), "{label}: decoded {decoded:?}");
        let mut client = sgt_client();
        prop_assert!(client.push(&control_segment(now, &committed, &edges)).is_err(), "{label}");
        prop_assert_eq!(client.now(), None, "{label}: the segment was heard");
    }
}
