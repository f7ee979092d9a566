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

use std::collections::BTreeSet;

use proptest::collection::btree_set as set_of;
use proptest::prelude::*;

use bpush_broadcast::feed::{encode_control_segment, encode_data_segment, SegmentKind};
use bpush_broadcast::wire::{decode_diff, BitWriter, WireParams};
use bpush_broadcast::{ControlInfo, ItemRecord};
use bpush_client::WireClient;
use bpush_core::{Sgt, SgtConfig};
use bpush_types::{Cycle, ItemId, ItemValue, TxnId};

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
    sgt_control_segment(now, None, committed, edges)
}

/// A framed control segment for `now` with the diff. With `augmented`,
/// its items are invalidated in the cycle before and the augmented
/// report names their first writers; without, the invalidation report
/// is empty and there is no augmented report.
fn sgt_control_segment(
    now: Cycle,
    augmented: Option<&[(u32, TxnId)]>,
    committed: &[TxnId],
    edges: &[(TxnId, TxnId)],
) -> Vec<u8> {
    let p = params();
    let first_writers = augmented.unwrap_or_default();
    let mut w = BitWriter::new();
    w.put(1, 32); // window
    w.put(0, 1); // item granularity
    w.put(1, 32); // items per bucket
    w.put(u64::from(augmented.is_some()), 1);
    w.put(1, 1); // a graph diff
    w.put(first_writers.len() as u64, p.count_bits);
    for &(item, _) in first_writers {
        w.put(u64::from(item), p.key_bits);
        w.put(1, p.age_bits); // updated in the cycle before
    }
    if augmented.is_some() {
        w.put(first_writers.len() as u64, p.count_bits);
        for &(item, t_f) in first_writers {
            w.put(u64::from(item), p.key_bits);
            w.put(now.number() - t_f.cycle().number(), p.txn_age_bits);
            w.put(u64::from(t_f.seq()), p.seq_bits);
        }
    }
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

/// An SGT wire client that heard cycle `now − 2`, then `now − 1` unless
/// it `missed` it, with one query per readset of `early` begun and read
/// at `now − 2` and one per readset of `late` begun and read after
/// `now − 1`. Cycle `now − 1`'s augmented report names the items of
/// `middle`, so each early query that read one of them has a `c_o`;
/// missing the cycle dooms every early query instead.
fn prepared_client(
    now: Cycle,
    early: &[BTreeSet<u32>],
    middle: &BTreeSet<u32>,
    missed: bool,
    late: &[BTreeSet<u32>],
) -> WireClient {
    let p = params();
    let (first, second) = (Cycle::new(now.number() - 2), now.prev());
    let mut records: Vec<ItemRecord> = (0..8)
        .map(|i| {
            let w = TxnId::new(first.prev(), i);
            ItemRecord::new(ItemId::new(i), ItemValue::written_by(w), Some(w))
        })
        .collect();
    let mut client = sgt_client();
    client
        .push(&encode_control_segment(&ControlInfo::empty(first), p))
        .unwrap();
    client
        .push(&encode_data_segment(first, &records, p))
        .unwrap();
    let read_all = |client: &mut WireClient, readsets: &[BTreeSet<u32>]| {
        for readset in readsets {
            let t = client.begin();
            for &x in readset {
                client.read(t, ItemId::new(x)).unwrap();
            }
        }
    };
    read_all(&mut client, early);
    if missed {
        client.missed_cycle(second);
    } else {
        let writers: Vec<(u32, TxnId)> = (0..)
            .zip(middle)
            .map(|(seq, &x)| (x, TxnId::new(first, seq)))
            .collect();
        let commits: Vec<TxnId> = writers.iter().map(|&(_, t)| t).collect();
        client
            .push(&sgt_control_segment(second, Some(&writers), &commits, &[]))
            .unwrap();
        for (x, t) in writers {
            let x = ItemId::new(x);
            records[x.as_usize()] = ItemRecord::new(x, ItemValue::written_by(t), Some(t));
        }
        client
            .push(&encode_data_segment(second, &records, p))
            .unwrap();
    }
    read_all(&mut client, late);
    client
}

proptest! {
    /// A wire-fed SGT client reads a graph diff only when its window will
    /// keep it. Each case hears an SGT control segment — an augmented
    /// report over random items and a diff — well formed by one client
    /// and with one admission rule broken by its twin, both carrying
    /// random live, invalidated and doomed queries. The diff is needed
    /// iff some undoomed query has a `c_o` or reads an item the report
    /// names. If it is, the malformed segment is an error and is not
    /// heard; if not, its bytes are never interpreted, and the twin ends
    /// exactly where the client fed the well-formed diff does.
    #[test]
    fn a_diff_no_window_keeps_is_never_interpreted(
        now in 10u64..60,
        early in proptest::collection::vec(set_of(0u32..8, 0..3), 0..3),
        middle in set_of(0u32..8, 0..4),
        missed in proptest::bool::weighted(0.3),
        late in proptest::collection::vec(set_of(0u32..8, 0..3), 0..3),
        named in set_of(0u32..8, 0..4),
        seqs in set_of(0u32..16, 2..6),
        sources in proptest::collection::vec(set_of((1u64..5, 0u32..16), 1..4), 6..7),
        drop_a_target in proptest::bool::ANY,
    ) {
        let now = Cycle::new(now);
        let prev = now.prev();
        let committed: Vec<TxnId> = seqs.iter().map(|&s| TxnId::new(prev, s)).collect();
        let mut edges = Vec::new();
        for (&to, from) in committed.iter().zip(&sources) {
            for &(age, seq) in from {
                edges.push((TxnId::new(Cycle::new(prev.number() - age), seq), to));
            }
        }
        let mut broken = committed.clone();
        if drop_a_target {
            broken.remove(0);
        } else {
            broken.insert(0, committed[0]);
        }
        let first_writers: Vec<(u32, TxnId)> =
            named.iter().map(|&x| (x, committed[0])).collect();
        let live = late
            .iter()
            .chain(early.iter().filter(|_| !missed))
            .collect::<Vec<_>>();
        let has_c_o = |r: &BTreeSet<u32>| !missed && early.contains(r) && !r.is_disjoint(&middle);
        let needed = live.iter().any(|r| !r.is_disjoint(&named))
            || early.iter().any(has_c_o);

        let mut fed = prepared_client(now, &early, &middle, missed, &late);
        let mut twin = prepared_client(now, &early, &middle, missed, &late);
        let heard = twin.now();
        let well_formed = sgt_control_segment(now, Some(&first_writers), &committed, &edges);
        let malformed = sgt_control_segment(now, Some(&first_writers), &broken, &edges);
        prop_assert!(fed.push(&well_formed).is_ok());
        let pushed = twin.push(&malformed);
        if needed {
            prop_assert!(pushed.is_err());
            prop_assert_eq!(twin.now(), heard, "the segment was heard");
        } else {
            prop_assert!(pushed.is_ok(), "{pushed:?}");
            prop_assert_eq!(twin.now(), Some(now));
            prop_assert_eq!(twin.protocol().debug_snapshot(), fed.protocol().debug_snapshot());
        }
    }
}
