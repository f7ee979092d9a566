//! Property tests for the wire codec: arbitrary control information
//! round-trips bit-exactly, encoded lengths match the closed-form
//! accounting, and — the sans-IO robustness contract — truncated or
//! corrupted input is rejected with an error, never a panic.

// Integration tests are exempt from the panic-freedom policy
// (mirrors `allow-unwrap-in-tests` in clippy.toml and the `#[cfg(test)]`
// carve-out in `cargo xtask lint`).
#![allow(clippy::unwrap_used)]
use proptest::collection::btree_set as set_of;
use proptest::prelude::*;

use bpush_broadcast::wire::{
    decode_augmented, decode_diff, decode_invalidation, encode_augmented, encode_diff,
    encode_invalidation, BitReader, BitWriter, WireParams,
};
use bpush_broadcast::{AugmentedReport, InvalidationReport};
use bpush_sgraph::GraphDiff;
use bpush_types::{Cycle, Granularity, ItemId, TxnId};

/// The diff of `cycle` a server would send with these commits and edges:
/// commits ascending and holding every target, edges grouped by ascending
/// target (in their order within a group), none twice.
fn well_formed(
    cycle: Cycle,
    seqs: impl IntoIterator<Item = u32>,
    mut edges: Vec<(TxnId, TxnId)>,
) -> GraphDiff {
    let mut committed: Vec<TxnId> = seqs.into_iter().map(|s| TxnId::new(cycle, s)).collect();
    committed.extend(edges.iter().map(|&(_, to)| to));
    committed.sort_unstable();
    committed.dedup();
    edges.sort_by_key(|&(_, to)| to);
    let mut seen = std::collections::BTreeSet::new();
    edges.retain(|&e| seen.insert(e));
    GraphDiff::new(cycle, committed, edges)
}

fn params() -> WireParams {
    WireParams::derive(1024, 8, 16, 16)
}

/// The bit-at-a-time writer the word-level `BitWriter` replaced: one
/// loop iteration, one bounds check and one shift per bit.
#[derive(Default)]
struct BitwiseWriter {
    bytes: Vec<u8>,
    partial: u32,
}

impl BitwiseWriter {
    fn put(&mut self, value: u64, width: u32) {
        for i in (0..width).rev() {
            let bit = (value >> i) & 1;
            if self.partial == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().unwrap();
            *last |= u8::from(bit == 1) << (7 - self.partial);
            self.partial = (self.partial + 1) % 8;
        }
    }
}

/// The bit-at-a-time reader `BitReader::take` replaced, underflow test
/// included: `Err(())` and an unmoved position on a field that does not
/// fit, or that is wider than the `u64` it would return.
fn bitwise_take(bytes: &[u8], pos: &mut u64, width: u32) -> Result<u64, ()> {
    if width > 64 || *pos + u64::from(width) > bytes.len() as u64 * 8 {
        return Err(());
    }
    let mut out = 0u64;
    for _ in 0..width {
        let byte = bytes[(*pos / 8) as usize];
        out = (out << 1) | u64::from((byte >> (7 - (*pos % 8))) & 1);
        *pos += 1;
    }
    Ok(out)
}

proptest! {
    /// Arbitrary (value, width) sequences round-trip through the bit
    /// stream.
    #[test]
    fn bit_stream_roundtrip(fields in proptest::collection::vec((0u64..u64::MAX, 1u32..=64), 0..64)) {
        let mut w = BitWriter::new();
        let masked: Vec<(u64, u32)> = fields
            .iter()
            .map(|&(v, width)| (v & (u64::MAX >> (64 - width)), width))
            .collect();
        for &(v, width) in &masked {
            w.put(v, width);
        }
        let expected_bits: u64 = masked.iter().map(|&(_, w)| u64::from(w)).sum();
        prop_assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();
        prop_assert_eq!(bytes.len() as u64, expected_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &masked {
            prop_assert_eq!(r.take(width).unwrap(), v);
        }
    }

    /// A roundtrip cannot see a bug the writer and the reader share, so
    /// both sides are held to the bit-at-a-time codec they replaced: the
    /// same fields give the same bytes, and every field reads the same
    /// from any prefix of them — value, `Ok`/`Err`, position and bits
    /// remaining alike. Widths 0 and 65 are never written: `take(0)` is
    /// `Ok(0)`, `take(65)` is `Err`, and neither moves the reader.
    #[test]
    fn word_codec_matches_the_bitwise_oracle(
        fields in proptest::collection::vec((0u64..=u64::MAX, 0u32..=65), 0..48),
        cut in 0usize..400,
    ) {
        let mut word = BitWriter::new();
        let mut bitwise = BitwiseWriter::default();
        for &(v, width) in fields.iter().filter(|&&(_, w)| (1..=64).contains(&w)) {
            let v = v & (u64::MAX >> (64 - width));
            word.put(v, width);
            bitwise.put(v, width);
        }
        let bytes = word.into_bytes();
        prop_assert_eq!(&bytes, &bitwise.bytes);

        let heard = &bytes[..cut.min(bytes.len())];
        let mut r = BitReader::new(heard);
        let mut pos = 0u64;
        for &(_, width) in &fields {
            let before = pos;
            let got = r.take(width).map_err(|_| ());
            prop_assert_eq!(got, bitwise_take(heard, &mut pos, width));
            prop_assert_eq!(r.position(), pos);
            prop_assert_eq!(r.remaining_bits(), heard.len() as u64 * 8 - pos);
            match width {
                0 => prop_assert_eq!((got, pos), (Ok(0), before)),
                65 => prop_assert_eq!((got, pos), (Err(()), before)),
                _ => {}
            }
        }
    }

    /// Invalidation reports round-trip for any update set within the
    /// window.
    #[test]
    fn invalidation_roundtrip(
        cycle in 8u64..100,
        window in 1u32..8,
        raw in proptest::collection::vec((0u32..1024, 0u32..8), 0..64),
    ) {
        let entries: Vec<(ItemId, Cycle)> = raw
            .iter()
            .map(|&(i, age)| {
                (ItemId::new(i), Cycle::new(cycle - u64::from(age.min(window - 1))))
            })
            .collect();
        let report = InvalidationReport::with_dated(
            Cycle::new(cycle),
            window,
            entries,
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, params());
        let decoded = decode_invalidation(
            &bytes,
            params(),
            Cycle::new(cycle),
            window,
            Granularity::Item,
            1,
        )
        .unwrap();
        prop_assert_eq!(decoded, report);
    }

    /// Augmented reports round-trip for any first-writer assignment.
    #[test]
    fn augmented_roundtrip(
        now in 1u64..100,
        raw in proptest::collection::vec((0u32..1024, 0u32..16), 0..32),
    ) {
        let prev = Cycle::new(now - 1);
        let entries: Vec<(ItemId, TxnId)> = raw
            .iter()
            .map(|&(i, seq)| (ItemId::new(i), TxnId::new(prev, seq)))
            .collect();
        let report = AugmentedReport::new(prev, entries);
        let bytes = encode_augmented(&report, Cycle::new(now), params());
        let decoded = decode_augmented(&bytes, params(), Cycle::new(now)).unwrap();
        prop_assert_eq!(decoded, report);
    }

    /// Graph diffs round-trip for any edge set within the age horizon.
    #[test]
    fn diff_roundtrip(
        now in 16u64..100,
        seqs in set_of(0u32..16, 0..8),
        raw_edges in proptest::collection::vec((1u32..16, 0u32..16, 0u32..16), 0..16),
    ) {
        let prev = Cycle::new(now - 1);
        let edges: Vec<(TxnId, TxnId)> = raw_edges
            .iter()
            .map(|&(age, s1, s2)| {
                (
                    TxnId::new(Cycle::new(now - 1 - u64::from(age.min(15))), s1),
                    TxnId::new(prev, s2),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        let diff = well_formed(prev, seqs.iter().copied(), edges);
        let bytes = encode_diff(&diff, Cycle::new(now), params());
        let decoded = decode_diff(&bytes, params(), Cycle::new(now)).unwrap();
        prop_assert_eq!(decoded, diff);
    }

    /// Every prefix of a valid invalidation encoding decodes to `Ok` or
    /// `Err` — never a panic. A client tuning in mid-broadcast sees
    /// exactly this shape of input.
    #[test]
    fn truncated_invalidation_never_panics(
        cycle in 8u64..100,
        window in 1u32..8,
        raw in proptest::collection::vec((0u32..1024, 0u32..8), 0..64),
        cut in 0usize..4096,
    ) {
        let entries: Vec<(ItemId, Cycle)> = raw
            .iter()
            .map(|&(i, age)| {
                (ItemId::new(i), Cycle::new(cycle - u64::from(age.min(window - 1))))
            })
            .collect();
        let report = InvalidationReport::with_dated(
            Cycle::new(cycle),
            window,
            entries,
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, params());
        let cut = cut.min(bytes.len());
        let _ = decode_invalidation(
            &bytes[..cut],
            params(),
            Cycle::new(cycle),
            window,
            Granularity::Item,
            1,
        );
    }

    /// Every prefix of a valid augmented-report encoding is handled
    /// without panicking.
    #[test]
    fn truncated_augmented_never_panics(
        now in 1u64..100,
        raw in proptest::collection::vec((0u32..1024, 0u32..16), 0..32),
        cut in 0usize..4096,
    ) {
        let prev = Cycle::new(now - 1);
        let entries: Vec<(ItemId, TxnId)> = raw
            .iter()
            .map(|&(i, seq)| (ItemId::new(i), TxnId::new(prev, seq)))
            .collect();
        let report = AugmentedReport::new(prev, entries);
        let bytes = encode_augmented(&report, Cycle::new(now), params());
        let cut = cut.min(bytes.len());
        let _ = decode_augmented(&bytes[..cut], params(), Cycle::new(now));
    }

    /// Every prefix of a valid graph-diff encoding is handled without
    /// panicking.
    #[test]
    fn truncated_diff_never_panics(
        now in 16u64..100,
        seqs in set_of(0u32..16, 0..8),
        raw_edges in proptest::collection::vec((1u32..16, 0u32..16, 0u32..16), 0..16),
        cut in 0usize..4096,
    ) {
        let prev = Cycle::new(now - 1);
        let edges: Vec<(TxnId, TxnId)> = raw_edges
            .iter()
            .map(|&(age, s1, s2)| {
                (
                    TxnId::new(Cycle::new(now - 1 - u64::from(age.min(15))), s1),
                    TxnId::new(prev, s2),
                )
            })
            .filter(|(a, b)| a < b)
            .collect();
        let diff = well_formed(prev, seqs.iter().copied(), edges);
        let bytes = encode_diff(&diff, Cycle::new(now), params());
        let cut = cut.min(bytes.len());
        let _ = decode_diff(&bytes[..cut], params(), Cycle::new(now));
    }

    /// Differential roundtrip with UNCONSTRAINED update dates: ages may
    /// exceed the window (§5.2.2 re-announcements), even the escape
    /// threshold, or lie in the future — the encoder's escape code must
    /// reproduce every date exactly, and the decoded report must return
    /// the same staleness verdicts as the original at every probed
    /// state. (The pre-escape encoder clamped these ages, which this
    /// test catches immediately.)
    #[test]
    fn invalidation_roundtrip_with_unconstrained_dates(
        cycle in 0u64..200,
        granularity_bucket in proptest::bool::ANY,
        ipb in 1u32..8,
        raw in proptest::collection::vec((0u32..1024, 0u64..300), 0..64),
    ) {
        let granularity = if granularity_bucket { Granularity::Bucket } else { Granularity::Item };
        let entries: Vec<(ItemId, Cycle)> = raw
            .iter()
            .map(|&(i, date)| (ItemId::new(i), Cycle::new(date)))
            .collect();
        let report = InvalidationReport::with_dated(
            Cycle::new(cycle),
            8,
            entries,
            granularity,
            ipb,
        );
        let bytes = encode_invalidation(&report, params());
        let decoded = decode_invalidation(
            &bytes,
            params(),
            Cycle::new(cycle),
            8,
            granularity,
            ipb,
        )
        .unwrap();
        prop_assert_eq!(&decoded, &report);
        for &(i, _) in &raw {
            for probe in [i.saturating_sub(1), i, i + 1] {
                let x = ItemId::new(probe);
                prop_assert_eq!(decoded.update_cycle(x), report.update_cycle(x));
                for state in [0, cycle / 2, cycle, cycle + 1] {
                    let s = Cycle::new(state);
                    prop_assert_eq!(decoded.stale_at(x, s), report.stale_at(x, s));
                }
            }
        }
    }

    /// Differential roundtrip over a wide id span: a few ids a million
    /// past the rest, in the reports and in the readset. The decoded
    /// reports must answer the readset probes (`any_stale`,
    /// `any_invalidated`, `matches_in`) exactly as the sent ones do.
    #[test]
    fn wide_id_span_keeps_probe_verdicts(
        cycle in 1u64..100,
        near in proptest::collection::vec(0u32..512, 0..16),
        far in proptest::collection::vec(1_000_000u32..1_002_000, 0..4),
        near_reads in proptest::collection::vec(0u32..512, 0..8),
        far_reads in proptest::collection::vec(1_000_000u32..1_002_000, 0..3),
    ) {
        let p = WireParams::derive(2_000_000, 1, 16, 16);
        let now = Cycle::new(cycle);
        let items: Vec<ItemId> = near.iter().chain(far.iter()).map(|&i| ItemId::new(i)).collect();
        let report = InvalidationReport::new(now, 1, items.clone(), Granularity::Item, 4);
        let bytes = encode_invalidation(&report, p);
        let decoded = decode_invalidation(&bytes, p, now, 1, Granularity::Item, 4).unwrap();
        prop_assert_eq!(&decoded, &report);
        let prev = now.prev();
        let aug = AugmentedReport::new(
            prev,
            items.iter().map(|&x| (x, TxnId::new(prev, x.index() % 16))),
        );
        let bytes = encode_augmented(&aug, now, p);
        let decoded_aug = decode_augmented(&bytes, p, now).unwrap();
        prop_assert_eq!(&decoded_aug, &aug);

        let readset: Vec<ItemId> = {
            let mut v: Vec<u32> = near_reads.iter().chain(&far_reads).copied().collect();
            v.sort_unstable();
            v.dedup();
            v.into_iter().map(ItemId::new).collect()
        };
        prop_assert_eq!(decoded.any_invalidated(&readset), report.any_invalidated(&readset));
        for state in [Cycle::ZERO, prev, now] {
            prop_assert_eq!(
                decoded.any_stale(&readset, state),
                report.any_stale(&readset, state)
            );
        }
        prop_assert_eq!(
            decoded_aug.matches_in(&readset).collect::<Vec<_>>(),
            aug.matches_in(&readset).collect::<Vec<_>>()
        );
    }

    /// Graph diffs with UNCONSTRAINED edge origins: `from` endpoints
    /// arbitrarily older than the relevance horizon must round-trip
    /// exactly (the pre-escape encoder clamped their cycle age, decoding
    /// to a different transaction id).
    #[test]
    fn diff_roundtrip_with_ancient_edge_origins(
        now in 1u64..200,
        raw_edges in proptest::collection::vec((0u64..200, 0u32..16, 0u32..16), 0..16),
    ) {
        let prev = Cycle::new(now.saturating_sub(1));
        let edges: Vec<(TxnId, TxnId)> = raw_edges
            .iter()
            .map(|&(from_cycle, s1, s2)| {
                (TxnId::new(Cycle::new(from_cycle), s1), TxnId::new(prev, s2))
            })
            .filter(|(a, b)| a < b)
            .collect();
        let diff = well_formed(prev, 0..4, edges);
        let bytes = encode_diff(&diff, Cycle::new(now), params());
        let decoded = decode_diff(&bytes, params(), Cycle::new(now)).unwrap();
        prop_assert_eq!(decoded, diff);
    }

    /// Roundtrip under edge-case derived widths: the tiniest deployment
    /// (1 item, window 1, 1 txn/cycle, span 0) up through mixed small
    /// parameters. `WireParams::derive` must never produce a width a
    /// legitimate report of that deployment cannot encode through.
    #[test]
    fn derive_edge_widths_roundtrip(
        d_items in 1u32..16,
        window in 1u32..4,
        n_txns in 1u32..4,
        span in 0u32..4,
        cycle in 1u64..50,
        raw in proptest::collection::vec((0u32..16, 0u64..50), 0..8),
    ) {
        let p = WireParams::derive(d_items, window, n_txns, span);
        let entries: Vec<(ItemId, Cycle)> = raw
            .iter()
            .map(|&(i, date)| (ItemId::new(i % d_items), Cycle::new(date)))
            .collect();
        let report = InvalidationReport::with_dated(
            Cycle::new(cycle),
            window,
            entries,
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, p);
        let decoded =
            decode_invalidation(&bytes, p, Cycle::new(cycle), window, Granularity::Item, 1)
                .unwrap();
        prop_assert_eq!(&decoded, &report);

        let prev = Cycle::new(cycle - 1);
        let writers: Vec<(ItemId, TxnId)> = raw
            .iter()
            .map(|&(i, seq)| {
                (ItemId::new(i % d_items), TxnId::new(prev, (seq as u32) % n_txns))
            })
            .collect();
        let aug = AugmentedReport::new(prev, writers);
        let bytes = encode_augmented(&aug, Cycle::new(cycle), p);
        prop_assert_eq!(decode_augmented(&bytes, p, Cycle::new(cycle)).unwrap(), aug);
    }

    /// Arbitrary garbage bytes through all three decoders and the raw
    /// bit reader: errors, never panics, and the bit reader never hands
    /// back more bits than the buffer holds.
    #[test]
    fn garbage_bytes_never_panic_any_decoder(
        raw in proptest::collection::vec(0u16..256, 0..256),
        widths in proptest::collection::vec(1u32..64, 0..64),
    ) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = decode_invalidation(&bytes, params(), Cycle::new(50), 4, Granularity::Item, 1);
        let _ = decode_augmented(&bytes, params(), Cycle::new(50));
        let _ = decode_diff(&bytes, params(), Cycle::new(50));
        let mut r = BitReader::new(&bytes);
        let mut taken: u64 = 0;
        for &w in &widths {
            match r.take(w) {
                Ok(v) => {
                    taken += u64::from(w);
                    prop_assert!(w == 64 || v < (1u64 << w), "value wider than requested");
                }
                Err(_) => break,
            }
        }
        prop_assert!(taken <= bytes.len() as u64 * 8, "read past the buffer");
    }
}
