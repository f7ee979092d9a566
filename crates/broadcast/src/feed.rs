//! Segment framing for the broadcast feed: the sans-IO transport layer.
//!
//! A transport (the in-process simulator, the model checker, or a future
//! socket server) delivers the broadcast as a byte stream. This module
//! frames that stream into self-describing **segments** — control, data
//! and directory — and decodes each back into the in-memory structures
//! the protocols consume. The client side is a pure push parser
//! ([`WireFeed`]): bytes in, complete segments out, no clock, no channel,
//! and no allocation on the scan path (payload decoding builds the
//! per-cycle report structures, exactly like the struct-fed path does,
//! reading each field through [`crate::wire::BitReader`]).
//!
//! Segment layout (byte-aligned so a socket transport can frame without
//! bit state): a 13-byte header — kind (1 byte), cycle (8 bytes, big
//! endian), payload length (4 bytes, big endian) — followed by the
//! bit-packed payload produced by [`crate::wire`]. Control payloads are
//! self-describing: window, granularity, items-per-bucket and the
//! presence flags for the SGT reports ride in-band, so decoding needs
//! only the deployment's fixed [`WireParams`] widths.

// bpush-lint: sans_io — protocol core: pure byte-stream framing, no clocks/threads/files/sockets

// bpush-lint: decode_path — all broadcast-feed input is read through checked take_* accessors

use bpush_types::{BpushError, Cycle, Granularity, ItemId, ItemValue, TxnId};

use crate::bcast::Bcast;
use crate::bucket::ItemRecord;
use crate::control::ControlInfo;
use crate::directory::Directory;
use crate::wire::{
    capped_capacity, decode_augmented_from, decode_diff_from, decode_invalidation_from,
    encode_augmented_into, encode_diff_into, encode_invalidation_into, BitReader, BitWriter,
    WireParams,
};

/// Bytes in a segment header: kind, cycle, payload length.
pub const SEGMENT_HEADER_BYTES: usize = 1 + 8 + 4;

/// What a framed segment carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// bpush-lint: protocol_enum — the segment vocabulary of the broadcast feed
pub enum SegmentKind {
    /// The control information preceding a cycle's data (§3).
    Control,
    /// Data-segment records (current versions, §2.1).
    Data,
    /// The on-air directory (§3.2 shifting-position organizations).
    Directory,
}

impl SegmentKind {
    /// The header byte of this kind.
    pub fn to_byte(self) -> u8 {
        match self {
            SegmentKind::Control => 0,
            SegmentKind::Data => 1,
            SegmentKind::Directory => 2,
        }
    }

    /// Parses a header byte.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] for an unknown kind byte.
    // bpush-lint: hot_path — per-segment header parse on the broadcast feed path
    pub fn from_byte(b: u8) -> Result<Self, BpushError> {
        match b {
            0 => Ok(SegmentKind::Control),
            1 => Ok(SegmentKind::Data),
            2 => Ok(SegmentKind::Directory),
            _ => Err(BpushError::invalid_config("unknown segment kind byte")),
        }
    }
}

/// A complete segment, borrowed out of a [`WireFeed`]'s buffer: the
/// framing scan hands these out without copying the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentView<'a> {
    /// What the segment carries.
    pub kind: SegmentKind,
    /// The broadcast cycle the segment belongs to.
    pub cycle: Cycle,
    /// The bit-packed payload.
    pub payload: &'a [u8],
}

/// A decoded segment, ready for the protocol layer.
#[derive(Debug, Clone, PartialEq)]
// bpush-lint: protocol_enum — decoded form of the segment vocabulary
// Boxing the inline ControlInfo would trade 240 stack bytes for one more
// heap allocation on every decoded control segment, on top of the report
// vectors a decode builds (what is allocation-free is the scan).
#[allow(clippy::large_enum_variant)]
pub enum DecodedSegment {
    /// A decoded control segment.
    Control(ControlInfo),
    /// Decoded data-segment records.
    Data(Cycle, Vec<ItemRecord>),
    /// A decoded directory.
    Directory(Directory),
}

/// Appends one framed segment of `kind` for `cycle` to `out`: the header,
/// then whatever `body` writes as the bit-packed payload, whose byte
/// length is patched into the header once it is known.
fn append_segment(
    mut out: Vec<u8>,
    kind: SegmentKind,
    cycle: Cycle,
    body: impl FnOnce(&mut BitWriter),
) -> Vec<u8> {
    out.push(kind.to_byte());
    out.extend_from_slice(&cycle.number().to_be_bytes());
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut w = BitWriter::onto(out);
    body(&mut w);
    let mut out = w.into_bytes();
    let payload_at = len_at + 4;
    // lint: allow(casts) — the length field is u32 by wire-format definition; single-cycle payloads sit far below 4 GiB
    let len = (out.len() - payload_at) as u32;
    if let Some(field) = out.get_mut(len_at..payload_at) {
        field.copy_from_slice(&len.to_be_bytes());
    }
    out
}

/// Encodes one cycle's control information as a complete framed segment.
///
/// The payload is self-describing: window, granularity, items-per-bucket
/// and the SGT presence flags precede the report bodies, so the decoder
/// needs nothing beyond the fixed [`WireParams`] widths.
pub fn encode_control_segment(ctrl: &ControlInfo, params: WireParams) -> Vec<u8> {
    append_control_segment(Vec::new(), ctrl, params)
}

fn append_control_segment(out: Vec<u8>, ctrl: &ControlInfo, params: WireParams) -> Vec<u8> {
    append_segment(out, SegmentKind::Control, ctrl.cycle(), |w| {
        let inv = ctrl.invalidation();
        w.put(u64::from(inv.window()), 32);
        w.put(u64::from(inv.granularity() == Granularity::Bucket), 1);
        w.put(u64::from(inv.items_per_bucket()), 32);
        w.put(u64::from(ctrl.augmented().is_some()), 1);
        w.put(u64::from(ctrl.graph_diff().is_some()), 1);
        encode_invalidation_into(w, inv, params);
        if let Some(aug) = ctrl.augmented() {
            encode_augmented_into(w, aug, ctrl.cycle(), params);
        }
        if let Some(diff) = ctrl.graph_diff() {
            encode_diff_into(w, diff, ctrl.cycle(), params);
        }
    })
}

/// Decodes a control-segment payload for `cycle`, graph diff included.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated or malformed
/// payload (including report invariant violations — see
/// [`crate::wire::decode_augmented`] and [`crate::wire::decode_diff`]).
pub fn decode_control_payload(
    payload: &[u8],
    params: WireParams,
    cycle: Cycle,
) -> Result<ControlInfo, BpushError> {
    decode_control_with(payload, params, cycle, &mut |_| true)
}

/// Decodes a control-segment payload for `cycle`, reading its graph diff
/// only if `read_diff` asks for it.
///
/// The invalidation and augmented reports are decoded first, into
/// control information without a diff; `read_diff` sees that head when
/// the payload carries a diff. The diff is the payload's last field, so
/// when `read_diff` answers `false` its bits are left unread — neither
/// decoded nor checked — and the head is returned as it is. When it
/// answers `true` the diff is decoded under every admission rule of
/// [`crate::wire::decode_diff`] and attached.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated or malformed
/// payload, within the fields it reads.
pub fn decode_control_with(
    payload: &[u8],
    params: WireParams,
    cycle: Cycle,
    read_diff: &mut dyn FnMut(&ControlInfo) -> bool,
) -> Result<ControlInfo, BpushError> {
    let mut r = BitReader::new(payload);
    let window = r.take_u32(32)?;
    let bucket = r.take(1)? == 1;
    let items_per_bucket = r.take_u32(32)?;
    let has_augmented = r.take(1)? == 1;
    let has_diff = r.take(1)? == 1;
    let granularity = if bucket {
        Granularity::Bucket
    } else {
        Granularity::Item
    };
    let invalidation =
        decode_invalidation_from(&mut r, params, cycle, window, granularity, items_per_bucket)?;
    let augmented = if has_augmented {
        Some(decode_augmented_from(&mut r, params, cycle)?)
    } else {
        None
    };
    let head = ControlInfo::try_new(cycle, invalidation, augmented, None)?;
    if has_diff && read_diff(&head) {
        head.try_with_graph_diff(decode_diff_from(&mut r, params, cycle)?)
    } else {
        Ok(head)
    }
}

/// What a wire-fed client hears of `ctrl`: the report encoded as a
/// framed control segment, scanned out of a [`WireFeed`] and decoded
/// back. A faithful codec returns a report equal to `ctrl`.
///
/// # Errors
/// Returns [`BpushError::Internal`] if the self-encoded bytes do not
/// frame and decode as one control segment of `ctrl`'s cycle — a codec
/// bug, never bad input.
pub fn roundtrip_control(
    ctrl: &ControlInfo,
    params: WireParams,
) -> Result<ControlInfo, BpushError> {
    roundtrip_control_with(ctrl, params, &mut |_| true)
}

/// [`roundtrip_control`] for a receiver that reads the graph diff only
/// when `read_diff` asks for it ([`decode_control_with`]). A faithful
/// codec returns a report that [`ControlInfo::is_heard_of`] `ctrl`.
///
/// # Errors
/// As [`roundtrip_control`].
pub fn roundtrip_control_with(
    ctrl: &ControlInfo,
    params: WireParams,
    read_diff: &mut dyn FnMut(&ControlInfo) -> bool,
) -> Result<ControlInfo, BpushError> {
    let mut feed = WireFeed::new();
    feed.push(&encode_control_segment(ctrl, params));
    let seg = feed
        .pop()
        .ok()
        .flatten()
        .filter(|seg| seg.kind == SegmentKind::Control && seg.cycle == ctrl.cycle())
        .ok_or(BpushError::internal(
            "a self-encoded control segment did not frame",
        ))?;
    decode_control_with(seg.payload, params, seg.cycle, read_diff)
        .map_err(|_| BpushError::internal("a self-encoded control segment did not decode"))
}

/// Encodes data-segment records (current versions with their SGT tags
/// and overflow pointers) as a complete framed segment. Values carry no
/// payload bytes in this model — a value is identified by its writer —
/// so a record transmits the item key, the value's writer, the optional
/// last-writer tag and the optional overflow pointer.
pub fn encode_data_segment(cycle: Cycle, records: &[ItemRecord], params: WireParams) -> Vec<u8> {
    append_data_segment(Vec::new(), cycle, records, params)
}

fn append_data_segment(
    out: Vec<u8>,
    cycle: Cycle,
    records: &[ItemRecord],
    params: WireParams,
) -> Vec<u8> {
    append_segment(out, SegmentKind::Data, cycle, |w| {
        w.put(records.len() as u64, 32);
        for rec in records {
            w.put(u64::from(rec.item().index()), params.key_bits);
            put_opt_txn(w, rec.value().writer(), cycle, params);
            put_opt_txn(w, rec.last_writer(), cycle, params);
            match rec.overflow_ptr() {
                Some(ptr) => {
                    w.put(1, 1);
                    w.put(ptr, 64);
                }
                None => w.put(0, 1),
            }
        }
    })
}

/// Decodes a data-segment payload for `cycle`.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated stream.
pub fn decode_data_payload(
    payload: &[u8],
    params: WireParams,
    cycle: Cycle,
) -> Result<Vec<ItemRecord>, BpushError> {
    let mut r = BitReader::new(payload);
    let count = r.take(32)?;
    // 3 flag bits + the item key is the minimum footprint of one record
    let mut records = Vec::with_capacity(capped_capacity(count, params.key_bits + 3, &r));
    for _ in 0..count {
        let item = ItemId::new(r.take_u32(params.key_bits)?);
        let value = match take_opt_txn(&mut r, cycle, params)? {
            Some(writer) => ItemValue::written_by(writer),
            None => ItemValue::initial(),
        };
        let tag = take_opt_txn(&mut r, cycle, params)?;
        let mut rec = ItemRecord::new(item, value, tag);
        if r.take(1)? == 1 {
            rec = rec.with_overflow_ptr(r.take(64)?);
        }
        records.push(rec);
    }
    Ok(records)
}

fn put_opt_txn(w: &mut BitWriter, t: Option<TxnId>, now: Cycle, params: WireParams) {
    match t {
        Some(t) => {
            w.put(1, 1);
            crate::wire::put_txn(w, t, now, params);
        }
        None => w.put(0, 1),
    }
}

// bpush-lint: hot_path — per-record optional-txn decode on the broadcast feed path
#[inline(always)]
fn take_opt_txn(
    r: &mut BitReader<'_>,
    now: Cycle,
    params: WireParams,
) -> Result<Option<TxnId>, BpushError> {
    if r.take(1)? == 0 {
        return Ok(None);
    }
    crate::wire::take_txn(r, now, params).map(Some)
}

/// Encodes a directory as a complete framed segment: one key and one
/// 64-bit slot offset per entry.
pub fn encode_directory_segment(dir: &Directory, params: WireParams) -> Vec<u8> {
    append_directory_segment(Vec::new(), dir, params)
}

fn append_directory_segment(out: Vec<u8>, dir: &Directory, params: WireParams) -> Vec<u8> {
    append_segment(out, SegmentKind::Directory, dir.cycle(), |w| {
        w.put(dir.len() as u64, 32);
        for (item, slot) in dir.entries() {
            w.put(u64::from(item.index()), params.key_bits);
            w.put(slot, 64);
        }
    })
}

/// Decodes a directory payload for `cycle`.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated stream.
pub fn decode_directory_payload(
    payload: &[u8],
    params: WireParams,
    cycle: Cycle,
) -> Result<Directory, BpushError> {
    let mut r = BitReader::new(payload);
    let count = r.take(32)?;
    let mut entries = Vec::with_capacity(capped_capacity(count, params.key_bits + 64, &r));
    for _ in 0..count {
        let item = ItemId::new(r.take_u32(params.key_bits)?);
        let slot = r.take(64)?;
        entries.push((item, slot));
    }
    Ok(Directory::new(cycle, entries))
}

/// Encodes a whole bcast as its on-wire segment sequence: directory (for
/// shifting-position organizations) first, then control, then the data
/// segment — the §2.1 cycle structure a transport actually transmits.
pub fn encode_bcast_segments(bcast: &Bcast, params: WireParams) -> Vec<u8> {
    let mut out = Vec::new();
    if let Some(dir) = bcast.directory() {
        out = append_directory_segment(out, dir, params);
    }
    out = append_control_segment(out, bcast.control(), params);
    append_data_segment(out, bcast.cycle(), bcast.record_slice(), params)
}

/// Decodes any complete segment into its in-memory form.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a malformed payload.
pub fn decode_segment(
    seg: SegmentView<'_>,
    params: WireParams,
) -> Result<DecodedSegment, BpushError> {
    match seg.kind {
        SegmentKind::Control => {
            decode_control_payload(seg.payload, params, seg.cycle).map(DecodedSegment::Control)
        }
        SegmentKind::Data => decode_data_payload(seg.payload, params, seg.cycle)
            .map(|records| DecodedSegment::Data(seg.cycle, records)),
        SegmentKind::Directory => {
            decode_directory_payload(seg.payload, params, seg.cycle).map(DecodedSegment::Directory)
        }
    }
}

/// An incremental segment parser: push byte chunks of any size in, pop
/// complete segments out. This is the client's transport boundary — a
/// socket reader, the simulator and the model checker all feed it the
/// same bytes, and everything past it is the pure protocol core.
///
/// The scan path allocates nothing: [`WireFeed::pop`] hands out
/// [`SegmentView`]s borrowing the internal buffer. Buffer space itself
/// amortizes across [`WireFeed::push`] calls and is compacted as
/// segments are consumed.
///
/// # Example
/// ```
/// use bpush_broadcast::feed::{encode_control_segment, SegmentKind, WireFeed};
/// use bpush_broadcast::wire::WireParams;
/// use bpush_broadcast::ControlInfo;
/// use bpush_types::Cycle;
///
/// let params = WireParams::derive(100, 1, 4, 4);
/// let bytes = encode_control_segment(&ControlInfo::empty(Cycle::new(2)), params);
/// let mut feed = WireFeed::new();
/// // deliver byte-by-byte, as a slow socket would
/// for b in &bytes {
///     feed.push(std::slice::from_ref(b));
/// }
/// let seg = feed.pop().unwrap().expect("one complete segment");
/// assert_eq!(seg.kind, SegmentKind::Control);
/// assert_eq!(seg.cycle, Cycle::new(2));
/// ```
#[derive(Debug, Default, Clone)]
pub struct WireFeed {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by popped segments.
    read: usize,
}

impl WireFeed {
    /// An empty feed.
    pub fn new() -> Self {
        WireFeed::default()
    }

    /// Appends a chunk of transport bytes. Consumed buffer space is
    /// reclaimed here, outside the scan path.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.read == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.read);
        }
        self.read = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed by a popped segment.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pops the next complete segment, or `None` when more bytes are
    /// needed. The view borrows this feed's buffer and is consumed by
    /// the call — the next `pop` moves past it.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] on an unknown segment kind:
    /// the stream is unsynchronized and the transport must resync (§2.1
    /// self-description) before feeding more bytes.
    // bpush-lint: hot_path — the segment-boundary scan of the broadcast feed path
    pub fn pop(&mut self) -> Result<Option<SegmentView<'_>>, BpushError> {
        let Some((&kind_byte, rest)) = self.buf.get(self.read..).and_then(<[u8]>::split_first)
        else {
            return Ok(None);
        };
        let kind = SegmentKind::from_byte(kind_byte)?;
        let (Some(Ok(cycle)), Some(Ok(len))) = (
            rest.get(..8).map(<[u8; 8]>::try_from),
            rest.get(8..12).map(<[u8; 4]>::try_from),
        ) else {
            return Ok(None);
        };
        let Some(payload) = usize::try_from(u32::from_be_bytes(len))
            .ok()
            .and_then(|len| rest.get(12..)?.get(..len))
        else {
            return Ok(None);
        };
        self.read += SEGMENT_HEADER_BYTES + payload.len();
        Ok(Some(SegmentView {
            kind,
            cycle: Cycle::new(u64::from_be_bytes(cycle)),
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{AugmentedReport, InvalidationReport};
    use bpush_sgraph::GraphDiff;

    fn params() -> WireParams {
        WireParams::derive(1000, 4, 10, 8)
    }

    fn sgt_control(cycle: u64) -> ControlInfo {
        let c = Cycle::new(cycle);
        let prev = c.prev();
        let inv = InvalidationReport::with_dated(
            c,
            4,
            [
                (ItemId::new(3), prev),
                (ItemId::new(99), Cycle::new(cycle.saturating_sub(9))),
            ],
            Granularity::Item,
            4,
        );
        let aug = AugmentedReport::new(prev, [(ItemId::new(3), TxnId::new(prev, 2))]);
        let old = TxnId::new(Cycle::ZERO, 1);
        let diff = GraphDiff::new(
            prev,
            vec![TxnId::new(prev, 2)],
            vec![(old, TxnId::new(prev, 2))],
        );
        ControlInfo::new(c, inv, Some(aug), Some(diff))
    }

    #[test]
    fn control_segment_roundtrip_with_sgt_reports() {
        let ctrl = sgt_control(20);
        let bytes = encode_control_segment(&ctrl, params());
        let mut feed = WireFeed::new();
        feed.push(&bytes);
        let seg = feed.pop().unwrap().expect("complete");
        assert_eq!(seg.kind, SegmentKind::Control);
        assert_eq!(seg.cycle, Cycle::new(20));
        let decoded = decode_control_payload(seg.payload, params(), seg.cycle).unwrap();
        assert_eq!(decoded, ctrl);
    }

    /// The bytes on air are pinned: this literal is what the parent of
    /// the word-level codec (the bit-at-a-time writer) emitted for the
    /// same report — header, in-band fields, a direct and an escaped age,
    /// an escaped diff endpoint, the zero-padded last byte.
    #[test]
    fn control_segment_bytes_are_golden() {
        let golden = "0000000000000000140000002d0000000400000002600000401918f80000\
                      000000000058000008062400000224000003e0000000000000000224";
        let bytes = encode_control_segment(&sgt_control(20), params());
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, golden);
    }

    #[test]
    fn roundtrip_control_hears_what_was_sent() {
        let ctrl = sgt_control(20);
        assert_eq!(roundtrip_control(&ctrl, params()).unwrap(), ctrl);
    }

    /// The diff is read only when asked for, after the reports: the
    /// question sees the head, an unread diff leaves the head as the
    /// decode, and its bits are not looked at — a payload cut inside the
    /// diff decodes to the same head, and to an error when the diff is
    /// read. A control without a diff asks nothing.
    #[test]
    fn an_unread_diff_is_left_unread() {
        let ctrl = sgt_control(20);
        let bytes = encode_control_segment(&ctrl, params());
        let payload = bytes.get(SEGMENT_HEADER_BYTES..).unwrap();
        let cut = payload.get(..payload.len() - 1).unwrap();
        let mut asked = None;
        let head = decode_control_with(payload, params(), ctrl.cycle(), &mut |head| {
            asked = Some(head.clone());
            false
        })
        .unwrap();
        assert_eq!(head.graph_diff(), None);
        assert!(head.is_heard_of(&ctrl) && head != ctrl);
        assert_eq!(asked.as_ref(), Some(&head));
        let read =
            |bytes, read: bool| decode_control_with(bytes, params(), ctrl.cycle(), &mut |_| read);
        assert_eq!(read(cut, false).unwrap(), head);
        assert!(read(cut, true).is_err());
        assert_eq!(read(payload, true).unwrap(), ctrl);

        let bare = ControlInfo::new(ctrl.cycle(), ctrl.invalidation().clone(), None, None);
        let bytes = encode_control_segment(&bare, params());
        let decoded = decode_control_with(
            bytes.get(SEGMENT_HEADER_BYTES..).unwrap(),
            params(),
            bare.cycle(),
            &mut |_| unreachable!("no diff to ask about"),
        );
        assert_eq!(decoded.unwrap(), bare);
    }

    /// Cycle zero has no previous cycle for an augmented report or a
    /// graph diff to cover: a control segment there carrying either is
    /// malformed input, an error and not a panic. A diff left unread is
    /// not looked at, so alone it costs nothing.
    #[test]
    fn previous_cycle_reports_at_cycle_zero_are_rejected() {
        let p = params();
        for (augmented, diff) in [(1, 0), (0, 1), (1, 1)] {
            let mut w = BitWriter::new();
            w.put(1, 32); // window
            w.put(0, 1); // item granularity
            w.put(1, 32); // items per bucket
            w.put(augmented, 1);
            w.put(diff, 1);
            for _ in 0..3 {
                w.put(0, p.count_bits); // empty report bodies
            }
            let payload = w.into_bytes();
            for read in [false, true] {
                let decoded = decode_control_with(&payload, p, Cycle::ZERO, &mut |_| read);
                if augmented == 0 && !read {
                    assert_eq!(decoded.unwrap(), ControlInfo::empty(Cycle::ZERO));
                } else {
                    assert!(decoded.is_err(), "flags {augmented}{diff}, read {read}");
                }
            }
        }
    }

    #[test]
    fn bucket_granularity_and_window_ride_in_band() {
        let c = Cycle::new(7);
        let inv = InvalidationReport::new(
            c,
            3,
            [ItemId::new(5), ItemId::new(11)],
            Granularity::Bucket,
            4,
        );
        let ctrl = ControlInfo::new(c, inv, None, None);
        let bytes = encode_control_segment(&ctrl, params());
        let mut feed = WireFeed::new();
        feed.push(&bytes);
        let seg = feed.pop().unwrap().expect("complete");
        let decoded = decode_control_payload(seg.payload, params(), seg.cycle).unwrap();
        assert_eq!(decoded, ctrl);
        assert_eq!(decoded.invalidation().granularity(), Granularity::Bucket);
        assert_eq!(decoded.invalidation().window(), 3);
        // conservative bucket verdicts survive the wire
        assert!(decoded.invalidation().invalidates(ItemId::new(4)));
    }

    #[test]
    fn arbitrary_chunk_boundaries_reassemble() {
        let a = encode_control_segment(&sgt_control(20), params());
        let b = encode_control_segment(&ControlInfo::empty(Cycle::new(21)), params());
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        for chunk in [1usize, 2, 3, 7, stream.len()] {
            let mut feed = WireFeed::new();
            let mut cycles = Vec::new();
            for piece in stream.chunks(chunk) {
                feed.push(piece);
                while let Some(seg) = feed.pop().unwrap() {
                    cycles.push(seg.cycle.number());
                }
            }
            assert_eq!(cycles, vec![20, 21], "chunk size {chunk}");
            assert_eq!(feed.buffered(), 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn data_segment_roundtrip() {
        let c = Cycle::new(9);
        let w = TxnId::new(Cycle::new(7), 3);
        let records = vec![
            ItemRecord::new(ItemId::new(0), ItemValue::initial(), None),
            ItemRecord::new(ItemId::new(5), ItemValue::written_by(w), Some(w)),
            ItemRecord::new(ItemId::new(7), ItemValue::written_by(w), None).with_overflow_ptr(12),
        ];
        let bytes = encode_data_segment(c, &records, params());
        let mut feed = WireFeed::new();
        feed.push(&bytes);
        let seg = feed.pop().unwrap().expect("complete");
        assert_eq!(seg.kind, SegmentKind::Data);
        match decode_segment(seg, params()).unwrap() {
            DecodedSegment::Data(cycle, decoded) => {
                assert_eq!(cycle, c);
                assert_eq!(decoded, records);
            }
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn directory_segment_roundtrip() {
        let dir = Directory::new(
            Cycle::new(4),
            (0..10u32).map(|i| (ItemId::new(i), u64::from(i) + 3)),
        );
        let bytes = encode_directory_segment(&dir, params());
        let mut feed = WireFeed::new();
        feed.push(&bytes);
        let seg = feed.pop().unwrap().expect("complete");
        assert_eq!(seg.kind, SegmentKind::Directory);
        match decode_segment(seg, params()).unwrap() {
            DecodedSegment::Directory(decoded) => assert_eq!(decoded, dir),
            other => panic!("expected directory, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_byte_is_an_error_not_a_panic() {
        let mut feed = WireFeed::new();
        feed.push(&[9, 0, 0, 0]);
        assert!(feed.pop().is_err());
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let ctrl = sgt_control(20);
        let bytes = encode_control_segment(&ctrl, params());
        let seg = SegmentView {
            kind: SegmentKind::Control,
            cycle: Cycle::new(20),
            payload: bytes.get(SEGMENT_HEADER_BYTES..bytes.len() - 1).unwrap(),
        };
        assert!(decode_segment(seg, params()).is_err());
    }

    #[test]
    fn empty_feed_pops_nothing() {
        let mut feed = WireFeed::new();
        assert!(feed.pop().unwrap().is_none());
        feed.push(&[0]); // a control kind byte alone is not a header
        assert!(feed.pop().unwrap().is_none());
        assert_eq!(feed.buffered(), 1);
    }
}
