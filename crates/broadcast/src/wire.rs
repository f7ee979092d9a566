//! Bit-exact wire encoding of the control information.
//!
//! The size model of [`crate::size_model`] *counts* bits; this module
//! actually produces them, so the `⌈·/b⌉` expressions of §3 are backed by
//! a real codec: invalidation reports, augmented reports and graph diffs
//! round-trip through packed bit streams whose lengths match the model.
//!
//! Field widths follow the paper's economies: item keys use `log₂ D`
//! bits, update ages `log₂(w + 1)` bits relative to the report cycle
//! ("instead of broadcasting the number of the cycle ... we can broadcast
//! the difference", §3.2), and transaction identifiers `log₂ N` bits of
//! sequence plus `log₂ S` bits of cycle age (§3.3). Each age field
//! reserves one escape code for cycles outside the relative range (see
//! [`WireParams`]), so decoding is always *exact* — never a clamped
//! approximation of what the server put on the air. Fields are read by
//! primitives inlined into each report's loop, through [`BitReader`].

// bpush-lint: decode_path — all broadcast-feed input is read through BitReader take_* accessors

// bpush-lint: sans_io — protocol core: the codec is pure bytes-in/bytes-out (the ROADMAP item-1 sans-IO boundary)

use bpush_types::{BpushError, Cycle, Granularity, ItemId, TxnId};

use crate::control::{AugmentedReport, InvalidationReport};

/// Fixed field widths for one deployment, derived from the broadcast
/// parameters.
///
/// Age fields reserve their all-ones pattern as an escape code: an age
/// outside the direct range (an update re-announced from before the
/// window, a conflict edge from a transaction older than the relevance
/// horizon) is transmitted as the escape followed by the absolute
/// 64-bit cycle number. Every cycle therefore round-trips exactly; the
/// compact relative form remains the common case the paper's §3.2
/// economy describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireParams {
    /// Bits per item key: `⌈log₂ D⌉`.
    pub key_bits: u32,
    /// Bits per update age: `⌈log₂(window + 2)⌉` — window + 1 direct
    /// ages (0..=window) plus the reserved escape code.
    pub age_bits: u32,
    /// Bits per in-cycle transaction sequence number: `⌈log₂ N⌉`.
    pub seq_bits: u32,
    /// Bits per transaction cycle age: `⌈log₂(S + 2)⌉` — span + 1
    /// direct ages plus the reserved escape code.
    pub txn_age_bits: u32,
    /// Bits for entry counts (report/diff lengths).
    pub count_bits: u32,
}

impl WireParams {
    /// Derives widths for a broadcast of `d_items` items, report window
    /// `window`, `n_txns` transactions per cycle and a transaction
    /// relevance horizon of `span` cycles.
    pub fn derive(d_items: u32, window: u32, n_txns: u32, span: u32) -> Self {
        let bits = |n: u64| -> u32 { crate::size_model::bits_for(n) };
        WireParams {
            key_bits: bits(u64::from(d_items.saturating_sub(1))),
            // +1 keeps the all-ones escape code out of the direct range
            // even when the bound itself is all-ones (window 1, 3, 7…).
            age_bits: bits(u64::from(window) + 1),
            seq_bits: bits(u64::from(n_txns.saturating_sub(1))),
            txn_age_bits: bits(u64::from(span) + 1),
            count_bits: 24,
        }
    }
}

/// The all-ones escape pattern of a `width`-bit age field.
const fn age_escape(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// Writes the cycle `then` relative to `now` as a `width`-bit age.
/// Ages that fit below the escape pattern are written directly; older
/// (or future-dated) cycles escape to an absolute 64-bit cycle number,
/// so any cycle round-trips exactly.
fn put_cycle_rel(w: &mut BitWriter, now: Cycle, then: Cycle, width: u32) {
    let escape = age_escape(width);
    match now.number().checked_sub(then.number()) {
        Some(age) if age < escape => w.put(age, width),
        _ => {
            w.put(escape, width);
            w.put(then.number(), 64);
        }
    }
}

/// Reads a cycle written by [`put_cycle_rel`].
// bpush-lint: hot_path — per-entry age decode on the broadcast feed path
#[inline(always)]
fn take_cycle_rel(r: &mut BitReader<'_>, now: Cycle, width: u32) -> Result<Cycle, BpushError> {
    let age = r.take(width)?;
    if age == age_escape(width) {
        return Ok(Cycle::new(r.take(64)?));
    }
    Ok(Cycle::new(now.number().saturating_sub(age)))
}

/// Bounds a decode-side `Vec` preallocation: an honest stream carrying
/// `count` entries of at least `entry_bits` each must still hold that
/// many bits past the reader's position, so capacity beyond that bound
/// only serves adversarial counts (a 24-bit count field can claim 16M
/// entries on a 3-byte stream).
pub(crate) fn capped_capacity(count: u64, entry_bits: u32, r: &BitReader<'_>) -> usize {
    // bpush-lint: allow(panic-reach) — the divisor is clamped to ≥ 1
    count.min(r.remaining_bits() / u64::from(entry_bits.max(1))) as usize
}

/// An append-only bit stream.
///
/// Fields accumulate in a 64-bit word and leave it a whole byte at a
/// time, so a `put` costs a shift and at most one slice append rather
/// than a loop over its bits. The stream is MSB-first: the first bit put
/// is the high bit of the first byte.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Where this stream began in `bytes` (a framed segment's payload
    /// follows its header in the same buffer).
    start: usize,
    /// The bits not yet in `bytes` are the low `pending` bits of `acc`
    /// (fewer than eight between calls); what lies above them has been
    /// written and is shifted out, never read.
    acc: u64,
    pending: u32,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// A stream appended to `bytes`: what is already there stays, and
    /// [`BitWriter::bit_len`] counts from its end.
    pub(crate) fn onto(bytes: Vec<u8>) -> Self {
        BitWriter {
            start: bytes.len(),
            bytes,
            acc: 0,
            pending: 0,
        }
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds 64, or if `value` does not fit.
    pub fn put(&mut self, value: u64, width: u32) {
        assert!((1..=64).contains(&width), "width must be 1..=64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        // Up to seven bits are pending, so a field wider than 56 could
        // overflow the accumulator: it goes in as two halves.
        if width > 56 {
            self.put_short(value >> 32, width - 32);
            self.put_short(value & 0xFFFF_FFFF, 32);
        } else {
            self.put_short(value, width);
        }
    }

    /// `put` for `width <= 56`: shift the field in under the pending
    /// bits, then move every whole byte out.
    fn put_short(&mut self, value: u64, width: u32) {
        self.acc = (self.acc << width) | value;
        let bits = self.pending + width;
        // left-aligned, the whole bytes come first: append all eight
        // (one fixed-size copy) and keep those
        let aligned = self.acc << (64 - bits);
        let whole = self.bytes.len() + (bits / 8) as usize;
        self.bytes.extend_from_slice(&aligned.to_be_bytes());
        self.bytes.truncate(whole);
        self.pending = bits % 8;
    }

    /// Total bits written.
    pub fn bit_len(&self) -> u64 {
        (self.bytes.len() - self.start) as u64 * 8 + u64::from(self.pending)
    }

    /// Finishes the stream, returning the packed bytes (the last byte
    /// zero-padded on the right).
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.put_short(0, 8 - self.pending);
        }
        self.bytes
    }
}

/// A sequential bit-stream reader over a refill accumulator: the unread
/// bits wait left-aligned in a `u64`, so a field is a shift and a mask,
/// and one checked eight-byte load refills it (bytewise near the end).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// The first byte not yet loaded into `acc`.
    next: usize,
    /// The top `held` bits of `acc` are the next unread ones; below them
    /// lie zeros or the stream's own bits that follow.
    acc: u64,
    held: u32,
}

impl<'a> BitReader<'a> {
    /// Reads from packed bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            next: 0,
            acc: 0,
            held: 0,
        }
    }

    /// Reads `width` bits, most significant first. `take(0)` is `Ok(0)`
    /// and consumes nothing.
    ///
    /// # Errors
    /// Returns [`BpushError::InvalidConfig`] on stream underflow, or
    /// when `width` exceeds 64; the position does not move.
    // bpush-lint: hot_path — per-field decode primitive on the broadcast feed path
    #[inline(always)]
    pub fn take(&mut self, width: u32) -> Result<u64, BpushError> {
        if width <= self.held {
            return Ok(self.take_held(width));
        }
        if width > 64 {
            return Err(malformed("bit field wider than 64 bits"));
        }
        if u64::from(width) > self.remaining_bits() {
            return Err(malformed("bit stream underflow"));
        }
        self.refill();
        if width <= self.held {
            return Ok(self.take_held(width));
        }
        // a 57–64-bit field can outrun one refill: two halves
        let high = self.take_held(width - 32);
        self.refill();
        Ok(high << 32 | self.take_held(32))
    }

    /// The top `width <= held` bits, consumed; `held < 64` bounds the shifts.
    // bpush-lint: hot_path — the shift-and-mask of every field read
    #[inline(always)]
    fn take_held(&mut self, width: u32) -> u64 {
        let out = (self.acc >> 1) >> (63 - width);
        self.acc <<= width;
        self.held -= width;
        out
    }

    /// Loads whole bytes until at least 56 bits are held or none are left.
    // bpush-lint: hot_path — refill of the per-field decode primitive
    #[inline(always)]
    fn refill(&mut self) {
        let whole = (63 - self.held) / 8;
        let word = self.bytes.get(self.next..self.next + 8);
        if let Some(Ok(word)) = word.map(<[u8; 8]>::try_from) {
            self.acc |= u64::from_be_bytes(word) >> self.held;
            self.next += whole as usize;
            self.held += 8 * whole;
            return;
        }
        for &byte in self.bytes.iter().skip(self.next).take(whole as usize) {
            self.acc |= u64::from(byte) << (56 - self.held);
            self.next += 1;
            self.held += 8;
        }
    }

    /// Reads `width` bits narrowed checked to `u32`: a field that does not
    /// fit is malformed input, an error rather than truncated.
    // bpush-lint: hot_path — per-field decode primitive on the broadcast feed path
    #[inline(always)]
    pub(crate) fn take_u32(&mut self, width: u32) -> Result<u32, BpushError> {
        u32::try_from(self.take(width)?)
            .map_err(|_| malformed("wire field does not fit in 32 bits"))
    }

    /// Bits consumed so far.
    pub fn position(&self) -> u64 {
        self.next as u64 * 8 - u64::from(self.held)
    }

    /// Bits still unread.
    // bpush-lint: hot_path — decode-side budget probe on the broadcast feed path
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() - self.next) as u64 * 8 + u64::from(self.held)
    }
}

/// Malformed input: cold, so the message's allocation stays off the inlined reads.
#[cold]
fn malformed(what: &'static str) -> BpushError {
    BpushError::invalid_config(what)
}

/// Encodes an invalidation report: count, then per entry the item key and
/// the update age (report cycle − update cycle).
pub fn encode_invalidation(report: &InvalidationReport, params: WireParams) -> Vec<u8> {
    let mut w = BitWriter::new();
    encode_invalidation_into(&mut w, report, params);
    w.into_bytes()
}

/// Appends an invalidation report to an open bit stream (the segment
/// framing layer embeds reports mid-stream).
pub(crate) fn encode_invalidation_into(
    w: &mut BitWriter,
    report: &InvalidationReport,
    params: WireParams,
) {
    w.put(report.dated_items().len() as u64, params.count_bits);
    for &(item, update_cycle) in report.dated_items() {
        w.put(u64::from(item.index()), params.key_bits);
        put_cycle_rel(w, report.cycle(), update_cycle, params.age_bits);
    }
}

/// Decodes an invalidation report broadcast at `cycle` with window
/// `window`.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated stream.
pub fn decode_invalidation(
    bytes: &[u8],
    params: WireParams,
    cycle: Cycle,
    window: u32,
    granularity: Granularity,
    items_per_bucket: u32,
) -> Result<InvalidationReport, BpushError> {
    let mut r = BitReader::new(bytes);
    decode_invalidation_from(&mut r, params, cycle, window, granularity, items_per_bucket)
}

/// Reads an invalidation report from an open bit stream.
#[inline(always)]
pub(crate) fn decode_invalidation_from(
    r: &mut BitReader<'_>,
    params: WireParams,
    cycle: Cycle,
    window: u32,
    granularity: Granularity,
    items_per_bucket: u32,
) -> Result<InvalidationReport, BpushError> {
    let count = r.take(params.count_bits)?;
    let cap = capped_capacity(count, params.key_bits + params.age_bits, r);
    let mut entries = Vec::with_capacity(cap);
    for _ in 0..count {
        let item = ItemId::new(r.take_u32(params.key_bits)?);
        let update = take_cycle_rel(r, cycle, params.age_bits)?;
        entries.push((item, update));
    }
    InvalidationReport::try_with_dated(cycle, window, entries, granularity, items_per_bucket)
}

pub(crate) fn put_txn(w: &mut BitWriter, t: TxnId, now: Cycle, params: WireParams) {
    put_cycle_rel(w, now, t.cycle(), params.txn_age_bits);
    w.put(u64::from(t.seq()), params.seq_bits);
}

// bpush-lint: hot_path — per-entry transaction-id decode on the broadcast feed path
#[inline(always)]
pub(crate) fn take_txn(
    r: &mut BitReader<'_>,
    now: Cycle,
    params: WireParams,
) -> Result<TxnId, BpushError> {
    let cycle = take_cycle_rel(r, now, params.txn_age_bits)?;
    let seq = r.take_u32(params.seq_bits)?;
    Ok(TxnId::new(cycle, seq))
}

/// Encodes an augmented report (item → first writer, §3.3): writers are
/// transmitted as (cycle age, sequence) pairs relative to `now`, the
/// cycle at whose beginning the report airs.
pub fn encode_augmented(report: &AugmentedReport, now: Cycle, params: WireParams) -> Vec<u8> {
    let mut w = BitWriter::new();
    encode_augmented_into(&mut w, report, now, params);
    w.into_bytes()
}

/// Appends an augmented report to an open bit stream.
pub(crate) fn encode_augmented_into(
    w: &mut BitWriter,
    report: &AugmentedReport,
    now: Cycle,
    params: WireParams,
) {
    w.put(report.len() as u64, params.count_bits);
    for &(item, txn) in report.entries() {
        w.put(u64::from(item.index()), params.key_bits);
        put_txn(w, txn, now, params);
    }
}

/// Decodes an augmented report describing the cycle before `now`.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated stream, when
/// `now` is cycle zero, or when a decoded first writer did not commit
/// during the covered cycle (the
/// [`AugmentedReport`] invariant — honest encoders never produce such a
/// stream, so it is malformed input, not a panic).
pub fn decode_augmented(
    bytes: &[u8],
    params: WireParams,
    now: Cycle,
) -> Result<AugmentedReport, BpushError> {
    let mut r = BitReader::new(bytes);
    decode_augmented_from(&mut r, params, now)
}

/// Reads an augmented report from an open bit stream.
#[inline(always)]
pub(crate) fn decode_augmented_from(
    r: &mut BitReader<'_>,
    params: WireParams,
    now: Cycle,
) -> Result<AugmentedReport, BpushError> {
    let covered = covered_cycle(now)?;
    let count = r.take(params.count_bits)?;
    let entry_bits = params.key_bits + params.txn_age_bits + params.seq_bits;
    let mut entries = Vec::with_capacity(capped_capacity(count, entry_bits, r));
    for _ in 0..count {
        let item = ItemId::new(r.take_u32(params.key_bits)?);
        let txn = take_txn(r, now, params)?;
        if txn.cycle() != covered {
            return Err(malformed(
                "augmented-report writer outside the covered cycle",
            ));
        }
        entries.push((item, txn));
    }
    Ok(AugmentedReport::new(covered, entries))
}

/// The cycle an augmented report or graph diff airing at `now` covers,
/// the one before it. Cycle zero has none, so such a report there is
/// malformed input.
#[inline(always)]
fn covered_cycle(now: Cycle) -> Result<Cycle, BpushError> {
    now.checked_sub(1)
        .ok_or_else(|| malformed("a report of the previous cycle at cycle zero"))
}

/// Encodes a graph diff (§3.3): the committed transactions, then the
/// conflict edges as transaction-id pairs.
pub fn encode_diff(diff: &bpush_sgraph::GraphDiff, now: Cycle, params: WireParams) -> Vec<u8> {
    let mut w = BitWriter::new();
    encode_diff_into(&mut w, diff, now, params);
    w.into_bytes()
}

/// Appends a graph diff to an open bit stream.
pub(crate) fn encode_diff_into(
    w: &mut BitWriter,
    diff: &bpush_sgraph::GraphDiff,
    now: Cycle,
    params: WireParams,
) {
    w.put(diff.committed().len() as u64, params.count_bits);
    for &t in diff.committed() {
        put_txn(w, t, now, params);
    }
    w.put(diff.edges().len() as u64, params.count_bits);
    for &(a, b) in diff.edges() {
        put_txn(w, a, now, params);
        put_txn(w, b, now, params);
    }
}

/// Decodes a graph diff describing the cycle before `now`.
///
/// # Errors
/// Returns [`BpushError::InvalidConfig`] on a truncated stream, when
/// `now` is cycle zero, or when the decoded diff is not one an SGT
/// client's window can keep as it is (commits strictly ascending, edges
/// grouped by ascending target, every target a listed commit, no edge
/// twice) — honest encoders never produce such streams, so they are
/// malformed input, not panics.
pub fn decode_diff(
    bytes: &[u8],
    params: WireParams,
    now: Cycle,
) -> Result<bpush_sgraph::GraphDiff, BpushError> {
    let mut r = BitReader::new(bytes);
    decode_diff_from(&mut r, params, now)
}

/// A target's in-edge run longer than this is checked for a repeated
/// source by sorting it in place; a shorter one through a [`RunFilter`].
/// The server's runs are about 25 edges long, nearly all under 64.
const FILTERED_RUN: usize = 64;

/// A 256-bit filter over the sources of one target's run: a source
/// whose bit is set already is compared against the run so far, which a
/// run of 25 sources needs about once. A shared bit costs a scan, never
/// a wrong answer.
#[derive(Default)]
struct RunFilter([u64; 4]);

impl RunFilter {
    /// Marks `from`; `true` if its bit was set already.
    #[inline(always)]
    fn mark(&mut self, from: TxnId) -> bool {
        let key = from.cycle().number() << 32 ^ u64::from(from.seq());
        let bit = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56;
        let Some(word) = self.0.get_mut((bit >> 6) as usize) else {
            return false;
        };
        let mask = 1u64 << (bit & 63);
        let seen = *word & mask != 0;
        *word |= mask;
        seen
    }
}

/// Whether a run longer than [`FILTERED_RUN`], `edges[start..]`, names a
/// source twice: the run is sorted in place, checked, and re-read in the
/// order it was sent. `mark` is a reader at edge `mark.0 <= start`; it is
/// moved to the run's start first, so over a whole diff the re-reads cost
/// O(edges). No allocation.
fn long_run_repeats(
    edges: &mut [(TxnId, TxnId)],
    start: usize,
    mark: &mut (usize, BitReader<'_>),
    now: Cycle,
    params: WireParams,
) -> Result<bool, BpushError> {
    let Some(run) = edges
        .get_mut(start..)
        .filter(|run| run.len() > FILTERED_RUN)
    else {
        return Ok(false);
    };
    let (at, reader) = mark;
    while *at < start {
        take_txn(reader, now, params)?;
        take_txn(reader, now, params)?;
        *at += 1;
    }
    run.sort_unstable();
    let repeats = run.windows(2).any(|w| w.first() == w.last());
    for edge in run.iter_mut() {
        *edge = (
            take_txn(reader, now, params)?,
            take_txn(reader, now, params)?,
        );
        *at += 1;
    }
    Ok(repeats)
}

/// Reads a graph diff from an open bit stream, admitting only a diff an
/// SGT client's window can keep as it is, in O(edges) and without
/// allocating beyond the diff itself:
///
/// * commits of the covered cycle, strictly ascending;
/// * edges pointing forward into the covered cycle, grouped by ascending
///   target — the order the server's conflict tracker emits them in;
/// * every target a listed commit, found by one merge walk along the
///   commits;
/// * no edge twice: within a target's run, through a [`RunFilter`] of its
///   sources, or for a run longer than [`FILTERED_RUN`] by sorting it in
///   place and re-reading it.
#[inline(always)]
pub(crate) fn decode_diff_from(
    r: &mut BitReader<'_>,
    params: WireParams,
    now: Cycle,
) -> Result<bpush_sgraph::GraphDiff, BpushError> {
    let prev = covered_cycle(now)?;
    let txn_bits = params.txn_age_bits + params.seq_bits;
    let n_committed = r.take(params.count_bits)?;
    let mut committed: Vec<TxnId> = Vec::with_capacity(capped_capacity(n_committed, txn_bits, r));
    for _ in 0..n_committed {
        let t = take_txn(r, now, params)?;
        if t.cycle() != prev {
            return Err(malformed("graph-diff commit outside the covered cycle"));
        }
        if committed.last().is_some_and(|&last| last >= t) {
            return Err(malformed("graph-diff commits not strictly ascending"));
        }
        committed.push(t);
    }
    let n_edges = r.take(params.count_bits)?;
    let mut edges: Vec<(TxnId, TxnId)> =
        Vec::with_capacity(capped_capacity(n_edges, 2 * txn_bits, r));
    // the current run: its target's seq (every target is of the covered
    // cycle), its first edge, and its sources' filter; `listed` walks the
    // commits alongside the targets, `mark` the edges behind the runs
    let (mut target, mut start, mut filter) = (u64::MAX, 0, RunFilter::default());
    let mut listed = 0;
    let mut mark = (0, r.clone());
    for at in 0..n_edges as usize {
        let a = take_txn(r, now, params)?;
        let b = take_txn(r, now, params)?;
        if b.cycle() != prev || a >= b {
            return Err(malformed(
                "graph-diff edge does not point forward into the covered cycle",
            ));
        }
        if u64::from(b.seq()) != target {
            if target != u64::MAX && target > u64::from(b.seq()) {
                return Err(malformed(
                    "graph-diff edges not grouped by ascending target",
                ));
            }
            if at - start > FILTERED_RUN
                && long_run_repeats(&mut edges, start, &mut mark, now, params)?
            {
                return Err(malformed("graph-diff edge listed twice"));
            }
            (target, start, filter) = (u64::from(b.seq()), at, RunFilter::default());
            while committed.get(listed).is_some_and(|&t| t < b) {
                listed += 1;
            }
            if committed.get(listed) != Some(&b) {
                return Err(malformed("graph-diff edge target is not a listed commit"));
            }
        }
        if filter.mark(a) && at - start < FILTERED_RUN {
            let run = edges.get(start..).unwrap_or_default();
            if run.iter().any(|&(other, _)| other == a) {
                return Err(malformed("graph-diff edge listed twice"));
            }
        }
        edges.push((a, b));
    }
    if long_run_repeats(&mut edges, start, &mut mark, now, params)? {
        return Err(malformed("graph-diff edge listed twice"));
    }
    Ok(bpush_sgraph::GraphDiff::new(prev, committed, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xFFFF, 16);
        w.put(0, 1);
        w.put(42, 13);
        assert_eq!(w.bit_len(), 33);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.take(3).unwrap(), 0b101);
        assert_eq!(r.take(16).unwrap(), 0xFFFF);
        assert_eq!(r.take(1).unwrap(), 0);
        assert_eq!(r.take(13).unwrap(), 42);
        assert_eq!(r.position(), 33);
        assert!(r.take(8).is_err(), "underflow detected");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_values() {
        let mut w = BitWriter::new();
        w.put(8, 3);
    }

    /// The checked `take` reads bit-for-bit what the original unchecked
    /// indexing read on every in-bounds stream — the L14 fix changes
    /// only the out-of-bounds path (panic → error).
    #[test]
    fn checked_take_matches_the_unchecked_oracle() {
        // The pre-fix algorithm: raw indexing, no underflow handling.
        fn oracle(bytes: &[u8], pos: &mut u64, width: u32) -> u64 {
            let mut out = 0u64;
            for _ in 0..width {
                let byte = bytes[(*pos / 8) as usize];
                let bit = (byte >> (7 - (*pos % 8))) & 1;
                out = (out << 1) | u64::from(bit);
                *pos += 1;
            }
            out
        }
        let mut w = BitWriter::new();
        let fields: [(u64, u32); 6] = [
            (0b1, 1),
            (0x2A, 7),
            (0, 3),
            (0xFFFF_FFFF, 32),
            (0x1234, 13),
            (1, 8),
        ];
        for (value, width) in fields {
            w.put(value, width);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut pos = 0u64;
        for (value, width) in fields {
            let got = r.take(width).unwrap();
            assert_eq!(got, oracle(&bytes, &mut pos, width));
            assert_eq!(got, value);
        }
        assert_eq!(r.position(), pos);
        // Out of bounds is the only divergence: an error, not a panic.
        assert!(r.take(64).is_err());
    }

    /// `take`'s contract at the edges: nothing wider than the `u64` it
    /// returns, and a zero-width field is no field.
    #[test]
    fn take_rejects_over_wide_fields_and_ignores_empty_ones() {
        let bytes = [0xAB; 16];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.take(3).unwrap(), 0b101);
        assert!(r.take(65).is_err(), "no 65-bit field fits a u64");
        assert!(r.take(u32::MAX).is_err());
        assert_eq!(r.position(), 3, "a rejected take consumes nothing");
        assert_eq!(r.take(0).unwrap(), 0);
        assert_eq!(r.position(), 3, "an empty take consumes nothing");
        assert_eq!(r.take(64).unwrap(), 0x5D5D_5D5D_5D5D_5D5D);
        // an empty take is fine even where a real one would underflow
        let mut end = BitReader::new(&[]);
        assert_eq!(end.take(0).unwrap(), 0);
        assert!(end.take(1).is_err());
    }

    /// A 64-bit field (escaped cycles, overflow pointers, directory
    /// slots) starting at each bit offset of a byte: the writer puts it
    /// in two halves, and the reader, whose accumulator holds at most 63
    /// bits, takes it in two halves across a refill.
    #[test]
    fn full_width_fields_roundtrip_at_every_bit_offset() {
        let value = 0x8123_4567_89AB_CDEF_u64;
        for offset in 0..8u32 {
            let mut w = BitWriter::new();
            if offset > 0 {
                w.put((1 << offset) - 1, offset);
            }
            w.put(value, 64);
            w.put(!value, 64);
            w.put(1, 1);
            assert_eq!(w.bit_len(), u64::from(offset) + 129);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), (offset as usize + 129).div_ceil(8));
            let mut r = BitReader::new(&bytes);
            assert_eq!(
                r.take(offset).unwrap(),
                (1 << offset) - 1,
                "offset {offset}"
            );
            assert_eq!(r.take(64).unwrap(), value, "offset {offset}");
            assert_eq!(r.take(64).unwrap(), !value, "offset {offset}");
            assert_eq!(r.take(1).unwrap(), 1, "offset {offset}");
            // a field that ends past the last byte is refused whole
            let mut cut = BitReader::new(bytes.get(..8).unwrap());
            cut.take(offset).unwrap();
            assert_eq!(cut.take(64).is_err(), offset > 0, "offset {offset}");
            assert_eq!(
                cut.position(),
                u64::from(offset) + if offset > 0 { 0 } else { 64 }
            );
        }
    }

    /// A stream appended to a buffer leaves what was there alone and
    /// counts its own bits only (segment payloads follow their header).
    #[test]
    fn a_writer_appends_onto_an_existing_buffer() {
        let mut w = BitWriter::onto(vec![0xEE, 0xFF]);
        assert_eq!(w.bit_len(), 0);
        w.put(0b101, 3);
        w.put(0x1FF, 9);
        assert_eq!(w.bit_len(), 12);
        assert_eq!(w.into_bytes(), vec![0xEE, 0xFF, 0b1011_1111, 0b1111_0000]);
    }

    fn params() -> WireParams {
        WireParams::derive(1000, 4, 10, 8)
    }

    #[test]
    fn derived_widths_are_logarithmic() {
        let p = params();
        assert_eq!(p.key_bits, 10); // log2(999) -> 10
        assert_eq!(p.age_bits, 3); // window 4
        assert_eq!(p.seq_bits, 4); // N = 10
        assert_eq!(p.txn_age_bits, 4); // span 8
    }

    #[test]
    fn invalidation_report_roundtrip() {
        let cycle = Cycle::new(20);
        let report = InvalidationReport::with_dated(
            cycle,
            4,
            [
                (ItemId::new(3), Cycle::new(19)),
                (ItemId::new(999), Cycle::new(17)),
                (ItemId::new(0), Cycle::new(18)),
            ],
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, params());
        let decoded =
            decode_invalidation(&bytes, params(), cycle, 4, Granularity::Item, 1).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn encoded_size_matches_model_scale() {
        // 50 entries at 10 + 3 bits each, plus a 24-bit count
        let cycle = Cycle::new(5);
        let report = InvalidationReport::with_dated(
            cycle,
            1,
            (0..50).map(|i| (ItemId::new(i * 7), Cycle::new(4))),
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, params());
        let bits: usize = 24 + 50 * (10 + 3);
        assert_eq!(bytes.len(), bits.div_ceil(8));
    }

    #[test]
    fn augmented_report_roundtrip() {
        let now = Cycle::new(9);
        let prev = now.prev();
        let report = AugmentedReport::new(
            prev,
            [
                (ItemId::new(1), TxnId::new(prev, 0)),
                (ItemId::new(500), TxnId::new(prev, 9)),
            ],
        );
        let bytes = encode_augmented(&report, now, params());
        let decoded = decode_augmented(&bytes, params(), now).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn graph_diff_roundtrip() {
        let now = Cycle::new(9);
        let prev = now.prev();
        let t0 = TxnId::new(prev, 0);
        let t1 = TxnId::new(prev, 1);
        let old = TxnId::new(Cycle::new(5), 3);
        let diff = bpush_sgraph::GraphDiff::new(prev, vec![t0, t1], vec![(old, t0), (t0, t1)]);
        let bytes = encode_diff(&diff, now, params());
        let decoded = decode_diff(&bytes, params(), now).unwrap();
        assert_eq!(decoded, diff);
    }

    #[test]
    fn empty_payloads_roundtrip() {
        let now = Cycle::new(3);
        let report = InvalidationReport::empty(now);
        let bytes = encode_invalidation(&report, params());
        let decoded = decode_invalidation(&bytes, params(), now, 1, Granularity::Item, 1).unwrap();
        assert!(decoded.is_empty());

        let diff = bpush_sgraph::GraphDiff::empty(now.prev());
        let bytes = encode_diff(&diff, now, params());
        assert_eq!(decode_diff(&bytes, params(), now).unwrap(), diff);
    }

    /// Regression (wire/in-memory divergence): a windowed report may
    /// re-announce an update from *before* the representable age range
    /// (§5.2.2 resynchronization). The old encoder clamped the age, so
    /// the decoded report dated the update later than the server did —
    /// changing `stale_at` verdicts. The escape code round-trips it.
    #[test]
    fn rewound_updates_roundtrip_beyond_the_window() {
        let cycle = Cycle::new(20);
        // window 4 -> 3 age bits -> direct ages 0..=6; age 18 escapes
        let report = InvalidationReport::with_dated(
            cycle,
            4,
            [(ItemId::new(3), Cycle::new(2))],
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, params());
        let decoded =
            decode_invalidation(&bytes, params(), cycle, 4, Granularity::Item, 1).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(decoded.update_cycle(ItemId::new(3)), Some(Cycle::new(2)));
        // the verdict the clamp used to flip: a value current since
        // cycle 3 is NOT stale under an update dated cycle 2
        assert!(!decoded.stale_at(ItemId::new(3), Cycle::new(3)));
    }

    /// Regression (wire/in-memory divergence): graph-diff conflict
    /// edges may originate from transactions older than the relevance
    /// horizon. The old encoder clamped the cycle age, so the decoded
    /// `from` endpoint named a *different transaction* — corrupting the
    /// client's serialization graph. The escape code round-trips it.
    #[test]
    fn old_diff_edge_endpoints_roundtrip_beyond_the_horizon() {
        let now = Cycle::new(40);
        let prev = now.prev();
        // span 8 -> 4 txn-age bits -> direct ages 0..=14; age 40 escapes
        let old = TxnId::new(Cycle::ZERO, 3);
        let t = TxnId::new(prev, 0);
        let diff = bpush_sgraph::GraphDiff::new(prev, vec![t], vec![(old, t)]);
        let bytes = encode_diff(&diff, now, params());
        let decoded = decode_diff(&bytes, params(), now).unwrap();
        assert_eq!(decoded, diff);
        assert_eq!(decoded.edges()[0].0, old);
    }

    /// Regression (wire/in-memory divergence): an entry dated *after*
    /// the report cycle (nothing in the constructor forbids it) used to
    /// encode through `saturating_sub` as age 0 and decode to the report
    /// cycle itself. The escape code round-trips the absolute cycle.
    #[test]
    fn future_dated_entries_roundtrip() {
        let cycle = Cycle::new(20);
        let report = InvalidationReport::with_dated(
            cycle,
            4,
            [(ItemId::new(7), Cycle::new(21))],
            Granularity::Item,
            1,
        );
        let bytes = encode_invalidation(&report, params());
        let decoded =
            decode_invalidation(&bytes, params(), cycle, 4, Granularity::Item, 1).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(decoded.update_cycle(ItemId::new(7)), Some(Cycle::new(21)));
    }

    /// Regression (decode-path robustness): a malformed stream whose
    /// decoded first writer lies outside the covered cycle used to reach
    /// `AugmentedReport::new`'s debug assertion — a panic on untrusted
    /// input. It is now rejected as an error.
    #[test]
    fn malformed_augmented_writers_are_rejected_not_panicked() {
        let now = Cycle::new(9);
        let p = params();
        let mut w = BitWriter::new();
        w.put(1, p.count_bits); // one entry
        w.put(5, p.key_bits); // item 5
        w.put(3, p.txn_age_bits); // writer aged 3 cycles: not now.prev()
        w.put(0, p.seq_bits);
        let err = decode_augmented(&w.into_bytes(), p, now).unwrap_err();
        assert!(err.to_string().contains("covered cycle"), "{err}");
    }

    /// Regression (decode-path robustness): malformed diff streams —
    /// a commit outside the covered cycle, or an edge not pointing
    /// forward into it — used to reach `GraphDiff::new`'s debug
    /// assertions. They are now rejected as errors.
    #[test]
    fn malformed_diff_streams_are_rejected_not_panicked() {
        let now = Cycle::new(9);
        let p = params();
        // a commit aged 2 cycles: not the covered cycle
        let mut w = BitWriter::new();
        w.put(1, p.count_bits);
        w.put(2, p.txn_age_bits);
        w.put(0, p.seq_bits);
        w.put(0, p.count_bits); // no edges
        assert!(decode_diff(&w.into_bytes(), p, now).is_err());
        // an edge whose endpoints are not ordered forward: (prev,1) -> (prev,1)
        let mut w = BitWriter::new();
        w.put(0, p.count_bits); // no commits
        w.put(1, p.count_bits); // one edge
        for _ in 0..2 {
            w.put(1, p.txn_age_bits);
            w.put(1, p.seq_bits);
        }
        assert!(decode_diff(&w.into_bytes(), p, now).is_err());
    }

    /// An adversarial count field (24 bits can claim 16M entries on a
    /// 3-byte stream) must neither preallocate for the claim nor panic:
    /// capacity is bounded by the bits actually present, and the decode
    /// fails with an underflow error.
    #[test]
    fn adversarial_counts_are_capped_and_rejected() {
        let p = params();
        let mut w = BitWriter::new();
        w.put((1 << p.count_bits) - 1, p.count_bits);
        let bytes = w.into_bytes();
        assert!(decode_invalidation(&bytes, p, Cycle::new(5), 1, Granularity::Item, 1).is_err());
        assert!(decode_augmented(&bytes, p, Cycle::new(5)).is_err());
        assert!(decode_diff(&bytes, p, Cycle::new(5)).is_err());
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let cycle = Cycle::new(20);
        let report = InvalidationReport::with_dated(
            cycle,
            1,
            [(ItemId::new(3), Cycle::new(19))],
            Granularity::Item,
            1,
        );
        let mut bytes = encode_invalidation(&report, params());
        bytes.truncate(bytes.len() - 1);
        assert!(decode_invalidation(&bytes, params(), cycle, 1, Granularity::Item, 1).is_err());
    }
}
