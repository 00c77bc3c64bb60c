//! Compact wire formats for the shuffle data plane.
//!
//! The sort-merge shuffle (DESIGN.md §3a) moves *runs* of
//! `(key, value-block)` groups between map and reduce tasks. For the
//! similarity plane those payloads are extremely regular — sorted read
//! ids and bit-packed `(band, signature)` bucket keys — and the wire
//! representation exploits that:
//!
//! * **Varints** ([`put_uvarint`]/[`get_uvarint`]): LEB128, 7 bits per
//!   byte, little-endian groups, so small integers (counts, read ids,
//!   deltas) cost 1–3 bytes instead of a fixed 4 or 8.
//! * **[`IdRun`]**: a strictly-increasing run of `u32` ids stored as
//!   `varint(count) · varint(first) · varint(delta)*` — consecutive ids
//!   cost one byte each. This is the typed payload the banded stages
//!   shuffle instead of raw `u32` ids or `(u32, u32)` pairs.
//! * **[`BandKeyCodec`]**: packs a `(band, signature)` bucket key into
//!   the low `band_bits + sig_bits` bits of a `u64` (band in the top
//!   bits, signature truncated to the low bits) and prices it at the
//!   packed byte width.
//!
//! The hot path is allocation-free (DESIGN.md §3a.1 addendum): a
//! singleton run — what the banded mappers emit once per
//! `(bucket, read)` and per `(read, partner)` — is at most six encoded
//! bytes and lives inline in the [`IdRun`] itself, reduce-side
//! consumption walks the varint stream in place with [`IdRunCursor`],
//! and combiner/reducer merges stream N cursors into one output buffer
//! ([`IdRun::merge_cursors`]) instead of decoding to `Vec<u32>` and
//! re-encoding. The encoded bytes these paths produce are bit-identical
//! to the materializing paths they replaced, which the property tests
//! in `tests/wire.rs` pin against a decode-concat-sort oracle built from
//! [`IdRun::decode`] and [`IdRun::from_ids`].
//!
//! Pricing rule: every encoder here reports its size through
//! [`ShuffleSized`], so `shuffled_bytes` equals the *encoded* bytes of
//! the post-combine groups — priced exactly once, at the moment the
//! group enters its sorted run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::job::ShuffleSized;

/// Decode errors. Encoding is infallible; decoding validates framing
/// so a corrupted or mis-typed payload fails loudly instead of
/// yielding wrong groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended inside a varint or before the declared count.
    Truncated,
    /// A varint ran past 10 bytes / 64 bits.
    Overflow,
    /// The ids were not strictly increasing (a delta of 0 on the wire,
    /// or unsorted input handed to a strict encoder).
    NonMonotonic,
    /// Bytes remained after the declared run was decoded.
    TrailingBytes,
    /// An id exceeded `u32::MAX` after delta accumulation.
    IdRange,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire payload truncated"),
            WireError::Overflow => write!(f, "varint overflows u64"),
            WireError::NonMonotonic => write!(f, "id run is not strictly increasing"),
            WireError::TrailingBytes => write!(f, "trailing bytes after id run"),
            WireError::IdRange => write!(f, "decoded id exceeds u32::MAX"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append `v` to `buf` as a LEB128 varint. Returns the encoded width.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
        n += 1;
    }
    buf.push(v as u8);
    n + 1
}

/// Write `v` as a LEB128 varint over the front of `dst`, which must be
/// at least [`uvarint_len`]`(v)` long. Returns the encoded width.
fn write_uvarint(dst: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        dst[n] = (v as u8) | 0x80;
        v >>= 7;
        n += 1;
    }
    dst[n] = v as u8;
    n + 1
}

/// Decode one LEB128 varint from the front of `buf`, returning the
/// value and the bytes consumed.
pub fn get_uvarint(buf: &[u8]) -> Result<(u64, usize), WireError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(WireError::Overflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(WireError::Truncated)
}

/// Encoded width of `v` as a LEB128 varint (1–10 bytes).
pub fn uvarint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Widest singleton encoding: `varint(1)` is one byte and a `u32` id
/// is at most five.
const INLINE_CAP: usize = 6;

/// Storage behind an [`IdRun`]: a heap buffer (wire ingress, merge
/// outputs, multi-id encoders) or, for a singleton, the encoded bytes
/// held inline. Both hold exactly the encoded bytes; every
/// comparison/hash below goes through the byte slice so the two reprs
/// are indistinguishable to consumers.
#[derive(Clone)]
enum Repr {
    Owned(Vec<u8>),
    Inline { len: u8, buf: [u8; INLINE_CAP] },
}

/// A delta/varint-encoded run of strictly-increasing `u32` ids — the
/// typed shuffle payload of the banded similarity plane.
///
/// Wire layout: `varint(count) · varint(ids[0]) · varint(ids[i] −
/// ids[i−1])*`. The struct stores exactly the encoded bytes, so the
/// value a combiner forwards is the value the reducer fetches, and
/// [`ShuffleSized`] pricing is the true on-the-wire size.
#[derive(Clone)]
pub struct IdRun {
    repr: Repr,
}

impl std::fmt::Debug for IdRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdRun").field("buf", &self.bytes()).finish()
    }
}

// Equality/ordering/hashing are over the encoded bytes — the same
// semantics the former `Vec<u8>` field derived, independent of repr.
impl PartialEq for IdRun {
    fn eq(&self, other: &IdRun) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for IdRun {}

impl PartialOrd for IdRun {
    fn partial_cmp(&self, other: &IdRun) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IdRun {
    fn cmp(&self, other: &IdRun) -> std::cmp::Ordering {
        self.bytes().cmp(other.bytes())
    }
}

impl std::hash::Hash for IdRun {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes().hash(state);
    }
}

/// Count varint headroom reserved at the front of streaming-merge
/// output buffers: the final count is unknown until the merge
/// finishes, so deltas are written after a 10-byte gap (the widest
/// possible varint) and the count is backfilled into the gap's tail.
const COUNT_GAP: usize = 10;

impl IdRun {
    /// A run holding the single id `id`. Never allocates: the bytes
    /// `varint(1) · varint(id)` are stored in the value itself.
    pub fn singleton(id: u32) -> IdRun {
        let mut buf = [0u8; INLINE_CAP];
        buf[0] = 1;
        let len = 1 + write_uvarint(&mut buf[1..], u64::from(id));
        IdRun {
            repr: Repr::Inline {
                len: len as u8,
                buf,
            },
        }
    }

    /// Encode an arbitrary id list: sorts and dedups first.
    pub fn from_ids(mut ids: Vec<u32>) -> IdRun {
        ids.sort_unstable();
        ids.dedup();
        IdRun::from_sorted(&ids).expect("sorted+deduped ids are strictly increasing")
    }

    /// Encode a strictly-increasing id slice; rejects unsorted or
    /// duplicated ids instead of silently re-ordering.
    pub fn from_sorted(ids: &[u32]) -> Result<IdRun, WireError> {
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(WireError::NonMonotonic);
        }
        let mut buf = Vec::with_capacity(1 + 2 * ids.len());
        put_uvarint(&mut buf, ids.len() as u64);
        let mut prev = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            let id = u64::from(id);
            if i == 0 {
                put_uvarint(&mut buf, id);
            } else {
                put_uvarint(&mut buf, id - prev);
            }
            prev = id;
        }
        Ok(IdRun {
            repr: Repr::Owned(buf),
        })
    }

    /// Wrap already-encoded bytes without validating them — the shape
    /// of a run arriving off the wire. [`IdRun::decode`] performs the
    /// full validation, so corrupt bytes surface as a [`WireError`]
    /// at the consumer, never as silently wrong ids.
    pub fn from_encoded_unchecked(buf: Vec<u8>) -> IdRun {
        IdRun {
            repr: Repr::Owned(buf),
        }
    }

    /// The encoded bytes, whichever repr holds them.
    #[inline]
    fn bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned(buf) => buf,
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
        }
    }

    /// Open a streaming cursor over the run. Parses (and validates)
    /// only the count prefix; ids are validated lazily as
    /// [`IdRunCursor::try_next`] walks the stream.
    pub fn cursor(&self) -> Result<IdRunCursor<'_>, WireError> {
        let buf = self.bytes();
        let (count, at) = get_uvarint(buf)?;
        Ok(IdRunCursor {
            buf,
            at,
            remaining: count,
            prev: 0,
            started: false,
            failed: false,
        })
    }

    /// Decode back to the id list, validating framing, monotonicity
    /// and the `u32` id range. Capacity is clamped to the remaining
    /// buffer length (every id costs ≥ 1 wire byte), so a hostile
    /// count prefix cannot force a large speculative allocation.
    pub fn decode(&self) -> Result<Vec<u32>, WireError> {
        let mut cur = self.cursor()?;
        let mut ids = Vec::with_capacity((cur.remaining() as usize).min(cur.bytes_left()));
        while let Some(id) = cur.try_next()? {
            ids.push(id);
        }
        Ok(ids)
    }

    /// Walk the whole run without materializing ids, surfacing any
    /// framing/monotonicity/range error [`IdRun::decode`] would.
    pub fn validate(&self) -> Result<(), WireError> {
        let mut cur = self.cursor()?;
        while cur.try_next()?.is_some() {}
        Ok(())
    }

    /// Number of ids in the run (the wire count prefix), or the decode
    /// error for a corrupt count prefix.
    pub fn try_count(&self) -> Result<u64, WireError> {
        get_uvarint(self.bytes()).map(|(c, _)| c)
    }

    /// Exact on-the-wire size in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes().len()
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes()
    }

    /// Merge several runs into one sorted, deduped run — the combiner
    /// and reducer primitive. Decoding failures propagate.
    ///
    /// 0- and 1-run merges short-circuit: the empty merge is the
    /// canonical empty run, and a single run is validated and returned
    /// as-is (every encoder in this module produces canonical bytes,
    /// so the input encoding *is* the merged encoding). Larger merges
    /// stream through [`IdRun::merge_cursors`].
    pub fn merge(runs: &[IdRun]) -> Result<IdRun, WireError> {
        match runs {
            [] => Ok(IdRun::from_sorted(&[]).expect("empty run is sorted")),
            [one] => {
                one.validate()?;
                Ok(one.clone())
            }
            many => IdRun::merge_cursors(many),
        }
    }

    /// K-way streaming merge: heap-merges N cursors, writing
    /// `count · first · deltas` directly into one output buffer —
    /// no intermediate `Vec<u32>`, no re-sort. When the runs are
    /// pairwise disjoint and already ordered (the common combiner
    /// shape: ascending singletons from one map task) a splice fast
    /// path copies each run's delta tail verbatim.
    ///
    /// Output bytes are identical to decoding every run, sorting the
    /// concatenated ids and re-encoding them with [`IdRun::from_ids`]:
    /// the encoding of a sorted deduped id set is canonical, so any
    /// merge that produces the same set produces the same bytes.
    pub fn merge_cursors(runs: &[IdRun]) -> Result<IdRun, WireError> {
        if let Some(spliced) = IdRun::try_splice(runs)? {
            return Ok(spliced);
        }

        let mut cursors = Vec::with_capacity(runs.len());
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (i, run) in runs.iter().enumerate() {
            let mut cur = run.cursor()?;
            if let Some(first) = cur.try_next()? {
                heap.push(Reverse((first, i)));
            }
            cursors.push(cur);
        }

        // Merging never widens an id's varint (the running prev only
        // grows), so the inputs' total wire length plus the count gap
        // bounds the output — one allocation, no growth.
        let cap: usize = runs.iter().map(IdRun::wire_len).sum();
        let mut out = Vec::with_capacity(cap + COUNT_GAP);
        out.resize(COUNT_GAP, 0);
        let mut count = 0u64;
        let mut prev = 0u64;
        // Replace-top instead of pop+push: advancing a cursor sifts
        // the heap once (on PeekMut drop) rather than twice.
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((id, i)) = *top;
            let id = u64::from(id);
            if count == 0 {
                put_uvarint(&mut out, id);
                count = 1;
                prev = id;
            } else if id > prev {
                put_uvarint(&mut out, id - prev);
                count += 1;
                prev = id;
            }
            match cursors[i].try_next() {
                Ok(Some(next)) => *top = Reverse((next, i)),
                Ok(None) => {
                    std::collections::binary_heap::PeekMut::pop(top);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(IdRun::backfill_count(out, count))
    }

    /// Splice fast path for [`IdRun::merge_cursors`]: when every
    /// non-empty run starts strictly after the previous one ends, the
    /// merged stream is `first-or-bridging-delta · verbatim tail` per
    /// run. Returns `Ok(None)` when runs overlap (caller falls back to
    /// the heap merge); decode errors propagate.
    fn try_splice(runs: &[IdRun]) -> Result<Option<IdRun>, WireError> {
        // Cheap pre-scan: first ids must be strictly ascending across
        // the non-empty runs, else the full pass cannot succeed and
        // its output buffer would be wasted.
        let mut prev_first = None;
        for run in runs {
            let mut cur = run.cursor()?;
            if let Some(first) = cur.try_next()? {
                if prev_first.is_some_and(|p| first <= p) {
                    return Ok(None);
                }
                prev_first = Some(first);
            }
        }

        let cap: usize = runs.iter().map(IdRun::wire_len).sum();
        let mut out = Vec::with_capacity(cap + COUNT_GAP);
        out.resize(COUNT_GAP, 0);
        let mut count = 0u64;
        let mut prev_last = 0u64;
        for run in runs {
            let mut cur = run.cursor()?;
            let Some(first) = cur.try_next()? else {
                continue;
            };
            let first = u64::from(first);
            if count == 0 {
                put_uvarint(&mut out, first);
            } else if first > prev_last {
                put_uvarint(&mut out, first - prev_last);
            } else {
                return Ok(None);
            }
            // Validate the tail, then copy its already-encoded delta
            // bytes verbatim — they are the same deltas the merged
            // encoding needs.
            let tail_start = cur.offset();
            let mut last = first;
            let mut tail_ids = 0u64;
            while let Some(id) = cur.try_next()? {
                last = u64::from(id);
                tail_ids += 1;
            }
            out.extend_from_slice(&run.bytes()[tail_start..cur.offset()]);
            count += 1 + tail_ids;
            prev_last = last;
        }
        Ok(Some(IdRun::backfill_count(out, count)))
    }

    /// Finish a streaming-merge buffer: encode `count` into the tail
    /// of the [`COUNT_GAP`] headroom and drop the unused prefix.
    fn backfill_count(mut out: Vec<u8>, count: u64) -> IdRun {
        let width = uvarint_len(count);
        write_uvarint(&mut out[COUNT_GAP - width..], count);
        out.drain(..COUNT_GAP - width);
        IdRun {
            repr: Repr::Owned(out),
        }
    }
}

/// The encoded size *is* the shuffle size — this is what makes
/// `shuffled_bytes` equal the sum of encoded run lengths.
impl ShuffleSized for IdRun {
    fn shuffle_size(&self) -> usize {
        self.wire_len()
    }
}

/// Streaming decoder over an [`IdRun`]'s varint stream: yields ids in
/// place with the exact validation (and [`WireError`] taxonomy) of
/// [`IdRun::decode`], without materializing a `Vec<u32>`.
///
/// `Clone` is cheap (a slice and a few counters), which is what lets
/// the bucket reducer run its triangular pair expansion as nested
/// cursors over one merged run.
#[derive(Debug, Clone)]
pub struct IdRunCursor<'a> {
    buf: &'a [u8],
    at: usize,
    remaining: u64,
    prev: u64,
    started: bool,
    failed: bool,
}

impl IdRunCursor<'_> {
    /// Decode the next id, `Ok(None)` at a clean end of the run. The
    /// cursor fuses after an error: subsequent calls return
    /// `Ok(None)`.
    pub fn try_next(&mut self) -> Result<Option<u32>, WireError> {
        if self.failed {
            return Ok(None);
        }
        if self.remaining == 0 {
            if self.at != self.buf.len() {
                self.failed = true;
                return Err(WireError::TrailingBytes);
            }
            return Ok(None);
        }
        let (v, n) = match get_uvarint(&self.buf[self.at..]) {
            Ok(ok) => ok,
            Err(e) => {
                self.failed = true;
                return Err(e);
            }
        };
        self.at += n;
        let id = if !self.started {
            v
        } else {
            if v == 0 {
                self.failed = true;
                return Err(WireError::NonMonotonic);
            }
            match self.prev.checked_add(v) {
                Some(id) => id,
                None => {
                    self.failed = true;
                    return Err(WireError::IdRange);
                }
            }
        };
        if id > u64::from(u32::MAX) {
            self.failed = true;
            return Err(WireError::IdRange);
        }
        self.prev = id;
        self.started = true;
        self.remaining -= 1;
        Ok(Some(id as u32))
    }

    /// Ids left per the count prefix (assuming the stream is valid).
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Byte offset of the cursor within the encoded run.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Bytes left in the buffer from the cursor position.
    pub fn bytes_left(&self) -> usize {
        self.buf.len() - self.at
    }
}

impl Iterator for IdRunCursor<'_> {
    type Item = Result<u32, WireError>;

    fn next(&mut self) -> Option<Result<u32, WireError>> {
        self.try_next().transpose()
    }
}

/// Bit-packer for `(band, signature)` bucket keys.
///
/// The band index occupies the top `band_bits` bits (just enough for
/// the scheme's band count), the signature is truncated to the low
/// `sig_bits` bits. Truncation can only *merge* buckets, never split
/// them, so banding recall is preserved; the (rare) spurious merges
/// add candidates that the verify stage discards, leaving clustering
/// output bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandKeyCodec {
    band_bits: u32,
    sig_bits: u32,
}

impl BandKeyCodec {
    /// Codec for `bands` bands keeping `sig_bits` signature bits.
    /// Fails when the packed key would not fit in 64 bits or either
    /// width is degenerate.
    pub fn new(bands: usize, sig_bits: u32) -> Result<BandKeyCodec, String> {
        if bands == 0 {
            return Err("band key codec needs ≥ 1 band".into());
        }
        if sig_bits == 0 || sig_bits > 64 {
            return Err(format!("sig_bits {sig_bits} outside 1..=64"));
        }
        let band_bits = if bands == 1 {
            0
        } else {
            64 - (bands as u64 - 1).leading_zeros()
        };
        if band_bits + sig_bits > 64 {
            return Err(format!(
                "packed band key needs {band_bits}+{sig_bits} bits > 64"
            ));
        }
        Ok(BandKeyCodec {
            band_bits,
            sig_bits,
        })
    }

    /// Signature mask: the low `sig_bits` bits.
    pub fn sig_mask(&self) -> u64 {
        if self.sig_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.sig_bits) - 1
        }
    }

    /// Pack `(band, signature)` into one key. The signature is
    /// truncated to `sig_bits`; the band must be within the codec's
    /// range (checked — this is where a silent `usize` truncation
    /// would otherwise corrupt bucket identity).
    pub fn pack(&self, band: u32, sig: u64) -> u64 {
        let max_band = if self.band_bits == 0 {
            1
        } else {
            1u64 << self.band_bits
        };
        assert!(
            u64::from(band) < max_band,
            "band {band} does not fit in {} band bits",
            self.band_bits
        );
        let band_part = if self.sig_bits == 64 {
            0 // band_bits is 0 here, so band is always 0
        } else {
            u64::from(band) << self.sig_bits
        };
        band_part | (sig & self.sig_mask())
    }

    /// Recover `(band, truncated signature)` from a packed key.
    pub fn unpack(&self, key: u64) -> (u32, u64) {
        let band = if self.sig_bits == 64 {
            0
        } else {
            (key >> self.sig_bits) as u32
        };
        (band, key & self.sig_mask())
    }

    /// On-the-wire width of a packed key in whole bytes.
    pub fn wire_bytes(&self) -> usize {
        (((self.band_bits + self.sig_bits) as usize).div_ceil(8)).max(1)
    }

    /// Configured signature width in bits.
    pub fn sig_bits(&self) -> u32 {
        self.sig_bits
    }

    /// Bits used for the band index.
    pub fn band_bits(&self) -> u32 {
        self.band_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_widths() {
        for (v, w) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            assert_eq!(put_uvarint(&mut buf, v), w, "width of {v}");
            assert_eq!(uvarint_len(v), w, "predicted width of {v}");
            assert_eq!(get_uvarint(&buf).unwrap(), (v, w));
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(get_uvarint(&[]), Err(WireError::Truncated));
        assert_eq!(get_uvarint(&[0x80]), Err(WireError::Truncated));
        // 11 continuation bytes: past 64 bits.
        assert_eq!(get_uvarint(&[0xff; 11]), Err(WireError::Overflow));
    }

    #[test]
    fn idrun_roundtrip_and_pricing() {
        for ids in [
            vec![],
            vec![0u32],
            vec![5],
            vec![0, 1, 2, 3],
            vec![7, 1000, 1001, 4_000_000],
            vec![u32::MAX - 1, u32::MAX],
        ] {
            let run = IdRun::from_sorted(&ids).unwrap();
            assert_eq!(run.decode().unwrap(), ids);
            assert_eq!(run.try_count().unwrap(), ids.len() as u64);
            assert_eq!(run.wire_len(), run.as_bytes().len());
            assert_eq!(run.shuffle_size(), run.wire_len());
        }
        // Consecutive ids cost one byte each after the first.
        let run = IdRun::from_sorted(&(100..200).collect::<Vec<u32>>()).unwrap();
        assert_eq!(run.wire_len(), 1 + 1 + 99, "count + first + 99 deltas");
    }

    #[test]
    fn idrun_rejects_bad_input_and_bad_wire() {
        assert_eq!(
            IdRun::from_sorted(&[3, 3]).unwrap_err(),
            WireError::NonMonotonic
        );
        assert_eq!(
            IdRun::from_sorted(&[5, 2]).unwrap_err(),
            WireError::NonMonotonic
        );
        assert_eq!(IdRun::from_ids(vec![5, 2, 5]).decode().unwrap(), vec![2, 5]);

        // Hand-rolled corrupt payloads.
        let truncated = IdRun::from_encoded_unchecked(vec![2, 1]); // count 2, only one id
        assert_eq!(truncated.decode().unwrap_err(), WireError::Truncated);
        let trailing = IdRun::from_encoded_unchecked(vec![1, 1, 9]); // count 1, one id, junk
        assert_eq!(trailing.decode().unwrap_err(), WireError::TrailingBytes);
        let zero_delta = IdRun::from_encoded_unchecked(vec![2, 4, 0]); // delta 0 ⇒ duplicate
        assert_eq!(zero_delta.decode().unwrap_err(), WireError::NonMonotonic);
        let mut overflow = Vec::new();
        put_uvarint(&mut overflow, 2);
        put_uvarint(&mut overflow, u64::from(u32::MAX));
        put_uvarint(&mut overflow, 1); // accumulates past u32::MAX
        assert_eq!(
            IdRun::from_encoded_unchecked(overflow)
                .decode()
                .unwrap_err(),
            WireError::IdRange
        );
    }

    #[test]
    fn idrun_hostile_count_is_cheap_and_rejected() {
        // A count prefix claiming u64::MAX ids over a 2-byte payload
        // must fail fast without a count-sized preallocation.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        buf.push(1);
        let hostile = IdRun::from_encoded_unchecked(buf);
        assert_eq!(hostile.decode().unwrap_err(), WireError::Truncated);
        assert_eq!(hostile.validate().unwrap_err(), WireError::Truncated);
        assert_eq!(hostile.try_count().unwrap(), u64::MAX);
    }

    #[test]
    fn idrun_delta_accumulation_cannot_wrap() {
        // first near u64::MAX (already out of u32 range) fails on the
        // first id; a huge delta after a valid first must fail with
        // IdRange, not wrap around silently.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 2);
        put_uvarint(&mut buf, 7);
        put_uvarint(&mut buf, u64::MAX - 3); // 7 + (u64::MAX - 3) overflows u64
        assert_eq!(
            IdRun::from_encoded_unchecked(buf).decode().unwrap_err(),
            WireError::IdRange
        );
    }

    #[test]
    fn try_count_on_corrupt_prefix() {
        // A truncated or overflowing count varint is an error, not a
        // count of 0.
        let corrupt = IdRun::from_encoded_unchecked(vec![0x80]);
        assert_eq!(corrupt.try_count().unwrap_err(), WireError::Truncated);
        let overflowing = IdRun::from_encoded_unchecked(vec![0xff; 11]);
        assert_eq!(overflowing.try_count().unwrap_err(), WireError::Overflow);
    }

    #[test]
    fn cursor_matches_decode_on_valid_runs() {
        for ids in [
            vec![],
            vec![0u32],
            vec![3, 4, 5, 900],
            vec![u32::MAX - 1, u32::MAX],
        ] {
            let run = IdRun::from_sorted(&ids).unwrap();
            let walked: Vec<u32> = run.cursor().unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(walked, ids);
            run.validate().unwrap();
        }
    }

    #[test]
    fn cursor_fuses_after_error() {
        let trailing = IdRun::from_encoded_unchecked(vec![1, 1, 9]);
        let mut cur = trailing.cursor().unwrap();
        assert_eq!(cur.try_next().unwrap(), Some(1));
        assert_eq!(cur.try_next().unwrap_err(), WireError::TrailingBytes);
        assert_eq!(cur.try_next().unwrap(), None, "fused after error");
    }

    #[test]
    fn idrun_merge_sorts_and_dedups() {
        let a = IdRun::from_sorted(&[1, 5, 9]).unwrap();
        let b = IdRun::from_sorted(&[2, 5, 10]).unwrap();
        let c = IdRun::singleton(5);
        let merged = IdRun::merge(&[a, b, c]).unwrap();
        assert_eq!(merged.decode().unwrap(), vec![1, 2, 5, 9, 10]);
    }

    #[test]
    fn merge_short_circuits_are_canonical() {
        assert_eq!(
            IdRun::merge(&[]).unwrap().as_bytes(),
            IdRun::from_sorted(&[]).unwrap().as_bytes()
        );
        let single = IdRun::from_sorted(&[4, 9, 1000]).unwrap();
        let merged = IdRun::merge(std::slice::from_ref(&single)).unwrap();
        assert_eq!(merged.as_bytes(), single.as_bytes());
        // A corrupt single run still fails instead of passing through.
        let corrupt = IdRun::from_encoded_unchecked(vec![2, 1]);
        assert_eq!(IdRun::merge(&[corrupt]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn streaming_merge_matches_decode_merge() {
        let cases: Vec<Vec<IdRun>> = vec![
            vec![],
            vec![IdRun::from_sorted(&[]).unwrap(); 3],
            // Disjoint + ordered: splice path.
            vec![
                IdRun::from_sorted(&[1, 2, 3]).unwrap(),
                IdRun::from_sorted(&[10, 11]).unwrap(),
                IdRun::singleton(40),
            ],
            // Adjacent boundary (consecutive ids across runs).
            vec![
                IdRun::from_sorted(&[1, 2]).unwrap(),
                IdRun::from_sorted(&[3, 4]).unwrap(),
            ],
            // Overlapping: heap path with dedup.
            vec![
                IdRun::from_sorted(&[1, 5, 9]).unwrap(),
                IdRun::from_sorted(&[2, 5, 10]).unwrap(),
                IdRun::singleton(5),
            ],
            // Ascending firsts but overlapping ranges: splice pre-scan
            // passes, full pass must fall back.
            vec![
                IdRun::from_sorted(&[1, 100]).unwrap(),
                IdRun::from_sorted(&[50, 200]).unwrap(),
            ],
            // Empty runs interleaved.
            vec![
                IdRun::from_sorted(&[]).unwrap(),
                IdRun::singleton(7),
                IdRun::from_sorted(&[]).unwrap(),
                IdRun::from_sorted(&[8, 9]).unwrap(),
            ],
        ];
        for runs in cases {
            let streamed = IdRun::merge_cursors(&runs).unwrap();
            let ids = runs.iter().flat_map(|r| r.decode().unwrap()).collect();
            let oracle = IdRun::from_ids(ids);
            assert_eq!(streamed.as_bytes(), oracle.as_bytes(), "runs: {runs:?}");
            assert_eq!(
                IdRun::merge(&runs).unwrap().as_bytes(),
                oracle.as_bytes(),
                "merge() entry point, runs: {runs:?}"
            );
        }
    }

    #[test]
    fn streaming_merge_propagates_errors() {
        let good = IdRun::from_sorted(&[1, 2]).unwrap();
        let bad = IdRun::from_encoded_unchecked(vec![3, 1, 1]); // count 3, two ids
        assert_eq!(
            IdRun::merge_cursors(&[good.clone(), bad.clone()]).unwrap_err(),
            WireError::Truncated
        );
        assert_eq!(
            IdRun::merge(&[good, bad]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn singleton_is_inline_and_idrun_stays_three_words() {
        assert!(std::mem::size_of::<IdRun>() <= 24);
        // The widest id fills the inline buffer exactly.
        let widest = IdRun::singleton(u32::MAX);
        assert!(matches!(widest.repr, Repr::Inline { .. }));
        assert_eq!(widest.wire_len(), INLINE_CAP);
        assert_eq!(
            widest.as_bytes(),
            IdRun::from_sorted(&[u32::MAX]).unwrap().as_bytes()
        );
    }

    #[test]
    fn band_key_pack_unpack() {
        let codec = BandKeyCodec::new(3, 22).unwrap();
        assert_eq!(codec.band_bits(), 2);
        assert_eq!(codec.wire_bytes(), 3);
        for band in 0..3u32 {
            for sig in [0u64, 1, 0xdead_beef_dead_beef, u64::MAX] {
                let key = codec.pack(band, sig);
                let (b, s) = codec.unpack(key);
                assert_eq!(b, band);
                assert_eq!(s, sig & codec.sig_mask());
                assert!(key < 1 << 24, "packed key confined to 24 bits");
            }
        }
    }

    #[test]
    fn band_key_full_width_and_degenerate() {
        // One band needs zero band bits; 64 signature bits survive.
        let codec = BandKeyCodec::new(1, 64).unwrap();
        assert_eq!(codec.pack(0, u64::MAX), u64::MAX);
        assert_eq!(codec.unpack(u64::MAX), (0, u64::MAX));
        assert_eq!(codec.wire_bytes(), 8);

        assert!(BandKeyCodec::new(0, 8).is_err());
        assert!(BandKeyCodec::new(2, 0).is_err());
        assert!(BandKeyCodec::new(2, 64).is_err(), "65 bits cannot pack");
        assert!(BandKeyCodec::new(3, 65).is_err());
    }

    #[test]
    #[should_panic(expected = "band 4 does not fit")]
    fn band_key_out_of_range_band_panics() {
        let codec = BandKeyCodec::new(3, 22).unwrap();
        codec.pack(4, 0);
    }
}
