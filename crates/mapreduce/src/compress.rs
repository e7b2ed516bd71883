//! Block compression for spill runs and DFS segments.
//!
//! The cluster the paper ran on compressed its intermediate map output
//! (`mapred.compress.map.output`) — at 10⁸–10⁹ points the shuffle is
//! disk- and network-bound, and trading CPU for bytes is the standard
//! Hadoop discipline. This module is a small, dependency-free LZ77
//! byte codec in the LZ4 block format family: greedy hash-chain
//! matching, nibble-packed token byte (literal length high, match
//! length low), 255-continuation length extensions, and 2-byte
//! little-endian match offsets.
//!
//! Every compressed block carries a one-byte mode header:
//!
//! * `0` — **stored**: the payload did not shrink (already-compressed
//!   or high-entropy data), so the raw bytes follow verbatim;
//! * `1` — **compressed**: an LZ-sequence stream follows.
//!
//! [`decompress`] takes the block's raw length, which every caller
//! records beside the stored bytes: it decodes into one buffer of that
//! length plus 16 bytes of slack, moves short literal runs and short
//! non-overlapping matches as one fixed 16-byte copy each, and
//! validates the stream defensively (offsets into the produced output,
//! bounded reads, no output past the raw length), surfacing malformed
//! input as [`Error::Corrupt`], which the runtime's bounded-retry
//! machinery already knows how to absorb.

use crate::error::{Error, Result};

/// Mode byte: payload stored verbatim.
const MODE_STORED: u8 = 0;
/// Mode byte: payload is an LZ sequence stream.
const MODE_COMPRESSED: u8 = 1;

/// Minimum useful match length (below this a match costs more than the
/// literals it replaces).
const MIN_MATCH: usize = 4;
/// Hash table size exponent: 2^14 four-byte anchors.
const HASH_BITS: u32 = 14;
/// Maximum back-reference distance encodable in two bytes.
const MAX_OFFSET: usize = u16::MAX as usize;

#[inline]
fn hash4(v: u32) -> usize {
    // Knuth multiplicative hash over the next four bytes.
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn read4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

/// Appends a length in 255-continuation encoding.
fn put_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 255 {
        out.push(255);
        n -= 255;
    }
    out.push(n as u8);
}

/// Appends one sequence: token, literal run, and (unless this is the
/// terminal literal-only sequence) the match offset and length.
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(u16, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = match matched {
        Some((_, len)) => (len - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        put_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = matched {
        out.extend_from_slice(&offset.to_le_bytes());
        if len - MIN_MATCH >= 15 {
            put_len(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compresses `input` into a self-describing block.
///
/// Falls back to stored mode whenever the LZ stream would not be
/// strictly smaller than the input, so the output is never more than
/// one byte (the mode header) larger than the payload.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(MODE_COMPRESSED);
    compress_stream(input, &mut out);
    if out.len() <= input.len() {
        return out;
    }
    let mut stored = Vec::with_capacity(input.len() + 1);
    stored.push(MODE_STORED);
    stored.extend_from_slice(input);
    stored
}

fn compress_stream(input: &[u8], out: &mut Vec<u8>) {
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut anchor = 0usize; // start of the pending literal run
    let mut pos = 0usize;
    // The last MIN_MATCH-1 bytes can never start a match.
    let match_limit = input.len().saturating_sub(MIN_MATCH - 1);
    while pos < match_limit {
        let h = hash4(read4(input, pos));
        let candidate = table[h];
        table[h] = pos;
        let valid = candidate != usize::MAX
            && pos - candidate <= MAX_OFFSET
            && read4(input, candidate) == read4(input, pos);
        if !valid {
            pos += 1;
            continue;
        }
        // Extend the match forward as far as it goes.
        let mut len = MIN_MATCH;
        while pos + len < input.len() && input[candidate + len] == input[pos + len] {
            len += 1;
        }
        put_sequence(
            out,
            &input[anchor..pos],
            Some(((pos - candidate) as u16, len)),
        );
        pos += len;
        anchor = pos;
    }
    if anchor < input.len() {
        put_sequence(out, &input[anchor..], None);
    }
}

/// Reads a 255-continuation length extension.
fn take_len(data: &[u8], pos: &mut usize) -> Result<usize> {
    let mut n = 0usize;
    loop {
        let b = *data.get(*pos).ok_or_else(|| truncated("length"))?;
        *pos += 1;
        n += b as usize;
        if b != 255 {
            return Ok(n);
        }
    }
}

fn truncated(what: &str) -> Error {
    Error::Corrupt(format!("compressed block truncated in {what}"))
}

/// Bytes every short copy moves at once, and the slack the output
/// buffer keeps past the raw length so those copies never reallocate.
const CHUNK: usize = 16;

/// Decompresses a block produced by [`compress`] whose raw form is
/// `raw_len` bytes long.
///
/// Malformed input — unknown mode byte, truncated sequences, match
/// offsets pointing before the start of the output, or a stream that
/// decodes to more or fewer than `raw_len` bytes — returns
/// [`Error::Corrupt`]; the decoder never reads or writes out of bounds,
/// and a literal run or match that would pass `raw_len` fails before it
/// is copied, so no stream makes it allocate more than `raw_len` plus
/// 16 bytes.
pub fn decompress(block: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let (&mode, data) = block
        .split_first()
        .ok_or_else(|| Error::Corrupt("empty compressed block".into()))?;
    match mode {
        MODE_STORED if data.len() == raw_len => Ok(data.to_vec()),
        MODE_STORED => Err(Error::Corrupt(format!(
            "stored block holds {} bytes, expected {raw_len}",
            data.len()
        ))),
        MODE_COMPRESSED => decompress_stream(data, raw_len),
        other => Err(Error::Corrupt(format!(
            "unknown compression mode byte {other}"
        ))),
    }
}

/// The output length once `n` more bytes are appended to `out`, or
/// [`Error::Corrupt`] when that would pass `raw_len`.
fn claim(out: &[u8], n: usize, raw_len: usize) -> Result<usize> {
    if n > raw_len - out.len() {
        return Err(Error::Corrupt(format!(
            "compressed block decodes past its raw length {raw_len}"
        )));
    }
    Ok(out.len() + n)
}

fn decompress_stream(data: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len + CHUNK);
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += take_len(data, &mut pos)?;
        }
        let lit_end = pos
            .checked_add(lit_len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| truncated("literals"))?;
        let out_end = claim(&out, lit_len, raw_len)?;
        // A short run moves as one fixed-width chunk, then the surplus
        // is cut; `out_end <= raw_len` keeps the chunk within capacity.
        if lit_len <= CHUNK && pos + CHUNK <= data.len() {
            out.extend_from_slice(&data[pos..pos + CHUNK]);
            out.truncate(out_end);
        } else {
            out.extend_from_slice(&data[pos..lit_end]);
        }
        pos = lit_end;
        if pos == data.len() {
            break; // terminal literal-only sequence
        }
        let off_end = pos + 2;
        if off_end > data.len() {
            return Err(truncated("match offset"));
        }
        let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos = off_end;
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if match_len == MIN_MATCH + 15 {
            match_len += take_len(data, &mut pos)?;
        }
        if offset == 0 || offset > out.len() {
            return Err(Error::Corrupt(format!(
                "match offset {offset} outside {} decompressed bytes",
                out.len()
            )));
        }
        let out_end = claim(&out, match_len, raw_len)?;
        let start = out.len() - offset;
        if match_len <= CHUNK && offset >= CHUNK {
            out.extend_from_within(start..start + CHUNK);
            out.truncate(out_end);
        } else {
            // An overlapping match (offset < len) repeats the last
            // `offset` bytes, so the output from `start` on is periodic:
            // each copy of everything since `start` keeps its length a
            // multiple of the period, doubling the span per copy.
            while out.len() < out_end {
                let n = (out_end - out.len()).min(out.len() - start);
                out.extend_from_within(start..start + n);
            }
        }
    }
    if out.len() != raw_len {
        return Err(Error::Corrupt(format!(
            "compressed block decoded to {} bytes, expected {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time decoder the fixed-width one replaced: no raw
    /// length, every match byte pushed singly. The oracle below holds
    /// [`decompress`] to its output.
    fn reference_decompress(block: &[u8]) -> Result<Vec<u8>> {
        let (&mode, data) = block
            .split_first()
            .ok_or_else(|| Error::Corrupt("empty compressed block".into()))?;
        match mode {
            MODE_STORED => return Ok(data.to_vec()),
            MODE_COMPRESSED => {}
            other => {
                return Err(Error::Corrupt(format!(
                    "unknown compression mode byte {other}"
                )))
            }
        }
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let token = data[pos];
            pos += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len += take_len(data, &mut pos)?;
            }
            let lit_end = pos
                .checked_add(lit_len)
                .filter(|&e| e <= data.len())
                .ok_or_else(|| truncated("literals"))?;
            out.extend_from_slice(&data[pos..lit_end]);
            pos = lit_end;
            if pos == data.len() {
                break;
            }
            if pos + 2 > data.len() {
                return Err(truncated("match offset"));
            }
            let offset = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2;
            let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
            if match_len == MIN_MATCH + 15 {
                match_len += take_len(data, &mut pos)?;
            }
            if offset == 0 || offset > out.len() {
                return Err(Error::Corrupt(format!("match offset {offset}")));
            }
            let start = out.len() - offset;
            for i in 0..match_len {
                let b = out[start + i];
                out.push(b);
            }
        }
        Ok(out)
    }

    /// Holds [`decompress`] to the reference on one block: `Ok` only
    /// with the reference's bytes at exactly their length, and `Ok`
    /// whenever the reference decodes and the raw length matches.
    fn agrees_with_reference(block: &[u8], raw_len: usize) {
        let reference = reference_decompress(block);
        if let Ok(out) = decompress(block, raw_len) {
            assert_eq!(out.len(), raw_len);
            assert_eq!(reference.as_ref().ok(), Some(&out), "{block:?}");
        }
        if let Ok(expected) = reference {
            assert_eq!(decompress(block, expected.len()), Ok(expected));
        }
    }

    fn round_trip(payload: &[u8]) {
        let packed = compress(payload);
        assert!(packed.len() <= payload.len() + 1, "never grows past header");
        assert_eq!(decompress(&packed, payload.len()).unwrap(), payload);
        assert_eq!(reference_decompress(&packed).unwrap(), payload);
    }

    #[test]
    fn empty_payload() {
        round_trip(&[]);
    }

    #[test]
    fn short_payloads() {
        for n in 0..24usize {
            let payload: Vec<u8> = (0..n as u8).collect();
            round_trip(&payload);
        }
    }

    #[test]
    fn repetitive_payload_shrinks() {
        let payload: Vec<u8> = b"3.14 2.72 1.41 "
            .iter()
            .copied()
            .cycle()
            .take(64 * 1024)
            .collect();
        let packed = compress(&payload);
        assert_eq!(decompress(&packed, payload.len()).unwrap(), payload);
        assert!(
            packed.len() < payload.len() / 10,
            "repetitive text should compress >10x, got {} -> {}",
            payload.len(),
            packed.len()
        );
    }

    #[test]
    fn incompressible_payload_stores() {
        // A xorshift stream has no 4-byte repeats within the window to
        // speak of; the codec must fall back to stored mode and cost
        // exactly one header byte.
        let mut state = 0x9e3779b97f4a7c15u64;
        let payload: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let packed = compress(&payload);
        assert_eq!(packed.len(), payload.len() + 1);
        assert_eq!(packed[0], MODE_STORED);
        assert_eq!(decompress(&packed, payload.len()).unwrap(), payload);
    }

    #[test]
    fn long_runs_use_length_extensions() {
        let payload = vec![7u8; 100_000];
        let packed = compress(&payload);
        assert!(packed.len() < 512);
        assert_eq!(decompress(&packed, payload.len()).unwrap(), payload);
    }

    #[test]
    fn unknown_mode_is_corrupt() {
        assert!(matches!(decompress(&[9, 1, 2], 2), Err(Error::Corrupt(_))));
        assert!(matches!(decompress(&[], 0), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncated_stream_is_corrupt() {
        let payload: Vec<u8> = b"abcdabcdabcdabcdabcdabcd".repeat(100);
        let packed = compress(&payload);
        assert_eq!(packed[0], MODE_COMPRESSED);
        for cut in 1..packed.len().min(40) {
            let torn = &packed[..packed.len() - cut];
            match decompress(torn, payload.len()) {
                Err(Error::Corrupt(_)) => {}
                Ok(out) => assert_ne!(out, payload, "torn block must not round-trip"),
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn bad_offset_is_corrupt() {
        // Token: 1 literal, match len nibble 0 (= MIN_MATCH), then an
        // offset of 9 with only 1 byte of output produced.
        let stream = [MODE_COMPRESSED, 0x10, b'x', 9, 0];
        assert!(matches!(decompress(&stream, 5), Err(Error::Corrupt(_))));
        // Zero offset is never valid.
        let stream = [MODE_COMPRESSED, 0x10, b'x', 0, 0];
        assert!(matches!(decompress(&stream, 5), Err(Error::Corrupt(_))));
    }

    #[test]
    fn output_must_match_the_raw_length() {
        let payload = b"abcdabcdabcdabcd 1.25 -3.5 abcdabcd".repeat(8);
        for packed in [compress(&payload), [&[MODE_STORED][..], &payload].concat()] {
            assert_eq!(decompress(&packed, payload.len()).unwrap(), payload);
            for wrong in [0, payload.len() - 1, payload.len() + 1, 2 * payload.len()] {
                let err = decompress(&packed, wrong).unwrap_err();
                assert!(matches!(err, Error::Corrupt(_)), "{wrong}: {err}");
            }
        }
    }

    #[test]
    fn a_length_bomb_is_corrupt_at_the_raw_length() {
        // One literal, then a match at offset 1 whose 255-continuation
        // bytes claim ~1 MB of output from a ~4 KB stream.
        let mut bomb = vec![MODE_COMPRESSED, 0x1F, b'x', 1, 0];
        bomb.resize(bomb.len() + 4112, 255);
        bomb.push(0);
        assert!(bomb.len() < 5 * 1024);
        assert!(reference_decompress(&bomb).unwrap().len() > 1 << 20);
        let err = decompress(&bomb, 4096).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert!(
            err.to_string().contains("past its raw length 4096"),
            "{err}"
        );
    }

    #[test]
    fn every_short_sequence_matches_the_reference() {
        // Literal runs 0..=20 and match lengths 4..=40 straddle the
        // 16-byte literal and match chunks; offsets 1..=40 straddle
        // the chunk's offset floor and cover every overlap. Each
        // sequence runs alone (offsets past its literals are corrupt)
        // and after 44 bytes of history (every offset is valid), each
        // with and without a terminal literal run behind it.
        let history: Vec<u8> = (0..40).map(|i| 100 + i).collect();
        for with_history in [false, true] {
            for tail in [&b""[..], b"xyz"] {
                for lit in 0..=20u8 {
                    let literals: Vec<u8> = (0..lit).map(|i| 200 + i).collect();
                    for offset in 1..=40u16 {
                        for len in MIN_MATCH..=40 {
                            let mut block = vec![MODE_COMPRESSED];
                            if with_history {
                                put_sequence(&mut block, &history, Some((40, MIN_MATCH)));
                            }
                            put_sequence(&mut block, &literals, Some((offset, len)));
                            if !tail.is_empty() {
                                put_sequence(&mut block, tail, None);
                            }
                            let raw_len = match reference_decompress(&block) {
                                Ok(out) => out.len(),
                                Err(_) => lit as usize + len + tail.len(),
                            };
                            agrees_with_reference(&block, raw_len);
                            assert!(decompress(&block, raw_len - 1).is_err());
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn round_trips_arbitrary_bytes(payload in proptest::collection::vec(0u8..=255, 0..4096)) {
            round_trip(&payload);
        }

        #[test]
        fn round_trips_low_entropy_bytes(
            payload in proptest::collection::vec(0u8..4, 0..4096),
        ) {
            round_trip(&payload);
        }

        #[test]
        fn decompress_never_panics(
            garbage in proptest::collection::vec(0u8..=255, 0..512),
            raw_len in 0usize..2048,
        ) {
            // As drawn, and behind a compressed-mode byte so the
            // sequence decoder sees the garbage too.
            agrees_with_reference(&garbage, raw_len);
            agrees_with_reference(&[&[MODE_COMPRESSED][..], &garbage].concat(), raw_len);
        }
    }
}
