//! The point-per-line text encoding, and the one scanner that reads it.
//!
//! Points travel through the DFS exactly as the paper stores them in
//! HDFS: one point per line, coordinates as space-separated decimal
//! strings. §3.2 sizes reducer memory assuming "the value of a point in
//! each dimension is stored as a string of approximatively 15
//! characters (the number of significant decimal digits of IEEE 754
//! double-precision floating-point format)"; [`format_point`] emits full
//! round-trip precision, which lands in the same regime.
//!
//! # Reading
//!
//! The reference parse splits a line on Unicode whitespace and converts
//! every token with `f64::from_str`, rejecting empty lines and
//! non-finite values. Every reader of point text — a map task's split
//! ([`PointLines`]), the initial sample, the pre-flight input check and
//! the single-line [`parse_point_into`] — goes through one byte scanner
//! that accepts a line whole or not at all:
//!
//! ```text
//! line  = sep* token (sep+ token)* sep* ("\n" | end of input)
//! token = "-"? digit+ ("." digit+)?        at most 19 digits in all
//! sep   = " " | "\t" | "\r" | "\x0c"
//! ```
//!
//! Any other line — one with an exponent, a `+`, `.5`, `1.`, `inf`,
//! more than 19 digits in a token, a non-ASCII byte or a vertical tab,
//! no token at all, or the wrong number of coordinates — goes to the
//! reference parse, which alone decides. A line the scanner accepts is
//! one the reference accepts with the same tokens, so the scanner only
//! has to convert each token exactly as `f64::from_str` does.
//!
//! A token of at most 19 digits holds its digits in a `u64` mantissa
//! `w` (10¹⁹ − 1 < 2⁶⁴), folded eight at a time, and stands for
//! `w · 10^q` with `q` minus its count of fraction digits, so
//! `q ∈ [−19, 0]`. The Eisel–Lemire algorithm converts it: it multiplies
//! the normalized `w` by a 128-bit truncation of `5^q`, and those 20 rows
//! are its whole table. For `q ≥ −27` the 128-bit product always decides
//! the rounding, and a nonzero `w` with `q ≥ −19` makes a normal double
//! below 10¹⁹, so this one path is exact for every token the scanner
//! accepts. (Clinger's fast path, an exact `w ≤ 2⁵³` divided by an exact
//! `10^−q`, is exact there too, but measured slower: its branch on
//! `w ≤ 2⁵³` goes one way for about 63% of gmeans-text's coordinates
//! and the other way for the rest, in no order it can predict.)
//!
//! # The fast path
//!
//! A split's lines ([`PointLines`]) first go to a vector path for the
//! shape [`format_point`] writes, where x86-64 has SSSE3 and SSE4.1
//! (probed once at runtime):
//!
//! ```text
//! line  = token (" " token)* "\n"
//! token = "-"? digit{1,8} "." digit{1,16}     at most 19 digits in all
//! ```
//!
//! with every token starting at least 32 bytes before the end of the
//! split. It loads those 32 bytes, finds the token's extent from their
//! digit mask, folds the integer digits as the scanner does and the
//! fraction digits with a shuffle and a `maddubs`/`madd` chain, and
//! converts with the same `to_f64`, so its bits are the scanner's. It
//! declines every other line, which then takes the scanner and the
//! reference as before.

use std::fmt::Write;

use crate::error::{Error, Result};

/// Formats a point as a space-separated coordinate line.
///
/// Uses the shortest representation that round-trips through `f64`
/// parsing, so `parse_point(&format_point(p)) == p` bit-for-bit for
/// finite coordinates.
pub fn format_point(coords: &[f64]) -> String {
    let mut s = String::with_capacity(coords.len() * 16);
    write_point(&mut s, coords);
    s
}

/// Appends the [`format_point`] line of `coords` to `line`.
pub fn write_point(line: &mut String, coords: &[f64]) {
    for (i, c) in coords.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        // `{}` on f64 is the shortest round-trip representation.
        write!(line, "{c}").expect("writing to a String cannot fail");
    }
}

/// Parses one point line and appends its coordinates to `out`,
/// returning how many it appended. On error `out` is left unchanged, so
/// one buffer can collect a whole block of points without allocating
/// per line.
///
/// Fails on empty lines, non-numeric tokens, and non-finite values
/// (NaN/inf never describe a valid data point and would poison every
/// distance computation downstream). Tokens are separated by Unicode
/// whitespace.
pub fn parse_point_into(line: &str, out: &mut Vec<f64>) -> Result<usize> {
    let start = out.len();
    match scan_line(line.as_bytes(), 0, out) {
        Some((n, end)) if end == line.len() => Ok(n),
        _ => {
            out.truncate(start);
            reference(line, None, out)
        }
    }
}

/// [`parse_point_into`] that also requires exactly `dim` coordinates;
/// on any error `out` is left unchanged.
pub fn parse_point_dim_into(line: &str, dim: usize, out: &mut Vec<f64>) -> Result<()> {
    let n = parse_point_into(line, out)?;
    if n != dim {
        out.truncate(out.len() - n);
        return Err(arity_error(n, dim));
    }
    Ok(())
}

/// Parses a space-separated coordinate line into a point (see
/// [`parse_point_into`]).
pub fn parse_point(line: &str) -> Result<Vec<f64>> {
    let mut coords = Vec::new();
    parse_point_into(line, &mut coords)?;
    Ok(coords)
}

/// Parses a point and checks it has the expected dimensionality.
pub fn parse_point_dim(line: &str, dim: usize) -> Result<Vec<f64>> {
    let mut coords = Vec::with_capacity(dim);
    parse_point_dim_into(line, dim, &mut coords)?;
    Ok(coords)
}

/// The lines of a text split, parsed as points front to back in one
/// pass over the bytes.
///
/// Lines are those of [`crate::dfs::InputSplit::lines`]: split after
/// each `\n`, with trailing `\n` and `\r` trimmed, and a split that is
/// not UTF-8 holds none. Each line parses exactly as
/// [`parse_point_into`] (or [`parse_point_dim_into`]) would parse it.
#[derive(Debug)]
pub struct PointLines<'a> {
    text: &'a str,
    pos: usize,
    /// Whether lines go to the vector fast path first.
    simd: bool,
}

impl<'a> PointLines<'a> {
    /// The lines of `data`, a split of whole lines.
    pub fn new(data: &'a [u8]) -> Self {
        Self::with_fast_path(data, true)
    }

    /// [`PointLines::new`] with the fast path off, or on where
    /// [`simd_available`] says it can run.
    fn with_fast_path(data: &'a [u8], simd: bool) -> Self {
        Self {
            text: std::str::from_utf8(data).unwrap_or(""),
            pos: 0,
            simd: simd && simd_available(),
        }
    }

    /// Parses the next line as [`parse_point_into`] does: `Ok(n)` after
    /// appending its `n` coordinates to `out`, or `Err(line)` with the
    /// rejected line, leaving `out` unchanged. `None` after the last
    /// line.
    pub fn next_point(
        &mut self,
        out: &mut Vec<f64>,
    ) -> Option<std::result::Result<usize, &'a str>> {
        self.next_line(None, out)
    }

    /// Parses the next line as [`parse_point_dim_into`] does.
    pub fn next_point_dim(
        &mut self,
        dim: usize,
        out: &mut Vec<f64>,
    ) -> Option<std::result::Result<(), &'a str>> {
        Some(self.next_line(Some(dim), out)?.map(drop))
    }

    /// The scanner's verdict on the next line when it accepts it (with
    /// `dim` coordinates, when given), and otherwise the reference's.
    fn next_line(
        &mut self,
        dim: Option<usize>,
        out: &mut Vec<f64>,
    ) -> Option<std::result::Result<usize, &'a str>> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if start == bytes.len() {
            return None;
        }
        let len = out.len();
        let scanned = fast_line(bytes, start, out, self.simd).or_else(|| {
            out.truncate(len);
            scan_line(bytes, start, out)
        });
        if let Some((n, next)) = scanned {
            if dim.map_or(true, |d| d == n) {
                self.pos = next;
                return Some(Ok(n));
            }
        }
        out.truncate(len);
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |at| start + at);
        self.pos = (end + 1).min(bytes.len());
        let line = self.text[start..end].trim_end_matches(['\n', '\r']);
        Some(reference(line, dim, out).map_err(|_| line))
    }
}

/// The reference parse: tokens split on Unicode whitespace, each a
/// finite `f64::from_str`, at least one of them, and exactly `dim` when
/// given; an error names the first bad token. On error `out` is left
/// unchanged.
fn reference(line: &str, dim: Option<usize>, out: &mut Vec<f64>) -> Result<usize> {
    let start = out.len();
    let result = line
        .split_whitespace()
        .try_for_each(|tok| {
            let v: f64 = tok
                .parse()
                .map_err(|e| Error::Corrupt(format!("bad coordinate {tok:?}: {e}")))?;
            if !v.is_finite() {
                return Err(Error::Corrupt(format!("non-finite coordinate {tok:?}")));
            }
            out.push(v);
            Ok(())
        })
        .and_then(|()| match (out.len() - start, dim) {
            (0, _) => Err(Error::Corrupt("empty point line".into())),
            (n, Some(dim)) if n != dim => Err(arity_error(n, dim)),
            (n, _) => Ok(n),
        });
    if result.is_err() {
        out.truncate(start);
    }
    result
}

fn arity_error(n: usize, dim: usize) -> Error {
    Error::Corrupt(format!("point has {n} coordinates, expected {dim}"))
}

/// Most digits a scanned token may hold: `10¹⁹ − 1` still fits a `u64`.
const MAX_DIGITS: u32 = 19;

/// `10^i` for `i ≤ 16`: the scale of a run of `i` folded digits.
const POW10_U64: [u64; 17] = {
    let mut pow = [1u64; 17];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1] * 10;
        i += 1;
    }
    pow
};

/// Row `i` is `5^−i` as a 128-bit significand: `⌊2^b / 5^i⌋ + 1` with
/// `b` = 127 + the bit length of `5^i`, so the top bit is set; row 0 is
/// `2^127`. This is the slice `q ∈ [−19, 0]` of the Eisel–Lemire table.
const POW5_128: [u128; 20] = [
    0x8000_0000_0000_0000_0000_0000_0000_0000,
    0xcccc_cccc_cccc_cccc_cccc_cccc_cccc_cccd,
    0xa3d7_0a3d_70a3_d70a_3d70_a3d7_0a3d_70a4,
    0x8312_6e97_8d4f_df3b_645a_1cac_0831_26ea,
    0xd1b7_1758_e219_652b_d3c3_6113_404e_a4a9,
    0xa7c5_ac47_1b47_8423_0fcf_80dc_3372_1d54,
    0x8637_bd05_af6c_69b5_a63f_9a49_c2c1_b110,
    0xd6bf_94d5_e57a_42bc_3d32_9076_0469_1b4d,
    0xabcc_7711_8461_cefc_fdc2_0d2b_36ba_7c3e,
    0x8970_5f41_36b4_a597_3168_0a88_f895_3031,
    0xdbe6_fece_bded_d5be_b573_440e_5a88_4d1c,
    0xafeb_ff0b_cb24_aafe_f78f_69a5_1539_d749,
    0x8cbc_cc09_6f50_88cb_f93f_87b7_442e_45d4,
    0xe12e_1342_4bb4_0e13_2865_a5f2_06b0_6fba,
    0xb424_dc35_095c_d80f_5384_84c1_9ef3_8c95,
    0x901d_7cf7_3ab0_acd9_0f9d_3701_4bf6_0a11,
    0xe695_94be_c44d_e15b_4c2e_be68_7989_a9b4,
    0xb877_aa32_36a4_b449_09be_feb9_fad4_87c3,
    0x9392_ee8e_921d_5d07_3aff_322e_6243_9fd0,
    0xec1e_4a7d_b695_61a5_2b31_e9e3_d06c_32e6,
];

/// Whether the SSSE3/SSE4.1 fast path can run here, probed once.
#[cfg(target_arch = "x86_64")]
fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::is_x86_feature_detected!("ssse3") && std::is_x86_feature_detected!("sse4.1")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_available() -> bool {
    false
}

/// The fast path: parses the line that starts at `bytes[i]` if it has
/// the shape [`format_point`] writes (see the module docs), appending
/// its coordinates to `out`, and returns their count and where the next
/// line starts. `None` when `simd` is off or the line has another
/// shape; `out` may then hold some of the line's coordinates. `simd`
/// may be true only where [`simd_available`] is.
#[inline]
fn fast_line(bytes: &[u8], i: usize, out: &mut Vec<f64>, simd: bool) -> Option<(usize, usize)> {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true where `simd_available()` confirmed
        // SSSE3 and SSE4.1 at runtime.
        return unsafe { sse::scan_line(bytes, i, out) };
    }
    let _ = (bytes, i, out, simd);
    None
}

#[cfg(target_arch = "x86_64")]
mod sse {
    use super::{fold8, to_f64, MAX_DIGITS, POW10_U64};
    use std::arch::x86_64::*;

    /// Bytes read from each token's first byte: the longest token the
    /// fast path takes, `-` + 8 + `.` + 16 = 26 bytes, and its
    /// separator fit.
    const WINDOW: usize = 32;

    /// `RIGHT_ALIGN[n]` is the `pshufb` control that moves the first `n`
    /// bytes of a vector to its last `n` and zeroes the bytes before.
    static RIGHT_ALIGN: [[u8; 16]; 17] = {
        let mut table = [[0x80u8; 16]; 17];
        let mut n = 0;
        while n <= 16 {
            let mut j = 16 - n;
            while j < 16 {
                table[n][j] = (j + n - 16) as u8;
                j += 1;
            }
            n += 1;
        }
        table
    };

    /// The fast path's line loop: tokens one space apart, the last
    /// followed by `\n`, each starting at least [`WINDOW`] bytes before
    /// the end of `bytes`.
    ///
    /// # Safety
    /// Caller must have verified SSSE3 and SSE4.1 support at runtime.
    #[target_feature(enable = "ssse3,sse4.1")]
    pub unsafe fn scan_line(
        bytes: &[u8],
        mut i: usize,
        out: &mut Vec<f64>,
    ) -> Option<(usize, usize)> {
        let start = out.len();
        loop {
            let window: &[u8; WINDOW] = bytes.get(i..i + WINDOW)?.try_into().ok()?;
            let (v, len) = token(window)?;
            out.push(v);
            match window[len] {
                b' ' => i += len + 1,
                b'\n' => return Some((out.len() - start, i + len + 1)),
                _ => return None,
            }
        }
    }

    /// Converts the token `-?d{1,8}.d{1,16}` (at most 19 digits in all)
    /// at the start of `w`, returning its value and length.
    #[target_feature(enable = "ssse3,sse4.1")]
    fn token(w: &[u8; WINDOW]) -> Option<(f64, usize)> {
        let zero = _mm_set1_epi8(b'0' as i8);
        let nine = _mm_set1_epi8(9);
        // SAFETY: both 16-byte loads lie within the 32-byte `w`.
        let (lo, hi) = unsafe {
            (
                _mm_loadu_si128(w[..16].as_ptr().cast()),
                _mm_loadu_si128(w[16..].as_ptr().cast()),
            )
        };
        // Bit j of `digits` is set when `w[j]` is an ASCII digit: its
        // value `w[j] − '0'` is at most 9 as an unsigned byte.
        let digit_bits = |v: __m128i| {
            let d = _mm_sub_epi8(v, zero);
            _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_min_epu8(d, nine), d)) as u32
        };
        let digits = digit_bits(lo) | digit_bits(hi) << 16;
        let sign = usize::from(w[0] == b'-');
        let int = (!(digits >> sign)).trailing_zeros() as usize;
        if !(1..=8).contains(&int) || w[sign + int] != b'.' {
            return None;
        }
        let at = sign + int + 1;
        let frac = (!(digits >> at)).trailing_zeros() as usize;
        if !(1..=16).contains(&frac) || int + frac > MAX_DIGITS as usize {
            return None;
        }
        let whole = fold8(
            u64::from_le_bytes(w[sign..sign + 8].try_into().ok()?),
            int as u32,
        );
        // The fraction's digit values, right-aligned behind zeros, then
        // folded: pairs (×10 + ·), quads (×100 + ·), eights (×10⁴ + ·).
        // SAFETY: the 16 bytes at `at ≤ 10` lie within the 32-byte `w`,
        // and the control row is 16 bytes.
        let (text, control) = unsafe {
            (
                _mm_loadu_si128(w[at..at + 16].as_ptr().cast()),
                _mm_loadu_si128(RIGHT_ALIGN[frac].as_ptr().cast()),
            )
        };
        let values = _mm_shuffle_epi8(_mm_sub_epi8(text, zero), control);
        let pairs = _mm_maddubs_epi16(values, _mm_set1_epi16(0x010a));
        let quads = _mm_madd_epi16(pairs, _mm_set1_epi32(0x0001_0064));
        let eights = _mm_madd_epi16(_mm_packus_epi32(quads, quads), _mm_set1_epi32(0x0001_2710));
        let high = _mm_cvtsi128_si32(eights) as u64;
        let low = _mm_extract_epi32::<1>(eights) as u64;
        let mantissa = whole * POW10_U64[frac] + high * 100_000_000 + low;
        let v = to_f64(mantissa, frac as u32);
        Some((if sign == 1 { -v } else { v }, at + frac))
    }
}

/// The scanner: parses the line that starts at `bytes[i]` if all of it
/// is in the grammar of the module docs, appending its coordinates to
/// `out`, and returns their count and where the next line starts. `None`
/// when it does not accept the line; `out` may then hold some of the
/// line's coordinates.
fn scan_line(bytes: &[u8], mut i: usize, out: &mut Vec<f64>) -> Option<(usize, usize)> {
    let start = out.len();
    loop {
        match bytes.get(i) {
            None => break,
            Some(b'\n') => {
                i += 1;
                break;
            }
            Some(b' ' | b'\t' | b'\r' | b'\x0c') => i += 1,
            Some(&first) => {
                let (v, end) = scan_token(bytes, i, first)?;
                if !matches!(
                    bytes.get(end),
                    None | Some(b' ' | b'\t' | b'\r' | b'\x0c' | b'\n')
                ) {
                    return None;
                }
                out.push(v);
                i = end;
            }
        }
    }
    let n = out.len() - start;
    (n > 0).then_some((n, i))
}

/// Converts the token `-?digit+(.digit+)?` at `bytes[i]` (whose first
/// byte is `first`), returning its value and the position after it.
fn scan_token(bytes: &[u8], mut i: usize, first: u8) -> Option<(f64, usize)> {
    let negative = first == b'-';
    i += usize::from(negative);
    let mut w = 0;
    let int_digits = fold_digits(bytes, &mut i, &mut w, 0)?;
    if int_digits == 0 {
        return None;
    }
    let mut digits = int_digits;
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        digits = fold_digits(bytes, &mut i, &mut w, digits)?;
        if digits == int_digits {
            return None;
        }
    }
    let v = to_f64(w, digits - int_digits);
    Some((if negative { -v } else { v }, i))
}

/// Folds the run of ASCII digits at `bytes[*i]` into `w`, eight bytes
/// at a time while eight remain, and returns the token's digit count
/// so far (`digits` before the run); `None` past [`MAX_DIGITS`], before
/// `w` could overflow.
fn fold_digits(bytes: &[u8], i: &mut usize, w: &mut u64, mut digits: u32) -> Option<u32> {
    while let Some(chunk) = bytes.get(*i..*i + 8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("an eight-byte slice"));
        let run = digit_run(v);
        if run == 0 {
            return Some(digits);
        }
        digits += run;
        if digits > MAX_DIGITS {
            return None;
        }
        *w = *w * POW10_U64[run as usize] + fold8(v, run);
        *i += run as usize;
        if run < 8 {
            return Some(digits);
        }
    }
    while let Some(&b) = bytes.get(*i).filter(|b| b.is_ascii_digit()) {
        digits += 1;
        if digits > MAX_DIGITS {
            return None;
        }
        *w = *w * 10 + u64::from(b - b'0');
        *i += 1;
    }
    Some(digits)
}

/// How many of the eight bytes of `v` (first byte lowest) are ASCII
/// digits before the first that is not.
#[inline]
fn digit_run(v: u64) -> u32 {
    const HIGH: u64 = 0xf0f0_f0f0_f0f0_f0f0;
    // A byte is a digit iff its high nibble is 3 and adding 6 keeps it
    // 3; a carry out of a non-digit byte can only disturb later bytes.
    let nibbles = (v & HIGH) | ((v.wrapping_add(0x0606_0606_0606_0606) & HIGH) >> 4);
    (nibbles ^ 0x3333_3333_3333_3333).trailing_zeros() / 8
}

/// The value of the first `run` (1 to 8) digit bytes of `v`.
#[inline]
fn fold8(v: u64, run: u32) -> u64 {
    // Digit values, the first in the lowest byte; a borrow out of a
    // later non-digit byte only reaches bytes the shift drops, and the
    // shift pads the front with zero digits.
    let d = v.wrapping_sub(0x3030_3030_3030_3030) << (8 * (8 - run));
    // Pairs, then quads, then all eight, by multiply-and-shift.
    let d = d.wrapping_mul(10).wrapping_add(d >> 8);
    let lo = (d & 0x0000_00ff_0000_00ff).wrapping_mul(0x000f_4240_0000_0064);
    let hi = ((d >> 16) & 0x0000_00ff_0000_00ff).wrapping_mul(0x0000_2710_0000_0001);
    u64::from((lo.wrapping_add(hi) >> 32) as u32)
}

/// The double nearest `w · 10^−frac` (ties to even), for `w < 10^19`
/// and `frac ≤ 19`, by Eisel–Lemire. In that range the 128-bit product
/// always decides the rounding, and a nonzero result is a normal double
/// (at least 10^−19, below 10^19), so the general algorithm's error,
/// subnormal and overflow exits cannot occur.
fn to_f64(w: u64, frac: u32) -> f64 {
    if w == 0 {
        return 0.0;
    }
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = POW5_128[frac as usize];
    let product = u128::from(w) * (pow5 >> 64);
    let (mut hi, mut lo) = ((product >> 64) as u64, product as u64);
    // The top 55 bits of `hi` hold the result and its rounding bit; when
    // the 9 bits below them are all ones, the low half of the power can
    // still carry into them.
    const BELOW: u64 = (1 << 9) - 1;
    if hi & BELOW == BELOW {
        let carry = ((u128::from(w) * (pow5 & u128::from(u64::MAX))) >> 64) as u64;
        lo = lo.wrapping_add(carry);
        hi += u64::from(lo < carry);
    }
    let upper = (hi >> 63) as u32;
    let mut mantissa = hi >> (upper + 9);
    // ⌊q · log2(10)⌋ + 63 by the fixed-point 217706 / 2^16, then the
    // normalization shifts and the exponent bias.
    let q = -(frac as i32);
    let mut exp = ((q * 217_706) >> 16) + 63 + upper as i32 - lz as i32 + 1023;
    // Exactly halfway between two doubles, which a token with more than
    // four fraction digits cannot be: round to even instead of up.
    if lo <= 1 && frac <= 4 && mantissa & 3 == 1 && mantissa << (upper + 9) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exp += 1;
    }
    f64::from_bits((mantissa & !(1 << 52)) | (exp as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmr_datagen::GaussianMixture;
    use proptest::prelude::*;

    #[test]
    fn format_then_parse_round_trips() {
        let p = vec![1.5, -2.25, 0.0, 1e-300, 12345.6789];
        assert_eq!(parse_point(&format_point(&p)).unwrap(), p);
    }

    #[test]
    fn parse_handles_extra_whitespace() {
        assert_eq!(
            parse_point("  1.0   2.0\t3.0 ").unwrap(),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_point("").is_err());
        assert!(parse_point("   ").is_err());
        assert!(parse_point("1.0 abc").is_err());
        assert!(parse_point("NaN 1.0").is_err());
        assert!(parse_point("inf").is_err());
    }

    #[test]
    fn parse_point_dim_checks_dimension() {
        assert!(parse_point_dim("1 2 3", 3).is_ok());
        assert!(parse_point_dim("1 2 3", 2).is_err());
    }

    #[test]
    fn into_appends_and_leaves_the_buffer_alone_on_error() {
        let mut out = vec![9.0];
        assert_eq!(parse_point_into("1 2", &mut out).unwrap(), 2);
        assert!(parse_point_into("3 oops", &mut out).is_err());
        assert!(parse_point_dim_into("4 5 6", 2, &mut out).is_err());
        assert!(parse_point_into("\u{a0}", &mut out).is_err());
        parse_point_dim_into("7\u{a0}8", 2, &mut out).unwrap();
        assert_eq!(out, vec![9.0, 1.0, 2.0, 7.0, 8.0]);
    }

    /// `⌊2^b / p⌋ + 1` by schoolbook division of `2^b` over u64 limbs,
    /// most significant first; the quotient must fit 128 bits.
    fn pow2_over_plus_one(b: u32, p: u64) -> u128 {
        let mut limbs = vec![0u64; b as usize / 64 + 1];
        limbs[0] = 1 << (b % 64);
        let mut rem = 0u128;
        for limb in &mut limbs {
            let cur = (rem << 64) | u128::from(*limb);
            *limb = (cur / u128::from(p)) as u64;
            rem = cur % u128::from(p);
        }
        let (high, low) = limbs.split_at(limbs.len() - 2);
        assert!(high.iter().all(|&l| l == 0), "quotient wider than 128 bits");
        ((u128::from(low[0]) << 64) | u128::from(low[1])) + 1
    }

    #[test]
    fn every_power_of_five_row_matches_a_big_integer_computation() {
        assert_eq!(POW5_128[0], 1 << 127);
        let mut p = 1u64;
        for (i, &row) in POW5_128.iter().enumerate().skip(1) {
            p *= 5;
            let b = 127 + (64 - p.leading_zeros());
            assert_eq!(row, pow2_over_plus_one(b, p), "5^-{i}");
            assert_eq!(row >> 127, 1, "5^-{i} is not normalized");
        }
    }

    /// What the scanner made of the tokens of a text.
    #[derive(Debug, Default)]
    struct Tally {
        /// Converted, with a mantissa of at most 2^53 (an exact double).
        narrow: usize,
        /// Converted, with a wider mantissa.
        wide: usize,
        /// Passed over to the reference.
        passed_over: usize,
        /// Lines, and the lines the fast path took.
        lines: usize,
        fast_lines: usize,
    }

    /// Bit-compares every token of `text` (one point per line) against
    /// `str::parse`: token by token through the scanner's conversion,
    /// which may pass over only a token of more than 19 digits, and line
    /// by line through [`PointLines`].
    fn differential(text: &str, dim: usize) -> Tally {
        let mut tally = Tally::default();
        let mut expected = Vec::new();
        for tok in text.split_ascii_whitespace() {
            let want = tok.parse::<f64>().expect("a generated token");
            expected.push(want.to_bits());
            let bytes = tok.as_bytes();
            match scan_token(bytes, 0, bytes[0]) {
                Some((got, end)) => {
                    assert_eq!(end, bytes.len(), "{tok}");
                    assert_eq!(got.to_bits(), want.to_bits(), "{tok}");
                    let w: u64 = tok
                        .bytes()
                        .filter(u8::is_ascii_digit)
                        .fold(0, |w, b| w * 10 + u64::from(b - b'0'));
                    if w <= 1 << 53 {
                        tally.narrow += 1;
                    } else {
                        tally.wide += 1;
                    }
                }
                None => {
                    let digits = tok.bytes().filter(u8::is_ascii_digit).count();
                    assert!(digits > 19, "scanner passed over {tok}");
                    tally.passed_over += 1;
                }
            }
        }
        let mut lines = PointLines::new(text.as_bytes());
        let mut got = Vec::new();
        loop {
            let mut probe = Vec::new();
            let fast = fast_line(text.as_bytes(), lines.pos, &mut probe, lines.simd);
            let Some(line) = lines.next_point_dim(dim, &mut got) else {
                break;
            };
            assert_eq!(line, Ok(()));
            tally.lines += 1;
            tally.fast_lines += usize::from(fast.is_some());
        }
        assert!(got.iter().map(|v| v.to_bits()).eq(expected));
        tally
    }

    fn mixture_text(spec: &GaussianMixture) -> String {
        let data = spec.generate().expect("a valid mixture");
        let mut text = String::new();
        for row in data.points.rows() {
            write_point(&mut text, row);
            text.push('\n');
        }
        text
    }

    #[test]
    fn generated_datasets_parse_bit_identical_to_str_parse() {
        let wide = GaussianMixture {
            stddev: 12.0,
            ..GaussianMixture::paper_r10(10_000, 10, 2)
        };
        let specs = [
            GaussianMixture::paper_r10(10_000, 20, 1),
            wide,
            GaussianMixture::figure_r2(10_000, 3),
            GaussianMixture::paper_r10(10_000, 20, 4).with_zipf_skew(1.0),
        ];
        for spec in &specs {
            let tally = differential(&mixture_text(spec), spec.dim);
            assert!(tally.narrow > 0 && tally.wide > 0, "{spec:?}: {tally:?}");
            assert!(
                tally.passed_over * 100 < spec.n_points * spec.dim,
                "{spec:?}: {tally:?}"
            );
        }
    }

    /// The full-size differential: gmeans-text's four datasets (seed 1's,
    /// 100k points in R¹⁰ around 100 clusters each), 4M tokens, where the
    /// fast path takes at least 95% of the lines on a host that has it.
    /// Run with `cargo test --release -p gmr-mapreduce -- --ignored`.
    #[test]
    #[ignore = "4M tokens: run in release"]
    fn gmeans_text_datasets_parse_bit_identical_to_str_parse() {
        for seed in 4..8 {
            let spec = GaussianMixture::paper_r10(100_000, 100, seed);
            let tally = differential(&mixture_text(&spec), spec.dim);
            assert!(tally.narrow > 0 && tally.wide > 0, "seed {seed}: {tally:?}");
            if simd_available() {
                assert!(
                    tally.fast_lines * 100 >= tally.lines * 95,
                    "seed {seed}: {tally:?}"
                );
            }
        }
    }

    /// The parser as it stood before the scanner: one `Vec` per line,
    /// Unicode whitespace. The reference the scanner must match.
    fn reference_parse_point_dim(line: &str, dim: usize) -> Option<Vec<u64>> {
        let mut coords = Vec::new();
        for tok in line.split_whitespace() {
            let v: f64 = tok.parse().ok()?;
            if !v.is_finite() {
                return None;
            }
            coords.push(v.to_bits());
        }
        (!coords.is_empty() && coords.len() == dim).then_some(coords)
    }

    /// Whether `tok` has the fast path's token shape,
    /// `-?d{1,8}.d{1,16}` with at most 19 digits.
    fn fast_token(tok: &str) -> bool {
        let body = tok.strip_prefix('-').unwrap_or(tok);
        let Some((int, frac)) = body.split_once('.') else {
            return false;
        };
        let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
        digits(int)
            && digits(frac)
            && (1..=8).contains(&int.len())
            && (1..=16).contains(&frac.len())
            && int.len() + frac.len() <= 19
    }

    /// Parses every line of `text` with the fast path on and with it
    /// off: the same verdicts, coordinate bits and rejected lines, and
    /// the reference's. Each line also goes to the fast path directly,
    /// which must take exactly the lines of its shape — tokens of
    /// [`fast_token`] shape one space apart and a `\n` after the last,
    /// which starts at least 32 bytes before the end — where the host
    /// has SSSE3 and SSE4.1. Returns how many lines it took.
    fn fast_and_scalar_agree(text: &str, dim: usize) -> usize {
        let bytes = text.as_bytes();
        let simd = simd_available();
        let mut fast = PointLines::with_fast_path(bytes, simd);
        let mut scalar = PointLines::with_fast_path(bytes, false);
        let (mut got, mut want) = (vec![-1.0], vec![-1.0]);
        let mut taken = 0;
        for raw in text.split_inclusive('\n') {
            let start = fast.pos;
            let body = raw.strip_suffix('\n');
            let last_token = body.map_or(0, |b| b.rfind(' ').map_or(0, |at| at + 1));
            let shaped = body.is_some_and(|b| b.split(' ').all(fast_token))
                && start + last_token + 32 <= bytes.len();
            let mut probe = Vec::new();
            let took = fast_line(bytes, start, &mut probe, simd);
            assert_eq!(took.is_some(), simd && shaped, "fast path on {raw:?}");
            taken += usize::from(took.is_some());

            let line = raw.trim_end_matches(['\n', '\r']);
            let verdict = fast.next_point_dim(dim, &mut got).expect("one more line");
            assert_eq!(
                verdict,
                scalar
                    .next_point_dim(dim, &mut want)
                    .expect("one more line")
            );
            let (got_bits, want_bits): (Vec<u64>, Vec<u64>) = (
                got.drain(1..).map(f64::to_bits).collect(),
                want.drain(1..).map(f64::to_bits).collect(),
            );
            assert_eq!(got_bits, want_bits, "{line:?}");
            match reference_parse_point_dim(line, dim) {
                Some(bits) => assert_eq!((verdict, got_bits), (Ok(()), bits), "{line:?}"),
                None => assert_eq!(verdict, Err(line)),
            }
        }
        assert!(fast.next_point_dim(dim, &mut got).is_none());
        taken
    }

    /// A double of any sign and magnitude (`near == 0`), or with the
    /// significand of `bits` at binary exponent `exp − 1023`.
    fn random_double(bits: u64, exp: u64, near: u8) -> f64 {
        let any = f64::from_bits(bits);
        let scaled = f64::from_bits(bits & !(0x7ff << 52) | exp << 52);
        if near == 0 && any.is_finite() {
            any
        } else {
            scaled
        }
    }

    /// `line`, a [`format_point`] line, with one edit at the fast
    /// path's grammar edges picked by `kind` (none for `kind` 0 or ≥ 10)
    /// at token `at`: a double space, a tab, CRLF, a `+`, an exponent,
    /// a 17–19-digit fraction, an integer without a `.`, a trailing
    /// space, or 20–23 digits in all within 8 integer and 16 fraction
    /// digits.
    fn edit(line: &str, kind: usize, at: usize, x: f64) -> String {
        let tokens: Vec<&str> = line.split(' ').collect();
        let at = at % tokens.len();
        let with_token = |tok: String| {
            let mut t: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
            t[at] = tok;
            t.join(" ")
        };
        let separator = |sep: &str| {
            if tokens.len() == 1 {
                format!("{sep}{line}")
            } else {
                let (head, tail) = tokens.split_at(at.max(1));
                format!("{}{sep}{}", head.join(" "), tail.join(" "))
            }
        };
        match kind {
            1 => separator("  "),
            2 => separator("\t"),
            3 => format!("{line}\r"),
            4 => with_token(format!("+{}", x.abs())),
            5 => with_token(format!("{x:e}")),
            // 17, 18 and 19 fraction digits.
            6 => with_token(format!(
                "{}.{:0>w$}",
                x.trunc().abs() as u8,
                at,
                w = 17 + at % 3
            )),
            7 => with_token(format!("{}", x.trunc() as i32)),
            8 => format!("{line} "),
            9 => with_token(format!("{:0>8}.{:0>w$}", at, at, w = 12 + at % 4)),
            _ => line.to_string(),
        }
    }

    /// Tokens and separators of dirty point lines: signed zeros,
    /// subnormal-range and overflowing exponents, NaN/inf spellings,
    /// garbage, ASCII, vertical-tab and Unicode whitespace, and the
    /// scanner's edges: 2^53 + 1 (a tie that rounds down to even),
    /// 2^53 + 0.5, ties below 2^53 with one and two fraction digits that
    /// round down and up to even, 19 and 20 digits, a 40-digit token,
    /// and forms only the reference accepts.
    const TOKENS: [&str; 29] = [
        "1",
        "-0.0",
        "1e-300",
        "2.5",
        "-7.25e3",
        ".5",
        "+3",
        "1e400",
        "NaN",
        "inf",
        "-infinity",
        "abc",
        "0x1",
        "1_0",
        "\u{661}",
        "",
        "9007199254740993",
        "9007199254740992.5",
        "4503599627370496.5",
        "4503599627370497.5",
        "2251799813685248.25",
        "1234567890123456789",
        "12345678901234567890",
        "0.1234567890123456789",
        "1234567890123456789012345678901234567890",
        "-0",
        "1.",
        "-.5",
        "00012.5",
    ];
    const SEPARATORS: [&str; 10] = [
        " ", "  ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\u{a0}", "\u{2003}", "",
    ];

    proptest! {
        #[test]
        fn round_trip_is_exact(
            p in proptest::collection::vec(-1e15..1e15f64, 1..12),
        ) {
            let parsed = parse_point(&format_point(&p)).unwrap();
            prop_assert_eq!(parsed, p);
        }

        #[test]
        fn random_doubles_parse_as_str_parse_does(
            bits in proptest::collection::vec(0..=u64::MAX, 64),
            exps in proptest::collection::vec(1013u64..1087, 64),
        ) {
            for (&b, &e) in bits.iter().zip(&exps) {
                // The bit pattern as drawn, and its significand at a
                // magnitude `{}` writes in at most about 19 digits.
                let near = f64::from_bits(b & !(0x7ff << 52) | e << 52);
                for x in [f64::from_bits(b), near] {
                    if !x.is_finite() {
                        continue;
                    }
                    for tok in [format!("{x}"), format!("{x:e}")] {
                        let want = tok.parse::<f64>().unwrap().to_bits();
                        prop_assert_eq!(parse_point(&tok).unwrap()[0].to_bits(), want, "{}", tok);
                    }
                }
            }
        }

        /// `format_point` lines of random doubles, d = 1–12, with one
        /// edit each at the fast path's grammar edges in most of them;
        /// the split's last line or two start within 32 bytes of its end,
        /// and in half the draws the last line has no `\n`.
        #[test]
        fn fast_path_agrees_with_the_scanner_on_point_lines(
            coords in proptest::collection::vec((0..=u64::MAX, 1013u64..1087, 0..3u8), 12 * 16),
            edits in proptest::collection::vec((0..13usize, 0..12usize), 16),
            dim in 1usize..13,
        ) {
            let mut text = String::new();
            let mut canonical = 0;
            for (i, &(kind, at)) in edits.iter().enumerate() {
                let row: Vec<f64> = coords[i * 12..i * 12 + dim]
                    .iter()
                    .map(|&(bits, exp, near)| random_double(bits, exp, near))
                    .collect();
                let line = format_point(&row);
                canonical += usize::from(kind >= 10 && line.split(' ').all(fast_token));
                text.push_str(&edit(&line, kind, at, row[at % dim]));
                text.push('\n');
            }
            if edits[0].1 % 2 == 0 {
                text.pop(); // a last line without its `\n`
            }
            let taken = fast_and_scalar_agree(&text, dim);
            // Only the last line or two of a split can start too close
            // to its end.
            if simd_available() {
                prop_assert!(taken + 2 >= canonical, "{} of {}", taken, canonical);
            }
        }

        /// Random bytes, mostly from the grammar's alphabet: no panic,
        /// the scanner's verdict on every line, and the fast path runs
        /// from every offset without a panic.
        #[test]
        fn random_bytes_get_the_scanners_verdict(
            picks in proptest::collection::vec((0..20usize, 0..=u8::MAX), 0..300),
            dim in 1usize..4,
        ) {
            const ALPHABET: &[u8] = b"0123456789-. \n\t\r+e";
            let bytes: Vec<u8> = picks
                .iter()
                .map(|&(i, b)| ALPHABET.get(i).copied().unwrap_or(b))
                .collect();
            if let Ok(text) = std::str::from_utf8(&bytes) {
                fast_and_scalar_agree(text, dim);
            }
            let mut out = Vec::new();
            for i in 0..=bytes.len() {
                let _ = fast_line(&bytes, i, &mut out, simd_available());
            }
        }

        #[test]
        fn accepts_exactly_the_lines_the_unicode_parser_accepts(
            lines in proptest::collection::vec(
                proptest::collection::vec((0..TOKENS.len(), 0..SEPARATORS.len()), 0..6),
                32,
            ),
            dim in 1usize..4,
        ) {
            let mut text = String::new();
            for parts in lines {
                let mut line = String::new();
                for (t, s) in parts {
                    line.push_str(TOKENS[t]);
                    line.push_str(SEPARATORS[s]);
                }
                let mut out = vec![-1.0];
                let got = parse_point_dim_into(&line, dim, &mut out)
                    .ok()
                    .map(|()| out[1..].iter().map(|c| c.to_bits()).collect::<Vec<_>>());
                prop_assert_eq!(&got, &reference_parse_point_dim(&line, dim), "{:?}", line);
                if got.is_none() {
                    prop_assert_eq!(out.len(), 1, "rejected line {:?} left coordinates", line);
                }
                let whole = parse_point_dim(&line, dim).ok();
                prop_assert_eq!(whole.map(|p| p.iter().map(|c| c.to_bits()).collect()), got);
                text.push_str(&line);
                text.push('\n');
            }
            // The same lines as one split: the lines `InputSplit::lines`
            // cuts it into, each as the reference parses it.
            let mut scanned = PointLines::new(text.as_bytes());
            let mut out = vec![-1.0];
            for raw in text.split_inclusive('\n') {
                let line = raw.trim_end_matches(['\n', '\r']);
                let want = reference_parse_point_dim(line, dim);
                let got = scanned.next_point_dim(dim, &mut out).expect("one more line");
                match want {
                    Some(bits) => {
                        prop_assert_eq!(got, Ok(()), "{:?}", line);
                        let new = out.split_off(1);
                        prop_assert!(new.iter().map(|c| c.to_bits()).eq(bits), "{:?}", line);
                    }
                    None => {
                        prop_assert_eq!(got, Err(line));
                        prop_assert_eq!(out.len(), 1, "rejected line {:?} left coordinates", line);
                    }
                }
            }
            prop_assert!(scanned.next_point_dim(dim, &mut out).is_none());
        }
    }
}
