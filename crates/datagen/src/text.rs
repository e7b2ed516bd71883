//! The point-per-line text encoding.
//!
//! Points travel through the DFS exactly as the paper stores them in
//! HDFS: one point per line, coordinates as space-separated decimal
//! strings. §3.2 sizes reducer memory assuming "the value of a point in
//! each dimension is stored as a string of approximatively 15
//! characters (the number of significant decimal digits of IEEE 754
//! double-precision floating-point format)"; the formatter below emits
//! full round-trip precision, which lands in the same regime.

use std::fmt::Write;

use gmr_mapreduce::{Error, Result};

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
pub(crate) fn write_point(line: &mut String, coords: &[f64]) {
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
/// whitespace. The fast path splits on ASCII whitespace; a line it
/// rejects is re-parsed on the Unicode path, which alone decides. The
/// two agree on every line the fast path accepts: a token `f64` parses
/// holds no whitespace at all, and every ASCII whitespace character is
/// Unicode whitespace.
pub fn parse_point_into(line: &str, out: &mut Vec<f64>) -> Result<usize> {
    let start = out.len();
    if parse_ascii(line, out) {
        return Ok(out.len() - start);
    }
    out.truncate(start);
    let result = parse_unicode(line, out);
    if result.is_err() {
        out.truncate(start);
    }
    result.map(|()| out.len() - start)
}

/// The fast path: pushes every ASCII-whitespace-separated token as a
/// finite `f64`; false at the first token that is not one, or when
/// there is no token.
fn parse_ascii(line: &str, out: &mut Vec<f64>) -> bool {
    let start = out.len();
    for tok in line.split_ascii_whitespace() {
        match tok.parse::<f64>() {
            Ok(v) if v.is_finite() => out.push(v),
            _ => return false,
        }
    }
    out.len() > start
}

/// The reference parse: Unicode whitespace, with an error naming the
/// first bad token.
fn parse_unicode(line: &str, out: &mut Vec<f64>) -> Result<()> {
    let start = out.len();
    for tok in line.split_whitespace() {
        let v: f64 = tok
            .parse()
            .map_err(|e| Error::Corrupt(format!("bad coordinate {tok:?}: {e}")))?;
        if !v.is_finite() {
            return Err(Error::Corrupt(format!("non-finite coordinate {tok:?}")));
        }
        out.push(v);
    }
    if out.len() == start {
        return Err(Error::Corrupt("empty point line".into()));
    }
    Ok(())
}

/// [`parse_point_into`] that also requires exactly `dim` coordinates;
/// on any error `out` is left unchanged.
pub fn parse_point_dim_into(line: &str, dim: usize, out: &mut Vec<f64>) -> Result<()> {
    let n = parse_point_into(line, out)?;
    if n != dim {
        out.truncate(out.len() - n);
        return Err(Error::Corrupt(format!(
            "point has {n} coordinates, expected {dim}"
        )));
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

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The parser as it stood before the ASCII fast path: one `Vec` per
    /// line, Unicode whitespace. The reference the fast path must match.
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

    /// Tokens and separators of dirty point lines: signed zeros,
    /// subnormal-range and overflowing exponents, NaN/inf spellings,
    /// garbage, and ASCII, vertical-tab and Unicode whitespace.
    const TOKENS: [&str; 16] = [
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
        fn accepts_exactly_the_lines_the_unicode_parser_accepts(
            lines in proptest::collection::vec(
                proptest::collection::vec((0..TOKENS.len(), 0..SEPARATORS.len()), 0..6),
                32,
            ),
            dim in 1usize..4,
        ) {
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
            }
        }
    }
}
