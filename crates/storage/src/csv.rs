//! CSV reading/writing primitives.
//!
//! Hand-rolled instead of pulling a CSV crate: the hot path (splitting a line
//! into fields and parsing a handful of them as `f64`) must avoid per-field
//! allocation, and we need precise control over byte offsets for the index's
//! positional access.
//!
//! Supported dialect: configurable single-byte delimiter, optional header
//! row, RFC-4180-style double-quote quoting with `""` escapes. A numeric
//! field is whatever `f64::from_str` accepts — surrounding white space
//! allowed, empty → NaN (NULL upstream) — unless that is ±∞, which is an
//! error; see [`parse_f64_field`].

use std::io::{BufWriter, Write};

use pai_common::Result;

use crate::schema::Schema;

/// CSV dialect configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvFormat {
    /// Field separator byte (default `,`).
    pub delimiter: u8,
    /// Whether the first line is a header to skip.
    pub has_header: bool,
    /// Quote byte used to wrap fields containing the delimiter (default `"`).
    pub quote: u8,
}

impl Default for CsvFormat {
    fn default() -> Self {
        CsvFormat {
            delimiter: b',',
            has_header: true,
            quote: b'"',
        }
    }
}

impl CsvFormat {
    /// Headerless comma-separated, the format the synthetic generator can be
    /// asked to emit for minimal file size.
    pub fn headerless() -> Self {
        CsvFormat {
            has_header: false,
            ..Self::default()
        }
    }
}

/// Splits one CSV record (without the trailing newline) into field byte
/// ranges, honoring quoting. Ranges exclude the surrounding quote characters
/// but *do not* unescape inner `""` pairs (numeric fields never contain
/// them; text consumers use [`unescape_field`]).
///
/// The output vector is reused by callers across lines to avoid allocation.
pub fn split_fields(line: &[u8], fmt: &CsvFormat, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let mut i = 0;
    let n = line.len();
    while i <= n {
        if i < n && line[i] == fmt.quote {
            // Quoted field: scan to the closing quote, skipping "" escapes.
            let start = i + 1;
            let mut j = start;
            while j < n {
                if line[j] == fmt.quote {
                    if j + 1 < n && line[j + 1] == fmt.quote {
                        j += 2; // escaped quote
                        continue;
                    }
                    break;
                }
                j += 1;
            }
            out.push((start, j.min(n)));
            // Advance past closing quote and the following delimiter.
            i = j + 1;
            if i < n && line[i] == fmt.delimiter {
                i += 1;
            } else if i >= n {
                return;
            }
        } else {
            let start = i;
            let mut j = i;
            while j < n && line[j] != fmt.delimiter {
                j += 1;
            }
            out.push((start, j));
            if j >= n {
                return;
            }
            i = j + 1;
        }
    }
}

/// Undoes `""` escaping inside a quoted field.
pub fn unescape_field(raw: &str, fmt: &CsvFormat) -> String {
    let q = fmt.quote as char;
    let doubled: String = [q, q].iter().collect();
    raw.replace(&doubled, &q.to_string())
}

/// Parses a field as f64: what `str::parse::<f64>` returns for the field
/// with Unicode white space trimmed off both ends, bit for bit — except that
/// an empty or all-blank field is NaN (NULL, as is `nan`: [`CsvWriter`]
/// writes NULLs that way) and a field that parses to ±∞ (`inf`, `infinity`,
/// `1e999`) is an error: no interval over an infinite value is a guarantee.
///
/// Plain decimals go through this module's own kernel (SWAR digits, then
/// Clinger's division or Eisel–Lemire), everything else to std. The error is
/// the message alone: the caller knows where the record lies.
pub fn parse_f64_field(bytes: &[u8]) -> std::result::Result<f64, String> {
    match parse_decimal(bytes) {
        Some(v) => Ok(v),
        None => parse_general(bytes),
    }
}

/// Every field [`parse_decimal`] declines, and the reference its tests
/// compare it to. Kept out of line: a file's numbers rarely come here.
#[cold]
fn parse_general(bytes: &[u8]) -> std::result::Result<f64, String> {
    let s = std::str::from_utf8(bytes).map_err(|_| "field is not valid UTF-8".to_string())?;
    let t = s.trim();
    if t.is_empty() {
        return Ok(f64::NAN);
    }
    match t.parse::<f64>() {
        Ok(v) if v.is_infinite() => Err(format!("'{t}' is not a finite number")),
        Ok(v) => Ok(v),
        Err(_) => Err(format!("cannot parse '{t}' as a number")),
    }
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// `0x80` in exactly the bytes of `word` that equal `byte`.
#[inline]
pub(crate) fn bytes_equal(word: u64, byte: u8) -> u64 {
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    // Adding 0x7f carries into a byte's top bit iff its low seven bits are
    // not all zero; no carry leaves the byte, so every lane is exact.
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// Eight ASCII `'0'`s.
const ZEROS: u64 = 0x3030_3030_3030_3030;

#[inline]
fn load(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Whether all eight bytes of `word` are ASCII digits.
#[inline]
fn all_digits(word: u64) -> bool {
    // A byte less `'0'` is at most 9 iff neither it nor it plus 0x76 has its
    // top bit set. Both operations may wrap, and borrow or carry from lane to
    // lane, but only out of a byte that is not a digit and is flagged itself:
    // the lowest such byte always is, and that is all the test asks.
    let v = word.wrapping_sub(ZEROS);
    (v | v.wrapping_add(0x7676_7676_7676_7676)) & 0x8080_8080_8080_8080 == 0
}

/// The number spelled by the eight ASCII digits of `word`, first digit in
/// the lowest byte.
#[inline]
fn eight_digits(word: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = word - ZEROS;
    // Pairs of digits (each < 100) in the odd bytes: no lane overflows.
    let v = v * 10 + (v >> 8);
    // Each product's upper half is a sum of four of the pairs, weighted; the
    // terms that wrap past bit 63 are the ones the shift would drop anyway.
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    v1.wrapping_add(v2) >> 32
}

const POW10: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

/// `w` with the digits of the run `s[at..end]` (not empty) appended, eight at
/// a time; `None` if one of them is not a digit. `word0` holds the first
/// eight bytes of `s`, zero-filled past its end. The caller has made sure
/// the result fits.
#[inline]
fn append_digits(s: &[u8], word0: u64, mut at: usize, end: usize, mut w: u64) -> Option<u64> {
    while end - at > 8 {
        let word = load(&s[at..at + 8]);
        if !all_digits(word) {
            return None;
        }
        w = w * POW10[8] + eight_digits(word);
        at += 8;
    }
    // The last one to eight digits, in the top bytes of a word: from the
    // eight bytes that end with them (whatever comes before them in `s`
    // lands in the low bytes), or out of `word0` when `s` is that short.
    let len = end - at;
    let pad = 8 * (8 - len) as u32;
    let word = match end.checked_sub(8) {
        Some(from) => load(&s[from..end]),
        None => word0 >> (8 * at) << pad,
    };
    // '0's below them: leading zeros.
    let low = (1u64 << pad) - 1;
    let word = (word & !low) | (ZEROS & low);
    all_digits(word).then(|| w * POW10[len] + eight_digits(word))
}

/// The fast path of [`parse_f64_field`]: `[-]digits[.digits]` with at most
/// 19 digits after the leading zeros, no more than 27 of them behind the
/// point, and nothing else — correctly rounded, so equal to what std's
/// `parse` returns. `None` for any other shape (empty, blanks, `+`, `1.`,
/// `.5`, exponents, `inf`, `nan`, more digits, non-ASCII).
fn parse_decimal(field: &[u8]) -> Option<f64> {
    let (negative, s) = match field {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, field),
    };
    let n = s.len();
    // The first eight bytes, zero-filled past a shorter field's end: two
    // loads that overlap, not a loop whose length the predictor has to guess.
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            s[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let pair = |at: usize| {
        u64::from(u16::from_le_bytes(
            s[at..at + 2].try_into().expect("2 bytes"),
        ))
    };
    let word0 = match n {
        8.. => load(&s[..8]),
        4..=7 => half(0) | half(n - 4) << (8 * (n - 4)),
        2..=3 => pair(0) | pair(n - 2) << (8 * (n - 2)),
        1 => u64::from(s[0]),
        0 => 0,
    };
    // Where the point is (`n`: nowhere) without a branch per digit.
    let hits = bytes_equal(word0, b'.');
    let point = if hits != 0 {
        (hits.trailing_zeros() / 8) as usize
    } else {
        s.iter().position(|&b| b == b'.').unwrap_or(n)
    };
    // A digit at least on each side of a point.
    if point == 0 || point + 1 == n {
        return None;
    }
    let scale = n.saturating_sub(point + 1);
    let digits = point + scale;
    if digits > 19 {
        // Only leading zeros do not count against the 19 that fit a `u64`.
        let not_point = s.iter().filter(|&&b| b != b'.');
        let zeros = not_point.take_while(|&&b| b == b'0').count();
        if scale > 27 || digits - zeros > 19 {
            return None;
        }
    }
    let mut w = append_digits(s, word0, 0, point, 0)?;
    if scale > 0 {
        w = append_digits(s, word0, point + 1, n, w)?;
    }
    let v = if digits <= 15 {
        // Clinger: `w < 10^15 < 2^53` and `10^scale` are both exact doubles,
        // so the one rounding is the division's. Chosen by the count of
        // digits, which a column keeps, not by `w <= 2^53`, which falls
        // inside the 16-digit renderings of a file of doubles and would be
        // a coin toss per field.
        w as f64 / POW10_F64[scale]
    } else if w == 0 {
        0.0
    } else {
        eisel_lemire(w, scale)
    };
    Some(if negative { -v } else { v })
}

/// The powers of ten a fraction of at most 15 digits needs, all exact.
const POW10_F64: [f64; 15] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
];

/// `POW5_INV[k]`, `k` in `0..=27`: `5^-k` as a 128-bit significand with its
/// top bit set — `floor(2^b / 5^k) + 1` for the one `b` that puts it there
/// (`2^127` itself for `k = 0`). `5^27 < 2^64`, which is what makes the
/// Eisel–Lemire product below conclusive on every input.
const POW5_INV: [u128; 28] = {
    let mut table = [1u128 << 127; 28];
    let mut five = 1u128;
    let mut k = 1;
    while k < table.len() {
        five *= 5;
        // Long division of 2^b, a one and `b` zeros, by 5^k: the quotient's
        // top bit comes out where the running remainder first reaches the
        // divisor, and 127 more bits follow it.
        let (mut quotient, mut rem, mut bits) = (0u128, 1u128, 0);
        while bits < 128 {
            rem *= 2;
            quotient = (quotient << (bits > 0) as u32) | (rem >= five) as u128;
            if rem >= five {
                rem -= five;
            }
            bits += (quotient > 0) as u32;
        }
        table[k] = quotient + 1;
        k += 1;
    }
    table
};

/// The double nearest `w · 10^-scale` (`w` not zero, `scale` in `0..=27`),
/// ties to even, by the Eisel–Lemire algorithm (Lemire, "Number parsing at a
/// gigabyte per second", 2021; the steps are those of std's own
/// `dec2flt::lemire`). In this range the result is a normal double and the
/// 128-bit product always decides the rounding.
fn eisel_lemire(w: u64, scale: usize) -> f64 {
    let lz = w.leading_zeros();
    let w = u128::from(w << lz);
    let (five_hi, five_lo) = ((POW5_INV[scale] >> 64) as u64, POW5_INV[scale] as u64);
    let first = w * u128::from(five_hi);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    // 52 mantissa bits, the hidden one, a rounding bit and one for a leading
    // zero: when the nine bits below those are all ones the low half of the
    // table entry could carry into them.
    if hi & 0x1ff == 0x1ff {
        let second_hi = ((w * u128::from(five_lo)) >> 64) as u64;
        let (sum, carry) = lo.overflowing_add(second_hi);
        lo = sum;
        hi += u64::from(carry);
    }
    let upper = (hi >> 63) as u32;
    let shift = upper + 9;
    let mut mantissa = hi >> shift;
    // floor(log2(10^-scale)) + 63, then the product's own leading bit.
    let exponent = ((-(scale as i32) * 217_706) >> 16) + 63 + upper as i32 - lz as i32 + 1023;
    // Exactly halfway between two doubles and the lower one even: round
    // down. (5^scale then divides `w` and leaves 54 bits, so `scale <= 4`.)
    if lo <= 1 && scale <= 4 && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    // The hidden bit is added into the exponent field, not masked off: a
    // mantissa that rounded up to 2^53 carries one more into it.
    f64::from_bits(((exponent as u64 - 1) << 52) + mantissa)
}

/// Extracts the values of `wanted` column ids from a record into `out`
/// (parallel to `wanted`). `ranges` must come from [`split_fields`] on the
/// same line. The error is the message alone, as [`parse_f64_field`]'s.
pub fn extract_f64(
    line: &[u8],
    ranges: &[(usize, usize)],
    wanted: &[usize],
    out: &mut Vec<f64>,
) -> std::result::Result<(), String> {
    out.clear();
    for &col in wanted {
        out.push(field_f64(line, ranges, col)?);
    }
    Ok(())
}

/// The value of column `col` of a record split into `ranges` (as
/// [`extract_f64`] reads each of its columns).
pub(crate) fn field_f64(
    line: &[u8],
    ranges: &[(usize, usize)],
    col: usize,
) -> std::result::Result<f64, String> {
    let (a, b) = *ranges
        .get(col)
        .ok_or_else(|| missing_column(ranges.len(), col))?;
    parse_f64_field(&line[a..b])
}

/// What asking a record of `fields` fields for column `col` says.
pub(crate) fn missing_column(fields: usize, col: usize) -> String {
    format!("record has {fields} fields, wanted column {col}")
}

/// Quotes a text field if it contains the delimiter, a quote, or a newline.
pub fn escape_field(value: &str, fmt: &CsvFormat) -> String {
    let d = fmt.delimiter as char;
    let q = fmt.quote as char;
    if value.contains(d) || value.contains(q) || value.contains('\n') || value.contains('\r') {
        let mut s = String::with_capacity(value.len() + 2);
        s.push(q);
        for ch in value.chars() {
            if ch == q {
                s.push(q);
            }
            s.push(ch);
        }
        s.push(q);
        s
    } else {
        value.to_string()
    }
}

/// Streaming CSV writer used by the synthetic-data generator.
///
/// Buffers aggressively (datasets run to millions of rows) and formats
/// floats with enough digits to round-trip through the parser.
pub struct CsvWriter<W: Write> {
    out: BufWriter<W>,
    fmt: CsvFormat,
    rows_written: u64,
}

impl<W: Write> CsvWriter<W> {
    /// Creates a writer; emits the header immediately when the format has one.
    pub fn new(inner: W, schema: &Schema, fmt: CsvFormat) -> Result<Self> {
        let mut out = BufWriter::with_capacity(1 << 20, inner);
        if fmt.has_header {
            let names: Vec<String> = schema
                .columns()
                .iter()
                .map(|c| escape_field(&c.name, &fmt))
                .collect();
            writeln!(out, "{}", names.join(&(fmt.delimiter as char).to_string()))?;
        }
        Ok(CsvWriter {
            out,
            fmt,
            rows_written: 0,
        })
    }

    /// Writes one all-numeric record.
    pub fn write_row(&mut self, values: &[f64]) -> Result<()> {
        let d = self.fmt.delimiter as char;
        let mut first = true;
        for &v in values {
            if !first {
                write!(self.out, "{d}")?;
            }
            first = false;
            // `{}` on f64 is the shortest representation that round-trips.
            write!(self.out, "{v}")?;
        }
        writeln!(self.out)?;
        self.rows_written += 1;
        Ok(())
    }

    /// Writes one record of pre-rendered string fields (text columns).
    pub fn write_string_row(&mut self, fields: &[&str]) -> Result<()> {
        let d = self.fmt.delimiter as char;
        let rendered: Vec<String> = fields.iter().map(|f| escape_field(f, &self.fmt)).collect();
        writeln!(self.out, "{}", rendered.join(&d.to_string()))?;
        self.rows_written += 1;
        Ok(())
    }

    /// Data rows written so far (header excluded).
    pub fn rows_written(&self) -> u64 {
        self.rows_written
    }

    /// Flushes and returns the inner writer.
    pub fn finish(mut self) -> Result<()> {
        self.out.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};

    fn fields(line: &str) -> Vec<String> {
        let fmt = CsvFormat::default();
        let mut ranges = Vec::new();
        split_fields(line.as_bytes(), &fmt, &mut ranges);
        ranges
            .iter()
            .map(|&(a, b)| String::from_utf8_lossy(&line.as_bytes()[a..b]).into_owned())
            .collect()
    }

    #[test]
    fn split_simple() {
        assert_eq!(fields("1,2,3"), vec!["1", "2", "3"]);
    }

    #[test]
    fn split_empty_fields() {
        assert_eq!(fields("a,,c"), vec!["a", "", "c"]);
        assert_eq!(fields(",,"), vec!["", "", ""]);
        assert_eq!(fields(""), vec![""]);
    }

    #[test]
    fn split_trailing_delimiter() {
        assert_eq!(fields("a,b,"), vec!["a", "b", ""]);
    }

    #[test]
    fn split_quoted() {
        assert_eq!(fields(r#""hello, world",2"#), vec!["hello, world", "2"]);
        assert_eq!(
            fields(r#"1,"say ""hi""",3"#),
            vec!["1", r#"say ""hi"""#, "3"]
        );
    }

    #[test]
    fn unescape_quotes() {
        let fmt = CsvFormat::default();
        assert_eq!(unescape_field(r#"say ""hi"""#, &fmt), r#"say "hi""#);
    }

    #[test]
    fn parse_field_variants() {
        assert_eq!(parse_f64_field(b"3.25").unwrap(), 3.25);
        assert_eq!(parse_f64_field(b" -7 ").unwrap(), -7.0);
        // `str::trim` is Unicode's `White_Space`, not ASCII's.
        assert_eq!(parse_f64_field("\u{a0}7".as_bytes()).unwrap(), 7.0);
        assert!(parse_f64_field(b"").unwrap().is_nan());
        assert!(parse_f64_field(b"  ").unwrap().is_nan());
        assert!(parse_f64_field(b"abc").is_err());
        assert_eq!(parse_f64_field(b"1e3").unwrap(), 1000.0);
    }

    /// `text` through the kernel and through the entry point, each against
    /// the fallback — std's `parse` — bit for bit. Returns whether the kernel
    /// took it.
    fn check_against_std(text: &[u8]) -> bool {
        let bits = |r: std::result::Result<f64, String>| r.map(f64::to_bits);
        let want = bits(parse_general(text));
        let shown = String::from_utf8_lossy(text);
        assert_eq!(bits(parse_f64_field(text)), want, "{shown:?}");
        let fast = parse_decimal(text);
        if let Some(v) = fast {
            assert_eq!(Ok(v.to_bits()), want, "{shown:?}");
        }
        fast.is_some()
    }

    #[test]
    fn decimal_kernel_rounds_the_boundaries_as_std_does() {
        let taken = [
            "0",
            "7",
            "1234567",
            "12345678",
            "123456789",
            "1.5",
            "1234567.5",
            "0.1",
            "0.3",
            "-0",
            "-0.0",
            "-2.5",
            // 2^53, the last integer Clinger's division takes, and the tie
            // and the odd neighbours just past it.
            "9007199254740992",
            "9007199254740993",
            "9007199254740993.5",
            "9007199254740994",
            "9007199254740995",
            "9007199254740992.0",
            "900719925474099.3",
            "4503599627370496.5",
            "4503599627370497.5",
            "1125899906842624.125",
            "1125899906842624.375",
            "562949953421312.0625",
            "562949953421312.1875",
            // Rounds up into the next power of two.
            "9007199254740991.9",
            "4503599627370495.99",
            "0.99999999999999999",
            "1.999999999999999999",
            // 19 digits every way: all that is sure to fit a `u64`.
            "1.844674407370955161",
            "9999999999999999999",
            "0.9999999999999999999",
            "1000000000000000000",
            "123456789012.3456789",
            "12345678.90123456789",
            // Leading zeros do not count against the 19.
            "0000000000000000000.5",
            "000000000000000000000000000007",
            "0.000000001234567890123456789",
            "0.000000000000000000000000001",
            "0.00000000000000000000000000",
            "-0.00000000000000000000000000",
            "0.00000000000000000000000",
        ];
        for text in taken {
            assert!(check_against_std(text.as_bytes()), "{text} not taken");
        }
        let declined = [
            "18446744073709551615",
            "18446744073709551616",
            "1844674407370955161.5",
            "12345678901234567890",
            "1234567890123456789.0",
            "0.12345678901234567891",
            "10000000000000000000000000000",
            "0.0000000000000000000000000001",
            "0.0000000000000000000000000000",
        ];
        for text in declined {
            assert!(!check_against_std(text.as_bytes()), "{text} taken");
        }
    }

    #[test]
    fn declined_shapes_answer_as_the_fallback_does() {
        let shapes: [&[u8]; 46] = [
            b"",
            b" ",
            b"-",
            b".",
            b"-.",
            b"+1",
            b"+1.5",
            b"1.",
            b".5",
            b"-.5",
            b"-1.",
            b"12345678.",
            b".12345678",
            b"--1",
            b"-+1",
            b"1-",
            b"1..2",
            b"1.2.3",
            b"1234567.1234567.1",
            b"1e3",
            b"1E-3",
            b"1.5e300",
            b"1e999",
            b"-1e999",
            b"inf",
            b"-inf",
            b"Infinity",
            b"nan",
            b"NaN",
            b" -7 ",
            b" 12345678.125",
            b"12345678.125 ",
            b"1 2",
            b"1,2",
            b"1_000",
            b"0x10",
            b"12a",
            b"a12",
            b"1234567/",
            b"1234567:",
            b"1234567.1234567x",
            b"x1234567.1234567",
            b"123\x004567.5",
            "\u{a0}7".as_bytes(),
            "\u{663}".as_bytes(),
            b"\xff1234567.5",
        ];
        for text in shapes {
            assert!(!check_against_std(text), "{text:?} taken");
        }
        // ±∞ is not a value a bound can be computed over; NaN is NULL.
        for text in ["inf", "-inf", "Infinity", "1e999", "-1e999"] {
            let err = parse_f64_field(text.as_bytes()).unwrap_err();
            assert!(err.contains("not a finite number"), "{err}");
        }
        assert!(parse_f64_field(b"nan").unwrap().is_nan());
    }

    /// `c * d` as three 64-bit limbs, most significant first.
    fn mul_192(c: u128, d: u64) -> [u64; 3] {
        let low = (c as u64 as u128) * d as u128;
        let high = (c >> 64) * d as u128 + (low >> 64);
        [(high >> 64) as u64, high as u64, low as u64]
    }

    #[test]
    fn power_of_five_table_is_the_rounded_up_reciprocal() {
        assert_eq!(POW5_INV[0], 1 << 127);
        assert_eq!(POW5_INV[1], 0xcccc_cccc_cccc_cccc_cccc_cccc_cccc_cccd);
        for (k, &c) in POW5_INV.iter().enumerate().skip(1) {
            let five = 5u64.pow(k as u32);
            assert_eq!(c >> 127, 1, "5^-{k} is not normalised");
            // c = floor(2^b / 5^k) + 1  <=>  (c - 1) * 5^k <= 2^b < c * 5^k,
            // and b is the one exponent that leaves c 128 bits long.
            let b = 127 + (64 - five.leading_zeros());
            let mut two_b = [0u64; 3];
            two_b[2 - (b / 64) as usize] = 1 << (b % 64);
            assert!(mul_192(c - 1, five) <= two_b, "5^-{k} too large");
            assert!(two_b < mul_192(c, five), "5^-{k} too small");
        }
    }

    #[test]
    fn generated_fixture_fields_take_the_fast_path() {
        let file = crate::gen::DatasetSpec::clustered(2000)
            .build_mem(CsvFormat::headerless())
            .unwrap();
        let (mut fields, mut taken) = (0, 0);
        for field in file.bytes().split(|&b| b == b',' || b == b'\n') {
            if !field.is_empty() {
                fields += 1;
                taken += usize::from(check_against_std(field));
            }
        }
        assert!(fields >= 2000 * 10, "{fields} fields");
        assert!(taken * 100 >= fields * 99, "{taken} of {fields} fields");
    }

    #[test]
    fn extract_selected_columns() {
        let fmt = CsvFormat::default();
        let line = b"1.5,2.5,3.5,4.5";
        let mut ranges = Vec::new();
        split_fields(line, &fmt, &mut ranges);
        let mut out = Vec::new();
        extract_f64(line, &ranges, &[3, 0], &mut out).unwrap();
        assert_eq!(out, vec![4.5, 1.5]);
        // Missing column is an error mentioning field count.
        let err = extract_f64(line, &ranges, &[9], &mut out).unwrap_err();
        assert!(err.contains("wanted column 9"));
    }

    #[test]
    fn escape_round_trip() {
        let fmt = CsvFormat::default();
        for s in ["plain", "with,comma", "with\"quote", "multi\nline"] {
            let esc = escape_field(s, &fmt);
            let parsed = fields(&esc);
            assert_eq!(parsed.len(), 1, "escaped field must stay one field: {esc}");
            assert_eq!(unescape_field(&parsed[0], &fmt), s);
        }
    }

    #[test]
    fn writer_emits_header_and_rows() {
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::float("v")],
            0,
            1,
        )
        .unwrap();
        let mut buf = Vec::new();
        {
            let mut w = CsvWriter::new(&mut buf, &schema, CsvFormat::default()).unwrap();
            w.write_row(&[1.0, 2.0, 3.5]).unwrap();
            w.write_row(&[-0.25, 1e10, 0.0]).unwrap();
            assert_eq!(w.rows_written(), 2);
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("x,y,v"));
        assert_eq!(lines.next(), Some("1,2,3.5"));
        assert_eq!(lines.next(), Some("-0.25,10000000000,0"));
    }

    #[test]
    fn writer_float_round_trip() {
        let schema = Schema::synthetic(2);
        let mut buf = Vec::new();
        let vals = [0.1 + 0.2, std::f64::consts::PI];
        {
            let mut w = CsvWriter::new(&mut buf, &schema, CsvFormat::headerless()).unwrap();
            w.write_row(&vals).unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let parsed: Vec<f64> = text.trim().split(',').map(|f| f.parse().unwrap()).collect();
        assert_eq!(parsed, vals, "shortest-repr floats must round-trip exactly");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary finite floats written by CsvWriter parse back
            /// bit-exactly through the field machinery.
            #[test]
            fn prop_numeric_row_round_trip(
                vals in prop::collection::vec(
                    prop::num::f64::NORMAL | prop::num::f64::ZERO | prop::num::f64::SUBNORMAL,
                    2..8,
                ),
            ) {
                let schema = Schema::synthetic(vals.len());
                let mut buf = Vec::new();
                {
                    let mut w =
                        CsvWriter::new(&mut buf, &schema, CsvFormat::headerless()).unwrap();
                    w.write_row(&vals).unwrap();
                    w.finish().unwrap();
                }
                let line = String::from_utf8(buf).unwrap();
                let line = line.trim_end_matches('\n');
                let fmt = CsvFormat::headerless();
                let mut ranges = Vec::new();
                split_fields(line.as_bytes(), &fmt, &mut ranges);
                prop_assert_eq!(ranges.len(), vals.len());
                let wanted: Vec<usize> = (0..vals.len()).collect();
                let mut out = Vec::new();
                extract_f64(line.as_bytes(), &ranges, &wanted, &mut out).unwrap();
                prop_assert_eq!(out, vals);
            }

            /// Shortest round-trip renderings of doubles of every
            /// magnitude a data file holds: all taken, all as std reads them.
            #[test]
            fn prop_decimal_kernel_reads_rendered_doubles_as_std(
                draws in prop::collection::vec((1.0f64..10.0, -9i32..13, any::<bool>()), 2000..2001),
            ) {
                for (mantissa, exponent, negative) in draws {
                    let v = mantissa * 10f64.powi(exponent) * if negative { -1.0 } else { 1.0 };
                    let text = format!("{v}");
                    prop_assert!(check_against_std(text.as_bytes()), "{} not taken", text);
                    prop_assert_eq!(parse_decimal(text.as_bytes()).map(f64::to_bits), Some(v.to_bits()));
                }
            }

            /// Digit strings of any length with a point anywhere (or
            /// nowhere, or at either end): taken or not, what std reads.
            #[test]
            fn prop_decimal_kernel_reads_digit_strings_as_std(
                draws in prop::collection::vec(
                    (prop::collection::vec(0u32..10, 1..26), 0usize..28, 0usize..4, any::<bool>()),
                    2000..2001,
                ),
            ) {
                let mut taken = 0;
                for (digits, point, zeros, negative) in &draws {
                    let mut text: Vec<u8> = digits.iter().map(|&d| b'0' + d as u8).collect();
                    // Some start with a run of zeros, the only digits that
                    // do not count.
                    text[..(*zeros * 3).min(digits.len() - 1)].fill(b'0');
                    if *point <= text.len() {
                        text.insert(*point, b'.');
                    }
                    if *negative {
                        text.insert(0, b'-');
                    }
                    taken += usize::from(check_against_std(&text));
                }
                prop_assert!(taken > draws.len() / 4, "{} taken", taken);
            }

            /// Exact ties — an odd 54-bit integer over 2^j, halfway between
            /// two doubles — and the same digits at other scales, where they
            /// are not ties.
            #[test]
            fn prop_decimal_kernel_breaks_ties_as_std(
                draws in prop::collection::vec((any::<u64>(), 0u32..5, 0usize..24), 2000..2001),
            ) {
                for (bits, j, zeros) in draws {
                    let odd = (1u64 << 53) | (bits >> 11) | 1;
                    // odd / 2^j = odd * 5^j / 10^j
                    let Some(w) = odd.checked_mul(5u64.pow(j)).filter(|&w| w < 10u64.pow(19)) else {
                        continue;
                    };
                    let digits = w.to_string();
                    let (int, frac) = digits.split_at(digits.len() - j as usize);
                    let tie = if j == 0 { digits.clone() } else { format!("{int}.{frac}") };
                    prop_assert!(check_against_std(tie.as_bytes()), "{} not taken", tie);
                    let small = format!("-0.{}{digits}", "0".repeat(zeros));
                    prop_assert_eq!(check_against_std(small.as_bytes()), zeros + digits.len() <= 27);
                }
            }

            /// Arbitrary text (including delimiters/quotes/newlines) escapes
            /// into a single field and unescapes back to the original.
            #[test]
            fn prop_text_field_round_trip(text in ".{0,40}") {
                // Per-field round trip only holds for single-line fields in
                // our line-oriented splitter; normalize newlines away.
                let text: String = text.chars().filter(|&c| c != '\n' && c != '\r').collect();
                let fmt = CsvFormat::default();
                let escaped = escape_field(&text, &fmt);
                let mut ranges = Vec::new();
                split_fields(escaped.as_bytes(), &fmt, &mut ranges);
                prop_assert_eq!(ranges.len(), 1, "escaped text must remain one field");
                let (a, b) = ranges[0];
                // Field boundaries from split_fields land on char
                // boundaries of our escaping (quote/delimiter are ASCII).
                let raw = &escaped[a..b];
                prop_assert_eq!(unescape_field(raw, &fmt), text);
            }

            /// Splitting never panics and always yields at least one field.
            #[test]
            fn prop_split_total(line in prop::collection::vec(any::<u8>(), 0..120)) {
                // Strip newline bytes: callers always hand in one record.
                let line: Vec<u8> = line.into_iter().filter(|&b| b != b'\n' && b != b'\r').collect();
                let fmt = CsvFormat::default();
                let mut ranges = Vec::new();
                split_fields(&line, &fmt, &mut ranges);
                prop_assert!(!ranges.is_empty());
                for &(a, b) in &ranges {
                    prop_assert!(a <= b && b <= line.len());
                }
            }
        }
    }

    #[test]
    fn write_string_row_escapes() {
        let schema = Schema::new(
            vec![Column::float("x"), Column::float("y"), Column::text("t")],
            0,
            1,
        )
        .unwrap();
        let mut buf = Vec::new();
        {
            let mut w = CsvWriter::new(&mut buf, &schema, CsvFormat::default()).unwrap();
            w.write_string_row(&["1", "2", "a,b"]).unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().nth(1).unwrap().contains("\"a,b\""));
    }
}
