//! Plain-text table rendering for experiment reports.
//!
//! Every experiment renders its result the way the paper prints it — as a
//! table of labelled rows — so `repro`'s output can be eyeballed against
//! the publication directly.

use std::fmt;

/// A simple aligned ASCII table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn add_row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Render as RFC-4180-style CSV (header row first; cells containing
    /// commas, quotes, or newlines are quoted with doubled quotes).
    pub fn to_csv(&self) -> String {
        let mut out = csv_line(self.headers.iter().map(String::as_str));
        for row in &self.rows {
            out.push_str(&csv_line(row.iter().map(String::as_str)));
        }
        out
    }
}

/// Serialize one CSV record — the exact quoting [`Table::to_csv`] uses,
/// exposed so streaming writers (which never materialize a `Table`) emit
/// byte-identical rows. Includes the trailing newline.
pub fn csv_line<'a>(cells: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = Vec::new();
    let mut record = CsvRecord::new(&mut out);
    for cell in cells {
        record.field(cell);
    }
    record.end();
    String::from_utf8(out).expect("quoting UTF-8 cells keeps them UTF-8")
}

/// Appends one CSV record to a byte buffer, field by field, under the
/// quoting rule of [`csv_line`]: a field holding a comma, quote or newline
/// is wrapped in quotes with its quotes doubled. Allocates nothing unless
/// a field needs quoting, so a streaming writer can render rows into one
/// reused buffer.
pub(crate) struct CsvRecord<'a> {
    buf: &'a mut Vec<u8>,
    fields: usize,
}

impl<'a> CsvRecord<'a> {
    pub(crate) fn new(buf: &'a mut Vec<u8>) -> CsvRecord<'a> {
        CsvRecord { buf, fields: 0 }
    }

    /// Append a field that `write` spells into the buffer.
    pub(crate) fn field_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        if self.fields > 0 {
            self.buf.push(b',');
        }
        self.fields += 1;
        let start = self.buf.len();
        write(self.buf);
        if self.buf[start..]
            .iter()
            .any(|b| matches!(b, b',' | b'"' | b'\n'))
        {
            let raw = self.buf.split_off(start);
            self.buf.push(b'"');
            for &b in &raw {
                if b == b'"' {
                    self.buf.push(b'"');
                }
                self.buf.push(b);
            }
            self.buf.push(b'"');
        }
    }

    /// Append a literal field.
    pub(crate) fn field(&mut self, s: &str) {
        self.field_with(|buf| buf.extend_from_slice(s.as_bytes()));
    }

    /// Append a formatted field (`format_args!`), rendered in place.
    pub(crate) fn field_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.field_with(|buf| {
            std::io::Write::write_fmt(buf, args).expect("writing into a Vec cannot fail");
        });
    }

    /// Append `x` spelled exactly as `format!("{x:.4}")` ([`push_fixed4`]).
    pub(crate) fn field_fixed4(&mut self, x: f64) {
        self.field_with(|buf| push_fixed4(buf, x));
    }

    /// Append `n` spelled exactly as `n.to_string()` ([`push_u64`]).
    pub(crate) fn field_u64(&mut self, n: u64) {
        self.field_with(|buf| push_u64(buf, n));
    }

    /// End the record with its newline.
    pub(crate) fn end(self) {
        self.buf.push(b'\n');
    }
}

/// Append the decimal digits of `n`: the bytes of `n.to_string()`.
pub(crate) fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Append the decimal digits of `n`, wide or not.
fn push_u128(buf: &mut Vec<u8>, n: u128) {
    const LOW: u128 = 10u128.pow(19);
    match u64::try_from(n) {
        Ok(n) => push_u64(buf, n),
        Err(_) => {
            push_u128(buf, n / LOW);
            let mut low = (n % LOW) as u64;
            let mut digits = [0u8; 19];
            for d in digits.iter_mut().rev() {
                *d = b'0' + (low % 10) as u8;
                low /= 10;
            }
            buf.extend_from_slice(&digits);
        }
    }
}

/// Append `x` with four decimals: byte for byte what `format!("{x:.4}")`
/// writes, at a fraction of core::fmt's cost. A finite `x = ±m·2^e` below
/// 2^113 scales to `n = round(|x|·10⁴)` exactly in a `u128` (ties to even,
/// as core::fmt rounds), printed as the sign bit, `n / 10⁴`, a point and
/// `n % 10⁴` in four digits. Non-finite values, and magnitudes whose
/// scaled integer could overflow, fall back to core::fmt.
pub(crate) fn push_fixed4(buf: &mut Vec<u8>, x: f64) {
    const SCALE: u128 = 10_000;
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // 0x7ff is NaN or infinity; 1136 = 1023 + 113 is the biased exponent
    // of 2^113, where |x|·10⁴ < 2^127 stops being guaranteed.
    if biased >= 1136 {
        std::io::Write::write_fmt(buf, format_args!("{x:.4}"))
            .expect("writing into a Vec cannot fail");
        return;
    }
    // |x| = m·2^e, subnormals included.
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let scaled = u128::from(m) * SCALE;
    let n = if e >= 0 {
        scaled << e
    } else {
        // `scaled` < 2^67, so from a shift of 68 on it is below half of
        // one unit and rounds to zero.
        let shift = e.unsigned_abs();
        if shift >= 68 {
            0
        } else {
            let n = scaled >> shift;
            let rest = scaled & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            n + u128::from(rest > half || (rest == half && n & 1 == 1))
        }
    };
    if bits >> 63 == 1 {
        buf.push(b'-');
    }
    // Integer part and four decimals, in u64 arithmetic unless |x| ≥ 2^64/10⁴.
    let frac = match u64::try_from(n) {
        Ok(n) => {
            push_u64(buf, n / 10_000);
            (n % 10_000) as u16
        }
        Err(_) => {
            push_u128(buf, n / SCALE);
            (n % SCALE) as u16
        }
    };
    buf.extend_from_slice(&[
        b'.',
        b'0' + (frac / 1000) as u8,
        b'0' + (frac / 100 % 10) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        writeln!(f, "+{sep}+")?;
        let fmt_row = |row: &[String]| -> String {
            let cells: Vec<String> = (0..cols)
                .map(|i| format!(" {:<width$} ", row[i], width = widths[i]))
                .collect();
            format!("|{}|", cells.join("|"))
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(f, "+{sep}+")?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        writeln!(f, "+{sep}+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_testkit::prop::*;

    #[test]
    fn renders_aligned_grid() {
        let mut t = Table::new("Demo", ["name", "value"]);
        t.add_row(["short", "1"]);
        t.add_row(["much longer name", "23456"]);
        let s = t.to_string();
        assert!(s.starts_with("Demo\n"));
        assert!(s.contains("| name             | value |"));
        assert!(s.contains("| much longer name | 23456 |"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("t", ["a", "b"]);
        t.add_row(["only one"]);
    }

    #[test]
    fn empty_table_prints_header_only() {
        let t = Table::new("Empty", ["col"]);
        assert!(t.to_string().contains("| col |"));
    }

    fn fixed4(x: f64) -> String {
        let mut buf = Vec::new();
        push_fixed4(&mut buf, x);
        String::from_utf8(buf).expect("the kernel writes ASCII")
    }

    /// The kernel spells `x`, `-x` and both bit-neighbours of `x` exactly
    /// as core::fmt's `{:.4}` does.
    fn fixed4_matches_core_fmt(x: f64) -> Result<(), String> {
        let bits = x.to_bits();
        for y in [
            x,
            -x,
            f64::from_bits(bits.wrapping_add(1)),
            f64::from_bits(bits.wrapping_sub(1)),
        ] {
            let (got, want) = (fixed4(y), format!("{y:.4}"));
            if got != want {
                return Err(format!(
                    "{y:e} (bits {:#018x}): kernel wrote {got}, core::fmt {want}",
                    y.to_bits()
                ));
            }
        }
        Ok(())
    }

    fn arb_f64() -> impl Gen<Value = f64> {
        one_of(vec![
            // Any bit pattern: subnormals, ±0, NaN and ±inf included.
            (0u64..=u64::MAX).prop_map(f64::from_bits).boxed(),
            elements(&[
                0.0,
                f64::NAN,
                f64::INFINITY,
                f64::MIN_POSITIVE,
                f64::from_bits(1),
                f64::MAX,
            ])
            .boxed(),
            // Typical magnitudes, log-uniform from 1e-6 to 1e12.
            (-6.0f64..12.0).prop_map(|e| 10f64.powf(e)).boxed(),
            // Decimal near-ties (n+½)/10⁴: the nearest double sits just off
            // the tie, on either side.
            (0u64..1 << 40).prop_map(|n| (n as f64 + 0.5) / 1e4).boxed(),
            // Exact ties: every odd multiple of 1/32 scales to a half-integer.
            (0u64..1 << 48)
                .prop_map(|k| (2 * k + 1) as f64 / 32.0)
                .boxed(),
            // Both sides of the core::fmt fallback at 2^113.
            (0u64..64)
                .prop_map(|d| f64::from_bits(2f64.powi(113).to_bits() - 32 + d))
                .boxed(),
        ])
    }

    mlperf_testkit::properties! {
        /// The fixed-point row kernel is byte-identical to `format!("{x:.4}")`.
        #[test]
        fn fixed4_kernel_matches_core_fmt(x in arb_f64()) {
            fixed4_matches_core_fmt(x)?;
        }
    }

    #[test]
    fn fixed4_kernel_rounds_ties_to_even_and_keeps_the_sign() {
        for (x, want) in [
            (0.03125, "0.0312"),
            (0.09375, "0.0938"),
            (0.15625, "0.1562"),
            (0.99995, "1.0000"),
            (-0.0, "-0.0000"),
            (-1e-5, "-0.0000"),
            (1.5, "1.5000"),
            (1234.56789, "1234.5679"),
            (f64::NAN, "NaN"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            assert_eq!(fixed4(x), want, "{x:e}");
            assert_eq!(fixed4(x), format!("{x:.4}"), "{x:e}");
        }
        for x in [2f64.powi(113), 2f64.powi(64), 1e19, 1e30, 1e300, f64::MAX] {
            fixed4_matches_core_fmt(x).unwrap();
        }
    }

    #[test]
    fn integer_writer_matches_to_string() {
        for n in [0, 9, 10, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            push_u64(&mut buf, n);
            assert_eq!(String::from_utf8(buf).expect("ASCII"), n.to_string());
        }
    }

    #[test]
    fn csv_quotes_awkward_cells() {
        let mut t = Table::new("q", ["a", "b"]);
        t.add_row(["plain", "with,comma"]);
        t.add_row(["has \"quote\"", "multi\nline"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.split('\n').collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"with,comma\"");
        assert!(lines[2].starts_with("\"has \"\"quote\"\"\","));
    }
}
