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

    /// End the record with its newline.
    pub(crate) fn end(self) {
        self.buf.push(b'\n');
    }
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
