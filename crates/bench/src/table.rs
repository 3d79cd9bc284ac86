//! Tiny fixed-width table printer for experiment output.

use std::fmt::Write as _;

/// One column of [`Table::of`]: its header and the cell it shows for an
/// item.
pub type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// A printable results table.
///
/// # Example
///
/// ```
/// use aorta_bench::table::Table;
///
/// let mut t = Table::new(&["algorithm", "makespan"]);
/// t.row(vec!["LS".into(), "8.21".into()]);
/// let s = t.render();
/// assert!(s.contains("LS"));
/// assert!(s.contains("makespan"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A table with one row per item, each column a header and the cell
    /// it shows for an item.
    pub fn of<R>(items: &[R], columns: &[Column<'_, R>]) -> Self {
        let header: Vec<&str> = columns.iter().map(|(h, _)| *h).collect();
        let mut t = Table::new(&header);
        for item in items {
            t.row(columns.iter().map(|(_, cell)| cell(item)).collect());
        }
        t
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(&sep, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     bb"));
        assert!(lines[1].starts_with("----  --"));
        assert!(lines[2].starts_with("xxxx  1"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
