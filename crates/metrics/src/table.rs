//! Column-aligned text tables for figure/table output.

use std::fmt;

/// A simple text table.
///
/// The figure binaries use this to print the same rows/series the paper's
/// tables and plots report, in a form that is easy to eyeball or paste into a
/// plotting tool (the TSV form).
///
/// # Example
///
/// ```
/// use metrics::Table;
///
/// let mut t = Table::new(vec!["upload kbit/s", "sharing", "non-sharing"]);
/// t.add_row(vec!["40".into(), "61.2".into(), "142.9".into()]);
/// let text = t.to_string();
/// assert!(text.contains("upload kbit/s"));
/// assert!(text.contains("142.9"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of columns.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Rows as raw cells.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["x", "value"]);
        t.add_row(vec!["1".into(), "10.0".into()]);
        t.add_row(vec!["200".into(), "3.5".into()]);
        let s = t.to_string();
        assert!(s.contains("x    value"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_panics() {
        let mut t = Table::new(vec!["only"]);
        t.add_row(vec!["a".into(), "b".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(Vec::<String>::new());
    }
}
