//! Plain-text table formatting for reports.

/// A simple aligned text table.
#[derive(Debug, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub(crate) fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub(crate) fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Render with column alignment (display-width aware enough for the
    /// signature glyphs used in labels).
    pub(crate) fn render(&self) -> String {
        let ncols = self.header.len();
        let width = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.header.iter().map(|h| width(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(width(cell));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                let pad = widths[i].saturating_sub(width(cell));
                if i + 1 < cells.len() {
                    line.extend(std::iter::repeat_n(' ', pad));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a ratio as a percentage string.
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        return "-".to_owned();
    }
    format!("{:.1}%", 100.0 * num as f64 / den as f64)
}

/// Format a fraction (0..1) as a percentage string.
pub fn pct_f(f: f64) -> String {
    if f.is_nan() {
        return "-".to_owned();
    }
    format!("{:.1}%", 100.0 * f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["name", "count"]);
        t.row(["a", "1"]);
        t.row(["longer-name", "23456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1, 4), "25.0%");
        assert_eq!(pct(0, 0), "-");
        assert_eq!(pct_f(0.123), "12.3%");
        assert_eq!(pct_f(f64::NAN), "-");
    }
}
