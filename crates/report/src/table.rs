//! ASCII table rendering.

/// A simple ASCII table builder.
///
/// ```
/// use anneal_report::Table;
/// let mut t = Table::new(vec!["Program", "Speedup"]);
/// t.row(vec!["NE".into(), "5.60".into()]);
/// let s = t.render();
/// assert!(s.contains("| NE"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers. Headers and the
    /// first column are left-aligned, the other data cells right-aligned.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a data row; must match the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Appends a horizontal separator row.
    pub fn separator(&mut self) {
        self.rows.push(Vec::new()); // empty row = separator sentinel
    }

    /// Renders to a string (trailing newline included).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s.push('\n');
            s
        };
        let fmt_row = |cells: &[String], header: bool| -> String {
            let mut s = String::from("|");
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width - cell.chars().count();
                if header || i == 0 {
                    s.push(' ');
                    s.push_str(cell);
                    s.push_str(&" ".repeat(pad + 1));
                } else {
                    s.push_str(&" ".repeat(pad + 1));
                    s.push_str(cell);
                    s.push(' ');
                }
                s.push('|');
            }
            s.push('\n');
            s
        };
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        out.push_str(&sep);
        out.push_str(&fmt_row(&self.headers, true));
        out.push_str(&sep);
        // A trailing separator row would double the bottom border.
        let last_data = self.rows.iter().rposition(|r| !r.is_empty());
        for (i, row) in self.rows.iter().enumerate() {
            if row.is_empty() {
                if last_data.is_some_and(|ld| i < ld) {
                    out.push_str(&sep);
                }
            } else {
                out.push_str(&fmt_row(row, false));
            }
        }
        out.push_str(&sep);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["b".into(), "10.25".into()]);
        let s = t.render();
        assert!(s.contains("| alpha |   1.5 |"));
        assert!(s.contains("| b     | 10.25 |"));
        // borders
        assert!(s.starts_with("+"));
        assert!(s.trim_end().ends_with("+"));
    }

    #[test]
    fn title_and_separator() {
        let mut t = Table::new(vec!["a"]).with_title("My Table");
        t.row(vec!["1".into()]);
        t.separator();
        t.row(vec!["2".into()]);
        let s = t.render();
        assert!(s.starts_with("My Table\n"));
        assert_eq!(s.matches("+---+").count(), 4); // top, header, mid, bottom
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn unicode_width_by_chars() {
        let mut t = Table::new(vec!["sym"]);
        t.row(vec!["σ=7µs".into()]);
        let s = t.render();
        assert!(s.contains("| σ=7µs |"));
    }
}
