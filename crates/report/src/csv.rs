//! Minimal CSV writer (RFC-4180-style quoting, no dependencies).

use std::path::Path;

/// An in-memory CSV document.
#[derive(Debug, Clone, Default)]
pub struct Csv {
    buf: String,
    columns: Option<usize>,
}

impl Csv {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row; every later row must have the same width.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        match self.columns {
            None => self.columns = Some(cells.len()),
            Some(n) => assert_eq!(n, cells.len(), "csv row width mismatch"),
        }
        let mut first = true;
        for c in cells {
            if !first {
                self.buf.push(',');
            }
            first = false;
            self.buf.push_str(&escape(c.as_ref()));
        }
        self.buf.push('\n');
        self
    }

    /// The document text.
    pub fn as_str(&self) -> &str {
        &self.buf
    }

    /// Writes the document to a file, creating parent directories.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &self.buf)
    }
}

fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Formats a float with fixed decimals (shared by the report binaries).
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_rows() {
        let mut c = Csv::new();
        c.row(&["a", "b"]).row(&["1", "2"]);
        assert_eq!(c.as_str(), "a,b\n1,2\n");
    }

    #[test]
    fn quoting() {
        let mut c = Csv::new();
        c.row(&["plain", "with,comma", "with\"quote", "multi\nline"]);
        assert_eq!(
            c.as_str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"multi\nline\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_checked() {
        let mut c = Csv::new();
        c.row(&["a", "b"]).row(&["only"]);
    }

    #[test]
    fn file_roundtrip() {
        let mut c = Csv::new();
        c.row(&["x"]).row(&["1"]);
        let dir = std::env::temp_dir().join("annealsched-csv-test");
        let path = dir.join("out.csv");
        c.write_to(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(7.0, 1), "7.0");
    }
}
