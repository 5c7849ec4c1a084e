//! Plain-text table rendering.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (ragged rows are padded with empty strings).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.chars().count());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Column-aligned plain text.
    pub fn render(&self) -> String {
        let w = self.widths();
        let fmt_row = |cells: &[String]| {
            (0..w.len())
                .map(|i| {
                    let cell = cells.get(i).map(String::as_str).unwrap_or("");
                    format!("{:<width$}", cell, width = w[i])
                })
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
            out.push_str(&"=".repeat(self.title.chars().count()));
            out.push('\n');
        }
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// A dash for configurations the paper left blank.
pub fn blank_cell() -> String {
    "—".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["Config", "P", "ES"]);
        t.push_row(vec!["4096²".into(), "16".into(), "4.620 (58%)".into()]);
        t.push_row(vec!["8192²".into(), "1024".into(), blank_cell()]);
        t
    }

    #[test]
    fn plain_render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("Demo"));
        assert!(s.contains("Config"));
        assert!(s.contains("4.620 (58%)"));
        assert!(s.contains("—"));
    }

    #[test]
    fn columns_align() {
        // ASCII-only table so byte offsets equal display columns.
        let mut t = Table::new("T", &["Config", "P", "ES"]);
        t.push_row(vec!["4096x4096".into(), "16".into(), "4.62".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        let header = lines[2];
        let data = lines[4];
        let hpos = header.find(" P").expect("header col") + 1;
        assert_eq!(&data[hpos..hpos + 2], "16");
    }
}
