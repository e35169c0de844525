//! Plain-text table rendering for experiment reports.

/// A simple aligned text table.
#[derive(Debug, Default)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    pub fn render(&self) -> String {
        let mut w: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], w: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", c, width = w[i]));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&self.header, &w, &mut out);
        let mut sep = Vec::new();
        for width in &w {
            sep.push("-".repeat(*width));
        }
        line(&sep, &w, &mut out);
        for r in &self.rows {
            line(r, &w, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["12345", "1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "a      bbbb");
        assert_eq!(lines[1], "-----  ----");
        assert_eq!(lines[2], "12345  1");
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        TextTable::new(vec!["a"]).row(vec!["1", "2"]);
    }
}
