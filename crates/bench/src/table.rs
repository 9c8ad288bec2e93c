//! Result tables for the experiment harness.

use congest::telemetry::json_escape;

/// One experiment's result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "E6".
    pub id: String,
    /// Human title, e.g. "Meeting scheduling (Lemma 10 vs Lemma 11)".
    pub title: String,
    /// What the paper predicts and what we check.
    pub claim: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Harness verdict lines (scaling-fit summaries, pass/fail notes).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: &str, title: &str, claim: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            claim: claim.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a verdict/summary note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as a pretty-printed JSON object (field-for-field the same
    /// shape the former serde derive produced).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        let string_list = |items: &[String]| -> String {
            let cells: Vec<String> = items.iter().map(|c| json_escape(c)).collect();
            format!("[{}]", cells.join(", "))
        };
        let rows: Vec<String> =
            self.rows.iter().map(|r| format!("{inner}  {}", string_list(r))).collect();
        let rows_block = if rows.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n{inner}]", rows.join(",\n"))
        };
        format!(
            "{pad}{{\n\
             {inner}\"id\": {},\n\
             {inner}\"title\": {},\n\
             {inner}\"claim\": {},\n\
             {inner}\"header\": {},\n\
             {inner}\"rows\": {},\n\
             {inner}\"notes\": {}\n\
             {pad}}}",
            json_escape(&self.id),
            json_escape(&self.title),
            json_escape(&self.claim),
            string_list(&self.header),
            rows_block,
            string_list(&self.notes),
        )
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!("   claim: {}\n", self.claim));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format!("   {}\n", fmt_row(&self.header)));
        out.push_str(&format!(
            "   {}\n",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  ")
        ));
        for row in &self.rows {
            out.push_str(&format!("   {}\n", fmt_row(row)));
        }
        for n in &self.notes {
            out.push_str(&format!("   * {n}\n"));
        }
        out
    }
}

/// Serialize a list of tables as one pretty-printed JSON array.
pub fn tables_to_json(tables: &[Table]) -> String {
    if tables.is_empty() {
        return "[]".to_string();
    }
    let items: Vec<String> = tables.iter().map(|t| t.to_json(1)).collect();
    format!("[\n{}\n]", items.join(",\n"))
}

/// Least-squares slope of `log y` against `log x` — the measured scaling
/// exponent, for comparing against the theory exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_rows() {
        let mut t = Table::new("E0", "demo", "x", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("fine");
        let s = t.render();
        assert!(s.contains("E0"));
        assert!(s.contains("fine"));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("E0", "demo", "x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut t = Table::new("E1", "demo \"quoted\"", "claim", &["a", "b"]);
        t.row(vec!["1".into(), "x\ny".into()]);
        t.note("note");
        let json = tables_to_json(&[t]);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"id\": \"E1\""));
        assert!(json.contains("demo \\\"quoted\\\""));
        assert!(json.contains("x\\ny"));
        assert!(json.contains("\"notes\": [\"note\"]"));
        assert_eq!(tables_to_json(&[]), "[]");
    }

    #[test]
    fn json_string_adversarial() {
        // RFC 8259 §7: quote, backslash, and all controls < 0x20 must be
        // escaped; everything else (including non-ASCII) passes through.
        assert_eq!(json_escape(r#"a"b"#), r#""a\"b""#);
        assert_eq!(json_escape(r"back\slash"), r#""back\\slash""#);
        assert_eq!(json_escape("nl\ncr\rtab\t"), r#""nl\ncr\rtab\t""#);
        assert_eq!(json_escape("\u{0}\u{1f}"), r#""\u0000\u001f""#);
        assert_eq!(json_escape("Ω(√n) ≈ 7 — naïve"), "\"Ω(√n) ≈ 7 — naïve\"");
        assert_eq!(json_escape(""), "\"\"");
        // The classic breakout attempt: a cell trying to close the string
        // and inject a sibling key stays inert.
        let hostile = json_escape("\",\"injected\":true,\"x\":\"");
        assert_eq!(hostile, r#""\",\"injected\":true,\"x\":\"""#);
        assert!(!hostile.contains(r#"","injected""#));
    }

    #[test]
    fn json_empty_rows() {
        let t = Table::new("E0", "t", "c", &["h"]);
        assert!(t.to_json(0).contains("\"rows\": []"));
    }

    #[test]
    fn slope_of_power_law() {
        let pts: Vec<(f64, f64)> =
            (1..20).map(|i| (i as f64, (i as f64).powf(1.5) * 3.0)).collect();
        assert!((loglog_slope(&pts) - 1.5).abs() < 1e-9);
    }
}
