//! Report formatting: aligned console tables plus optional JSON output.
//!
//! JSON is emitted by a small hand-rolled serializer (the build runs offline
//! with no serde available); the shape matches what serde's derive would
//! produce for these structs, so downstream tooling is unaffected.

/// A generic experiment report: header metadata plus named sections of rows.
#[derive(Debug, Default)]
pub struct Report {
    /// Experiment id, e.g. `"table6_load"`.
    pub experiment: String,
    /// Paper reference, e.g. `"Table 6"`.
    pub paper_ref: String,
    /// Scale factor used.
    pub sf: f64,
    /// Free-form key/value metadata.
    pub meta: Vec<(String, String)>,
    /// Result sections.
    pub sections: Vec<Section>,
}

/// One titled table of rows.
#[derive(Debug, Default)]
pub struct Section {
    /// Section title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// A new report.
    pub fn new(experiment: &str, paper_ref: &str, sf: f64) -> Self {
        Report {
            experiment: experiment.to_string(),
            paper_ref: paper_ref.to_string(),
            sf,
            ..Default::default()
        }
    }

    /// Adds a metadata line.
    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Adds a section and returns a handle for pushing rows.
    pub fn section(&mut self, title: &str, columns: &[&str]) -> &mut Section {
        self.sections.push(Section {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        });
        self.sections.last_mut().unwrap()
    }

    /// Renders the report to stdout and optionally to a JSON file.
    pub fn emit(&self, json_path: Option<&str>) {
        println!("== {} ({}) — SF {} ==", self.experiment, self.paper_ref, self.sf);
        for (k, v) in &self.meta {
            println!("   {k}: {v}");
        }
        for s in &self.sections {
            println!("\n-- {} --", s.title);
            print_table(&s.columns, &s.rows);
        }
        if let Some(path) = json_path {
            std::fs::write(path, self.to_json()).expect("write json report");
            println!("\n(json written to {path})");
        }
        println!();
    }

    /// Serializes the report as pretty-printed JSON (serde-derive shape).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        json_kv(&mut out, 1, "experiment", &json_str(&self.experiment), false);
        json_kv(&mut out, 1, "paper_ref", &json_str(&self.paper_ref), false);
        json_kv(&mut out, 1, "sf", &json_f64(self.sf), false);
        let meta_items: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("[{}, {}]", json_str(k), json_str(v)))
            .collect();
        json_kv(&mut out, 1, "meta", &format!("[{}]", meta_items.join(", ")), false);
        let sections: Vec<String> = self.sections.iter().map(Section::to_json).collect();
        json_kv(&mut out, 1, "sections", &format!("[{}]", sections.join(", ")), true);
        out.push('}');
        out
    }
}

fn json_kv(out: &mut String, indent: usize, key: &str, value: &str, last: bool) {
    out.push_str(&"  ".repeat(indent));
    out.push_str(&json_str(key));
    out.push_str(": ");
    out.push_str(value);
    if !last {
        out.push(',');
    }
    out.push('\n');
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Round-trippable, and integral values keep a trailing `.0` as JSON
        // number formatting conventions expect.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

impl Section {
    /// Pushes one row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    fn to_json(&self) -> String {
        let cols: Vec<String> = self.columns.iter().map(|c| json_str(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| json_str(c)).collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        format!(
            "{{\"title\": {}, \"columns\": [{}], \"rows\": [{}]}}",
            json_str(&self.title),
            cols.join(", "),
            rows.join(", ")
        )
    }
}

fn print_table(columns: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let parts: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", parts.join("  "));
    };
    fmt_row(columns);
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        fmt_row(row);
    }
}

/// Formats seconds in a human scale (`ms`, `s`, `m`, `h`).
pub fn fmt_secs(s: f64) -> String {
    if s.is_infinite() {
        "inf".to_string()
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else if s < 7200.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{:.2}h", s / 3600.0)
    }
}

/// Formats bytes in MiB.
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.2}MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a ratio like `12.3x`.
pub fn fmt_ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.1}x", a / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(600.0), "10.0m");
        assert_eq!(fmt_secs(7200.0), "2.00h");
        assert_eq!(fmt_mb(1024 * 1024), "1.00MB");
        assert_eq!(fmt_ratio(10.0, 2.0), "5.0x");
        assert_eq!(fmt_ratio(1.0, 0.0), "inf");
    }

    #[test]
    fn report_roundtrips_to_json() {
        let mut r = Report::new("t", "Table X", 0.01);
        r.meta("rows", 123);
        let s = r.section("sec", &["a", "b"]);
        s.row(vec!["1".into(), "2".into()]);
        let json = r.to_json();
        assert!(json.contains("\"Table X\""));
        assert!(json.contains("\"sec\""));
        assert!(json.contains("[\"1\", \"2\"]"));
        assert!(json.contains("\"sf\": 0.01"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
