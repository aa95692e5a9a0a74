//! Plain-text rendering for the experiment harness: aligned tables and
//! ASCII bar charts, so every regenerated table/figure prints the same way
//! the paper reports it.

/// A simple aligned-column table builder.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns (left-aligned first column, right-aligned
    /// rest, matching how the paper's tables read).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
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

/// Render a horizontal ASCII bar chart: one `(label, value)` per line, bars
/// scaled to `max_width` characters against the maximum value.
pub fn bar_chart(items: &[(String, f64)], max_width: usize) -> String {
    let max = items
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in items {
        let bar_len = ((value / max) * max_width as f64).round() as usize;
        out.push_str(&format!(
            "{:<label_w$} |{:<max_width$}| {:.4}\n",
            label,
            "#".repeat(bar_len),
            value,
        ));
    }
    out
}

/// Format a count with thousands separators (for Table-1-style counts).
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format hours as the paper's duration labels (e.g. `24 -> "1d"`).
pub fn duration_label(hours: u64) -> String {
    match hours {
        h if h < 24 => format!("{h}h"),
        h if h % (365 * 24) == 0 => format!("{}y", h / (365 * 24)),
        h if h % (7 * 24) == 0 && h < 30 * 24 => format!("{}w", h / (7 * 24)),
        h if h % 24 == 0 => format!("{}d", h / 24),
        h => format!("{h}h"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(&["AS", "probes", "changes"]);
        t.row(&["DTAG".into(), "589".into(), "218655".into()]);
        t.row(&["BT".into(), "170".into(), "15743".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("AS"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right-aligned numeric columns: both rows end at the same width.
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[2].contains("218655"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["x".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = TextTable::new(&["a"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let chart = bar_chart(
            &[("a".into(), 1.0), ("bb".into(), 2.0), ("c".into(), 0.0)],
            10,
        );
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("##########"), "max bar is full width");
        assert!(lines[0].contains("#####"), "half bar");
        assert!(!lines[2].contains('#'), "zero bar is empty");
        // Labels padded to common width.
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("bb"));
    }

    #[test]
    fn thousands_separators() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(218655), "218,655");
        assert_eq!(thousands(32_700_000_000), "32,700,000,000");
    }

    #[test]
    fn duration_labels() {
        assert_eq!(duration_label(1), "1h");
        assert_eq!(duration_label(12), "12h");
        assert_eq!(duration_label(24), "1d");
        assert_eq!(duration_label(36), "36h");
        assert_eq!(duration_label(7 * 24), "1w");
        assert_eq!(duration_label(14 * 24), "2w");
        assert_eq!(duration_label(30 * 24), "30d");
        assert_eq!(duration_label(365 * 24), "1y");
        assert_eq!(duration_label(4 * 365 * 24), "4y");
    }
}
