//! Plain-text rendering of experiment results: aligned tables and a
//! landscape heatmap, printed to stdout exactly as EXPERIMENTS.md records
//! them.

use std::fmt::Write as _;

/// A simple aligned-column text table.
///
/// # Example
///
/// ```
/// use botmeter_bench::render::TextTable;
/// let mut t = TextTable::new(&["DGA", "θq"]);
/// t.row(&["newGoZ", "500"]);
/// let s = t.render();
/// assert!(s.contains("newGoZ"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(|s| (*s).to_owned()).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
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

    /// Renders the table with aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Renders a landscape as a server × epoch intensity heatmap — a terminal
/// take on the paper's future-work direction #2 ("complementing BotMeter
/// with visual analytical components"). Darker glyphs mean larger
/// estimated populations; columns are epochs, rows are local servers.
///
/// # Example
///
/// ```
/// use botmeter_bench::render::landscape_heatmap;
/// use botmeter_core::{Landscape, LandscapeEntry};
/// use botmeter_dns::ServerId;
///
/// let landscape: Landscape = serde_json::from_str(
///     r#"{"entries":[{"server":1,"epoch":0,"estimate":12.0}]}"#).unwrap();
/// let map = landscape_heatmap(&landscape, 0..2);
/// assert!(map.contains("server-1"));
/// ```
pub fn landscape_heatmap(
    landscape: &botmeter_core::Landscape,
    epochs: std::ops::Range<u64>,
) -> String {
    const RAMP: [char; 6] = [' ', '░', '▒', '▓', '█', '█'];
    let servers: Vec<_> = landscape
        .ranked_servers()
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    if servers.is_empty() {
        return String::from("(empty landscape)\n");
    }
    let max = landscape
        .entries()
        .iter()
        .map(|e| e.estimate)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut out = String::new();
    let label_width = servers
        .iter()
        .map(|s| s.to_string().chars().count())
        .max()
        .unwrap_or(0);
    for server in servers {
        let _ = write!(out, "{:<label_width$} ", server.to_string());
        for epoch in epochs.clone() {
            let v = landscape.estimate(server, epoch);
            let idx = ((v / max) * 4.0).round() as usize;
            out.push(RAMP[idx.min(4)]);
        }
        let peak = landscape
            .entries()
            .iter()
            .filter(|e| e.server == server)
            .map(|e| e.estimate)
            .fold(0.0f64, f64::max);
        let _ = writeln!(out, "  (peak {peak:.1})");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_rule() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["short", "1"]).row(&["a-much-longer-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
        // Column 2 starts at the same offset in every row.
        let offset = lines[0].find("value").unwrap();
        assert_eq!(lines[3].find("22").unwrap(), offset);
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(&["only-one"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn heatmap_orders_servers_and_scales() {
        let landscape: botmeter_core::Landscape = serde_json::from_str(
            r#"{"entries":[
                {"server":1,"epoch":0,"estimate":5.0},
                {"server":2,"epoch":0,"estimate":50.0},
                {"server":2,"epoch":1,"estimate":10.0}
            ]}"#,
        )
        .unwrap();
        let map = landscape_heatmap(&landscape, 0..2);
        let lines: Vec<&str> = map.lines().collect();
        assert!(
            lines[0].starts_with("server-2"),
            "worst server first: {map}"
        );
        assert!(lines[0].contains("█"), "peak cell should be darkest");
        assert!(map.contains("(peak 50.0)"));
    }

    #[test]
    fn heatmap_empty_landscape() {
        let empty = botmeter_core::Landscape::default();
        assert!(landscape_heatmap(&empty, 0..3).contains("empty"));
    }
}
