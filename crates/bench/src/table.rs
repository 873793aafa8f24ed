//! Plain-text table and series rendering for experiment output.

/// Renders a table with a header row. Columns are right-aligned to the
/// widest cell.
pub fn render_table<S: AsRef<str>>(headers: &[S], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.as_ref().len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    fn push_row<C: AsRef<str>>(out: &mut String, cells: &[C], widths: &[usize]) {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:>w$}", cell.as_ref(), w = widths[i]));
        }
        out.push('\n');
    }
    let mut out = String::new();
    push_row(&mut out, headers, &widths);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        push_row(&mut out, row, &widths);
    }
    out
}

/// Renders a labeled series as an ASCII bar chart (used for the
/// figure-style outputs).
pub fn render_series(title: &str, series: &[(String, f64)], unit: &str) -> String {
    let mut out = format!("{title}\n");
    let max = series.iter().map(|(_, v)| v.abs()).fold(0.0_f64, f64::max);
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, value) in series {
        let bar_len = if max > 0.0 {
            ((value.abs() / max) * 40.0).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "  {:<w$}  {:>8.2} {unit} |{}\n",
            label,
            value,
            "█".repeat(bar_len),
            w = label_w
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("long-name"));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len().max(lines[0].len()));
    }

    #[test]
    fn series_bars_scale() {
        let s = render_series(
            "improvement",
            &[("a".into(), 10.0), ("b".into(), 40.0)],
            "%",
        );
        let bars: Vec<usize> = s.lines().skip(1).map(|l| l.matches('█').count()).collect();
        assert_eq!(bars[1], 40);
        assert_eq!(bars[0], 10);
    }

    #[test]
    fn empty_series_do_not_panic() {
        let s = render_series("x", &[], "ms");
        assert!(s.starts_with("x"));
    }
}
