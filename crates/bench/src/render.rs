//! Plain-text rendering: fixed-width tables, bar charts and scatter plots
//! for regenerating the paper's tables and figures on a terminal.

/// Renders a fixed-width table with a header row.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::from("|");
        for (i, width) in widths.iter().enumerate().take(cols) {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!(" {cell:<width$} |"));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let separator: String = {
        let mut line = String::from("|");
        for w in &widths {
            line.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        line
    };
    let mut out = String::new();
    out.push_str(&render_row(&header_cells));
    out.push('\n');
    out.push_str(&separator);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders a horizontal bar chart (Figure 5 style).
pub(crate) fn bar_chart(entries: &[(String, usize)], max_width: usize) -> String {
    let max = entries.iter().map(|(_, v)| *v).max().unwrap_or(1).max(1);
    let label_width = entries.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in entries {
        let bar_len = value * max_width / max;
        out.push_str(&format!(
            "{:<label_width$} | {:<max_width$} {}\n",
            label,
            "#".repeat(bar_len),
            value
        ));
    }
    out
}

/// Renders a time/packets scatter (Figure 12 style): `.` for timeline
/// samples, `X` for discoveries.
pub(crate) fn scatter(
    points: &[(f64, u64, bool)],
    x_max: f64,
    height: usize,
    width: usize,
) -> String {
    let y_max = points.iter().map(|(_, p, _)| *p).max().unwrap_or(1).max(1) as f64;
    let mut grid = vec![vec![' '; width + 1]; height + 1];
    for &(t, packets, is_bug) in points {
        if t > x_max {
            continue;
        }
        let x = ((t / x_max) * width as f64) as usize;
        let y = ((packets as f64 / y_max) * height as f64) as usize;
        let row = height - y.min(height);
        let cell = &mut grid[row][x.min(width)];
        if is_bug {
            *cell = 'X';
        } else if *cell != 'X' {
            *cell = '.';
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{:>6} +{}\n", y_max as u64, "-".repeat(width + 1)));
    for row in grid {
        out.push_str("       |");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("       +{}\n", "-".repeat(width + 1)));
    out.push_str(&format!("       0{:>width$.0}s\n", x_max, width = width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["ID", "Name"],
            &[vec!["1".into(), "alpha".into()], vec!["22".into(), "b".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| ID | Name  |"));
        assert!(lines[2].contains("| 1  | alpha |"));
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn bar_chart_scales_to_max() {
        let out = bar_chart(&[("a".into(), 10), ("b".into(), 5), ("c".into(), 0)], 20);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(&"#".repeat(20)));
        assert!(lines[1].contains(&"#".repeat(10)));
        assert!(!lines[2].contains('#'));
        assert!(lines[2].ends_with('0'));
    }

    #[test]
    fn scatter_marks_bugs() {
        let out = scatter(&[(10.0, 100, false), (20.0, 200, true)], 100.0, 10, 40);
        assert!(out.contains('X'));
        assert!(out.contains('.'));
        assert!(out.contains("100s") || out.contains("100"));
    }

    #[test]
    fn scatter_ignores_out_of_window_points() {
        let out = scatter(&[(1000.0, 50, true)], 100.0, 5, 20);
        assert!(!out.contains('X'));
    }
}
