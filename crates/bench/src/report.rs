//! Plain-text rendering of experiment results.

use crate::experiments::ExperimentResult;
use afs_core::json;
use std::fmt::Write;

/// Renders an experiment as an aligned text table.
pub fn render(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", result.title, result.id);
    if !result.columns.is_empty() {
        // Column widths.
        let label_w = result
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain([result.col_header.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        let col_w = result
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(6)
            .max(10);
        let _ = write!(out, "{:<label_w$}", result.col_header);
        for c in &result.columns {
            let _ = write!(out, " {c:>col_w$}");
        }
        let _ = writeln!(out);
        for row in &result.rows {
            let _ = write!(out, "{:<label_w$}", row.label);
            for v in &row.values {
                let _ = write!(out, " {:>col_w$}", format_value(*v));
            }
            let _ = writeln!(out);
        }
    }
    for n in &result.notes {
        let _ = writeln!(out, "  note: {n}");
    }
    out
}

/// Renders an experiment as an ASCII line chart (one letter per series),
/// columns on the x axis, values on the y axis. Figures only — tables with
/// no numeric columns render as their text form.
pub fn render_plot(result: &ExperimentResult) -> String {
    const WIDTH: usize = 64;
    const HEIGHT: usize = 20;
    if result.columns.len() < 2 || result.rows.is_empty() {
        return render(result);
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", result.title, result.id);
    let max = result
        .rows
        .iter()
        .flat_map(|r| r.values.iter())
        .cloned()
        .fold(f64::MIN, f64::max);
    let min = result
        .rows
        .iter()
        .flat_map(|r| r.values.iter())
        .cloned()
        .fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
    let cols = result.columns.len();
    let x_of = |c: usize| {
        if cols == 1 {
            0
        } else {
            c * (WIDTH - 1) / (cols - 1)
        }
    };
    let y_of = |v: f64| {
        let frac = (v - min) / span;
        (HEIGHT - 1) - ((frac * (HEIGHT - 1) as f64).round() as usize).min(HEIGHT - 1)
    };
    for (ri, row) in result.rows.iter().enumerate() {
        let marker = (b'A' + (ri as u8 % 26)) as char;
        // Plot points and a crude line between consecutive points.
        for c in 0..row.values.len().min(cols) {
            let (x, y) = (x_of(c), y_of(row.values[c]));
            grid[y][x] = marker;
            if c + 1 < row.values.len().min(cols) {
                let (x2, y2) = (x_of(c + 1), y_of(row.values[c + 1]));
                let steps = (x2 - x).max(1);
                for s in 1..steps {
                    let xi = x + s;
                    let yi = (y as f64 + (y2 as f64 - y as f64) * s as f64 / steps as f64).round()
                        as usize;
                    if grid[yi][xi] == ' ' {
                        grid[yi][xi] = '.';
                    }
                }
            }
        }
    }
    let _ = writeln!(out, "{max:>10.2} ┐");
    for line in &grid {
        let s: String = line.iter().collect();
        let _ = writeln!(out, "{:>10} │{}", "", s.trim_end());
    }
    let _ = writeln!(out, "{min:>10.2} ┴{}", "─".repeat(WIDTH));
    let _ = writeln!(
        out,
        "{:>12}{} = {} .. {}",
        "",
        result.col_header,
        result.columns.first().map(String::as_str).unwrap_or(""),
        result.columns.last().map(String::as_str).unwrap_or("")
    );
    for (ri, row) in result.rows.iter().enumerate() {
        let marker = (b'A' + (ri as u8 % 26)) as char;
        let _ = writeln!(out, "  {marker}: {}", row.label);
    }
    out
}

/// Renders an experiment as a JSON document.
pub fn render_json(result: &ExperimentResult) -> String {
    json::document(|o| {
        o.field("id", &result.id)
            .field("title", &result.title)
            .field("col_header", &result.col_header)
            .field("columns", &result.columns)
            .array("rows", |a| {
                for row in &result.rows {
                    a.object(|o| {
                        o.field("label", &row.label).field("values", &row.values);
                    });
                }
            })
            .field("notes", &result.notes);
    })
}

/// Renders an experiment as CSV (label column + one column per value).
pub fn render_csv(result: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", csv_field(&result.col_header));
    for c in &result.columns {
        let _ = write!(out, ",{}", csv_field(c));
    }
    let _ = writeln!(out);
    for row in &result.rows {
        let _ = write!(out, "{}", csv_field(&row.label));
        for v in &row.values {
            let _ = write!(out, ",{v}");
        }
        let _ = writeln!(out);
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Row;
    use afs_core::json::Value;

    #[test]
    fn renders_aligned_table() {
        let res = ExperimentResult {
            id: "t".into(),
            title: "Demo".into(),
            col_header: "P".into(),
            columns: vec!["1".into(), "8".into()],
            rows: vec![
                Row {
                    label: "GSS".into(),
                    values: vec![123.456, 7.0],
                },
                Row {
                    label: "AFS".into(),
                    values: vec![100.0, 2.5],
                },
            ],
            notes: vec!["a note".into()],
        };
        let text = render(&res);
        assert!(text.contains("== Demo [t] =="));
        assert!(text.contains("GSS"));
        assert!(text.contains("123.5"));
        assert!(text.contains("note: a note"));
        // Header and data rows have consistent column counts.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 4);
    }

    fn demo() -> ExperimentResult {
        ExperimentResult {
            id: "demo".into(),
            title: "Demo \"quoted\"".into(),
            col_header: "P".into(),
            columns: vec!["1".into(), "4".into(), "8".into()],
            rows: vec![
                Row {
                    label: "GSS".into(),
                    values: vec![100.0, 40.0, 35.0],
                },
                Row {
                    label: "AFS,x".into(),
                    values: vec![100.0, 26.0, 13.0],
                },
            ],
            notes: vec![],
        }
    }

    #[test]
    fn plot_contains_series_markers_and_legend() {
        let text = render_plot(&demo());
        assert!(text.contains('A'), "series A marker missing");
        assert!(text.contains('B'), "series B marker missing");
        assert!(text.contains("A: GSS"));
        assert!(text.contains("B: AFS,x"));
        assert!(text.contains("P = 1 .. 8"));
    }

    #[test]
    fn plot_falls_back_to_table_for_single_column() {
        let mut r = demo();
        r.columns = vec!["only".into()];
        for row in &mut r.rows {
            row.values.truncate(1);
        }
        let text = render_plot(&r);
        assert!(text.contains("only"), "fallback table should render");
    }

    #[test]
    fn json_is_wellformed_and_escaped() {
        let v = json::parse(&render_json(&demo())).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("demo"));
        assert_eq!(
            v.get("title").and_then(Value::as_str),
            Some("Demo \"quoted\"")
        );
        let columns: Vec<_> = v.get("columns").and_then(Value::as_array).unwrap().to_vec();
        assert_eq!(columns, ["1", "4", "8"].map(|c| Value::Str(c.into())));
        let rows = v.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows[1].get("label").and_then(Value::as_str), Some("AFS,x"));
        assert_eq!(
            rows[0].get("values"),
            Some(&Value::Arr([100.0, 40.0, 35.0].map(Value::Num).to_vec()))
        );
        assert_eq!(v.get("notes"), Some(&Value::Arr(vec![])));
    }

    #[test]
    fn json_handles_non_finite() {
        let mut r = demo();
        r.rows[0].values[0] = f64::NAN;
        let json = render_json(&r);
        assert!(!json.contains("NaN"));
        let v = json::parse(&json).unwrap();
        let values = v.get("rows").and_then(Value::as_array).unwrap()[0]
            .get("values")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(values[0], Value::Null);
        assert_eq!(values[1], Value::Num(40.0));
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let csv = render_csv(&demo());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "P,1,4,8");
        assert_eq!(lines[1], "GSS,100,40,35");
        assert_eq!(lines[2], "\"AFS,x\",100,26,13");
    }

    #[test]
    fn value_formatting_ranges() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(12345.6), "12346");
        assert_eq!(format_value(42.42), "42.4");
        assert_eq!(format_value(1.2345), "1.234");
        assert_eq!(format_value(0.01234), "0.0123");
    }
}
