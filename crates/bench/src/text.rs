//! Plain-text output for the report binaries: aligned tables, JSON
//! strings and the artifact files behind their `--json`-style flags.

/// Renders an aligned text table with a header row.
///
/// # Examples
///
/// ```
/// let t = haocl_bench::text::render_table(
///     &["app", "time"],
///     &[vec!["MatrixMul".to_string(), "1.2s".to_string()]],
/// );
/// assert!(t.contains("MatrixMul"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Writes `body` to `path`, creating its parent directories, and says
/// so on stdout. Panics on an I/O error: a report binary that cannot
/// write the artifact it was asked for has failed.
pub fn write_artifact(path: &str, body: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(path, body).expect("write output file");
    println!("wrote {path}");
}

/// Minimal JSON string encoding: quotes, backslashes and control
/// characters are escaped, everything else passes through.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_quotes_and_controls() {
        assert_eq!(json_string(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_string("x\ny"), r#""x\u000ay""#);
    }

    #[test]
    fn aligns_columns() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xx".into(), "y".into()],
                vec!["x".into(), "yyyyy".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // The separator is as wide as the widest row.
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[1].len() >= lines[0].len());
    }

    #[test]
    fn empty_rows_still_render_header() {
        let t = render_table(&["only"], &[]);
        assert!(t.starts_with("only\n"));
    }
}
