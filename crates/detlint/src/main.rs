//! detlint CLI.
//!
//! ```text
//! cargo run -p detlint [-- --root <dir>] [--config <file>] [--quiet]
//!                      [--format text|json] [--explain RULE]
//!                      [--update-schema]
//! ```
//!
//! Scans the workspace and exits nonzero if any determinism or safety
//! invariant is violated: 0 clean, 1 findings, 2 usage/configuration
//! errors. `--format json` writes one machine-readable report object to
//! stdout (`scripts/check.sh` tees it into `target/detlint.json`);
//! `--explain RULE` prints the rule catalogue entry for one rule ID;
//! `--update-schema` regenerates the committed `wire.schema` snapshot
//! from the live encoder. See the crate docs of [`detlint`] for the
//! rule catalogue.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut quiet = false;
    let mut json = false;
    let mut explain: Option<String> = None;
    let mut update_schema = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--config" => config = args.next().map(PathBuf::from),
            "--quiet" | "-q" => quiet = true,
            "--update-schema" => update_schema = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    eprintln!(
                        "detlint: --format takes `text` or `json`, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next() {
                Some(rule) => explain = Some(rule),
                None => {
                    eprintln!("detlint: --explain needs a rule ID (e.g. --explain R2)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "detlint — determinism & safety lint for the testbed workspace\n\n\
                     USAGE: detlint [--root <dir>] [--config <file>] [--quiet]\n\
                     \x20               [--format text|json] [--explain RULE] [--update-schema]\n\n\
                     --format json    machine-readable report on stdout\n\
                     --explain RULE   print the catalogue entry for one rule ID and exit\n\
                     --update-schema  regenerate the wire.schema snapshot from the encoder\n\n\
                     Exits 0 when the tree is clean, 1 when invariants are violated,\n\
                     2 on usage or configuration errors."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(rule) = explain {
        return match detlint::rules::explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "detlint: unknown rule ID `{rule}` (rules: D1-D4, S1-S3, R1-R3, W1, U1, A1)"
                );
                ExitCode::from(2)
            }
        };
    }

    // CARGO_MANIFEST_DIR points at crates/detlint under `cargo run`;
    // the workspace root is two levels up. Fall back to the cwd when
    // invoked as a bare binary.
    let root = root.unwrap_or_else(|| {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .unwrap_or_else(|| PathBuf::from("."))
    });
    let config_path = config.unwrap_or_else(|| root.join("detlint.toml"));

    let cfg = match detlint::Config::load(&config_path) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };

    if update_schema {
        return match detlint::update_schema(&root, &cfg) {
            Ok(path) => {
                eprintln!("detlint: wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("detlint: {e}");
                ExitCode::from(2)
            }
        };
    }

    // detlint:allow(D1) the linter itself reports real wall-clock scan time
    let started = std::time::Instant::now();
    let report = match detlint::run(&root, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    if json {
        println!("{}", render_json(&report));
    } else {
        for finding in &report.findings {
            println!("{finding}\n");
        }
    }
    if !quiet {
        eprintln!(
            "detlint: {} file(s), {} line(s) in {:.0?} — {}",
            report.files_scanned,
            report.lines_scanned,
            elapsed,
            if report.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} finding(s)", report.findings.len())
            }
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The report as one JSON object. Hand-rolled (the workspace is
/// dependency-free); strings are escaped per RFC 8259.
fn render_json(report: &detlint::Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"clean\": {},\n", report.is_clean()));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"lines_scanned\": {},\n", report.lines_scanned));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \
             \"message\": {}, \"snippet\": {}, \"hint\": {}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.snippet),
            json_str(f.hint),
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

/// A JSON string literal, with control characters and `"`/`\` escaped.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_quotes_and_control_chars() {
        assert_eq!(json_str(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_str("x\ny\t"), r#""x\ny\t""#);
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_report_renders_as_clean_json() {
        let s = render_json(&detlint::Report::default());
        assert!(s.contains("\"clean\": true"));
        assert!(s.contains("\"findings\": []"));
    }

    #[test]
    fn findings_render_as_json_objects() {
        let mut report = detlint::Report::default();
        report.findings.push(detlint::Finding {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            rule: "D1",
            message: "wall-clock \"type\"".into(),
            snippet: "let t = Instant::now();".into(),
            hint: "use SimTime",
        });
        let s = render_json(&report);
        assert!(s.contains("\"clean\": false"));
        assert!(s.contains(r#""rule": "D1""#));
        assert!(s.contains(r#""message": "wall-clock \"type\"""#));
    }
}
