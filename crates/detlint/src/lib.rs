//! detlint — workspace static analysis proving determinism & safety
//! invariants at build time.
//!
//! The testbed's headline claim is *reproducibility*: the same scenario
//! seed must yield the same CAM/DENM traces, the same collision
//! outcomes, the same metrics, on every run and every machine. That
//! property is easy to destroy with one stray `Instant::now()`,
//! `thread_rng()` or `HashMap` iteration deep inside an event handler —
//! and such regressions are invisible to ordinary tests until a CI run
//! flakes weeks later.
//!
//! detlint makes the invariants mechanical. It tokenizes every `.rs`
//! file in the workspace with a small hand-rolled lexer (no `syn`, no
//! external dependencies) and enforces the rules described in
//! [`rules`]. It runs two ways:
//!
//! * `cargo run -p detlint` — the CLI, used by `scripts/check.sh`;
//! * `tests/detlint_gate.rs` — a tier-1 test asserting zero findings,
//!   so `cargo test` alone proves the tree is clean.
//!
//! Violations that are genuinely sound carry an inline annotation with
//! a mandatory justification:
//!
//! ```text
//! // detlint:allow(D1) benchmarks measure real host time by definition
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod schema;
pub mod surface;

pub use config::Config;
pub use rules::Finding;

use std::path::{Path, PathBuf};

/// The result of scanning a tree: every finding plus scan statistics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All unsuppressed findings, sorted by file then position.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total source lines scanned.
    pub lines_scanned: usize,
}

impl Report {
    /// True when the tree satisfies every invariant.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans `root` (a workspace checkout) with `cfg` and returns the
/// report. Files are visited in sorted path order, so output — and the
/// report itself — is deterministic.
///
/// # Errors
///
/// Returns an [`std::io::Error`] if a configured scan directory cannot
/// be read or a source file disappears mid-scan.
pub fn run(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in &cfg.scan {
        let base = root.join(dir);
        if base.is_dir() {
            collect_rs_files(&base, cfg, &mut files)?;
        }
    }
    files.sort();

    // Lex every file exactly once; the per-file rules, the crate-level
    // S3 walk and the W1 wire pass all share the token streams.
    let mut scanned: Vec<(String, String, lexer::Lexed)> = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let rel = rel_unix_path(root, &path);
        let lexed = lexer::lex(&source);
        scanned.push((rel, source, lexed));
    }

    let mut report = Report::default();
    for (rel, source, lexed) in &scanned {
        report.files_scanned += 1;
        report.lines_scanned += source.lines().count();
        report
            .findings
            .extend(rules::check_file_lexed(cfg, rel, source, lexed));
    }
    let enabled = |rule: &str| !cfg.disabled.iter().any(|d| d == rule);

    // S3 — per-crate panic reachability.
    if enabled("S3") {
        let mut by_crate: std::collections::BTreeMap<&str, Vec<callgraph::FileTokens<'_>>> =
            std::collections::BTreeMap::new();
        for (rel, source, lexed) in &scanned {
            if let Some(krate) = callgraph::crate_of(rel) {
                by_crate
                    .entry(krate)
                    .or_default()
                    .push(callgraph::FileTokens {
                        rel_path: rel,
                        lexed,
                        lines: source.lines().collect(),
                    });
            }
        }
        let mut s3 = Vec::new();
        for (krate, crate_files) in &by_crate {
            callgraph::check_crate(cfg, krate, crate_files, &mut s3);
        }
        report.findings.extend(s3.into_iter().filter(|f| {
            !scanned
                .iter()
                .find(|(rel, _, _)| *rel == f.file)
                .is_some_and(|(_, _, lexed)| rules::is_allowed(lexed, f.rule, f.line))
        }));
    }

    // W1 — wire-schema snapshot.
    if enabled("W1") {
        check_wire(root, cfg, &scanned, &mut report.findings);
    }

    // U1 — uncalled public functions; examples and the benchmark's
    // sources count as callers.
    if enabled("U1") {
        let mut caller_files = Vec::new();
        for dir in surface::CALLER_ROOTS {
            let base = root.join(dir);
            if base.is_dir() {
                collect_rs_files(&base, cfg, &mut caller_files)?;
            }
        }
        caller_files.sort();
        let callers = caller_files
            .iter()
            .map(|path| std::fs::read_to_string(path).map(|source| lexer::lex(&source)))
            .collect::<std::io::Result<Vec<_>>>()?;
        surface::check(&scanned, &callers, &mut report.findings);
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Compares the wire module's encoder against the committed schema
/// snapshot. Silently a no-op when the configured wire file is not in
/// the scanned tree (planted test fixtures have no wire codec).
fn check_wire(
    root: &Path,
    cfg: &Config,
    scanned: &[(String, String, lexer::Lexed)],
    out: &mut Vec<Finding>,
) {
    let Some((rel, source, lexed)) = scanned.iter().find(|(rel, _, _)| *rel == cfg.w1_wire) else {
        return;
    };
    let fn_line = |name: &str| -> u32 {
        parse::parse_fns(&lexed.tokens)
            .iter()
            .find(|f| !f.in_test && f.name == name)
            .map(|f| lexed.tokens[f.name_idx].line)
            .unwrap_or(1)
    };
    let mk = |line: u32, message: String| {
        Finding {
        file: rel.clone(),
        line,
        col: 1,
        rule: "W1",
        message,
        snippet: source
            .lines()
            .nth(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default(),
        hint: "the wire layout is append-only; after review, regenerate the snapshot with `detlint --update-schema`",
    }
    };
    let mut raw = Vec::new();
    match schema::extract(&lexed.tokens) {
        Err(e) => raw.push(mk(1, e)),
        Ok(live) => {
            match std::fs::read_to_string(root.join(&cfg.w1_schema)) {
                Err(_) => raw.push(mk(
                    1,
                    format!(
                        "wire-schema snapshot `{}` is missing — generate and commit it with `detlint --update-schema`",
                        cfg.w1_schema
                    ),
                )),
                Ok(text) => match schema::parse_snapshot(&text) {
                    Err(e) => raw.push(mk(1, e)),
                    Ok(snap) => {
                        if let Some(msg) = schema::compare(&snap, &live) {
                            raw.push(mk(fn_line("encode"), msg));
                        }
                    }
                },
            }
            if let Some(msg) = schema::decode_consistency(&lexed.tokens, &live) {
                raw.push(mk(fn_line("decode_from"), msg));
            }
        }
    }
    out.extend(
        raw.into_iter()
            .filter(|f| !rules::is_allowed(lexed, f.rule, f.line)),
    );
}

/// Regenerates the committed wire-schema snapshot from the live
/// encoder — the deliberate path for landing a reviewed layout change.
///
/// # Errors
///
/// Returns a description when the wire module cannot be read, its
/// encoder cannot be extracted, or the snapshot cannot be written.
pub fn update_schema(root: &Path, cfg: &Config) -> Result<PathBuf, String> {
    let wire_path = root.join(&cfg.w1_wire);
    let source = std::fs::read_to_string(&wire_path)
        .map_err(|e| format!("cannot read {}: {e}", wire_path.display()))?;
    let live = schema::extract(&lexer::lex(&source).tokens)?;
    let snap_path = root.join(&cfg.w1_schema);
    std::fs::write(&snap_path, schema::render(&live))
        .map_err(|e| format!("cannot write {}: {e}", snap_path.display()))?;
    Ok(snap_path)
}

/// Recursively collects `.rs` files under `dir`, honouring `cfg.skip`.
fn collect_rs_files(dir: &Path, cfg: &Config, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if cfg.skip.contains(&name) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, cfg, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with `/` separators, for stable cross-platform
/// rule matching and output.
fn rel_unix_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_of_tempdir_fixture_finds_planted_violations() {
        let dir = std::env::temp_dir().join(format!("detlint-selftest-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\n#![deny(rust_2018_idioms)]\n#![warn(missing_docs)]\nuse std::time::Instant;\n",
        )
        .unwrap();
        // A skipped directory must not be scanned.
        let skipped = dir.join("crates/target");
        std::fs::create_dir_all(&skipped).unwrap();
        std::fs::write(skipped.join("junk.rs"), "use std::time::SystemTime;").unwrap();

        let report = run(&dir, &Config::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "D1");
        assert_eq!(report.findings[0].file, "crates/demo/src/lib.rs");
        assert_eq!(report.findings[0].line, 4);
    }

    #[test]
    fn w1_snapshot_lifecycle_via_run_and_update_schema() {
        let dir = std::env::temp_dir().join(format!("detlint-w1test-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        let codec = "pub const WIRE_VERSION: u8 = 2;\n\
                     pub const MIN_WIRE_VERSION: u8 = 1;\n\
                     impl R {\n\
                     pub fn encode(&self) -> Vec<u8> {\n\
                     let mut p = Vec::new();\n\
                     p.put_u8(WIRE_VERSION);\n\
                     put_opt_u64(&mut p, self.wall_ms);\n\
                     put_bool(&mut p, self.delivered);\n\
                     p\n\
                     }\n\
                     }\n";
        std::fs::write(src.join("wire.rs"), codec).unwrap();
        let cfg = Config {
            w1_wire: "crates/demo/src/wire.rs".into(),
            w1_schema: "wire.schema".into(),
            // The planted codec's encoder has no caller; this test is about W1.
            disabled: vec!["U1".into()],
            ..Config::default()
        };

        // No snapshot committed yet: exactly one W1 finding.
        let report = run(&dir, &cfg).unwrap();
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "W1");
        assert!(report.findings[0].message.contains("missing"));

        // --update-schema regenerates the snapshot; the tree is clean.
        update_schema(&dir, &cfg).unwrap();
        assert!(run(&dir, &cfg).unwrap().is_clean());

        // Reordering the encoder's fields must fail the lint.
        let swapped = codec.replace(
            "put_opt_u64(&mut p, self.wall_ms);\nput_bool(&mut p, self.delivered);",
            "put_bool(&mut p, self.delivered);\nput_opt_u64(&mut p, self.wall_ms);",
        );
        assert_ne!(swapped, codec);
        std::fs::write(src.join("wire.rs"), swapped).unwrap();
        let report = run(&dir, &cfg).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(!report.is_clean());
        assert!(report.findings.iter().all(|f| f.rule == "W1"));
    }

    #[test]
    fn rel_unix_path_uses_forward_slashes() {
        let root = Path::new("/a/b");
        let p = Path::new("/a/b/crates/core/src/lib.rs");
        assert_eq!(rel_unix_path(root, p), "crates/core/src/lib.rs");
    }
}
