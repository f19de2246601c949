//! Fixture-based coverage for the v2 rule families.
//!
//! Each file under `fixtures/` is a curated violation that must
//! trigger its rule exactly once — no more (precision), no less
//! (recall) — plus the W1 snapshot contract pinned against the live
//! workspace `wire.rs`, and a property test that arbitrary byte soup
//! never panics the lexer, parser, rules, call graph or schema
//! extractor.

use std::path::{Path, PathBuf};

use detlint::lexer::lex;
use detlint::{callgraph, parse, rules, schema, surface, Config, Finding};
use proptest::prelude::*;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Rules of the findings `check_file` produces on a fixture, using a
/// path outside the D3 crate list so only the rule under test fires.
fn fixture_rules(name: &str) -> Vec<&'static str> {
    let source = fixture(name);
    let rel = format!("crates/fixture/src/{name}");
    rules::check_file(&Config::default(), &rel, &source)
        .iter()
        .map(|f| f.rule)
        .collect()
}

#[test]
fn r1_fixture_fires_exactly_once() {
    assert_eq!(fixture_rules("r1_dup_fork.rs"), vec!["R1"]);
}

#[test]
fn r2_fixture_fires_exactly_once() {
    assert_eq!(fixture_rules("r2_draw_divergence.rs"), vec!["R2"]);
}

#[test]
fn r3_fixture_fires_exactly_once() {
    assert_eq!(fixture_rules("r3_rng_closure.rs"), vec!["R3"]);
}

#[test]
fn s3_fixture_fires_exactly_once() {
    let source = fixture("s3_panic_reachable.rs");
    let lexed = lex(&source);
    let files = [callgraph::FileTokens {
        rel_path: "crates/demo/src/s3_panic_reachable.rs",
        lexed: &lexed,
        lines: source.lines().collect(),
    }];
    let mut cfg = Config::default();
    cfg.s3_entries = vec!["demo::handle".into()];
    let mut findings: Vec<Finding> = Vec::new();
    callgraph::check_crate(&cfg, "demo", &files, &mut findings);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "S3");
    assert!(findings[0]
        .message
        .contains("handle → dispatch → decode_kind"));
    assert!(
        !findings[0].message.contains("cold_diagnostics"),
        "unreachable fn must not be flagged"
    );
}

#[test]
fn u1_fixture_fires_exactly_once() {
    let source = fixture("u1_uncalled_pub_fn.rs");
    let scanned = vec![(
        "crates/demo/src/u1_uncalled_pub_fn.rs".to_owned(),
        source.clone(),
        lex(&source),
    )];
    let mut findings: Vec<Finding> = Vec::new();
    surface::check(&scanned, &[], &mut findings);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "U1");
    assert!(findings[0].message.contains("`pub fn orphan`"));
}

/// The committed `wire.schema` must be exactly what the extractor
/// produces from the live encoder — a stale snapshot is itself a bug.
#[test]
fn committed_schema_matches_live_wire_encoder() {
    let root = workspace_root();
    let cfg = Config::default();
    let wire = std::fs::read_to_string(root.join(&cfg.w1_wire)).expect("wire module readable");
    let live = schema::extract(&lex(&wire).tokens).expect("live encoder extracts");
    let committed = std::fs::read_to_string(root.join(&cfg.w1_schema))
        .expect("wire.schema must be committed at the workspace root");
    assert_eq!(
        schema::parse_snapshot(&committed).expect("committed snapshot parses"),
        live,
        "wire.schema is stale — run `detlint --update-schema` and review the diff"
    );
    assert_eq!(
        schema::compare(&schema::parse_snapshot(&committed).unwrap(), &live),
        None
    );
    assert_eq!(schema::decode_consistency(&lex(&wire).tokens, &live), None);
}

/// Mutating the live encoder's field order must fail W1 — the
/// acceptance demonstration for the snapshot lint, run against the
/// real `wire.rs` text rather than a toy codec.
#[test]
fn reordering_live_wire_fields_fails_w1() {
    let root = workspace_root();
    let cfg = Config::default();
    let wire = std::fs::read_to_string(root.join(&cfg.w1_wire)).expect("wire module readable");
    let committed = std::fs::read_to_string(root.join(&cfg.w1_schema)).expect("snapshot readable");
    let snap = schema::parse_snapshot(&committed).unwrap();

    // Swap two adjacent encoder writes, as a careless refactor would.
    let a = "put_opt_time(&mut p, self.step1_crossing);";
    let b = "put_opt_time(&mut p, self.step2_detection);";
    let mutated = wire.replace(&format!("{a}\n        {b}"), &format!("{b}\n        {a}"));
    assert_ne!(mutated, wire, "mutation must apply");
    let live = schema::extract(&lex(&mutated).tokens).unwrap();
    let msg = schema::compare(&snap, &live).expect("reorder must produce a W1 finding");
    assert!(msg.contains("position 1"), "{msg}");

    // Dropping the trailing field fails too: truncation reads as a
    // removal, and the wire format is append-only.
    let removed = wire.replace("put_coop_stats(&mut p, &self.coop);", "");
    assert_ne!(removed, wire);
    let live = schema::extract(&lex(&removed).tokens).unwrap();
    assert!(schema::compare(&snap, &live)
        .expect("removal must produce a W1 finding")
        .contains("append-only"));

    // A mid-stream removal shifts every later field and is named as a
    // position change at the first divergence.
    let shifted = wire.replace(
        "put_opt_f64(&mut p, self.detection_distance_m);\n        ",
        "",
    );
    assert_ne!(shifted, wire);
    let live = schema::extract(&lex(&shifted).tokens).unwrap();
    assert!(schema::compare(&snap, &live)
        .expect("mid-stream removal must produce a W1 finding")
        .contains("detection_distance_m"));
}

proptest! {
    /// Arbitrary byte soup must never panic any analysis layer. The
    /// lexer/parser see the lossy UTF-8 form (source files are read as
    /// strings); schema and snapshot parsing see it raw.
    #[test]
    fn byte_soup_never_panics_any_layer(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let source = String::from_utf8_lossy(&bytes).into_owned();
        let lexed = lex(&source);
        let fns = parse::parse_fns(&lexed.tokens);
        for f in &fns {
            if let Some(body) = f.body {
                let _ = parse::find_ifs(&lexed.tokens, body);
                let _ = parse::call_sites(&lexed.tokens, body);
                let _ = parse::draw_calls(&lexed.tokens, body);
            }
        }
        let cfg = Config::default();
        let _ = rules::check_file(&cfg, "crates/core/src/soup.rs", &source);
        let files = [callgraph::FileTokens {
            rel_path: "crates/core/src/soup.rs",
            lexed: &lexed,
            lines: source.lines().collect(),
        }];
        let mut out = Vec::new();
        callgraph::check_crate(&cfg, "core", &files, &mut out);
        let _ = schema::extract(&lexed.tokens);
        let _ = schema::parse_snapshot(&source);
    }

    /// Rust-shaped soup: random fragments glued together exercise the
    /// structural layer far deeper than raw bytes.
    #[test]
    fn fragment_soup_never_panics(picks in proptest::collection::vec(0usize..16, 0..64)) {
        const FRAGMENTS: [&str; 16] = [
            "fn f(", ") {", "}", "if let Some(x) = m.get(&k) {", "return x;",
            "rng.f64()", ".fork(\"mac\")", "else {", "m.values().for_each(|v|",
            "// detlint:allow(R2)", "put_opt_u64(&mut p, self.x);", "const WIRE_VERSION: u8 = 2;",
            "r#\"raw\"#", "'a>", "b'\\n'", "/* nested /* comment */",
        ];
        let source: String = picks.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join(" ");
        let _ = rules::check_file(&Config::default(), "crates/core/src/soup.rs", &source);
        let _ = schema::extract(&lex(&source).tokens);
    }
}
