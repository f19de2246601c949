//! Tier-1 gate: the workspace must satisfy every detlint invariant.
//!
//! This makes `cargo test` alone sufficient to prove the determinism
//! and safety rules hold — CI does not need a separate lint step (though
//! `scripts/check.sh` also runs the CLI for human-readable output).

use std::path::Path;
use std::sync::OnceLock;

/// The workspace root, two levels up from `crates/core` where this
/// integration test is registered.
fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One scan of the workspace under detlint's one configuration, the
/// built-in [`detlint::Config::default`] the CLI also uses, shared by
/// the two workspace tests below.
fn workspace_report() -> &'static detlint::Report {
    static REPORT: OnceLock<detlint::Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        detlint::run(&workspace_root(), &detlint::Config::default()).expect("scan succeeds")
    })
}

/// The workspace is clean under the built-in configuration.
#[test]
fn workspace_has_no_detlint_findings() {
    let report = workspace_report();
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — scan roots misconfigured?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        report.is_clean(),
        "detlint found {} violation(s):\n\n{}",
        report.findings.len(),
        rendered.join("\n\n")
    );
}

/// The built-in defaults are the gate's whole configuration, so they
/// must not weaken it quietly: they disable no rule, and every path
/// they name exists. A moved file would leave S2, W1 or an exemption
/// covering nothing without a finding (a stale S3 entry is a finding
/// of its own).
#[test]
fn workspace_is_clean_under_builtin_defaults() {
    let root = workspace_root();
    let cfg = detlint::Config::default();
    assert!(
        cfg.disabled.is_empty(),
        "built-in defaults disable {:?}",
        cfg.disabled
    );
    let missing: Vec<&String> = cfg
        .scan
        .iter()
        .chain(&cfg.d1_exempt)
        .chain(&cfg.d2_exempt)
        .chain(&cfg.s2_paths)
        .chain([&cfg.w1_wire, &cfg.w1_schema])
        .filter(|p| !root.join(p).exists())
        .collect();
    assert!(
        missing.is_empty(),
        "built-in defaults name missing paths: {missing:?}"
    );
    assert!(
        workspace_report().is_clean(),
        "the workspace has detlint findings under the built-in defaults"
    );
}

#[test]
fn gate_actually_detects_planted_violations() {
    // Guard against the gate rotting into a vacuous pass: plant each
    // class of violation in a synthetic tree and require a finding.
    let dir = std::env::temp_dir().join(format!("detlint-gate-{}", std::process::id()));
    let src = dir.join("crates/geonet/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("loctable.rs"),
        "use std::collections::HashMap;\nfn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }\n",
    )
    .unwrap();
    let report = detlint::run(&dir, &detlint::Config::default()).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"D1"), "missing D1 in {rules:?}");
    assert!(rules.contains(&"D2"), "missing D2 in {rules:?}");
    assert!(rules.contains(&"D3"), "missing D3 in {rules:?}");
    for f in &report.findings {
        assert_eq!(f.file, "crates/geonet/src/loctable.rs");
        assert!(f.line >= 1 && f.col >= 1);
    }
}

/// Same rot-guard for the v2 families and U1: plant one violation per
/// rule in a synthetic tree and require `run` to surface each, including
/// the headline W1 demonstration — reordering two fields in a copy of the
/// real `wire.rs` must fail against the committed `wire.schema`.
#[test]
fn gate_detects_planted_flow_graph_and_wire_violations() {
    let root = workspace_root();
    let dir = std::env::temp_dir().join(format!("detlint-gate-v2-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).unwrap();

    // W1: the live encoder with two writes swapped, against the real
    // committed snapshot.
    let wire = std::fs::read_to_string(root.join("crates/core/src/wire.rs")).unwrap();
    let a = "put_opt_time(&mut p, self.step1_crossing);";
    let b = "put_opt_time(&mut p, self.step2_detection);";
    let mutated = wire.replace(&format!("{a}\n        {b}"), &format!("{b}\n        {a}"));
    assert_ne!(mutated, wire, "wire mutation must apply");
    std::fs::write(src.join("wire.rs"), mutated).unwrap();
    std::fs::copy(root.join("wire.schema"), dir.join("wire.schema")).unwrap();

    // R1/R2/R3 and S3 (from the `core::handle` entry).
    std::fs::write(
        src.join("lib.rs"),
        r#"fn seed_streams(rng: &mut SimRng) -> (SimRng, SimRng) {
    (rng.fork("mac"), rng.fork("mac"))
}
fn cached_fer(rng: &mut SimRng, memo: &mut Memo, key: u64) -> f64 {
    if let Some(v) = memo.get(&key) {
        return *v;
    }
    let draw = rng.f64();
    memo.insert(key, draw);
    draw
}
fn jitter(links: &mut HashMap<u64, Link>, rng: &mut SimRng) {
    links.values_mut().for_each(|l| l.set(rng.f64()));
}
fn handle(frame: &[u8]) -> u8 {
    decode_kind(frame)
}
fn decode_kind(frame: &[u8]) -> u8 {
    frame[0]
}
"#,
    )
    .unwrap();

    // U1: an uncalled public function, next to one that only an
    // example calls (examples count as callers).
    std::fs::write(
        src.join("surface.rs"),
        "pub fn never_called() -> u8 { 0 }\npub fn example_only() -> u8 { 1 }\n",
    )
    .unwrap();
    std::fs::create_dir_all(dir.join("examples")).unwrap();
    std::fs::write(
        dir.join("examples/demo.rs"),
        "fn main() { let _ = its_testbed::example_only(); }\n",
    )
    .unwrap();

    // Only the planted entry point: the workspace's other core entries
    // would be reported stale in this tree, and the S3 check must come
    // from the planted panic.
    let cfg = detlint::Config {
        s3_entries: vec!["core::handle".into()],
        ..detlint::Config::default()
    };
    let report = detlint::run(&dir, &cfg).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    // The copied wire codec's encoder has no caller in the planted tree
    // either; only the example-called function must stay unflagged.
    let u1: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "U1")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        u1.iter().any(|m| m.contains("`pub fn never_called`"))
            && !u1.iter().any(|m| m.contains("example_only")),
        "U1 should flag never_called and spare example_only: {u1:?}"
    );
    for rule in ["R1", "R2", "R3", "S3", "W1"] {
        assert!(rules.contains(&rule), "missing {rule} in {rules:?}");
    }
    let w1 = report.findings.iter().find(|f| f.rule == "W1").unwrap();
    assert!(
        w1.message.contains("step1_crossing") || w1.message.contains("position 1"),
        "W1 should name the reordered field: {}",
        w1.message
    );
}
