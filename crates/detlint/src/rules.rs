//! The determinism & safety rules.
//!
//! Every rule works on the token stream produced by [`crate::lexer`],
//! so occurrences inside strings, comments and doc examples never
//! count. Rules are lexical by design — no type inference — which keeps
//! the pass dependency-free and fast; where lexical analysis cannot
//! prove a use is safe (say, a `HashMap` that is genuinely never
//! iterated), the escape hatch is an explicit, justified
//! `// detlint:allow(<rule>) <why>` annotation on the same or the
//! preceding line.
//!
//! | ID | Invariant |
//! |----|-----------|
//! | D1 | no `Instant`/`SystemTime` outside `sim-core/src/clock.rs` |
//! | D2 | no `thread_rng`/`rand::random`/`from_entropy` outside `sim-core/src/rng.rs` |
//! | D3 | no hash-ordered collections (`HashMap`/`HashSet`) in simulation crates |
//! | D4 | no `==`/`!=` against float literals |
//! | S1 | crate roots carry the workspace lint header block |
//! | S2 | no `unwrap`/`expect`/`panic!` family in per-event hot paths |
//! | A1 | `detlint:allow` annotations must name rules and a justification |
//! | U1 | every `pub fn` has a caller in non-test code ([`crate::surface`]) |
//!
//! The flow-aware v2 families live in their own modules but share this
//! finding type and allow machinery: [`crate::flow`] (R1/R2/R3,
//! RNG-stream discipline), [`crate::callgraph`] (S3,
//! panic-reachability), [`crate::schema`] (W1, wire-schema
//! snapshot) and [`crate::surface`] (U1, uncalled public functions).

use crate::config::Config;
use crate::flow;
use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::parse;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File, relative to the scan root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule ID (`D1` … `S2`, `A1`).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    | {}\n    = hint: {}",
            self.file, self.line, self.col, self.rule, self.message, self.snippet, self.hint
        )
    }
}

/// Checks one file's source text against every enabled per-file rule.
/// The crate- and workspace-level passes (S3, W1) run in
/// [`crate::run`], which lexes each file once and shares the tokens.
pub fn check_file(cfg: &Config, rel_path: &str, source: &str) -> Vec<Finding> {
    check_file_lexed(cfg, rel_path, source, &lex(source))
}

/// [`check_file`] against an already-lexed token stream.
pub fn check_file_lexed(cfg: &Config, rel_path: &str, source: &str, lexed: &Lexed) -> Vec<Finding> {
    let test_regions = parse::test_regions(&lexed.tokens);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };
    let enabled = |rule: &str| !cfg.disabled.iter().any(|d| d == rule);
    let in_test = |idx: usize| test_regions.iter().any(|&(lo, hi)| idx >= lo && idx <= hi);

    let mut raw: Vec<Finding> = Vec::new();
    let toks = &lexed.tokens;

    let exempt = |list: &[String]| list.iter().any(|p| p == rel_path);

    for (i, t) in toks.iter().enumerate() {
        // D1 — wall-clock types anywhere outside the simulated clock.
        if enabled("D1")
            && t.kind == TokenKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && !exempt(&cfg.d1_exempt)
        {
            raw.push(Finding {
                file: rel_path.to_owned(),
                line: t.line,
                col: t.col,
                rule: "D1",
                message: format!("wall-clock type `{}` outside sim-core's clock", t.text),
                snippet: snippet(t.line),
                hint: "route time through sim_core::SimTime / NodeClock so runs replay identically",
            });
        }

        // D2 — ambient randomness outside the seeded SimRng.
        if enabled("D2") && t.kind == TokenKind::Ident && !exempt(&cfg.d2_exempt) {
            let ambient = t.text == "thread_rng"
                || t.text == "from_entropy"
                || (t.text == "rand"
                    && matches!(toks.get(i + 1), Some(p) if p.is_punct("::"))
                    && matches!(toks.get(i + 2), Some(n) if n.is_ident("random")));
            if ambient {
                raw.push(Finding {
                    file: rel_path.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "D2",
                    message: format!(
                        "ambient RNG `{}`: randomness must flow from the run seed",
                        t.text
                    ),
                    snippet: snippet(t.line),
                    hint: "draw from a sim_core::SimRng forked from the scenario seed",
                });
            }
        }

        // D3 — hash-ordered collections in simulation crates. Lexical
        // analysis cannot prove a given map is never iterated, so the
        // rule bans the types outright in simulation state; a justified
        // detlint:allow(D3) marks the (rare) legitimate uses.
        if enabled("D3")
            && t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "HashMap" | "HashSet" | "RandomState" | "DefaultHasher"
            )
            && in_d3_scope(cfg, rel_path)
            && !in_test(i)
        {
            raw.push(Finding {
                file: rel_path.to_owned(),
                line: t.line,
                col: t.col,
                rule: "D3",
                message: format!(
                    "`{}` in a simulation crate: iteration order depends on the process-random hasher",
                    t.text
                ),
                snippet: snippet(t.line),
                hint: "use BTreeMap/BTreeSet (key-ordered) or sort before iterating",
            });
        }

        // D4 — float equality. Heuristic: an `==`/`!=` whose immediate
        // neighbour token is a float literal.
        if enabled("D4") && t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
            let prev_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
            let next_float = matches!(toks.get(i + 1), Some(n) if n.kind == TokenKind::Float);
            if prev_float || next_float {
                raw.push(Finding {
                    file: rel_path.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "D4",
                    message: format!("float `{}` comparison against a literal", t.text),
                    snippet: snippet(t.line),
                    hint: "compare with an epsilon (`(a - b).abs() < EPS`) or restructure to `<=`/`>=`",
                });
            }
        }

        // S2 — panicking constructs in per-event hot paths.
        if enabled("S2")
            && t.kind == TokenKind::Ident
            && cfg.s2_paths.iter().any(|p| p == rel_path)
            && !in_test(i)
        {
            let method_panic =
                (t.text == "unwrap" || t.text == "expect") && i > 0 && toks[i - 1].is_punct(".");
            let macro_panic = matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"));
            if method_panic || macro_panic {
                raw.push(Finding {
                    file: rel_path.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "S2",
                    message: format!("`{}` in a per-event hot path", t.text),
                    snippet: snippet(t.line),
                    hint: "return a typed error; one malformed frame must not abort the simulation",
                });
            }
        }
    }

    // S1 — crate-root lint headers.
    if enabled("S1") {
        if let Some(missing) = missing_crate_header(rel_path, toks) {
            raw.push(Finding {
                file: rel_path.to_owned(),
                line: 1,
                col: 1,
                rule: "S1",
                message: format!("crate root is missing lint header(s): {missing}"),
                snippet: snippet(1),
                hint: "add #![forbid(unsafe_code)], #![deny(rust_2018_idioms)] and #![warn(missing_docs)]",
            });
        }
    }

    // R1/R2/R3 — flow-aware RNG-stream discipline.
    flow::check_file(rel_path, lexed, &lines, &mut raw);
    raw.retain(|f| enabled(f.rule));

    apply_allows(cfg, rel_path, lexed, raw, &snippet)
}

/// Whether a finding of `rule` at `line` is suppressed by a justified
/// allow annotation on the same or the preceding line. Shared by the
/// per-file pass and the crate-level passes (S3, W1) in [`crate::run`].
pub(crate) fn is_allowed(lexed: &Lexed, rule: &str, line: u32) -> bool {
    lexed.allows.iter().any(|a| {
        (a.line == line || a.line + 1 == line)
            && a.rules.iter().any(|r| r == rule)
            && !a.justification.is_empty()
    })
}

/// One-paragraph explanation of a rule ID, for `detlint --explain`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "D1" => {
            "D1 — wall-clock types.\nInstant/SystemTime read host time, which differs on \
                 every run and machine; a single read in simulation code makes traces \
                 irreproducible. Route all time through sim_core::SimTime / NodeClock. \
                 Exempt: the clock shim itself (rules.D1.exempt)."
        }
        "D2" => {
            "D2 — ambient randomness.\nthread_rng/rand::random/from_entropy seed from the \
                 OS, so two runs with the same scenario seed diverge. Draw from a \
                 sim_core::SimRng forked from the run seed instead."
        }
        "D3" => {
            "D3 — hash-ordered collections.\nHashMap/HashSet iteration order depends on the \
                 process-random hasher, so any iteration leaks nondeterminism into event \
                 order or RNG draw order. Use BTreeMap/BTreeSet in the configured \
                 simulation crates (rules.D3.crates), or justify a never-iterated map \
                 with detlint:allow(D3)."
        }
        "D4" => {
            "D4 — float literal equality.\nComparing floats with ==/!= against a literal is \
                 brittle under reassociation and optimisation differences. Compare with an \
                 epsilon or restructure to <=/>=."
        }
        "S1" => {
            "S1 — crate-root lint headers.\nEvery crate root must carry \
                 #![forbid(unsafe_code)], #![deny(rust_2018_idioms)] and \
                 #![warn(missing_docs)] so the workspace-wide safety floor cannot erode \
                 crate by crate."
        }
        "S2" => {
            "S2 — panic-free hot-path files.\nThe per-event files listed in rules.S2.paths \
                 must not contain unwrap/expect/panic!-family macros: one malformed frame \
                 must surface as a typed error, not abort the simulation."
        }
        "S3" => {
            "S3 — panic reachability.\ndetlint builds an intra-crate call graph from fn \
                 definitions and call sites, then walks every function transitively \
                 callable from the configured hot-path entry points (rules.S3.entries, \
                 `crate::function`). Reachable code must be free of panic!/unwrap/expect \
                 and []-indexing; the finding shows one call path from the entry. \
                 Provably in-bounds access carries a justified detlint:allow(S3). An \
                 entry naming no non-test fn of its scanned crate is reported too, so a \
                 rename cannot silently drop it from the walk."
        }
        "R1" => {
            "R1 — RNG stream collision.\nTwo fork(\"label\") calls with the same string \
                 literal inside one function yield the same child stream, so two \
                 subsystems consume identical random sequences. Give every consumer its \
                 own label."
        }
        "R2" => {
            "R2 — draw-order divergence.\nA branch whose arms draw different RNG call \
                 multisets (or a cache-hit early return that skips draws the fall-through \
                 path performs) shifts every later draw in the stream, so bitwise \
                 reproducibility silently depends on which path ran. Make every path draw \
                 the same calls in the same order: hoist draws out of the branch and ahead \
                 of any early return, or justify a per-run-constant condition with \
                 detlint:allow(R2)."
        }
        "R3" => {
            "R3 — RNG under hash iteration.\nDrawing from an RNG inside a closure that \
                 iterates a HashMap/HashSet makes the draw order follow the process-random \
                 hasher. Iterate a BTree collection or sort keys first."
        }
        "W1" => {
            "W1 — wire-schema snapshot.\nThe RunRecord encoder's field order is extracted \
                 from the wire module and compared against the committed wire.schema \
                 snapshot. Reorders, removals and type changes fail; appending fields \
                 passes only together with a WIRE_VERSION bump. Regenerate the snapshot \
                 deliberately with detlint --update-schema."
        }
        "U1" => {
            "U1 — uncalled public functions.\nA pub fn in a crate's sources whose name \
                 appears in no non-test code of the repository (other crates, the \
                 examples, the benches and perfbench/src count; #[cfg(test)] regions, \
                 tests/ directories and use re-exports do not) is surface that only \
                 tests hold up. Delete it, move it under #[cfg(test)], or keep it with a \
                 detlint:allow(U1) naming who needs it. The match is by name, so a \
                 name shared with any other identifier never fires."
        }
        "A1" => {
            "A1 — allow hygiene.\ndetlint:allow annotations must name at least one rule ID \
                 and carry a justification: `// detlint:allow(D3) single lookup table, \
                 never iterated`. Bare allows are findings themselves."
        }
        _ => return None,
    })
}

/// Whether `rel_path` is source of one of the configured simulation
/// crates (`crates/<name>/src/...`).
fn in_d3_scope(cfg: &Config, rel_path: &str) -> bool {
    let mut parts = rel_path.split('/');
    if parts.next() != Some("crates") {
        return false;
    }
    match parts.next() {
        Some(krate) => cfg.d3_crates.iter().any(|c| c == krate),
        None => false,
    }
}

/// For crate roots, returns a description of required-but-absent lint
/// headers; `None` when the file is not a crate root or is compliant.
fn missing_crate_header(rel_path: &str, toks: &[Token]) -> Option<String> {
    let mut parts = rel_path.split('/');
    let is_root = parts.next() == Some("crates")
        && parts.next().is_some()
        && parts.next() == Some("src")
        && matches!(parts.next(), Some("lib.rs" | "main.rs"))
        && parts.next().is_none();
    if !is_root {
        return None;
    }
    // Collect inner `#![level(lint, ...)]` attributes.
    let mut have: Vec<(String, String)> = Vec::new(); // (level, lint)
    let mut i = 0;
    while i + 4 < toks.len() {
        if toks[i].is_punct("#")
            && toks[i + 1].is_punct("!")
            && toks[i + 2].is_punct("[")
            && toks[i + 3].kind == TokenKind::Ident
            && matches!(toks[i + 3].text.as_str(), "forbid" | "deny" | "warn")
            && toks[i + 4].is_punct("(")
        {
            let level = toks[i + 3].text.clone();
            let mut j = i + 5;
            while j < toks.len() && !toks[j].is_punct(")") {
                if toks[j].kind == TokenKind::Ident {
                    have.push((level.clone(), toks[j].text.clone()));
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    let level_of = |lint: &str| -> Option<&str> {
        have.iter()
            .find(|(_, l)| l == lint)
            .map(|(level, _)| level.as_str())
    };
    let mut missing = Vec::new();
    if level_of("unsafe_code") != Some("forbid") {
        missing.push("#![forbid(unsafe_code)]");
    }
    if !matches!(level_of("rust_2018_idioms"), Some("deny" | "forbid")) {
        missing.push("#![deny(rust_2018_idioms)]");
    }
    if level_of("missing_docs").is_none() {
        missing.push("#![warn(missing_docs)]");
    }
    if missing.is_empty() {
        None
    } else {
        Some(missing.join(", "))
    }
}

/// Suppresses findings covered by a `detlint:allow` annotation on the
/// same or preceding line, and reports malformed annotations (A1).
fn apply_allows(
    cfg: &Config,
    rel_path: &str,
    lexed: &Lexed,
    raw: Vec<Finding>,
    snippet: &dyn Fn(u32) -> String,
) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let allowed = lexed.allows.iter().any(|a| {
            (a.line == f.line || a.line + 1 == f.line)
                && a.rules.iter().any(|r| r == f.rule)
                && !a.justification.is_empty()
        });
        if !allowed {
            out.push(f);
        }
    }
    if !cfg.disabled.iter().any(|d| d == "A1") {
        for a in &lexed.allows {
            if a.rules.is_empty() || a.justification.is_empty() {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line: a.line,
                    col: 1,
                    rule: "A1",
                    message: "malformed detlint:allow — needs rule ID(s) and a justification"
                        .to_owned(),
                    snippet: snippet(a.line),
                    hint: "write `// detlint:allow(D3) <why this use is sound>`",
                });
            }
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&Config::default(), path, src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // — D1 —

    #[test]
    fn d1_flags_instant_outside_clock() {
        let f = check(
            "crates/facilities/src/ca.rs",
            "use std::time::Instant;\nfn t() { let s = Instant::now(); }",
        );
        assert!(rules_of(&f).contains(&"D1"));
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn d1_permits_clock_rs_and_strings() {
        assert!(check("crates/sim-core/src/clock.rs", "use std::time::Instant;").is_empty());
        assert!(check("crates/facilities/src/ca.rs", r#"let s = "Instant";"#).is_empty());
    }

    // — D2 —

    #[test]
    fn d2_flags_ambient_rng() {
        let f = check("crates/facilities/src/ca.rs", "let x = rand::thread_rng();");
        assert_eq!(rules_of(&f), vec!["D2"]);
        let f = check("crates/core/src/metrics.rs", "let v: f64 = rand::random();");
        assert_eq!(rules_of(&f), vec!["D2"]);
        let f = check(
            "crates/vehicle/src/pid.rs",
            "let r = SmallRng::from_entropy();",
        );
        assert_eq!(rules_of(&f), vec!["D2"]);
    }

    #[test]
    fn d2_permits_rng_rs_and_unrelated_random() {
        assert!(check("crates/sim-core/src/rng.rs", "fn thread_rng() {}").is_empty());
        // `random` not behind `rand::` is some other function.
        assert!(check("crates/vehicle/src/pid.rs", "let x = random();").is_empty());
    }

    // — D3 —

    #[test]
    fn d3_flags_hash_collections_in_sim_crates() {
        let f = check(
            "crates/geonet/src/loctable.rs",
            "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) { for k in m.keys() {} }",
        );
        assert_eq!(rules_of(&f), vec!["D3", "D3"]);
        assert!(f[0].message.contains("iteration order"));
    }

    #[test]
    fn d3_ignores_unlisted_crates_and_tests() {
        // Every workspace crate is covered now; unlisted paths (the
        // integration-test root, out-of-tree crates) are not.
        assert!(check("tests/campaign.rs", "use std::collections::HashMap;").is_empty());
        assert!(check(
            "crates/some-vendored-dep/src/http.rs",
            "use std::collections::HashMap;"
        )
        .is_empty());
        // openc2x joined the D3 scope: its HTTP layer is replayed
        // deterministically too.
        assert_eq!(
            rules_of(&check(
                "crates/openc2x/src/http.rs",
                "use std::collections::HashMap;"
            )),
            vec!["D3"]
        );
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { let s = std::collections::HashSet::new(); }\n}\n";
        assert!(check("crates/perception/src/detector.rs", src).is_empty());
    }

    #[test]
    fn d3_allow_annotation_suppresses_with_justification() {
        let src = "// detlint:allow(D3) single lookup table, never iterated\nuse std::collections::HashMap;\n";
        assert!(check("crates/facilities/src/ldm.rs", src).is_empty());
        // Same line works too.
        let src = "use std::collections::HashMap; // detlint:allow(D3) never iterated\n";
        assert!(check("crates/facilities/src/ldm.rs", src).is_empty());
    }

    #[test]
    fn a1_flags_allow_without_justification() {
        let src = "// detlint:allow(D3)\nuse std::collections::HashMap;\n";
        let f = check("crates/facilities/src/ldm.rs", src);
        assert_eq!(rules_of(&f), vec!["A1", "D3"]);
    }

    // — D4 —

    #[test]
    fn d4_flags_float_literal_equality() {
        let f = check("crates/vehicle/src/pid.rs", "if speed == 0.0 { halt(); }");
        assert_eq!(rules_of(&f), vec!["D4"]);
        let f = check("crates/vehicle/src/pid.rs", "if 1.5 != x { nudge(); }");
        assert_eq!(rules_of(&f), vec!["D4"]);
    }

    #[test]
    fn d4_permits_integer_equality_and_ranges() {
        assert!(check("crates/vehicle/src/pid.rs", "if n == 0 { stop(); }").is_empty());
        assert!(check("crates/vehicle/src/pid.rs", "let r = 0.0..1.0;").is_empty());
    }

    // — S1 —

    #[test]
    fn s1_requires_header_block_on_crate_roots() {
        let f = check("crates/vehicle/src/lib.rs", "//! Docs.\npub mod pid;\n");
        assert_eq!(rules_of(&f), vec!["S1"]);
        assert!(
            f[0].message.contains("forbid(unsafe_code)") || f[0].message.contains("unsafe_code")
        );
    }

    #[test]
    fn s1_satisfied_by_full_header() {
        let src = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(rust_2018_idioms)]\n#![warn(missing_docs)]\npub mod pid;\n";
        assert!(check("crates/vehicle/src/lib.rs", src).is_empty());
    }

    #[test]
    fn s1_ignores_non_roots() {
        assert!(check("crates/vehicle/src/pid.rs", "pub fn f() {}").is_empty());
    }

    // — S2 —

    #[test]
    fn s2_flags_panics_in_hot_paths_only() {
        let src = "fn rx(b: &[u8]) { let h = parse(b).unwrap(); }";
        assert_eq!(
            rules_of(&check("crates/geonet/src/forwarding.rs", src)),
            vec!["S2"]
        );
        // Same code in a non-hot-path file passes.
        assert!(check("crates/geonet/src/area.rs", src).is_empty());
    }

    #[test]
    fn s2_flags_macro_panics_but_not_tests() {
        let src = "fn rx() { panic!(\"boom\"); }";
        assert_eq!(rules_of(&check("crates/uper/src/bits.rs", src)), vec!["S2"]);
        let src =
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { parse(b).unwrap(); panic!(); }\n}\n";
        assert!(check("crates/uper/src/bits.rs", src).is_empty());
    }

    #[test]
    fn s2_permits_unwrap_or_variants() {
        let src =
            "fn rx(x: Option<u8>) -> u8 { x.unwrap_or(0).saturating_add(x.unwrap_or_default()) }";
        assert!(check("crates/uper/src/fields.rs", src).is_empty());
    }

    // — R rules through the per-file pass —

    #[test]
    fn r_rules_run_through_check_file_and_respect_allows() {
        let src = "fn f(rng: &mut SimRng, c: bool) -> f64 { if c { rng.f64() } else { 0.0 } }";
        assert_eq!(rules_of(&check("crates/core/src/x.rs", src)), vec!["R2"]);
        let src = "fn f(rng: &mut SimRng, c: bool) -> f64 {\n    // detlint:allow(R2) c is fixed per run by the scenario config\n    if c { rng.f64() } else { 0.0 }\n}";
        assert!(check("crates/core/src/x.rs", src).is_empty());
        let mut cfg = Config::default();
        cfg.disabled.push("R2".into());
        let src = "fn f(rng: &mut SimRng, c: bool) -> f64 { if c { rng.f64() } else { 0.0 } }";
        assert!(check_file(&cfg, "crates/core/src/x.rs", src).is_empty());
    }

    // — explain —

    #[test]
    fn explain_covers_every_rule_id() {
        for id in [
            "D1", "D2", "D3", "D4", "S1", "S2", "S3", "R1", "R2", "R3", "W1", "U1", "A1",
        ] {
            assert!(explain(id).is_some(), "missing explanation for {id}");
        }
        assert!(explain("Z9").is_none());
    }

    // — engine behaviour —

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut cfg = Config::default();
        cfg.disabled.push("D4".into());
        let f = check_file(&cfg, "crates/vehicle/src/pid.rs", "if speed == 0.0 {}");
        assert!(f.is_empty());
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let src = "fn rx() { b.unwrap();\n let c = a.expect(\"x\"); }";
        let f = check("crates/uper/src/bits.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f[0].line < f[1].line);
    }

    #[test]
    fn finding_display_has_file_line_col_rule_and_hint() {
        let f = &check("crates/vehicle/src/pid.rs", "if speed == 0.0 {}")[0];
        let s = f.to_string();
        assert!(s.contains("crates/vehicle/src/pid.rs:1:"));
        assert!(s.contains("[D4]"));
        assert!(s.contains("hint:"));
    }
}
