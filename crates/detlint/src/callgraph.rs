//! Per-crate call graph and the S3 panic-reachability rule.
//!
//! S2 (PR 1) proves named hot-path *files* free of panicking
//! constructs, but a refactor that moves an `unwrap` one call deeper —
//! into a helper in a sibling file — silently escapes it. S3 closes
//! that hole: it builds an intra-crate call graph from `fn` definitions
//! and call sites, walks reachability from configured hot-path entry
//! points (`EventQueue` handlers, EDCA/channel/DCC per-event code,
//! UPER/GeoNet codecs), and requires every transitively callable
//! function to be free of `panic!`-family macros, `.unwrap()`/
//! `.expect()` and `[]`-indexing.
//!
//! The graph is name-based and intra-crate by design: a call edge
//! `a → b` exists when `a`'s body contains a call site named `b` and
//! some non-test `fn b` is defined in the same crate. That
//! over-approximates (same-named methods on different types merge;
//! calls that actually resolve cross-crate still add the local edge),
//! which is the safe direction for a lint — reachability may only grow.
//! Test-region functions neither join the graph nor contribute edges.
//! An entry that names no non-test fn of its (scanned) crate is itself
//! a finding: a renamed or deleted entry would otherwise drop out of
//! the walk without a trace.
//!
//! `assert!`/`debug_assert!` are deliberately *not* flagged: the
//! workspace uses them to turn logic errors into loud failures
//! (schedule-into-past, exhausted seq counters), and S3 targets
//! input-dependent aborts, not invariant checks. `[]`-indexing *is*
//! flagged — a lying length prefix must surface as a typed decode
//! error, never an out-of-bounds panic — with justified
//! `detlint:allow(S3)` as the escape for provably in-bounds access.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{Lexed, Token, TokenKind};
use crate::parse;
use crate::rules::Finding;

/// One scanned file handed to the crate-level pass.
pub struct FileTokens<'a> {
    /// Root-relative `/`-separated path.
    pub rel_path: &'a str,
    /// The file's lexed form.
    pub lexed: &'a Lexed,
    /// The file's source lines (for snippets).
    pub lines: Vec<&'a str>,
}

/// The crate a `crates/<name>/…` path belongs to, if any.
pub fn crate_of(rel_path: &str) -> Option<&str> {
    let mut parts = rel_path.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    parts.next()
}

#[derive(Debug)]
struct FnBody {
    file: usize,
    body: (usize, usize),
}

/// Runs S3 over one crate's files. `entries` holds the entry-point
/// function names configured for this crate. Returned findings are not
/// yet allow-filtered; the caller applies each file's annotations.
pub fn check_crate(cfg: &Config, krate: &str, files: &[FileTokens<'_>], out: &mut Vec<Finding>) {
    let entries: BTreeSet<&str> = cfg
        .s3_entries
        .iter()
        .filter_map(|e| e.split_once("::"))
        .filter(|(c, _)| *c == krate)
        .map(|(_, f)| f)
        .collect();
    if entries.is_empty() {
        return;
    }

    // Collect every non-test fn body in the crate, grouped by name.
    let mut bodies: BTreeMap<String, Vec<FnBody>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for f in parse::parse_fns(&file.lexed.tokens) {
            if f.in_test {
                continue;
            }
            if let Some(body) = f.body {
                bodies
                    .entry(f.name)
                    .or_default()
                    .push(FnBody { file: fi, body });
            }
        }
    }

    // BFS over function names from the entry points, remembering one
    // shortest call path per name for the diagnostic message.
    let mut reached: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut queue: Vec<String> = Vec::new();
    for e in &entries {
        if bodies.contains_key(*e) {
            reached.insert((*e).to_string(), vec![(*e).to_string()]);
            queue.push((*e).to_string());
        } else {
            out.push(stale_entry(krate, e, files));
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let name = queue[head].clone();
        head += 1;
        let path = reached[&name].clone();
        let Some(defs) = bodies.get(&name) else {
            continue;
        };
        let mut callees: BTreeSet<String> = BTreeSet::new();
        for def in defs {
            for (callee, _) in parse::call_sites(&files[def.file].lexed.tokens, def.body) {
                if callee != name && bodies.contains_key(&callee) {
                    callees.insert(callee);
                }
            }
        }
        for callee in callees {
            if !reached.contains_key(&callee) {
                let mut p = path.clone();
                p.push(callee.clone());
                reached.insert(callee.clone(), p);
                queue.push(callee);
            }
        }
    }

    // Flag panicking constructs in every reachable body.
    for (name, path) in &reached {
        let via = if path.len() > 1 {
            format!(" (reachable via {})", path.join(" → "))
        } else {
            String::new()
        };
        for def in &bodies[name] {
            let file = &files[def.file];
            let toks = &file.lexed.tokens;
            let (lo, hi) = def.body;
            for i in lo..=hi.min(toks.len().saturating_sub(1)) {
                let t = &toks[i];
                let hit = panic_construct(toks, i);
                let Some(what) = hit else { continue };
                let snippet = file
                    .lines
                    .get(t.line as usize - 1)
                    .map(|l| l.trim().to_owned())
                    .unwrap_or_default();
                out.push(Finding {
                    file: file.rel_path.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "S3",
                    message: format!(
                        "{what} in `{name}`, on the hot path from entry `{krate}::{root}`{via}",
                        root = path.first().map(String::as_str).unwrap_or(name),
                    ),
                    snippet,
                    hint: "return a typed error (or prove bounds and add a justified detlint:allow(S3))",
                });
            }
        }
    }
}

/// The finding for an entry that names no non-test fn of `krate`,
/// placed at the top of the crate root (or of its first scanned file).
fn stale_entry(krate: &str, entry: &str, files: &[FileTokens<'_>]) -> Finding {
    let root = format!("crates/{krate}/src/lib.rs");
    let file = files
        .iter()
        .find(|f| f.rel_path == root)
        .or(files.first())
        .map_or(root, |f| f.rel_path.to_owned());
    Finding {
        file,
        line: 1,
        col: 1,
        rule: "S3",
        message: format!(
            "entry `{krate}::{entry}` names no non-test fn in crate `{krate}`, so the walk skips it"
        ),
        snippet: format!("{krate}::{entry}"),
        hint: "point rules.S3.entries at the function's current name, or remove the entry",
    }
}

/// If token `i` is a panicking construct, a short description of it.
fn panic_construct(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind == TokenKind::Ident {
        let method_panic =
            (t.text == "unwrap" || t.text == "expect") && i > 0 && toks[i - 1].is_punct(".");
        if method_panic {
            return Some(format!("`.{}()`", t.text));
        }
        let macro_panic = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
        if macro_panic {
            return Some(format!("`{}!`", t.text));
        }
        return None;
    }
    // `[`-indexing: `expr[...]` can panic out of bounds. The opener
    // counts when it follows a value (identifier, `)`, or `]`); array
    // literals, types, attributes and macro brackets do not match.
    if t.is_punct("[") && i > 0 {
        let p = &toks[i - 1];
        let after_value =
            (p.kind == TokenKind::Ident && !parse_keyword(p)) || p.is_punct(")") || p.is_punct("]");
        if after_value {
            return Some("`[]`-indexing".to_string());
        }
    }
    None
}

fn parse_keyword(t: &Token) -> bool {
    matches!(
        t.text.as_str(),
        "return"
            | "break"
            | "in"
            | "else"
            | "match"
            | "if"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "use"
            | "where"
            | "dyn"
            | "impl"
            | "loop"
            | "while"
            | "for"
            | "unsafe"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn s3(files: &[(&str, &str)], entries: &[&str]) -> Vec<Finding> {
        let mut cfg = Config::default();
        cfg.s3_entries = entries.iter().map(|e| (*e).to_string()).collect();
        let lexed: Vec<_> = files.iter().map(|(_, src)| lex(src)).collect();
        let file_toks: Vec<FileTokens<'_>> = files
            .iter()
            .zip(&lexed)
            .map(|((path, src), lx)| FileTokens {
                rel_path: path,
                lexed: lx,
                lines: src.lines().collect(),
            })
            .collect();
        let mut out = Vec::new();
        check_crate(&cfg, "demo", &file_toks, &mut out);
        out
    }

    #[test]
    fn panic_in_entry_is_flagged() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle(x: Option<u8>) { x.unwrap(); }",
            )],
            &["demo::handle"],
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "S3");
        assert!(f[0].message.contains("`.unwrap()`"));
    }

    #[test]
    fn panic_two_calls_deep_across_files_is_flagged_with_path() {
        let f = s3(
            &[
                (
                    "crates/demo/src/lib.rs",
                    "fn handle(b: &[u8]) { helper(b); }",
                ),
                (
                    "crates/demo/src/util.rs",
                    "pub fn helper(b: &[u8]) { deep(b); }\nfn deep(b: &[u8]) { let _ = b[0]; }",
                ),
            ],
            &["demo::handle"],
        );
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("handle → helper → deep"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("`[]`-indexing"));
        assert_eq!(f[0].file, "crates/demo/src/util.rs");
    }

    #[test]
    fn unreachable_fns_are_not_flagged() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle() { safe(); }\nfn safe() {}\nfn cold() { boom.unwrap(); }",
            )],
            &["demo::handle"],
        );
        assert!(f.is_empty());
    }

    #[test]
    fn test_region_fns_neither_flagged_nor_edges() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle() {}\n#[cfg(test)]\nmod tests { fn handle() { x.unwrap(); } }",
            )],
            &["demo::handle"],
        );
        assert!(f.is_empty());
    }

    #[test]
    fn asserts_and_array_literals_are_not_flagged() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle(n: u64) { assert!(n > 0); let a = [1, 2]; let v: [u8; 2] = a; let _ = vec![n]; }",
            )],
            &["demo::handle"],
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn indexing_and_slicing_are_flagged() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle(b: &[u8], i: usize) { let _x = b[i]; let _s = &b[1..]; }",
            )],
            &["demo::handle"],
        );
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.message.contains("`[]`-indexing")));
    }

    #[test]
    fn recursion_terminates() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle(n: u64) { if n > 0 { handle(n - 1); } mutual_a(); }\nfn mutual_a() { mutual_b(); }\nfn mutual_b() { mutual_a(); }",
            )],
            &["demo::handle"],
        );
        assert!(f.is_empty());
    }

    #[test]
    fn stale_entry_is_reported() {
        let f = s3(
            &[(
                "crates/demo/src/lib.rs",
                "fn handle() {}\n#[cfg(test)]\nmod tests { fn renamed() {} }",
            )],
            &["demo::handle", "demo::renamed"],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "S3");
        assert_eq!(f[0].file, "crates/demo/src/lib.rs");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("`demo::renamed`"), "{}", f[0].message);
    }

    #[test]
    fn entries_scope_to_their_crate() {
        let f = s3(
            &[("crates/demo/src/lib.rs", "fn handle() { x.unwrap(); }")],
            &["other::handle"],
        );
        assert!(f.is_empty());
    }
}
