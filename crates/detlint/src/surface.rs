//! U1 — no uncalled functions in the public surface.
//!
//! A `pub fn` in a crate's sources (`crates/<name>/src`, outside
//! `#[cfg(test)]` regions) is reported when its name appears in no
//! non-test code of the repository apart from its own definition.
//! Non-test code is every scanned file outside a `tests` directory,
//! minus its `#[cfg(test)]` regions and its `use` declarations (a
//! re-export is not a caller), plus the workspace examples and the
//! end-to-end benchmark's sources ([`CALLER_ROOTS`]). Those count as
//! callers but are not linted themselves.
//!
//! Like the other rules the check is lexical: any non-test identifier
//! with the same name counts as a call. A shared name such as `new`
//! therefore never fires, so U1 can miss an uncalled function but
//! never reports a called one. A function kept on purpose for
//! integration tests carries `detlint:allow(U1) <reason>`.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::parse;
use crate::rules::{is_allowed, Finding};
use std::collections::BTreeSet;

/// Directories, relative to the root, whose code counts as callers
/// although it is not in the scan roots: the workspace examples and
/// the end-to-end benchmark's sources.
pub const CALLER_ROOTS: &[&str] = &["examples", "perfbench/src"];

/// Whether `rel_path` lies under a `tests` directory.
fn is_test_file(rel_path: &str) -> bool {
    rel_path.split('/').any(|part| part == "tests")
}

/// Whether `rel_path` is a crate's own source (`crates/<name>/src/…`).
fn is_crate_source(rel_path: &str) -> bool {
    let mut parts = rel_path.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// Whether the `fn` keyword at `fn_idx` is declared `pub` (with any
/// `const`/`async`/`unsafe`/`extern "abi"` qualifiers in between).
/// `pub(crate) fn` and friends end in `)` and do not match.
fn is_pub_fn(toks: &[Token], fn_idx: usize) -> bool {
    let mut i = fn_idx;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        let qualifier = t.kind == TokenKind::Literal
            || ["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| t.is_ident(q));
        if !qualifier {
            return t.is_ident("pub");
        }
    }
    false
}

/// Adds every identifier of `lexed`'s non-test code to `used`, except
/// function definition names and the contents of `use` declarations.
fn collect_uses<'a>(lexed: &'a Lexed, used: &mut BTreeSet<&'a str>) {
    let toks = &lexed.tokens;
    let regions = parse::test_regions(toks);
    let mut i = 0;
    while i < toks.len() {
        if let Some(&(_, hi)) = regions.iter().find(|&&(lo, hi)| i >= lo && i <= hi) {
            i = hi + 1;
            continue;
        }
        let t = &toks[i];
        if t.is_ident("use") {
            while i < toks.len() && !toks[i].is_punct(";") {
                i += 1;
            }
        } else if t.is_ident("fn") {
            i += 1; // the definition's own name is not a use
        } else if t.kind == TokenKind::Ident {
            used.insert(&t.text);
        }
        i += 1;
    }
}

/// Runs U1 over the scanned files; `callers` are the lexed sources of
/// [`CALLER_ROOTS`]. Findings covered by a justified
/// `detlint:allow(U1)` are dropped here.
pub fn check(scanned: &[(String, String, Lexed)], callers: &[Lexed], out: &mut Vec<Finding>) {
    let mut used = BTreeSet::new();
    for (rel, _, lexed) in scanned {
        if !is_test_file(rel) {
            collect_uses(lexed, &mut used);
        }
    }
    for lexed in callers {
        collect_uses(lexed, &mut used);
    }
    for (rel, source, lexed) in scanned {
        if !is_crate_source(rel) {
            continue;
        }
        let toks = &lexed.tokens;
        for f in parse::parse_fns(toks) {
            if f.in_test || used.contains(f.name.as_str()) || !is_pub_fn(toks, f.name_idx - 1) {
                continue;
            }
            let name = &toks[f.name_idx];
            if is_allowed(lexed, "U1", name.line) {
                continue;
            }
            out.push(Finding {
                file: rel.clone(),
                line: name.line,
                col: name.col,
                rule: "U1",
                message: format!(
                    "`pub fn {}` is called from no non-test code in the repository",
                    f.name
                ),
                snippet: source
                    .lines()
                    .nth(name.line as usize - 1)
                    .map(|l| l.trim().to_owned())
                    .unwrap_or_default(),
                hint: "delete it, move it under #[cfg(test)], or keep it with `detlint:allow(U1) <who needs it>`",
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(files: &[(&str, &str)], callers: &[&str]) -> Vec<String> {
        let scanned: Vec<(String, String, Lexed)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_owned(), (*src).to_owned(), lex(src)))
            .collect();
        let callers: Vec<Lexed> = callers.iter().map(|src| lex(src)).collect();
        let mut out = Vec::new();
        check(&scanned, &callers, &mut out);
        out.into_iter().map(|f| f.message).collect()
    }

    #[test]
    fn uncalled_pub_fn_fires_and_a_called_one_does_not() {
        let lib = "pub fn orphan() {}\npub fn used() {}\nfn private() { used(); }";
        let got = findings(&[("crates/a/src/lib.rs", lib)], &[]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("orphan"));
    }

    #[test]
    fn tests_reexports_and_own_definition_are_not_callers() {
        let lib = "pub use self::inner::helper;\npub fn helper() {}\n\
                   #[cfg(test)]\nmod t { fn x() { super::helper(); } }";
        let integration = "fn t() { helper(); }";
        let got = findings(
            &[
                ("crates/a/src/lib.rs", lib),
                ("crates/a/tests/it.rs", integration),
                ("tests/top.rs", integration),
            ],
            &[],
        );
        assert_eq!(got.len(), 1, "{got:?}");
    }

    #[test]
    fn other_crates_and_caller_roots_count() {
        let lib = "pub fn from_crate() {}\npub fn from_example() {}";
        let other = "fn g() { a::from_crate(); }";
        let example = "fn main() { a::from_example(); }";
        let got = findings(
            &[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", other)],
            &[example],
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn restricted_visibility_qualifiers_and_allows() {
        let lib = "pub(crate) fn internal() {}\npub const unsafe fn qualified() {}\n\
                   // detlint:allow(U1) the integration tests' oracle\npub fn kept() {}";
        let got = findings(&[("crates/a/src/lib.rs", lib)], &[]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains("qualified"));
    }
}
