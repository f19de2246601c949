//! The R rule family: RNG-stream discipline.
//!
//! Bitwise-identical campaigns rest on two RNG invariants that lexical
//! token matching (D2) cannot see: every subsystem draws from its *own*
//! forked stream, and the *number and order* of draws is a pure
//! function of the run configuration — never of cache state, iteration
//! order, or which arm of a branch happened to execute.
//!
//! | ID | Hazard |
//! |----|--------|
//! | R1 | two `fork("label")` calls with the same label in one function — stream collision |
//! | R2 | a branch draws a different RNG call multiset than its sibling — draw-order divergence |
//! | R3 | `&mut` RNG used inside a closure iterating a hash-ordered collection |
//!
//! R2 covers both explicit `if`/`else` arms and the cache-hit shape
//! (`if let … { return …; }` whose continuation draws): a memo or early
//! exit must not skip a draw the other path makes, so draws belong
//! ahead of the branch, outside any memoised math. Branching on static
//! configuration (`if cfg.sigma > 0.0 { rng.normal(…) }`) is lexically
//! indistinguishable from branching on per-run state, so such sites
//! carry a justified `detlint:allow(R2)` explaining why the condition
//! is constant for a whole run.

use crate::lexer::{Lexed, Token, TokenKind};
use crate::parse::{self, FnDef};
use crate::rules::Finding;

/// Runs R1/R2/R3 over one file. Findings are not yet allow-filtered.
pub fn check_file(rel_path: &str, lexed: &Lexed, lines: &[&str], out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };
    let fns = parse::parse_fns(toks);
    for f in &fns {
        if f.in_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        check_fork_collisions(toks, f, body, rel_path, &snippet, out);
        check_draw_divergence(toks, f, body, rel_path, &snippet, out);
        // Hash-typed names are scoped to this fn (params + body): a
        // `links: HashMap` param elsewhere in the file must not taint a
        // same-named `BTreeMap` here.
        let hash_names = hash_typed_names(toks, (f.name_idx, body.1));
        check_closure_draws(toks, f, body, rel_path, &hash_names, &snippet, out);
    }
}

/// R1 — duplicate `fork("label")` literals within one function.
fn check_fork_collisions(
    toks: &[Token],
    f: &FnDef,
    body: (usize, usize),
    rel_path: &str,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    let (lo, hi) = body;
    let mut seen: Vec<(&str, u32)> = Vec::new();
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if !(t.is_ident("fork") && toks.get(i + 1).is_some_and(|n| n.is_punct("("))) {
            continue;
        }
        let Some(lit) = toks.get(i + 2).filter(|l| l.kind == TokenKind::Literal) else {
            continue;
        };
        if !toks.get(i + 3).is_some_and(|n| n.is_punct(")")) {
            continue; // dynamic label expression — not statically checkable
        }
        if let Some((_, first_line)) = seen.iter().find(|(l, _)| *l == lit.text) {
            out.push(Finding {
                file: rel_path.to_owned(),
                line: t.line,
                col: t.col,
                rule: "R1",
                message: format!(
                    "duplicate RNG stream label {:?} in `{}` (first forked on line {first_line}): \
                     both consumers draw the same sequence",
                    lit.text, f.name
                ),
                snippet: snippet(t.line),
                hint: "give every subsystem its own fork label; identical labels yield identical streams",
            });
        } else {
            seen.push((lit.text.as_str(), t.line));
        }
    }
}

/// R2 — sibling branches with different RNG draw multisets.
fn check_draw_divergence(
    toks: &[Token],
    f: &FnDef,
    body: (usize, usize),
    rel_path: &str,
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    for br in parse::find_ifs(toks, body) {
        let then_draws = parse::draw_calls(toks, br.then_block);
        let t = &toks[br.if_idx];
        if let Some(else_part) = br.else_part {
            let else_draws = parse::draw_calls(toks, else_part);
            if then_draws != else_draws && (!then_draws.is_empty() || !else_draws.is_empty()) {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "R2",
                    message: format!(
                        "branch arms of `{}` draw different RNG sequences ({} vs {}): \
                         downstream draws shift depending on the path taken",
                        f.name,
                        fmt_draws(&then_draws),
                        fmt_draws(&else_draws)
                    ),
                    snippet: snippet(t.line),
                    hint: "draw before branching (hoist the draw) or prove the condition is per-run constant in a detlint:allow(R2)",
                });
            }
        } else if parse::contains_return(toks, br.then_block) {
            // Early-return branch: its sibling is the rest of the
            // function. Only the cache-hit shape (`if let`) or a branch
            // that itself draws is a hazard; a bare error guard
            // (`if bad { return Err(..) }`) aborts the run path and
            // never desynchronises a surviving stream.
            let rest = (br.then_block.1 + 1, body.1);
            if rest.0 > rest.1 {
                continue;
            }
            let rest_draws = parse::draw_calls(toks, rest);
            let diverges = then_draws != rest_draws
                && (!then_draws.is_empty() || (br.is_if_let && !rest_draws.is_empty()));
            if diverges {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line: t.line,
                    col: t.col,
                    rule: "R2",
                    message: format!(
                        "early-return branch in `{}` draws {} but the fall-through path draws {}: \
                         a cache hit or early exit changes every later draw",
                        f.name,
                        fmt_draws(&then_draws),
                        fmt_draws(&rest_draws)
                    ),
                    snippet: snippet(t.line),
                    hint: "draw the same RNG calls on every path: hoist draws ahead of the early return, or justify with detlint:allow(R2)",
                });
            }
        }
    }
}

fn fmt_draws(draws: &[String]) -> String {
    if draws.is_empty() {
        "nothing".to_owned()
    } else {
        format!("[{}]", draws.join(", "))
    }
}

/// Identifiers declared with a hash-ordered collection type within the
/// token range (one fn's signature and body): `name: HashMap<…>`
/// (params, fields) and `let name = HashMap::new()` /
/// `HashSet::from(…)` bindings.
fn hash_typed_names(toks: &[Token], range: (usize, usize)) -> Vec<String> {
    let mut names = Vec::new();
    for i in range.0..=range.1.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over path/type noise to the `name :` or `name =`.
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let type_noise = p.is_punct("::")
                || p.is_punct("&")
                || p.is_punct("<")
                || p.is_ident("std")
                || p.is_ident("collections")
                || p.is_ident("mut")
                || p.is_ident("dyn");
            if !type_noise {
                break;
            }
            j -= 1;
        }
        if j >= 2
            && (toks[j - 1].is_punct(":") || toks[j - 1].is_punct("="))
            && toks[j - 2].kind == TokenKind::Ident
        {
            names.push(toks[j - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Iterator adapters that take a closure.
const CLOSURE_ADAPTERS: &[&str] = &[
    "for_each",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "retain",
    "any",
    "all",
    "find",
    "position",
    "inspect",
    "scan",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "partition",
    "take_while",
    "skip_while",
];

/// Methods that begin iteration over a collection.
const ITER_STARTERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "entries",
];

/// R3 — RNG drawn inside a closure iterating a hash-ordered collection.
fn check_closure_draws(
    toks: &[Token],
    f: &FnDef,
    body: (usize, usize),
    rel_path: &str,
    hash_names: &[String],
    snippet: &dyn Fn(u32) -> String,
    out: &mut Vec<Finding>,
) {
    let (lo, hi) = body;
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        // Anchor: `.adapter(` with a closure among its arguments.
        let t = &toks[i];
        if !(t.kind == TokenKind::Ident
            && CLOSURE_ADAPTERS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("(")))
        {
            continue;
        }
        // The receiver chain must be rooted in a hash-typed binding and
        // pass through an iteration starter (or be `retain` directly on
        // the map).
        let chain = receiver_chain(toks, i - 1, lo);
        let rooted_in_hash = chain.iter().any(|c| hash_names.iter().any(|h| h == c));
        let iterates =
            t.text == "retain" || chain.iter().any(|c| ITER_STARTERS.contains(&c.as_str()));
        if !(rooted_in_hash && iterates) {
            continue;
        }
        let Some(close) = parse::matching(toks, i + 1, "(", ")") else {
            continue;
        };
        // Find RNG identifiers inside the closure argument(s).
        for a in toks.iter().take(close).skip(i + 2) {
            if a.kind == TokenKind::Ident && a.text.to_ascii_lowercase().contains("rng") {
                out.push(Finding {
                    file: rel_path.to_owned(),
                    line: a.line,
                    col: a.col,
                    rule: "R3",
                    message: format!(
                        "RNG `{}` drawn while iterating a hash-ordered collection in `{}`: \
                         draw order follows the process-random hasher",
                        a.text, f.name
                    ),
                    snippet: snippet(a.line),
                    hint: "iterate a BTreeMap/BTreeSet, or collect and sort keys before drawing",
                });
                break; // one finding per closure is enough
            }
        }
    }
}

/// Identifiers along the method chain feeding the `.` at `dot`,
/// walked backwards: `self.links.values().map` yields
/// `[values, links, self]` (order irrelevant to the caller).
fn receiver_chain(toks: &[Token], dot: usize, floor: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = dot; // points at the `.` before the adapter
    while j > floor {
        let p = &toks[j - 1];
        if p.is_punct(")") {
            // Skip a call's argument list backwards.
            let Some(open) = matching_back(toks, j - 1, floor) else {
                break;
            };
            j = open;
            continue;
        }
        if p.kind == TokenKind::Ident {
            chain.push(p.text.clone());
            j -= 1;
            // Continue only through `.`/`::` chains.
            if j > floor && (toks[j - 1].is_punct(".") || toks[j - 1].is_punct("::")) {
                j -= 1;
                continue;
            }
            break;
        }
        break;
    }
    chain
}

/// The `(` matching the `)` at `close`, scanning backwards.
fn matching_back(toks: &[Token], close: usize, floor: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if toks[j].is_punct(")") {
            depth += 1;
        } else if toks[j].is_punct("(") {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == floor {
            return None;
        }
        j -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let mut out = Vec::new();
        check_file(path, &lexed, &lines, &mut out);
        out
    }

    fn rules_of(f: &[Finding]) -> Vec<&'static str> {
        f.iter().map(|f| f.rule).collect()
    }

    // — R1 —

    #[test]
    fn r1_flags_duplicate_fork_labels_in_one_fn() {
        let src =
            r#"fn build(root: &SimRng) { let a = root.fork("mac"); let b = root.fork("mac"); }"#;
        let f = check("crates/core/src/scenario.rs", src);
        assert_eq!(rules_of(&f), vec!["R1"]);
        assert!(f[0].message.contains("\"mac\""));
    }

    #[test]
    fn r1_permits_distinct_labels_and_cross_fn_repeats() {
        let src = r#"
fn a(root: &SimRng) { let x = root.fork("mac"); let y = root.fork("channel"); }
fn b(root: &SimRng) { let x = root.fork("mac"); }
"#;
        assert!(check("crates/core/src/scenario.rs", src).is_empty());
    }

    #[test]
    fn r1_ignores_dynamic_labels_and_tests() {
        let src = r#"fn a(root: &SimRng, l: &str) { let x = root.fork(l); let y = root.fork(l); }"#;
        assert!(check("crates/core/src/x.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests { fn t(r: &SimRng) { r.fork(\"x\"); r.fork(\"x\"); } }";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    // — R2 —

    #[test]
    fn r2_flags_if_else_draw_mismatch() {
        let src = "fn shadow(rng: &mut SimRng, sigma: f64) -> f64 { if sigma > 0.0 { rng.normal(0.0, sigma) } else { 0.0 } }";
        let f = check("crates/phy80211p/src/channel.rs", src);
        assert_eq!(rules_of(&f), vec!["R2"]);
        assert!(f[0].message.contains("[normal]"));
    }

    #[test]
    fn r2_flags_cache_hit_early_return_skipping_draws() {
        let src = "fn fer(&mut self, rng: &mut SimRng, key: K) -> f64 { if let Some(v) = self.memo.get(&key) { return *v; } let x = rng.f64(); x }";
        let f = check("crates/phy80211p/src/channel.rs", src);
        assert_eq!(rules_of(&f), vec!["R2"]);
        assert!(f[0].message.contains("early-return"));
    }

    #[test]
    fn r2_flags_draws_inside_early_return_branch() {
        let src = "fn f(rng: &mut SimRng, hot: bool) -> f64 { if hot { return rng.f64(); } 0.5 }";
        let f = check("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["R2"]);
    }

    #[test]
    fn r2_permits_balanced_arms_and_plain_error_guards() {
        // Both arms draw the same multiset.
        let src =
            "fn f(rng: &mut SimRng, c: bool) -> f64 { if c { rng.f64() } else { rng.f64() } }";
        assert!(check("crates/core/src/x.rs", src).is_empty());
        // A plain early error-return with no draws is not a hazard.
        let src = "fn g(rng: &mut SimRng, n: u64) -> Result<f64, E> { if n == 0 { return Err(E); } Ok(rng.f64()) }";
        assert!(check("crates/core/src/x.rs", src).is_empty());
        // Draw-free branching is fine.
        let src = "fn h(c: bool) -> u8 { if c { 1 } else { 2 } }";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }

    // — R3 —

    #[test]
    fn r3_flags_rng_in_closure_over_hash_map() {
        let src = "fn f(rng: &mut SimRng) { let m: HashMap<u32, f64> = make(); m.values().for_each(|v| { sink(v, rng.f64()); }); }";
        let f = check("crates/openc2x/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["R3"]);
    }

    #[test]
    fn r3_flags_retain_with_rng_on_hash_map() {
        let src = "fn f(node_rng: &mut SimRng) { let mut m = HashMap::new(); m.retain(|_, v| node_rng.bernoulli(0.5)); }";
        let f = check("crates/openc2x/src/x.rs", src);
        assert_eq!(rules_of(&f), vec!["R3"]);
    }

    #[test]
    fn r3_permits_btree_iteration_and_rng_free_closures() {
        let src = "fn f(rng: &mut SimRng) { let m: BTreeMap<u32, f64> = make(); m.values().for_each(|v| sink(v, rng.f64())); }";
        assert!(check("crates/core/src/x.rs", src).is_empty());
        let src = "fn g() { let m: HashMap<u32, f64> = make(); let s: f64 = m.values().map(|v| v + 1.0).sum(); }";
        assert!(check("crates/core/src/x.rs", src).is_empty());
    }
}
