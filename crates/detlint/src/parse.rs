//! Item/function structure recovered from the token stream.
//!
//! The flow-aware rule families (R, S3) need more than a flat token
//! list: which function a token belongs to, where an `if`'s branches
//! start and end, which closures sit inside which iterator call. This
//! module recovers exactly that much structure — functions with body
//! ranges, matched delimiters, branch extents — while staying a
//! zero-dependency pass over [`crate::lexer`] tokens. It is not a Rust
//! parser; it is the smallest structural layer the rules need, and it
//! must never panic on arbitrary byte soup (a proptest pins this).

use crate::lexer::{Token, TokenKind};

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Token index of the name identifier.
    pub name_idx: usize,
    /// Token range of the body, inclusive of both braces, when the
    /// function has one (trait method declarations do not).
    pub body: Option<(usize, usize)>,
    /// Whether the definition sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Token index of the delimiter matching the opener at `open`, or
/// `None` when the stream ends unbalanced. `open_t`/`close_t` are the
/// punctuation texts (e.g. `"{"`/`"}"`).
pub fn matching(toks: &[Token], open: usize, open_t: &str, close_t: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(open_t) {
            depth += 1;
        } else if toks[i].is_punct(close_t) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Token index ranges (inclusive) covered by `#[cfg(test)]` items.
pub fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Find the closing `]` of this attribute.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut saw_cfg_test = false;
            let mut saw_cfg = false;
            while j < toks.len() {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_ident("cfg") {
                    saw_cfg = true;
                } else if saw_cfg && toks[j].is_ident("test") {
                    saw_cfg_test = true;
                }
                j += 1;
            }
            if saw_cfg_test && j < toks.len() {
                if let Some((lo, hi)) = item_after_attributes(toks, j + 1) {
                    regions.push((lo, hi));
                    i = hi + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// The token range of the item starting at `start`, skipping further
/// attributes: to the matching `}` if a brace opens first, else to `;`.
fn item_after_attributes(toks: &[Token], mut start: usize) -> Option<(usize, usize)> {
    // Skip subsequent attributes (`#[...]`).
    while toks.get(start)?.is_punct("#") && toks.get(start + 1)?.is_punct("[") {
        let mut depth = 0usize;
        let mut j = start + 1;
        while j < toks.len() {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        start = j + 1;
    }
    let lo = start;
    let mut k = start;
    while k < toks.len() {
        if toks[k].is_punct(";") {
            return Some((lo, k));
        }
        if toks[k].is_punct("{") {
            let hi = matching(toks, k, "{", "}").unwrap_or(toks.len().saturating_sub(1));
            return Some((lo, hi));
        }
        k += 1;
    }
    Some((lo, toks.len().saturating_sub(1)))
}

/// Recovers every `fn` definition in the token stream, at any nesting
/// depth (free functions, inherent and trait impls, functions inside
/// functions). Closures are not functions and are not returned.
pub fn parse_fns(toks: &[Token]) -> Vec<FnDef> {
    let regions = test_regions(toks);
    let in_test = |idx: usize| regions.iter().any(|&(lo, hi)| idx >= lo && idx <= hi);
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `fn` must be the keyword (lowercase ident), followed by the
        // name; `fn(u8)` pointer types and `Fn(...)` bounds don't match.
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            let name_idx = i + 1;
            let name = toks[name_idx].text.clone();
            // Scan past generics / params / return type to the body `{`
            // or a terminating `;` (trait method declaration). Braces
            // inside parens or brackets (closures in default exprs,
            // const-generic blocks) do not start the body.
            let mut j = name_idx + 1;
            let mut paren = 0i64;
            let mut bracket = 0i64;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("(") {
                    paren += 1;
                } else if t.is_punct(")") {
                    paren -= 1;
                } else if t.is_punct("[") {
                    bracket += 1;
                } else if t.is_punct("]") {
                    bracket -= 1;
                } else if paren <= 0 && bracket <= 0 {
                    if t.is_punct(";") {
                        break;
                    }
                    if t.is_punct("{") {
                        let close =
                            matching(toks, j, "{", "}").unwrap_or(toks.len().saturating_sub(1));
                        body = Some((j, close));
                        break;
                    }
                }
                j += 1;
            }
            fns.push(FnDef {
                name,
                name_idx,
                body,
                in_test: in_test(name_idx),
            });
            // Continue scanning *inside* the body too (nested fns), so
            // only step past the signature.
            i = name_idx + 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// An `if` (or `if let`) with its branch extents, found inside a
/// function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfBranches {
    /// Token index of the `if` keyword.
    pub if_idx: usize,
    /// Whether this is an `if let` (the cache-hit lookup shape).
    pub is_if_let: bool,
    /// Then-block token range, inclusive of braces.
    pub then_block: (usize, usize),
    /// Else-part token range (a block, or a nested `if` chain),
    /// inclusive, when present.
    pub else_part: Option<(usize, usize)>,
}

/// Finds every `if` whose then-block opens inside `range` (an inclusive
/// token range, normally a function body).
pub fn find_ifs(toks: &[Token], range: (usize, usize)) -> Vec<IfBranches> {
    let (lo, hi) = range;
    let mut out = Vec::new();
    let mut i = lo;
    while i <= hi.min(toks.len().saturating_sub(1)) {
        if toks[i].is_ident("if") {
            let is_if_let = toks.get(i + 1).is_some_and(|t| t.is_ident("let"));
            // The then-block is the first `{` at paren depth 0 after the
            // condition (struct literals are illegal in if conditions).
            let mut j = i + 1;
            let mut paren = 0i64;
            let mut open = None;
            while j <= hi {
                let t = &toks[j];
                if t.is_punct("(") || t.is_punct("[") {
                    paren += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    paren -= 1;
                } else if paren <= 0 && t.is_punct("{") {
                    open = Some(j);
                    break;
                } else if paren <= 0 && t.is_punct(";") {
                    break; // malformed / `if` inside a macro fragment
                }
                j += 1;
            }
            let Some(open) = open else {
                i += 1;
                continue;
            };
            let Some(close) = matching(toks, open, "{", "}") else {
                i += 1;
                continue;
            };
            let mut else_part = None;
            if toks.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                let e = close + 2;
                if toks.get(e).is_some_and(|t| t.is_punct("{")) {
                    if let Some(ec) = matching(toks, e, "{", "}") {
                        else_part = Some((e, ec));
                    }
                } else if toks.get(e).is_some_and(|t| t.is_ident("if")) {
                    // `else if …`: the else-part extends to the end of
                    // the entire chain.
                    if let Some(end) = if_chain_end(toks, e, hi) {
                        else_part = Some((e, end));
                    }
                }
            }
            out.push(IfBranches {
                if_idx: i,
                is_if_let,
                then_block: (open, close),
                else_part,
            });
            // Nested ifs inside the branches are found too: keep
            // scanning from just inside the then-block.
            i = open + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// The inclusive end of the `if`/`else if`/`else` chain starting at the
/// `if` token `start`.
fn if_chain_end(toks: &[Token], start: usize, hi: usize) -> Option<usize> {
    let mut j = start + 1;
    let mut paren = 0i64;
    while j <= hi {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") {
            paren += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            paren -= 1;
        } else if paren <= 0 && t.is_punct("{") {
            let close = matching(toks, j, "{", "}")?;
            return if toks.get(close + 1).is_some_and(|t| t.is_ident("else")) {
                if toks.get(close + 2).is_some_and(|t| t.is_punct("{")) {
                    matching(toks, close + 2, "{", "}")
                } else if toks.get(close + 2).is_some_and(|t| t.is_ident("if")) {
                    if_chain_end(toks, close + 2, hi)
                } else {
                    Some(close)
                }
            } else {
                Some(close)
            };
        }
        j += 1;
    }
    None
}

/// Rust keywords that look like call names when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "use", "pub", "impl", "trait", "struct", "enum", "mod",
    "where", "unsafe", "dyn", "self", "Self", "super", "crate", "true", "false", "async", "await",
    "static", "const", "type",
];

/// Call sites inside an inclusive token range: `(name, token index)`
/// for both free calls `name(...)` and method calls `.name(...)`.
/// Macro invocations (`name!(...)`) are excluded; struct construction
/// and tuple-variant construction are indistinguishable from calls and
/// included (a harmless over-approximation for reachability).
pub fn call_sites(toks: &[Token], range: (usize, usize)) -> Vec<(String, usize)> {
    let (lo, hi) = range;
    let mut out = Vec::new();
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `name (` or `name ::< … > (` — the common turbofish shape.
        let next = match toks.get(i + 1) {
            Some(n) => n,
            None => continue,
        };
        if next.is_punct("(") {
            out.push((t.text.clone(), i));
        } else if next.is_punct("::") && toks.get(i + 2).is_some_and(|t| t.is_punct("<")) {
            if let Some(gt) = close_angle(toks, i + 2, hi) {
                if toks.get(gt + 1).is_some_and(|t| t.is_punct("(")) {
                    out.push((t.text.clone(), i));
                }
            }
        }
    }
    out
}

/// The index of the `>` closing the `<` at `open`, scanning shallowly.
fn close_angle(toks: &[Token], open: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    let last = hi.min(toks.len().saturating_sub(1));
    for (j, t) in toks.iter().enumerate().take(last + 1).skip(open) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// SimRng methods that consume randomness; calling one advances the
/// stream, so branch-dependent call counts are draw-order hazards.
pub const DRAW_METHODS: &[&str] = &[
    "next_u64",
    "next_u32",
    "fill_bytes",
    "f64",
    "uniform",
    "below",
    "bernoulli",
    "standard_normal",
    "normal",
    "exponential",
];

/// The multiset of RNG draw calls (sorted method names) inside an
/// inclusive token range. Only method-call syntax counts (`.normal(`):
/// every draw in the tree goes through a `&mut SimRng` receiver.
pub fn draw_calls(toks: &[Token], range: (usize, usize)) -> Vec<String> {
    let (lo, hi) = range;
    let mut out: Vec<String> = Vec::new();
    for i in lo..=hi.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && DRAW_METHODS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(t.text.clone());
        }
    }
    out.sort();
    out
}

/// Whether the inclusive range contains a `return` token at any depth.
pub fn contains_return(toks: &[Token], range: (usize, usize)) -> bool {
    let (lo, hi) = range;
    toks[lo..=hi.min(toks.len().saturating_sub(1))]
        .iter()
        .any(|t| t.is_ident("return"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns_of(src: &str) -> Vec<FnDef> {
        parse_fns(&lex(src).tokens)
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let src =
            "fn a() { b(); }\nimpl X { pub fn c(&self) -> u8 { 1 } }\ntrait T { fn d(&self); }";
        let fns = fns_of(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "d"]);
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_some());
        assert!(fns[2].body.is_none(), "trait declaration has no body");
    }

    #[test]
    fn nested_fns_and_test_marking() {
        let src = "fn outer() { fn inner() {} }\n#[cfg(test)]\nmod tests { fn helper() {} }";
        let fns = fns_of(src);
        let names: Vec<(&str, bool)> = fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(
            names,
            vec![("outer", false), ("inner", false), ("helper", true)]
        );
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let fns = fns_of("fn real(cb: fn(u8) -> u8, f: impl Fn(u8)) { cb(1); }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn where_clause_and_generics_do_not_confuse_body() {
        let src = "fn g<T: Ord>(x: T) -> Vec<T> where T: Clone { vec![x] }";
        let fns = fns_of(src);
        assert_eq!(fns.len(), 1);
        let toks = lex(src).tokens;
        let (open, close) = fns[0].body.unwrap();
        assert!(toks[open].is_punct("{"));
        assert!(toks[close].is_punct("}"));
        assert_eq!(close, toks.len() - 1);
    }

    #[test]
    fn call_sites_include_methods_and_turbofish() {
        let src = "fn f() { helper(); self.method(1); parse::<u8>(x); mac!(no); }";
        let toks = lex(src).tokens;
        let body = parse_fns(&toks)[0].body.unwrap();
        let names: Vec<String> = call_sites(&toks, body).into_iter().map(|c| c.0).collect();
        assert!(names.contains(&"helper".into()));
        assert!(names.contains(&"method".into()));
        assert!(names.contains(&"parse".into()));
        assert!(!names.contains(&"mac".into()), "macros are not calls");
    }

    #[test]
    fn if_else_branches_are_recovered() {
        let src = "fn f(c: bool) { if c { a(); } else { b(); } tail(); }";
        let toks = lex(src).tokens;
        let body = parse_fns(&toks)[0].body.unwrap();
        let ifs = find_ifs(&toks, body);
        assert_eq!(ifs.len(), 1);
        assert!(!ifs[0].is_if_let);
        assert!(ifs[0].else_part.is_some());
    }

    #[test]
    fn else_if_chain_extends_else_part() {
        let src = "fn f(x: u8) { if x == 0 { a(); } else if x == 1 { b(); } else { c(); } }";
        let toks = lex(src).tokens;
        let body = parse_fns(&toks)[0].body.unwrap();
        let ifs = find_ifs(&toks, body);
        // Outer if plus the else-if (found as its own if).
        assert_eq!(ifs.len(), 2);
        let (_, end) = ifs[0].else_part.unwrap();
        // The chain's else-part ends at the final `}` of the last block.
        assert!(toks[end].is_punct("}"));
        assert_eq!(end, body.1 - 1);
    }

    #[test]
    fn if_let_is_flagged() {
        let src = "fn f(m: &M) { if let Some(v) = m.get(k) { return v; } }";
        let toks = lex(src).tokens;
        let body = parse_fns(&toks)[0].body.unwrap();
        let ifs = find_ifs(&toks, body);
        assert!(ifs[0].is_if_let);
        assert!(contains_return(&toks, ifs[0].then_block));
    }

    #[test]
    fn draw_calls_are_counted_as_multisets() {
        let src = "fn f(rng: &mut SimRng) { let a = rng.normal(0.0, 1.0); let b = rng.f64(); }";
        let toks = lex(src).tokens;
        let body = parse_fns(&toks)[0].body.unwrap();
        assert_eq!(draw_calls(&toks, body), vec!["f64", "normal"]);
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        for src in ["fn f() {", "fn f(", "if {", "}}}", "fn f() { if x { }"] {
            let toks = lex(src).tokens;
            let fns = parse_fns(&toks);
            for f in &fns {
                if let Some(body) = f.body {
                    let _ = find_ifs(&toks, body);
                    let _ = call_sites(&toks, body);
                    let _ = draw_calls(&toks, body);
                }
            }
        }
    }
}
