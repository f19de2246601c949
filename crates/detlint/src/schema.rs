//! The W1 rule: wire-schema snapshot lint.
//!
//! `crates/core/src/wire.rs` carries the testbed's only cross-process
//! contract: the versioned `RunRecord` frame the shard coordinator
//! reads off worker sockets. The v1→v2 transition established the
//! compatibility rule — *layout changes only ever append fields, and
//! every append bumps `WIRE_VERSION`* — but until now the rule lived in
//! a doc comment and a captured-frame test. W1 makes it machine
//! enforced: the linter extracts the encoder's field order into a
//! [`WireSchema`] and compares it against the committed `wire.schema`
//! snapshot. Reorders, removals and type changes fail the lint;
//! appends pass only together with a version bump. The snapshot is
//! regenerated deliberately with `detlint --update-schema`, so the
//! diff review of `wire.schema` *is* the schema review.
//!
//! Extraction is token-based, matching the codec's fixed idiom: one
//! `put_*` helper call per field with a `self.<field>` argument
//! (`p.put_u64(self.x.to_bits())` is an `f64`, `p.put_u64(self.x)` a
//! `u64`, `p.put_u32(self.trace…)` the trace aggregate). A secondary
//! check walks `decode_from` and requires its `let`-bound field names
//! to mirror the encoder's order, so encoder and decoder cannot drift
//! apart unnoticed.

use crate::lexer::{Token, TokenKind};
use crate::parse;

/// The wire layout as the linter sees it: version pair plus the
/// ordered `(type, field)` list the encoder writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSchema {
    /// Value of the `WIRE_VERSION` const.
    pub version: u64,
    /// Value of the `MIN_WIRE_VERSION` const.
    pub min_version: u64,
    /// Encoded fields in write order, as `(type, name)` pairs.
    pub fields: Vec<(String, String)>,
}

/// Helpers whose name alone determines the field type.
const NAMED_HELPERS: &[(&str, &str)] = &[
    ("put_opt_time", "opt_time"),
    ("put_opt_u64", "opt_u64"),
    ("put_opt_f64", "opt_f64"),
    ("put_bool", "bool"),
    ("put_str", "str"),
    ("put_fault_stats", "fault_stats"),
    ("put_coop_stats", "coop_stats"),
];

/// Extracts the live schema from the wire module's token stream:
/// the two version consts plus the field writes inside `fn encode`.
pub fn extract(toks: &[Token]) -> Result<WireSchema, String> {
    let version = find_const(toks, "WIRE_VERSION")
        .ok_or("no `const WIRE_VERSION: u8 = <int>` found in wire module")?;
    let min_version = find_const(toks, "MIN_WIRE_VERSION")
        .ok_or("no `const MIN_WIRE_VERSION: u8 = <int>` found in wire module")?;
    let encode = parse::parse_fns(toks)
        .into_iter()
        .find(|f| !f.in_test && f.name == "encode" && f.body.is_some())
        .ok_or("no `fn encode` with a body found in wire module")?;
    let (lo, hi) = encode.body.unwrap_or((0, 0));

    let mut fields = Vec::new();
    let mut i = lo;
    while i <= hi.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        let is_call =
            t.kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_call {
            i += 1;
            continue;
        }
        let Some(close) = parse::matching(toks, i + 1, "(", ")") else {
            i += 1;
            continue;
        };
        let named = NAMED_HELPERS.iter().find(|(h, _)| t.text == *h);
        let raw_put = matches!(t.text.as_str(), "put_u64" | "put_u32" | "put_u8")
            && i > 0
            && toks[i - 1].is_punct(".");
        if named.is_none() && !raw_put {
            i += 1; // descend: the argument list may hold the real call
            continue;
        }
        let Some((field, fidx)) = first_self_field(toks, i + 2, close) else {
            i = close + 1; // version byte, loop-local writes — not a field
            continue;
        };
        let ty = if let Some((_, ty)) = named {
            (*ty).to_owned()
        } else if field == "trace" {
            "trace".to_owned()
        } else if t.text == "put_u64" {
            let to_bits = toks.get(fidx + 1).is_some_and(|a| a.is_punct("."))
                && toks.get(fidx + 2).is_some_and(|b| b.is_ident("to_bits"));
            if to_bits {
                "f64".to_owned()
            } else {
                "u64".to_owned()
            }
        } else {
            t.text.trim_start_matches("put_").to_owned()
        };
        fields.push((ty, field));
        i = close + 1;
    }
    if fields.is_empty() {
        return Err("`fn encode` writes no `self.<field>` values".to_owned());
    }
    Ok(WireSchema {
        version,
        min_version,
        fields,
    })
}

/// The integer bound to `const NAME: … = <int>;`, if present.
fn find_const(toks: &[Token], name: &str) -> Option<u64> {
    for i in 0..toks.len() {
        if !(toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|n| n.is_ident(name))) {
            continue;
        }
        for t in toks.iter().skip(i + 2).take(6) {
            if t.kind == TokenKind::Int {
                return t.text.replace('_', "").parse().ok();
            }
        }
    }
    None
}

/// First `self.<ident>` inside `toks[lo..hi]`, with the field's index.
fn first_self_field(toks: &[Token], lo: usize, hi: usize) -> Option<(String, usize)> {
    for i in lo..hi.min(toks.len()) {
        if toks[i].is_ident("self")
            && toks.get(i + 1).is_some_and(|d| d.is_punct("."))
            && toks.get(i + 2).is_some_and(|f| f.kind == TokenKind::Ident)
        {
            return Some((toks[i + 2].text.clone(), i + 2));
        }
    }
    None
}

/// Renders a schema as the committed `wire.schema` text.
pub fn render(s: &WireSchema) -> String {
    let mut out = String::new();
    out.push_str("# detlint W1 wire-schema snapshot — regenerate with `detlint --update-schema`\n");
    out.push_str("# Layout contract: reorder/removal/type change fails the lint;\n");
    out.push_str("# appends pass only together with a WIRE_VERSION bump.\n");
    out.push_str(&format!("version {}\n", s.version));
    out.push_str(&format!("min_version {}\n", s.min_version));
    for (ty, name) in &s.fields {
        out.push_str(&format!("{ty} {name}\n"));
    }
    out
}

/// Parses a committed snapshot. Unknown lines are errors, so the
/// snapshot cannot silently rot.
pub fn parse_snapshot(text: &str) -> Result<WireSchema, String> {
    let mut version = None;
    let mut min_version = None;
    let mut fields = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, val)) = line.split_once(' ') else {
            return Err(format!(
                "wire.schema line {}: expected `<key> <value>`",
                n + 1
            ));
        };
        let val = val.trim();
        match key {
            "version" => {
                version = Some(
                    val.parse()
                        .map_err(|_| format!("wire.schema line {}: bad version {val:?}", n + 1))?,
                );
            }
            "min_version" => {
                min_version =
                    Some(val.parse().map_err(|_| {
                        format!("wire.schema line {}: bad min_version {val:?}", n + 1)
                    })?);
            }
            ty => {
                if val.is_empty() || val.contains(' ') {
                    return Err(format!(
                        "wire.schema line {}: bad field name {val:?}",
                        n + 1
                    ));
                }
                fields.push((ty.to_owned(), val.to_owned()));
            }
        }
    }
    Ok(WireSchema {
        version: version.ok_or("wire.schema: missing `version` line")?,
        min_version: min_version.ok_or("wire.schema: missing `min_version` line")?,
        fields,
    })
}

/// Compares the committed snapshot against the live encoder. `None`
/// means the contract holds; `Some(why)` is the finding message.
pub fn compare(snapshot: &WireSchema, live: &WireSchema) -> Option<String> {
    if snapshot.fields == live.fields {
        if live.version != snapshot.version {
            return Some(format!(
                "WIRE_VERSION changed {} → {} with an unchanged field layout; \
                 bump the version only when appending fields (then run --update-schema)",
                snapshot.version, live.version
            ));
        }
        if live.min_version != snapshot.min_version {
            return Some(format!(
                "MIN_WIRE_VERSION changed {} → {}: dropping support for shipped \
                 frame versions is a breaking change (run --update-schema if deliberate)",
                snapshot.min_version, live.min_version
            ));
        }
        return None;
    }
    if live.fields.len() > snapshot.fields.len()
        && live.fields[..snapshot.fields.len()] == snapshot.fields[..]
    {
        // Pure append — legal iff the version was bumped.
        if live.version <= snapshot.version {
            let added: Vec<&str> = live.fields[snapshot.fields.len()..]
                .iter()
                .map(|(_, n)| n.as_str())
                .collect();
            return Some(format!(
                "field(s) [{}] appended without bumping WIRE_VERSION (still {}): \
                 old decoders would misread the longer frame",
                added.join(", "),
                live.version
            ));
        }
        if live.min_version != snapshot.min_version {
            return Some(format!(
                "append also changed MIN_WIRE_VERSION {} → {}: appends must keep \
                 accepting every shipped version",
                snapshot.min_version, live.min_version
            ));
        }
        return None;
    }
    // Anything else breaks decode of shipped frames. Name the first
    // divergence so the message points at the culprit.
    for (i, snap) in snapshot.fields.iter().enumerate() {
        match live.fields.get(i) {
            None => {
                return Some(format!(
                    "field `{}` ({}) removed from the encoder at position {}: \
                     the wire format is append-only",
                    snap.1,
                    snap.0,
                    i + 1
                ));
            }
            Some(l) if l != snap => {
                return Some(format!(
                    "encoder position {} changed from `{} {}` to `{} {}`: \
                     reorders and type changes break every shipped frame",
                    i + 1,
                    snap.0,
                    snap.1,
                    l.0,
                    l.1
                ));
            }
            Some(_) => {}
        }
    }
    // Snapshot is a prefix of live but the append branch above did not
    // accept it (unreachable in practice; keep a defensive message).
    Some("encoder layout diverged from wire.schema".to_owned())
}

/// Checks that `decode_from` reads the schema's fields in encoder
/// order: its `let`-bound names, filtered to schema field names, must
/// equal the schema's name sequence. `None` means consistent.
pub fn decode_consistency(toks: &[Token], live: &WireSchema) -> Option<String> {
    let decode = parse::parse_fns(toks)
        .into_iter()
        .find(|f| !f.in_test && f.name == "decode_from" && f.body.is_some())?;
    let (lo, hi) = decode.body.unwrap_or((0, 0));
    let mut seen: Vec<&str> = Vec::new();
    let mut i = lo;
    while i < hi.min(toks.len().saturating_sub(1)) {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) {
                if live.fields.iter().any(|(_, f)| *f == name.text)
                    && !seen.contains(&name.text.as_str())
                {
                    seen.push(name.text.as_str());
                }
            }
        }
        i += 1;
    }
    let expected: Vec<&str> = live.fields.iter().map(|(_, f)| f.as_str()).collect();
    if seen != expected {
        return Some(format!(
            "decode_from reads fields as [{}] but the encoder writes [{}]: \
             encoder and decoder must agree on order",
            seen.join(", "),
            expected.join(", ")
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// A miniature codec in the real wire.rs idiom.
    const MINI: &str = r#"
pub const WIRE_VERSION: u8 = 2;
pub const MIN_WIRE_VERSION: u8 = 1;
impl RunRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.put_u8(WIRE_VERSION);
        put_opt_time(&mut p, self.step2_detection);
        put_opt_f64(&mut p, self.odometer_at_halt_m);
        p.put_u64(self.speed_at_detection_mps.to_bits());
        put_bool(&mut p, self.denm_delivered);
        p.put_u64(self.cams_received);
        p.put_u32(self.trace.events().len() as u32);
        for e in self.trace.events() {
            p.put_u64(e.time.as_nanos());
            put_str(&mut p, &e.node);
        }
        put_fault_stats(&mut p, &self.fault);
        put_coop_stats(&mut p, &self.coop);
        p
    }
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let version = p.u8()?;
        let step2_detection = get_opt_time(&mut p)?;
        let odometer_at_halt_m = get_opt_f64(&mut p)?;
        let speed_at_detection_mps = f64::from_bits(p.u64()?);
        let denm_delivered = get_bool(&mut p)?;
        let cams_received = p.u64()?;
        let n_events = p.u32()? as usize;
        let mut trace = Trace::new();
        for _ in 0..n_events {
            let time = SimTime::from_nanos(p.u64()?);
            let node = get_str(&mut p)?;
        }
        let fault = if version >= 2 { get_fault_stats(&mut p)? } else { FaultStats::default() };
        let coop = if version >= 3 { get_coop_stats(&mut p)? } else { CoopStats::default() };
        Ok(RunRecord { step2_detection })
    }
}
"#;

    fn mini_schema() -> WireSchema {
        extract(&lex(MINI).tokens).expect("mini codec extracts")
    }

    #[test]
    fn extracts_versions_and_typed_field_order() {
        let s = mini_schema();
        assert_eq!(s.version, 2);
        assert_eq!(s.min_version, 1);
        let want = [
            ("opt_time", "step2_detection"),
            ("opt_f64", "odometer_at_halt_m"),
            ("f64", "speed_at_detection_mps"),
            ("bool", "denm_delivered"),
            ("u64", "cams_received"),
            ("trace", "trace"),
            ("fault_stats", "fault"),
            ("coop_stats", "coop"),
        ];
        let got: Vec<(&str, &str)> = s
            .fields
            .iter()
            .map(|(t, n)| (t.as_str(), n.as_str()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn render_parse_roundtrips() {
        let s = mini_schema();
        assert_eq!(parse_snapshot(&render(&s)).unwrap(), s);
    }

    #[test]
    fn identical_schemas_are_clean() {
        let s = mini_schema();
        assert_eq!(compare(&s, &s), None);
        assert_eq!(decode_consistency(&lex(MINI).tokens, &s), None);
    }

    #[test]
    fn append_with_bump_passes_without_bump_fails() {
        let snap = mini_schema();
        let mut live = snap.clone();
        live.fields.push(("u64".into(), "retries".into()));
        let msg = compare(&snap, &live).expect("append without bump must fail");
        assert!(msg.contains("retries"), "{msg}");
        live.version = 3;
        assert_eq!(compare(&snap, &live), None);
    }

    #[test]
    fn reorder_removal_and_type_change_fail() {
        let snap = mini_schema();

        let mut reordered = snap.clone();
        reordered.fields.swap(0, 1);
        reordered.version = 3; // a bump does not launder a reorder
        let msg = compare(&snap, &reordered).expect("reorder must fail");
        assert!(msg.contains("position 1"), "{msg}");

        let mut removed = snap.clone();
        removed.fields.pop();
        let msg = compare(&snap, &removed).expect("removal must fail");
        assert!(msg.contains("removed"), "{msg}");

        let mut retyped = snap.clone();
        retyped.fields[3] = ("u64".into(), "denm_delivered".into());
        let msg = compare(&snap, &retyped).expect("type change must fail");
        assert!(msg.contains("`bool denm_delivered`"), "{msg}");
    }

    #[test]
    fn version_bump_without_layout_change_fails() {
        let snap = mini_schema();
        let mut live = snap.clone();
        live.version = 3;
        assert!(compare(&snap, &live).is_some());
        let mut live = snap.clone();
        live.min_version = 2;
        assert!(compare(&snap, &live).unwrap().contains("MIN_WIRE_VERSION"));
    }

    #[test]
    fn decoder_reorder_is_caught() {
        let swapped = MINI.replace(
            "let step2_detection = get_opt_time(&mut p)?;\n        let odometer_at_halt_m = get_opt_f64(&mut p)?;",
            "let odometer_at_halt_m = get_opt_f64(&mut p)?;\n        let step2_detection = get_opt_time(&mut p)?;",
        );
        assert_ne!(swapped, MINI);
        let s = mini_schema();
        let msg = decode_consistency(&lex(&swapped).tokens, &s)
            .expect("decoder order drift must be caught");
        assert!(msg.contains("decode_from"), "{msg}");
    }

    #[test]
    fn snapshot_parse_rejects_garbage() {
        assert!(parse_snapshot("version 2\n").is_err()); // missing min_version
        assert!(parse_snapshot("version x\nmin_version 1\n").is_err());
        assert!(parse_snapshot("version 2\nmin_version 1\nopt_u64 two words\n").is_err());
    }

    #[test]
    fn extract_errors_on_missing_pieces() {
        assert!(extract(&lex("fn encode(&self) { }").tokens)
            .unwrap_err()
            .contains("WIRE_VERSION"));
        let no_encode = "const WIRE_VERSION: u8 = 2; const MIN_WIRE_VERSION: u8 = 1;";
        assert!(extract(&lex(no_encode).tokens)
            .unwrap_err()
            .contains("fn encode"));
    }
}
