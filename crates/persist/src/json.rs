//! A minimal JSON value, parser and escaper — just enough for the
//! newline-delimited line protocol and the on-disk journal/snapshot
//! records, with no dependency outside `std`.
//!
//! The parser is a plain recursive-descent scanner over bytes. It accepts
//! the full JSON grammar the protocol uses (objects, arrays, strings with
//! escapes, numbers, booleans, null) and reports errors with a byte
//! offset. Recursion is bounded by [`MAX_DEPTH`]: input arrives from the
//! network and from disk, and a line of a million `[` must cost an error,
//! not the process's stack. Serialization lives with the callers (the
//! shape writers in [`crate::record`] and the server's protocol
//! envelopes); beyond [`Escaped`], [`write_array`] and [`render`] this
//! module only *reads*.

use std::fmt::{self, Write};

/// Deepest array/object nesting [`Json::parse`] accepts. The line protocol
/// and the journal/snapshot records nest fewer than ten levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A nonnegative integer token (plain digits, no fraction, exponent or
    /// sign) that fits in `u64`, kept exact. Routing these through `f64`
    /// would silently round counters above 2^53 — the journal's cumulative
    /// cost and work meters can legitimately grow that large.
    Int(u64),
    /// Any other JSON number (carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// A message with a byte offset for malformed input, and for arrays or
    /// objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` off objects too).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number. Integer tokens above
    /// 2^53 are rounded to the nearest representable `f64` — exact access
    /// goes through [`Json::as_u64`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a nonnegative integer. Integer tokens are exact over
    /// the full `u64` range; a value that only exists as an `f64`
    /// approximation (fractional, negative, exponent form, or at/above
    /// 2^53 where `f64` can no longer represent every integer) is refused
    /// rather than rounded.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `items` to `out` as a JSON array, `each` writing one element
/// in place: no element is rendered to a `String` of its own.
pub fn write_array<T>(
    out: &mut String,
    items: &[T],
    mut each: impl FnMut(&mut String, &T) -> fmt::Result,
) -> fmt::Result {
    out.write_char('[')?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        each(out, item)?;
    }
    out.write_char(']')
}

/// Runs one `write_*` writer into a fresh `String`: the body of every
/// writer's `String`-returning form. The buffer starts at the size of a
/// typical protocol line, so rendering one costs one allocation.
#[must_use]
pub fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::with_capacity(256);
    write(&mut out).expect("writing to a String cannot fail");
    out
}

/// `Display`s a string escaped for a JSON string literal (no quotes), so a
/// writer escapes in place: `write!(out, "\"{}\"", Escaped(name))`.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Every byte that needs escaping is ASCII, so it never sits inside
        // a multi-byte character, and the runs between them go out whole.
        let s = self.0;
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            f.write_str(&s[run..i])?;
            match escape {
                Some(e) => f.write_str(e)?,
                None => write!(f, "\\u{b:04x}")?,
            }
            run = i + 1;
        }
        f.write_str(&s[run..])
    }
}

/// Escapes `s` for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    Escaped(s).to_string()
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, pos))
    }
}

/// `depth` is the number of arrays/objects already open around this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Plain digit strings lex as exact integers (a digit string beyond
    // u64::MAX falls through to the f64 path).
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed by the protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash in
                // one go. Both are ASCII and never occur inside a multi-byte
                // sequence, so the run ends on a scalar boundary, and it is
                // validated once — not the rest of the input per character.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(bytes.len() - *pos);
                let text =
                    std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?;
                out.push_str(text);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        if !fields.iter().any(|(k, _)| *k == key) {
            fields.push((key, value));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_documents() {
        let doc = r#"{"type":"SUBSCRIBE","query":{"kind":"sum","epsilon":0.5,"weights":[1,2.5,-0e1]},"priority":2}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("SUBSCRIBE"));
        assert_eq!(v.get("priority").unwrap().as_u64(), Some(2));
        let q = v.get("query").unwrap();
        assert_eq!(q.get("epsilon").unwrap().as_f64(), Some(0.5));
        let w = q.get("weights").unwrap().as_array().unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w[1].as_f64(), Some(2.5));
        assert_eq!(w[2].as_f64(), Some(-0.0));
    }

    #[test]
    fn parses_strings_with_escapes() {
        let v = Json::parse(r#"{"msg":"a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(v.get("msg").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("01abc").is_err());
    }

    #[test]
    fn nesting_is_bounded_and_hostile_depth_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Mixed containers count together.
        let mixed = format!("{}0{}", "{\"a\":[".repeat(40), "]}".repeat(40));
        assert!(Json::parse(&mixed).unwrap_err().contains("nesting deeper"));
        // The request line that used to abort va-server: 900 KB of '['.
        let err = Json::parse(&"[".repeat(900 * 1024)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(Json::parse(&"{\"k\":".repeat(300_000)).is_err());
    }

    /// Unescapes a string literal body one scalar at a time — the scan the
    /// run-copying `parse_string` replaced, as the reference it must match.
    fn unescape_per_scalar(literal: &str) -> String {
        let mut out = String::new();
        let mut chars = literal.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().expect("dangling backslash") {
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("hex escape");
                    out.push(char::from_u32(code).expect("scalar"));
                }
                other => out.push(other), // \" \\ \/
            }
        }
        out
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // Literal bodies as they appear on the wire: long plain runs,
        // multi-byte UTF-8, and every escape form.
        let pieces = [
            "plain ascii run of some length, no escapes at all",
            r#"café \"quoted\" \\ back\/slash \n\t\r\b\f"#,
            "日本語のテキスト — ünïcödé ✓ 🚀",
            r"\u0041\u00e9\u65e5 mixed \u0001 tail",
        ];
        // {"<piece 0>":["..",".."],"<piece 1>":[..],..}: a few keys (keys
        // dedup by linear scan) over > 2 MB of string values.
        let mut doc = String::from("{");
        let mut expected: Vec<Vec<String>> = Vec::new();
        for (k, key) in pieces.iter().enumerate() {
            if k > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"{key}\":["));
            let mut values = Vec::new();
            let mut i = 0usize;
            while values.is_empty() || doc.len() < (k + 1) * 600 * 1024 {
                let literal = pieces[(i + k) % pieces.len()].repeat(1 + i % 7);
                if i > 0 {
                    doc.push(',');
                }
                doc.push_str(&format!("\"{literal}\""));
                values.push(unescape_per_scalar(&literal));
                i += 1;
            }
            doc.push(']');
            expected.push(values);
        }
        doc.push('}');
        assert!(doc.len() >= 2 * 1024 * 1024, "{} bytes", doc.len());

        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let Json::Obj(fields) = parsed else {
            panic!("not an object");
        };
        assert_eq!(fields.len(), pieces.len());
        for ((key, values), (piece, want)) in fields.iter().zip(pieces.iter().zip(&expected)) {
            assert_eq!(*key, unescape_per_scalar(piece));
            let got: Vec<&str> = values
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap())
                .collect();
            assert_eq!(got, want.iter().map(String::as_str).collect::<Vec<_>>());
        }
        // Revalidating the rest of the input per character is ~10^12 byte
        // visits for this document — minutes at best. One pass is
        // milliseconds, even unoptimised on a loaded box.
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing {} bytes took {elapsed:?}",
            doc.len()
        );
    }

    #[test]
    fn accessors_are_shape_checked() {
        let v = Json::parse(r#"{"n":1.5,"b":true,"s":"x","a":[null]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), None, "fractional");
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn integer_tokens_keep_exact_u64_precision() {
        let doc = format!(
            "{{\"max\":{},\"past53\":{},\"small\":7}}",
            u64::MAX,
            (1u64 << 53) + 1
        );
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("max").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("past53").unwrap().as_u64(), Some((1 << 53) + 1));
        assert_eq!(v.get("small").unwrap().as_u64(), Some(7));
        // Values that only exist as f64 approximations are refused by
        // as_u64, not rounded.
        assert_eq!(Json::parse("9007199254740993e0").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
        // Small exponent-form integers are still exact through f64.
        assert_eq!(Json::parse("1e10").unwrap().as_u64(), Some(10_000_000_000));
        // A digit string beyond u64::MAX degrades to f64, never to a
        // wrapped or saturated integer.
        let over = Json::parse("18446744073709551616").unwrap(); // 2^64
        assert_eq!(over.as_u64(), None);
        assert_eq!(over.as_f64(), Some(18_446_744_073_709_551_616.0));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} café ✓\u{1f}";
        let doc = format!("{{\"v\":\"{}\"}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("v").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn f64_display_round_trips_exactly() {
        // The record codecs rely on Rust's shortest-round-trip f64 Display:
        // format -> parse must reproduce the exact bits.
        for x in [
            0.0583,
            123.318_127_050_003_1,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            -0.0,
            1e308,
        ] {
            let text = format!("{x}");
            let back: f64 = text.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }
}
