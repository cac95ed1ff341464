//! A zero-dependency JSON value, parser, and renderer.
//!
//! The workspace is offline (no serde), so the daemon's wire types
//! round-trip through this module instead. Two properties matter for
//! the API and are pinned by the tests here:
//!
//! * **Objects preserve member order and keep duplicates visible.**
//!   [`Json::Obj`] is a `Vec<(String, Json)>`, not a map, so the
//!   API layer can reject unknown fields (HTTP 400) instead of
//!   silently dropping a typo like `"sead"`.
//! * **`u64` survives.** Campaign seeds and plan fingerprints are full
//!   64-bit values; an `f64` number loses integer precision past
//!   2⁵³. [`u64_value`] therefore emits big values as decimal
//!   *strings*, and [`Json::as_u64`] accepts a number, a decimal
//!   string, or a `0x…` hex string interchangeably.

use std::fmt::Write as _;

/// Nesting depth cap for the parser: far beyond any API payload,
/// small enough that hostile input cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers above 2⁵³ should travel as strings;
    /// see [`u64_value`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order, duplicates preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup (first match) on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `u64` view: a non-negative integral number, a decimal string,
    /// or a `0x…` hex string (the spellings [`u64_value`] and the
    /// report files use).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => {
                if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 {
                    Some(*n as u64)
                } else {
                    None
                }
            }
            Json::Str(s) => {
                if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    u64::from_str_radix(&hex.replace('_', ""), 16).ok()
                } else {
                    s.parse().ok()
                }
            }
            _ => None,
        }
    }

    /// `usize` view via [`Json::as_u64`].
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact wire string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            // JSON has no spelling for NaN or the infinities.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{}", n);
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// One object member, for building [`Json::Obj`] literals.
pub fn field(name: &str, value: Json) -> (String, Json) {
    (name.to_string(), value)
}

/// The wire value for a `u64`: a plain number when `f64`-exact,
/// otherwise a decimal string (see the module docs).
pub fn u64_value(v: u64) -> Json {
    if v <= 9_007_199_254_740_992 {
        Json::Num(v as f64)
    } else {
        Json::Str(v.to_string())
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document (trailing non-whitespace is an
/// error — a request body is one value, not a stream).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("document nests too deeply".into());
        }
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte '{}' at {}", c as char, self.pos)),
            None => Err("unexpected end of document".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("malformed number '{}' at byte {}", text, start))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates are replaced, not paired — the
                            // API never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next delimiter. The
                    // input is a `&str` and both delimiters are ASCII,
                    // so the run starts and ends on char boundaries.
                    let run = &self.bytes[self.pos..];
                    let end =
                        run.iter().position(|b| matches!(b, b'"' | b'\\')).unwrap_or(run.len());
                    out.push_str(
                        std::str::from_utf8(&run[..end]).expect("cut at ASCII delimiters"),
                    );
                    self.pos += end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hi \\\"there\\\"\\n\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            "{\"a\":1,\"b\":{\"c\":[true,null]}}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn object_member_order_and_duplicates_survive() {
        let v = parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        match &v {
            Json::Obj(members) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "z"]);
            }
            _ => panic!("not an object"),
        }
        assert_eq!(v.get("z"), Some(&Json::Num(1.0)), "get returns the first match");
    }

    #[test]
    fn u64_values_survive_above_f64_precision() {
        for v in [0u64, 1, 4279640097, 1 << 53, u64::MAX, 0xFF15_2021] {
            let wire = u64_value(v).render();
            assert_eq!(parse(&wire).unwrap().as_u64(), Some(v), "{v}");
        }
        assert_eq!(parse("\"0xFF152021\"").unwrap().as_u64(), Some(0xFF15_2021));
        assert_eq!(parse("\"0x00ff_15_2021\"").unwrap().as_u64(), Some(0xFF15_2021));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("\"not a number\"").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"1}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "nul",
            "{\"a\":}",
            "[1 2]",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "depth cap");
    }

    #[test]
    fn control_characters_escape() {
        let v = Json::Str("a\u{1}b\tc".into());
        assert_eq!(v.render(), "\"a\\u0001b\\tc\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
        let v = Json::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    /// What every wire document relies on: integral floats print
    /// as integers, non-finite ones as `null`, members keep their order.
    #[test]
    fn documents_render_compactly() {
        assert_eq!(Json::Num(5.0).render(), "5");
        assert_eq!(Json::Num(5.25).render(), "5.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Bool(false).render(), "false");
        assert_eq!(Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]).render(), "[1,\"x\"]");
        let doc = Json::Obj(vec![field("n", Json::Num(2.0)), field("s", Json::Str("v".into()))]);
        assert_eq!(doc.render(), "{\"n\":2,\"s\":\"v\"}");
    }

    #[test]
    fn multi_byte_scalars_survive_next_to_escapes_and_quotes() {
        // 2-, 3- and 4-byte scalars directly against an escape, against
        // each other, and against the closing quote.
        let text = "\"é\\n€\\\"𝄞é\\u00e9𝄞\"";
        assert_eq!(parse(text).unwrap(), Json::Str("é\n€\"𝄞éé𝄞".into()));
        assert_eq!(parse("\"𝄞\"").unwrap(), Json::Str("𝄞".into()));
        assert_eq!(parse("[\"é\",\"\\\\€\"]").unwrap().as_arr().unwrap().len(), 2);
        assert!(parse("\"é").is_err(), "unterminated after a multi-byte scalar");
        // Long strings parse in one pass over the body.
        let long = "é€𝄞 plain ".repeat(20_000);
        let v = Json::Str(long);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
