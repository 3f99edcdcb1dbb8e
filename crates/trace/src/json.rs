//! The workspace's one JSON value model, parser, and writer, built for
//! *fidelity*, not convenience.
//!
//! History records must survive append → load → re-serialize byte-for-byte
//! (the round-trip acceptance gate), including records written by future
//! versions with fields this version does not know. Two design choices
//! follow: object keys keep their **insertion order** (no sorting, no
//! hashing), and numbers keep their **original text** (`Json::Num` stores
//! the raw token, so `1.50` never becomes `1.5` and `u64::MAX` never loses
//! precision through an `f64` detour). Emitters that want a fixed number
//! format (`{:.6}` seconds) build the token once with [`Json::fixed`].
//!
//! Two layouts, each chosen by the call site:
//!
//! * [`Json::write`] — **compact**, no whitespace at all: history lines,
//!   the serve wire, `ledger-v1`, flight dumps, trace exports.
//! * [`Json::write_rows`] — **rows**, for documents people read and diff:
//!   one top-level key per line, arrays of objects or strings at the top
//!   level one element per line, everything nested inline with `", "` and
//!   `": "`, and a trailing newline.
//!
//! Strings escape `"` and `\` with a backslash, newline, carriage return
//! and tab as `\n`, `\r`, `\t`, every other control character below
//! U+0020 as `\u00XX`, and write everything else verbatim (UTF-8).
//!
//! The parser refuses documents nested deeper than [`MAX_DEPTH`], so
//! hostile input yields an error instead of exhausting the stack.
//!
//! The crate has no dependencies, so the parser and writer are hand-rolled
//! — the same policy as the rest of the workspace.

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The deepest
/// committed document (a `bench/history.jsonl` record) nests 7 levels.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its original (or formatted-once) text.
    Num(String),
    /// A string (decoded; re-escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (never sorted — fidelity first).
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}

number_from!(u32, u64, usize, i64);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An integer number value.
    #[must_use]
    pub fn u64(v: u64) -> Json {
        v.into()
    }

    /// A float number value, formatted with enough digits to round-trip.
    #[must_use]
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            let mut s = format!("{v}");
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                s.push_str(".0");
            }
            Json::Num(s)
        } else {
            Json::Null
        }
    }

    /// A float number value with exactly `decimals` fractional digits
    /// (`fixed(0.5, 6)` writes `0.500000`); non-finite values are `null`.
    #[must_use]
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// An array of anything convertible to a value.
    #[must_use]
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// An object from `(key, value)` pairs, in the order given.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object (None for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's key/value pairs in document order, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Inserts or replaces `key` in an object (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
    }

    /// Removes `key` from an object, returning the removed value.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        if let Json::Obj(pairs) = self {
            let idx = pairs.iter().position(|(k, _)| k == key)?;
            return Some(pairs.remove(idx).1);
        }
        None
    }

    /// Serializes compactly (no whitespace), preserving key order and the
    /// original number text — the writer half of the byte-identity
    /// guarantee.
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, ",", ":");
        out
    }

    /// Serializes in the rows layout (see the module docs), ending with a
    /// newline.
    #[must_use]
    pub fn write_rows(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str("  ");
                    write_str(&mut out, k);
                    out.push_str(": ");
                    match v {
                        Json::Arr(items)
                            if !items.is_empty()
                                && items
                                    .iter()
                                    .all(|x| matches!(x, Json::Obj(_) | Json::Str(_))) =>
                        {
                            out.push_str("[\n");
                            for (j, item) in items.iter().enumerate() {
                                out.push_str("    ");
                                item.write_into(&mut out, ", ", ": ");
                                out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                            }
                            out.push_str("  ]");
                        }
                        _ => v.write_into(&mut out, ", ", ": "),
                    }
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push('}');
            }
            _ => self.write_into(&mut out, ", ", ": "),
        }
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, comma: &str, colon: &str) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    item.write_into(out, comma, colon);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(out, k);
                    out.push_str(colon);
                    v.write_into(out, comma, colon);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input, trailing
    /// garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// The one JSON string escaper: writes `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
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
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parses one value; `depth` counts the containers already open around it.
fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    if matches!(b, b'[' | b'{') && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let tok = &text[start..*pos];
            // Validate via Rust's float parser; store the original text.
            tok.parse::<f64>()
                .map_err(|_| format!("bad number '{tok}' at byte {start}"))?;
            Ok(Json::Num(tok.to_string()))
        }
        other => Err(format!("unexpected '{}' at byte {}", other as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected '{lit}' at byte {}", *pos))
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        *pos += 4;
                        // Surrogate pairs: decode the low half if present.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                let hex2 = text
                                    .get(*pos + 2..*pos + 6)
                                    .ok_or_else(|| "truncated surrogate".to_string())?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| format!("bad \\u escape '{hex2}'"))?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("invalid low surrogate '\\u{hex2}'"));
                                }
                                *pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or_else(|| "invalid codepoint".to_string())?);
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Consume one UTF-8 scalar from the source text.
                let rest = &text[*pos..];
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| "invalid UTF-8".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_write_round_trips_bytes() {
        let text = r#"{"schema":"perfhist-v1","n":1.50,"big":18446744073709551615,"arr":[1,2,{"z":null,"a":true}],"s":"a\"b\\c\nd"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.write(), text, "byte-identical round-trip");
    }

    #[test]
    fn key_order_is_preserved_not_sorted() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.write(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn numbers_keep_raw_text() {
        let v = Json::parse("[1.50,1e3,-0.25]").unwrap();
        assert_eq!(v.write(), "[1.50,1e3,-0.25]");
        assert_eq!(v.as_arr().unwrap()[1].as_f64(), Some(1000.0));
    }

    #[test]
    fn unknown_fields_survive() {
        let text = r#"{"schema":"perfhist-v9","future_field":{"deep":[1,2,3]}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.write(), text);
    }

    #[test]
    fn set_and_remove() {
        let mut v = Json::parse(r#"{"a":1}"#).unwrap();
        v.set("b", Json::u64(2));
        v.set("a", Json::u64(9));
        assert_eq!(v.write(), r#"{"a":9,"b":2}"#);
        assert_eq!(v.remove("a"), Some(Json::u64(9)));
        assert_eq!(v.write(), r#"{"b":2}"#);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\there A 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there A 😀"));
    }

    #[test]
    fn writer_escapes_every_special_case_once() {
        let s = Json::from("q\" b\\ n\n r\r t\t c\u{1} e\u{1b} → ‰");
        assert_eq!(
            s.write(),
            r#""q\" b\\ n\n r\r t\t c\u0001 e\u001b → ‰""#,
            "quote and backslash escaped, \\n \\r \\t short, other controls \\u00XX, \
             non-ASCII verbatim"
        );
        assert_eq!(Json::parse(&s.write()).unwrap(), s);
        // Keys go through the same escaper.
        let o = Json::obj([("a\"b", Json::Null)]);
        assert_eq!(o.write(), r#"{"a\"b":null}"#);
    }

    #[test]
    fn surrogate_pairs_decode_or_error() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // A high surrogate must be followed by a \u escape in the low
        // range; anything else is an error, never a panic or underflow.
        assert!(Json::parse(r#""\uD800\u0041""#).is_err());
        assert!(Json::parse(r#""\uD800\uD800""#).is_err());
        assert!(Json::parse(r#""\uD800x""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nulll").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |n: usize, open: &str, close: &str| open.repeat(n) + &close.repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1, "[", "]")).is_err());
        assert!(Json::parse(&nest(MAX_DEPTH + 1, "{\"a\":", "}")).is_err());
        // Far past the cap, still an error and not an abort.
        let hostile = format!("{{\"op\":\"stats\",\"id\":{}", "[".repeat(100_000));
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn f64_formatting() {
        assert_eq!(Json::f64(2.0).write(), "2.0");
        assert_eq!(Json::f64(0.125).write(), "0.125");
        assert_eq!(Json::f64(f64::NAN).write(), "null");
        assert_eq!(Json::fixed(0.5, 6).write(), "0.500000");
        assert_eq!(Json::fixed(14_678_267.4, 0).write(), "14678267");
        assert_eq!(Json::fixed(f64::INFINITY, 3).write(), "null");
    }

    #[test]
    fn constructors_convert_scalars() {
        let v = Json::obj([
            ("b", true.into()),
            ("n", 7u32.into()),
            ("i", (-3i64).into()),
            ("none", Option::<&str>::None.into()),
            ("some", Some("x").into()),
            ("arr", Json::arr([1u64, 2])),
        ]);
        assert_eq!(
            v.write(),
            r#"{"b":true,"n":7,"i":-3,"none":null,"some":"x","arr":[1,2]}"#
        );
    }

    #[test]
    fn rows_layout_one_key_per_line_nested_inline() {
        let v = Json::obj([
            ("schema", Json::from("diff-v1")),
            (
                "a",
                Json::obj([("label", "w8".into()), ("total", 5u64.into())]),
            ),
            ("widths", Json::arr([2u64, 4])),
            (
                "rows",
                Json::arr([
                    Json::obj([("k", 1u64.into())]),
                    Json::obj([("k", Json::arr([1u64, 2]))]),
                ]),
            ),
            ("empty", Json::Arr(Vec::new())),
            ("lines", Json::arr(["x", "y"])),
        ]);
        assert_eq!(
            v.write_rows(),
            "{\n  \"schema\": \"diff-v1\",\n  \"a\": {\"label\": \"w8\", \"total\": 5},\n  \
             \"widths\": [2, 4],\n  \"rows\": [\n    {\"k\": 1},\n    {\"k\": [1, 2]}\n  ],\n  \
             \"empty\": [],\n  \"lines\": [\n    \"x\",\n    \"y\"\n  ]\n}\n"
        );
        assert_eq!(Json::parse(&v.write_rows()).unwrap(), v);
        assert_eq!(Json::obj::<&str>([]).write_rows(), "{}\n");
    }
}
