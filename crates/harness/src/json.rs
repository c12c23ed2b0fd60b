//! A strict, value-retaining JSON parser and canonical serializer.
//!
//! Every machine-readable artifact this workspace writes — metrics
//! sidecars, `calibration.json`, Chrome traces — is
//! emitted by a hand-rolled serializer (no external crates), so the
//! reader on the other side must be equally self-contained. This module
//! parses the full JSON grammar into a [`Json`] value while enforcing
//! the rules the old syntax-only checker let slide:
//!
//! * **escapes** — only `\" \\ \/ \b \f \n \r \t \uXXXX` are legal, and
//!   `\u` must be followed by exactly four hex digits;
//! * **control characters** — raw bytes below `0x20` inside a string
//!   are rejected (they must be escaped);
//! * **duplicate keys** — an object may not bind the same key twice
//!   (duplicate keys silently shadow in most readers, which is exactly
//!   how a malformed sidecar would hide a regression);
//! * **numbers** — leading zeros (`01`), lone minus signs and empty
//!   exponents are rejected, per RFC 8259.
//!
//! Numbers are kept as their source text ([`Json::Num`]) so a
//! parse → serialize round trip never perturbs a value that tests
//! compare byte-for-byte.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text so round trips are exact.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order (keys are unique by
    /// construction — the parser rejects duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a member of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if it is an array.
    pub fn elements(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(e) => Some(e),
            _ => None,
        }
    }

    /// Serializes compactly (no insignificant whitespace), preserving
    /// member order and number spellings. `parse(x).to_compact()` is a
    /// canonical form: two documents with equal values, orders and
    /// number spellings serialize identically whatever their original
    /// whitespace.
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.write_compact(&mut s);
        s
    }

    fn write_compact(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(true) => s.push_str("true"),
            Json::Bool(false) => s.push_str("false"),
            Json::Num(raw) => s.push_str(raw),
            Json::Str(v) => s.push_str(&escape(v)),
            Json::Arr(elems) => {
                s.push('[');
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    e.write_compact(s);
                }
                s.push(']');
            }
            Json::Obj(members) => {
                s.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&escape(k));
                    s.push(':');
                    v.write_compact(s);
                }
                s.push('}');
            }
        }
    }
}

/// Formats a float as a JSON number: `{:?}` always produces a decimal
/// point or exponent; non-finite values (not representable in JSON)
/// become 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes `v` as a JSON string literal (quotes included).
pub fn escape(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Parses `s` as one JSON document (strict grammar, no trailing
/// garbage).
///
/// # Errors
///
/// A human-readable message naming the first offending byte offset.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != b.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                self.object()
            }
            Some(b'[') => {
                self.pos += 1;
                self.array()
            }
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Json::Str)
            }
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#x} at {}", self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b'"') {
                return Err(format!("expected object key at {}", self.pos));
            }
            let key_at = self.pos;
            self.pos += 1;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate object key \"{key}\" at {key_at}"));
            }
            self.skip_ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at {}", self.pos));
            }
            self.pos += 1;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut elems = Vec::new();
        self.skip_ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(elems));
        }
        loop {
            elems.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(elems));
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.pos)),
            }
        }
    }

    /// Parses a string body (opening quote already consumed).
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u escape at {}", self.pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| format!("bad \\u escape at {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at {}", self.pos))?;
                            // Surrogates are tolerated by substituting
                            // U+FFFD; none of our writers emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        Some(c) => {
                            return Err(format!(
                                "illegal escape '\\{}' at {}",
                                *c as char, self.pos
                            ))
                        }
                        None => return Err("unterminated escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!(
                        "raw control byte {c:#x} in string at {} (must be escaped)",
                        self.pos
                    ));
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched;
                    // the input is a &str so they are already valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.b.get(self.pos).is_some_and(|c| *c & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by more.
        match self.b.get(self.pos) {
            Some(b'0') => {
                self.pos += 1;
                if self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    return Err(format!("leading zero in number at {start}"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                    self.pos += 1;
                }
            }
            _ => return Err(format!("expected digits at {}", self.pos)),
        }
        if self.b.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                return Err(format!("expected fraction digits at {}", self.pos));
            }
            while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
        }
        if matches!(self.b.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.b.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                return Err(format!("expected exponent digits at {}", self.pos));
            }
            while self.b.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
        }
        Ok(Json::Num(
            std::str::from_utf8(&self.b[start..self.pos])
                .unwrap()
                .to_string(),
        ))
    }

    fn literal(&mut self, lit: &[u8], v: Json) -> Result<Json, String> {
        if self.b.len() >= self.pos + lit.len() && &self.b[self.pos..self.pos + lit.len()] == lit {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_navigates() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": null, "e": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().elements().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().elements().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn compact_round_trip_is_canonical() {
        let pretty = "{\n  \"a\": [ 1 , 2 ],\n  \"b\": 0.5\n}\n";
        let compact = "{\"a\":[1,2],\"b\":0.5}";
        assert_eq!(parse(pretty).unwrap().to_compact(), compact);
        assert_eq!(parse(compact).unwrap().to_compact(), compact);
    }

    #[test]
    fn number_spellings_survive_round_trips() {
        for n in ["0", "-0", "1e9", "1E+9", "123.450", "-0.001"] {
            assert_eq!(parse(n).unwrap().to_compact(), n);
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate object key \"a\""), "{err}");
        // Same key in *different* objects is fine.
        parse(r#"{"x": {"a": 1}, "y": {"a": 2}}"#).unwrap();
    }

    #[test]
    fn rejects_malformed_escapes() {
        for bad in [
            r#""\x""#,     // unknown escape
            r#""\u12""#,   // truncated \u
            r#""\u12zz""#, // non-hex \u
            r#""\"#,       // backslash at end of input
        ] {
            assert!(parse(bad).is_err(), "{bad} should be rejected");
        }
        assert_eq!(parse(r#""A\t\/""#).unwrap().as_str(), Some("A\t/"));
    }

    #[test]
    fn rejects_truncated_documents() {
        for bad in [
            "{\"a\": 1",
            "{\"a\"",
            "[1, 2",
            "{",
            "[",
            "\"abc",
            "{\"a\": ",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn rejects_bad_numbers() {
        for bad in ["01", "-", "1.", ".5", "1e", "1e+", "--1"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        for good in ["0", "-0.5", "10", "1e-9", "0.015"] {
            parse(good).unwrap();
        }
    }

    #[test]
    fn rejects_raw_control_chars_in_strings() {
        assert!(parse("\"a\u{1}b\"").is_err());
        // Escaped form of the same character is fine.
        assert_eq!(parse(r#""a\u0001b""#).unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("{\"k\": \"héllo ✓\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("héllo ✓"));
        assert_eq!(v.to_compact(), "{\"k\":\"héllo ✓\"}");
    }
}
