//! Minimal JSON value tree and serializer.
//!
//! The workspace has no serde (offline build), and run reports are the
//! only thing that needs serialization, so this module hand-rolls the
//! small subset required: objects with insertion-ordered keys, arrays,
//! strings, bools, integers, and finite floats. Non-finite floats
//! serialize as `null` (JSON has no NaN/Infinity).

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number (serialized without a decimal point).
    Int(i64),
    /// Unsigned integer number.
    UInt(u64),
    /// Floating-point number; non-finite values serialize as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    #[must_use]
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Parses a JSON document. Integers without sign parse as
    /// [`Json::UInt`], negative integers as [`Json::Int`], and anything
    /// with a fraction or exponent as [`Json::Float`] — matching how
    /// the serializer writes them, so documents round-trip.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax
    /// error, including trailing garbage after the top-level value and
    /// arrays/objects nested deeper than [`MAX_PARSE_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Inserts or replaces `key` in an object. Panics if `self` is not
    /// an object.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Object(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Looks up `key` in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact serialization to `out`, so a caller can
    /// frame a message around it without copying the body.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serializes with 2-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Every key path in the value tree, dotted and sorted; array
    /// elements do not contribute paths beyond their parent key. Used by
    /// schema tests to pin the report shape without pinning values.
    #[must_use]
    pub fn key_paths(&self) -> Vec<String> {
        let mut paths = Vec::new();
        self.collect_paths("", &mut paths);
        paths.sort();
        paths.dedup();
        paths
    }

    fn collect_paths(&self, prefix: &str, out: &mut Vec<String>) {
        match self {
            Json::Object(fields) => {
                for (k, v) in fields {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    out.push(path.clone());
                    v.collect_paths(&path, out);
                }
            }
            Json::Array(items) => {
                // Arrays are homogeneous in run reports; describe the
                // element shape once under `prefix[]`.
                if let Some(first) = items.first() {
                    first.collect_paths(&format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    if *f == f.trunc() && f.abs() < 1e15 {
                        // Keep a decimal point so the value round-trips
                        // as a float.
                        out.push_str(&format!("{f:.1}"));
                    } else {
                        out.push_str(&format!("{f}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// How deeply [`Json::parse`] nests arrays and objects before it gives
/// up. Run reports nest about six levels; the cap keeps a hostile
/// `[[[[…` document from recursing until the stack overflows.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
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

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_PARSE_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(b),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy unescaped runs in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.eat_literal("\\u") {
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos - 1
                            ))
                        }
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape '{s}'"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if !float {
            if text.starts_with('-') {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u64::from(u))
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip_shapes() {
        let mut obj = Json::object();
        obj.set("n", Json::from(3u64));
        obj.set("name", Json::from("a\"b"));
        obj.set("xs", Json::from(vec![1i64, 2, 3]));
        let mut inner = Json::object();
        inner.set("f", Json::Float(1.5));
        inner.set("nan", Json::Float(f64::NAN));
        obj.set("inner", inner);
        assert_eq!(
            obj.to_string_compact(),
            r#"{"n":3,"name":"a\"b","xs":[1,2,3],"inner":{"f":1.5,"nan":null}}"#
        );
        assert!(obj.to_string_pretty().contains("\n  \"n\": 3"));
    }

    #[test]
    fn whole_floats_keep_decimal_point() {
        assert_eq!(Json::Float(2.0).to_string_compact(), "2.0");
        assert_eq!(Json::Float(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn key_paths_are_sorted_and_nested() {
        let mut obj = Json::object();
        obj.set("b", Json::from(1u64));
        let mut inner = Json::object();
        inner.set("x", Json::Null);
        obj.set("a", Json::Array(vec![inner]));
        assert_eq!(obj.key_paths(), vec!["a", "a[].x", "b"]);
    }

    #[test]
    fn parse_roundtrips_serializer_output() {
        let mut obj = Json::object();
        obj.set("n", Json::from(3u64));
        obj.set("i", Json::from(-7i64));
        obj.set("name", Json::from("a\"b\\c\nd"));
        obj.set("xs", Json::from(vec![1i64, 2, 3]));
        obj.set("f", Json::Float(1.5));
        obj.set("whole", Json::Float(2.0));
        obj.set("t", Json::Bool(true));
        obj.set("nil", Json::Null);
        let compact = Json::parse(&obj.to_string_compact()).unwrap();
        let pretty = Json::parse(&obj.to_string_pretty()).unwrap();
        // Int(1) serializes as "1" which reparses as UInt(1); compare
        // via re-serialization instead of tree equality.
        assert_eq!(compact.to_string_compact(), obj.to_string_compact());
        assert_eq!(pretty.to_string_compact(), obj.to_string_compact());
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(
            Json::parse("\"a\\u00e9b\"").unwrap(),
            Json::Str("a\u{e9}b".to_string())
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".to_string())
        );
        // Raw UTF-8 passes through untouched.
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".to_string()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("'single'").is_err());
    }

    #[test]
    fn parse_caps_nesting_depth_instead_of_overflowing_the_stack() {
        let deepest_ok = format!(
            "{}{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&deepest_ok).is_ok());
        let one_deeper = format!("[{deepest_ok}]");
        let err = Json::parse(&one_deeper).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_PARSE_DEPTH}")), "{err}");

        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut obj = Json::object();
        obj.set("k", Json::from(1u64));
        obj.set("k", Json::from(2u64));
        assert_eq!(obj.get("k"), Some(&Json::UInt(2)));
    }
}
