//! JSON without serde: a value type, a strict parser, compact and pretty
//! printers, and derive-free [`ToJson`]/[`FromJson`] conversion traits.
//!
//! Numbers are carried as `f64`; every integer the workspace serializes
//! (line counts, dimensions) is far below 2^53, and floats are printed via
//! Rust's shortest-round-trip formatting so `f64` values survive a
//! round trip bit-exactly.
//!
//! Structs and C-like enums get conversions via the
//! [`impl_to_from_json`](crate::impl_to_from_json!) and
//! [`impl_json_unit_enum`](crate::impl_json_unit_enum!) macros; the
//! encoded shapes match what serde's derive produced (objects keyed by
//! field name, unit enum variants as strings), so previously exported
//! datasets keep loading.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON document or fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; integers are exact up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Why encoding, decoding, or conversion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError { message: message.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Conversion result alias.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem, with
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Renders without any whitespace.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders with two-space indentation, like `serde_json::to_string_pretty`.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// One-word description of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * level));
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no inf/NaN; encode as null like serde_json does.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        // Integral values print without an exponent or fraction.
        out.push_str(&format!("{}", n as i64));
    } else {
        // `{:?}` is Rust's shortest representation that round-trips.
        out.push_str(&format!("{n:?}"));
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl fmt::Display) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected an exponent digit"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| self.err(format!("bad number {text:?}: {e}")))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(self.utf8_run(run_start)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.utf8_run(run_start)?);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(
                                self.err(format!("invalid escape '\\{}'", other as char))
                            )
                        }
                    }
                    run_start = self.pos;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn utf8_run(&self, from: usize) -> Result<&'a str> {
        std::str::from_utf8(&self.bytes[from..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in string"))
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Rebuilds the value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the shape or types don't match.
    fn from_json(v: &Json) -> Result<Self>;
}

/// Looks up and converts an object field; `Null`/missing map through
/// `FromJson` (so `Option` fields tolerate both).
///
/// # Errors
///
/// Propagates the field's conversion error, prefixed with its name.
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T> {
    let inner = v.get(name).unwrap_or(&Json::Null);
    T::from_json(inner).map_err(|e| JsonError::new(format!("field '{name}': {e}")))
}

fn expect_num(v: &Json) -> Result<f64> {
    v.as_f64().ok_or_else(|| JsonError::new(format!("expected number, got {}", v.kind())))
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self> {
                let n = expect_num(v)?;
                if n != n.trunc() {
                    return Err(JsonError::new(format!("expected integer, got {n}")));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(JsonError::new(format!(
                        "{} out of range for {}", n, stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            // serde_json encodes non-finite floats as null; accept it back.
            Json::Null => Ok(f64::NAN),
            _ => expect_num(v),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_bool().ok_or_else(|| JsonError::new(format!("expected bool, got {}", v.kind())))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new(format!("expected string, got {}", v.kind())))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::new(format!("expected array, got {}", v.kind())))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for HashMap<String, T> {
    fn to_json(&self) -> Json {
        // Sort keys so output is deterministic regardless of hasher state.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(keys.into_iter().map(|k| (k.clone(), self[k].to_json())).collect())
    }
}

impl<T: FromJson> FromJson for HashMap<String, T> {
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, val)| Ok((k.clone(), T::from_json(val)?)))
                .collect(),
            other => Err(JsonError::new(format!("expected object, got {}", other.kind()))),
        }
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, val)| Ok((k.clone(), T::from_json(val)?)))
                .collect(),
            other => Err(JsonError::new(format!("expected object, got {}", other.kind()))),
        }
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct, field by field,
/// matching serde's derive encoding (an object keyed by field names).
///
/// ```rust
/// use patchdb_rt::impl_to_from_json;
/// struct Point { x: f64, y: f64 }
/// impl_to_from_json!(Point { x, y });
/// ```
#[macro_export]
macro_rules! impl_to_from_json {
    ($T:ident { $($f:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $T {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($f).to_owned(), $crate::json::ToJson::to_json(&self.$f))),*
                ])
            }
        }
        impl $crate::json::FromJson for $T {
            fn from_json(v: &$crate::json::Json) -> $crate::json::Result<Self> {
                Ok($T { $($f: $crate::json::field(v, stringify!($f))?),* })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a C-like enum, encoding each
/// variant as its name string (serde's derive encoding for unit variants).
///
/// ```rust
/// use patchdb_rt::impl_json_unit_enum;
/// #[derive(Debug, PartialEq)]
/// enum Color { Red, Green }
/// impl_json_unit_enum!(Color { Red, Green });
/// ```
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($T:ident { $($V:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $T {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $($T::$V => stringify!($V)),*
                };
                $crate::json::Json::Str(name.to_owned())
            }
        }
        impl $crate::json::FromJson for $T {
            fn from_json(v: &$crate::json::Json) -> $crate::json::Result<Self> {
                let s = v.as_str().ok_or_else(|| $crate::json::JsonError::new(
                    format!("expected {} variant string, got {}", stringify!($T), v.kind()),
                ))?;
                match s {
                    $(stringify!($V) => Ok($T::$V),)*
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant '{}'", stringify!($T), other
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "01x", "\"\\q\"", "{\"a\":1,}", "[1] extra",
            "nan", "+1", "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{8}\u{c}\r end \u{1} ünïcode 🦀";
        let encoded = Json::Str(original.to_owned()).to_compact_string();
        let back = Json::parse(&encoded).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        // Surrogate pair for 🦀 (U+1F980).
        assert_eq!(Json::parse(r#""\ud83e\udd80""#).unwrap().as_str(), Some("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn f64_round_trips_bit_exact() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            123456789.123456789,
            (2u64.pow(53) - 1) as f64,
        ] {
            let text = Json::Num(v).to_compact_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn integers_print_clean() {
        assert_eq!(Json::Num(3.0).to_compact_string(), "3");
        assert_eq!(Json::Num(-17.0).to_compact_string(), "-17");
        assert_eq!(Json::Num(2.5).to_compact_string(), "2.5");
    }

    #[test]
    fn pretty_printing_round_trips() {
        let v = Json::parse(r#"{"a":[1,{"b":[true,null]}],"c":"x"}"#).unwrap();
        let pretty = v.to_pretty_string();
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        score: f64,
        tags: Vec<String>,
        parent: Option<u32>,
    }
    impl_to_from_json!(Demo { name, score, tags, parent });

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    impl_json_unit_enum!(Kind { Alpha, Beta });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            name: "x".into(),
            score: 0.25,
            tags: vec!["a".into(), "b".into()],
            parent: None,
        };
        let text = d.to_json().to_pretty_string();
        let back = Demo::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
        // Missing Option field tolerated; missing required field is not.
        let partial = Json::parse(r#"{"name":"y","score":1,"tags":[]}"#).unwrap();
        assert_eq!(Demo::from_json(&partial).unwrap().parent, None);
        let broken = Json::parse(r#"{"score":1,"tags":[]}"#).unwrap();
        let err = Demo::from_json(&broken).unwrap_err().to_string();
        assert!(err.contains("name"), "{err}");
    }

    #[test]
    fn enum_macro_round_trips() {
        assert_eq!(Kind::Alpha.to_json(), Json::Str("Alpha".into()));
        assert_eq!(Kind::from_json(&Json::Str("Beta".into())).unwrap(), Kind::Beta);
        assert!(Kind::from_json(&Json::Str("Gamma".into())).is_err());
        assert!(Kind::from_json(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn containers_round_trip() {
        let mut m = HashMap::new();
        m.insert("k1".to_owned(), 1u32);
        m.insert("k2".to_owned(), 2u32);
        let text = m.to_json().to_compact_string();
        assert_eq!(text, r#"{"k1":1,"k2":2}"#); // sorted keys
        let back: HashMap<String, u32> = FromJson::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn int_conversions_check_range() {
        assert!(u8::from_json(&Json::Num(256.0)).is_err());
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        assert!(u32::from_json(&Json::Num(1.5)).is_err());
        assert_eq!(i64::from_json(&Json::Num(-5.0)).unwrap(), -5);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact_string(), "null");
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
    }
}
