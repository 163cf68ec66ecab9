//! JSON without serde: a value type, a strict parser, one streaming
//! [`Writer`] that prints compact or pretty text, and derive-free
//! [`ToJson`]/[`FromJson`] conversion traits.
//!
//! [`ToJson`] writes straight into the [`Writer`]; the [`Json`] tree is for
//! parsed documents and ad-hoc response bodies, and prints through the
//! same writer.
//!
//! Numbers are carried as `f64`; every integer the workspace serializes
//! (line counts, dimensions) is far below 2^53, and floats are printed via
//! Rust's shortest-round-trip formatting so `f64` values (`-0.0`
//! included) survive a round trip bit-exactly.
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
        to_compact_string(self)
    }

    /// Renders with two-space indentation, like `serde_json::to_string_pretty`.
    pub fn to_pretty_string(&self) -> String {
        to_pretty_string(self)
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

/// Renders `value` without any whitespace.
pub fn to_compact_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = Writer::compact();
    value.write_json(&mut w);
    w.finish()
}

/// Renders `value` with two-space indentation, like
/// `serde_json::to_string_pretty`.
pub fn to_pretty_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut w = Writer::pretty();
    value.write_json(&mut w);
    w.finish()
}

/// The one JSON printer: appends compact or pretty text straight into a
/// `String` as values are written, so no [`Json`] tree is built to print
/// a typed value.
///
/// Containers are opened and closed explicitly; the writer places commas,
/// newlines and indentation itself.
///
/// ```rust
/// use patchdb_rt::json::Writer;
/// let mut w = Writer::compact();
/// w.begin_object();
/// w.field("ids", &[1u32, 2][..]);
/// w.key("name");
/// w.str("x");
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"ids":[1,2],"name":"x"}"#);
/// ```
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Nesting depth of the open container (0 at the top level).
    level: usize,
    /// The open container already holds an item, so the next needs a comma.
    has_items: bool,
    /// A key was just written; its value follows on the same line.
    after_key: bool,
}

impl Writer {
    /// A writer that emits no whitespace.
    pub fn compact() -> Writer {
        Writer { out: String::new(), pretty: false, level: 0, has_items: false, after_key: false }
    }

    /// A writer that indents by two spaces per level.
    pub fn pretty() -> Writer {
        Writer { pretty: true, ..Writer::compact() }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.before_value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes a number; non-finite values become `null`.
    pub fn num(&mut self, n: f64) {
        self.before_value();
        write_number(&mut self.out, n);
    }

    /// Writes an escaped string.
    pub fn str(&mut self, s: &str) {
        self.before_value();
        write_escaped(&mut self.out, s);
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object; write each member with [`key`](Writer::key) and a
    /// value, or with [`field`](Writer::field).
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) {
        self.separate();
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    /// Writes one object member.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    fn open(&mut self, bracket: char) {
        self.before_value();
        self.out.push(bracket);
        self.level += 1;
        self.has_items = false;
    }

    fn close(&mut self, bracket: char) {
        self.level -= 1;
        if self.has_items {
            self.newline();
        }
        self.out.push(bracket);
        // The closed container is itself an item of its parent.
        self.has_items = true;
    }

    fn before_value(&mut self) {
        if !std::mem::take(&mut self.after_key) {
            self.separate();
        }
    }

    /// Starts a new item of the open container: comma, then line break.
    fn separate(&mut self) {
        if self.level == 0 {
            return;
        }
        if self.has_items {
            self.out.push(',');
        }
        self.has_items = true;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.level {
                self.out.push_str("  ");
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        // JSON has no inf/NaN; encode as null like serde_json does.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The integral branch would drop the sign; `-0.0` parses back.
        out.push_str("-0.0");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        // Integral values print without an exponent or fraction.
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest representation that round-trips.
        let _ = write!(out, "{n:?}");
    }
}

/// Writes `s` quoted, copying each run of bytes that needs no escape as
/// one slice. Escaped bytes are all ASCII, so every run boundary is a
/// `char` boundary.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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

/// Serialization through a [`Writer`].
pub trait ToJson {
    /// Writes the JSON representation as one value.
    fn write_json(&self, w: &mut Writer);
}

impl ToJson for Json {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => items.write_json(w),
            Json::Obj(fields) => {
                w.begin_object();
                for (key, value) in fields {
                    w.field(key, value);
                }
                w.end_object();
            }
        }
    }
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
    T::from_json(inner).map_err(|e| JsonError::new(format!("field '{name}': {}", e.message)))
}

fn expect_num(v: &Json) -> Result<f64> {
    v.as_f64().ok_or_else(|| JsonError::new(format!("expected number, got {}", v.kind())))
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.num(*self as f64);
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
    fn write_json(&self, w: &mut Writer) {
        w.num(*self);
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
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_bool().ok_or_else(|| JsonError::new(format!("expected bool, got {}", v.kind())))
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
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
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
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
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

/// An item's conversion error is prefixed with its position, `[i]: `.
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::new(format!("expected array, got {}", v.kind())))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json(item).map_err(|e| JsonError::new(format!("[{i}]: {}", e.message)))
            })
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson> ToJson for HashMap<String, T> {
    fn write_json(&self, w: &mut Writer) {
        // Sort keys so output is deterministic regardless of hasher state.
        let mut entries: Vec<(&String, &T)> = self.iter().collect();
        entries.sort_by_key(|&(k, _)| k);
        w.begin_object();
        for (key, value) in entries {
            w.field(key, value);
        }
        w.end_object();
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
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        for (key, value) in self {
            w.field(key, value);
        }
        w.end_object();
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
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.begin_object();
                $(w.field(stringify!($f), &self.$f);)*
                w.end_object();
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
            fn write_json(&self, w: &mut $crate::json::Writer) {
                w.str(match self {
                    $($T::$V => stringify!($V)),*
                });
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
    use crate::check::{check, Gen};

    // The recursive tree printer the streaming writer replaced, kept as
    // the writer's differential oracle (with the `-0.0` fix applied).
    impl Json {
        fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
            match self {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Num(n) => oracle_number(out, *n),
                Json::Str(s) => oracle_escaped(out, s),
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
                        oracle_indent(out, indent, level + 1);
                        item.write(out, indent, level + 1);
                    }
                    oracle_indent(out, indent, level);
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
                        oracle_indent(out, indent, level + 1);
                        oracle_escaped(out, key);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        value.write(out, indent, level + 1);
                    }
                    oracle_indent(out, indent, level);
                    out.push('}');
                }
            }
        }
    }

    fn oracle_indent(out: &mut String, indent: Option<usize>, level: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * level));
        }
    }

    fn oracle_number(out: &mut String, n: f64) {
        if !n.is_finite() {
            out.push_str("null");
        } else if n == 0.0 && n.is_sign_negative() {
            out.push_str("-0.0");
        } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n:?}"));
        }
    }

    fn oracle_escaped(out: &mut String, s: &str) {
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

    /// Every control character, the two escaped printables, and 1- to
    /// 4-byte UTF-8.
    fn gen_string(g: &mut Gen) -> String {
        let alphabet: String =
            (0u8..0x20).map(char::from).chain("a\"\\/ \u{7f}é€🦀".chars()).collect();
        g.string_from(0, 12, &alphabet)
    }

    fn gen_number(g: &mut Gen) -> f64 {
        const P53: f64 = 9_007_199_254_740_992.0;
        const EDGES: [f64; 14] = [
            0.0,
            -0.0,
            P53 - 1.0,
            P53,
            P53 + 2.0,
            -P53,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.5,
        ];
        match g.index(4) {
            0 => *g.pick(&EDGES),
            1 => g.i64_in(-1_000_000, 1_000_000) as f64,
            2 => g.f64_in(-1e3, 1e3),
            _ => f64::from_bits(g.u64()),
        }
    }

    fn gen_json(g: &mut Gen, depth: usize) -> Json {
        match g.index(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(g.bool()),
            2 => Json::Num(gen_number(g)),
            3 => Json::Str(gen_string(g)),
            4 => Json::Arr(g.vec_with(0, 4, |g| gen_json(g, depth - 1))),
            _ => Json::Obj(g.vec_with(0, 4, |g| (gen_string(g), gen_json(g, depth - 1)))),
        }
    }

    /// What a parse of the printed text must give back: non-finite
    /// numbers print as `null`.
    fn printed(v: &Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(printed).collect()),
            Json::Obj(fields) => {
                Json::Obj(fields.iter().map(|(k, v)| (k.clone(), printed(v))).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn writer_matches_the_tree_printer() {
        check("writer_matches_the_tree_printer", 512, |g| {
            let v = gen_json(g, 3);
            let expected = printed(&v);
            for indent in [None, Some(2)] {
                let mut oracle = String::new();
                v.write(&mut oracle, indent, 0);
                let text =
                    if indent.is_some() { v.to_pretty_string() } else { v.to_compact_string() };
                assert_eq!(text, oracle);
                // Debug output tells `-0.0` from `0.0`, so this is bit-exact.
                let back = Json::parse(&text).unwrap();
                assert_eq!(format!("{back:?}"), format!("{expected:?}"), "via {text}");
            }
        });
    }

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
            -0.0,
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
        let text = to_pretty_string(&d);
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
        assert_eq!(to_compact_string(&Kind::Alpha), r#""Alpha""#);
        assert_eq!(Kind::from_json(&Json::Str("Beta".into())).unwrap(), Kind::Beta);
        assert!(Kind::from_json(&Json::Str("Gamma".into())).is_err());
        assert!(Kind::from_json(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn containers_round_trip() {
        let mut m = HashMap::new();
        m.insert("k1".to_owned(), 1u32);
        m.insert("k2".to_owned(), 2u32);
        let text = to_compact_string(&m);
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
