//! In-tree stand-in for `serde`, vendored so the workspace builds with no
//! network access and no external crates.
//!
//! The real serde is a zero-copy visitor framework over many formats;
//! this shim is a much smaller design that covers exactly what the
//! workspace needs: one streaming JSON codec. A type writes its JSON
//! text straight into a [`Writer`] and reads itself straight out of a
//! [`Parser`], with no intermediate tree. The public names mirror serde
//! (`Serialize`, `Deserialize`, `#[derive(Serialize, Deserialize)]`) so
//! call sites are source-compatible with the real crate; `serde_json`
//! (also vendored) holds only the entry points.
//!
//! Representation choices match `serde_json` defaults where the workspace
//! depends on them:
//! * structs → objects with the field names as keys, in declaration
//!   order;
//! * unit enum variants → strings (`"FirstTouch"`);
//! * newtype enum variants → one-entry objects (`{"Bind": 0}`);
//! * maps → objects (keys must serialize as strings or integers);
//! * `Option` → the value or `null`;
//! * floats → Rust's shortest-roundtrip text, with `.0` appended when it
//!   would read back as an integer, and `null` when not finite.
//!
//! Decoding rules:
//! * every struct field is required, `Option` fields included (as
//!   `null`); unknown keys are skipped but still syntax-checked;
//! * when a struct key appears twice the first occurrence wins; in a map
//!   the last one does;
//! * a syntax error anywhere in a document takes precedence over a shape
//!   error (well-formed JSON of the wrong shape), and of several shape
//!   errors the first field in declaration order, element or map entry
//!   in document order is reported;
//! * nesting deeper than [`MAX_DEPTH`] is an error, and so are trailing
//!   characters after the document.
//!
//! [`Value`] is a type like any other: it implements both traits, which
//! is how untyped documents are read and written.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting a [`Parser`] accepts. Reading recurses
/// once per level, so without a bound a small document of nothing but `[`
/// would overflow the reading thread's stack and abort the process; real
/// serde_json stops at the same depth.
pub const MAX_DEPTH: usize = 128;

/// A JSON-shaped value tree, for documents without a fixed type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative or small integer.
    Int(i64),
    /// A non-negative integer (kept separate so `u64 > i64::MAX` survive).
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Looks up an object key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Decoding error. A *syntax* error means the text is not JSON and stops
/// the read where it was found; a *shape* error means well-formed JSON of
/// the wrong shape for the type.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
    syntax: bool,
}

impl DeError {
    /// A shape error with the given message.
    fn shape(msg: impl Into<String>) -> DeError {
        DeError {
            msg: msg.into(),
            syntax: false,
        }
    }

    /// Builds a "T: expected X, found Y" shape error.
    fn expected(what: &str, context: &str, found: &str) -> DeError {
        DeError::shape(format!("{context}: expected {what}, found {found}"))
    }

    /// The error for a tag that names no variant of `ty`.
    pub fn unknown_variant(ty: &str, tag: &str) -> DeError {
        DeError::shape(format!("unknown {ty} variant '{tag}'"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// Writes `self` as JSON text.
pub trait Serialize {
    /// Appends this value's JSON text to `w`.
    fn write_json(&self, w: &mut Writer);
}

/// Reads `Self` from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value starting at the parser's cursor (whitespace
    /// already skipped) and leaves the cursor right after it. After a
    /// shape error the cursor is unspecified; [`Parser::value`] restores
    /// it.
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError>;
}

/// The output side of the codec: JSON text appended to one buffer, compact
/// or indented by two spaces per level.
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// True right after a container opened: no member written yet.
    fresh: bool,
}

impl Writer {
    /// Serializes one document: compact, or pretty with a two-space
    /// indent.
    pub fn document<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
        let mut w = Writer {
            out: String::with_capacity(256),
            pretty,
            depth: 0,
            fresh: false,
        };
        value.write_json(&mut w);
        w.out
    }

    /// `null`.
    fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer, formatted in place.
    fn u64(&mut self, v: u64) {
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{v}");
    }

    /// A signed integer, formatted in place.
    fn i64(&mut self, v: i64) {
        let _ = write!(self.out, "{v}");
    }

    /// A float as its shortest round-trip text, with `.0` appended when
    /// the text would read back as an integer; `null` when not finite.
    fn f64(&mut self, v: f64) {
        if !v.is_finite() {
            self.null();
            return;
        }
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    /// A string literal, quoted and escaped; unescaped runs are copied
    /// whole.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `i` is a character boundary.
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// One value that is already compact JSON text, copied verbatim: a
    /// cached encoding is spliced in instead of being written again.
    /// Compact output only: the text is not re-indented for a pretty
    /// document, and it is not checked.
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    /// Opens an object; each member follows [`Writer::key`].
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts an object member: separator, indent, the quoted key and
    /// the colon. The member's value is written next.
    pub fn key(&mut self, key: &str) {
        self.member();
        self.str(key);
        self.colon();
    }

    /// Starts an object member whose key is written by `write`, as map
    /// keys are: a key that does not write a string (an integer) is
    /// quoted.
    fn key_with(&mut self, write: impl FnOnce(&mut Writer)) {
        self.member();
        let start = self.out.len();
        write(self);
        if !self.out[start..].starts_with('"') {
            self.out.insert(start, '"');
            self.out.push('"');
        }
        self.colon();
    }

    /// Closes an object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    /// Opens an array; each element follows [`Writer::element`].
    fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts an array element: separator and indent.
    fn element(&mut self) {
        self.member();
    }

    /// Closes an array.
    fn end_array(&mut self) {
        self.close(']');
    }

    fn open(&mut self, c: char) {
        self.out.push(c);
        self.depth += 1;
        self.fresh = true;
    }

    fn member(&mut self) {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
        self.newline();
    }

    fn colon(&mut self) {
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    fn close(&mut self, c: char) {
        self.depth -= 1;
        if !self.fresh {
            self.newline();
        }
        self.fresh = false;
        self.out.push(c);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', 2 * self.depth));
        }
    }
}

/// The tag of an enum value: a bare string names a unit variant, the key
/// of a one-entry object a newtype variant (whose value follows).
pub enum Variant<'a> {
    /// `"Name"`.
    Unit(Cow<'a, str>),
    /// `{"Name": ...`, with the cursor on the value.
    Newtype(Cow<'a, str>),
}

/// A JSON number as the text spells it.
#[derive(Clone, Copy)]
enum Number {
    UInt(u64),
    Int(i64),
    Float(f64),
}

/// The input side of the codec: a cursor over one JSON text. Strings
/// without escapes and object keys are borrowed from the input, numbers
/// are read as slices of it.
pub struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Parses one complete document as `T` (trailing non-whitespace is an
    /// error).
    pub fn document<T: Deserialize>(json: &'a str) -> Result<T, DeError> {
        let mut p = Parser {
            src: json,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value::<T>()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters"));
        }
        value
    }

    /// Reads one value as `T`. The outer error is a syntax error, which
    /// ends the read. The inner one is a shape error: the cursor is then
    /// put back after the value, which has been syntax-checked all the
    /// same, so the caller can go on looking for a syntax error that
    /// takes precedence.
    pub fn value<T: Deserialize>(&mut self) -> Result<Result<T, DeError>, DeError> {
        let (pos, depth) = (self.pos, self.depth);
        match T::read_json(self) {
            Ok(v) => Ok(Ok(v)),
            Err(e) if e.syntax => Err(e),
            Err(e) => {
                self.pos = pos;
                self.depth = depth;
                self.skip_value()?;
                Ok(Err(e))
            }
        }
    }

    /// Opens an object of type `ty` and reads its first key, or `None`
    /// for `{}`.
    pub fn begin_object(&mut self, ty: &str) -> Result<Option<Cow<'a, str>>, DeError> {
        if self.open(b'{', b'}', "object", ty)? {
            self.key().map(Some)
        } else {
            Ok(None)
        }
    }

    /// After a member's value: reads the next key, or closes the object
    /// and returns `None`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        if self.next(b'}')? {
            self.key().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Reads the tag of an enum of type `ty`.
    pub fn begin_variant(&mut self, ty: &str) -> Result<Variant<'a>, DeError> {
        match self.peek() {
            Some(b'"') => self.string().map(Variant::Unit),
            Some(b'{') => match self.begin_object(ty)? {
                Some(tag) => Ok(Variant::Newtype(tag)),
                None => Err(DeError::expected("string or 1-entry object", ty, "object")),
            },
            _ => Err(self.unexpected("string or 1-entry object", ty)),
        }
    }

    /// Closes a newtype variant's object after its value was read into
    /// `inner`; an object with more than one entry is a shape error.
    pub fn end_variant<T>(&mut self, ty: &str, inner: Result<T, DeError>) -> Result<T, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                inner
            }
            Some(b',') => Err(DeError::expected("string or 1-entry object", ty, "object")),
            _ => Err(self.err("expected ',' or '}'")),
        }
    }

    /// Syntax-checks one value and moves past it.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(b'{') => {
                let mut key = self.begin_object("")?;
                while key.is_some() {
                    self.skip_value()?;
                    key = self.next_key()?;
                }
                Ok(())
            }
            Some(b'[') => {
                let mut more = self.open(b'[', b']', "array", "")?;
                while more {
                    self.skip_value()?;
                    more = self.next(b']')?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Opens an array or object (`open` / `close` are its brackets) where
    /// type `ty` wants `what`; false when it is empty, and so closed.
    fn open(&mut self, open: u8, close: u8, what: &str, ty: &str) -> Result<bool, DeError> {
        if self.peek() != Some(open) {
            return Err(self.unexpected(what, ty));
        }
        self.enter()?;
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After a member of the container `close` ends: true when another
    /// member follows (the cursor on it), false once the container is
    /// closed.
    fn next(&mut self, close: u8) -> Result<bool, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.err(&format!("expected ',' or '{}'", close as char))),
        }
    }

    /// Reads a member key and its colon, leaving the cursor on the value.
    fn key(&mut self) -> Result<Cow<'a, str>, DeError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Goes one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), DeError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn err(&self, msg: &str) -> DeError {
        DeError {
            msg: format!("{msg} at byte {}", self.pos),
            syntax: true,
        }
    }

    /// The shape error for a value that is not `what`, naming what it is.
    fn unexpected(&mut self, what: &str, context: &str) -> DeError {
        let found = match self.peek() {
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let pos = self.pos;
                let found = match self.number() {
                    Ok(Number::UInt(_) | Number::Int(_)) => "integer",
                    _ => "number",
                };
                self.pos = pos;
                found
            }
            // Not a value at all: the syntax check that follows every
            // shape error reports it.
            _ => "nothing",
        };
        DeError::expected(what, context, found)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), DeError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Reads a string literal: borrowed from the input when it holds no
    /// escape, else decoded run by run.
    fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let run_end = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(bytes.len(), |n| from + n)
        };
        // `"` and `\` are ASCII, so every run ends on a character boundary.
        self.pos = run_end(start);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut s = String::from(&self.src[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => s.push(self.unicode_escape()?),
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    let from = self.pos;
                    self.pos = run_end(from);
                    s.push_str(&self.src[from..self.pos]);
                }
            }
        }
    }

    /// The character of a `\u` escape (the `\u` already read), a
    /// surrogate pair included.
    fn unicode_escape(&mut self) -> Result<char, DeError> {
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid \\u escape"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self.src.get(self.pos..self.pos + 4).ok_or_else(|| {
            self.err(if self.pos + 4 > self.src.len() {
                "truncated \\u escape"
            } else {
                "bad \\u escape"
            })
        })?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Reads a number token: an integer when it has no fraction or
    /// exponent and fits `u64` (`i64` when negative), else a float. The
    /// token is scanned once, then parsed once as the type its shape
    /// names.
    fn number(&mut self) -> Result<Number, DeError> {
        let bytes = self.src.as_bytes();
        let digits = |at: &mut usize| {
            while bytes.get(*at).is_some_and(u8::is_ascii_digit) {
                *at += 1;
            }
        };
        let start = self.pos;
        let mut end = start + usize::from(bytes.get(start) == Some(&b'-'));
        digits(&mut end);
        let mut integral = true;
        if bytes.get(end) == Some(&b'.') {
            integral = false;
            end += 1;
            digits(&mut end);
        }
        if matches!(bytes.get(end), Some(b'e' | b'E')) {
            integral = false;
            end += 1;
            if matches!(bytes.get(end), Some(b'+' | b'-')) {
                end += 1;
            }
            digits(&mut end);
        }
        self.pos = end;
        // Only ASCII was scanned, so `end` is a character boundary.
        let text = &self.src[start..end];
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if integral {
            let int = if text.starts_with('-') {
                text.parse().map(Number::Int).ok()
            } else {
                text.parse().map(Number::UInt).ok()
            };
            if let Some(n) = int {
                return Ok(n);
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("malformed number"))
    }

    /// Reads a number for a numeric type named `ty` that wants `what`.
    fn number_for(&mut self, what: &str, ty: &str) -> Result<Number, DeError> {
        match self.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.unexpected(what, ty)),
        }
    }
}

/// The value of a struct field after its object was read: the first
/// occurrence's result, or a missing-field error.
pub fn field<T>(slot: Option<Result<T, DeError>>, ty: &str, key: &str) -> Result<T, DeError> {
    match slot {
        Some(Ok(v)) => Ok(v),
        Some(Err(e)) => Err(DeError::shape(format!("{ty}.{key}: {e}"))),
        None => Err(DeError::shape(format!("{ty}: missing field '{key}'"))),
    }
}

impl Serialize for bool {
    fn write_json(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        match p.peek() {
            Some(b't') => p.literal("true").map(|()| true),
            Some(b'f') => p.literal("false").map(|()| false),
            _ => Err(p.unexpected("bool", "bool")),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
                const TY: &str = stringify!($t);
                let (v, found) = match p.number_for("unsigned integer", TY)? {
                    Number::UInt(u) => (<$t>::try_from(u).ok(), "integer"),
                    Number::Int(i) => (
                        u64::try_from(i).ok().and_then(|u| <$t>::try_from(u).ok()),
                        "integer",
                    ),
                    Number::Float(_) => (None, "number"),
                };
                v.ok_or_else(|| DeError::expected("unsigned integer", TY, found))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
                const TY: &str = stringify!($t);
                let (v, found) = match p.number_for("integer", TY)? {
                    Number::UInt(u) => (
                        i64::try_from(u).ok().and_then(|i| <$t>::try_from(i).ok()),
                        "integer",
                    ),
                    Number::Int(i) => (<$t>::try_from(i).ok(), "integer"),
                    Number::Float(_) => (None, "number"),
                };
                v.ok_or_else(|| DeError::expected("integer", TY, found))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut Writer) {
                w.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
                Ok(match p.number_for("number", stringify!($t))? {
                    Number::UInt(u) => u as $t,
                    Number::Int(i) => i as $t,
                    Number::Float(f) => f as $t,
                })
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        if p.peek() != Some(b'"') {
            return Err(p.unexpected("string", "String"));
        }
        p.string().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        let mut more = p.open(b'[', b']', "array", "Vec")?;
        while more {
            items.push(T::read_json(p)?);
            more = p.next(b']')?;
        }
        Ok(items)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(t) => t.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        if p.peek() == Some(b'n') {
            p.literal("null").map(|()| None)
        } else {
            T::read_json(p).map(Some)
        }
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            w.key_with(|w| k.write_json(w));
            v.write_json(w);
        }
        w.end_object();
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        let mut entries = Vec::new();
        let mut more = p.open(b'{', b'}', "object", "BTreeMap")?;
        while more {
            // The key is read as a `K` straight from its string literal;
            // the literal is decoded again only to name a rejected key.
            let start = p.pos;
            if p.peek() != Some(b'"') {
                return Err(p.err("expected '\"'"));
            }
            let key = match K::read_json(p) {
                Ok(key) => key,
                Err(e) if e.syntax => return Err(e),
                Err(e) => {
                    p.pos = start;
                    let raw = p.string()?;
                    return Err(DeError::shape(format!("map key '{raw}': {e}")));
                }
            };
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            entries.push((key, V::read_json(p)?));
            more = p.next(b'}')?;
        }
        // Sorted bulk build; of equal keys the last one stays.
        Ok(entries.into_iter().collect())
    }
}

impl Serialize for Value {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.i64(*i),
            Value::UInt(u) => w.u64(*u),
            Value::Float(f) => w.f64(*f),
            Value::Str(s) => w.str(s),
            Value::Array(items) => items.write_json(w),
            Value::Object(entries) => {
                w.begin_object();
                for (k, v) in entries {
                    w.key(k);
                    v.write_json(w);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn read_json(p: &mut Parser<'_>) -> Result<Self, DeError> {
        match p.peek() {
            Some(b'{') => {
                let mut entries = Vec::new();
                let mut key = p.begin_object("")?;
                while let Some(k) = key {
                    entries.push((k.into_owned(), Value::read_json(p)?));
                    key = p.next_key()?;
                }
                Ok(Value::Object(entries))
            }
            Some(b'[') => Vec::read_json(p).map(Value::Array),
            Some(b'"') => p.string().map(|s| Value::Str(s.into_owned())),
            Some(b't' | b'f') => bool::read_json(p).map(Value::Bool),
            Some(b'n') => p.literal("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(match p.number()? {
                Number::UInt(u) => Value::UInt(u),
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            }),
            _ => Err(p.err("expected a JSON value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        let s: String = Parser::document(r#""\uD83D\uDE00""#).unwrap();
        assert_eq!(s, "😀");
        for text in [r#""\uD800\u0041""#, r#""\uD800\uE000""#] {
            let err = Parser::document::<String>(text).unwrap_err();
            assert_eq!(err.to_string(), "invalid \\u escape at byte 13", "{text}");
        }
    }

    #[test]
    fn raw_text_is_spliced_verbatim() {
        struct Spliced(String);
        impl Serialize for Spliced {
            fn write_json(&self, w: &mut Writer) {
                w.raw(&self.0);
            }
        }
        let value = vec![Value::UInt(1), Value::Str("q\"uote".into())];
        let text = Writer::document(&value, false);
        let spliced = vec![Spliced(text.clone()), Spliced(text.clone())];
        assert_eq!(
            Writer::document(&spliced, false),
            format!("[{text},{text}]")
        );
    }

    #[test]
    fn shape_errors_yield_to_a_later_syntax_error() {
        // `"x"` is no `u64` (a shape error), but the document is cut
        // short further on: the syntax error is what is reported.
        let err = Parser::document::<Vec<u64>>("[1, \"x\", 3").unwrap_err();
        assert!(err.syntax, "{err}");
        assert_eq!(err.to_string(), "expected ',' or ']' at byte 10");
        let err = Parser::document::<Vec<u64>>("[1, \"x\", 3]").unwrap_err();
        assert!(!err.syntax);
        assert_eq!(
            err.to_string(),
            "u64: expected unsigned integer, found string"
        );
    }
}
