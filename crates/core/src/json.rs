//! The workspace's one JSON module, with no external dependency. Every
//! document the workspace writes — metrics snapshots, flight-recorder
//! dumps, the telemetry routes, Chrome traces, the `BENCH_*.json` files,
//! `repro --json` — goes through the writer ([`document`], [`Fields`]),
//! and everything that reads one back (the bench gates, the benchmark
//! harness, the tests) goes through [`parse`], which takes the full JSON
//! grammar with strict error reporting.
//!
//! The writer makes every encoding decision once: one string escaper
//! ([`write_string`]); `None` and non-finite floats are `null`; floats are
//! Rust's shortest round-trip form (`{}`), with no per-field precision;
//! integers print from their own type, never through `f64`. One layout:
//! the top-level object's members, and the elements of an array that is
//! one of them, each on their own line; everything deeper inline as
//! `{"key": value, ...}`; a newline at the end.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys kept as-is).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for other variants or missing key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, got {:?}",
                b as char,
                self.pos.saturating_sub(1),
                got.map(|g| g as char)
            )),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(members)),
                got => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        got.map(|g| g as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                got => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, got {:?}",
                        self.pos.saturating_sub(1),
                        got.map(|g| g as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err("lone high surrogate".into());
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".into());
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).ok_or("bad surrogate pair")?
                        } else {
                            char::from_u32(cp).ok_or("bad codepoint")?
                        };
                        out.push(c);
                    }
                    other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                },
                Some(c) if c < 0x20 => return Err("raw control char in string".into()),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: re-decode from the source slice.
                    let start = self.pos - 1;
                    let width = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err("invalid utf-8 lead byte".into()),
                    };
                    let end = start + width;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or("truncated utf-8 sequence")?;
                    let s = std::str::from_utf8(slice).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or("truncated \\u escape")?;
            let digit = (d as char).to_digit(16).ok_or("bad hex digit")?;
            v = v * 16 + digit;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

/// A value the writer can encode: strings, booleans, integers, `f64`,
/// `Option` (`None` is `null`), slices and `Vec`s (arrays), and every
/// [`Fields`] type (an object; [`fields!`] writes the common impl).
pub trait Encode {
    /// Writes `self` as one JSON value into `slot`.
    fn encode(&self, slot: Slot<'_>);
}

/// A record type, written as one object: `fields` adds its members.
pub trait Fields {
    /// Adds `self`'s members to `o`, in order.
    fn fields(&self, o: &mut Obj<'_>);
}

/// Implements [`Fields`] for a record whose JSON keys are its field names:
/// `fields!(Type: a, b, c)` writes `{"a": .., "b": .., "c": ..}`, in the
/// order listed.
#[macro_export]
macro_rules! fields {
    ($ty:ident: $($field:ident),+ $(,)?) => {
        impl $crate::json::Fields for $ty {
            fn fields(&self, o: &mut $crate::json::Obj<'_>) {
                $(o.field(stringify!($field), &self.$field);)+
            }
        }
    };
}
pub use crate::fields;

/// Where one value is written: the output and its nesting depth.
pub struct Slot<'a> {
    out: &'a mut String,
    depth: usize,
}

/// An object being written; through [`Arr`], an array's elements.
pub struct Obj<'a> {
    out: &'a mut String,
    depth: usize,
    len: usize,
    /// Each member on its own line (the layout rule's top two levels).
    lines: bool,
}

/// An array being written by [`Obj::array`].
pub struct Arr<'a>(Obj<'a>);

/// A complete document: the top-level object `f` fills, then a newline.
pub fn document(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    Slot {
        out: &mut out,
        depth: 0,
    }
    .object(f);
    out + "\n"
}

/// Appends `s` as a quoted JSON string literal — the one string escaper.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl<'a> Slot<'a> {
    fn object(self, f: impl FnOnce(&mut Obj<'_>)) {
        let lines = self.depth == 0;
        let mut obj = self.open('{', lines);
        f(&mut obj);
        obj.close('}');
    }

    fn array(self, f: impl FnOnce(&mut Arr<'_>)) {
        let lines = self.depth <= 1;
        let mut arr = Arr(self.open('[', lines));
        f(&mut arr);
        arr.0.close(']');
    }

    fn open(self, bracket: char, lines: bool) -> Obj<'a> {
        self.out.push(bracket);
        let (out, depth) = (self.out, self.depth);
        Obj {
            out,
            depth,
            len: 0,
            lines,
        }
    }
}

impl Obj<'_> {
    /// Adds member `key` holding `value`.
    pub fn field(&mut self, key: &str, value: &(impl Encode + ?Sized)) -> &mut Self {
        value.encode(self.key(key));
        self
    }

    /// Adds member `key` holding an object whose members `f` adds.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.key(key).object(f);
        self
    }

    /// Adds member `key` holding an array whose elements `f` adds.
    pub fn array(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        self.key(key).array(f);
        self
    }

    fn key(&mut self, key: &str) -> Slot<'_> {
        let slot = self.next();
        write_string(slot.out, key);
        slot.out.push_str(": ");
        slot
    }

    /// Separates the next member from the previous one.
    fn next(&mut self) -> Slot<'_> {
        if self.len > 0 {
            self.out.push(',');
        }
        if self.lines {
            self.out
                .push_str(&format!("\n{}", "  ".repeat(self.depth + 1)));
        } else if self.len > 0 {
            self.out.push(' ');
        }
        self.len += 1;
        Slot {
            out: self.out,
            depth: self.depth + 1,
        }
    }

    fn close(self, bracket: char) {
        if self.lines && self.len > 0 {
            self.out.push_str(&format!("\n{}", "  ".repeat(self.depth)));
        }
        self.out.push(bracket);
    }
}

impl Arr<'_> {
    /// Appends `value`.
    pub fn item(&mut self, value: &(impl Encode + ?Sized)) -> &mut Self {
        value.encode(self.0.next());
        self
    }

    /// Appends an object whose members `f` adds.
    pub fn object(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        self.0.next().object(f);
        self
    }
}

impl<T: Fields> Encode for T {
    fn encode(&self, slot: Slot<'_>) {
        slot.object(|o| self.fields(o));
    }
}

macro_rules! encode_with {
    ($($t:ty),* => |$v:ident, $out:ident| $write:expr) => {$(
        impl Encode for $t {
            fn encode(&self, slot: Slot<'_>) {
                let ($v, $out) = (self, slot.out);
                let _ = $write;
            }
        }
    )*};
}
encode_with!(str, &str, String => |s, out| write_string(out, s));
encode_with!(bool, u32, u64, usize => |v, out| write!(out, "{v}"));
encode_with!(f64 => |v, out| if v.is_finite() {
    write!(out, "{v}")
} else {
    write!(out, "null")
});

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, slot: Slot<'_>) {
        match self {
            Some(v) => v.encode(slot),
            None => slot.out.push_str("null"),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, slot: Slot<'_>) {
        slot.array(|a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, slot: Slot<'_>) {
        self.as_slice().encode(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":true,"e":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn parses_escaped_surrogate_pair() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("nulla").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
    }

    fn written(s: &str) -> String {
        let mut out = String::new();
        write_string(&mut out, s);
        out
    }

    #[test]
    fn escape_table() {
        for (raw, escaped) in [
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\u{1}", r#""\u0001""#),
            ("\u{1f}", r#""\u001f""#),
            ("a😀b", "\"a😀b\""),
        ] {
            assert_eq!(written(raw), escaped, "{raw:?}");
        }
    }

    #[test]
    fn strings_round_trip_through_the_parser() {
        let ascii: String = (0u8..0x80).map(char::from).collect();
        let mut samples = vec![ascii];
        let mut rng = crate::rng::SplitMix64::new(27);
        let pool = [
            'a', 'Z', '"', '\\', '\n', '\u{0}', '\u{1f}', 'é', '€', '😀', '/', ' ',
        ];
        for _ in 0..200 {
            let len = rng.next_u64() % 24;
            samples.push(
                (0..len)
                    .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize])
                    .collect(),
            );
        }
        for c in (0u8..0x80).map(char::from) {
            samples.push(c.to_string());
        }
        for s in samples {
            assert_eq!(parse(&written(&s)), Ok(Value::Str(s.clone())), "{s:?}");
        }
    }

    #[test]
    fn numbers_nulls_and_empty_containers() {
        let doc = document(|o| {
            o.field("nan", &f64::NAN)
                .field("inf", &f64::INFINITY)
                .field("ninf", &f64::NEG_INFINITY)
                .field("none", &None::<u64>)
                .field("max", &u64::MAX)
                .field("third", &(1.0 / 3.0))
                .field("whole", &100.0)
                .object("empty_obj", |_| {})
                .field("empty_arr", &Vec::<u64>::new());
        });
        assert!(doc.contains("\"max\": 18446744073709551615,"), "{doc}");
        let v = parse(&doc).unwrap();
        for key in ["nan", "inf", "ninf", "none"] {
            assert_eq!(v.get(key), Some(&Value::Null), "{key}");
        }
        assert_eq!(v.get("third").and_then(Value::as_f64), Some(1.0 / 3.0));
        assert_eq!(v.get("whole").and_then(Value::as_f64), Some(100.0));
        assert_eq!(v.get("empty_obj"), Some(&Value::Obj(vec![])));
        assert_eq!(v.get("empty_arr"), Some(&Value::Arr(vec![])));
    }

    #[test]
    fn layout_breaks_lines_only_at_the_top_two_levels() {
        let doc = document(|o| {
            o.object("host", |o| {
                o.field("cpus", &2usize).field("os", "linux");
            });
            o.field("rows", &vec![vec![1u32, 2], vec![]]);
            o.array("none", |_| {});
        });
        assert_eq!(
            doc,
            "{\n  \"host\": {\"cpus\": 2, \"os\": \"linux\"},\n  \
             \"rows\": [\n    [1, 2],\n    []\n  ],\n  \"none\": []\n}\n"
        );
        assert_eq!(document(|_| {}), "{}\n");
    }
}
