//! A small, dependency-free JSON value type with a writer and a
//! strict recursive-descent parser.
//!
//! The container image carries no external crates, so the harness
//! rolls its own serialization. Design points that matter here:
//!
//! - Objects preserve insertion order (`Vec<(String, Json)>`), so
//!   serialization is deterministic — the sweep runner's
//!   parallel-equals-serial guarantee is checked on the emitted bytes.
//! - Integers are kept distinct from floats (`i64`/`u64` vs `f64`),
//!   so cycle counts round-trip exactly.
//! - Floats are written with Rust's shortest-roundtrip `Display`,
//!   which re-parses to the identical `f64`.
//! - Every record codec goes through this module: `From` impls decide
//!   how a Rust value is written, [`FromJson`] how it is read back,
//!   and [`Json::req`] / [`Json::opt`] what a missing or mistyped
//!   field says.

use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integer (covers final-memory words).
    Int(i64),
    /// Unsigned integer (covers cycle counts).
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object; panics on non-objects (builder
    /// misuse, not data-dependent).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on non-object"),
        }
        self
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Read the required field `key` as a `T`. An absent field is an
    /// error unless `T` is an `Option`; errors name the key.
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| format!("field {key:?}: {e}")),
            None => T::absent().ok_or_else(|| format!("missing field {key:?}")),
        }
    }

    /// Read the optional field `key`: absent and `null` both give
    /// `None`.
    pub fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        self.req(key)
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) if v <= i64::MAX as u64 => Some(v as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(v) => Some(v),
            Json::Int(v) => Some(v as f64),
            Json::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// What a mistyped value was, for [`FromJson`] errors.
    fn describe(&self) -> String {
        match self {
            Json::Str(_) => "a string".into(),
            Json::Arr(_) => "an array".into(),
            Json::Obj(_) => "an object".into(),
            scalar => scalar.to_string_compact(),
        }
    }

    /// Canonical form: every object's fields sorted by key,
    /// recursively (arrays keep their order — element order is
    /// semantically significant). Two documents that differ only in
    /// field order canonicalize to identical values, so their compact
    /// serializations — and therefore their content hashes — agree.
    pub fn canonicalize(self) -> Json {
        match self {
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::canonicalize).collect()),
            Json::Obj(fields) => {
                let mut fields: Vec<(String, Json)> = fields
                    .into_iter()
                    .map(|(k, v)| (k, v.canonicalize()))
                    .collect();
                fields.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(fields)
            }
            other => other,
        }
    }

    /// Compact serialization (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Pretty serialization, two-space indent.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                if *v < 0 {
                    out.push('-');
                }
                write_u64(out, v.unsigned_abs());
            }
            Json::UInt(v) => write_u64(out, *v),
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// `v` in decimal, the bytes `Display` writes, by a digit loop: a
/// serialized report is mostly memory words, and `write!` costs about
/// three times as much per integer.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(d as char);
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let mut s = String::new();
        let _ = write!(s, "{v}");
        // `Display` omits ".0" on integral floats; keep the float/int
        // distinction visible so round-trips preserve the variant.
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        out.push_str(&s);
    } else {
        // JSON has no Inf/NaN; null is the conventional stand-in.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Parse a JSON document; rejects trailing garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
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
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let start = *pos;
                let len = utf8_len(bytes[start]);
                let chunk = bytes
                    .get(start..start + len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            // Non-negative integers parse back as UInt so u64 fields
            // round-trip through their own variant.
            return Ok(if v >= 0 {
                Json::UInt(v as u64)
            } else {
                Json::Int(v)
            });
        }
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("invalid number {text:?}: {e}"))
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
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
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}
/// `None` is written as `null`. Records that leave an absent value
/// out of the object instead skip the field themselves.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// A Rust value read back from one JSON value: the decoding half of
/// the `From<T> for Json` impls above.
pub trait FromJson<'a>: Sized {
    /// Convert `json`, or say what was expected and what was found.
    fn from_json(json: &'a Json) -> Result<Self, String>;

    /// The value of an absent field; `None` makes absence an error.
    fn absent() -> Option<Self> {
        None
    }
}

// The error paths are out of line so each decoder stays small enough
// to inline into the loops that read long arrays (memory images).
#[cold]
fn mistyped(expected: &str, found: &Json) -> String {
    format!("expected {expected}, found {}", found.describe())
}

#[cold]
fn in_element(index: usize, err: String) -> String {
    format!("[{index}]: {err}")
}

macro_rules! from_json_scalar {
    ($($t:ty: $what:literal => $read:expr;)*) => {$(
        impl FromJson<'_> for $t {
            fn from_json(json: &Json) -> Result<$t, String> {
                ($read)(json).ok_or_else(|| mistyped($what, json))
            }
        }
    )*};
}

from_json_scalar! {
    u64: "u64" => Json::as_u64;
    i64: "i64" => Json::as_i64;
    u32: "u32" => |j: &Json| j.as_u64().and_then(|v| u32::try_from(v).ok());
    usize: "usize" => |j: &Json| j.as_u64().and_then(|v| usize::try_from(v).ok());
    f64: "a number" => Json::as_f64;
    bool: "a bool" => Json::as_bool;
    String: "a string" => |j: &Json| j.as_str().map(str::to_string);
}

impl<'a> FromJson<'a> for &'a str {
    fn from_json(json: &'a Json) -> Result<&'a str, String> {
        json.as_str().ok_or_else(|| mistyped("a string", json))
    }
}

/// Any value, left as JSON: a nested record with its own decoder, or
/// an opaque payload such as a spec carried through a frame.
impl<'a> FromJson<'a> for &'a Json {
    fn from_json(json: &'a Json) -> Result<&'a Json, String> {
        Ok(json)
    }
}

/// `null` reads as `None`, and so does an absent field.
impl<'a, T: FromJson<'a>> FromJson<'a> for Option<T> {
    fn from_json(json: &'a Json) -> Result<Option<T>, String> {
        match json {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }

    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(json: &'a Json) -> Result<Vec<T>, String> {
        let items = json.as_arr().ok_or_else(|| mistyped("an array", json))?;
        // A loop, not `collect`: collecting `Result`s loses the length
        // hint, and a memory image would regrow its vector ~15 times.
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(T::from_json(item).map_err(|e| in_element(i, e))?);
        }
        Ok(out)
    }
}

/// An object read as its `(key, value)` pairs, in document order.
impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<(String, T)> {
    fn from_json(json: &'a Json) -> Result<Vec<(String, T)>, String> {
        let Json::Obj(fields) = json else {
            return Err(mistyped("an object", json));
        };
        fields
            .iter()
            .map(|(k, v)| {
                Ok((
                    k.clone(),
                    T::from_json(v).map_err(|e| format!("{k:?}: {e}"))?,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let doc = Json::obj()
            .field("name", "sweep \"x\"\n")
            .field("cycles", u64::MAX)
            .field("word", -42i64)
            .field("frac", 0.1875f64)
            .field("flag", true)
            .field("none", Json::Null)
            .field("rows", Json::Arr(vec![Json::UInt(1), Json::Int(-2)]));
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            let back = parse(&text).unwrap();
            assert_eq!(back.to_string_compact(), doc.to_string_compact());
        }
    }

    #[test]
    fn integers_write_as_display_does() {
        for v in [i64::MIN, -1, 0, 9, 10, i64::MAX] {
            assert_eq!(Json::Int(v).to_string_compact(), v.to_string());
        }
        for v in [0, 9, 10, i64::MAX as u64, u64::MAX] {
            assert_eq!(Json::UInt(v).to_string_compact(), v.to_string());
        }
    }

    #[test]
    fn u64_max_survives() {
        let text = Json::UInt(u64::MAX).to_string_compact();
        assert_eq!(parse(&text).unwrap(), Json::UInt(u64::MAX));
    }

    #[test]
    fn float_display_is_reparsable() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 12345.6789] {
            let text = Json::Num(v).to_string_compact();
            match parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back, v),
                other => panic!("float reparsed as {other:?}"),
            }
        }
        // Integral floats keep their ".0" marker.
        assert_eq!(Json::Num(2.0).to_string_compact(), "2.0");
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let a = parse(r#"{"b":{"y":1,"x":2},"a":[{"q":1,"p":2}]}"#).unwrap();
        let b = parse(r#"{"a":[{"p":2,"q":1}],"b":{"x":2,"y":1}}"#).unwrap();
        assert_eq!(
            a.canonicalize().to_string_compact(),
            b.canonicalize().to_string_compact()
        );
        // Arrays keep element order: [1,2] and [2,1] stay distinct.
        let c = parse("[1,2]").unwrap().canonicalize();
        assert_eq!(c.to_string_compact(), "[1,2]");
    }

    #[test]
    fn typed_fields_name_the_key_in_every_error() {
        let doc = parse(r#"{"n":7,"big":4294967296,"s":"x","nul":null,"xs":[1,"two"]}"#).unwrap();
        assert_eq!(doc.req::<u64>("n"), Ok(7));
        assert_eq!(doc.req::<&str>("s"), Ok("x"));
        assert_eq!(doc.req::<u32>("big").ok(), None);

        let missing = doc.req::<u64>("gone").unwrap_err();
        assert!(missing.contains("\"gone\""), "{missing}");
        let mistyped = doc.req::<u64>("s").unwrap_err();
        assert!(
            mistyped.contains("\"s\"") && mistyped.contains("u64"),
            "{mistyped}"
        );
        let out_of_range = doc.req::<u32>("big").unwrap_err();
        assert!(
            out_of_range.contains("\"big\"") && out_of_range.contains("u32"),
            "{out_of_range}"
        );
        let element = doc.req::<Vec<u64>>("xs").unwrap_err();
        assert!(
            element.contains("\"xs\"") && element.contains("[1]"),
            "{element}"
        );
    }

    #[test]
    fn optional_fields_read_absent_and_null_as_none() {
        let doc = parse(r#"{"nul":null,"n":3,"s":"x"}"#).unwrap();
        assert_eq!(doc.opt::<u64>("gone"), Ok(None));
        assert_eq!(doc.opt::<u64>("nul"), Ok(None));
        assert_eq!(doc.opt::<u64>("n"), Ok(Some(3)));
        assert_eq!(doc.req::<Option<u64>>("gone"), Ok(None));
        // Present but mistyped is still an error, naming the key.
        let err = doc.opt::<u64>("s").unwrap_err();
        assert!(err.contains("\"s\""), "{err}");
        // A required non-Option field that is null is mistyped.
        let err = doc.req::<u64>("nul").unwrap_err();
        assert!(err.contains("\"nul\"") && err.contains("null"), "{err}");
    }

    #[test]
    fn options_and_slices_write_through_from() {
        assert_eq!(Json::from(None::<u64>), Json::Null);
        assert_eq!(Json::from(Some(-2i64)), Json::Int(-2));
        let words: &[i64] = &[1, -1];
        assert_eq!(Json::from(words).to_string_compact(), "[1,-1]");
        assert_eq!(
            Json::from(vec!["a", "b"]).to_string_compact(),
            r#"["a","b"]"#
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("").is_err());
    }
}
