//! A minimal, dependency-free JSON reader/writer for the subset this
//! crate emits: objects, arrays, strings, and unsigned integers.
//!
//! The sink side ([`crate::jsonl`], [`crate::registry`]) only ever
//! writes that subset, and the parse side exists solely to read those
//! artifacts back (per-shard `metrics-<k>.jsonl` files during a
//! campaign merge), so floats, booleans and `null` are deliberately
//! out of scope for parsing — encountering one is a format error.

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// sinks emit at most five levels (`metrics.json`: object → metrics →
/// metric → buckets → pair); the limit turns hostile input that would
/// overflow the stack of the recursive descent into a [`JsonError`].
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value (the emitted subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A string literal.
    Str(String),
    /// An unsigned integer (the only number kind the sinks emit).
    Num(u64),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A JSON syntax error with a byte offset into the parsed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value spanning the whole input (surrounding
/// whitespace allowed). Arrays and objects may nest at most
/// [`MAX_DEPTH`] levels deep; deeper input is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let b = text.as_bytes();
    let mut pos = skip_ws(b, 0);
    let (v, next) = parse_value(b, pos, 0)?;
    pos = skip_ws(b, next);
    if pos != b.len() {
        return Err(err(pos, "trailing data after value"));
    }
    Ok(v)
}

fn err(at: usize, msg: &str) -> JsonError {
    JsonError {
        at,
        msg: msg.to_string(),
    }
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && matches!(b[i], b' ' | b'\t' | b'\r' | b'\n') {
        i += 1;
    }
    i
}

/// Parses the value at `i`, which sits inside `depth` arrays and
/// objects.
fn parse_value(b: &[u8], i: usize, depth: usize) -> Result<(JsonValue, usize), JsonError> {
    match b.get(i) {
        Some(b'"') => {
            let (s, n) = parse_string(b, i)?;
            Ok((JsonValue::Str(s), n))
        }
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            i,
            &format!("arrays and objects nest deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(b, i, depth + 1),
        Some(b'[') => parse_array(b, i, depth + 1),
        Some(c) if c.is_ascii_digit() => parse_number(b, i),
        Some(_) => Err(err(i, "expected string, number, object or array")),
        None => Err(err(i, "unexpected end of input")),
    }
}

fn parse_number(b: &[u8], i: usize) -> Result<(JsonValue, usize), JsonError> {
    let mut j = i;
    let mut n: u64 = 0;
    while j < b.len() && b[j].is_ascii_digit() {
        let d = (b[j] - b'0') as u64;
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add(d))
            .ok_or_else(|| err(i, "integer overflows u64"))?;
        j += 1;
    }
    if j == i {
        return Err(err(i, "expected digits"));
    }
    if j < b.len() && matches!(b[j], b'.' | b'e' | b'E') {
        return Err(err(j, "floats are outside the emitted subset"));
    }
    Ok((JsonValue::Num(n), j))
}

fn parse_string(b: &[u8], i: usize) -> Result<(String, usize), JsonError> {
    debug_assert_eq!(b.get(i), Some(&b'"'));
    let mut out = String::new();
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'"' => return Ok((out, j + 1)),
            b'\\' => {
                let esc = b.get(j + 1).ok_or_else(|| err(j, "dangling escape"))?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(j + 2..j + 6)
                            .ok_or_else(|| err(j, "truncated \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err(j, "bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        j += 4;
                    }
                    _ => return Err(err(j, "unsupported escape")),
                }
                j += 2;
            }
            c if c < 0x80 => {
                out.push(c as char);
                j += 1;
            }
            _ => {
                // Multi-byte UTF-8: copy the whole scalar.
                let s =
                    std::str::from_utf8(&b[j..]).map_err(|_| err(j, "invalid utf-8 in string"))?;
                let ch = match s.chars().next() {
                    Some(ch) => ch,
                    None => return Err(err(j, "unterminated string")),
                };
                out.push(ch);
                j += ch.len_utf8();
            }
        }
    }
    Err(err(i, "unterminated string"))
}

fn parse_array(b: &[u8], i: usize, depth: usize) -> Result<(JsonValue, usize), JsonError> {
    debug_assert_eq!(b.get(i), Some(&b'['));
    let mut items = Vec::new();
    let mut j = skip_ws(b, i + 1);
    if b.get(j) == Some(&b']') {
        return Ok((JsonValue::Arr(items), j + 1));
    }
    loop {
        let (v, n) = parse_value(b, j, depth)?;
        items.push(v);
        j = skip_ws(b, n);
        match b.get(j) {
            Some(b',') => j = skip_ws(b, j + 1),
            Some(b']') => return Ok((JsonValue::Arr(items), j + 1)),
            _ => return Err(err(j, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], i: usize, depth: usize) -> Result<(JsonValue, usize), JsonError> {
    debug_assert_eq!(b.get(i), Some(&b'{'));
    let mut fields = Vec::new();
    let mut j = skip_ws(b, i + 1);
    if b.get(j) == Some(&b'}') {
        return Ok((JsonValue::Obj(fields), j + 1));
    }
    loop {
        if b.get(j) != Some(&b'"') {
            return Err(err(j, "expected object key"));
        }
        let (k, n) = parse_string(b, j)?;
        j = skip_ws(b, n);
        if b.get(j) != Some(&b':') {
            return Err(err(j, "expected ':'"));
        }
        j = skip_ws(b, j + 1);
        let (v, n) = parse_value(b, j, depth)?;
        fields.push((k, v));
        j = skip_ws(b, n);
        match b.get(j) {
            Some(b',') => j = skip_ws(b, j + 1),
            Some(b'}') => return Ok((JsonValue::Obj(fields), j + 1)),
            _ => return Err(err(j, "expected ',' or '}'")),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let v = parse(r#"{"a": 3, "b": "x\"y", "c": [[1, 2], []]}"#).unwrap();
        assert_eq!(v.get("a").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(v.get("b").and_then(|v| v.as_str()), Some("x\"y"));
        let c = v.get("c").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].as_arr().map(|a| a.len()), Some(2));
    }

    #[test]
    fn rejects_out_of_subset() {
        assert!(parse("1.5").is_err());
        assert!(parse("true").is_err());
        assert!(parse("null").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("99999999999999999999999").is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd\u{1}é");
        let back = parse(&s).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(100_000);
        assert!(parse(&arrays).is_err());
        let objects = "{\"a\": ".repeat(100_000);
        assert!(parse(&objects).is_err());
        // the limit itself parses; one level more does not
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }
}
