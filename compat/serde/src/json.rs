//! The JSON value model shared by the `serde` and `serde_json` shims:
//! an AST, a text renderer, and a recursive-descent parser whose nesting
//! is bounded by [`MAX_DEPTH`].

use std::fmt;

/// An in-memory JSON value.
///
/// Integers keep their exact representation (`U64`/`I64`) so `u64`
/// round-trips are lossless; decimals use `F64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Any number written with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key, or `Null` when absent or when `self` is not
    /// an object.
    #[must_use]
    pub fn get_field(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&Value::Null)
    }

    /// Object member by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index, or `Null` when absent.
    #[must_use]
    pub fn get_index(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&Value::Null),
            _ => &Value::Null,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, accepting integral floats.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) => u64::try_from(n).ok(),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(x) => Some(x),
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders pretty JSON (two-space indent).
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(x) => write_f64(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
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
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
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
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = format!("{x}");
        out.push_str(&s);
        // Keep a syntactic marker that this was a float.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
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

/// JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of arrays and objects that [`parse`] accepts, the
/// same bound as upstream `serde_json`. Each level is a few frames of
/// recursion, so without it a body of `[`s overflows the stack of the
/// thread parsing it, which aborts the whole process.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or arrays
/// and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(err("trailing characters", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> ParseError {
    ParseError {
        message: message.to_string(),
        offset,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let c = *bytes
        .get(*pos)
        .ok_or_else(|| err("unexpected end of input", *pos))?;
    if matches!(c, b'[' | b'{') && depth == MAX_DEPTH {
        let message = format!("arrays and objects nested deeper than {MAX_DEPTH} levels");
        return Err(err(&message, *pos));
    }
    match c {
        b'n' => parse_literal(bytes, pos, "null", Value::Null),
        b't' => parse_literal(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Value::Bool(false)),
        b'"' => parse_string(text, pos).map(Value::Str),
        b'[' => parse_array(text, pos, depth + 1),
        b'{' => parse_object(text, pos, depth + 1),
        b'0'..=b'9' | b'-' => parse_number(text, pos),
        _ => Err(err("unexpected character", *pos)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err("bad literal", *pos))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, ParseError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next `"` or `\` in one step. Both are
        // ASCII, so the run ends on a char boundary of `text`.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| err("unterminated string", bytes.len()))?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
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
                let code = text
                    .get(*pos + 1..*pos + 5)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| err("bad \\u escape", *pos))?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(err("bad escape", *pos)),
        }
        *pos += 1;
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = &text[start..*pos];
    if is_float {
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| err("bad number", start))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Value::I64)
            .map_err(|_| err("bad number", start))
    } else {
        text.parse::<u64>()
            .map(Value::U64)
            .map_err(|_| err("bad number", start))
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(err("expected `,` or `]`", *pos)),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected object key", *pos));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err("expected `:`", *pos));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            _ => return Err(err("expected `,` or `}`", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `levels` arrays (or one-key objects) around a `0`.
    fn nested(open: &str, close: &str, levels: usize) -> String {
        format!("{}0{}", open.repeat(levels), close.repeat(levels))
    }

    #[test]
    fn nesting_is_accepted_up_to_max_depth() {
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            let mut value = parse(&nested(open, close, MAX_DEPTH)).unwrap();
            for _ in 0..MAX_DEPTH {
                value = match value {
                    Value::Array(mut items) => items.remove(0),
                    Value::Object(mut entries) => entries.remove(0).1,
                    other => panic!("expected a container, got {other:?}"),
                };
            }
            assert_eq!(value, Value::U64(0));

            let e = parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(e.offset, open.len() * MAX_DEPTH, "{open}");
            assert!(e.message.contains("128 levels"), "{e}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_on_a_small_stack() {
        let deep = "[".repeat(100_000);
        let result = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&deep))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(result.unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let unit = "a run of plain text, \u{e9}\u{65e5}\u{1f980}, then \"quotes\" and a \\\n";
        let value = Value::Str(unit.repeat((4 << 20) / unit.len()));
        assert_eq!(parse(&value.render_compact()).unwrap(), value);
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\/\r\t\b\fé\u0001""#).unwrap(),
            Value::Str("a\"b\\c\nd/\r\t\u{8}\u{c}\u{e9}\u{1}".to_string())
        );
        for bad in [r#""\x""#, r#""\u12""#, r#""\u12g4""#, r#""open"#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn float_marker_decides_the_number_variant() {
        assert_eq!(parse("2.0").unwrap(), Value::F64(2.0));
        assert_eq!(parse("2").unwrap(), Value::U64(2));
        assert_eq!(parse("-2").unwrap(), Value::I64(-2));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["nope", "1 2", "", "[1,", "{\"a\" 1}", "[1 2]", "-", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// A deterministic stream of canonical values: ones whose rendering
    /// parses back to an equal value.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            // xorshift64*
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }

        fn string(&mut self) -> String {
            const CHARS: [char; 12] = [
                'a',
                'Z',
                '0',
                ' ',
                '"',
                '\\',
                '/',
                '\n',
                '\u{1}',
                '\u{1f}',
                '\u{e9}',
                '\u{1f980}',
            ];
            (0..self.below(8)).map(|_| CHARS[self.below(12)]).collect()
        }

        fn value(&mut self, depth: usize) -> Value {
            match self.below(if depth == 0 { 6 } else { 8 }) {
                0 => Value::Null,
                1 => Value::Bool(self.next() >> 63 == 0),
                2 => Value::U64(self.next() >> self.below(64)),
                3 => Value::I64(-1 - (self.next() >> (1 + self.below(63))) as i64),
                4 => loop {
                    let x = f64::from_bits(self.next());
                    if x.is_finite() {
                        break Value::F64(x);
                    }
                },
                5 => Value::Str(self.string()),
                6 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Value::Object(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    #[test]
    fn rendered_values_parse_back() {
        let mut gen = Gen(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2_000 {
            let value = gen.value(4);
            for text in [value.render_compact(), value.render_pretty()] {
                assert_eq!(parse(&text).unwrap(), value, "{text}");
            }
        }
    }
}
