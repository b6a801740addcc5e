//! The workspace's one JSON codec: a value type, a deterministic
//! compact writer and a depth-bounded parser.
//!
//! Every JSON format the reproduction reads back goes through it — the
//! `sdo-serve` wire protocol and result store, the
//! [`EventTrace`](crate::EventTrace) JSONL stream, and the
//! `sdo-analyze` / `sdo-verify` reports. The dialect is standard JSON
//! with one restriction: every number is an unsigned 64-bit integer.
//! The simulator's statistics are exact counters and must survive a
//! round trip bit-for-bit (floats would silently round above 2^53), so
//! the parser rejects fractions, exponents and negative numbers. The
//! write-only metrics snapshots, which carry float means, keep their
//! own renderer.
//!
//! The writer is deterministic — objects keep insertion order, strings
//! escape `"`, `\` and every control character — so equal values render
//! to equal bytes and a rendered value is always exactly one line.

/// A parsed JSON value. Numbers are unsigned 64-bit integers only (see
/// the module docs for why floats are rejected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (the writer is
    /// deterministic, which the `RunKey` hash relies on).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as compact single-line JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the [`render`](Json::render)ing of the value to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => write_u64(*n, out),
            Json::Str(s) => write_json_string(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required `u64` field of an object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::UInt(n)) => Ok(*n),
            Some(_) => Err(format!("field '{key}' is not an integer")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// A required `bool` field of an object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field '{key}' is not a bool")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// A required string field of an object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            Some(_) => Err(format!("field '{key}' is not a string")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// A required object field of an object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn obj_field(&self, key: &str) -> Result<&Json, String> {
        match self.get(key) {
            Some(o @ Json::Obj(_)) => Ok(o),
            Some(_) => Err(format!("field '{key}' is not an object")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    /// A required array field of an object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            Some(_) => Err(format!("field '{key}' is not an array")),
            None => Err(format!("missing field '{key}'")),
        }
    }
}

/// Appends `n` in decimal, formatted in a stack buffer.
fn write_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value from `input` (trailing whitespace allowed,
/// trailing garbage is an error).
///
/// # Errors
///
/// Returns a byte-offset-annotated message on malformed input.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum container nesting the parser accepts. The recursion in
/// [`parse_value`] is one frame per level, so without a bound a client
/// line of tens of thousands of `[` would overflow the daemon's stack —
/// an abort, not the typed error malformed input is contracted to get.
/// Real messages nest 4 deep.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            // Most arrays are `[addr, byte]` data pairs: room for two
            // rather than the default first growth to four halves each
            // pair's allocation, and a large image has ~100k of them.
            let mut items = Vec::with_capacity(2);
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            // `None` once the value overflows; the digits are still
            // consumed so a fraction or exponent is reported first.
            let mut value = Some(0u64);
            while let Some(&d) = bytes.get(*pos).filter(|d| d.is_ascii_digit()) {
                value = value
                    .and_then(|v| v.checked_mul(10))
                    .and_then(|v| v.checked_add(u64::from(d - b'0')));
                *pos += 1;
            }
            if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
                return Err(format!(
                    "non-integer number at byte {start} (the protocol carries exact counters only)"
                ));
            }
            value.map(Json::UInt).ok_or_else(|| format!("integer out of range at byte {start}"))
        }
        Some(b'-') => Err(format!("negative number at byte {pos} (unsigned counters only)")),
        Some(c) => Err(format!("unexpected byte '{}' at {pos}", *c as char)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let c = char::from_u32(u32::from(code))
                            .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                        out.push(c);
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash as one
                // slice (multi-byte sequences pass through unmodified).
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], start: usize) -> Result<u16, String> {
    if start + 4 > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[start..start + 4])
        .map_err(|_| "invalid \\u escape".to_string())?;
    u16::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())
}

/// An object from `(key, value)` pairs, in the given (rendered) order.
#[must_use]
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_values() {
        let v = obj(vec![
            ("a", Json::UInt(u64::MAX)),
            ("b", Json::Str("line\n\"quoted\"\\\u{1}".to_string())),
            ("c", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)])),
            ("d", obj(vec![("nested", Json::UInt(0))])),
        ]);
        let text = v.render();
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn strings_round_trip_through_escapes_runs_and_multibyte_utf8() {
        let cases = [
            "",
            "plain ascii run",
            "a\"b\\c\nd\re\tf\u{1}g\u{1f}h",
            "é",
            "🙂",
            "mixed é run \"quoted\" 🙂\\tail\u{7f}",
            "\u{0}\u{8}\u{c}\n\n\"\"\\\\",
            "   0: li r1, 4096\n   1: halt\n",
        ];
        for s in cases {
            let mut text = String::new();
            write_json_string(s, &mut text);
            assert_eq!(parse_json(&text).unwrap(), Json::Str(s.to_string()), "{text}");
        }
        // The escapes themselves are pinned: stored entries and RunKeys
        // hash these bytes.
        let mut text = String::new();
        write_json_string("a\"b\\c\nd\re\tf\u{1}g\u{1f}é🙂", &mut text);
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fé🙂\"");
        // Escapes the writer never emits still decode.
        assert_eq!(
            parse_json("\"\\/\\b\\f\\u00e9x\"").unwrap(),
            Json::Str("/\u{8}\u{c}éx".to_string())
        );
    }

    #[test]
    fn integers_render_and_parse_exactly() {
        for n in [0, 7, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX / 10, u64::MAX] {
            assert_eq!(Json::UInt(n).render(), n.to_string());
            assert_eq!(parse_json(&n.to_string()).unwrap(), Json::UInt(n));
        }
        assert_eq!(parse_json("0").unwrap(), Json::UInt(0));
        assert_eq!(parse_json("007").unwrap(), Json::UInt(7));
        assert_eq!(parse_json("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(
            parse_json("18446744073709551616").unwrap_err(),
            "integer out of range at byte 0"
        );
        assert_eq!(
            parse_json("[1,99999999999999999999999]").unwrap_err(),
            "integer out of range at byte 3"
        );
        for float in ["1.5", "1e3", "18446744073709551616.5"] {
            assert_eq!(
                parse_json(float).unwrap_err(),
                "non-integer number at byte 0 (the protocol carries exact counters only)"
            );
        }
    }

    #[test]
    fn parser_rejects_floats_and_garbage() {
        assert!(parse_json("1.5").unwrap_err().contains("non-integer"));
        assert!(parse_json("1e3").unwrap_err().contains("non-integer"));
        assert!(parse_json("-2").unwrap_err().contains("negative"));
        assert!(parse_json("{\"a\":1} x").unwrap_err().contains("trailing"));
        assert!(parse_json("{\"a\"").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn parser_bounds_nesting_instead_of_overflowing_the_stack() {
        // A hostile line of 100k brackets must come back as a typed
        // error, not recurse once per bracket and abort the process.
        for hostile in ["[".repeat(100_000), "{\"k\":".repeat(100_000)] {
            assert!(parse_json(&hostile).unwrap_err().contains("nesting deeper"));
        }
        // Nesting at the bound still parses (depth counts containers).
        let ok = format!("{}0{}", "[".repeat(128), "]".repeat(128));
        assert!(parse_json(&ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(129), "]".repeat(129));
        assert!(parse_json(&too_deep).unwrap_err().contains("nesting deeper"));
    }
}
