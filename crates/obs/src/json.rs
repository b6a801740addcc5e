//! The workspace's one JSON codec: a value type, a deterministic
//! compact writer and a depth-bounded parser.
//!
//! The parser is a pull [`Reader`]; [`parse_json`] is the reader
//! building a whole [`Json`] tree. A decoder for a large message (the
//! `sdo-serve` request with its program images) walks the reader
//! directly and builds its typed value in one pass, and a writer for
//! one appends to a `String` with [`write_json_string`] and
//! [`write_u64`]. The reader keeps the tree parser's grammar, nesting
//! bound and error texts; the writers produce the tree writer's bytes.
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
pub fn write_u64(mut n: u64, out: &mut String) {
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

/// Appends `s` as a JSON string: `"`, `\` and control characters are
/// escaped, everything else (multi-byte characters included) is written
/// as raw UTF-8.
pub fn write_json_string(s: &str, out: &mut String) {
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
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Maximum container nesting the parser accepts. The reader recurses
/// once per level, so without a bound a client line of tens of
/// thousands of `[` would overflow the daemon's stack — an abort, not
/// the typed error malformed input is contracted to get. Real messages
/// nest 6 deep.
const MAX_DEPTH: usize = 128;

/// A pull parser over one JSON text: the grammar behind [`parse_json`],
/// exposed so a decoder can walk a large message in one pass without
/// building its tree.
///
/// Each reading method consumes exactly one value. [`object`] and
/// [`array`] walk a container, handing the reader back to a callback
/// that must consume each key's value or each item; [`u64`] reads an
/// integer; [`value`] reads any value as a [`Json`] tree; [`skip`]
/// validates a value without building it. Every value, read or skipped,
/// is checked against the full grammar and the nesting bound, and
/// [`finish`] rejects trailing garbage: reading a text's one value and
/// then finishing succeeds exactly when [`parse_json`] accepts the
/// text, with the same error when it does not. After an error the
/// reader's position is unspecified; stop reading.
///
/// [`object`]: Reader::object
/// [`array`]: Reader::array
/// [`u64`]: Reader::u64
/// [`value`]: Reader::value
/// [`skip`]: Reader::skip
/// [`finish`]: Reader::finish
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the first value of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Reader { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// Ends the text: only whitespace may follow the values read.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first byte of trailing garbage.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads one value as a tree.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input.
    pub fn value(&mut self) -> Result<Json, String> {
        match self.begin()? {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.walk_object(|r, key| {
                    pairs.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                // Most arrays are `[addr, byte]` data pairs: room for two
                // rather than the default first growth to four halves each
                // pair's allocation, and a large image has ~100k of them.
                let mut items = Vec::with_capacity(2);
                self.walk_array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            _ => self.scalar(),
        }
    }

    /// Validates one value without building it.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.begin()? {
            Some(b'{') => self.walk_object(|r, _| r.skip()),
            Some(b'[') => self.walk_array(Self::skip),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads one value: `Some` for an integer; any other value is
    /// validated, skipped and read as `None`.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input.
    pub fn u64(&mut self) -> Result<Option<u64>, String> {
        match self.begin()? {
            Some(c) if c.is_ascii_digit() => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// Walks one object, calling `f` with each key in text order; `f`
    /// must consume that key's value with exactly one reading method.
    /// Any other value is validated and skipped, and the result is
    /// `false`.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input, or
    /// the first error `f` returns.
    pub fn object(
        &mut self,
        f: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.begin()? == Some(b'{') {
            self.walk_object(f).map(|()| true)
        } else {
            self.skip().map(|()| false)
        }
    }

    /// Walks one array, calling `f` once per item; `f` must consume the
    /// item with exactly one reading method. Any other value is
    /// validated and skipped, and the result is `false`.
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-annotated message on malformed input, or
    /// the first error `f` returns.
    pub fn array(
        &mut self,
        f: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.begin()? == Some(b'[') {
            self.walk_array(f).map(|()| true)
        } else {
            self.skip().map(|()| false)
        }
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Starts a value: enforces the nesting bound, skips whitespace and
    /// peeks at the value's first byte.
    fn begin(&mut self) -> Result<Option<u8>, String> {
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.skip_ws();
        Ok(self.bytes.get(self.pos).copied())
    }

    /// The object at `pos` (its `{` already peeked).
    fn walk_object(
        &mut self,
        mut f: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            f(self, key)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// The array at `pos` (its `[` already peeked).
    fn walk_array(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            f(self)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// A non-container value at `pos` (whitespace already skipped).
    fn scalar(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(c) if c.is_ascii_digit() => self.number().map(Json::UInt),
            Some(b'-') => {
                Err(format!("negative number at byte {} (unsigned counters only)", self.pos))
            }
            Some(&c) => Err(format!("unexpected byte '{}' at {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// The digit run at `pos`.
    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        // `None` once the value overflows; the digits are still consumed
        // so a fraction or exponent is reported first.
        let mut value = Some(0u64);
        while let Some(&d) = self.bytes.get(self.pos).filter(|d| d.is_ascii_digit()) {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (the protocol carries exact counters only)"
            ));
        }
        value.ok_or_else(|| format!("integer out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        let bytes = self.bytes;
        if bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice (multi-byte sequences pass through unmodified).
                    let start = self.pos;
                    while bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(run);
                }
            }
        }
    }

    /// The `\uXXXX` escape whose `u` is at `pos`, leaving `pos` on its
    /// last hex digit. A UTF-16 high surrogate must be followed by a
    /// `\uXXXX` low surrogate, and the pair decodes to one character; a
    /// lone or reversed surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = hex4(self.bytes, self.pos + 1)?;
        self.pos += 4;
        let c = if (0xd800..0xdc00).contains(&code) {
            let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                Some(b"\\u") => hex4(self.bytes, self.pos + 3).ok(),
                _ => None,
            };
            match low {
                Some(low @ 0xdc00..=0xdfff) => {
                    self.pos += 6;
                    char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                }
                _ => None,
            }
        } else {
            char::from_u32(code)
        };
        c.ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))
    }
}

/// The four hex digits at `start`, exactly: no sign, no shorter run.
fn hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let digits = bytes.get(start..start + 4).ok_or_else(|| "truncated \\u escape".to_string())?;
    digits.iter().try_fold(0, |code, &d| {
        char::from(d)
            .to_digit(16)
            .map(|digit| code * 16 + digit)
            .ok_or_else(|| "invalid \\u escape".to_string())
    })
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
    fn surrogate_pairs_decode_and_lone_surrogates_and_signed_hex_do_not() {
        // Python's `json.dumps` escapes every non-ASCII character by
        // default, one outside the BMP as a UTF-16 surrogate pair.
        for (text, want) in [
            (r#""\ud83d\ude42""#, "🙂"),
            (r#""\uD83D\uDE42""#, "🙂"),
            (r#""a\u00e9\ud83d\ude42b\n""#, "aé🙂b\n"),
            (r#""\ud800\udc00\udbff\udfff""#, "\u{10000}\u{10ffff}"),
        ] {
            assert_eq!(parse_json(text).unwrap(), Json::Str(want.to_string()), "{text}");
        }
        for (text, err) in [
            (r#""\ud83d""#, "invalid \\u escape at byte 6"),
            (r#""\ud83dx""#, "invalid \\u escape at byte 6"),
            (r#""\ud83d\u0041""#, "invalid \\u escape at byte 6"),
            (r#""\ud83d\ud83d""#, "invalid \\u escape at byte 6"),
            (r#""\ud83d\ude4""#, "invalid \\u escape at byte 6"),
            (r#""\ude42\ud83d""#, "invalid \\u escape at byte 6"),
            (r#""x\udc00""#, "invalid \\u escape at byte 7"),
            (r#""\u+041""#, "invalid \\u escape"),
            (r#""\u-041""#, "invalid \\u escape"),
            (r#""\u 041""#, "invalid \\u escape"),
            (r#""\u12""#, "truncated \\u escape"),
        ] {
            assert_eq!(parse_json(text).unwrap_err(), err, "{text}");
        }
    }

    #[test]
    fn reader_walks_containers_in_text_order() {
        let text = r#" {"a" : [1, "x", [2,3], null] , "b":{"c":true}, "a":7} "#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        let walked = r
            .object(|r, key| {
                match key.as_str() {
                    "a" if seen.is_empty() => {
                        let mut items = Vec::new();
                        assert!(r.array(|r| {
                            items.push(r.u64()?);
                            Ok(())
                        })?);
                        assert_eq!(items, [Some(1), None, None, None]);
                    }
                    "b" => r.skip()?,
                    _ => assert_eq!(r.value()?, Json::UInt(7)),
                }
                seen.push(key);
                Ok(())
            })
            .unwrap();
        assert!(walked);
        r.finish().unwrap();
        assert_eq!(seen, ["a", "b", "a"]);
        // A container reader meeting another value validates it and says so.
        let mut r = Reader::new("[1]");
        assert!(!r.object(|_, _| unreachable!()).unwrap());
        r.finish().unwrap();
        let mut r = Reader::new(r#""x"  ,"#);
        assert!(!r.array(|_| unreachable!()).unwrap());
        assert_eq!(r.finish().unwrap_err(), "trailing garbage at byte 5");
    }

    #[test]
    fn skipping_accepts_and_rejects_exactly_what_parsing_does() {
        // Every prefix and every one-byte corruption of a text touching
        // each grammar rule: skip + finish must agree with parse_json,
        // error text included.
        let text = r#"{"k":[0,18446744073709551615,{"n":null,"t":true,"f":false}],"s":"a\"\\\/\b\f\n\r\t\u00e9\ud83d\ude42é","e":[],"o":{}}"#;
        let skipped = |t: &str| {
            let mut r = Reader::new(t);
            r.skip().and_then(|()| r.finish())
        };
        let mut cases: Vec<String> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .map(|i| text[..i].to_string())
            .collect();
        for (i, _) in text.char_indices() {
            for b in ["x", "-", "1", ".", "\"", "\\", "[", "]", "{", "}", ",", ":", " "] {
                let mut t = text.to_string();
                t.replace_range(i..i + text[i..].chars().next().map_or(1, char::len_utf8), b);
                cases.push(t);
            }
        }
        for t in &cases {
            assert_eq!(skipped(t).err(), parse_json(t).err(), "{t}");
        }
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
