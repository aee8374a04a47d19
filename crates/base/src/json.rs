//! A minimal JSON value and parser (no external crates, like everything
//! else in the workspace).
//!
//! Grown for the flight-recorder interchange formats and now shared by
//! every layer that reads structured artifacts back in: the observation
//! file readers (`TraceLog::from_jsonl`, `TelemetryLog::from_jsonl` in
//! `silo-simnet`), the Perfetto validator behind `silo-obs`
//! (`silo-bench::obsfile`) and the replayable fault-schedule format
//! (`silo-simnet::faults`). Writers in this workspace emit JSON by hand
//! (deterministic, exact formatting); this is the matching reader.
//!
//! Containers nest at most `MAX_DEPTH` (16) deep. The workspace's formats
//! nest four at most (a Perfetto event's `args` object), and the parser
//! recurses once per level, so a file of 10⁵ `[` is an `Err`, not a
//! stack overflow.

/// Deepest container nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value. Numbers are kept as `f64` (the format's own
/// model), so integers are exact only up to 2^53; [`Json::as_u64`]
/// refuses anything larger, fractional or negative.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = parse_value(b, &mut i, 0)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at offset {i}"));
        }
        Ok(v)
    }

    /// Object field lookup (None on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer up to 2^53, the largest `f64` holds
    /// exactly. The text `9007199254740993` parses to 2^53 too: a reader
    /// that must refuse what it would round compares against its writer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Emit an `f64` in shortest-round-trip form for the workspace's
/// hand-written JSON writers (`FaultPlan::to_json` drift factors). The
/// contract the round-trip property tests lean on:
///
/// * shortest decimal that parses back to the same bits (`{:?}`);
/// * `-0.0` keeps its sign (`"-0.0"`, never `"0"` — the sign bit is
///   observable through `f64::to_bits` and a byte-exact format must not
///   lose it);
/// * subnormals emit exactly (`5e-324` round-trips to the same bits);
/// * non-finite values are rejected: JSON has no NaN/Infinity, and every
///   workspace format validates finiteness before writing.
pub fn fmt_f64(x: f64) -> String {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    // `{:?}` is shortest-round-trip and sign-preserving for every finite
    // f64 (including -0.0 and subnormals); the tests below pin that
    // contract so a formatting regression in the writer path is caught
    // here rather than as a golden mismatch three layers up.
    format!("{x:?}")
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, i))
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at offset {i}"))
        }
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let key = parse_string(b, i)?;
                skip_ws(b, i);
                expect(b, i, b':')?;
                let val = parse_value(b, i, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {i}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, i)?)),
        Some(b't') if b[*i..].starts_with(b"true") => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*i..].starts_with(b"false") => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*i..].starts_with(b"null") => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            }
            let tok = std::str::from_utf8(&b[start..*i]).map_err(|e| e.to_string())?;
            tok.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{tok}' at offset {start}"))
        }
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<String, String> {
    expect(b, i, b'"')?;
    let mut s = String::new();
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                return Ok(s);
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let hex = std::str::from_utf8(b.get(*i + 1..*i + 5).ok_or("bad \\u")?)
                            .map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        s.push(char::from_u32(cp).ok_or("bad codepoint")?);
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at offset {i}")),
                }
                *i += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unmodified.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b.get(*i..*i + len).ok_or("truncated utf8")?;
                s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *i += len;
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_workspace_emits() {
        let v = Json::parse(r#"{"a":1,"b":"x","c":[true,null,2.5],"d":{"e":false}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(
            v.get("d").and_then(|d| d.get("e")).and_then(Json::as_bool),
            Some(false)
        );
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    #[test]
    fn f64_round_trips_shortest_debug_format() {
        // FaultPlan serializes drift factors with `{:?}` (shortest
        // round-trip); the reader must recover them exactly.
        for x in [1.0, 8.0, 1.5, std::f64::consts::PI, 1e9, 1.0000000001] {
            let v = Json::parse(&format!("{x:?}")).unwrap();
            assert_eq!(v.as_f64(), Some(x));
        }
    }

    #[test]
    fn fmt_f64_preserves_negative_zero_and_subnormals() {
        // -0.0 must keep its sign: `-0.0 == 0.0` under PartialEq, so only
        // a bit-level check catches a writer that normalizes it away.
        assert_eq!(fmt_f64(-0.0), "-0.0");
        assert_eq!(fmt_f64(0.0), "0.0");
        let back = Json::parse(&fmt_f64(-0.0)).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // Smallest positive subnormal and a mid-range subnormal.
        for x in [f64::from_bits(1), f64::from_bits(0x000f_ffff_ffff_ffff)] {
            assert!(x != 0.0 && !x.is_normal(), "test value must be subnormal");
            let s = fmt_f64(x);
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "subnormal {s} round-trip");
        }
        // Dump(parse(dump(x))) is a fixed point — the byte-determinism
        // the fault-plan golden suite depends on.
        for x in [-0.0, 5e-324, 1.5, -2.75e17] {
            let s = fmt_f64(x);
            let re = fmt_f64(Json::parse(&s).unwrap().as_f64().unwrap());
            assert_eq!(re, s);
        }
    }

    #[test]
    #[should_panic(expected = "cannot represent")]
    fn fmt_f64_rejects_non_finite() {
        fmt_f64(f64::NAN);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for doc in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Json::parse(&doc).expect_err("10^5 levels must be refused");
            assert!(err.contains("nesting deeper than 16 at offset"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(Json::parse(&past_cap).unwrap_err().contains("offset 16"));
    }

    #[test]
    fn u64_rejects_non_integers() {
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }
}
