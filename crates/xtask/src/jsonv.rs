//! A minimal strict JSON reader for the subset every bpush emitter
//! produces (objects, arrays, strings, unsigned integers, booleans,
//! null). Used by `explain` to read a traced run's `metrics.json`
//! without external dependencies; the schema tests in
//! `tests/json_schema.rs` keep their own independent copy on purpose,
//! so a parser bug cannot vouch for itself.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (the only number shape bpush emits).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// Returns a human-readable description of the first syntax problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let value = parse_value(&chars, &mut pos)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing garbage at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while b.get(*pos).is_some_and(|c| c.is_ascii_whitespace()) {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}"))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ':')?;
                pairs.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    other => return Err(format!("expected `,` or `}}`, got {other:?}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected `,` or `]`, got {other:?}")),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some('t') if matches(b, *pos, "true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if matches(b, *pos, "false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if matches(b, *pos, "null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while b.get(*pos).is_some_and(char::is_ascii_digit) {
                *pos += 1;
            }
            let digits: String = b[start..*pos].iter().collect();
            digits
                .parse()
                .map(Json::Num)
                .map_err(|e| format!("bad number `{digits}`: {e}"))
        }
        other => Err(format!("unexpected character {other:?} at offset {pos}")),
    }
}

fn matches(b: &[char], pos: usize, word: &str) -> bool {
    word.chars()
        .enumerate()
        .all(|(i, c)| b.get(pos + i) == Some(&c))
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, '"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let hex: String = b
                            .get(*pos + 1..*pos + 5)
                            .map(|s| s.iter().collect())
                            .unwrap_or_default();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|e| format!("bad \\u escape `{hex}`: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                if u32::from(c) < 0x20 {
                    return Err("unescaped control character".to_string());
                }
                out.push(c);
                *pos += 1;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_of_the_bench_shape() {
        let doc = r#"{"schema":"acme-report-v7","seed":7,"quick":false,"substrate":[{"name":"a","iters":3}],"methods":[]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("acme-report-v7")
        );
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("quick").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("methods").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        let sub = v.get("substrate").and_then(Json::as_arr).unwrap();
        assert_eq!(sub[0].get("iters").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} must fail");
        }
    }
}
