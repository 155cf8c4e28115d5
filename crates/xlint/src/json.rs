//! A minimal first-party JSON emitter.
//!
//! The linter renders machine-readable findings (`--format json|sarif`)
//! as JSON. The output must be *byte-stable*: the same analysis always
//! serializes to the same bytes, so CI can diff two runs. Objects
//! therefore preserve insertion order (a `Vec` of pairs, not a map), and
//! the emitter has exactly one formatting mode. Every value the findings
//! documents hold is a string, an integer, an array or an object; floats
//! are out of scope.

/// A JSON value. Object keys keep insertion order for byte-stable output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// An integer: counts, lines and columns.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an integer, when it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// Serialize to a compact, byte-stable string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str("\\u");
                let code = u32::from(c);
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
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
    fn escapes_control_characters() {
        let doc = Json::str("bell\u{7}tab\tend");
        assert_eq!(doc.render(), "\"bell\\u0007tab\\tend\"");
        let doc = Json::obj(vec![
            ("k", Json::Arr(vec![Json::Int(-7), Json::str("a \"quoted\"\nline")])),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(doc.render(), "{\"k\":[-7,\"a \\\"quoted\\\"\\nline\"],\"e\":[]}");
    }
}
