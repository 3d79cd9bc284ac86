//! A minimal JSON value and writer (the workspace vendors no serializer).

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Json>),
    /// Key order is the insertion order, so output is stable.
    Object(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl Json {
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("string write"),
            Json::U64(v) => write!(out, "{v}").expect("string write"),
            Json::F64(v) => {
                assert!(v.is_finite(), "JSON has no encoding for {v}");
                // `Display` for f64 is the shortest decimal that round-trips
                // and never uses an exponent, so it is always valid JSON.
                write!(out, "{v}").expect("string write");
            }
            Json::Str(s) => write_str(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)).expect("write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_in_insertion_order() {
        let v = Json::object([
            ("b", Json::from(1u64)),
            (
                "a",
                Json::Array(vec![Json::from(0.5), Json::Null, true.into()]),
            ),
            ("s", Json::from("q\"\\\n\u{1}")),
        ]);
        assert_eq!(
            v.render(),
            r#"{"b":1,"a":[0.5,null,true],"s":"q\"\\\n\u0001"}"#
        );
    }

    #[test]
    fn small_floats_stay_plain_decimals() {
        assert_eq!(Json::from(1e-7).render(), "0.0000001");
        assert_eq!(Json::from(3.0).render(), "3");
    }
}
