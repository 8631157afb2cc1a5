//! The workspace's one JSON path: a small writer and the minimal reader
//! the result trajectories and trace replay need.
//!
//! Every JSON document the reproduction emits — campaign reports, probe
//! observations and traces, store and server reports, benchmark
//! trajectories — is written through [`object`] and [`entries`], so
//! there is one string escaper and one float policy ([`Float`]): the
//! shortest form that round-trips, or fixed decimals where a field asks
//! for them, with non-finite values written as `null`. The writer
//! adds no whitespace of its own; a document that is laid out over
//! several lines asks for each break with [`Object::newline`].
//!
//! The reader is not a general parser. [`split_entries`] cuts an array
//! into its top-level objects and [`field`] returns the raw text of one
//! member; both are string-aware, so braces, commas and escaped quotes
//! inside strings never end a value early.

use std::fmt::{self, Display, Write as _};

/// Appends `s` as a JSON string literal, escaping `"`, `\` and the
/// control characters.
fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A float as a JSON number: with `.1` fixed decimals, or in the
/// shortest form that round-trips when `.1` is `None`. Non-finite
/// values, which JSON cannot hold, are written as `null`.
#[derive(Debug, Clone, Copy)]
pub struct Float(pub f64, pub Option<usize>);

impl Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.0, self.1) {
            (x, _) if !x.is_finite() => f.write_str("null"),
            (x, Some(d)) => write!(f, "{x:.d$}"),
            (x, None) => write!(f, "{x}"),
        }
    }
}

/// Appends an array of already-rendered entries, one per line: each
/// entry starts a line at `indent` and the closing bracket starts a line
/// at `close`. An empty array is written as `[]`.
pub fn entries<S: AsRef<str>>(
    out: &mut String,
    items: impl IntoIterator<Item = S>,
    indent: &str,
    close: &str,
) {
    out.push('[');
    let start = out.len();
    for item in items {
        out.push_str(if out.len() == start { "\n" } else { ",\n" });
        out.push_str(indent);
        out.push_str(item.as_ref());
    }
    if out.len() > start {
        out.push('\n');
        out.push_str(close);
    }
    out.push(']');
}

/// Renders one JSON object, filled member by member by `fill`.
#[must_use]
pub fn object(fill: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, fill);
    out
}

fn write_object(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    let mut obj = Object {
        out,
        empty: true,
        newline: None,
    };
    fill(&mut obj);
    obj.line_break();
    obj.out.push('}');
}

/// An open JSON object: each method appends one `"key":value` member.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
    newline: Option<&'a str>,
}

impl<'a> Object<'a> {
    /// Starts the member `key` and returns the buffer for its value,
    /// which the caller must then write (with [`entries`], say).
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.line_break();
        string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Starts a new line indented by `indent` before the next member, or
    /// before the closing brace if no member follows.
    pub fn newline(&mut self, indent: &'a str) -> &mut Self {
        self.newline = Some(indent);
        self
    }

    fn line_break(&mut self) {
        if let Some(indent) = self.newline.take() {
            self.out.push('\n');
            self.out.push_str(indent);
        }
    }

    /// A number member: an integer, or a [`Float`].
    pub fn int(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.int(key, value)
    }

    /// A float member in the shortest form that round-trips.
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.int(key, Float(value, None))
    }

    /// A float member with `digits` fixed decimals.
    pub fn fixed(&mut self, key: &str, value: f64, digits: usize) -> &mut Self {
        self.int(key, Float(value, Some(digits)))
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        string(self.key(key), value);
        self
    }

    /// A member whose value is already-rendered JSON text.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// A one-line array member. Each item's `Display` must be JSON: an
    /// integer, a [`Float`], or an already-rendered value.
    pub fn array(&mut self, key: &str, items: impl IntoIterator<Item = impl Display>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{item}");
        }
        out.push(']');
        self
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        write_object(self.key(key), fill);
        self
    }
}

/// Byte length of the JSON value at the start of `s`: a whole string,
/// object or array (string-aware), or a bare scalar up to the next
/// delimiter.
fn value_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    if !matches!(bytes.first()?, b'"' | b'{' | b'[') {
        return Some(s.find([',', '}', ']']).unwrap_or(s.len()));
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => continue,
            }
        } else {
            match b {
                b'"' => in_string = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => continue,
            }
        }
        if depth == 0 && !in_string {
            return Some(i + 1);
        }
    }
    None
}

/// Splits a JSON array (or a single legacy object) into its top-level
/// `{...}` entries.
pub fn split_entries(json: &str) -> Vec<&str> {
    let mut entries = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find('{') {
        let Some(len) = value_len(&rest[at..]) else {
            break;
        };
        entries.push(&rest[at..at + len]);
        rest = &rest[at + len..];
    }
    entries
}

/// The raw text of the top-level member `key` of `object`: a number,
/// literal, quoted string, or whole nested object or array.
pub fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let after = |s: &'a str, c| s.trim_start().strip_prefix(c).map(str::trim_start);
    let mut rest = after(object, '{')?;
    while rest.starts_with('"') {
        let name_len = value_len(rest)?;
        let name = &rest[1..name_len - 1];
        rest = after(&rest[name_len..], ':')?;
        let value = rest[..value_len(rest)?].trim_end();
        if name == key {
            return Some(value);
        }
        rest = after(&rest[value.len()..], ',')?;
    }
    None
}

/// The member `key` parsed as a number or boolean.
pub fn parse<T: std::str::FromStr>(object: &str, key: &str) -> Option<T> {
    field(object, key)?.parse().ok()
}

/// The member `key` read as a string, with its escapes undone.
pub fn string_field(object: &str, key: &str) -> Option<String> {
    let raw = field(object, key)?.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
            }
            c => c,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_reads_what_the_writer_writes() {
        let awkward = "q\"uote \\ back\nline \u{1} ctl {br,ace}";
        let written = object(|o| {
            o.str("s", awkward)
                .object("o", |n| {
                    n.str("s", "}{,").int("n", 1);
                })
                .raw("a", r#"["],[",{"x":"}"}]"#)
                .float("short", 0.1 + 0.2)
                .float("whole", 1.0)
                .fixed("fixed", 2.0 / 3.0, 3)
                .float("nan", f64::NAN)
                .fixed("inf", f64::INFINITY, 6)
                .bool("b", true);
        });
        let nested = r#"{"o": {"s": "}"}, "n": 1}"#;
        let escaped = r#"{"s": "a\"b"}"#;
        let legacy = "{\n  \"layout\": \"bibd:c10g4\",\n  \"n\": 12,\n  \"last\": 9\n}";
        // (document, key, raw value)
        let cases = [
            (written.as_str(), "o", Some(r#"{"s":"}{,","n":1}"#)),
            (written.as_str(), "a", Some(r#"["],[",{"x":"}"}]"#)),
            (written.as_str(), "n", None),
            (written.as_str(), "short", Some("0.30000000000000004")),
            (written.as_str(), "whole", Some("1")),
            (written.as_str(), "fixed", Some("0.667")),
            (written.as_str(), "nan", Some("null")),
            (written.as_str(), "inf", Some("null")),
            (written.as_str(), "b", Some("true")),
            (nested, "o", Some(r#"{"s": "}"}"#)),
            (nested, "n", Some("1")),
            (escaped, "s", Some(r#""a\"b""#)),
            (legacy, "layout", Some("\"bibd:c10g4\"")),
            (legacy, "n", Some("12")),
            (legacy, "last", Some("9")),
            (legacy, "missing", None),
        ];
        for (doc, key, want) in cases {
            assert_eq!(field(doc, key), want, "{key} in {doc}");
        }
        assert_eq!(string_field(&written, "s").as_deref(), Some(awkward));
        assert_eq!(string_field(escaped, "s").as_deref(), Some("a\"b"));
        assert_eq!(parse::<f64>(&written, "short"), Some(0.1 + 0.2));
    }

    #[test]
    fn layout_breaks_only_where_asked() {
        let doc = object(|o| {
            o.newline("  ").int("a", 1).int("b", 2).newline("  ");
            entries(o.key("c"), ["{}", "{}"], "    ", "  ");
            o.array("d", [Float(1.0, None), Float(f64::NAN, Some(2))]);
            entries(o.key("e"), Vec::<String>::new(), "    ", "  ");
            o.newline("");
        });
        assert_eq!(
            doc,
            "{\n  \"a\":1,\"b\":2,\n  \"c\":[\n    {},\n    {}\n  ],\"d\":[1,null],\"e\":[]\n}"
        );
    }
}
