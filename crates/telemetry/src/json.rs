//! A tiny hand-rolled JSON writer.
//!
//! The telemetry crate sits below every other production crate and must
//! not pull in the serde shims, so its exporters — and `athena-observe`'s
//! — assemble their JSON with these helpers instead. Only the forms they
//! emit are supported: objects, arrays, strings, and numbers.

/// Appends `s` as a JSON string literal (with quotes) onto `out`.
pub fn string_into(out: &mut String, s: &str) {
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

/// Appends `"key":` onto `out`.
pub fn key_into(out: &mut String, key: &str) {
    string_into(out, key);
    out.push(':');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        string_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn key_has_colon() {
        let mut out = String::new();
        key_into(&mut out, "k");
        assert_eq!(out, "\"k\":");
    }
}
