//! JSON string escaping: the one escaper behind the workspace's
//! hand-rolled JSON writers (certificates, daemon replies, bench files).

use std::fmt::Write as _;

/// Appends `s` to `out`, escaped for a JSON string literal. A string that
/// needs no escaping, as most names do, is copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
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
}

/// `s` escaped for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\r\t\u{1f}é"), "\\r\\t\\u001fé");
        // The fast path copies clean strings whole, after what is there.
        let mut out = String::from("x");
        escape_into(&mut out, "plain_name");
        assert_eq!(out, "xplain_name");
    }
}
