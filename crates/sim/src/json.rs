//! The one JSON string escaper the workspace's hand-written JSON
//! emitters share (crash-campaign reports and lint reports).

/// Escape `s` for use inside a JSON string literal (the surrounding
/// quotes are the caller's): `"` and `\` are backslash-escaped, newline
/// and tab use their short forms, and every other control character
/// becomes a `\u00XX` escape, so any input yields valid JSON.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape("µs"), "µs", "non-ASCII passes through");
    }
}
