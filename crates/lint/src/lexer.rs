//! A minimal Rust lexer: identifiers, punctuation, and line numbers.
//!
//! The analyzer needs call names, receiver chains, and block structure —
//! not full Rust syntax. The lexer therefore strips comments (doc
//! examples included), string/char literals, and lifetimes, and emits a
//! flat token stream tagged with 1-based line numbers.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token text: an identifier/number, or a single punctuation char.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Whether the token is an identifier (or number), not punctuation.
    pub is_ident: bool,
}

impl Tok {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        !self.is_ident && self.text.len() == 1 && self.text.as_bytes()[0] as char == c
    }
}

/// Lex `src` into tokens. Comments, strings, chars and lifetimes are
/// dropped; everything else becomes an ident or a one-char punct token.
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&b, i, &mut line),
            'r' if matches!(b.get(i + 1), Some(&'"' | &'#')) && is_raw_string(&b, i) => {
                i = skip_raw_string(&b, i, &mut line);
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                let next = b.get(i + 1).copied().unwrap_or(' ');
                if (next.is_alphabetic() || next == '_') && b.get(i + 2) != Some(&'\'') {
                    i += 1;
                    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                } else {
                    i += 1; // opening quote
                    while i < b.len() && b[i] != '\'' {
                        if b[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    i += 1; // closing quote
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    text: b[start..i].iter().collect(),
                    line,
                    is_ident: true,
                });
            }
            _ => {
                toks.push(Tok {
                    text: c.to_string(),
                    line,
                    is_ident: false,
                });
                i += 1;
            }
        }
    }
    toks
}

fn is_raw_string(b: &[char], i: usize) -> bool {
    // `r"..."` or `r#..#"..."#..#` — but not an identifier like `rs`.
    let mut j = i + 1;
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() && b[i] != '"' {
        if b[i] == '\\' {
            i += 1;
        } else if b[i] == '\n' {
            *line += 1;
        }
        i += 1;
    }
    i + 1
}

fn skip_raw_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // past `r`
    let mut hashes = 0;
    while b.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    'outer: while i < b.len() {
        if b[i] == '\n' {
            *line += 1;
        }
        if b[i] == '"' {
            let mut j = i + 1;
            for _ in 0..hashes {
                if b.get(j) != Some(&'#') {
                    i += 1;
                    continue 'outer;
                }
                j += 1;
            }
            return j;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_and_punct_with_lines() {
        let toks = lex("fn f() {\n  ctx.store(a, 1);\n}");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["fn", "f", "(", ")", "{", "ctx", ".", "store", "(", "a", ",", "1", ")", ";", "}"]
        );
        assert_eq!(toks[5].line, 2, "ctx on line 2");
        assert!(toks[5].is_ident);
        assert!(toks[6].is_punct('.'));
    }

    #[test]
    fn strips_comments_strings_and_lifetimes() {
        let toks = lex("// store(x)\n/* sfence */ let s = \"sfence()\"; &'a mut T; 'x';");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(!texts.contains(&"store"));
        assert!(!texts.contains(&"sfence"));
        assert!(texts.contains(&"let"));
        assert!(texts.contains(&"T"));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let toks = lex("/* a /* b */ c */ fn x() {} r#\"flush()\"#");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts[..2], ["fn", "x"]);
        assert!(!texts.contains(&"flush"));
    }
}
