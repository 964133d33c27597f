//! A hand-rolled Rust lexer producing a line-annotated token stream.
//!
//! The lint pass needs exact source lines, comment-aware suppression
//! markers, and correct skipping of string/char literal contents — but
//! not full parsing. This lexer covers the whole surface the workspace
//! uses: line/block comments (nested), doc comments, string literals
//! with escapes, raw (byte) strings with arbitrary `#` fences, char
//! literals vs. lifetimes, numeric literals including floats and
//! exponents, identifiers, and single-char punctuation.
//!
//! Comments are not emitted as tokens; instead, `// lint:allow(rule)`
//! markers are collected into a per-line suppression table.

use std::collections::HashMap;

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character (`.`, `(`, `!`, ...).
    Punct,
    /// String or byte-string literal (cooked or raw); text is the raw
    /// source slice including quotes.
    Str,
    /// Char or byte literal.
    Char,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// Lifetime such as `'a` or `'_`.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// True when the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, comments stripped.
    pub tokens: Vec<Token>,
    /// `line -> rules` from `// lint:allow(a, b)` comment markers. The
    /// special name `all` suppresses every rule.
    pub suppressions: HashMap<u32, Vec<String>>,
    /// Lines whose `lint:allow(...)` marker carries no justification
    /// text after the closing paren — fodder for the `bare-allow` rule.
    pub bare_allows: Vec<u32>,
}

/// Whether the text after a `lint:allow(...)` marker's closing paren is
/// a justification. Leading separator punctuation (`—`, `--`, `:`) is
/// cosmetic; what must follow is at least one word of prose.
fn has_reason(after: &str) -> bool {
    after
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ','))
        .chars()
        .any(|c| c.is_alphanumeric())
}

/// Lexes `src` into tokens plus suppression markers.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.cooked_string(),
                'r' if matches!(self.peek(1), Some('"' | '#')) && self.raw_string_ahead(1) => {
                    self.raw_string(1)
                }
                'b' if self.peek(1) == Some('"') => self.cooked_string_prefixed(1),
                'b' if self.peek(1) == Some('\'') => self.char_literal(1),
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => self.raw_string(2),
                '\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphabetic() => self.ident(),
                _ => {
                    self.push(TokKind::Punct, c.to_string());
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.out.tokens.push(Token {
            kind,
            text,
            line: self.line,
        });
    }

    /// Whether `r` (at offset `at`) begins a raw string: `r"` or `r#"`
    /// with only `#` fence characters between.
    fn raw_string_ahead(&self, at: usize) -> bool {
        let mut i = at;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if let Some(idx) = text.find("lint:allow(") {
            let rest = &text[idx + "lint:allow(".len()..];
            if let Some(end) = rest.find(')') {
                let rules: Vec<String> = rest[..end]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                if !has_reason(&rest[end + 1..]) {
                    self.out.bare_allows.push(self.line);
                }
                self.out
                    .suppressions
                    .entry(self.line)
                    .or_default()
                    .extend(rules);
            }
        }
    }

    fn block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.line += 1;
                self.pos += 1;
            } else if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    return;
                }
            } else {
                self.pos += 1;
            }
        }
    }

    fn cooked_string(&mut self) {
        self.cooked_string_prefixed(0);
    }

    /// Cooked (escaped) string; `prefix` chars precede the opening quote.
    fn cooked_string_prefixed(&mut self, prefix: usize) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += prefix + 1; // prefix + opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => self.pos += 2,
                '"' => {
                    self.pos += 1;
                    break;
                }
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text,
            line: start_line,
        });
    }

    /// Raw string starting at `r`/`br`; `quote_at` is the offset of the
    /// first fence/quote character after the prefix letters.
    fn raw_string(&mut self, quote_at: usize) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += quote_at;
        let mut fences = 0usize;
        while self.peek(0) == Some('#') {
            fences += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        'body: while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if c == '"' {
                // A close requires `"` followed by exactly `fences` #s.
                for i in 0..fences {
                    if self.peek(1 + i) != Some('#') {
                        self.pos += 1;
                        continue 'body;
                    }
                }
                self.pos += 1 + fences;
                break;
            }
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text,
            line: start_line,
        });
    }

    /// Byte char literal `b'x'`; `prefix` is 1 for the `b`.
    fn char_literal(&mut self, prefix: usize) {
        let start = self.pos;
        self.pos += prefix + 1; // prefix + opening quote
        if self.peek(0) == Some('\\') {
            self.pos += 2;
        } else {
            self.pos += 1;
        }
        // Consume up to the closing quote (covers `'\u{1F600}'`).
        while let Some(c) = self.peek(0) {
            self.pos += 1;
            if c == '\'' {
                break;
            }
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.push(TokKind::Char, text);
    }

    /// A `'`: either a char literal or a lifetime.
    fn quote(&mut self) {
        match (self.peek(1), self.peek(2)) {
            // `'\...'` is always a char literal.
            (Some('\\'), _) => self.char_literal(0),
            // `'x'` is a char literal; `'x` followed by anything else is
            // a lifetime (or a loop label, lexed identically).
            (Some(_), Some('\'')) => self.char_literal(0),
            _ => {
                let start = self.pos;
                self.pos += 1;
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                self.push(TokKind::Lifetime, text);
            }
        }
    }

    fn number(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                self.pos += 1;
                // Exponent sign: `1e-3`, `2.5E+7`.
                if (c == 'e' || c == 'E')
                    && !self.base_prefixed(start)
                    && matches!(self.peek(0), Some('+' | '-'))
                {
                    self.pos += 1;
                }
            } else if c == '.'
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                && !self.base_prefixed(start)
            {
                // Fractional part — but never consume `..` (range).
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Num, text);
    }

    /// Whether the literal starting at `start` has a base prefix
    /// (`0x`/`0o`/`0b`), which rules out float parts.
    fn base_prefixed(&self, start: usize) -> bool {
        self.chars[start] == '0'
            && matches!(
                self.chars.get(start + 1),
                Some('x' | 'o' | 'b' | 'X' | 'O' | 'B')
            )
    }

    fn ident(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokKind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn lexes_mixed_tokens_with_lines() {
        let lexed = lex("let x = 1;\nlet y = x.unwrap();\n");
        let unwrap = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert_eq!(unwrap.line, 2);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "1"));
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let lexed = lex(
            "// panic! in a comment\nlet s = \"panic!('x')\";\n/* .unwrap() */\nlet r = r#\"expect(\"inner\")\"#;\n",
        );
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("expect")));
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 2);
    }

    #[test]
    fn char_literals_and_lifetimes_are_distinguished() {
        let toks = kinds("fn f<'a>(c: char) { let x = 'x'; let nl = '\\n'; }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".into())));
        assert!(toks.contains(&(TokKind::Char, "'x'".into())));
        assert!(toks.contains(&(TokKind::Char, "'\\n'".into())));
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = kinds("for i in 0..10 { let f = 1.5e-3f64; let h = 0xFF; t.0 }");
        assert!(toks.contains(&(TokKind::Num, "0".into())));
        assert!(toks.contains(&(TokKind::Num, "10".into())));
        assert!(toks.contains(&(TokKind::Num, "1.5e-3f64".into())));
        assert!(toks.contains(&(TokKind::Num, "0xFF".into())));
    }

    #[test]
    fn suppression_markers_are_collected() {
        let lexed =
            lex("let _ = x(); // lint:allow(silent-drop)\n// lint:allow(rule-a, rule-b)\ny();\n");
        assert_eq!(
            lexed.suppressions.get(&1),
            Some(&vec!["silent-drop".to_string()])
        );
        assert_eq!(
            lexed.suppressions.get(&2),
            Some(&vec!["rule-a".to_string(), "rule-b".to_string()])
        );
    }

    #[test]
    fn bare_allows_are_distinguished_from_reasoned_ones() {
        let lexed = lex(concat!(
            "a(); // lint:allow(rule-a)\n",
            "b(); // lint:allow(rule-b) — bounds checked above\n",
            "c(); // lint:allow(rule-c) -- legacy reason style\n",
            "d(); // lint:allow(rule-d) —\n",
        ));
        assert_eq!(lexed.bare_allows, vec![1, 4]);
        // Bare markers still populate the suppression table.
        assert!(lexed.suppressions.contains_key(&1));
    }

    #[test]
    fn nested_block_comments_and_multiline_strings() {
        let lexed = lex("/* outer /* inner */ still comment */ let a = \"line1\nline2\"; b");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("a")));
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 2);
    }
}
