//! A lightweight Rust tokenizer for the analysis passes.
//!
//! This is not a full lexer: it produces just enough structure for the
//! static-analysis rules — identifiers, punctuation, and brace nesting —
//! while guaranteeing that the *contents* of comments, string literals,
//! char literals, and raw strings never surface as tokens. A second pass
//! marks tokens inside `#[cfg(test)]` items and `mod tests { … }` blocks
//! so rules can skip test-only code.

/// Kinds of tokens the lint rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw identifiers: `r#type` is one
    /// `Ident` token with text `type`).
    Ident,
    /// A numeric literal (value not retained precisely).
    Number,
    /// A string/char/raw-string literal (contents dropped).
    Literal,
    /// A lifetime or loop label (`'a`, `'static`, `'outer`), text without
    /// the quote. Kept distinct from `Ident` so generic-parameter and
    /// reference positions parse unambiguously.
    Lifetime,
    /// Any single punctuation character (`.`, `!`, `[`, `{`, …).
    Punct(char),
    /// `::` (kept distinct so paths are easy to match).
    PathSep,
    /// `->` return-type arrow.
    Arrow,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Identifier text (empty for punctuation and literals).
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (byte offset within the line).
    pub col: u32,
    /// Brace-nesting depth *after* processing this token's effect.
    pub depth: u32,
    /// True when the token sits inside `#[cfg(test)]` or `mod tests`.
    pub in_test: bool,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// Tokenizes `source`, dropping comment and literal contents and marking
/// test-only regions.
///
/// Never panics: unterminated literals or comments simply consume the
/// rest of the input.
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = raw_tokens(source);
    mark_test_regions(&mut tokens);
    tokens
}

fn raw_tokens(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut depth: u32 = 0;

    // Advances a cursor over `n` bytes, updating line/col.
    macro_rules! advance {
        ($n:expr) => {{
            let n = $n;
            for _ in 0..n {
                if i < bytes.len() {
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        let rest = &source[i..];

        // Whitespace.
        if b.is_ascii_whitespace() {
            advance!(1);
            continue;
        }

        // Line comment (also covers doc comments).
        if rest.starts_with("//") {
            let len = rest.find('\n').unwrap_or(rest.len());
            advance!(len);
            continue;
        }

        // Block comment, nested per Rust rules.
        if rest.starts_with("/*") {
            let mut nest = 0usize;
            let mut j = 0usize;
            let rb = rest.as_bytes();
            while j < rb.len() {
                if rb[j..].starts_with(b"/*") {
                    nest += 1;
                    j += 2;
                } else if rb[j..].starts_with(b"*/") {
                    nest -= 1;
                    j += 2;
                    if nest == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            advance!(j.max(2));
            continue;
        }

        // Raw strings: r"…", r#"…"#, and byte variants br…
        if let Some(len) = raw_string_len(rest) {
            tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(len);
            continue;
        }

        // Plain string / byte string.
        if b == b'"' || (b == b'b' && rest.len() > 1 && rest.as_bytes()[1] == b'"') {
            let quote_at = if b == b'"' { 0 } else { 1 };
            let len = quoted_len(&rest[quote_at..], '"') + quote_at;
            tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(len);
            continue;
        }

        // Byte char literal: b'x' / b'\n'.
        if b == b'b' && rest.len() > 1 && rest.as_bytes()[1] == b'\'' {
            if let Some(len) = char_literal_len(&rest[1..]) {
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                    col,
                    depth,
                    in_test: false,
                });
                advance!(len + 1);
                continue;
            }
        }

        // Char literal — only when it cannot be a lifetime. A char literal
        // is 'x' or an escape; a lifetime is 'ident not followed by '.
        if b == b'\'' {
            if let Some(len) = char_literal_len(rest) {
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                    col,
                    depth,
                    in_test: false,
                });
                advance!(len);
                continue;
            }
            // Lifetime or loop label: one token, text without the quote.
            let len = rest[1..]
                .bytes()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
                .count();
            tokens.push(Token {
                kind: TokenKind::Lifetime,
                text: rest[1..1 + len].to_string(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(1 + len);
            continue;
        }

        // Raw identifier: r#type → one Ident token with text `type`.
        // (Raw *strings* were consumed above, so a `r#` here is always an
        // identifier escape.)
        if rest.starts_with("r#")
            && rest
                .as_bytes()
                .get(2)
                .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
        {
            let len = rest[2..]
                .bytes()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
                .count();
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: rest[2..2 + len].to_string(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(2 + len);
            continue;
        }

        // Identifier / keyword.
        if b.is_ascii_alphabetic() || b == b'_' {
            let len = rest
                .bytes()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
                .count();
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: rest[..len].to_string(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(len);
            continue;
        }

        // Number (loose: digits plus any alphanumeric/underscore/dot tail,
        // which swallows suffixes and float forms; `1.0e-3` splits at `-`,
        // which is fine for linting).
        if b.is_ascii_digit() {
            let mut len = 0usize;
            let rb = rest.as_bytes();
            while len < rb.len()
                && (rb[len].is_ascii_alphanumeric()
                    || rb[len] == b'_'
                    || (rb[len] == b'.' && len + 1 < rb.len() && rb[len + 1].is_ascii_digit()))
            {
                len += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: String::new(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(len);
            continue;
        }

        // Multi-char punctuation we keep intact.
        if rest.starts_with("::") {
            tokens.push(Token {
                kind: TokenKind::PathSep,
                text: String::new(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(2);
            continue;
        }
        if rest.starts_with("->") {
            tokens.push(Token {
                kind: TokenKind::Arrow,
                text: String::new(),
                line,
                col,
                depth,
                in_test: false,
            });
            advance!(2);
            continue;
        }

        // Single punctuation; braces adjust depth.
        let c = rest.chars().next().unwrap_or('\0');
        if c == '{' {
            depth += 1;
        }
        let tok_depth = depth;
        if c == '}' {
            depth = depth.saturating_sub(1);
        }
        tokens.push(Token {
            kind: TokenKind::Punct(c),
            text: String::new(),
            line,
            col,
            depth: tok_depth,
            in_test: false,
        });
        advance!(c.len_utf8());
    }

    tokens
}

/// Length of a raw (byte) string starting at `rest`, if one starts here.
fn raw_string_len(rest: &str) -> Option<usize> {
    let after_b = rest.strip_prefix('b').unwrap_or(rest);
    let stripped = after_b.strip_prefix('r')?;
    let hashes = stripped.bytes().take_while(|b| *b == b'#').count();
    let body = &stripped[hashes..];
    if !body.starts_with('"') {
        return None;
    }
    let prefix_len = (rest.len() - after_b.len()) + 1 + hashes + 1;
    let terminator = format!("\"{}", "#".repeat(hashes));
    match body[1..].find(&terminator) {
        Some(pos) => Some(prefix_len + pos + terminator.len()),
        None => Some(rest.len()), // Unterminated: consume everything.
    }
}

/// Length of a quoted literal starting at a quote, honoring backslash
/// escapes. Returns the full length including both quotes.
fn quoted_len(rest: &str, quote: char) -> usize {
    let rb = rest.as_bytes();
    let mut j = 1usize;
    while j < rb.len() {
        match rb[j] {
            b'\\' => j += 2,
            b if b == quote as u8 => return j + 1,
            _ => j += 1,
        }
    }
    rest.len()
}

/// Length of a char literal at `rest` (starting with `'`), or `None` when
/// this is a lifetime instead.
fn char_literal_len(rest: &str) -> Option<usize> {
    let rb = rest.as_bytes();
    if rb.len() < 2 {
        return None;
    }
    if rb[1] == b'\\' {
        // Escaped char: same scan as a quoted string.
        return Some(quoted_len(rest, '\''));
    }
    // 'x' — a closing quote right after one char (of any UTF-8 width).
    let mut chars = rest[1..].char_indices();
    let (_, _first) = chars.next()?;
    if let Some((off, '\'')) = chars.next() {
        return Some(1 + off + 1);
    }
    None
}

/// Index of the `}` matching the `{` at `open` (same depth, first one
/// after — both braces carry the inner depth).
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let depth = tokens[open].depth;
    tokens[open + 1..]
        .iter()
        .position(|t| t.is_punct('}') && t.depth == depth)
        .map(|off| open + 1 + off)
}

/// Marks tokens inside `#[cfg(test)]` items and `mod tests { … }` blocks.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut k = 0usize;
    while k < tokens.len() {
        if let Some(from) = test_region_start(tokens, k) {
            let end = end_of_item(tokens, from);
            for t in &mut tokens[k..=end] {
                t.in_test = true;
            }
            k = end + 1;
        } else {
            k += 1;
        }
    }
}

/// When a test-only region starts at token `k`, returns the index just
/// past its marker (the attribute, or `mod tests`).
fn test_region_start(tokens: &[Token], k: usize) -> Option<usize> {
    // #[cfg(test)] — seven tokens: # [ cfg ( test ) ]
    if tokens[k].is_punct('#')
        && tokens.len() > k + 6
        && tokens[k + 1].is_punct('[')
        && tokens[k + 2].is_ident("cfg")
        && tokens[k + 3].is_punct('(')
        && tokens[k + 4].is_ident("test")
        && tokens[k + 5].is_punct(')')
        && tokens[k + 6].is_punct(']')
    {
        return Some(k + 7);
    }
    // mod tests { … } (any module literally named `tests`).
    if tokens[k].is_ident("mod") && tokens.len() > k + 1 && tokens[k + 1].is_ident("tests") {
        return Some(k + 2);
    }
    None
}

/// Index of the last token of the item whose header starts at `from`.
///
/// An item with a body ends at the `}` matching its first `{`. One
/// without ends at its `;` (`#[cfg(test)] use …;`, `mod tests;`), at a
/// `,` outside every `(` / `[` / `<` opened since `from` (a struct field,
/// an enum variant, a match arm — but not the commas of `fn f<A, B>(a: A,
/// b: B) { … }` or of a `where` clause), or just before the `}` closing
/// the enclosing block (a last field without a trailing comma).
fn end_of_item(tokens: &[Token], from: usize) -> usize {
    let (mut nest, mut angle, mut in_where) = (0u32, 0u32, false);
    for (j, t) in tokens.iter().enumerate().skip(from) {
        match t.kind {
            TokenKind::Punct('{') => return matching_brace(tokens, j).unwrap_or(tokens.len() - 1),
            TokenKind::Punct(';') => return j,
            TokenKind::Punct('}') => return j - 1,
            TokenKind::Punct(',') if nest == 0 && angle == 0 && !in_where => return j,
            TokenKind::Punct('(' | '[') => nest += 1,
            TokenKind::Punct(')' | ']') => nest = nest.saturating_sub(1),
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle = angle.saturating_sub(1),
            TokenKind::Ident if t.text == "where" => in_where = true,
            _ => {}
        }
    }
    tokens.len() - 1
}
