//! Function, `impl`-block and `struct`-field extraction over the
//! tokenized workspace.
//!
//! The call-graph analyses need to know, for every production function:
//! where its body starts and ends, whether it takes `self`, which type it
//! is implemented on, and which crate it lives in — and, to resolve
//! `self.field.method(…)`, the declared type of every struct field. All
//! of that is derived here from the tokenizer — no syn, no rustc.

use crate::tokenizer::{matching_brace, Token, TokenKind};
use crate::SourceFile;

/// Identifiers that can precede `(` without being a function call.
pub const CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static",
    "struct", "super", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// One production function found in the workspace.
#[derive(Debug)]
pub struct Func {
    /// Index into the flat function table (stable, deterministic).
    pub id: usize,
    /// Index into the scanned file list.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type (`impl Pool { fn park… }` → `Pool`).
    pub impl_type: Option<String>,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the body's matching `}`.
    pub body_end: usize,
    /// 1-based source line of the `fn` name (for witnesses).
    pub line: u32,
}

impl Func {
    /// `file::name` qualified display form.
    pub fn qualified(&self, files: &[SourceFile]) -> String {
        format!("{}::{}", files[self.file].rel_path, self.name)
    }
}

/// The crate a workspace-relative path belongs to (`crates/store/src/…` →
/// `store`; the root `src/` facade → `athena`).
pub fn crate_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("athena")
}

/// Whether a workspace-relative path is production code (`src/…` or
/// `crates/<name>/src/…`) rather than a reference-only source such as
/// `tests/` or `ledger/src`, which only `unused-pub` reads.
pub fn is_production(rel_path: &str) -> bool {
    rel_path.starts_with("src/")
        || rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// Extracts every non-test function with a body from the production
/// `files`, in file then token order (deterministic ids).
pub fn extract_functions(files: &[SourceFile]) -> Vec<Func> {
    let mut out = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !is_production(&file.rel_path) {
            continue;
        }
        let tokens = &file.tokens;
        let impls = impl_spans(tokens);
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("fn") || tokens[i].in_test {
                continue;
            }
            let Some(name_tok) = tokens.get(i + 1) else {
                continue;
            };
            if name_tok.kind != TokenKind::Ident {
                continue; // `fn(…)` pointer type
            }
            let Some((body_start, body_end)) = item_body(tokens, i) else {
                continue; // trait method declaration without a body
            };
            let impl_type = impls
                .iter()
                .filter(|s| s.body_start < i && i < s.body_end)
                .max_by_key(|s| s.body_start)
                .map(|s| s.type_name.clone());
            let id = out.len();
            out.push(Func {
                id,
                file: file_idx,
                name: name_tok.text.clone(),
                impl_type,
                has_self: fn_has_self(tokens, i),
                body_start,
                body_end,
                line: name_tok.line,
            });
        }
    }
    out
}

/// One production `struct` with named fields.
#[derive(Debug)]
pub struct StructDef {
    /// Index into the scanned file list.
    pub file: usize,
    /// The struct's name.
    pub name: String,
    /// Each field with every identifier of its declared type
    /// (`live: Arc<Mutex<Window>>` → `live`, [`Arc`, `Mutex`, `Window`]).
    pub fields: Vec<(String, Vec<String>)>,
}

/// Extracts every non-test `struct Name { field: Type, … }` from the
/// production `files`.
pub fn extract_structs(files: &[SourceFile]) -> Vec<StructDef> {
    let mut out = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !is_production(&file.rel_path) {
            continue;
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("struct") || tokens[i].in_test {
                continue;
            }
            // A tuple or unit struct ends at its `;` before any `{`.
            let (Some(name), Some((open, close))) = (tokens.get(i + 1), item_body(tokens, i))
            else {
                continue;
            };
            let mut fields: Vec<(String, Vec<String>)> = Vec::new();
            // `nest` counts `<`/`(`/`[`: a field starts at `name:` outside
            // all of them and runs to the next `,` outside all of them.
            let (mut nest, mut open_field) = (0i32, false);
            for k in open + 1..close {
                let t = &tokens[k];
                match t.kind {
                    _ if t.in_test => {}
                    TokenKind::Punct('<' | '(' | '[') => nest += 1,
                    TokenKind::Punct('>' | ')' | ']') => nest -= 1,
                    TokenKind::Punct(',') if nest == 0 => open_field = false,
                    TokenKind::Ident if nest == 0 && tokens[k + 1].is_punct(':') => {
                        fields.push((t.text.clone(), Vec::new()));
                        open_field = true;
                    }
                    TokenKind::Ident if open_field => {
                        if let Some((_, ty)) = fields.last_mut() {
                            ty.push(t.text.clone());
                        }
                    }
                    _ => {}
                }
            }
            out.push(StructDef {
                file: file_idx,
                name: name.text.clone(),
                fields,
            });
        }
    }
    out
}

/// For each file: the innermost function containing each token index.
/// Returns `None` for tokens outside any function body (consts, types).
pub fn innermost_fn(funcs_in_file: &[&Func], tok: usize) -> Option<usize> {
    funcs_in_file
        .iter()
        .filter(|f| f.body_start < tok && tok < f.body_end)
        .max_by_key(|f| f.body_start)
        .map(|f| f.id)
}

struct ImplSpan {
    body_start: usize,
    body_end: usize,
    type_name: String,
}

/// `impl` blocks in statement position, with the implemented type's final
/// path segment (`impl fmt::Display for Config` → `Config`).
fn impl_spans(tokens: &[Token]) -> Vec<ImplSpan> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("impl") {
            continue;
        }
        // Statement position only — skips `-> impl Iterator` and generic
        // bounds, which sit mid-expression.
        let stmt = match i.checked_sub(1).map(|p| &tokens[p]) {
            None => true,
            Some(p) => p.is_punct(';') || p.is_punct('{') || p.is_punct('}') || p.is_punct(']'),
        };
        if !stmt {
            continue;
        }
        let depth = tokens[i].depth;
        // Walk the header: track the last type identifier outside angle
        // brackets, stopping at the body brace or a `where` clause.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut type_name = String::new();
        let mut in_where = false;
        let body_start = loop {
            let Some(t) = tokens.get(j) else {
                break None;
            };
            match t.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Punct('{') if t.depth == depth + 1 => break Some(j),
                TokenKind::Punct(';') if t.depth == depth => break None,
                TokenKind::Ident if angle == 0 => {
                    if t.text == "where" {
                        in_where = true;
                    } else if !in_where && t.text != "for" {
                        type_name = t.text.clone();
                    }
                }
                _ => {}
            }
            j += 1;
        };
        let Some(body_start) = body_start else {
            continue;
        };
        let Some(body_end) = matching_brace(tokens, body_start) else {
            continue;
        };
        out.push(ImplSpan {
            body_start,
            body_end,
            type_name,
        });
    }
    out
}

/// Body span of the `fn` or `struct` at token `fn_tok`: the first `{` one
/// level deeper, unless a `;` at the same depth ends a bodyless
/// declaration.
fn item_body(tokens: &[Token], fn_tok: usize) -> Option<(usize, usize)> {
    let depth = tokens[fn_tok].depth;
    let mut j = fn_tok + 2;
    let body_start = loop {
        let t = tokens.get(j)?;
        if t.is_punct('{') && t.depth == depth + 1 {
            break j;
        }
        if t.is_punct(';') && t.depth == depth {
            return None;
        }
        j += 1;
    };
    let body_end = matching_brace(tokens, body_start)?;
    Some((body_start, body_end))
}

/// Whether the function's first parameter is `self` (any of `self`,
/// `&self`, `&mut self`, `&'a self`, `mut self`).
fn fn_has_self(tokens: &[Token], fn_tok: usize) -> bool {
    // Find the parameter list `(`, skipping a generics block.
    let mut j = fn_tok + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        match skip_angles(tokens, j) {
            Some(after) => j = after,
            None => return false,
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return false;
    }
    j += 1;
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime)
    {
        j += 1;
    }
    tokens.get(j).is_some_and(|t| t.is_ident("self"))
}

/// Skips a `<…>` angle-bracket group starting at `open`; returns the
/// index just past the closing `>`.
pub fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut j = open;
    loop {
        let t = tokens.get(j)?;
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => {
                angle -= 1;
                if angle == 0 {
                    return Some(j + 1);
                }
            }
            TokenKind::Punct(';') | TokenKind::Punct('{') => return None,
            _ => {}
        }
        j += 1;
    }
}
