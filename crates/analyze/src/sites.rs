//! Site extraction: the token-level pattern matchers under the hot-path
//! pass ([`crate::hot`]) and the guard-window pass ([`crate::locks`]).
//!
//! Everything here is purely syntactic — no name resolution, no
//! cross-file state. The analysis layers decide what a site *means*
//! (hot-reachable, held across a call, …); this module only finds them.

use crate::tokenizer::{Token, TokenKind};

/// Keywords that may directly precede a `[` without it being indexing
/// (array literals, types, and expression starts).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "dyn", "else", "enum", "fn", "for", "if", "impl", "in", "let",
    "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct", "trait",
    "type", "unsafe", "use", "where", "while", "yield",
];

/// Methods whose iteration order over a hash container is
/// nondeterministic.
const UNORDERED_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// One matched site: the token it anchors to plus the message to report.
#[derive(Debug, Clone)]
pub struct Site {
    /// Index into the token stream.
    pub token: usize,
    /// Human-readable description.
    pub message: String,
}

/// Panicking constructs: `unwrap`/`expect` method calls, `panic!`-family
/// macros, and `expr[…]` indexing (which panics out of bounds). Test
/// tokens are skipped.
pub fn panic_sites(tokens: &[Token]) -> Vec<Site> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
                let next_open = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
                let next_bang = tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
                if prev_dot && next_open && (t.text == "unwrap" || t.text == "expect") {
                    out.push(Site {
                        token: i,
                        message: format!(".{}() can panic; return a typed error instead", t.text),
                    });
                } else if next_bang && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
                {
                    out.push(Site {
                        token: i,
                        message: format!("{}! is banned in hot-path code", t.text),
                    });
                }
            }
            TokenKind::Punct('[') => {
                if let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) {
                    let indexes_expr = match prev.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                        TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                        _ => false,
                    };
                    if indexes_expr {
                        out.push(Site {
                            token: i,
                            message: "slice/map indexing panics out of bounds; use .get()"
                                .to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Hash-container iteration sites: `.iter()`-family calls on identifiers
/// declared as `HashMap`/`HashSet` in this file, and bare `for … in map`
/// loops over them.
///
/// Only receivers rooted at `self` or bare locals are flagged: a path
/// like `topology.switches` names a *different* struct's field, which
/// merely collides with a hash-container name declared here.
pub fn unordered_iter_sites(tokens: &[Token]) -> Vec<Site> {
    let declared = hash_container_names(tokens);
    if declared.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        // `name.iter()` / `.keys()` / `.values_mut()` …
        if declared.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind == TokenKind::Ident && UNORDERED_ITER_METHODS.contains(&n.text.as_str())
            })
            && tokens.get(i + 3).is_some_and(|n| n.is_punct('('))
            && rooted_at_self_or_bare(tokens, i)
        {
            out.push(Site {
                token: i + 2,
                message: format!(
                    "iterating hash container `{}` in a hot path is order-nondeterministic; \
                     sort the results or use an ordered structure",
                    t.text
                ),
            });
        }
        // `for … in [&[mut]] path.to.name {`
        if t.text == "in" {
            if let Some((name, rooted)) = bare_loop_target(tokens, i + 1) {
                if rooted && declared.contains(&name) {
                    out.push(Site {
                        token: i,
                        message: format!(
                            "for-loop over hash container `{name}` in a hot path is \
                             order-nondeterministic; sort the results or use an ordered \
                             structure"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Whether the field-access chain ending at `ident` starts at `self` or
/// is a bare local (`m.iter()` yes, `self.map.iter()` yes,
/// `topology.switches` no — that is someone else's field).
fn rooted_at_self_or_bare(tokens: &[Token], ident: usize) -> bool {
    let mut j = ident;
    while j >= 2 && tokens[j - 1].is_punct('.') && tokens[j - 2].kind == TokenKind::Ident {
        j -= 2;
    }
    if j == ident {
        // Bare — unless the "receiver" is a call/index result.
        return !(j > 0
            && (tokens[j - 1].is_punct('.') || tokens[j - 1].kind == TokenKind::PathSep));
    }
    tokens[j].is_ident("self")
}

/// Identifiers declared in this file with a `HashMap`/`HashSet` type
/// (field/let annotations, possibly `&`-qualified or path-qualified) or
/// bound from a `HashMap::…` constructor call.
fn hash_container_names(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a `std::collections::` style path prefix.
        let mut j = i;
        while j >= 2
            && tokens[j - 1].kind == TokenKind::PathSep
            && tokens[j - 2].kind == TokenKind::Ident
        {
            j -= 2;
        }
        // Skip reference/mutability qualifiers in the type position.
        let mut k = j;
        while k > 0 && (tokens[k - 1].is_punct('&') || tokens[k - 1].is_ident("mut")) {
            k -= 1;
        }
        let name = match (
            k.checked_sub(2).map(|p| &tokens[p]),
            k.checked_sub(1).map(|p| &tokens[p]),
        ) {
            // `name: HashMap<…>` (field, param, or annotated let).
            (Some(n), Some(c)) if c.is_punct(':') && n.kind == TokenKind::Ident => Some(&n.text),
            // `name = HashMap::new()` style bindings.
            (Some(n), Some(eq)) if eq.is_punct('=') && n.kind == TokenKind::Ident => Some(&n.text),
            _ => None,
        };
        if let Some(name) = name {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
    }
    out
}

/// For a `for … in <expr> {` loop, returns the final identifier of the
/// iterated expression and whether the path is rooted at `self` or a bare
/// local — `None` for anything with calls, ranges, or other operators,
/// which either iterate deterministically or are flagged at their
/// method-call site instead.
fn bare_loop_target(tokens: &[Token], mut j: usize) -> Option<(String, bool)> {
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        j += 1;
    }
    let mut path: Vec<String> = Vec::new();
    loop {
        let t = tokens.get(j)?;
        match t.kind {
            TokenKind::Ident => {
                path.push(t.text.clone());
                j += 1;
            }
            TokenKind::Punct('.') | TokenKind::PathSep => j += 1,
            TokenKind::Punct('{') => {
                let name = path.last()?.clone();
                let rooted = path.len() == 1 || path[0] == "self";
                return Some((name, rooted));
            }
            _ => return None,
        }
    }
}

/// The method-name token of the send/event-bus call `.name(` whose `.` is
/// at `dot` — `name` being one of `bus_calls` — outside test code.
pub fn bus_call_at<'a>(tokens: &'a [Token], dot: usize, bus_calls: &[String]) -> Option<&'a Token> {
    let name = tokens.get(dot + 1)?;
    (tokens[dot].is_punct('.')
        && name.kind == TokenKind::Ident
        && !name.in_test
        && bus_calls.contains(&name.text)
        && tokens.get(dot + 2)?.is_punct('('))
    .then_some(name)
}

/// The [`Acquisition::name`] of a receiver that no identifier names.
pub const UNNAMED: &str = "<expr>";

/// One lock acquisition found in the token stream.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Index of the token starting the acquisition: the `.` of
    /// `.lock()`/`.read()`/`.write()`.
    pub at: usize,
    /// Index just past the acquisition call's closing `)`.
    pub end: usize,
    /// Coarse lock name: the receiver's final field/variable identifier.
    pub name: String,
}

/// Finds lock-acquisition sites: `.lock()` / `.read()` / `.write()`
/// method calls with empty argument lists.
pub fn find_acquisitions(tokens: &[Token]) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let is_acquire = tokens[i].is_punct('.')
            && tokens
                .get(i + 1)
                .is_some_and(|t| matches!(t.text.as_str(), "lock" | "read" | "write"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'));
        if is_acquire {
            out.push(Acquisition {
                at: i,
                end: i + 4,
                name: receiver_name(tokens, i),
            });
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (off, t) in tokens[open..].iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(open + off);
            }
        }
    }
    None
}

/// The identifier naming the lock: the last field/variable in the
/// receiver chain (`self.runtime.reactor.lock()` → `reactor`,
/// `s.pending.0.lock()` → `pending`).
fn receiver_name(tokens: &[Token], dot: usize) -> String {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        match tokens[j].kind {
            TokenKind::Ident => return tokens[j].text.clone(),
            TokenKind::Number => continue,
            // Skip a call's argument list: find its opening paren.
            TokenKind::Punct(')') => {
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if tokens[j].is_punct(')') {
                        depth += 1;
                    } else if tokens[j].is_punct('(') {
                        depth -= 1;
                    }
                }
            }
            // Skip an index expression: `deques[id].lock()` → `deques`.
            TokenKind::Punct(']') => {
                let mut depth = 1i32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if tokens[j].is_punct(']') {
                        depth += 1;
                    } else if tokens[j].is_punct('[') {
                        depth -= 1;
                    }
                }
            }
            _ => return UNNAMED.to_string(),
        }
    }
    UNNAMED.to_string()
}

/// Token index (exclusive) at which the acquisition's guard is released:
/// the end of its syntactic extent, or an earlier `drop(guard)` — or a
/// tuple drop containing it — when the guard is a named `let` binding.
pub fn guard_end(tokens: &[Token], acq: &Acquisition) -> usize {
    let end = guard_extent(tokens, acq).min(tokens.len());
    guard_variable(tokens, acq)
        .and_then(|var| (acq.end..end).find(|&k| drop_releases(tokens, k, &var)))
        .unwrap_or(end)
}

/// Token index (exclusive) until which the acquisition's guard lives.
///
/// Three statement shapes matter:
///
/// - `let g = ….lock();` — a named guard lives to the end of the
///   enclosing block.
/// - `if let Some(x) = ….lock().pop() { … } else { … }` — a temporary
///   born in a control-flow header lives through the whole statement,
///   *including* the body block and any `else` chain (Rust keeps
///   condition temporaries alive until the end of the `if`).
/// - `….lock().push(x);` — any other temporary (including a chained
///   `let v = ….lock().take();`) dies at the end of its statement.
fn guard_extent(tokens: &[Token], acq: &Acquisition) -> usize {
    let depth = tokens[acq.at].depth;
    let stmt_start = statement_start(tokens, acq.at);
    let first = &tokens[stmt_start];

    if first.is_ident("let") && !tokens.get(acq.end).is_some_and(|t| t.is_punct('.')) {
        // Named guard: lives to the end of the enclosing block. When the
        // acquisition is chained onward (`let v = m.lock().take();`) the
        // binding holds the *result*, not the guard — the guard is a
        // temporary and dies at the statement end below.
        for (off, t) in tokens[acq.end..].iter().enumerate() {
            if t.is_punct('}') && t.depth == depth {
                return acq.end + off;
            }
        }
        return tokens.len();
    }

    if matches!(
        first.text.as_str(),
        "if" | "while" | "match" | "for" | "else"
    ) && first.kind == TokenKind::Ident
    {
        return control_statement_end(tokens, acq.end, depth);
    }

    // Plain temporary: dies at the end of the statement.
    for (off, t) in tokens[acq.end..].iter().enumerate() {
        if (t.is_punct(';') || t.is_punct('}')) && t.depth == depth {
            return acq.end + off;
        }
    }
    tokens.len()
}

/// End (exclusive) of a control-flow statement whose header starts
/// before `from` at brace depth `depth`: scans to the body block (the
/// first `{` one level deeper), across its matching `}`, and through any
/// `else`/`else if` continuation.
fn control_statement_end(tokens: &[Token], from: usize, depth: u32) -> usize {
    let mut j = from;
    loop {
        // Find the body's opening brace (or give up at a terminator).
        loop {
            match tokens.get(j) {
                None => return tokens.len(),
                Some(t) if t.is_punct('{') && t.depth == depth + 1 => break,
                Some(t) if (t.is_punct(';') || t.is_punct('}')) && t.depth == depth => {
                    return j;
                }
                Some(_) => j += 1,
            }
        }
        // Skip to the matching close.
        j += 1;
        loop {
            match tokens.get(j) {
                None => return tokens.len(),
                Some(t) if t.is_punct('}') && t.depth == depth + 1 => break,
                Some(_) => j += 1,
            }
        }
        // `else` / `else if` continues the statement.
        match tokens.get(j + 1) {
            Some(t) if t.is_ident("else") => j += 2,
            _ => return j + 1,
        }
    }
}

/// The variable a `let` guard is bound to, when the acquisition's
/// statement is a `let` binding of a plain identifier.
fn guard_variable(tokens: &[Token], acq: &Acquisition) -> Option<String> {
    let stmt_start = statement_start(tokens, acq.at);
    if !tokens.get(stmt_start)?.is_ident("let") {
        return None;
    }
    let mut j = stmt_start + 1;
    while tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    tokens
        .get(j)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
}

/// Index of the first token of the statement containing `at`.
fn statement_start(tokens: &[Token], at: usize) -> usize {
    let mut j = at;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return j;
        }
        j -= 1;
    }
    0
}

/// Whether the tokens at `k` are a `drop(…)` call whose argument list
/// contains the identifier `var` — covers both `drop(guard)` and the
/// tuple form `drop((a, guard, c))`.
fn drop_releases(tokens: &[Token], k: usize, var: &str) -> bool {
    if !(tokens[k].is_ident("drop") && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))) {
        return false;
    }
    let Some(close) = matching_paren(tokens, k + 1) else {
        return false;
    };
    tokens[k + 2..close].iter().any(|t| t.is_ident(var))
}
