//! Call-site extraction and name resolution.
//!
//! Resolution is deliberately conservative: a call edge is only created
//! when the callee name plausibly refers to workspace functions, and
//! method names that collide with the standard library (`insert`, `get`,
//! `iter`, …) are never resolved by name — a false edge would propagate
//! held-lock sets and hot-path reachability into unrelated code.
//!
//! One piece of type knowledge comes first: `self.m(…)` is method `m` of
//! the caller's own `impl` type, and `self.f.m(…)` is `m` on the declared
//! type of field `f` of that type's `struct`, whatever `m` is called.
//! Nothing else about a receiver is known — no locals, no chained calls,
//! no trait objects, no inference; those fall to the name-based rules.
//! The runtime lock-order sentinel compensates for the edges this
//! under-approximation misses.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{self, Func, StructDef, CALL_KEYWORDS};
use crate::tokenizer::{Token, TokenKind};
use crate::SourceFile;

/// Method names never resolved to workspace functions by name alone:
/// each collides with a std/container method, and a wrong edge poisons
/// every propagation pass downstream.
const METHOD_STOPLIST: &[&str] = &[
    "abs",
    "add",
    "all",
    "and_then",
    "any",
    "append",
    "as_bytes",
    "as_micros",
    "as_millis",
    "as_mut",
    "as_nanos",
    "as_ref",
    "as_secs",
    "as_secs_f64",
    "as_slice",
    "as_str",
    "binary_search",
    "binary_search_by",
    "binary_search_by_key",
    "bytes",
    "ceil",
    "chain",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "compare_exchange",
    "concat",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "cycle",
    "dedup",
    "default",
    "div",
    "div_ceil",
    "drain",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "eq",
    "err",
    "extend",
    "extend_from_slice",
    "fetch_add",
    "fetch_sub",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "finish",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "insert_str",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "ln",
    "load",
    "lock",
    "log2",
    "map",
    "map_err",
    "map_or",
    "map_or_else",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "mul",
    "ne",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "peek",
    "peekable",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "pow",
    "powf",
    "powi",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "read",
    "recv",
    "rem_euclid",
    "remove",
    "replace",
    "reserve",
    "resize",
    "retain",
    "rev",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "send",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "split",
    "split_once",
    "split_whitespace",
    "splitn",
    "sqrt",
    "starts_with",
    "step_by",
    "store",
    "strip_prefix",
    "strip_suffix",
    "sub",
    "sum",
    "swap",
    "take",
    "take_while",
    "to_be_bytes",
    "to_le_bytes",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_lock",
    "try_read",
    "try_send",
    "try_write",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "values_mut",
    "wait",
    "wait_timeout",
    "window",
    "windows",
    "with",
    "with_capacity",
    "wrapping_add",
    "write",
    "zip",
];

/// Path qualifiers naming std (or shimmed third-party) modules; a call
/// qualified by one of these never targets workspace code.
const STD_QUALIFIERS: &[&str] = &[
    "alloc",
    "array",
    "atomic",
    "char",
    "cmp",
    "collections",
    "convert",
    "core",
    "env",
    "f32",
    "f64",
    "fmt",
    "fs",
    "i128",
    "i16",
    "i32",
    "i64",
    "i8",
    "isize",
    "iter",
    "mem",
    "num",
    "option",
    "process",
    "proptest",
    "ptr",
    "rand",
    "result",
    "serde",
    "serde_json",
    "slice",
    "std",
    "str",
    "sync",
    "thread",
    "time",
    "u128",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

/// One resolved (or unresolvable) call site inside a function body.
#[derive(Debug)]
pub struct Call {
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Callee name as written.
    pub name: String,
    /// Workspace functions this call may target (empty = external /
    /// stoplisted / unresolvable). Multiple targets over-approximate.
    pub targets: Vec<usize>,
}

/// Extracts and resolves every call site, grouped by caller function id.
pub fn build_calls(files: &[SourceFile], funcs: &[Func]) -> Vec<Vec<Call>> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for f in funcs {
        by_name.entry(&f.name).or_default().push(f.id);
    }
    let resolver = Resolver {
        funcs,
        by_name,
        structs: model::extract_structs(files),
        crate_of_file: files.iter().map(|f| model::crate_of(&f.rel_path)).collect(),
    };

    let mut calls: Vec<Vec<Call>> = funcs.iter().map(|_| Vec::new()).collect();
    for (file_idx, file) in files.iter().enumerate() {
        let tokens = &file.tokens;
        let file_funcs: Vec<&Func> = funcs.iter().filter(|f| f.file == file_idx).collect();
        for k in 0..tokens.len() {
            let t = &tokens[k];
            if t.kind != TokenKind::Ident || t.in_test {
                continue;
            }
            if CALL_KEYWORDS.contains(&t.text.as_str()) || t.text == "self" || t.text == "Self" {
                continue;
            }
            // The callee name must be directly followed by `(`, allowing
            // one turbofish (`name::<T>(…)`).
            let mut p = k + 1;
            if tokens.get(p).is_some_and(|n| n.kind == TokenKind::PathSep)
                && tokens.get(p + 1).is_some_and(|n| n.is_punct('<'))
            {
                match model::skip_angles(tokens, p + 1) {
                    Some(after) => p = after,
                    None => continue,
                }
            }
            if !tokens.get(p).is_some_and(|n| n.is_punct('(')) {
                continue;
            }
            let Some(fid) = model::innermost_fn(&file_funcs, k) else {
                continue;
            };
            let prev = k.checked_sub(1).map(|i| &tokens[i]);
            let callee = match prev {
                Some(pv) if pv.is_punct('.') => Callee::Method(receiver(tokens, k - 1)),
                Some(pv) if pv.kind == TokenKind::PathSep => {
                    match k.checked_sub(2).map(|i| &tokens[i]) {
                        Some(q) if q.kind == TokenKind::Ident => Callee::Qualified(&q.text),
                        _ => continue, // `<T as Trait>::f` — unresolvable
                    }
                }
                Some(pv) if pv.is_ident("fn") => continue, // definition
                _ => {
                    // Free call; uppercase names are tuple-struct or enum
                    // constructors, never workspace functions.
                    if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
                        continue;
                    }
                    Callee::Free
                }
            };
            calls[fid].push(Call {
                tok: k,
                line: t.line,
                col: t.col,
                name: t.text.clone(),
                targets: resolver.resolve(&callee, &t.text, &funcs[fid]),
            });
        }
    }
    calls
}

enum Callee<'a> {
    Method(Receiver<'a>),
    Free,
    Qualified(&'a str),
}

/// What the tokens before a method call's `.` say about its receiver.
enum Receiver<'a> {
    /// `self.m(…)`.
    Own,
    /// `self.field.m(…)`.
    Field(&'a str),
    /// A local, a call result, a longer chain: resolved by name only.
    Unknown,
}

/// Classifies the receiver ending just before the `.` at `dot`.
fn receiver(tokens: &[Token], dot: usize) -> Receiver<'_> {
    let back = |n: usize| dot.checked_sub(n).map(|i| &tokens[i]);
    match (back(3), back(2), back(1)) {
        (_, Some(d), Some(s)) if s.is_ident("self") && !d.is_punct('.') => Receiver::Own,
        (Some(s), Some(d), Some(f))
            if s.is_ident("self")
                && d.is_punct('.')
                && f.kind == TokenKind::Ident
                && !back(4).is_some_and(|b| b.is_punct('.')) =>
        {
            Receiver::Field(&f.text)
        }
        _ => Receiver::Unknown,
    }
}

struct Resolver<'a> {
    funcs: &'a [Func],
    by_name: BTreeMap<&'a str, Vec<usize>>,
    structs: Vec<StructDef>,
    crate_of_file: Vec<&'a str>,
}

impl Resolver<'_> {
    fn crate_of(&self, f: &Func) -> &str {
        self.crate_of_file[f.file]
    }

    /// Functions called `name` that pass `keep`.
    fn candidates(&self, name: &str, keep: impl Fn(&Func) -> bool) -> Vec<usize> {
        let ids = self.by_name.get(name).map_or(&[][..], Vec::as_slice);
        ids.iter()
            .copied()
            .filter(|&id| keep(&self.funcs[id]))
            .collect()
    }

    /// The nearest tier of `raw`: same file, then same crate, then all.
    fn nearest(&self, raw: Vec<usize>, caller: &Func) -> Vec<usize> {
        let same_file = |id: &usize| self.funcs[*id].file == caller.file;
        let same_crate = |id: &usize| self.crate_of(&self.funcs[*id]) == self.crate_of(caller);
        if raw.iter().any(same_file) {
            raw.into_iter().filter(same_file).collect()
        } else if raw.iter().any(same_crate) {
            raw.into_iter().filter(same_crate).collect()
        } else {
            raw
        }
    }

    /// Methods called `name` on the receiver's declared type, when the
    /// receiver is `self` or one of its struct's fields. For a field,
    /// every identifier of the declared type is a candidate type
    /// (`Arc<TrackedMutex<Detector>>` is tried as all three); only a
    /// workspace type that has such a method yields a target.
    fn by_receiver_type(&self, recv: &Receiver<'_>, name: &str, caller: &Func) -> Vec<usize> {
        let Some(own) = caller.impl_type.as_deref() else {
            return Vec::new();
        };
        let raw = match recv {
            Receiver::Unknown => return Vec::new(),
            // A type's methods live in its own crate (inherent impls must).
            Receiver::Own => self.candidates(name, |f| {
                f.impl_type.as_deref() == Some(own) && self.crate_of(f) == self.crate_of(caller)
            }),
            Receiver::Field(field) => {
                let mine = |s: &&StructDef| {
                    s.name == own && self.crate_of_file[s.file] == self.crate_of(caller)
                };
                let decl = self
                    .structs
                    .iter()
                    .filter(mine)
                    .find(|s| s.file == caller.file)
                    .or_else(|| self.structs.iter().find(mine));
                let Some(ty) = decl
                    .and_then(|s| s.fields.iter().find(|f| f.name == *field))
                    .map(|f| &f.ty)
                else {
                    return Vec::new();
                };
                self.candidates(name, |f| {
                    f.impl_type.as_ref().is_some_and(|t| ty.contains(t))
                })
            }
        };
        let methods = raw
            .into_iter()
            .filter(|&id| self.funcs[id].has_self && id != caller.id)
            .collect();
        self.nearest(methods, caller)
    }

    fn resolve(&self, callee: &Callee<'_>, name: &str, caller: &Func) -> Vec<usize> {
        let free = |f: &Func| f.impl_type.is_none() && !f.has_self;
        let raw = match callee {
            Callee::Method(recv) => {
                let typed = self.by_receiver_type(recv, name, caller);
                if !typed.is_empty() {
                    return typed;
                }
                if METHOD_STOPLIST.binary_search(&name).is_ok() {
                    return Vec::new();
                }
                // A same-named method call inside a function never resolves
                // back to that function: `self.detector.lock().total_alerts()`
                // inside `fn total_alerts` is the wrapper-delegation pattern,
                // and a self-target would fabricate a lock self-cycle.
                self.candidates(name, |f| f.has_self && f.id != caller.id)
            }
            Callee::Free if name == "drop" => return Vec::new(),
            Callee::Free => self.candidates(name, free),
            Callee::Qualified(q) if STD_QUALIFIERS.contains(q) => return Vec::new(),
            Callee::Qualified("Self") => match caller.impl_type.as_deref() {
                Some(ty) => self.candidates(name, |f| f.impl_type.as_deref() == Some(ty)),
                None => Vec::new(),
            },
            Callee::Qualified(q) => {
                let in_crate = match (*q, q.strip_prefix("athena_")) {
                    ("crate", _) => Some(self.crate_of(caller)),
                    (_, named) => named,
                };
                if let Some(cr) = in_crate {
                    self.candidates(name, |f| free(f) && self.crate_of(f) == cr)
                } else if q.chars().next().is_some_and(|c| c.is_uppercase()) {
                    // `Type::method(…)` — associated call on a workspace type.
                    self.candidates(name, |f| f.impl_type.as_deref() == Some(*q))
                } else {
                    // `module::function(…)`.
                    self.candidates(name, free)
                }
            }
        };
        let near = self.nearest(raw, caller);
        // Workspace tier, method calls only: candidates scattered across
        // crates mean the name is generic (`checkpoint`, `bind_telemetry`);
        // resolving to all of them stitches unrelated subsystems together.
        if matches!(callee, Callee::Method(_)) {
            let crates: BTreeSet<&str> = near
                .iter()
                .map(|&id| self.crate_of(&self.funcs[id]))
                .collect();
            if crates.len() > 1 {
                return Vec::new();
            }
        }
        near
    }
}

#[cfg(test)]
mod tests {
    use super::METHOD_STOPLIST;

    #[test]
    fn stoplist_is_sorted_for_binary_search() {
        let mut sorted = METHOD_STOPLIST.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, METHOD_STOPLIST);
    }
}
