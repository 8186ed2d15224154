//! Hot-path propagation.
//!
//! `[analyze] hot_entries` seeds the per-packet / per-window entry points
//! (`"<file>::<fn>"`, or `"<file>::*"` for a whole file). Hotness then
//! propagates transitively through the resolved call graph: a helper
//! three hops below the forwarding path inherits the no-panic and
//! no-unordered-iteration obligations, with the call chain attached to
//! every finding as a witness.

use std::collections::{BTreeMap, VecDeque};

use crate::config::Config;
use crate::graph::Call;
use crate::model::{self, Func};
use crate::sites;
use crate::{Diagnostic, SourceFile};

/// How a function became hot.
enum Hotness {
    Seed,
    Via { parent: usize, line: u32 },
}

/// Runs the hot-path pass: findings go to `diags`; returns the sorted
/// qualified names of every hot function (for the JSON report).
pub(crate) fn analyze_hot(
    config: &Config,
    files: &[SourceFile],
    funcs: &[Func],
    calls: &[Vec<Call>],
    diags: &mut Vec<Diagnostic>,
) -> Vec<String> {
    let mut hot: BTreeMap<usize, Hotness> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    for entry in &config.hot_entries {
        let Some((file, name)) = entry.rsplit_once("::") else {
            diags.push(bad_entry(
                config,
                entry,
                "expected \"<file>::<fn>\" or \"<file>::*\"",
            ));
            continue;
        };
        let mut matched = false;
        for f in funcs {
            if files[f.file].rel_path == file && (name == "*" || f.name == name) {
                matched = true;
                hot.entry(f.id).or_insert_with(|| {
                    queue.push_back(f.id);
                    Hotness::Seed
                });
            }
        }
        if !matched {
            diags.push(bad_entry(config, entry, "matched no function"));
        }
    }

    while let Some(f) = queue.pop_front() {
        for call in &calls[f] {
            for &t in &call.targets {
                hot.entry(t).or_insert_with(|| {
                    queue.push_back(t);
                    Hotness::Via {
                        parent: f,
                        line: call.line,
                    }
                });
            }
        }
    }

    // Scan each file containing hot functions once; keep sites whose
    // innermost enclosing function is hot.
    let mut hot_files: BTreeMap<usize, Vec<&Func>> = BTreeMap::new();
    for &id in hot.keys() {
        hot_files.entry(funcs[id].file).or_default();
    }
    for (file_idx, list) in &mut hot_files {
        *list = funcs.iter().filter(|f| f.file == *file_idx).collect();
    }
    for (&file_idx, file_funcs) in &hot_files {
        let file = &files[file_idx];
        let passes: [(&'static str, Vec<sites::Site>); 2] = [
            ("no-panic-in-hot-path", sites::panic_sites(&file.tokens)),
            (
                "no-unordered-iter-in-hot-path",
                sites::unordered_iter_sites(&file.tokens),
            ),
        ];
        for (rule, found) in passes {
            for site in found {
                let Some(fid) = model::innermost_fn(file_funcs, site.token) else {
                    continue;
                };
                if !hot.contains_key(&fid) {
                    continue;
                }
                let mut d = Diagnostic::at(rule, file, &file.tokens[site.token], site.message);
                d.witness = chain(fid, &hot, funcs, files);
                diags.push(d);
            }
        }
    }

    hot.keys().map(|&id| funcs[id].qualified(files)).collect()
}

fn bad_entry(config: &Config, entry: &str, why: &str) -> Diagnostic {
    Diagnostic::in_config(
        "hot-entry-unmatched",
        config.hot_entries_line,
        format!("[analyze] hot_entries entry {entry:?} {why}"),
    )
}

/// Call chain from a hot seed down to `fid` (empty for seeds — their
/// hotness is declared, not derived).
fn chain(
    fid: usize,
    hot: &BTreeMap<usize, Hotness>,
    funcs: &[Func],
    files: &[SourceFile],
) -> Vec<String> {
    let mut hops_rev = Vec::new();
    let mut cur = fid;
    for _ in 0..20 {
        match hot.get(&cur) {
            Some(Hotness::Via { parent, line }) => {
                hops_rev.push(format!(
                    "called from {} ({}:{})",
                    funcs[*parent].qualified(files),
                    files[funcs[*parent].file].rel_path,
                    line
                ));
                cur = *parent;
            }
            Some(Hotness::Seed) => {
                if !hops_rev.is_empty() {
                    hops_rev.push(format!("hot entry {}", funcs[cur].qualified(files)));
                }
                break;
            }
            None => break,
        }
    }
    hops_rev.reverse();
    hops_rev
}
