//! Guard windows and the derived lock-acquisition graph.
//!
//! Every acquisition site (`.lock()` / `.read()` / `.write()`) opens a
//! *window*: the token range of its function over which the guard is
//! held. The windows are computed once and read twice.
//!
//! Inside one function they give `lock-discipline`: while a guard is
//! held, the same lock may not be re-acquired (self-deadlock) and no
//! send/event-bus call may run.
//!
//! Across functions, each nameable acquisition gets a crate-qualified
//! name and held-lock sets propagate through the call graph to a
//! fixpoint; an edge `A → B` means "B was acquired somewhere while A was
//! held". The gate then demands the edge set be cycle-free and consistent
//! with the single global order declared in `[analyze] lock_order` —
//! which turns `lint.toml` from a trusted assertion into a verified one —
//! and that no call made under a guard transitively reaches a bus call.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::graph::Call;
use crate::model::{self, Func};
use crate::sites;
use crate::{Diagnostic, LockGraph, SourceFile};
use serde::Serialize;

/// The conventional guard methods (see [`analyze_locks`]).
const OPAQUE_WRAPPERS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// One derived acquisition-order edge with its code witness.
#[derive(Debug, Clone, Serialize)]
pub struct LockEdge {
    /// Lock held at the time.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the inner acquisition.
    pub file: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// How `from` came to be held at that point (call-chain hops).
    pub witness: Vec<String>,
}

impl LockEdge {
    /// A finding at the inner acquisition, carrying the edge's witness.
    fn finding(&self, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.file.clone(),
            line: self.line,
            col: self.col,
            message,
            witness: self.witness.clone(),
        }
    }
}

/// A held-guard window inside one function (token half-open range).
struct Window {
    /// Crate-qualified lock name.
    lock: String,
    /// False for a receiver that cannot be named (`<crate>/<expr>`).
    named: bool,
    start: usize,
    end: usize,
    acq_tok: usize,
    acq_line: u32,
}

impl Window {
    fn holds(&self, tok: usize) -> bool {
        self.start <= tok && tok < self.end
    }
}

/// Runs the guard-window and lock-graph passes; findings go to `diags`.
pub(crate) fn analyze_locks(
    config: &Config,
    files: &[SourceFile],
    funcs: &[Func],
    calls: &[Vec<Call>],
    diags: &mut Vec<Diagnostic>,
) -> LockGraph {
    let mut windows = collect_windows(files, funcs);
    discipline_diags(config, files, funcs, &windows, diags);

    // The graph is over nameable locks, and a lock *wrapper*'s body is
    // opaque to it: the conventional guard methods. Their internal
    // `.lock()` is the implementation of the acquisition already
    // attributed at their call sites.
    for (f, ws) in funcs.iter().zip(&mut windows) {
        let wrapper = OPAQUE_WRAPPERS.contains(&f.name.as_str());
        ws.retain(|w| w.named && !wrapper);
    }

    // Fixpoint: locks held on entry to each function, with the call edge
    // that first propagated them (for witness reconstruction).
    let mut entry_held: Vec<BTreeMap<String, (usize, u32)>> =
        funcs.iter().map(|_| BTreeMap::new()).collect();
    loop {
        let mut changed = false;
        for f in 0..funcs.len() {
            for call in &calls[f] {
                if call.targets.is_empty() {
                    continue;
                }
                let mut held: BTreeSet<String> = entry_held[f].keys().cloned().collect();
                for w in windows[f].iter().filter(|w| w.holds(call.tok)) {
                    held.insert(w.lock.clone());
                }
                for &t in &call.targets {
                    for h in &held {
                        if !entry_held[t].contains_key(h) {
                            entry_held[t].insert(h.clone(), (f, call.line));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Derive edges: one deterministic pass, first witness wins.
    let mut edge_map: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for f in 0..funcs.len() {
        let file = &files[funcs[f].file];
        for w_to in &windows[f] {
            let anchor = &file.tokens[w_to.acq_tok + 1];
            let mut add = |from: String, witness: Vec<String>| {
                edge_map
                    .entry((from.clone(), w_to.lock.clone()))
                    .or_insert_with(|| LockEdge {
                        from,
                        to: w_to.lock.clone(),
                        file: file.rel_path.clone(),
                        line: anchor.line,
                        col: anchor.col,
                        witness,
                    });
            };
            for w_held in &windows[f] {
                if w_held.holds(w_to.acq_tok) && w_held.lock != w_to.lock {
                    add(
                        w_held.lock.clone(),
                        vec![format!(
                            "`{}` acquired in {} ({}:{})",
                            w_held.lock,
                            funcs[f].qualified(files),
                            file.rel_path,
                            w_held.acq_line
                        )],
                    );
                }
            }
            for h in entry_held[f].keys() {
                // Same-lock here means re-entrant acquisition through a
                // call chain: a self-edge, reported as a cycle below.
                add(
                    h.clone(),
                    chain_for(f, h, &entry_held, &windows, funcs, files),
                );
            }
        }
    }
    let edges: Vec<LockEdge> = edge_map.into_values().collect();

    let locks: Vec<String> = {
        let mut set: BTreeSet<String> = BTreeSet::new();
        for ws in &windows {
            for w in ws {
                set.insert(w.lock.clone());
            }
        }
        set.into_iter().collect()
    };

    let cycle_edges = cycle_diags(&edges, diags);
    order_diags(config, &locks, &edges, &cycle_edges, diags);
    bus_diags(config, files, funcs, calls, &windows, &entry_held, diags);

    LockGraph {
        suggested_order: suggest_order(&locks, &edges, &config.lock_order),
        locks,
        edges,
    }
}

/// Collects every held-guard window of every function — the one walk
/// over acquisition sites. Test code opens no window.
fn collect_windows(files: &[SourceFile], funcs: &[Func]) -> Vec<Vec<Window>> {
    let mut windows: Vec<Vec<Window>> = funcs.iter().map(|_| Vec::new()).collect();
    for (file_idx, file) in files.iter().enumerate() {
        let tokens = &file.tokens;
        let file_funcs: Vec<&Func> = funcs.iter().filter(|f| f.file == file_idx).collect();
        if file_funcs.is_empty() {
            continue;
        }
        let krate = model::crate_of(&file.rel_path);
        for acq in sites::find_acquisitions(tokens) {
            if tokens[acq.at].in_test {
                continue;
            }
            let Some(fid) = model::innermost_fn(&file_funcs, acq.at) else {
                continue;
            };
            windows[fid].push(Window {
                lock: format!("{krate}/{}", acq.name),
                named: acq.name != sites::UNNAMED,
                start: acq.end,
                end: sites::guard_end(tokens, &acq).min(funcs[fid].body_end),
                acq_tok: acq.at,
                acq_line: tokens[acq.at + 1].line,
            });
        }
    }
    windows
}

/// `lock-discipline`, read off each function's windows: a nameable lock
/// re-acquired inside its own window, and a direct bus call inside any
/// window. Acquisition *ordering* between different locks needs the call
/// graph — cross-function nesting is where real inversions live.
fn discipline_diags(
    config: &Config,
    files: &[SourceFile],
    funcs: &[Func],
    windows: &[Vec<Window>],
    diags: &mut Vec<Diagnostic>,
) {
    for (f, ws) in funcs.iter().zip(windows) {
        let file = &files[f.file];
        for w in ws {
            let again = |a: &&Window| w.named && a.lock == w.lock && w.holds(a.acq_tok);
            for a in ws.iter().filter(again) {
                let message = format!(
                    "lock `{}` re-acquired while its guard is held (self-deadlock)",
                    w.lock
                );
                let at = &file.tokens[a.acq_tok];
                diags.push(Diagnostic::at("lock-discipline", file, at, message));
            }
            for k in w.start..w.end {
                if let Some(bus) = sites::bus_call_at(&file.tokens, k, &config.bus_calls) {
                    let message = format!(
                        "`.{}(…)` called while lock `{}` is held; release the guard first",
                        bus.text, w.lock
                    );
                    diags.push(Diagnostic::at("lock-discipline", file, bus, message));
                }
            }
        }
    }
}

/// Reconstructs how `lock` came to be held on entry to `fid`.
fn chain_for(
    fid: usize,
    lock: &str,
    entry_held: &[BTreeMap<String, (usize, u32)>],
    windows: &[Vec<Window>],
    funcs: &[Func],
    files: &[SourceFile],
) -> Vec<String> {
    let mut hops_rev = Vec::new();
    let mut cur = fid;
    let mut seen = BTreeSet::new();
    while let Some(&(e, line)) = entry_held[cur].get(lock) {
        if !seen.insert(cur) || hops_rev.len() >= 20 {
            break;
        }
        hops_rev.push(format!(
            "held across call from {} ({}:{})",
            funcs[e].qualified(files),
            files[funcs[e].file].rel_path,
            line
        ));
        cur = e;
    }
    if let Some(w) = windows[cur].iter().find(|w| w.lock == lock) {
        hops_rev.push(format!(
            "`{lock}` acquired in {} ({}:{})",
            funcs[cur].qualified(files),
            files[funcs[cur].file].rel_path,
            w.acq_line
        ));
    }
    hops_rev.reverse();
    hops_rev
}

/// Finds strongly-connected components with a cycle and reports each as
/// one `lock-cycle` diagnostic. Returns the set of intra-cycle edges so
/// the order check does not double-report them.
fn cycle_diags(edges: &[LockEdge], diags: &mut Vec<Diagnostic>) -> BTreeSet<(String, String)> {
    let nodes: Vec<&str> = {
        let mut s: BTreeSet<&str> = BTreeSet::new();
        for e in edges {
            s.insert(&e.from);
            s.insert(&e.to);
        }
        s.into_iter().collect()
    };
    let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        adj[index[e.from.as_str()]].push(index[e.to.as_str()]);
    }
    let scc = tarjan(&adj);

    let mut cycle_edges = BTreeSet::new();
    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for e in edges {
        let (a, b) = (index[e.from.as_str()], index[e.to.as_str()]);
        let cyclic = scc[a] == scc[b] && (a != b || e.from == e.to);
        if !cyclic {
            continue;
        }
        cycle_edges.insert((e.from.clone(), e.to.clone()));
        if !reported.insert(scc[a]) {
            continue;
        }
        let members: Vec<String> = edges
            .iter()
            .filter(|x| {
                scc[index[x.from.as_str()]] == scc[a] && scc[index[x.to.as_str()]] == scc[a]
            })
            .map(|x| format!("`{}` → `{}` ({}:{})", x.from, x.to, x.file, x.line))
            .collect();
        let message = format!(
            "derived lock-acquisition cycle: {}; a concurrent interleaving of these chains \
             deadlocks",
            members.join(", ")
        );
        diags.push(e.finding("lock-cycle", message));
    }
    cycle_edges
}

/// Iterative Tarjan SCC; returns the component id of each node.
fn tarjan(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut comp = vec![usize::MAX; n];
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().unwrap_or(v);
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// Verifies the declared `lock_order` against the derived (acyclic part
/// of the) edge set.
fn order_diags(
    config: &Config,
    site_locks: &[String],
    edges: &[LockEdge],
    cycle_edges: &BTreeSet<(String, String)>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut pos: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, name) in config.lock_order.iter().enumerate() {
        if pos.insert(name, i).is_some() {
            diags.push(Diagnostic::in_config(
                "lock-order-violation",
                config.lock_order_line,
                format!("lock `{name}` listed twice in [analyze] lock_order"),
            ));
        }
    }

    let mut unlisted: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        if cycle_edges.contains(&(e.from.clone(), e.to.clone())) {
            continue;
        }
        match (pos.get(e.from.as_str()), pos.get(e.to.as_str())) {
            (Some(a), Some(b)) if a > b => diags.push(e.finding(
                "lock-order-violation",
                format!(
                    "derived acquisition `{}` → `{}` contradicts [analyze] lock_order, \
                     which lists `{}` before `{}`",
                    e.from, e.to, e.to, e.from
                ),
            )),
            (Some(_), Some(_)) => {}
            (a, b) => {
                for (p, name) in [(a, &e.from), (b, &e.to)] {
                    if p.is_none() && unlisted.insert(name.as_str()) {
                        diags.push(e.finding(
                            "lock-order-violation",
                            format!(
                                "lock `{name}` participates in derived acquisition edge \
                                 `{}` → `{}` but is not listed in [analyze] lock_order; \
                                 regenerate with `cargo run -p athena-analyze --bin \
                                 athena-lint -- --lock-graph`",
                                e.from, e.to
                            ),
                        ));
                    }
                }
            }
        }
    }

    for name in &config.lock_order {
        if !site_locks.contains(name) {
            diags.push(Diagnostic::in_config(
                "lock-order-violation",
                config.lock_order_line,
                format!(
                    "declared lock `{name}` matched no acquisition site; delete it or \
                     regenerate with `--lock-graph`"
                ),
            ));
        }
    }
}

/// A topological order of the derived graph, suitable for pasting into
/// `lock_order`. Of the locks ready at one step, those `declared` in
/// `lock_order` come first, in their declared order, then the rest by
/// name: a lock no derived edge constrains (one taken only inside a
/// closure) keeps the place the sentinel's report gave it, and a
/// declared order consistent with the edges comes back unchanged. Cycle
/// members (if any) come last, sorted.
fn suggest_order(locks: &[String], edges: &[LockEdge], declared: &[String]) -> Vec<String> {
    let index: BTreeMap<&str, usize> = locks
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut indegree = vec![0usize; locks.len()];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); locks.len()];
    for e in edges {
        let (Some(&a), Some(&b)) = (index.get(e.from.as_str()), index.get(e.to.as_str())) else {
            continue;
        };
        if a != b && !adj[a].contains(&b) {
            adj[a].push(b);
            indegree[b] += 1;
        }
    }
    // `locks` is sorted, so (declared position, index) ranks declared
    // locks by position and the others, after them, by name.
    let rank = |i: usize| {
        let at = declared.iter().position(|name| *name == locks[i]);
        (at.unwrap_or(declared.len()), i)
    };
    let mut ready: BTreeSet<(usize, usize)> = (0..locks.len())
        .filter(|&i| indegree[i] == 0)
        .map(rank)
        .collect();
    let mut out = Vec::with_capacity(locks.len());
    let mut emitted = vec![false; locks.len()];
    while let Some((_, i)) = ready.pop_first() {
        emitted[i] = true;
        out.push(locks[i].clone());
        for &j in &adj[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 && !emitted[j] {
                ready.insert(rank(j));
            }
        }
    }
    for (i, name) in locks.iter().enumerate() {
        if !emitted[i] {
            out.push(name.clone());
        }
    }
    out
}

/// Graph-aware bus-call check: flags calls made under a held guard whose
/// *callee* transitively performs a send/event-bus call. Direct bus calls
/// under a guard are [`discipline_diags`]' job.
fn bus_diags(
    config: &Config,
    files: &[SourceFile],
    funcs: &[Func],
    calls: &[Vec<Call>],
    windows: &[Vec<Window>],
    entry_held: &[BTreeMap<String, (usize, u32)>],
    diags: &mut Vec<Diagnostic>,
) {
    // Which functions *directly* contain a bus call.
    #[derive(Clone)]
    enum Reach {
        Direct { line: u32, name: String },
        Via { callee: usize, line: u32 },
    }
    let mut reach: Vec<Option<Reach>> = funcs
        .iter()
        .map(|f| {
            let tokens = &files[f.file].tokens;
            let bus = (f.body_start + 1..f.body_end)
                .find_map(|k| sites::bus_call_at(tokens, k, &config.bus_calls))?;
            Some(Reach::Direct {
                line: bus.line,
                name: bus.text.clone(),
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..funcs.len() {
            if reach[f].is_some() {
                continue;
            }
            for call in &calls[f] {
                if let Some(&t) = call.targets.iter().find(|&&t| reach[t].is_some()) {
                    reach[f] = Some(Reach::Via {
                        callee: t,
                        line: call.line,
                    });
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    for f in 0..funcs.len() {
        for call in &calls[f] {
            if call.targets.is_empty() || config.bus_calls.contains(&call.name) {
                continue;
            }
            let mut held: BTreeSet<&str> = entry_held[f].keys().map(|s| s.as_str()).collect();
            held.extend(
                windows[f]
                    .iter()
                    .filter(|w| w.holds(call.tok))
                    .map(|w| w.lock.as_str()),
            );
            let Some(&held_name) = held.iter().next() else {
                continue;
            };
            let Some(&t) = call.targets.iter().find(|&&t| reach[t].is_some()) else {
                continue;
            };
            // Walk the reach chain down to the concrete bus call site.
            let mut witness = Vec::new();
            let mut cur = t;
            for _ in 0..20 {
                match reach[cur].clone() {
                    Some(Reach::Via { callee, line }) => {
                        witness.push(format!(
                            "{} calls {} ({}:{})",
                            funcs[cur].qualified(files),
                            funcs[callee].qualified(files),
                            files[funcs[cur].file].rel_path,
                            line
                        ));
                        cur = callee;
                    }
                    Some(Reach::Direct { line, name }) => {
                        witness.push(format!(
                            "{} calls .{name}(…) ({}:{})",
                            funcs[cur].qualified(files),
                            files[funcs[cur].file].rel_path,
                            line
                        ));
                        break;
                    }
                    None => break,
                }
            }
            diags.push(Diagnostic {
                rule: "bus-call-under-guard",
                file: files[funcs[f].file].rel_path.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "`{}(…)` transitively reaches a send/bus call while lock \
                     `{held_name}` is held; release the guard first",
                    call.name
                ),
                witness,
            });
        }
    }
}
