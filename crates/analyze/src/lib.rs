//! The Athena static-analysis gate.
//!
//! One crate, bottom to top:
//!
//! - [`tokenizer`] — a hand-rolled lexer that never surfaces comment or
//!   literal contents and marks `#[cfg(test)]` / `mod tests` regions;
//! - [`config`] — the `lint.toml` policy file: hot-path seeds, the
//!   declared lock order, exempt paths, and the `[[allow]]` list;
//! - [`sites`] — purely syntactic matchers (panicking constructs, hash
//!   iteration, lock acquisitions and their guard extents);
//! - [`rules`] — the file-local rules: `forbid-unsafe`, `error-hygiene`,
//!   `no-println-in-lib`, `no-wallclock-in-lib`; and `unused-pub`, a
//!   `pub fn` or `pub` struct field whose name no other file spells;
//! - [`model`], [`graph`] — every production `fn`, its `impl` type, the
//!   workspace's `struct` fields, and conservatively resolved call edges;
//! - [`locks`] — one guard-window pass per function, from which come
//!   `lock-discipline` (same-lock re-acquisition, a bus call under a
//!   guard) and, with held-lock sets propagated through the call graph,
//!   `lock-cycle`, `lock-order-violation` and `bus-call-under-guard`;
//! - [`hot`] — `no-panic-in-hot-path` and `no-unordered-iter-in-hot-path`
//!   spread from the `[analyze] hot_entries` seeds to everything they
//!   reach, with the call chain attached to each finding.
//!
//! Every finding fails the gate. Grandfathered sites live in `lint.toml`
//! under `[[allow]]`, each with a mandatory one-line justification;
//! entries that stop matching fail the gate with a pointer to the
//! `lint.toml` line to delete.
//!
//! [`check_workspace`] is the one-call entry point used by the
//! `athena-lint` binary, `scripts/ci.sh`, and `tests/static_analysis.rs`;
//! [`analyze_sources`] is the same engine over in-memory sources, which
//! is how the violation corpus under `tests/` exercises each rule.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod config;
pub mod graph;
pub mod hot;
pub mod locks;
pub mod model;
pub mod rules;
pub mod sites;
pub mod tokenizer;

use serde::Serialize;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub use config::Config;
pub use locks::LockEdge;
use tokenizer::Token;

/// One source file prepared for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Raw text (used for allowlist pattern matching).
    pub text: String,
    /// Token stream.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Builds a file from its path and contents.
    pub fn new(rel_path: String, text: String) -> Self {
        let tokens = tokenizer::tokenize(&text);
        SourceFile {
            rel_path,
            text,
            tokens,
        }
    }

    /// The text of a 1-based line (empty when out of range).
    fn line_text(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
    }
}

/// One finding — what every pass pushes and what the report prints.
#[derive(Debug, Clone, Serialize)]
pub struct Diagnostic {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Description.
    pub message: String,
    /// For propagated findings: the call chain from the entry point to
    /// the flagged site, one `file::function (file:line)` hop per entry.
    /// Empty for file-local findings.
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// A finding anchored at `token` of `file`, without a witness.
    pub(crate) fn at(
        rule: &'static str,
        file: &SourceFile,
        token: &Token,
        message: String,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.rel_path.clone(),
            line: token.line,
            col: token.col,
            message,
            witness: Vec::new(),
        }
    }

    /// A finding about `lint.toml` itself, at its 1-based `line`.
    pub(crate) fn in_config(rule: &'static str, line: usize, message: String) -> Self {
        Diagnostic {
            rule,
            file: "lint.toml".to_string(),
            line: line as u32,
            col: 1,
            message,
            witness: Vec::new(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        for hop in &self.witness {
            write!(f, "\n    via {hop}")?;
        }
        Ok(())
    }
}

/// Outcome of an analysis run.
#[derive(Debug, Default, Serialize)]
pub struct Report {
    /// All findings outside the allow list, sorted by file and position.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// `[[allow]]` entries that matched nothing (stale grandfathering),
    /// each pointing at the `lint.toml` line to delete.
    pub stale_allows: Vec<String>,
}

impl Report {
    /// Whether the gate should fail.
    pub fn has_errors(&self) -> bool {
        !self.diagnostics.is_empty() || !self.stale_allows.is_empty()
    }
}

/// Error from the engine itself: I/O, or a malformed `lint.toml`.
#[derive(Debug)]
pub struct LintError(pub(crate) String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// The derived lock graph, for `--lock-graph` and the JSON report.
#[derive(Debug, Default, Serialize)]
pub struct LockGraph {
    /// Every crate-qualified lock with an acquisition site, sorted.
    pub locks: Vec<String>,
    /// Derived acquisition-order edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// A topological order consistent with the edges that keeps the
    /// declared `lock_order` positions where the edges allow (cycle
    /// members last) — paste into `[analyze] lock_order` to regenerate.
    pub suggested_order: Vec<String>,
}

/// Full analysis output: the gate report plus the derived artifacts;
/// `athena-lint --json` writes it as compact JSON.
#[derive(Debug, Default, Serialize)]
pub struct Analysis {
    /// Diagnostics, scan counts, and stale-allow findings.
    pub report: Report,
    /// The derived lock-acquisition graph.
    pub lock_graph: LockGraph,
    /// Qualified names (`file::fn`) of every hot-reachable function.
    pub hot_functions: Vec<String>,
}

/// Runs every pass over the given sources with the given configuration.
pub fn analyze_sources(config: &Config, files: &[SourceFile]) -> Analysis {
    let funcs = model::extract_functions(files);
    let calls = graph::build_calls(files, &funcs);

    let mut found: Vec<Diagnostic> = Vec::new();
    for file in files.iter().filter(|f| model::is_production(&f.rel_path)) {
        rules::forbid_unsafe(file, &mut found);
        rules::error_hygiene(file, &mut found);
        rules::no_println_in_lib(file, config, &mut found);
        rules::no_wallclock_in_lib(file, config, &mut found);
    }
    rules::unused_pub(files, &mut found);
    let lock_graph = locks::analyze_locks(config, files, &funcs, &calls, &mut found);
    let hot_functions = hot::analyze_hot(config, files, &funcs, &calls, &mut found);

    // Allowlist resolution, with stale-allow accounting.
    let mut matched = vec![false; config.allow.len()];
    found.retain(|d| {
        let line_text = files
            .iter()
            .find(|f| f.rel_path == d.file)
            .map_or("", |f| f.line_text(d.line));
        let mut allowed = false;
        for (a, hit) in config.allow.iter().zip(&mut matched) {
            if a.rule == d.rule && a.file == d.file && line_text.contains(&a.pattern) {
                *hit = true;
                allowed = true;
            }
        }
        !allowed
    });
    found.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    let stale_allows = config
        .allow
        .iter()
        .zip(&matched)
        .filter(|(_, &m)| !m)
        .map(|(a, _)| {
            format!(
                "lint.toml:{}: stale [[allow]] — {} in {} (pattern {:?}) matched nothing; \
                 delete the entry",
                a.line, a.rule, a.file, a.pattern
            )
        })
        .collect();

    Analysis {
        report: Report {
            diagnostics: found,
            files_scanned: files.len(),
            stale_allows,
        },
        lock_graph,
        hot_functions,
    }
}

/// Loads `lint.toml`, collects the workspace sources, and runs every
/// pass.
///
/// # Errors
///
/// Returns [`LintError`] when the configuration is missing/malformed or
/// sources cannot be read.
pub fn check_workspace(root: &Path) -> Result<Analysis, LintError> {
    let config = load_config(root)?;
    let files = collect_sources(root)?;
    Ok(analyze_sources(&config, &files))
}

/// Loads `lint.toml` from the workspace root.
///
/// # Errors
///
/// Returns [`LintError`] when the file is missing or malformed.
pub fn load_config(root: &Path) -> Result<Config, LintError> {
    let path = root.join("lint.toml");
    Config::parse(&read(&path)?)
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))
}

/// Collects and tokenizes the workspace's sources.
///
/// Production code is `src/` and `crates/*/src/` under `root`; every rule
/// checks it. The reference-only sources — `tests/`, `examples/`,
/// `crates/*/{tests,benches,examples}/` and the benchmark's `ledger/src/`
/// — are read only for the names `unused-pub` counts as uses
/// ([`model::is_production`] tells the two apart). The vendored
/// dependency shims are out of scope. Sorted so results are
/// deterministic.
///
/// # Errors
///
/// Returns [`LintError`] on I/O failures while walking the tree.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut dirs = vec![
        root.join("src"),
        root.join("tests"),
        root.join("examples"),
        root.join("ledger/src"),
    ];
    if root.join("crates").is_dir() {
        for krate in read_dir(&root.join("crates"))? {
            dirs.extend(["src", "tests", "benches", "examples"].map(|d| krate.join(d)));
        }
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rust_files(dir, &mut files)?;
    }
    files.sort();
    files
        .iter()
        .map(|path| Ok(SourceFile::new(relative_path(root, path), read(path)?)))
        .collect()
}

/// The entries of `dir`, sorted.
fn read_dir(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let unreadable = |e| LintError(format!("cannot read {}: {e}", dir.display()));
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir).map_err(unreadable)? {
        entries.push(entry.map_err(unreadable)?.path());
    }
    entries.sort();
    Ok(entries)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir(dir)? {
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: walks up from `start` until a directory
/// containing `lint.toml` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
