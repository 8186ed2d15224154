//! The workspace static-analysis gate.
//!
//! Runs the file-local rules and the whole-workspace call-graph passes
//! (derived lock graph, hot-path propagation) over `src/` and
//! `crates/*/src/`, then exits non-zero on any finding or stale
//! `[[allow]]` entry.
//!
//! Flags:
//! - `--root <dir>`: workspace root (default: walk up to `lint.toml`).
//! - `--json [path]`: also write the machine-readable report (default
//!   `target/analysis-report.json` under the root).
//! - `--lock-graph`: print the derived lock-acquisition graph and a
//!   valid `lock_order` to paste into `lint.toml`, then exit 0.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use athena_analyze::{check_workspace, find_root, json};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<Option<PathBuf>> = None;
    let mut lock_graph = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("athena-lint: --root requires a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--json" => {
                // Optional path operand.
                match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        json_path = Some(Some(PathBuf::from(p)));
                        i += 1;
                    }
                    _ => json_path = Some(None),
                }
            }
            "--lock-graph" => lock_graph = true,
            "--help" | "-h" => {
                println!(
                    "usage: athena-lint [--root <dir>] [--json [path]] [--lock-graph]\n\
                     \n\
                     Workspace static-analysis gate: file-local rules plus the\n\
                     call-graph passes (derived lock-acquisition graph, hot-path\n\
                     propagation). Exits non-zero on findings or stale\n\
                     [[allow]] entries.\n\
                     \n\
                     --root <dir>    workspace root (default: nearest lint.toml upward)\n\
                     --json [path]   write the JSON report (default target/analysis-report.json)\n\
                     --lock-graph    print derived lock edges and a valid lock_order, exit 0"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("athena-lint: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let root = match root.or_else(|| env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("athena-lint: no lint.toml found upward of the current directory");
            return ExitCode::from(2);
        }
    };

    let analysis = match check_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("athena-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if lock_graph {
        println!(
            "derived lock-acquisition graph ({} locks, {} edges)",
            analysis.lock_graph.locks.len(),
            analysis.lock_graph.edges.len()
        );
        for e in &analysis.lock_graph.edges {
            println!("  {} -> {}  ({}:{})", e.from, e.to, e.file, e.line);
            for hop in &e.witness {
                println!("      via {hop}");
            }
        }
        println!("\nsuggested [analyze] lock_order:");
        println!("lock_order = [");
        for l in &analysis.lock_graph.suggested_order {
            println!("    \"{l}\",");
        }
        println!("]");
        return ExitCode::SUCCESS;
    }

    if let Some(path) = json_path {
        let path = path.unwrap_or_else(|| root.join("target/analysis-report.json"));
        if let Some(dir) = path.parent() {
            if let Err(e) = fs::create_dir_all(dir) {
                eprintln!("athena-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = fs::write(&path, json::render(&analysis)) {
            eprintln!("athena-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    let report = &analysis.report;
    for d in &report.diagnostics {
        println!("{d}");
    }
    for s in &report.stale_allows {
        println!("{s}");
    }
    println!(
        "athena-lint: {} files, {} hot functions, {} lock edges, {} error(s), {} stale allow(s)",
        report.files_scanned,
        analysis.hot_functions.len(),
        analysis.lock_graph.edges.len(),
        report.diagnostics.len(),
        report.stale_allows.len()
    );
    if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
