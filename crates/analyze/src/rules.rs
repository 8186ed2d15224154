//! File-local rules.
//!
//! Each rule scans one tokenized file and pushes its findings. Rules
//! never see comment or literal contents (the tokenizer drops them) and
//! skip tokens marked as test-only unless stated otherwise.
//!
//! The fifth file-scoped rule, `lock-discipline`, is reported from the
//! guard windows [`crate::locks`] computes; the reachability-based rules
//! live in [`crate::hot`].

use crate::config::Config;
use crate::tokenizer::TokenKind;
use crate::{Diagnostic, SourceFile};

fn exempt(prefixes: &[String], file: &SourceFile) -> bool {
    prefixes.iter().any(|p| file.rel_path.starts_with(p))
}

/// `forbid-unsafe`: bans `unsafe` everywhere, including test code — the
/// workspace is a from-scratch simulation with no FFI, so there is never
/// a reason.
pub fn forbid_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in file.tokens.iter().filter(|t| t.is_ident("unsafe")) {
        let message = "unsafe code is forbidden across the workspace".to_string();
        out.push(Diagnostic::at("forbid-unsafe", file, t, message));
    }
}

/// `error-hygiene`: flags `Box<dyn … Error …>` in non-test code — errors
/// crossing crate APIs must use `athena_types::error::AthenaError` so
/// callers can match on failure kinds.
pub fn error_hygiene(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test
            || !t.is_ident("Box")
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct('<'))
            || !tokens.get(i + 2).is_some_and(|n| n.is_ident("dyn"))
        {
            continue;
        }
        // Scan the trait path inside the angle brackets for `Error`.
        let mut angle: i32 = 1;
        for n in tokens.iter().skip(i + 3).take(13) {
            match n.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Ident if n.text == "Error" => {
                    let message = "Box<dyn Error> erases failure kinds; use \
                                   athena_types::error::AthenaError"
                        .to_string();
                    out.push(Diagnostic::at("error-hygiene", file, t, message));
                    break;
                }
                _ => {}
            }
            if angle <= 0 {
                break;
            }
        }
    }
}

/// `no-println-in-lib`: bans `println!`/`eprintln!` (and `print!` /
/// `eprint!`) in library code — libraries report through telemetry
/// events or return values; only binaries own the console. Paths under a
/// `println_exempt` prefix (the bench and lint binaries) are out of
/// scope.
pub fn no_println_in_lib(file: &SourceFile, config: &Config, out: &mut Vec<Diagnostic>) {
    if exempt(&config.println_exempt, file) {
        return;
    }
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.in_test
            && t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
            && file.tokens.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            let message = format!(
                "{}! in library code; emit a telemetry event or return the text",
                t.text
            );
            out.push(Diagnostic::at("no-println-in-lib", file, t, message));
        }
    }
}

/// `no-wallclock-in-lib`: bans wall-clock reads (`Instant::now()` and any
/// `SystemTime` use) in library code — the simulation is deterministic
/// under virtual time, and a stray wall-clock read silently breaks replay
/// and the byte-identical recovery guarantees. Only the paths under
/// `wallclock_exempt` — telemetry's own timers and the real-time bench
/// harnesses — may read the host clock.
pub fn no_wallclock_in_lib(file: &SourceFile, config: &Config, out: &mut Vec<Diagnostic>) {
    if exempt(&config.wallclock_exempt, file) {
        return;
    }
    let tokens = &file.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let what = if t.is_ident("SystemTime") {
            "SystemTime"
        } else if t.is_ident("Instant")
            // `::` is one PathSep token, not two `:` puncts.
            && tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::PathSep)
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            "Instant::now()"
        } else {
            continue;
        };
        let message = format!("{what} reads the wall clock; use virtual SimTime");
        out.push(Diagnostic::at("no-wallclock-in-lib", file, t, message));
    }
}
