//! `lint.toml` parsing.
//!
//! The workspace cannot take a dependency on a TOML crate, so this module
//! parses the small TOML subset the lint configuration uses: `[table]`
//! headers, `[[allow]]` array-of-table headers, `key = "string"`, and
//! `key = [ "array", "of", "strings" ]` (single- or multi-line).

use crate::LintError;

/// One grandfathered violation.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name the entry silences.
    pub rule: String,
    /// Workspace-relative file the violation lives in.
    pub file: String,
    /// Substring of the offending source line.
    pub pattern: String,
    /// Why the site is allowed (required).
    pub reason: String,
    /// 1-based `lint.toml` line of the `[[allow]]` header — reported when
    /// the entry goes stale so the line to delete is one click away.
    pub line: usize,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Hot-path seed entries for the call-graph analysis, as
    /// `"<file>::<function>"` (or `"<file>::*"` for every function in the
    /// file). Panic-freedom and iteration-order rules propagate from
    /// these transitively through the workspace call graph.
    pub hot_entries: Vec<String>,
    /// 1-based `lint.toml` line of the `hot_entries` key (0 when absent) —
    /// reported when an entry matches no function.
    pub hot_entries_line: usize,
    /// Crate-qualified lock names (`"<crate>/<field>"`) in the one global
    /// acquisition order. The call-graph analysis *derives* the real
    /// acquisition graph and verifies this list against it: every derived
    /// edge must be consistent with this order, every name here must
    /// match a real acquisition site, and every lock participating in a
    /// derived edge must be listed.
    pub lock_order: Vec<String>,
    /// 1-based `lint.toml` line of the `lock_order` key (0 when absent) —
    /// reported when a declared name matches no acquisition site.
    pub lock_order_line: usize,
    /// Method names treated as send/event-bus calls by lock-discipline.
    pub bus_calls: Vec<String>,
    /// Path prefixes exempt from `no-println-in-lib` (binary-only code
    /// that owns stdout: bench and lint binaries).
    pub println_exempt: Vec<String>,
    /// Path prefixes exempt from `no-wallclock-in-lib` (code that is
    /// *supposed* to read the host clock: telemetry's timers and the
    /// real-time bench harnesses).
    pub wallclock_exempt: Vec<String>,
    /// Grandfathered sites.
    pub allow: Vec<AllowEntry>,
}

/// A parse error pointing at its `lint.toml` line.
fn at(line_no: usize, message: String) -> LintError {
    LintError(format!("lint.toml:{line_no}: {message}"))
}

impl Config {
    /// Parses the configuration text.
    ///
    /// # Errors
    ///
    /// Returns [`LintError`] on syntax this subset does not understand,
    /// unknown keys, or an `[[allow]]` entry missing a field.
    pub fn parse(text: &str) -> Result<Self, LintError> {
        let mut config = Config::default();
        let mut section = String::new();

        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }

            if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                if header != "allow" {
                    return Err(at(line_no, format!("unknown array table [[{header}]]")));
                }
                section = "allow".to_string();
                config.allow.push(AllowEntry {
                    rule: String::new(),
                    file: String::new(),
                    pattern: String::new(),
                    reason: String::new(),
                    line: line_no,
                });
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                match header {
                    "lint" | "analyze" => section = header.to_string(),
                    other => return Err(at(line_no, format!("unknown table [{other}]"))),
                }
                continue;
            }

            let (key, mut value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| at(line_no, format!("expected `key = value`, got {line:?}")))?;

            // Multi-line arrays: keep consuming until brackets balance.
            while value.starts_with('[') && !brackets_balanced(&value) {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| at(line_no, "unterminated array".to_string()))?;
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }

            match (section.as_str(), key.as_str()) {
                ("analyze", "hot_entries") => {
                    config.hot_entries = parse_string_array(&value, line_no)?;
                    config.hot_entries_line = line_no;
                }
                ("analyze", "lock_order") => {
                    config.lock_order = parse_string_array(&value, line_no)?;
                    config.lock_order_line = line_no;
                }
                ("lint", "bus_calls") => config.bus_calls = parse_string_array(&value, line_no)?,
                ("lint", "println_exempt") => {
                    config.println_exempt = parse_string_array(&value, line_no)?;
                }
                ("lint", "wallclock_exempt") => {
                    config.wallclock_exempt = parse_string_array(&value, line_no)?;
                }
                ("allow", field) => {
                    let entry = config
                        .allow
                        .last_mut()
                        .ok_or_else(|| at(line_no, "allow key outside [[allow]]".to_string()))?;
                    let s = parse_string(&value, line_no)?;
                    match field {
                        "rule" => entry.rule = s,
                        "file" => entry.file = s,
                        "pattern" => entry.pattern = s,
                        "reason" => entry.reason = s,
                        other => return Err(at(line_no, format!("unknown allow key {other:?}"))),
                    }
                }
                (sec, k) => {
                    return Err(at(line_no, format!("unknown key {k:?} in section [{sec}]")))
                }
            }
        }

        for (i, entry) in config.allow.iter().enumerate() {
            if entry.rule.is_empty() || entry.file.is_empty() || entry.pattern.is_empty() {
                return Err(LintError(format!(
                    "[[allow]] entry #{} must set rule, file, and pattern",
                    i + 1
                )));
            }
            if entry.reason.is_empty() {
                return Err(LintError(format!(
                    "[[allow]] entry #{} ({} in {}) must carry a reason",
                    i + 1,
                    entry.rule,
                    entry.file
                )));
            }
        }

        Ok(config)
    }
}

/// Drops a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn brackets_balanced(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in value.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, line_no: usize) -> Result<String, LintError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| at(line_no, format!("expected a quoted string, got {value:?}")))?;
    // Unescape the two escapes the config actually needs.
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

fn parse_string_array(value: &str, line_no: usize) -> Result<Vec<String>, LintError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| at(line_no, format!("expected an array, got {value:?}")))?;
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, line_no)?);
    }
    Ok(out)
}

/// Splits on commas outside string literals.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}
