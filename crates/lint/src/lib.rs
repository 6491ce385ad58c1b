//! # exchange-lint
//!
//! A workspace-specific determinism & concurrency static-analysis pass.
//!
//! The repo's load-bearing correctness property — simulation reports
//! bit-identical across cache settings, checkpoint/restore and warm
//! restarts — is defended dynamically by the equivalence suites and the
//! audit harness. This crate is the *static* guardrail: it catches the
//! hazards that historically break that property (nondeterministic
//! `HashMap` iteration, wall-clock reads, stray threads, unordered float
//! reductions, panicking accessors in the event loop) at CI time, before
//! they cost a nightly-run bisect.
//!
//! crates.io is unavailable in this environment, so there is no `syn`:
//! a hand-rolled lexer ([`lexer`]) feeds token-shape rules. The rules are
//! deliberately heuristic — they trade soundness-in-general for precision
//! on *this* codebase's idioms, and every finding can be suppressed inline
//! with a mandatory reason:
//!
//! ```text
//! // exchange-lint: allow(D001, reason = "audit-only read; order never feeds sim state")
//! ```
//!
//! A suppression without a reason is itself an error (`E001`), and a
//! suppression that matches no finding is a warning (`W001`) so stale
//! allows get cleaned up. An allow comment applies to its own line and
//! the line directly below it.
//!
//! ## Rules
//!
//! | id   | severity | fires on |
//! |------|----------|----------|
//! | D001 | error | iteration over `HashMap`/`HashSet` in sim-state crates (`sim`, `des`, `core`, `credit`, `workload`) |
//! | D002 | error | `Instant::now` / `SystemTime::now` outside the bench crate |
//! | D003 | error | `thread::spawn` / `thread::scope` outside `scenario.rs` |
//! | D004 | error | float `sum`/`product` turbofish or `fold` chained onto a D001 iterator |
//! | U001 | error | `unsafe` without a `// SAFETY:` comment within 3 lines above |
//! | H001 | error | `.unwrap()`, empty `.expect("")`, or non-`as_usize()` slice indexing in the event-loop modules |
//! | E001 | error | `exchange-lint: allow(...)` without a `reason = "..."` |
//! | W001 | warning | an allow (with reason) that suppressed nothing |
//!
//! `#[cfg(test)]` modules and `#[test]` functions are skipped by every
//! rule except U001: test nondeterminism cannot feed simulation outcomes,
//! and the dynamic suites already re-check determinism end to end.
//!
//! H001 deliberately does **not** flag indexing whose index expression
//! ends in `.as_usize()`: dense per-peer / per-object vectors indexed by
//! `PeerId`/`ObjectId` are this codebase's sanctioned idiom, bounded by
//! construction (`num_peers` / catalog size) and re-checked dynamically by
//! the audit harness. Everything else must go through `get()` + `expect`
//! with an invariant message, or carry an allow.

#![forbid(unsafe_code)]

pub mod lexer;
mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, RuleInfo, RULES};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding, addressed `file:line` with a rule id and human message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// Walks every non-stub workspace crate plus the facade's `src/`, `tests/`
/// and `examples/`, and lints each `.rs` file.
///
/// Skipped subtrees: `target/`, `.git/`, `crates/stubs/` (offline stand-ins
/// for crates.io packages, not our code), and `crates/lint/tests/fixtures/`
/// (deliberate violations used by the self-test suite).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, root, &mut files)?;
        }
    }
    files.sort();

    let mut diagnostics = Vec::new();
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        diagnostics.extend(lint_source(&rel_str, &source));
    }
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(diagnostics)
}

fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    // Deterministic walk order regardless of filesystem enumeration.
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if rel_str == "target"
                || rel_str == ".git"
                || rel_str == "crates/stubs"
                || rel_str == "crates/lint/tests/fixtures"
                || rel_str.ends_with("/target")
            {
                continue;
            }
            collect_rs_files(&path, root, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
