//! The rule engine: per-file context (tokens, comments, test-region mask,
//! suppression directives) plus the individual rule passes.

use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::{Diagnostic, Severity};

/// Static description of one rule, for `--list-rules` and the README table.
pub struct RuleInfo {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        severity: Severity::Error,
        summary: "iteration over std HashMap/HashSet in sim-state crates (sim, des, core, \
                  credit, workload): order is nondeterministic and can feed event outcomes",
    },
    RuleInfo {
        id: "D002",
        severity: Severity::Error,
        summary: "wall-clock read (Instant::now / SystemTime::now) outside the bench crate",
    },
    RuleInfo {
        id: "D003",
        severity: Severity::Error,
        summary: "thread creation (thread::spawn / thread::scope) outside the scenario sweep \
                  runner",
    },
    RuleInfo {
        id: "D004",
        severity: Severity::Error,
        summary: "float accumulation (sum::<f64>/product::<f64>/fold) chained onto an \
                  unordered HashMap/HashSet iterator",
    },
    RuleInfo {
        id: "U001",
        severity: Severity::Error,
        summary: "unsafe block or fn without a `// SAFETY:` comment within 3 lines above",
    },
    RuleInfo {
        id: "H001",
        severity: Severity::Error,
        summary: ".unwrap(), message-less .expect(), or non-as_usize() slice indexing inside \
                  the event-loop modules",
    },
    RuleInfo {
        id: "E001",
        severity: Severity::Error,
        summary: "exchange-lint allow(...) directive without a reason",
    },
    RuleInfo {
        id: "W001",
        severity: Severity::Warning,
        summary: "exchange-lint allow(...) directive that suppressed nothing",
    },
];

/// Crates whose state feeds simulation outcomes: D001/D004 scope.
const SIM_STATE_CRATES: &[&str] = &["sim", "des", "core", "credit", "workload"];

/// Files allowed to create threads: only the scenario sweep runner, whose
/// workers each own whole simulations and whose rows are collected in grid
/// order.  A simulation itself runs on one thread.
const D003_ALLOWED_FILES: &[&str] = &["crates/sim/src/scenario.rs"];

/// The event-loop modules H001 hardens.
const H001_FILES: &[&str] = &[
    "crates/sim/src/simulation/events.rs",
    "crates/sim/src/simulation/scheduling.rs",
    "crates/sim/src/simulation/transfers.rs",
    "crates/sim/src/simulation/holder_marks.rs",
    "crates/sim/src/simulation/maintenance.rs",
    "crates/sim/src/simulation/population.rs",
    "crates/sim/src/simulation/snapshot.rs",
    // The report's snapshot codec lives beside `SimReport`.
    "crates/sim/src/report.rs",
];

/// Iterator-producing methods on HashMap/HashSet whose order is
/// nondeterministic. (`retain` visits in iteration order and may drop
/// based on visit-order-dependent state; `extract_if` likewise.)
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "extract_if",
];

/// One parsed `allow(RULE, reason = "...")` directive.
struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
    used: bool,
}

struct FileCtx<'a> {
    rel_path: &'a str,
    crate_name: String,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    /// Per-token: true when the token sits inside a `#[cfg(test)]` item or
    /// a `#[test]` function.
    in_test: Vec<bool>,
}

impl FileCtx<'_> {
    fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    fn diag(&self, rule: &'static str, line: u32, message: String) -> Diagnostic {
        let severity = RULES
            .iter()
            .find(|r| r.id == rule)
            .map_or(Severity::Error, |r| r.severity);
        Diagnostic {
            rule,
            severity,
            file: self.rel_path.to_string(),
            line,
            message,
        }
    }
}

/// Lints one file given its workspace-relative path (used for rule scoping)
/// and source text. This is the entry point the self-test fixtures call
/// directly with synthetic paths.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let in_test = test_mask(&lexed.tokens);
    let ctx = FileCtx {
        rel_path,
        crate_name: crate_of(rel_path),
        tokens: lexed.tokens,
        comments: lexed.comments,
        in_test,
    };

    let (mut allows, mut diagnostics) = parse_allows(&ctx);

    let mut findings = Vec::new();
    findings.extend(rule_d001_d004(&ctx));
    findings.extend(rule_d002(&ctx));
    findings.extend(rule_d003(&ctx));
    findings.extend(rule_u001(&ctx));
    findings.extend(rule_h001(&ctx));

    // Apply suppressions: an allow (with reason) covers findings of its rule
    // on its own line and the line directly below.
    for finding in findings {
        let suppressed = allows.iter_mut().any(|allow| {
            let applies = allow.has_reason
                && allow.rule == finding.rule
                && (allow.line == finding.line || allow.line + 1 == finding.line);
            if applies {
                allow.used = true;
            }
            applies
        });
        if !suppressed {
            diagnostics.push(finding);
        }
    }

    // Stale allows rot into falsehoods: surface them.
    for allow in &allows {
        if allow.has_reason && !allow.used {
            diagnostics.push(ctx.diag(
                "W001",
                allow.line,
                format!(
                    "allow({}) suppresses nothing on line {} or {}; remove the stale directive",
                    allow.rule,
                    allow.line,
                    allow.line + 1
                ),
            ));
        }
    }

    diagnostics.sort_by_key(|d| (d.line, d.rule));
    diagnostics
}

/// Maps a workspace-relative path to its crate: `crates/<name>/…` → `name`,
/// everything else (facade `src/`, root `tests/`, `examples/`) →
/// `p2p-exchange`.
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "p2p-exchange".to_string()
}

// ---- suppression directives ------------------------------------------------

/// Parses every `exchange-lint: allow(RULE[, reason = "..."])` directive in
/// the file's comments. Reason-less allows produce E001 immediately (and do
/// NOT suppress — the underlying finding surfaces alongside the E001).
fn parse_allows(ctx: &FileCtx<'_>) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diagnostics = Vec::new();
    for comment in &ctx.comments {
        // Directives live in plain `//` (or `/* */`) comments only: doc
        // comments (`///`, `//!`, `/**`, `/*!`) describe the mechanism —
        // e.g. this crate's own docs — without invoking it.
        let is_doc = comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!");
        if is_doc {
            continue;
        }
        let body = comment.text.trim_start_matches(['/', '*']).trim_start();
        if !body.starts_with("exchange-lint:") {
            continue;
        }
        let mut rest = &body["exchange-lint:".len()..];
        let mut parsed_any = false;
        while let Some(open) = rest.find("allow(") {
            let after = &rest[open + "allow(".len()..];
            let Some(close) = find_directive_close(after) else {
                break;
            };
            let body = &after[..close];
            rest = &after[close + 1..];
            parsed_any = true;

            let (rule_part, reason_part) = match body.split_once(',') {
                Some((rule, rest)) => (rule.trim(), Some(rest.trim())),
                None => (body.trim(), None),
            };
            let has_reason = reason_part.is_some_and(|r| {
                let r = r.trim_start_matches("reason").trim_start();
                let r = r.trim_start_matches('=').trim_start();
                r.starts_with('"') && r.trim_end().len() > 2
            });
            if !has_reason {
                diagnostics.push(ctx.diag(
                    "E001",
                    comment.line,
                    format!(
                        "allow({rule_part}) must carry a reason: \
                         `exchange-lint: allow({rule_part}, reason = \"...\")`"
                    ),
                ));
            }
            allows.push(Allow {
                line: comment.line,
                rule: rule_part.to_string(),
                has_reason,
                used: false,
            });
        }
        if !parsed_any {
            diagnostics.push(
                ctx.diag(
                    "E001",
                    comment.line,
                    "malformed exchange-lint directive: expected `allow(RULE, reason = \"...\")`"
                        .to_string(),
                ),
            );
        }
    }
    (allows, diagnostics)
}

/// Finds the `)` closing an allow directive, skipping over a quoted reason
/// (which may itself contain parentheses).
fn find_directive_close(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b')' if !in_str => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

// ---- test-region mask ------------------------------------------------------

/// Marks tokens inside `#[cfg(test)]` items and `#[test]` functions. Walks
/// attributes; on a test attribute, skips any further attributes, then brace-
/// matches the following item body.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_end = match matching(tokens, i + 1, '[', ']') {
            Some(end) => end,
            None => break,
        };
        let inner = &tokens[i + 2..attr_end];
        let is_test_attr = (inner.len() == 1 && inner[0].is_ident("test"))
            || (inner.first().is_some_and(|t| t.is_ident("cfg"))
                && inner.iter().any(|t| t.is_ident("test")));
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip further attributes between the test attribute and the item.
        let mut j = attr_end + 1;
        while tokens.get(j).is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching(tokens, j + 1, '[', ']') {
                Some(end) => j = end + 1,
                None => return mask,
            }
        }
        // Find the item body's opening brace (a `;` first means no body).
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            j += 1;
        }
        if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
            if let Some(end) = matching(tokens, j, '{', '}') {
                for slot in &mut mask[i..=end] {
                    *slot = true;
                }
                i = end + 1;
                continue;
            }
        }
        i = j + 1;
    }
    mask
}

/// Index of the token closing the group opened at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (offset, token) in tokens[open_idx..].iter().enumerate() {
        if token.is_punct(open) {
            depth += 1;
        } else if token.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(open_idx + offset);
            }
        }
    }
    None
}

// ---- D001 + D004 -----------------------------------------------------------

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: struct
/// fields, `let` bindings, fn params (`name: HashMap<..>`, `name: &mut
/// HashSet<..>`), and constructor assignments (`name = HashMap::new()`).
fn hash_bound_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if !(token.is_ident("HashMap") || token.is_ident("HashSet")) {
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`).
        let mut j = i;
        while j >= 2
            && tokens[j - 1].is_punct(':')
            && tokens[j - 2].is_punct(':')
            && j >= 3
            && tokens[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        if j == 0 {
            continue;
        }
        // Pattern A: `name : [&] ['a] [mut] HashMap` (field / param / let).
        let mut k = j - 1;
        loop {
            let t = &tokens[k];
            if t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime {
                if k == 0 {
                    break;
                }
                k -= 1;
            } else {
                break;
            }
        }
        if tokens[k].is_punct(':')
            && k >= 1
            && tokens[k - 1].kind == TokenKind::Ident
            && !(k >= 2 && tokens[k - 2].is_punct(':'))
        {
            names.push(tokens[k - 1].text.clone());
            continue;
        }
        // Pattern B: `name = HashMap :: new / with_capacity / from / default`.
        let is_ctor = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| {
                t.is_ident("new")
                    || t.is_ident("with_capacity")
                    || t.is_ident("with_capacity_and_hasher")
                    || t.is_ident("from")
                    || t.is_ident("default")
            });
        if is_ctor
            && tokens[j - 1].is_punct('=')
            && j >= 2
            && tokens[j - 2].kind == TokenKind::Ident
        {
            names.push(tokens[j - 2].text.clone());
        }
    }
    names.sort();
    names.dedup();
    names
}

fn rule_d001_d004(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !SIM_STATE_CRATES.contains(&ctx.crate_name.as_str()) {
        return Vec::new();
    }
    let names = hash_bound_names(&ctx.tokens);
    if names.is_empty() {
        return Vec::new();
    }
    let is_hash_name = |t: &Token| t.kind == TokenKind::Ident && names.contains(&t.text);

    let mut out = Vec::new();
    let tokens = &ctx.tokens;
    for i in 0..tokens.len() {
        if ctx.is_test(i) {
            continue;
        }
        // Method form: `name . iter (` and friends.
        if is_hash_name(&tokens[i])
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && tokens
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.iter().any(|m| t.is_ident(m)))
        {
            // `(` directly after, or after a `::<…>` turbofish.
            let after = i + 3;
            let call_ok = tokens.get(after).is_some_and(|t| t.is_punct('('))
                || (tokens.get(after).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(after + 1).is_some_and(|t| t.is_punct(':')));
            if call_ok {
                let method = &tokens[i + 2];
                out.push(ctx.diag(
                    "D001",
                    method.line,
                    format!(
                        "`{}.{}()` iterates a std HashMap/HashSet in a sim-state crate; \
                         iteration order is nondeterministic and can feed event outcomes — \
                         iterate in sorted order (collect + sort, or BTreeMap/BTreeSet) or \
                         suppress with a reason",
                        tokens[i].text, method.text
                    ),
                ));
                // D004: float reduction chained onto this iterator.
                out.extend(d004_chain(ctx, i + 3));
            }
        }
        // For-loop form: `for pat in [&][mut] name {`.
        if tokens[i].is_ident("for") {
            if let Some(diag) = d001_for_loop(ctx, i, &is_hash_name) {
                out.push(diag);
            }
        }
    }
    out
}

/// Checks a `for` loop whose iterated expression is a bare (possibly
/// borrowed, possibly `self.`-prefixed) hash-bound name.
fn d001_for_loop(
    ctx: &FileCtx<'_>,
    for_idx: usize,
    is_hash_name: &dyn Fn(&Token) -> bool,
) -> Option<Diagnostic> {
    let tokens = &ctx.tokens;
    // Find `in` at bracket depth 0 (the pattern may contain tuples).
    let mut depth = 0i32;
    let mut in_idx = None;
    for (offset, token) in tokens[for_idx + 1..].iter().take(40).enumerate() {
        if token.is_punct('(') || token.is_punct('[') {
            depth += 1;
        } else if token.is_punct(')') || token.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && token.is_ident("in") {
            in_idx = Some(for_idx + 1 + offset);
            break;
        }
    }
    let in_idx = in_idx?;
    // Expression tokens up to the body `{` at depth 0.
    let mut expr = Vec::new();
    let mut depth = 0i32;
    for token in &tokens[in_idx + 1..] {
        if depth == 0 && token.is_punct('{') {
            break;
        }
        if token.is_punct('(') || token.is_punct('[') {
            depth += 1;
        } else if token.is_punct(')') || token.is_punct(']') {
            depth -= 1;
        }
        expr.push(token);
        if expr.len() > 30 {
            return None;
        }
    }
    // A call in the expression means any hash iteration in it was already
    // caught by the method form — don't double-report.
    if expr.iter().any(|t| t.is_punct('(')) {
        return None;
    }
    let name = expr.iter().find(|t| is_hash_name(t))?;
    Some(ctx.diag(
        "D001",
        tokens[for_idx].line,
        format!(
            "`for … in {}` iterates a std HashMap/HashSet in a sim-state crate; \
             iteration order is nondeterministic and can feed event outcomes — \
             iterate in sorted order (collect + sort, or BTreeMap/BTreeSet) or \
             suppress with a reason",
            name.text
        ),
    ))
}

/// D004: scans the adapter chain after a D001 iterator call for a float
/// `sum`/`product` turbofish or any `fold`, up to the end of the statement.
fn d004_chain(ctx: &FileCtx<'_>, start: usize) -> Option<Diagnostic> {
    let tokens = &ctx.tokens;
    let mut brace = 0i32;
    for (offset, token) in tokens[start..].iter().take(200).enumerate() {
        let i = start + offset;
        if token.is_punct('{') {
            brace += 1;
        } else if token.is_punct('}') {
            brace -= 1;
            if brace < 0 {
                return None;
            }
        } else if token.is_punct(';') && brace == 0 {
            return None;
        }
        if !tokens
            .get(i.wrapping_sub(1))
            .is_some_and(|t| t.is_punct('.'))
        {
            continue;
        }
        if token.is_ident("fold") {
            return Some(
                ctx.diag(
                    "D004",
                    token.line,
                    "`fold` over an unordered HashMap/HashSet iterator: float accumulation \
                 order changes the result bits — iterate in sorted order or suppress \
                 with a reason"
                        .to_string(),
                ),
            );
        }
        if (token.is_ident("sum") || token.is_ident("product"))
            && tokens[i + 1..]
                .iter()
                .take(6)
                .any(|t| t.is_ident("f64") || t.is_ident("f32"))
        {
            return Some(ctx.diag(
                "D004",
                token.line,
                format!(
                    "float `{}` over an unordered HashMap/HashSet iterator: accumulation \
                     order changes the result bits — iterate in sorted order or suppress \
                     with a reason",
                    token.text
                ),
            ));
        }
    }
    None
}

// ---- D002 ------------------------------------------------------------------

fn rule_d002(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if ctx.crate_name == "bench" || ctx.crate_name == "lint" {
        // The bench harness measures wall time by definition; the lint's own
        // sources are not simulation code.
        return Vec::new();
    }
    let tokens = &ctx.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ctx.is_test(i) {
            continue;
        }
        let clock = if tokens[i].is_ident("Instant") {
            "Instant"
        } else if tokens[i].is_ident("SystemTime") {
            "SystemTime"
        } else {
            continue;
        };
        if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(ctx.diag(
                "D002",
                tokens[i + 3].line,
                format!(
                    "`{clock}::now()` reads the wall clock outside the bench crate; \
                     simulated time must come from the DES clock — if this only feeds \
                     profiling output, suppress with a reason"
                ),
            ));
        }
    }
    out
}

// ---- D003 ------------------------------------------------------------------

fn rule_d003(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if D003_ALLOWED_FILES.contains(&ctx.rel_path) {
        return Vec::new();
    }
    let tokens = &ctx.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ctx.is_test(i) {
            continue;
        }
        if tokens[i].is_ident("thread")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.is_ident("spawn") || t.is_ident("scope"))
        {
            out.push(ctx.diag(
                "D003",
                tokens[i + 3].line,
                format!(
                    "`thread::{}` outside the scenario sweep runner: a simulation runs \
                     on one thread, and concurrency stays in the sweep's per-run fan-out \
                     — move the parallelism there or suppress with a reason",
                    tokens[i + 3].text
                ),
            ));
        }
    }
    out
}

// ---- U001 ------------------------------------------------------------------

fn rule_u001(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let tokens = &ctx.tokens;
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if !token.is_ident("unsafe") {
            continue;
        }
        // `forbid(unsafe_code)` / `deny(unsafe_code)` attribute text never
        // lexes as the bare ident `unsafe`, so every hit is real code.
        let line = token.line;
        let documented = ctx.comments.iter().any(|c| {
            // Only plain comments count: a doc comment *mentioning* SAFETY
            // (like this crate's own docs) is not a safety argument.
            let is_doc = c.text.starts_with("///")
                || c.text.starts_with("//!")
                || c.text.starts_with("/**")
                || c.text.starts_with("/*!");
            let end = c.line + c.text.bytes().filter(|b| *b == b'\n').count() as u32;
            !is_doc && c.text.contains("SAFETY:") && end + 3 >= line && c.line <= line
        });
        if !documented {
            out.push(
                ctx.diag(
                    "U001",
                    line,
                    "`unsafe` without a `// SAFETY:` comment within the 3 lines above: \
                 document the invariant that makes this sound"
                        .to_string(),
                ),
            );
        }
        let _ = i;
    }
    out
}

// ---- H001 ------------------------------------------------------------------

fn rule_h001(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    if !H001_FILES.contains(&ctx.rel_path) {
        return Vec::new();
    }
    let tokens = &ctx.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ctx.is_test(i) {
            continue;
        }
        let token = &tokens[i];
        // `.unwrap()`
        if token.is_ident("unwrap")
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(
                ctx.diag(
                    "H001",
                    token.line,
                    "`.unwrap()` in an event-loop module: replace with `.expect(\"<invariant>\")` \
                 naming the invariant that guarantees the value, or suppress with a reason"
                        .to_string(),
                ),
            );
        }
        // `.expect("")` / `.expect()` with an empty literal message.
        if token.is_ident("expect")
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            let arg = tokens.get(i + 2);
            let empty_literal = arg
                .is_some_and(|t| t.kind == TokenKind::Str && t.text.trim_matches('"').is_empty());
            let no_arg = arg.is_some_and(|t| t.is_punct(')'));
            if empty_literal || no_arg {
                out.push(
                    ctx.diag(
                        "H001",
                        token.line,
                        "`.expect` without an invariant message in an event-loop module: say \
                     *why* the value must exist"
                            .to_string(),
                    ),
                );
            }
        }
        // Slice indexing: `expr [ index ]` where expr ends in an identifier,
        // `]`, or `)` — excluding attributes (`#[`), macros (`vec![`), and
        // the sanctioned dense-ID idiom `xs[id.as_usize()]`.
        if token.is_punct('[') && i >= 1 {
            let prev = &tokens[i - 1];
            let indexable = prev.kind == TokenKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(']')
                || prev.is_punct(')');
            if !indexable {
                continue;
            }
            let Some(close) = matching(tokens, i, '[', ']') else {
                continue;
            };
            let index_expr = &tokens[i + 1..close];
            if index_expr.is_empty() {
                continue;
            }
            // `xs[id.as_usize()]`: bounded by construction (dense per-peer /
            // per-object vectors sized to the population).
            let dense_id_idiom = index_expr.len() >= 4
                && index_expr[index_expr.len() - 1].is_punct(')')
                && index_expr[index_expr.len() - 2].is_punct('(')
                && index_expr[index_expr.len() - 3].is_ident("as_usize")
                && index_expr[index_expr.len() - 4].is_punct('.');
            // A bare `..` full-range slice cannot panic.
            let full_range =
                index_expr.len() == 2 && index_expr[0].is_punct('.') && index_expr[1].is_punct('.');
            if !dense_id_idiom && !full_range {
                out.push(ctx.diag(
                    "H001",
                    token.line,
                    format!(
                        "`{}[…]` indexing in an event-loop module can panic: use \
                         `.get(..)` + `.expect(\"<invariant>\")`, index through the \
                         dense-ID `as_usize()` idiom, or suppress with a reason",
                        prev.text
                    ),
                ));
            }
        }
    }
    out
}

/// Keywords that can directly precede `[` without being an indexed value.
fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "return" | "break" | "in" | "if" | "else" | "match" | "as" | "mut" | "ref" | "move"
    )
}
