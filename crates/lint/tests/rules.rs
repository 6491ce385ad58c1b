//! Self-test suite: every rule fires exactly where the fixtures say it
//! should, suppressions with reasons suppress, reason-less suppressions
//! error, and rule scoping (crate lists, file lists, `#[cfg(test)]`
//! exemption) behaves.
//!
//! Each fixture line that must produce a finding carries a trailing
//! `// … <- RULE [RULE…]` marker; the harness collects `(rule, line)`
//! pairs from the markers and asserts the lint output matches them
//! **exactly** — no missing findings, no extras.

use exchange_lint::{lint_source, Diagnostic, Severity};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Collects the expected `(rule, line)` pairs from `<- RULE` markers.
fn expected_findings(source: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let Some(at) = line.find("<- ") else { continue };
        for word in line[at + 3..].split_whitespace() {
            let is_rule_id = word.len() == 4
                && word.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && word[1..].chars().all(|c| c.is_ascii_digit());
            if is_rule_id {
                out.push((word.to_string(), i as u32 + 1));
            }
        }
    }
    out.sort();
    out
}

fn actual_findings(diagnostics: &[Diagnostic]) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = diagnostics
        .iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    out.sort();
    out
}

/// Lints `fixture_name` under `path_hint` and asserts findings == markers.
fn check(fixture_name: &str, path_hint: &str) {
    let source = fixture(fixture_name);
    let diagnostics = lint_source(path_hint, &source);
    assert_eq!(
        actual_findings(&diagnostics),
        expected_findings(&source),
        "fixture {fixture_name} linted as {path_hint}: findings diverge from `<- RULE` markers\n\
         diagnostics:\n{}",
        diagnostics
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
}

#[test]
fn d001_fires_and_suppresses() {
    check("d001.rs", "crates/sim/src/fixture.rs");
}

#[test]
fn d001_flags_maps_with_a_custom_hasher() {
    check("d001_custom_hasher.rs", "crates/sim/src/fixture.rs");
}

#[test]
fn d001_scoped_to_sim_state_crates() {
    // The same iterations in the bench crate are not findings (the only
    // residue is the now-stale allow, reported as W001).
    let diagnostics = lint_source("crates/bench/src/fixture.rs", &fixture("d001.rs"));
    assert!(
        diagnostics.iter().all(|d| d.rule == "W001"),
        "unexpected: {diagnostics:?}"
    );
}

#[test]
fn d002_fires_and_suppresses() {
    check("d002.rs", "crates/des/src/fixture.rs");
}

#[test]
fn d002_allowed_in_bench_crate() {
    let diagnostics = lint_source("crates/bench/src/fixture.rs", &fixture("d002.rs"));
    assert!(
        diagnostics.iter().all(|d| d.rule == "W001"),
        "unexpected: {diagnostics:?}"
    );
}

#[test]
fn d003_fires_and_suppresses() {
    check("d003.rs", "crates/credit/src/fixture.rs");
}

#[test]
fn d003_allowed_in_pool_and_scenario() {
    for path in [
        "crates/sim/src/simulation/pool.rs",
        "crates/sim/src/scenario.rs",
    ] {
        let diagnostics = lint_source(path, &fixture("d003.rs"));
        assert!(
            diagnostics.iter().all(|d| d.rule != "D003"),
            "D003 fired in sanctioned file {path}: {diagnostics:?}"
        );
    }
}

#[test]
fn d004_fires_alongside_d001_and_suppresses() {
    check("d004.rs", "crates/workload/src/fixture.rs");
}

#[test]
fn u001_fires_and_safety_comment_or_allow_suppresses() {
    check("u001.rs", "crates/netsim/src/fixture.rs");
}

#[test]
fn h001_fires_and_suppresses() {
    check("h001.rs", "crates/sim/src/simulation/events.rs");
}

#[test]
fn h001_covers_the_population_module() {
    // PR 8's population dynamics are event-loop code: same panic policy.
    check("h001.rs", "crates/sim/src/simulation/population.rs");
}

#[test]
fn h001_covers_the_snapshot_module() {
    // PR 9's checkpoint codec restores untrusted bytes: it must return
    // `SnapshotError`s, never panic, so it inherits the panic policy.
    check("h001.rs", "crates/sim/src/simulation/snapshot.rs");
}

#[test]
fn h001_scoped_to_event_loop_modules() {
    let diagnostics = lint_source("crates/sim/src/peer.rs", &fixture("h001.rs"));
    assert!(
        diagnostics.iter().all(|d| d.rule != "H001"),
        "H001 fired outside the event-loop modules: {diagnostics:?}"
    );
}

#[test]
fn reasonless_allow_errors_and_does_not_suppress() {
    check("bad_allow.rs", "crates/des/src/fixture.rs");
    // Belt and braces: the E001s are errors, and the D002s they failed to
    // suppress are present.
    let diagnostics = lint_source("crates/des/src/fixture.rs", &fixture("bad_allow.rs"));
    assert_eq!(
        diagnostics.iter().filter(|d| d.rule == "E001").count(),
        3,
        "{diagnostics:?}"
    );
    assert_eq!(
        diagnostics.iter().filter(|d| d.rule == "D002").count(),
        2,
        "{diagnostics:?}"
    );
    assert!(diagnostics
        .iter()
        .filter(|d| d.rule == "E001")
        .all(|d| d.severity == Severity::Error));
}

#[test]
fn stale_allow_warns() {
    check("w001.rs", "crates/des/src/fixture.rs");
    let diagnostics = lint_source("crates/des/src/fixture.rs", &fixture("w001.rs"));
    assert!(diagnostics
        .iter()
        .all(|d| d.rule == "W001" && d.severity == Severity::Warning));
}

/// The lint's whole value is the workspace staying clean: run the real
/// walk over the real tree. (CI runs the binary too; this makes a plain
/// `cargo test` catch regressions without the extra step.)
#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    let diagnostics = exchange_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        diagnostics.is_empty(),
        "the workspace has lint findings:\n{}",
        diagnostics
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect::<String>()
    );
}
