//! Correctness checks: report fingerprints and the run counter behind the
//! result's `attempted` and `failed` fields.

use std::collections::BTreeMap;

use sim::{RingCacheStats, SessionEnd, SimReport};

/// The parts of a [`SimReport`] two runs of one system must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    completed_downloads: u64,
    sessions: u64,
    rings: u64,
    token_declines: u64,
    rings_dissolved_at_activation: u64,
    preemptions: u64,
    session_ends: BTreeMap<SessionEnd, u64>,
    ring_cache: RingCacheStats,
    sim_seconds_bits: u64,
}

impl Fingerprint {
    /// The fingerprint of `report`.
    pub fn of(report: &SimReport) -> Self {
        Fingerprint {
            completed_downloads: report.completed_downloads(),
            sessions: report.total_sessions(),
            rings: report.total_rings(),
            token_declines: report.token_declines(),
            rings_dissolved_at_activation: report.rings_dissolved_at_activation(),
            preemptions: report.preemptions(),
            session_ends: report.session_end_counts().clone(),
            ring_cache: report.ring_cache_stats(),
            sim_seconds_bits: report.sim_seconds().to_bits(),
        }
    }

    /// Whether the run did any work at all.
    fn is_plausible(&self) -> bool {
        self.sessions > 0
    }

    /// Perturbs the fingerprint (self-tests of the checker only).
    fn corrupt(&mut self) {
        self.completed_downloads += 1;
    }
}

/// Counts runs and the runs that failed a correctness check.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: u64,
    failed: u64,
    /// Corrupt the next compared fingerprint, proving that a mismatch is
    /// counted (`--inject-mismatch`).
    inject_mismatch: bool,
}

impl Checker {
    /// A checker; with `inject_mismatch` the first comparison is forced to
    /// fail.
    pub fn new(inject_mismatch: bool) -> Self {
        Checker {
            inject_mismatch,
            ..Checker::default()
        }
    }

    /// Records one run whose reports fingerprint to `actual`.  The run fails
    /// when any report did no work or when `actual` differs from `expected`
    /// (a run of the same system that must agree bit for bit).
    pub fn run(&mut self, what: &str, expected: Option<&[Fingerprint]>, actual: &[Fingerprint]) {
        self.attempted += 1;
        let mut actual = actual.to_vec();
        if let (Some(_), Some(first)) = (expected, actual.first_mut()) {
            if std::mem::take(&mut self.inject_mismatch) {
                first.corrupt();
            }
        }
        let plausible = !actual.is_empty() && actual.iter().all(Fingerprint::is_plausible);
        let agrees = expected.is_none_or(|e| e == actual.as_slice());
        if !plausible {
            eprintln!("perfbench: {what}: a report did no work: {actual:?}");
        }
        if !agrees {
            report_mismatch(what, expected.unwrap_or_default(), &actual);
        }
        if !(plausible && agrees) {
            self.failed += 1;
        }
    }

    /// Runs attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Runs that failed a check so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

fn report_mismatch(what: &str, expected: &[Fingerprint], actual: &[Fingerprint]) {
    eprintln!("perfbench: {what}: report differs from the reference run");
    if expected.len() != actual.len() {
        eprintln!("  {} reports, expected {}", actual.len(), expected.len());
    }
    for (index, (e, a)) in expected.iter().zip(actual).enumerate() {
        if e != a {
            eprintln!("  report {index}:\n    expected {e:?}\n    actual   {a:?}");
        }
    }
}
