//! CI bench-regression gate.
//!
//! Compares a fresh `scale` bench run (the CI 1k smoke) against the
//! checked-in `BENCH_scale.json` baseline and exits non-zero when any phase
//! regressed by more than the tolerance — turning the benchmark trajectory
//! from a write-only artifact into an enforced gate.
//!
//! ```text
//! cargo run --release -p exchange-bench --bin bench_gate -- \
//!     --baseline BENCH_scale.json --current /tmp/bench_scale_smoke.json \
//!     [--tier 1k] [--mode entry-warm] [--tolerance 0.25] [--min-phase-s 0.05]
//! ```
//!
//! **What is compared.** When both files carry `calibration_ops_per_s`
//! (the host's rate on a fixed CPU-bound reference loop, recorded by the
//! scale bench next to its timings), the gate compares **calibrated event
//! rates**: each phase's `events / phase_s`, with the current run rescaled
//! by `current_calibration / baseline_calibration` into baseline-machine
//! units.  A CI runner that is uniformly 2× slower halves the event rate
//! *and* the reference-loop rate, so the calibrated ratio is unchanged and
//! the gate survives hardware drift — while a real per-event cost
//! regression moves only the numerator and still trips it.  A file without
//! calibration or event counts cannot be compared: the gate exits 2 and
//! names it.
//!
//! Phase values are averaged across each file's runs, so a 1-seed smoke is
//! comparable against a 2-seed baseline.  Phases below `--min-phase-s` in
//! *both* files are skipped (micro-phases are noise-dominated), and only
//! keys present in both files are compared, so adding a phase to the
//! profile never breaks the gate against an older baseline.  The
//! `BENCH_GATE_TOLERANCE` environment variable overrides `--tolerance`
//! (escape hatch for known-noisy runners without a code change).
//!
//! The workspace has no JSON dependency (serde is an offline stub), so a
//! ~90-line recursive-descent parser lives below; it accepts exactly the
//! JSON subset the scale bench emits.
//!
//! **Stream mode.**  `bench_gate --stream <rows.jsonl> [--min-rows N]`
//! consumes a JSON-lines sweep stream (the `--stream` output of the figure
//! binaries / `Scenario::run_streamed`) instead of comparing bench timings.
//! The stream may be *partial*: a run killed mid-sweep leaves complete rows
//! plus at most one truncated trailing line, which is tolerated and
//! reported.  A malformed line anywhere else is a hard error.  The gate
//! prints per-point row counts and mean completed downloads, and exits
//! non-zero when fewer than `--min-rows` (default 1) complete rows were
//! recovered — so CI can assert a killed nightly still left a usable
//! monitoring artifact.
//!
//! **Step summaries.**  `--summary` (compare mode) additionally renders
//! the verdict table as GitHub-flavoured markdown and appends it to
//! `$GITHUB_STEP_SUMMARY` when that variable is set (falling back to stdout
//! locally), so the per-phase deltas are readable from the Actions run page
//! without expanding logs.

use std::collections::BTreeMap;
use std::process::ExitCode;

// ---- minimal JSON value ----------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // The bench writer never emits escapes beyond these.
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

// ---- gate logic ------------------------------------------------------------

/// One side (baseline or current) of the comparison: per-phase mean
/// seconds, the mean event count, and the file's machine calibration.
struct Side {
    phases: BTreeMap<String, f64>,
    /// Mean `phases.events` across runs.
    events: f64,
    /// Top-level `calibration_ops_per_s`.
    calibration: f64,
}

/// Per-phase mean seconds of one (tier, mode) across its runs, `run_s`
/// included under the pseudo-phase name `run`.
fn phase_means(root: &Json, tier: &str, mode: &str) -> Result<Side, String> {
    let tiers = root
        .get("tiers")
        .and_then(Json::as_array)
        .ok_or("no 'tiers' array")?;
    let tier_obj = tiers
        .iter()
        .find(|t| t.get("tier").and_then(Json::as_str) == Some(tier))
        .ok_or_else(|| format!("tier '{tier}' not present"))?;
    let modes = tier_obj
        .get("modes")
        .and_then(Json::as_array)
        .ok_or("no 'modes' array")?;
    let mode_obj = modes
        .iter()
        .find(|m| m.get("mode").and_then(Json::as_str) == Some(mode))
        .ok_or_else(|| format!("mode '{mode}' not present in tier '{tier}'"))?;
    let runs = mode_obj
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no 'runs' array")?;
    if runs.is_empty() {
        return Err(format!("tier '{tier}' mode '{mode}' has no runs"));
    }
    let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut events_sum = 0.0f64;
    let mut events_n = 0usize;
    for run in runs {
        if let Some(run_s) = run.get("run_s").and_then(Json::as_f64) {
            let entry = sums.entry("run".into()).or_default();
            entry.0 += run_s;
            entry.1 += 1;
        }
        let Some(Json::Object(phases)) = run.get("phases") else {
            continue;
        };
        if let Some(events) = phases.get("events").and_then(Json::as_f64) {
            events_sum += events;
            events_n += 1;
        }
        for (key, value) in phases {
            let Some(seconds) = value.as_f64() else {
                continue;
            };
            if let Some(name) = key.strip_suffix("_s") {
                let entry = sums.entry(name.to_string()).or_default();
                entry.0 += seconds;
                entry.1 += 1;
            }
        }
    }
    if events_n == 0 {
        return Err(format!(
            "tier '{tier}' mode '{mode}' records no event counts"
        ));
    }
    let calibration = root
        .get("calibration_ops_per_s")
        .and_then(Json::as_f64)
        .filter(|c| *c > 0.0)
        .ok_or("no positive 'calibration_ops_per_s'")?;
    Ok(Side {
        phases: sums
            .into_iter()
            .map(|(name, (sum, n))| (name, sum / n as f64))
            .collect(),
        events: events_sum / events_n as f64,
        calibration,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_gate --baseline <BENCH_scale.json> --current <smoke.json> \
         [--tier 1k] [--mode entry-warm] [--tolerance 0.25] [--min-phase-s 0.05] [--summary]\n\
         \x20      bench_gate --stream <rows.jsonl> [--min-rows 1]"
    );
    std::process::exit(2)
}

/// Appends a markdown block to `$GITHUB_STEP_SUMMARY`; outside Actions
/// (variable unset or unwritable) it prints to stdout so `--summary` is
/// still previewable locally.
fn emit_summary(markdown: &str) {
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .and_then(|mut file| writeln!(file, "{markdown}"));
        match appended {
            Ok(()) => return,
            Err(e) => eprintln!("bench_gate: cannot append to {path}: {e}"),
        }
    }
    println!("{markdown}");
}

/// Consumes a possibly-truncated JSON-lines sweep stream: counts complete
/// rows per grid point, tolerates one partial trailing line (the kill
/// case), and fails when fewer than `min_rows` complete rows survive.
fn gate_stream(path: &str, min_rows: usize) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    // (rows, completed-downloads sum, how many rows reported the metric)
    let mut points: BTreeMap<u64, (usize, f64, usize)> = BTreeMap::new();
    let mut rows = 0usize;
    let mut truncated = false;
    for (index, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = match Parser::parse(line) {
            Ok(row) => row,
            Err(e) if index == lines.len() - 1 => {
                // A SIGKILL between write and flush leaves one partial line;
                // everything before it is still a complete record.
                eprintln!("bench_gate: tolerating truncated final line ({e})");
                truncated = true;
                continue;
            }
            Err(e) => {
                eprintln!("bench_gate: {path} line {}: {e}", index + 1);
                return ExitCode::from(2);
            }
        };
        let (Some(point), Some(_seed)) = (
            row.get("point").and_then(Json::as_f64),
            row.get("seed").and_then(Json::as_f64),
        ) else {
            eprintln!(
                "bench_gate: {path} line {}: not a sweep row (missing point/seed)",
                index + 1
            );
            return ExitCode::from(2);
        };
        rows += 1;
        let entry = points.entry(point as u64).or_insert((0, 0.0, 0));
        entry.0 += 1;
        if let Some(completed) = row
            .get("metrics")
            .and_then(|m| m.get("completed_downloads"))
            .and_then(Json::as_f64)
        {
            entry.1 += completed;
            entry.2 += 1;
        }
    }
    println!(
        "bench_gate: {path}: {rows} complete row(s) across {} point(s){}",
        points.len(),
        if truncated {
            " (stream truncated mid-line)"
        } else {
            ""
        }
    );
    for (point, (count, sum, reported)) in &points {
        let mean = if *reported > 0 {
            format!("{:.1}", sum / *reported as f64)
        } else {
            "n/a".to_string()
        };
        println!("  point {point}: {count} row(s), mean completed_downloads {mean}");
    }
    if rows < min_rows {
        eprintln!("bench_gate: only {rows} complete row(s), need at least {min_rows}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut tier = "1k".to_string();
    let mut mode = "entry-warm".to_string();
    let mut tolerance = 0.25f64;
    let mut min_phase_s = 0.05f64;
    let mut stream_path = None;
    let mut min_rows = 1usize;
    let mut summary = false;
    let mut i = 0;
    while i < args.len() {
        // `--summary` is the lone boolean flag; everything else takes a value.
        if args[i] == "--summary" {
            summary = true;
            i += 1;
            continue;
        }
        match (args[i].as_str(), args.get(i + 1)) {
            ("--baseline", Some(v)) => baseline_path = Some(v.clone()),
            ("--current", Some(v)) => current_path = Some(v.clone()),
            ("--tier", Some(v)) => tier = v.clone(),
            ("--mode", Some(v)) => mode = v.clone(),
            ("--tolerance", Some(v)) => tolerance = v.parse().unwrap_or_else(|_| usage()),
            ("--min-phase-s", Some(v)) => min_phase_s = v.parse().unwrap_or_else(|_| usage()),
            ("--stream", Some(v)) => stream_path = Some(v.clone()),
            ("--min-rows", Some(v)) => min_rows = v.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 2;
    }
    if let Some(path) = stream_path {
        return gate_stream(&path, min_rows);
    }
    if let Ok(raw) = std::env::var("BENCH_GATE_TOLERANCE") {
        match raw.parse::<f64>() {
            Ok(value) if value >= 0.0 => {
                eprintln!("bench_gate: tolerance overridden to {value} via BENCH_GATE_TOLERANCE");
                tolerance = value;
            }
            _ => eprintln!("bench_gate: ignoring unparsable BENCH_GATE_TOLERANCE={raw}"),
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
        usage()
    };

    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Parser::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = match (load(&baseline_path), load(&current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let (base_side, now_side) = match (
        phase_means(&baseline, &tier, &mode).map_err(|e| format!("{baseline_path}: {e}")),
        phase_means(&current, &tier, &mode).map_err(|e| format!("{current_path}: {e}")),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "bench_gate: tier {tier}, mode {mode}, tolerance {:.0}%, \
         calibrated events/s (machine ratio {:.2}x)",
        tolerance * 100.0,
        now_side.calibration / base_side.calibration
    );
    println!(
        "{:<20} {:>12} {:>12} {:>8}  verdict",
        "phase", "base kev/s", "cur kev/s", "ratio"
    );
    use std::fmt::Write as _;
    let mut markdown = format!(
        "## Bench gate: tier {tier}, mode {mode} (calibrated event rates)\n\n\
         tolerance {:.0}% against `{baseline_path}`\n\n\
         | phase | base kev/s | current kev/s | ratio | verdict |\n\
         |---|---:|---:|---:|---|\n",
        tolerance * 100.0,
    );
    let mut regressions = 0usize;
    for (name, &base) in &base_side.phases {
        let Some(&now) = now_side.phases.get(name) else {
            continue; // a phase the current profile no longer reports
        };
        if base < min_phase_s && now < min_phase_s {
            println!(
                "{name:<20} {:>12} {:>12} {:>8}  skipped (both < {min_phase_s}s)",
                "-", "-", "-"
            );
            let _ = writeln!(
                markdown,
                "| {name} | — | — | — | skipped (both < {min_phase_s}s) |"
            );
            continue;
        }
        // Event rates, the current run rescaled into the baseline machine's
        // units; regression = the calibrated rate fell.  The floor guards
        // tiny denominators so a 1 ms phase cannot fail the gate by becoming
        // 2 ms.
        let base_val = base_side.events / base.max(min_phase_s) / 1000.0;
        let now_val = now_side.events / now.max(min_phase_s) / 1000.0
            * (base_side.calibration / now_side.calibration);
        let ratio = base_val / now_val.max(f64::MIN_POSITIVE);
        let regressed = ratio > 1.0 + tolerance;
        println!(
            "{name:<20} {base_val:>12.3} {now_val:>12.3} {ratio:>7.2}x  {}",
            if regressed { "REGRESSED" } else { "ok" }
        );
        let _ = writeln!(
            markdown,
            "| {name} | {base_val:.3} | {now_val:.3} | {ratio:.2}x | {} |",
            if regressed { "❌ REGRESSED" } else { "✅ ok" }
        );
        regressions += usize::from(regressed);
    }
    if regressions > 0 {
        let _ = writeln!(
            markdown,
            "\n**{regressions} phase(s) regressed more than {:.0}%.**",
            tolerance * 100.0
        );
        if summary {
            emit_summary(&markdown);
        }
        eprintln!(
            "bench_gate: {regressions} phase(s) regressed more than {:.0}% against {baseline_path}",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    let _ = writeln!(
        markdown,
        "\nNo phase regressed more than {:.0}%.",
        tolerance * 100.0
    );
    if summary {
        emit_summary(&markdown);
    }
    println!(
        "bench_gate: no phase regressed more than {:.0}%",
        tolerance * 100.0
    );
    ExitCode::SUCCESS
}
