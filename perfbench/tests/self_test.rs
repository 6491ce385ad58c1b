//! Self-tests of the benchmark on tiny workloads: every metric
//! `BENCHMARK.json` names is printed with its unit, and a forced fingerprint
//! mismatch is counted as a failed run.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-sweep", "scale-10k", "churn-10k"];

/// Runs the benchmark on a tiny workload and returns its result line.
fn result_line(workload: &str, trace: &str, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--size", "tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the section's list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (string_field(entry, "name"), string_field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in `entry`.
fn string_field(entry: &str, key: &str) -> String {
    let quoted = format!("\"{key}\"");
    let at = entry
        .find(&quoted)
        .unwrap_or_else(|| panic!("no {key} in {entry}"));
    let rest = &entry[at + quoted.len()..];
    let rest = &rest[rest.find('"').expect("a string value") + 1..];
    rest[..rest.find('"').expect("the string closes")].to_string()
}

/// Asserts that `line` reports a correct run carrying exactly `metrics`,
/// each with a numeric value and its declared unit.
fn assert_reports(line: &str, metrics: &[(String, String)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    assert_eq!(line.matches("\"unit\"").count(), metrics.len(), "{line}");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + key.len()..];
        let (value, rest) = rest.split_once(',').expect("a value then a unit");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
        assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        assert!(
            rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{name} lacks unit {unit}: {line}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    let metrics = declared("end_to_end");
    assert!(!metrics.is_empty());
    for workload in WORKLOADS {
        assert_reports(&result_line(workload, "0", &[]), &metrics);
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_unit() {
    let metrics = declared("per_layer");
    assert!(!metrics.is_empty());
    for workload in WORKLOADS {
        assert_reports(&result_line(workload, "1", &[]), &metrics);
    }
}

#[test]
fn a_fingerprint_mismatch_counts_as_a_failed_run() {
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let line = result_line(workload, trace, &["--inject-mismatch"]);
            assert!(line.starts_with("{\"correct\": false, "), "{line}");
            assert!(line.contains("\"failed\": 1, "), "{line}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_an_error_and_no_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload scale-10k --seed 1 --seconds 0 --trace 0",
        "--workload scale-10k --seed 1 --seconds 1 --trace 2",
        "--workload scale-10k --seed 1",
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args}");
        assert!(output.stdout.is_empty(), "{args}");
    }
}
