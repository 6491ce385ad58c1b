//! Exit-code contract of the `bench_gate` binary in compare mode: 0 when no
//! phase regressed, 1 when one did, 2 when a file cannot be compared —
//! uncalibrated, truncated or malformed — and never a panic.

use std::path::PathBuf;
use std::process::Command;

/// A one-tier, one-run scale-bench file with the given calibration and
/// `scheduling_s`.
fn bench_json(calibration: Option<f64>, scheduling_s: f64) -> String {
    let calibration = calibration
        .map(|ops| format!("\"calibration_ops_per_s\":{ops},"))
        .unwrap_or_default();
    format!(
        "{{\"bench\":\"scale\",\"seeds\":1,{calibration}\"tiers\":[{{\"tier\":\"1k\",\
         \"peers\":1000,\"wall_s\":2.1,\"runs\":[\
         {{\"seed\":1,\"setup_s\":0.1,\"run_s\":2.0,\"phases\":{{\"events\":100000,\
         \"event_loop_s\":2.0,\"scheduling_s\":{scheduling_s},\"ring_searches\":5000}}}}]}}]}}"
    )
}

/// Writes `contents` to a file named `name` in this test's scratch directory.
fn write(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_gate");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write bench file");
    path
}

/// Runs the gate on `baseline` against `current`; returns the exit code.
fn gate(baseline: &PathBuf, current: &PathBuf) -> i32 {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .output()
        .expect("run bench_gate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("panicked"),
        "bench_gate panicked: {stderr}"
    );
    output.status.code().expect("bench_gate exited with a code")
}

#[test]
fn a_file_compared_with_itself_passes() {
    let path = write("self.json", &bench_json(Some(1e9), 1.5));
    assert_eq!(gate(&path, &path), 0);
}

#[test]
fn a_phase_twice_as_slow_fails() {
    let baseline = write("base.json", &bench_json(Some(1e9), 1.5));
    let slower = write("slower.json", &bench_json(Some(1e9), 3.0));
    assert_eq!(gate(&baseline, &slower), 1);
}

#[test]
fn an_uncalibrated_file_cannot_be_compared() {
    let calibrated = write("calibrated.json", &bench_json(Some(1e9), 1.5));
    let uncalibrated = write("uncalibrated.json", &bench_json(None, 1.5));
    assert_eq!(gate(&calibrated, &uncalibrated), 2);
    assert_eq!(gate(&uncalibrated, &calibrated), 2);
}

#[test]
fn truncated_or_malformed_json_is_refused() {
    let good = bench_json(Some(1e9), 1.5);
    let baseline = write("good.json", &good);
    let broken = [
        ("empty.json", String::new()),
        ("truncated.json", good[..good.len() / 2].to_string()),
        ("unclosed.json", good[..good.len() - 1].to_string()),
        ("garbage.json", "not json at all".to_string()),
        ("trailing.json", format!("{good} {{")),
        ("bad_number.json", good.replace("100000", "1e+e")),
        ("bad_escape.json", good.replace("\"scale\"", "\"sc\\qale\"")),
        ("wrong_shape.json", "{\"tiers\":\"1k\"}".to_string()),
        (
            "no_runs.json",
            "{\"calibration_ops_per_s\":1e9,\"tiers\":[{\"tier\":\"1k\",\"runs\":[]}]}".to_string(),
        ),
        ("no_events.json", good.replace("\"events\":100000,", "")),
    ];
    for (name, contents) in broken {
        let current = write(name, &contents);
        assert_eq!(gate(&baseline, &current), 2, "{name}");
    }
}
