//! Smoke runs of the built benchmark binary: one pass of each workload
//! with the committed references corrupted must report failed operations
//! and `correct: false`, and a clean run must pass with every metric
//! `BENCHMARK.json` names.

use std::process::Command;

use fdip_types::Json;

/// Runs the benchmark for one pass and parses its last stdout line.
fn run(workload: &str, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "424242",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "perfbench {workload} {extra:?} exited {:?}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn failed(result: &Json) -> u64 {
    result
        .get("failed")
        .and_then(Json::as_u64)
        .expect("failed count")
}

fn correct(result: &Json) -> bool {
    matches!(result.get("correct"), Some(Json::Bool(true)))
}

fn corrupted_references_fail(workload: &str) {
    let result = run(workload, &["--corrupt-reference"]);
    assert!(
        !correct(&result),
        "{workload}: a corrupted reference passed"
    );
    // 27 catalogue digests, the catalogue counters, the trace-layer count
    // and 14 kernel digests at least.
    assert!(
        failed(&result) >= 42,
        "{workload}: only {} failures",
        failed(&result)
    );
}

#[test]
fn large_reports_a_corrupted_reference_as_a_failure() {
    corrupted_references_fail("large");
}

#[test]
fn small_reports_a_corrupted_reference_as_a_failure() {
    corrupted_references_fail("small");
}

#[test]
fn a_clean_run_passes_and_prints_every_end_to_end_metric() {
    let result = run("small", &[]);
    assert!(correct(&result), "clean run failed: {result}");
    assert_eq!(failed(&result), 0);
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let bench = Json::parse(&doc).expect("BENCHMARK.json parses");
    let metrics = result.get("metrics").expect("metrics");
    for m in bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
    {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        let entry = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit),
            "{name}"
        );
        let value = entry.get("value").and_then(Json::as_f64).expect("value");
        assert!(value > 0.0, "{name} = {value}");
    }
}
