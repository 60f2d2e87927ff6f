//! Self-test of the benchmark at tiny scale: on every workload of
//! `BENCHMARK.json`, in both modes, the benchmark exits cleanly, emits
//! exactly the metrics the file names (finite numbers in the declared
//! units) and has no failed or incorrect queries.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use gradoop_dataflow::JsonValue;

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    JsonValue::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn array<'a>(value: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    value
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
}

fn string<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

fn run(workload: &str, trace: &str) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace, "--persons", "100"])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result");
    JsonValue::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn every_declared_metric_is_emitted_and_no_query_fails() {
    let spec = spec();
    for workload in array(&spec, "workloads") {
        let workload = string(workload, "name");
        for (trace, declared) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let context = format!("{workload} trace {trace}");
            assert!(
                matches!(result.get("correct"), Some(JsonValue::Bool(true))),
                "{context}: incorrect results"
            );
            let failed = result.get("failed").and_then(JsonValue::as_f64);
            let attempted = result.get("attempted").and_then(JsonValue::as_f64);
            assert_eq!(failed, Some(0.0), "{context}: failed_share is not 0");
            assert!(
                attempted.unwrap_or(0.0) >= 1.0,
                "{context}: nothing attempted"
            );
            let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
                panic!("{context}: no metrics object");
            };
            let declared = array(&spec, declared);
            let names: Vec<&str> = declared.iter().map(|m| string(m, "name")).collect();
            let emitted: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(
                emitted, names,
                "{context}: emitted metrics differ from BENCHMARK.json"
            );
            for (metric, (name, value)) in declared.iter().zip(metrics) {
                let number = value.get("value").and_then(JsonValue::as_f64);
                assert!(
                    number.is_some_and(f64::is_finite),
                    "{context}: {name} is not a finite number"
                );
                assert_eq!(
                    value.get("unit").and_then(JsonValue::as_str),
                    Some(string(metric, "unit")),
                    "{context}: unit of {name}"
                );
            }
        }
    }
}
