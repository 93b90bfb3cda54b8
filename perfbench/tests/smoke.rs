//! A short run of every workload declared in `BENCHMARK.json`, untraced and
//! traced: each must pass its checks and emit exactly the declared metrics, with
//! the declared units, in the contract's result line.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repository root");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = list
        .as_array()
        .expect("metric lists are arrays")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_emits_the_declared_metrics() {
    let spec = declared();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert!(!workloads.is_empty());
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = names_and_units(spec.get(list).expect("metric list"));
        for &name in &workloads {
            let output = Command::new(env!("CARGO_BIN_EXE_tagdm-perfbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "7",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse(last).expect("the result line is JSON");
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            let attempted = result
                .get("attempted")
                .and_then(Value::as_u64)
                .expect("attempted");
            assert!(attempted >= 1);
            assert!(result.get("failed").and_then(Value::as_u64).is_some());
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let mut emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(metric, body)| {
                    let value = body.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{name}: {metric} = {value}");
                    let unit = body.get("unit").and_then(Value::as_str).expect("unit");
                    (metric.clone(), unit.to_string())
                })
                .collect();
            emitted.sort();
            assert_eq!(emitted, expected, "{name} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_tagdm-perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
