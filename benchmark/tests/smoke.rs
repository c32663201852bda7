//! The benchmark's own test: every workload runs at `--smoke` size, untraced
//! and traced, and prints exactly the metrics `BENCHMARK.json` lists, with
//! their units; a wrong expectation makes a run fail.

use std::process::Command;

// The crate is a binary; its JSON reader is shared by path.
#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {}", v.render()))
}

fn run(workload: &str, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_o2k-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let contract = contract();
    let workloads = contract.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let workload = field(w, "name");
        for (list, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let (ok, stdout) = run(workload, &["--trace", trace]);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let result = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));

            let printed = result.get("metrics").and_then(Value::as_obj).unwrap();
            let listed = contract.get(list).and_then(Value::as_arr).unwrap();
            let mut want: Vec<&str> = listed.iter().map(|m| field(m, "name")).collect();
            let mut got: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{workload}: {list} metrics printed vs listed");
            for spec in listed {
                let name = field(spec, "name");
                assert!(name_ok(name), "metric name {name:?}");
                let m = result.get("metrics").unwrap().get(name).unwrap();
                assert_eq!(
                    field(m, "unit"),
                    field(spec, "unit"),
                    "{workload}: unit of {name}"
                );
                assert!(m.get("value").and_then(Value::as_f64).is_some());
                // The by-name lines a person reads carry the same metric.
                assert!(
                    stdout.contains(&format!("metric {name} ")),
                    "{workload}: no line for {name}"
                );
            }
            if list == "end_to_end" {
                for (_, m) in printed {
                    assert!(m.get("value").and_then(Value::as_f64).unwrap() > 0.0);
                }
            }
        }
        let spans = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let text = std::fs::read_to_string(format!("{spans}/{workload}.spans.json"))
            .expect("a traced run writes its spans");
        let doc = json::parse(&text).expect("spans are JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        for name in ["run", "setup", "pass[0]", "probes"] {
            assert!(
                events.iter().any(|e| field(e, "name") == name),
                "{workload}: no {name} span"
            );
        }
    }
}

#[test]
fn a_wrong_expectation_fails_the_run() {
    let (ok, stdout) = run("amr-adapt", &["--break-expectation"]);
    assert!(!ok, "a broken expectation must exit non-zero:\n{stdout}");
    let result = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_f64).unwrap() >= 1.0);
    assert!(stdout.contains("FAILED"), "the failing cell is named");
}

#[test]
fn unknown_input_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_o2k-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
    let out = Command::new(env!("CARGO_BIN_EXE_o2k-benchmark"))
        .args(["--workload", "amr-adapt", "--seconds", "soon"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
