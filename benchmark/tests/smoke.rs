//! The whole benchmark at `--smoke` scale: all six workloads, both kinds
//! of run, every output check, every metric — then the comparator on the
//! result set it wrote.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use haocl_obs::json::{self, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_haocl-perf"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("haocl-perf starts")
}

fn names(catalogue: &Json, section: &str) -> BTreeSet<String> {
    catalogue
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("named entry")
                .to_string()
        })
        .collect()
}

fn keys(object: &Json) -> BTreeSet<String> {
    match object {
        Json::Obj(map) => map.keys().cloned().collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// One contract result: exactly the four keys, correct, no failures,
/// and exactly the metrics of `section`.
fn check_result(result: &Json, catalogue: &Json, section: &str) {
    let expected: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
        .map(String::from)
        .into();
    assert_eq!(keys(result), expected);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let metrics = result.get("metrics").expect("metrics");
    assert_eq!(
        keys(metrics),
        names(catalogue, section),
        "{section} metrics differ from BENCHMARK.json"
    );
    for name in keys(metrics) {
        let metric = metrics.get(&name).expect("listed");
        assert!(
            metric
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite),
            "{name} has no value"
        );
        assert!(
            metric.get("unit").and_then(Json::as_str).is_some(),
            "{name} has no unit"
        );
    }
}

#[test]
fn smoke_pass_checks_every_output_and_prints_every_metric() {
    let catalogue = json::parse(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_results.json");
    let out = out.to_str().expect("utf-8 path");

    let pass = perf(&["--smoke", "--seconds", "0.2", "--seed", "5", "--out", out]);
    assert!(
        pass.status.success(),
        "smoke pass failed:\n{}\n{}",
        String::from_utf8_lossy(&pass.stdout),
        String::from_utf8_lossy(&pass.stderr)
    );

    let set =
        json::parse(&std::fs::read_to_string(out).expect("result set")).expect("result set parses");
    assert_eq!(
        set.get("claim"),
        Some(&Json::Null),
        "a baseline claims no gain"
    );
    let runs = set.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 1);
    let workloads = runs[0].get("workloads").expect("workloads");
    assert_eq!(keys(workloads), names(&catalogue, "workloads"));
    for workload in keys(workloads) {
        let results = workloads.get(&workload).expect("listed");
        check_result(
            results.get("end_to_end").expect("untraced run"),
            &catalogue,
            "end_to_end",
        );
        check_result(
            results.get("per_layer").expect("traced run"),
            &catalogue,
            "per_layer",
        );
        let trace = repo_root().join(format!("benchmark/out/trace_{workload}.json"));
        let trace = json::parse(&std::fs::read_to_string(&trace).expect("trace file"))
            .expect("trace parses");
        assert!(!trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events")
            .is_empty());
    }

    // A result set compared with itself: nothing regresses, and every
    // exact-repeat count is identical.
    let same = perf(&["--compare", out, out]);
    let report = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{report}");
    assert!(
        report.contains("identical")
            && !report.contains("DIFFERS")
            && !report.contains("regressed"),
        "{report}"
    );
}

#[test]
fn one_run_prints_the_contract_line_last_and_bad_input_fails() {
    let run = perf(&[
        "--workload",
        "small_launch",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = stdout.trim_end().lines().last().expect("output");
    let result = json::parse(last).expect("last line is JSON");
    assert!(
        result
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .is_some(),
        "{last}"
    );

    assert!(
        !perf(&["--workload", "no_such_workload", "--seconds", "0.2"])
            .status
            .success()
    );
    assert!(!perf(&["--trace", "2"]).status.success());
}
