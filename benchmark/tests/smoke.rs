//! Keeps the benchmark and its manifest honest: `BENCHMARK.json` must be what
//! the spec tables generate and stay inside the manifest's limits, and the
//! miniature run (`--smoke`) must report every metric the manifest names,
//! with no failed operation.

use gxplug_benchmark::json::Json;
use gxplug_benchmark::spec;
use std::path::Path;
use std::process::Command;

fn manifest_file() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

fn is_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_is_generated_from_the_spec_and_within_limits() {
    let manifest = manifest_file();
    assert_eq!(
        manifest,
        spec::manifest(),
        "BENCHMARK.json is stale: regenerate it with `--manifest`"
    );

    let workloads = manifest.get("workloads").expect("workloads");
    let end_to_end = manifest.get("end_to_end").expect("end_to_end");
    let per_layer = manifest.get("per_layer").expect("per_layer");
    assert!((2..=8).contains(&names(workloads).len()));
    assert!((1..=16).contains(&names(end_to_end).len()));
    assert!((1..=128).contains(&names(per_layer).len()));

    let mut all: Vec<&str> = [workloads, end_to_end, per_layer]
        .into_iter()
        .flat_map(names)
        .collect();
    assert!(
        all.iter().all(|name| is_name(name)),
        "a bad name in {all:?}"
    );
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a name is used twice");

    for workload in workloads.as_arr().unwrap() {
        let why = workload.get("why").and_then(Json::as_str).expect("a why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for metric in (end_to_end.as_arr().unwrap().iter()).chain(per_layer.as_arr().unwrap()) {
        assert!(is_unit(
            metric.get("unit").and_then(Json::as_str).expect("a unit")
        ));
        let better = metric.get("better").and_then(Json::as_str);
        assert!(matches!(better, Some("lower" | "higher")));
    }
    for metric in end_to_end.as_arr().unwrap() {
        let bound = metric.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!((0.0..=0.25).contains(&bound));
    }
    let setup = (end_to_end.as_arr().unwrap().iter())
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
}

#[test]
fn smoke_run_reports_every_metric_of_the_manifest() {
    let status = Command::new(env!("CARGO_BIN_EXE_gxplug-benchmark"))
        .arg("--smoke")
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "--smoke reported a failure");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/smoke/results.json");
    let results = Json::parse(&std::fs::read_to_string(path).expect("results.json was written"))
        .expect("results.json parses");
    assert!(results.get("available_parallelism").is_some());
    let manifest = manifest_file();
    for workload in names(manifest.get("workloads").unwrap()) {
        let run = results
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("{workload} is missing from results.json"));
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = run.get("metrics").expect("metrics");
        for name in names(manifest.get("end_to_end").unwrap()) {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: end-to-end metric {name} is {value:?}"
            );
        }
        for name in names(manifest.get("per_layer").unwrap()) {
            assert!(metrics.get(name).is_some(), "{workload}: {name} is missing");
        }
    }
}
