//! The benchmark's own checks: every workload runs and verifies, a wrong
//! expected output fails the run, results parse back, and
//! `BENCHMARK.json` matches the metrics the benchmark measures.

use perfbench::json::Json;
use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::workload::{Workload, NAMES};
use perfbench::{compare, run, run_workload, Options, Record};
use std::path::{Path, PathBuf};
use std::process::Command;

fn work_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-tests")
        .join(test)
}

fn quick(workload: &str, trace: bool, test: &str) -> Options {
    Options {
        workload: workload.into(),
        seed: 3,
        seconds: 0.3,
        trace,
        quick: true,
        work_dir: work_dir(test),
    }
}

/// The metric names of a result line, in order.
fn metric_names(result_line: &str) -> Vec<String> {
    let parsed = Json::parse(result_line).expect("result line is JSON");
    match parsed.get("metrics") {
        Some(Json::Obj(map)) => map.keys().cloned().collect(),
        other => panic!("metrics is {other:?}"),
    }
}

fn sorted_names(table: &[Metric]) -> Vec<String> {
    let mut names: Vec<String> = table.iter().map(|m| m.name.to_string()).collect();
    names.sort();
    names
}

#[test]
fn every_workload_runs_and_verifies() {
    for name in NAMES {
        for trace in [false, true] {
            let outcome = run(&quick(name, trace, &format!("all-{name}-{trace}"))).unwrap();
            assert!(
                outcome.correct(),
                "{name} trace={trace}: {} mismatches",
                outcome.mismatches
            );
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.first_error);
            let table = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(
                metric_names(&outcome.result_line().unwrap()),
                sorted_names(table)
            );
            for (metric, value) in &outcome.reported().unwrap().0 {
                assert!(value.is_finite(), "{name}: {} = {value}", metric.name);
            }
            let end_to_end = outcome.values.select(END_TO_END).unwrap();
            assert!(
                end_to_end.0.iter().all(|(_, v)| *v > 0.0),
                "{name}: {end_to_end:?}"
            );
        }
    }
}

#[test]
fn traced_run_writes_spans_shared_across_rungs() {
    let opts = quick("step", true, "spans");
    run(&opts).unwrap();
    let spans = std::fs::read_to_string(opts.work_dir.join("spans-step.jsonl")).unwrap();
    let mut rungs_of_request_0 = std::collections::BTreeSet::new();
    for line in spans.lines() {
        let span = Json::parse(line).unwrap();
        if span.get("id").and_then(Json::num) == Some(0.0) {
            rungs_of_request_0.insert(span.get("rung").and_then(Json::str).unwrap().to_string());
        }
    }
    let want: std::collections::BTreeSet<String> = ["kernel", "engine", "session", "codec", "tcp"]
        .map(String::from)
        .into();
    assert_eq!(rungs_of_request_0, want);
}

#[test]
fn a_corrupted_expected_output_fails_the_run() {
    for name in ["step", "fleet"] {
        let mut w = Workload::generate(name, 3, true).unwrap();
        // One wrong reference value in one pooled request.
        let mut wrong = w.pool[0].expected.clone();
        wrong.row_mut(0)[0] += 1;
        w.pool[0].expected = wrong;
        for trace in [false, true] {
            let outcome =
                run_workload(&w, &quick(name, trace, &format!("corrupt-{name}-{trace}"))).unwrap();
            assert!(outcome.mismatches > 0, "{name} trace={trace}");
            assert!(!outcome.correct());
            assert!(outcome
                .result_line()
                .unwrap()
                .starts_with("{\"correct\": false"));
        }
    }
}

fn perfbench(args: &[&str], dir: &Path) -> std::process::Output {
    std::fs::create_dir_all(dir).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn a_result_file_parses_back() {
    let dir = work_dir("parse-back");
    let out = perfbench(
        &[
            "--workload",
            "step",
            "--seed",
            "5",
            "--seconds",
            "0.3",
            "--trace",
            "0",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    let result = Json::parse(last).unwrap();
    let Json::Obj(keys) = &result else {
        panic!("{last}")
    };
    assert_eq!(
        keys.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));

    // A captured stdout log is a result file.
    let log = dir.join("results.log");
    std::fs::write(&log, &stdout).unwrap();
    let records = compare::records(&std::fs::read_to_string(&log).unwrap()).unwrap();
    assert_eq!(records.len(), 1);
    let record: &Record = &records[0];
    assert_eq!(
        (record.workload.as_str(), record.seed, record.trace),
        ("step", 5, false)
    );
    assert!(record.correct);
    assert_eq!(
        Some(record.attempted as f64),
        result.get("attempted").and_then(Json::num)
    );
    // Every reported metric reads back with the same value.
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            assert_eq!(
                record.metrics.get(name).copied(),
                m.get("value").and_then(Json::num),
                "{name}"
            );
        }
    }
    for key in [
        "cpu_model",
        "nproc",
        "cpus",
        "rustc",
        "profile",
        "rustflags",
        "target_cpu",
        "git_rev",
        "seed",
        "server_threads",
        "clients",
    ] {
        assert!(record.env.get(key).is_some(), "env lacks {key}");
    }
    // `step` runs on one CPU however many the test process may use.
    assert_eq!(record.env.get("nproc").and_then(Json::num), Some(1.0));
}

#[test]
fn compare_reads_two_result_files() {
    let dir = work_dir("compare");
    std::fs::create_dir_all(&dir).unwrap();
    let record = |seed: u64, throughput: f64| {
        format!(
            "{{\"schema\": \"perfbench-record-v1\", \"workload\": \"step\", \"seed\": {seed}, \"trace\": 0, \
             \"correct\": true, \"attempted\": 10, \"failed\": 0, \"env\": {{}}, \"metrics\": {{\
             \"throughput_vps\": {{\"value\": {throughput}, \"unit\": \"1/s\"}}, \
             \"latency_p50_us\": {{\"value\": 40.0, \"unit\": \"us\"}}}}}}\n"
        )
    };
    let base: String = (0..5).map(|s| record(s, 1000.0 + s as f64)).collect();
    let change: String = (0..5).map(|s| record(s, 1500.0 + s as f64)).collect();
    std::fs::write(dir.join("base.jsonl"), base).unwrap();
    std::fs::write(dir.join("change.jsonl"), change).unwrap();
    let bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let out = perfbench(
        &[
            "compare",
            "--bounds",
            bounds.to_str().unwrap(),
            "base.jsonl",
            "change.jsonl",
        ],
        &dir,
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8(out.stdout).unwrap();
    let line = |metric: &str| {
        table
            .lines()
            .find(|l| l.contains(metric))
            .unwrap_or_else(|| panic!("{table}"))
    };
    assert!(line("throughput_vps").ends_with("better"), "{table}");
    assert!(line("latency_p50_us").ends_with("within bounds"), "{table}");
}

#[test]
fn a_bad_invocation_prints_no_result() {
    let dir = work_dir("bad");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "step",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "step", "--seconds", "1"][..],
    ] {
        let out = perfbench(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}

#[test]
fn benchmark_json_lists_what_the_benchmark_measures() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let list = |key: &str| doc.get(key).and_then(Json::arr).unwrap().to_vec();
    let names = |entries: &[Json]| -> Vec<String> {
        entries
            .iter()
            .map(|e| e.get("name").and_then(Json::str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names(&list("workloads")), NAMES);
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let entries = list(key);
        assert_eq!(
            names(&entries),
            table.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{key}"
        );
        for (entry, metric) in entries.iter().zip(table) {
            assert_eq!(
                entry.get("unit").and_then(Json::str),
                Some(metric.unit),
                "{}",
                metric.name
            );
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Json::str),
                Some(better),
                "{}",
                metric.name
            );
        }
    }
    let bounds = compare::bounds(
        &std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    let setup = bounds
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(bounds
        .iter()
        .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
}
