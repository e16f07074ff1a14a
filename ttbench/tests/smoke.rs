//! Every workload at tiny scale, untraced and traced: each metric the
//! repository's `BENCHMARK.json` names is reported and finite, no
//! operation fails, and every output check passes.

use std::path::PathBuf;

use serde::json::Value;
use ttbench::{run, Config, WORKLOADS};

fn names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = serde::json::parse(&text).expect("parse BENCHMARK.json");
    let Value::Array(entries) = doc.get_field(section) else {
        panic!("BENCHMARK.json lacks {section}");
    };
    entries
        .iter()
        .map(|e| e.get_field("name").as_str().expect("name").to_string())
        .collect()
}

fn tiny(workload: &str, traced: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.2,
        traced,
        records: 500,
        large_records: 3_000,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ttbench-smoke"),
        golden: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json"),
        bless: false,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_ttbench")),
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    assert_eq!(names("workloads"), WORKLOADS);
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for traced in [false, true] {
        let expected = names(if traced { "per_layer" } else { "end_to_end" });
        for workload in WORKLOADS {
            let cfg = tiny(workload, traced);
            std::fs::create_dir_all(&cfg.work_dir).unwrap();
            let outcome = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(outcome.correct, "{workload}: {:#?}", outcome.lines);
            assert!(outcome.attempted > 0, "{workload}");
            assert_eq!(outcome.failed, 0, "{workload}: {:#?}", outcome.lines);
            let got: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, expected, "{workload} traced={traced}");
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{workload} {}: {}", m.name, m.value);
                if !traced {
                    assert!(m.value > 0.0, "{workload} {} is zero", m.name);
                }
            }
        }
    }
}
