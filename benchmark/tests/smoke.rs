//! `--smoke`: all four workloads, both modes, the same code paths and
//! the same result shape, in seconds — and the names in the output, in
//! `catalog.rs` and in `/BENCHMARK.json` are the same names.

use reach_benchmark::catalog;
use reach_benchmark::json::{self, Json};
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn listed(m: &Json, key: &str) -> Vec<(String, String)> {
    m.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_and_catalog_agree_and_meet_the_contract() {
    let m = manifest();
    let keys: BTreeSet<&str> = match &m {
        Json::Obj(o) => o.keys().map(String::as_str).collect(),
        _ => panic!("BENCHMARK.json is an object"),
    };
    let want = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    assert_eq!(keys, want.into_iter().collect());

    let workloads: Vec<&str> = m
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why: one line of at most 200"
            );
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    assert_eq!(workloads, catalog::WORKLOADS);

    let as_pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&m, "end_to_end"), as_pairs(catalog::END_TO_END));
    assert_eq!(listed(&m, "per_layer"), as_pairs(catalog::PER_LAYER));
    assert!(catalog::END_TO_END.len() <= 16 && catalog::PER_LAYER.len() <= 128);

    let mut seen = BTreeSet::new();
    for (name, unit) in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
        assert!(well_formed(name), "{name}");
        assert!(seen.insert(*name), "{name} is used once");
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for w in catalog::WORKLOADS {
        assert!(well_formed(w) && seen.insert(*w), "{w}");
    }
    for e in m.get("end_to_end").map(Json::as_arr).unwrap_or_default() {
        let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        let better = e.get("better").and_then(Json::as_str);
        assert!(matches!(better, Some("lower" | "higher")));
    }
    let setup = m
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let secs = m
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

#[test]
fn smoke_runs_every_workload_in_both_modes() {
    let out = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in catalog::WORKLOADS {
        for (trace, names) in [("0", catalog::END_TO_END), ("1", catalog::PER_LAYER)] {
            let run = Command::new(env!("CARGO_BIN_EXE_reach-benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(&out)
                .output()
                .expect("the benchmark binary runs");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(
                run.status.success(),
                "{workload} --trace {trace}:\n{stderr}"
            );
            let stdout = String::from_utf8_lossy(&run.stdout);
            let result = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
            let Json::Obj(fields) = &result else {
                panic!("the result is an object")
            };
            let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "{workload} --trace {trace} reports exactly the catalog"
            );
            for (name, unit) in names {
                let m = &metrics[*name];
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
                let v = m.get("value").and_then(Json::as_f64).expect("value");
                assert!(v.is_finite(), "{name} = {v}");
                if trace == "0" {
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is never 0");
                }
            }
            // Each workload bypasses what it claims to bypass.
            let value = |n: &str| {
                metrics
                    .get(n)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            if trace == "1" {
                let rules = value("core.immediate_runs").unwrap_or(0.0);
                let wire = value("server.bytes_per_txn").unwrap_or(0.0);
                let two_pc = value("dist.forces_per_xshard_commit").unwrap_or(0.0);
                let syncs = value("storage.forces_per_commit").unwrap_or(0.0);
                assert_eq!(
                    rules > 0.0,
                    *workload == "monitor_embedded",
                    "{workload}: rules"
                );
                assert_eq!(
                    wire > 0.0,
                    *workload == "oltp_wire",
                    "{workload}: wire bytes"
                );
                assert_eq!(two_pc > 0.0, *workload == "dist_2pc", "{workload}: 2PC");
                assert_eq!(
                    syncs > 0.0,
                    *workload != "monitor_embedded",
                    "{workload}: log forces"
                );
            }
        }
    }
    let left: Vec<_> = std::fs::read_dir(&out)
        .expect("out directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| !n.starts_with("trace_"))
        .collect();
    assert!(
        left.is_empty(),
        "temporary directories are removed: {left:?}"
    );
}
