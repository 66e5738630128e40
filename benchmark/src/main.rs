//! Entry point. `--workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints one JSON object as the last line
//! of standard output (the shape `/BENCHMARK.json` promises). Without
//! `--trace` the program drives itself: every workload untraced, then
//! traced, each in a child process, and prints every metric by name.

use reach_benchmark::json::{self, Json};
use reach_benchmark::{catalog, run_workload, RunCfg};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload W --seed N --seconds S --trace 0|1    one run, result as the last line\n\
         \x20      run.sh [--workload W] [--seed N] [--seconds S] [--smoke] [--repeat K]    every metric\n\
         workloads: {}",
        catalog::WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    out: PathBuf,
    manifest: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
        out: PathBuf::from("benchmark/out"),
        manifest: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(val()),
            "--seed" => a.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = Some(val().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                a.trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--repeat" => a.repeat = val().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = PathBuf::from(val()),
            "--manifest" => a.manifest = PathBuf::from(val()),
            "--smoke" => a.smoke = true,
            _ => usage(),
        }
    }
    if let Some(w) = &a.workload {
        if !catalog::WORKLOADS.contains(&w.as_str()) {
            usage();
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || a.repeat == 0 {
        usage();
    }
    a
}

/// The length of a run when `--seconds` is not given: the manifest's
/// `run_seconds`, or a fraction of a second for `--smoke`.
fn seconds(a: &Args, manifest: Option<&Json>) -> f64 {
    a.seconds.unwrap_or_else(|| {
        if a.smoke {
            return 0.3;
        }
        manifest
            .and_then(|m| m.get("run_seconds"))
            .and_then(Json::as_f64)
            .unwrap_or(10.0)
    })
}

/// One run in this process: readable lines on standard error, the
/// result on standard output.
fn single(a: &Args, workload: &str, trace: bool) -> ExitCode {
    let cfg = RunCfg {
        seed: a.seed,
        seconds: seconds(a, None),
        trace,
        smoke: a.smoke,
        out: a.out.clone(),
    };
    std::fs::create_dir_all(&cfg.out).expect("create the out/ directory");
    let mut out = run_workload(workload, &cfg).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let names = if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    for name in out.metrics.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalog of a --trace {} run",
            trace as u8
        );
    }
    let broken: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(name, _)| *name)
        .collect();
    for name in broken {
        out.problems
            .push(format!("metric {name} is not a finite number"));
    }
    for p in &out.problems {
        eprintln!("INCORRECT {workload}: {p}");
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // A layer the workload bypasses reads 0.
            let v = out
                .metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            eprintln!("{workload:<17} {name:<38} {v:>16.4} {unit}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in a child process (so that `peak_rss_mb` is that run's
/// own); its result line, parsed.
fn child(a: &Args, workload: &str, trace: bool, secs: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &secs.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&a.out);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    for line in stderr
        .lines()
        .filter(|l| l.starts_with("INCORRECT") || l.starts_with("peel:"))
    {
        println!("{line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload} --trace {}: no result line ({e})\n{stderr}",
            trace as u8
        )
    })?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} --trace {}: incorrect run\n{last}",
            trace as u8
        ));
    }
    Ok(result)
}

type Set = BTreeMap<(String, String), f64>;

/// Every workload untraced, then traced; every metric printed by name.
fn one_set(a: &Args, secs: f64, failures: &mut Vec<String>) -> Set {
    let mut set = Set::new();
    let workloads: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => catalog::WORKLOADS.to_vec(),
    };
    for w in workloads {
        for trace in [false, true] {
            let names = if trace {
                catalog::PER_LAYER
            } else {
                catalog::END_TO_END
            };
            match child(a, w, trace, secs) {
                Ok(result) => {
                    let n = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    println!(
                        "{w} --trace {}: correct, {} attempted, {} failed",
                        trace as u8,
                        n("attempted"),
                        n("failed")
                    );
                    for (name, unit) in names {
                        let v = result
                            .get("metrics")
                            .and_then(|m| m.get(name))
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64);
                        match v {
                            Some(v) => {
                                println!("  {w:<17} {name:<38} {v:>16.4} {unit}");
                                set.insert((w.to_string(), name.to_string()), v);
                            }
                            None => failures.push(format!("{w}: metric {name} missing")),
                        }
                    }
                }
                Err(e) => failures.push(e),
            }
        }
    }
    set
}

/// `--repeat`: per end-to-end metric and workload, every set's value,
/// how far apart they are (as a share of the first) and the bound;
/// counts that must repeat exactly on single-driver workloads.
fn compare(sets: &[Set], manifest: &Json, failures: &mut Vec<String>) {
    println!(
        "\nrepeatability over {} sets of the same build:",
        sets.len()
    );
    for (w, name) in sets[0].keys() {
        let values: Vec<f64> = sets
            .iter()
            .filter_map(|s| s.get(&(w.clone(), name.clone())).copied())
            .collect();
        let spread = values
            .iter()
            .fold(0.0f64, |m, v| m.max((v - values[0]).abs()))
            / values[0].abs();
        let bound = manifest
            .get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64);
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        if let Some(bound) = bound {
            // setup_s is held to its bound on medians, not on single runs.
            let over = spread > bound && name != "setup_s";
            println!(
                "  {w:<17} {name:<14} {}  differ by {:.1} % (bound {:.0} %){}",
                shown.join("  "),
                spread * 100.0,
                bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
            if over {
                failures.push(format!("{w} {name}: sets differ by more than the bound"));
            }
        } else if catalog::EXACT.contains(&name.as_str())
            && catalog::SINGLE_DRIVER.contains(&w.as_str())
        {
            let same = values.iter().all(|v| *v == values[0]);
            println!(
                "  {w:<17} {name:<38} {}  {}",
                shown.join("  "),
                if same { "identical" } else { "DIFFER" }
            );
            if !same {
                failures.push(format!("{w} {name}: an exact count differs between sets"));
            }
        }
    }
}

fn main() -> ExitCode {
    let a = parse_args();
    if let (Some(w), Some(trace)) = (&a.workload, a.trace) {
        return single(&a, w, trace);
    }
    let manifest = std::fs::read_to_string(&a.manifest)
        .map_err(|e| e.to_string())
        .and_then(|s| json::parse(&s));
    if let Err(e) = &manifest {
        eprintln!("cannot read {}: {e}", a.manifest.display());
        if a.repeat > 1 {
            return ExitCode::from(2);
        }
    }
    let secs = seconds(&a, manifest.as_ref().ok());
    let mut failures = Vec::new();
    let sets: Vec<Set> = (0..a.repeat)
        .map(|i| {
            println!(
                "== set {} of {} (seed {}, {secs} s per run)",
                i + 1,
                a.repeat,
                a.seed
            );
            one_set(&a, secs, &mut failures)
        })
        .collect();
    if let (true, Ok(manifest)) = (a.repeat > 1, &manifest) {
        compare(&sets, manifest, &mut failures);
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
