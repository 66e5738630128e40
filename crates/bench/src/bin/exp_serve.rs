//! Experiment E19 — server overload behaviour.
//!
//! Drives waves of concurrent connections through the network layer,
//! ramping past the admission bound, and reports — per wave — how many
//! connections were served vs shed, request throughput, and p50/p99
//! request latency *for admitted clients*. The properties under test:
//!
//! * overload is handled by **explicit shedding** (`Overloaded`
//!   rejections at admission), never by silent queueing;
//! * latency for admitted clients stays bounded while excess load is
//!   shed — the overload wave's p99 should look like the at-capacity
//!   wave's, not grow with offered load;
//! * the server never panics.
//!
//! Each client owns a private named root, so the measurement isolates
//! the network/session layer rather than lock contention.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_serve [--smoke]
//! ```

use open_oodb::Database;
use reach_bench::percentile;
use reach_common::ReachError;
use reach_core::{ReachConfig, ReachSystem};
use reach_object::{Value, ValueType};
use reach_server::{serve, Client, ClientConfig, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct WaveResult {
    clients: usize,
    served: u64,
    shed: u64,
    requests: u64,
    elapsed_s: f64,
    p50_us: u64,
    p99_us: u64,
}

/// One wave: `clients` threads each try to hold a session for `ops`
/// begin/set/get/commit cycles. A thread that is shed at admission
/// records the rejection and exits — explicit shedding is the policy
/// being measured, so no retry.
fn run_wave(addr: &str, clients: usize, ops: u64) -> WaveResult {
    let served = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let requests = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.to_string();
            let served = Arc::clone(&served);
            let shed = Arc::clone(&shed);
            let requests = Arc::clone(&requests);
            let latencies = Arc::clone(&latencies);
            std::thread::spawn(move || {
                let cfg = ClientConfig {
                    deadline_ms: 2_000,
                    max_attempts: 1,
                    ..ClientConfig::default()
                };
                let mut c = match Client::connect(&addr, cfg) {
                    Ok(c) => c,
                    Err(ReachError::Overloaded(_)) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(e) => panic!("client {i}: unexpected connect error {e:?}"),
                };
                let root = match c.fetch_root(&format!("r{i}")) {
                    Ok(o) => o,
                    Err(e) => panic!("client {i}: fetch_root failed: {e:?}"),
                };
                let mut local = Vec::with_capacity(ops as usize * 4);
                for n in 0..ops {
                    let step = |c: &mut Client, local: &mut Vec<u64>| -> Result<(), ReachError> {
                        let q0 = Instant::now();
                        let t = c.begin()?;
                        local.push(q0.elapsed().as_micros() as u64);
                        let q = Instant::now();
                        c.set(t, root, "v", Value::Int(n as i64))?;
                        local.push(q.elapsed().as_micros() as u64);
                        let q = Instant::now();
                        let _ = c.get(t, root, "v")?;
                        local.push(q.elapsed().as_micros() as u64);
                        let q = Instant::now();
                        c.commit(t)?;
                        local.push(q.elapsed().as_micros() as u64);
                        Ok(())
                    };
                    match step(&mut c, &mut local) {
                        Ok(()) => {
                            requests.fetch_add(4, Ordering::Relaxed);
                        }
                        Err(e) => panic!("client {i} op {n}: {e:?}"),
                    }
                }
                served.fetch_add(1, Ordering::Relaxed);
                latencies.lock().unwrap().extend(local);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread must not panic");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_unstable();
    WaveResult {
        clients,
        served: served.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        requests: requests.load(Ordering::Relaxed),
        elapsed_s,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

fn print_row(r: &WaveResult) {
    println!(
        "{:>8} {:>7} {:>6} {:>9} {:>11.0} {:>9} {:>9}",
        r.clients,
        r.served,
        r.shed,
        r.requests,
        r.requests as f64 / r.elapsed_s,
        r.p50_us,
        r.p99_us,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (max_sessions, waves, ops): (usize, Vec<usize>, u64) = if smoke {
        (8, vec![4, 8, 24], 40)
    } else {
        (64, vec![32, 64, 128, 256], 200)
    };

    let db = Database::in_memory().expect("in-memory db");
    db.define_class("Res")
        .attr("v", ValueType::Int, Value::Int(0))
        .define()
        .expect("class");
    let sys = ReachSystem::new(db, ReachConfig::default());
    sys.metrics().enable();
    // One private root per potential client in the largest wave.
    {
        let db = sys.db();
        let class = db.schema().class_by_name("Res").expect("class");
        let t = db.begin().expect("begin");
        for i in 0..*waves.iter().max().expect("non-empty ramp") {
            let oid = db.create(t, class).expect("create");
            db.persist_named(t, &format!("r{i}"), oid).expect("persist");
        }
        db.commit(t).expect("commit");
    }
    let handle = serve(
        Arc::clone(&sys),
        ServerConfig {
            max_sessions,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    println!("E19: server overload ramp (admission bound = {max_sessions} sessions)");
    println!(
        "{:>8} {:>7} {:>6} {:>9} {:>11} {:>9} {:>9}",
        "clients", "served", "shed", "requests", "requests/s", "p50(us)", "p99(us)"
    );
    let results: Vec<WaveResult> = waves
        .iter()
        .map(|&c| {
            let r = run_wave(&addr, c, ops);
            print_row(&r);
            r
        })
        .collect();

    let m = &sys.metrics().server;
    println!(
        "server: sessions={} rejected={} requests={} errors={} panics={}",
        m.sessions_opened.get(),
        m.admissions_rejected.get(),
        m.requests.get(),
        m.request_errors.get(),
        m.panics.get(),
    );
    handle.shutdown();

    let mut failed = false;
    let overload = results.last().expect("at least one wave");
    if overload.shed == 0 {
        eprintln!("violation: the overload wave shed nothing — admission bound not enforced");
        failed = true;
    }
    if overload.served == 0 {
        eprintln!("violation: the overload wave served nobody — shedding everything");
        failed = true;
    }
    if results.iter().any(|r| r.served > 0 && r.p99_us > 2_000_000) {
        eprintln!("violation: p99 for admitted clients exceeded the 2 s deadline budget");
        failed = true;
    }
    if m.panics.get() > 0 {
        eprintln!("violation: server panicked under load");
        failed = true;
    }
    // Explicit-rejection accounting: every shed connection corresponds
    // to an admission rejection the server counted.
    if m.admissions_rejected.get() < overload.shed {
        eprintln!("violation: clients saw more Overloaded errors than the server recorded");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    if smoke {
        println!("smoke ok: overload shed explicitly, admitted p99 bounded, no panics");
    }
}
