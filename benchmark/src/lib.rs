//! `reach-benchmark` — the repository's yardstick.
//!
//! Four workloads drive the public API of the REACH crates end to end
//! (`monitor_embedded`, `oltp_wire`, `query_mixed`, `dist_2pc`). An
//! untraced run reports the end-to-end metrics; a traced run records
//! client-side spans around every call into a layer, turns the shared
//! `MetricsRegistry` on, peels the layers apart and reports the
//! per-layer metrics. README.md has the definitions; `catalog` has the
//! names and units, and must agree with `/BENCHMARK.json`.

pub mod catalog;
pub mod dist;
pub mod gen;
pub mod json;
pub mod monitor;
pub mod oltp;
pub mod probes;
pub mod query;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Only source of randomness: every input derives from it.
    pub seed: u64,
    /// Length of the measured part. Closed loops run a fixed number of
    /// operations sized to this many seconds at the speed of the commit
    /// that added the benchmark; paced loops run exactly this long.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Shrink worlds and set up once: the `--smoke` shape.
    pub smoke: bool,
    /// Directory for traces and temporary database files.
    pub out: PathBuf,
}

/// What one invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (transactions, plus one per verified item).
    pub attempted: u64,
    /// Operations refused, errored or answered wrongly.
    pub failed: u64,
    /// Human-readable reasons the run is not correct.
    pub problems: Vec<String>,
    /// Metric name → value, in the catalog's unit.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Take over the tallies of one pass: `ok` + `failed` operations
    /// attempted, `failed` of them failed, and why (the first twenty).
    pub fn absorb(&mut self, ok: u64, failed: u64, problems: &mut Vec<String>) {
        self.attempted += ok + failed;
        self.failed += failed;
        let room = 20usize.saturating_sub(self.problems.len());
        self.problems.extend(problems.drain(..).take(room));
    }

    /// Count one checked item; record why when it is wrong.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.absorb(0, 0, &mut vec![why()]);
        }
    }
}

/// Run one workload by name.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "monitor_embedded" => Ok(monitor::run(cfg)),
        "oltp_wire" => Ok(oltp::run(cfg)),
        "query_mixed" => Ok(query::run(cfg)),
        "dist_2pc" => Ok(dist::run(cfg)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// While alive, confines the calling thread — and every thread spawned
/// after it — to one CPU.
///
/// `oltp_wire` is a ping-pong between client and server threads. On two
/// CPUs every hand-over wakes a halted virtual CPU, and on the sandbox
/// that costs 25 µs or 80 µs depending on whether the hypervisor's
/// adaptive halt polling is engaged: a request round trip flipped
/// between those two values from run to run (a spread of 70 % of the
/// median). On one CPU a hand-over is a context switch, and ten runs
/// agree within 4 %.
pub struct OneCpu {
    saved: [u64; CPU_WORDS],
}

/// 1 024 CPUs' worth of affinity mask.
const CPU_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl OneCpu {
    /// Pin to the lowest CPU the thread may run on; `None` (and no
    /// change) if the kernel refuses.
    pub fn pin() -> Option<OneCpu> {
        let mut saved = [0u64; CPU_WORDS];
        let bytes = std::mem::size_of_val(&saved);
        // SAFETY: `saved` is a live, writable buffer of `bytes` bytes,
        // which is all the kernel writes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, saved.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = saved.iter().position(|w| *w != 0)?;
        let mut one = [0u64; CPU_WORDS];
        one[word] = 1 << saved[word].trailing_zeros();
        // SAFETY: `one` is a live buffer of `bytes` bytes that the kernel
        // only reads.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            return None;
        }
        Some(OneCpu { saved })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: as in `pin`; the mask is the one the kernel gave us.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.saved), self.saved.as_ptr()) };
    }
}

/// Reaction latency: when each transaction's commit was called and when
/// the detached rule it triggers started its action, by the sequence
/// number the transaction carries in an event argument (nanoseconds
/// since `epoch`; 0 = not yet).
pub struct Marks {
    epoch: std::time::Instant,
    commit_call: Vec<AtomicU64>,
    action_start: Vec<AtomicU64>,
}

impl Marks {
    pub fn new(txns: usize) -> Marks {
        Marks {
            epoch: std::time::Instant::now(),
            commit_call: (0..txns).map(|_| AtomicU64::new(0)).collect(),
            action_start: (0..txns).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// The driver is about to call `commit` of transaction `seq`.
    pub fn commit_called(&self, seq: usize) {
        self.commit_call[seq].store(self.now(), Ordering::Relaxed);
    }

    /// The rule's action for transaction `seq` starts.
    pub fn action_started(&self, seq: usize) {
        self.action_start[seq].store(self.now(), Ordering::Relaxed);
    }

    /// Commit call → action start for the transactions in `range`, and
    /// how many actions never started or started before the commit call.
    pub fn reactions(&self, range: std::ops::Range<usize>) -> (stats::Samples, u64) {
        let mut react = stats::Samples::with_capacity(range.len());
        let mut unreacted = 0;
        for seq in range {
            let c = self.commit_call[seq].load(Ordering::Relaxed);
            let a = self.action_start[seq].load(Ordering::Relaxed);
            if a == 0 || a < c {
                unreacted += 1;
            } else {
                react.push(std::time::Duration::from_nanos(a - c));
            }
        }
        (react, unreacted)
    }
}

/// A directory under `out/` that is removed when dropped, so a panic
/// or an early return leaves nothing behind.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out: &std::path::Path, label: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out.join(format!("tmp-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temporary directory under out/");
        TempDir(dir)
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Repeat a set-up until it has run at least three times and for about
/// a second in total (cheap set-ups need many repetitions for a steady
/// median), keep the last world, and return the median set-up time.
/// Traced and smoke runs do not report set-up time and set up once.
pub fn timed_setup<W>(cfg: &RunCfg, mut build: impl FnMut() -> W) -> (W, f64) {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t0 = std::time::Instant::now();
        let world = build();
        let dt = t0.elapsed().as_secs_f64();
        times.push(dt);
        total += dt;
        let enough = times.len() >= 3 && (total >= 1.0 || times.len() >= 25);
        if cfg.smoke || cfg.trace || enough {
            return (world, stats::median(&mut times));
        }
        drop(world);
    }
}
