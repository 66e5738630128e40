//! `query_mixed`: reads beside writes on the same index, with a buffer
//! pool much smaller than the data.
//!
//! A file-backed database with 10 000 objects, two indexed attributes
//! (`k`, static and unique; `g`, ten objects per value, rewritten by
//! the writer) and `pool_frames = 32` (256 KiB against ~2.5 MiB of heap
//! and index pages; the other three workloads fit in their pools).
//! The reader (closed loop) runs read-only snapshot transactions of 8
//! equality queries and one fifty-row range; the writer (constant rate)
//! runs transactions of 4 `set_attr` on `g`.
//!
//! `oodb` query/index policy managers, `storage` B-link tree + buffer
//! pool and `txn` MVCC do the work; `server`, rules and `dist` none.

use crate::gen::{self, Query, Rng, RANGE_ROWS};
use crate::probes::{self, Counts};
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use crate::{timed_setup, Outcome, RunCfg, TempDir};
use open_oodb::{Database, DatabaseConfig};
use reach_common::ObjectId;
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const POOL_FRAMES: usize = 32;
const WINDOWS: usize = 10;
/// The writer's constant rate: about a quarter of what one writer alone
/// sustains on the 2-core box at the commit that added the benchmark.
/// At half (100/s) a spell in which the disk was twice as slow left a
/// backlog that never drained: one run in ten reported 400 ms.
const WRITER_RATE: f64 = 50.0;

fn objects(cfg: &RunCfg) -> usize {
    if cfg.smoke {
        1_000
    } else {
        10_000
    }
}

fn groups(cfg: &RunCfg) -> usize {
    objects(cfg) / 10
}

pub struct World {
    pub dir: TempDir,
    pub db: Arc<Database>,
    pub oids: Vec<ObjectId>,
    /// The generator's model: `g` of object `i` (its `k` is `i`).
    pub g: Vec<usize>,
}

pub fn build(cfg: &RunCfg) -> World {
    let dir = TempDir::new(&cfg.out, "query");
    let db = Database::open(
        dir.path(),
        DatabaseConfig {
            pool_frames: POOL_FRAMES,
            ..DatabaseConfig::default()
        },
    )
    .expect("open");
    let class = db
        .define_class("Item")
        .attr("k", ValueType::Int, Value::Int(0))
        .attr("g", ValueType::Int, Value::Int(0))
        .attr("n", ValueType::Int, Value::Int(0))
        .define()
        .expect("class");
    db.create_index(class, "k").expect("index k");
    db.create_index(class, "g").expect("index g");
    let n = objects(cfg);
    let g: Vec<usize> = (0..n).map(|i| i % groups(cfg)).collect();
    let mut oids = Vec::with_capacity(n);
    // Batches, so no single transaction's change log is huge.
    for chunk in (0..n).collect::<Vec<_>>().chunks(2_000) {
        let t = db.begin().expect("begin");
        for &i in chunk {
            let attrs = [("k", Value::Int(i as i64)), ("g", Value::Int(g[i] as i64))];
            let oid = db.create_with(t, class, &attrs).expect("create");
            db.persist(t, oid).expect("persist");
            oids.push(oid);
        }
        db.commit(t).expect("commit");
    }
    World { dir, db, oids, g }
}

fn query_text(q: Query) -> String {
    match q {
        Query::EqK(k) => format!("select i from Item i where i.k == {k}"),
        Query::EqG(g) => format!("select i from Item i where i.g == {g}"),
        Query::RangeK(lo) => format!(
            "select i from Item i where i.k >= {lo} and i.k < {}",
            lo + RANGE_ROWS
        ),
    }
}

#[derive(Default)]
struct Side {
    /// Commit times of this side's transactions.
    commits: Vec<Instant>,
    txn_lat: Samples,
    query_lat: Samples,
    failed: u64,
    checked: u64,
    late: u64,
    problems: Vec<String>,
}

/// The closed-loop reader: snapshot transactions until `stop`.
fn reader(w: &World, cfg: &RunCfg, stream: u64, stop: &AtomicBool, tr: &mut Tracer) -> Side {
    let mut side = Side::default();
    let mut rng = Rng::stream(cfg.seed, stream);
    while !stop.load(Ordering::Relaxed) {
        let qs = gen::reader_txn(&mut rng, w.oids.len(), groups(cfg));
        let texts: Vec<String> = qs.iter().map(|q| query_text(*q)).collect();
        let t0 = Instant::now();
        let Ok(t) = w.db.begin_read_only() else {
            side.failed += 1;
            continue;
        };
        let span = tr.open("reader.txn", t.raw(), t0);
        let mut ok = true;
        for (q, text) in qs.iter().zip(&texts) {
            let q0 = Instant::now();
            let rows = w.db.query(t, text);
            let q1 = Instant::now();
            side.query_lat.push(q1 - q0);
            tr.call("oodb.query", span, t.raw(), q0, q1);
            // `k` never changes, so these answers are known exactly; `g`
            // moves under the reader and is verified once writes stop.
            let want: Option<Vec<ObjectId>> = match *q {
                Query::EqK(k) => Some(vec![w.oids[k]]),
                Query::RangeK(lo) => Some(w.oids[lo..lo + RANGE_ROWS].to_vec()),
                Query::EqG(_) => None,
            };
            match (rows, want) {
                (Err(e), _) => {
                    ok = false;
                    side.problems.push(format!("{text}: {e}"));
                }
                (Ok(mut rows), Some(mut want)) => {
                    side.checked += 1;
                    rows.sort_unstable();
                    want.sort_unstable();
                    if rows != want {
                        ok = false;
                        side.problems.push(format!(
                            "{text}: {} rows, expected {}",
                            rows.len(),
                            want.len()
                        ));
                    }
                }
                (Ok(_), None) => {}
            }
        }
        ok &= w.db.commit(t).is_ok();
        let t1 = Instant::now();
        tr.close(span, t1);
        if ok {
            side.commits.push(t1);
            side.txn_lat.push(t1 - t0);
        } else {
            side.failed += 1;
        }
    }
    side
}

/// The paced writer: `txns` transactions at `WRITER_RATE`, each timed
/// from its due time; the model follows every acknowledged commit.
fn writer(
    db: &Database,
    oids: &[ObjectId],
    g: &mut [usize],
    cfg: &RunCfg,
    stream: u64,
    txns: usize,
    tr: &mut Tracer,
) -> Side {
    let mut side = Side::default();
    let mut rng = Rng::stream(cfg.seed, stream);
    let every = Duration::from_secs_f64(1.0 / WRITER_RATE);
    let start = Instant::now() + Duration::from_millis(2);
    for i in 0..txns {
        let updates = gen::writer_txn(&mut rng, oids.len(), g.len() / 10);
        let due = start + every * i as u32;
        stats::sleep_until(due);
        let t0 = Instant::now();
        if t0 - due > Duration::from_millis(1) {
            side.late += 1;
        }
        let mut run = || -> reach_common::Result<u64> {
            let t = db.begin()?;
            let span = tr.open("writer.txn", t.raw(), due);
            let mut last = Instant::now();
            tr.call("oodb.begin", span, t.raw(), t0, last);
            for (obj, new_g) in updates {
                if let Err(e) = db.set_attr(t, oids[obj], "g", Value::Int(new_g as i64)) {
                    let _ = db.abort(t);
                    return Err(e);
                }
                let now = Instant::now();
                tr.call("oodb.set_attr", span, t.raw(), last, now);
                last = now;
            }
            db.commit(t)?;
            let now = Instant::now();
            tr.call("oodb.commit", span, t.raw(), last, now);
            tr.close(span, now);
            Ok(t.raw())
        };
        match run() {
            Ok(_) => {
                let t1 = Instant::now();
                side.commits.push(t1);
                side.txn_lat.push(t1 - due);
                for (obj, new_g) in updates {
                    g[obj] = new_g;
                }
            }
            Err(e) => {
                side.failed += 1;
                side.problems.push(format!("writer txn {i}: {e}"));
            }
        }
    }
    side
}

struct Segment {
    start: Instant,
    end: Instant,
    reader: Side,
    writer: Side,
}

/// Reader and writer side by side until the writer has done `txns`.
fn segment(
    w: &mut World,
    cfg: &RunCfg,
    index: u64,
    txns: usize,
    tracers: &mut [Tracer],
) -> Segment {
    let stop = AtomicBool::new(false);
    let mut g = std::mem::take(&mut w.g);
    let (tr_reader, tr_writer) = tracers.split_at_mut(1);
    let start = Instant::now();
    let (reader_side, writer_side) = std::thread::scope(|s| {
        let world = &*w;
        let stop = &stop;
        let r = s.spawn(move || reader(world, cfg, index * 2, stop, &mut tr_reader[0]));
        let wr = writer(
            &world.db,
            &world.oids,
            &mut g,
            cfg,
            index * 2 + 1,
            txns,
            &mut tr_writer[0],
        );
        stop.store(true, Ordering::Relaxed);
        (r.join().expect("reader thread"), wr)
    });
    w.g = g;
    Segment {
        start,
        end: Instant::now(),
        reader: reader_side,
        writer: writer_side,
    }
}

/// Committed transactions per second in each of `WINDOWS` equal slices
/// of the segment.
fn window_rates(seg: &Segment) -> Vec<f64> {
    let len = (seg.end - seg.start).as_secs_f64() / WINDOWS as f64;
    let mut counts = [0u64; WINDOWS];
    for t in seg.reader.commits.iter().chain(&seg.writer.commits) {
        let i = ((*t - seg.start).as_secs_f64() / len) as usize;
        counts[i.min(WINDOWS - 1)] += 1;
    }
    counts.iter().map(|c| *c as f64 / len).collect()
}

fn absorb(out: &mut Outcome, seg: &mut Segment) {
    for side in [&mut seg.reader, &mut seg.writer] {
        out.absorb(side.commits.len() as u64, side.failed, &mut side.problems);
    }
}

/// With the writer stopped: 1 % of the `g` values, each answered by the
/// index and by a brute-force scan of the generator's model.
fn verify_groups(w: &World, cfg: &RunCfg, out: &mut Outcome) {
    let mut rng = Rng::stream(cfg.seed, 999);
    let t = w.db.begin_read_only().expect("begin_read_only");
    for _ in 0..(groups(cfg) / 100).max(10) {
        let group = rng.below(groups(cfg));
        let mut want: Vec<ObjectId> = (0..w.oids.len())
            .filter(|i| w.g[*i] == group)
            .map(|i| w.oids[i])
            .collect();
        want.sort_unstable();
        let got =
            w.db.query(t, &query_text(Query::EqG(group)))
                .map(|mut rows| {
                    rows.sort_unstable();
                    rows
                });
        out.check(got.as_ref() == Ok(&want), || {
            format!(
                "g == {group}: index answered {:?} rows, the model holds {}",
                got.as_ref().map(|r| r.len()),
                want.len()
            )
        });
    }
    w.db.commit(t).expect("commit");
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, setup_s) = timed_setup(cfg, || build(cfg));
    let epoch = Instant::now();
    let mut tracers = vec![Tracer::new(false, epoch, 0), Tracer::new(false, epoch, 1)];

    // Warm-up, then the measured segments. Traced runs alternate
    // untraced and traced segments in one world.
    let mut warm = segment(
        &mut w,
        cfg,
        0,
        (WRITER_RATE * 0.3) as usize + 1,
        &mut tracers,
    );
    absorb(&mut out, &mut warm);
    let plan: &[bool] = if cfg.trace {
        &[false, true, true, false]
    } else {
        &[false]
    };
    let share = if cfg.trace { 0.2 } else { 1.0 };
    let txns = ((cfg.seconds * share * WRITER_RATE) as usize).max(10);
    let mut plain: Vec<Segment> = Vec::new();
    let mut traced: Vec<Segment> = Vec::new();
    let mut counts = Counts::default();
    for (i, on) in plan.iter().enumerate() {
        for t in tracers.iter_mut() {
            t.on = *on;
        }
        let before = on.then(|| {
            w.db.metrics().enable();
            Counts::of(&w.db.metrics().snapshot())
        });
        let mut seg = segment(&mut w, cfg, i as u64 + 1, txns, &mut tracers);
        if let Some(before) = before {
            counts.add(&Counts::of(&w.db.metrics().snapshot()).since(&before));
            w.db.metrics().disable();
        }
        absorb(&mut out, &mut seg);
        if *on { &mut traced } else { &mut plain }.push(seg);
    }
    verify_groups(&w, cfg, &mut out);
    let checked: u64 = plain.iter().chain(&traced).map(|s| s.reader.checked).sum();
    out.check(checked > 0, || "the reader verified no query".to_string());

    if !cfg.trace {
        let seg = &plain[0];
        out.set("setup_s", setup_s);
        out.set("txn_per_s", stats::median(&mut window_rates(seg)));
        out.set(
            "txn_p50_us",
            stats::over_passes_us(&seg.writer.txn_lat.windows(WINDOWS), 0.50),
        );
        out.set(
            "req_p50_us",
            stats::over_passes_us(&seg.reader.query_lat.windows(WINDOWS), 0.50),
        );
        out.set("peak_rss_mb", stats::peak_rss_mib());
        return out;
    }

    let per_s = |segs: &[Segment]| {
        let n: usize = segs.iter().map(|s| s.reader.query_lat.len()).sum();
        let secs: f64 = segs.iter().map(|s| (s.end - s.start).as_secs_f64()).sum();
        n as f64 / secs
    };
    out.set("read_per_s", per_s(&plain));
    let mut rng = Rng::stream(cfg.seed, 998);
    out.set(
        "load.gen_ns_per_op",
        stats::ns_per_call(5, 2_000, || {
            let qs = gen::reader_txn(&mut rng, w.oids.len(), groups(cfg));
            std::hint::black_box(qs.map(query_text));
        }) / 9.0,
    );
    // Few samples per window (a paced writer), so fewer windows.
    let tails = |f: fn(&Segment) -> &Samples| {
        let windows: Vec<Samples> = plain.iter().flat_map(|s| f(s).windows(2)).collect();
        stats::over_passes_us(&windows, 0.99)
    };
    out.set("txn_p99_us", tails(|s| &s.writer.txn_lat));
    out.set("req_p99_us", tails(|s| &s.reader.query_lat));
    out.set(
        "trace.overhead_pct",
        (per_s(&plain) / per_s(&traced) - 1.0) * 100.0,
    );
    let late: u64 = plain.iter().chain(&traced).map(|s| s.writer.late).sum();
    out.set("load.late_share", late as f64 / (txns * plan.len()) as f64);
    let writer_txns: u64 = traced.iter().map(|s| s.writer.commits.len() as u64).sum();
    counts.report(&mut out, writer_txns);
    // A writer transaction locks its four objects; the snapshot reader
    // must add nothing.
    out.set(
        "txn.reader_lock_grants",
        counts.lock_acquisitions as f64 - 4.0 * writer_txns as f64,
    );
    out.check(counts.lock_acquisitions == 4 * writer_txns, || {
        format!(
            "{} lock grants for {writer_txns} writer transactions: the reader took locks",
            counts.lock_acquisitions
        )
    });
    out.set(
        "storage.forces_per_commit",
        counts.wal_forces as f64 / writer_txns.max(1) as f64,
    );
    out.check(
        counts.immediate_runs + counts.deferred_runs + counts.detached_runs == 0,
        || "rules ran on a workload without rules".to_string(),
    );
    probes::query_layers(cfg, &w.db, &w.oids, &mut out);
    probes::btree(cfg, &mut out);
    probes::write_trace(&cfg.out.join("trace_query_mixed.jsonl"), &tracers, &mut out);
    out
}
