//! `monitor_embedded`: a closed loop of telemetry batches through the
//! embedded API of an in-memory database carrying E13's rule set.
//!
//! One driver thread; 64 sensors; each transaction is `begin`, one
//! `invoke_batch` of 100 readings (10 % anomalous), one `mark` signal
//! carrying the transaction's sequence number, `commit`. The rules: an
//! immediate guard with a write action, a deferred audit, an immediate
//! signal bridge, a `History(3)`/`SameReceiver` cross-transaction
//! composite with a detached alarm, and one sequence-tagged detached
//! rule that starts after its trigger commits (reaction latency).
//!
//! `object` dispatch → `oodb` sentry → `core` → `txn` subtransactions do
//! nearly all the work; `server`, `dist`, WAL force and indexes do none.

use crate::gen::{self, Reading, Rng};
use crate::probes::{self, Counts};
use crate::stats::{self, Samples};
use crate::trace::{self, Tracer};
use crate::{timed_setup, Marks, Outcome, RunCfg};
use open_oodb::Database;
use reach_common::ObjectId;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, Correlation, CouplingMode, EventExpr, Lifespan,
    ReachConfig, ReachSystem, RuleBuilder,
};
use reach_object::{Value, ValueType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SENSORS: usize = 64;
pub const BATCH: usize = 100;
const PASSES: usize = 10;
/// Batch transactions per second of `--seconds`: the commit that added
/// the benchmark ran about this many on the 2-core box, so the fixed
/// work lasts about `--seconds` there.
const TXNS_PER_SECOND: f64 = 1_500.0;

pub struct World {
    pub db: Arc<Database>,
    pub sys: Arc<ReachSystem>,
    pub sensors: Vec<ObjectId>,
    pub audited: Arc<AtomicU64>,
    pub storms: Arc<AtomicU64>,
    pub marks: Arc<Marks>,
}

/// The world builder (after `reach_bench::sensor_world`, copied so the
/// yardstick does not move when `crates/bench` is consolidated) plus
/// E13's rule set and the reaction-latency rule.
pub fn build(sensors: usize, txns: usize) -> World {
    let db = Database::in_memory().expect("in-memory database");
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let class = b.define().expect("class");
    db.methods().register_fn(report, |ctx| {
        ctx.set("value", ctx.arg(0))?;
        Ok(Value::Null)
    });
    let sys = ReachSystem::new(Arc::clone(&db), ReachConfig::default());
    let t = db.begin().expect("begin");
    let sensors: Vec<ObjectId> = (0..sensors)
        .map(|_| {
            let oid = db.create(t, class).expect("create");
            db.persist(t, oid).expect("persist");
            oid
        })
        .collect();
    db.commit(t).expect("commit");

    let anomalous =
        |ctx: &reach_core::RuleCtx<'_>| Ok(ctx.arg(0).as_int()? >= gen::ANOMALY_THRESHOLD);
    let ev = sys
        .define_method_event("report", class, "report", MethodPhase::After)
        .expect("method event");
    sys.define_rule(
        RuleBuilder::new("guard")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(anomalous)
            .then(|ctx| {
                let oid = ctx.receiver().expect("method events have a receiver");
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )
    .expect("guard");
    let audited = Arc::new(AtomicU64::new(0));
    {
        let a = Arc::clone(&audited);
        sys.define_rule(
            RuleBuilder::new("audit")
                .on(ev)
                .coupling(CouplingMode::Deferred)
                .when(anomalous)
                .then(move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
        )
        .expect("audit");
    }
    let anomaly = sys.define_signal("anomaly").expect("signal");
    {
        let weak = Arc::downgrade(&sys);
        sys.define_rule(
            RuleBuilder::new("signal-bridge")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .when(anomalous)
                .then(move |ctx| {
                    if let Some(sys) = weak.upgrade() {
                        sys.raise_signal_for(Some(ctx.txn), "anomaly", ctx.receiver(), vec![])?;
                    }
                    Ok(())
                }),
        )
        .expect("bridge");
    }
    let storm = sys
        .define_composite_correlated(
            "sensor-storm",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(anomaly)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
            Correlation::SameReceiver,
        )
        .expect("composite");
    let storms = Arc::new(AtomicU64::new(0));
    {
        let s = Arc::clone(&storms);
        sys.define_rule(
            RuleBuilder::new("storm-alarm")
                .on(storm)
                .coupling(CouplingMode::Detached)
                .then(move |_| {
                    s.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
        )
        .expect("alarm");
    }
    let mark = sys.define_signal("mark").expect("signal");
    let marks = Arc::new(Marks::new(txns));
    {
        let m = Arc::clone(&marks);
        sys.define_rule(
            RuleBuilder::new("react")
                .on(mark)
                .coupling(CouplingMode::SequentialCausallyDependent)
                .then(move |ctx| {
                    m.action_started(ctx.arg(0).as_int()? as usize);
                    Ok(())
                }),
        )
        .expect("react");
    }
    World {
        db,
        sys,
        sensors,
        audited,
        storms,
        marks,
    }
}

/// The readings of pass `pass` (0 is the warm-up): a pure function of
/// the seed, which is what makes two runs comparable.
pub fn pass_readings(seed: u64, pass: usize, txns: usize) -> Vec<Reading> {
    gen::readings(&mut Rng::stream(seed, pass as u64), SENSORS, txns * BATCH)
}

struct Pass {
    elapsed: f64,
    txns: usize,
    txn_lat: Samples,
    req_lat: Samples,
}

/// Push one pass through the full firing pipeline, including the wait
/// for detached work at the end.
fn run_pass(w: &World, readings: &[Reading], first_seq: usize, tr: &mut Tracer) -> Pass {
    let args: Vec<[Value; 1]> = readings.iter().map(|r| [Value::Int(r.value)]).collect();
    let txns = readings.len() / BATCH;
    let mut txn_lat = Samples::with_capacity(txns);
    let mut req_lat = Samples::with_capacity(txns);
    let start = Instant::now();
    for (i, (batch, batch_args)) in readings.chunks(BATCH).zip(args.chunks(BATCH)).enumerate() {
        let seq = first_seq + i;
        let calls: Vec<(ObjectId, &str, &[Value])> = batch
            .iter()
            .zip(batch_args)
            .map(|(r, a)| (w.sensors[r.sensor], "report", &a[..]))
            .collect();
        let t0 = Instant::now();
        let t = w.db.begin().expect("begin");
        let t1 = Instant::now();
        w.db.invoke_batch(t, &calls).expect("invoke_batch");
        let t2 = Instant::now();
        w.sys
            .raise_signal(Some(t), "mark", vec![Value::Int(seq as i64)])
            .expect("mark");
        let t3 = Instant::now();
        w.marks.commit_called(seq);
        w.db.commit(t).expect("commit");
        let t4 = Instant::now();
        txn_lat.push(t4 - t0);
        req_lat.push(t2 - t1);
        if tr.on {
            let span = tr.open("txn", t.raw(), t0);
            tr.call("oodb.begin", span, t.raw(), t0, t1);
            tr.call("oodb.invoke_batch", span, t.raw(), t1, t2);
            tr.call("core.raise_signal", span, t.raw(), t2, t3);
            tr.call("oodb.commit", span, t.raw(), t3, t4);
            tr.close(span, t4);
        }
    }
    let t0 = Instant::now();
    w.sys.wait_quiescent();
    let end = Instant::now();
    tr.call("core.wait_quiescent", trace::NONE, 0, t0, end);
    Pass {
        elapsed: (end - start).as_secs_f64(),
        txns,
        txn_lat,
        req_lat,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let per_pass = ((cfg.seconds * TXNS_PER_SECOND) as usize / PASSES).max(20);
    let warm = per_pass / 4 + 1;
    let total = warm + per_pass * PASSES;

    let (w, setup_s) = timed_setup(cfg, || build(SENSORS, total));
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch, 0);
    let mut anomalies = vec![0u64; SENSORS];
    let mut tally = |rs: &[Reading]| {
        for r in rs.iter().filter(|r| r.anomalous()) {
            anomalies[r.sensor] += 1;
        }
    };

    // Warm-up: lazy worker pools, allocator, CPU frequency.
    let rs = pass_readings(cfg.seed, 0, warm);
    tally(&rs);
    run_pass(&w, &rs, 0, &mut tracer);

    // Traced runs alternate untraced and traced passes in one world, so
    // the overhead of tracing is an A/B inside the run (in the order
    // A B B A …: passes slow down as the world's memory grows, and this
    // order gives both sides the same mean position).
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut txn_lat: Vec<Samples> = Vec::new();
    let mut req_lat: Vec<Samples> = Vec::new();
    let mut counts = Counts::default();
    let mut traced_txns = 0u64;
    let mut gen_ns = Vec::new();
    for pass in 0..PASSES {
        let t0 = Instant::now();
        let rs = pass_readings(cfg.seed, pass + 1, per_pass);
        gen_ns.push(t0.elapsed().as_nanos() as f64 / rs.len() as f64);
        tally(&rs);
        let on = cfg.trace && matches!(pass % 4, 1 | 2);
        tracer.on = on;
        let before = on.then(|| {
            w.sys.metrics().enable();
            Counts::of(&w.sys.metrics_snapshot())
        });
        let p = run_pass(&w, &rs, warm + pass * per_pass, &mut tracer);
        if let Some(before) = before {
            counts.add(&Counts::of(&w.sys.metrics_snapshot()).since(&before));
            w.sys.metrics().disable();
            traced_txns += p.txns as u64;
        }
        let rate = p.txns as f64 / p.elapsed;
        if on {
            traced.push(rate);
        } else {
            plain.push(rate);
            txn_lat.push(p.txn_lat);
            req_lat.push(p.req_lat);
        }
    }
    out.attempted = (total) as u64;

    // Correctness: the rules did exactly what the generated stream says.
    let expected_anomalies: u64 = anomalies.iter().sum();
    let expected_storms: u64 = anomalies.iter().map(|n| n / 3).sum();
    let audited = w.audited.load(Ordering::Relaxed);
    let storms = w.storms.load(Ordering::Relaxed);
    out.check(audited == expected_anomalies, || {
        format!("audited {audited} anomalies, the stream holds {expected_anomalies}")
    });
    out.check(storms == expected_storms, || {
        format!("{storms} storm alarms, the stream predicts {expected_storms}")
    });
    let t = w.db.begin().expect("begin");
    for (s, oid) in w.sensors.iter().enumerate() {
        let got = w.db.get_attr(t, *oid, "alarms").and_then(|v| v.as_int());
        out.check(got == Ok(anomalies[s] as i64), || {
            format!(
                "sensor {s}: alarms attribute {got:?}, expected {}",
                anomalies[s]
            )
        });
    }
    w.db.commit(t).expect("commit");
    let (react, unreacted) = w.marks.reactions(warm..total);
    out.check(unreacted == 0, || {
        format!("{unreacted} transactions whose detached rule did not start after commit")
    });
    out.check(w.sys.dead_letters().is_empty(), || {
        "dead letters".to_string()
    });

    if !cfg.trace {
        out.set("setup_s", setup_s);
        out.set("txn_per_s", stats::median(&mut plain));
        out.set("txn_p50_us", stats::over_passes_us(&txn_lat, 0.50));
        out.set("req_p50_us", stats::over_passes_us(&req_lat, 0.50));
        out.set("peak_rss_mb", stats::peak_rss_mib());
        return out;
    }

    let plain_rate = stats::median(&mut plain);
    let traced_rate = stats::median(&mut traced);
    out.set("events_per_s", plain_rate * BATCH as f64);
    out.set("txn_p99_us", stats::over_passes_us(&txn_lat, 0.99));
    out.set("req_p99_us", stats::over_passes_us(&req_lat, 0.99));
    out.set("react_p50_us", react.p50_us());
    out.set("react_p99_us", react.p99_us());
    out.set(
        "trace.overhead_pct",
        (plain_rate / traced_rate - 1.0) * 100.0,
    );
    out.set("load.gen_ns_per_op", stats::median(&mut gen_ns));
    counts.report(&mut out, traced_txns);
    drop(w);
    probes::core_layers(cfg, &mut out);
    let path = cfg.out.join("trace_monitor_embedded.jsonl");
    probes::write_trace(&path, &[tracer], &mut out);
    out
}
