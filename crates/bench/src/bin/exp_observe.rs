//! Experiment E15 — observability: the firing-path report and what it
//! costs to produce.
//!
//! Runs the E13 mixed-coupling monitoring workload (sensors +
//! immediate guard + deferred audit + detached correlated storm alarm,
//! the rule set of the benchmark's `monitor_embedded`) twice over fresh
//! worlds:
//!
//! 1. **registry off** — the instrumented-but-disabled path every record
//!    site takes by default (one relaxed atomic load + branch), which is
//!    the E4 "useless overhead" baseline;
//! 2. **registry on** — spans, histograms and gated counters live —
//!    then dumps the full per-stage metrics report.
//!
//! The difference between the two wall-clock figures is the price of
//! turning observability on.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_observe [events]
//! ```

use reach_bench::sensor_world;
use reach_bench::workload::sensor_stream;
use reach_common::Stage;
use reach_core::event::MethodPhase;
use reach_core::{
    CompositionScope, ConsumptionPolicy, Correlation, CouplingMode, EventExpr, Lifespan,
    ReachConfig, RuleBuilder,
};
use reach_object::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SENSORS: usize = 16;
const DEFAULT_EVENTS: usize = 50_000;

/// Build the E13 world and run the telemetry stream through it,
/// returning the wall-clock time of the stream (not the setup).
fn run_workload(events: usize, enable_metrics: bool) -> (reach_bench::SensorWorld, Duration) {
    let w = sensor_world(SENSORS, ReachConfig::default()).unwrap();
    let sys = &w.sys;
    if enable_metrics {
        sys.enable_metrics();
    }
    let ev = sys
        .define_method_event("report", w.class, "report", MethodPhase::After)
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("guard")
            .on(ev)
            .coupling(CouplingMode::Immediate)
            .when(|ctx| Ok(ctx.arg(0).as_int()? >= 1_000))
            .then(|ctx| {
                let oid = ctx.receiver().unwrap();
                let n = ctx.db.get_attr(ctx.txn, oid, "alarms")?.as_int()? + 1;
                ctx.db.set_attr(ctx.txn, oid, "alarms", Value::Int(n))
            }),
    )
    .unwrap();
    sys.define_rule(
        RuleBuilder::new("audit")
            .on(ev)
            .coupling(CouplingMode::Deferred)
            .when(|ctx| Ok(ctx.arg(0).as_int()? >= 1_000))
            .then(|_| Ok(())),
    )
    .unwrap();
    let anomaly_sig = sys.define_signal("anomaly").unwrap();
    {
        let sys2 = Arc::downgrade(sys);
        sys.define_rule(
            RuleBuilder::new("signal-bridge")
                .on(ev)
                .coupling(CouplingMode::Immediate)
                .when(|ctx| Ok(ctx.arg(0).as_int()? >= 1_000))
                .then(move |ctx| {
                    if let Some(sys) = sys2.upgrade() {
                        sys.raise_signal_for(Some(ctx.txn), "anomaly", ctx.receiver(), vec![])?;
                    }
                    Ok(())
                }),
        )
        .unwrap();
    }
    let storm = sys
        .define_composite_correlated(
            "sensor-storm",
            EventExpr::History {
                expr: Arc::new(EventExpr::Primitive(anomaly_sig)),
                count: 3,
            },
            CompositionScope::CrossTransaction,
            Lifespan::Interval(Duration::from_secs(3600)),
            ConsumptionPolicy::Cumulative,
            Correlation::SameReceiver,
        )
        .unwrap();
    sys.define_rule(
        RuleBuilder::new("storm-alarm")
            .on(storm)
            .coupling(CouplingMode::Detached)
            .then(|_| Ok(())),
    )
    .unwrap();

    let stream = sensor_stream(42, SENSORS, events, 10);
    let start = Instant::now();
    for batch in stream.chunks(100) {
        let t = w.db.begin().unwrap();
        for r in batch {
            w.db.invoke(t, w.sensors[r.sensor], "report", &[Value::Int(r.value)])
                .unwrap();
        }
        w.db.commit(t).unwrap();
    }
    w.sys.wait_quiescent();
    let elapsed = start.elapsed();
    (w, elapsed)
}

fn main() {
    let events: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("events must be a usize"))
        .unwrap_or(DEFAULT_EVENTS);

    println!("E15 — observability overhead and report ({SENSORS} sensors, {events} events)");

    let (_off, t_off) = run_workload(events, false);
    println!(
        "registry OFF: {t_off:?}  ({:.0} events/s)",
        events as f64 / t_off.as_secs_f64()
    );

    let (on, t_on) = run_workload(events, true);
    println!(
        "registry ON:  {t_on:?}  ({:.0} events/s)",
        events as f64 / t_on.as_secs_f64()
    );
    let overhead = (t_on.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0;
    println!("enabling the registry cost {overhead:+.1}% wall clock\n");

    let snap = on.sys.metrics_snapshot();
    print!("{}", snap.render());

    // Every stage of the firing path must have been exercised.
    for st in snap.stages.iter() {
        assert!(
            st.count > 0,
            "stage {:?} recorded nothing — the workload missed part of the firing path",
            st.stage.name()
        );
    }
    assert!(snap.txn_commits > 0, "no commits recorded");
    assert!(snap.wal_forces > 0, "no WAL forces recorded");
    assert!(
        snap.sentry_useful.iter().sum::<u64>() > 0,
        "no sentry detections recorded"
    );
    assert!(snap.composites_completed > 0, "no composites completed");
    assert!(snap.immediate_runs > 0, "no immediate firings");
    // The span rings are bounded: a 50k-event run must have truncated.
    let sentry = snap
        .stages
        .iter()
        .find(|s| s.stage == Stage::Sentry)
        .unwrap();
    assert!(
        sentry.recent.len() <= reach_common::obs::SPAN_RING_CAPACITY,
        "span ring exceeded its bound"
    );
    println!("\nall firing-path stages recorded nonzero traversals");
}
