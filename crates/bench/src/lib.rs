//! `reach-bench` — shared workload builders for the experiment
//! regenerators (`src/bin/*`).
//!
//! Every table and figure of the paper has a regenerator binary; see
//! DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded results.

pub mod workload;

use open_oodb::Database;
use reach_common::{ClassId, ObjectId, Result};
use reach_core::{ReachConfig, ReachSystem};
use reach_object::{Value, ValueType};
use std::sync::Arc;

/// A standard benchmark world: a `Sensor` class with a cheap `report`
/// method, `n` persistent instances.
pub struct SensorWorld {
    pub db: Arc<Database>,
    pub sys: Arc<ReachSystem>,
    pub class: ClassId,
    pub sensors: Vec<ObjectId>,
}

/// Build the world. `config` selects composition/execution modes.
pub fn sensor_world(n: usize, config: ReachConfig) -> Result<SensorWorld> {
    let db = Database::in_memory()?;
    let (b, report) = db
        .define_class("Sensor")
        .attr("value", ValueType::Int, Value::Int(0))
        .attr("alarms", ValueType::Int, Value::Int(0))
        .virtual_method("report");
    let (b, noop) = b.virtual_method("noop");
    let class = b.define()?;
    db.methods().register_fn(report, |ctx| {
        ctx.set("value", ctx.arg(0))?;
        Ok(Value::Null)
    });
    db.methods().register_fn(noop, |_| Ok(Value::Null));
    let sys = ReachSystem::new(Arc::clone(&db), config);
    let t = db.begin()?;
    let mut sensors = Vec::with_capacity(n);
    for _ in 0..n {
        let oid = db.create(t, class)?;
        db.persist(t, oid)?;
        sensors.push(oid);
    }
    db.commit(t)?;
    Ok(SensorWorld {
        db,
        sys,
        class,
        sensors,
    })
}

/// Burn CPU for roughly `micros` microseconds (simulated rule action
/// cost — spinning, not sleeping, so serial-vs-parallel comparisons
/// reflect real CPU contention).
#[inline]
pub fn busy_work(micros: u64) {
    let start = std::time::Instant::now();
    let target = std::time::Duration::from_micros(micros);
    let mut x = 0u64;
    while start.elapsed() < target {
        for _ in 0..64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        std::hint::black_box(x);
    }
}

/// Format nanoseconds-per-op human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else if ns >= 1_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Time `f` over `iters` iterations, returning ns/op.
pub fn time_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The `p`-quantile (0.0–1.0) of an ascending-sorted sample by
/// nearest rank; the type's zero for an empty sample.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_reports() {
        let w = sensor_world(4, ReachConfig::default()).unwrap();
        let t = w.db.begin().unwrap();
        w.db.invoke(t, w.sensors[0], "report", &[Value::Int(9)])
            .unwrap();
        assert_eq!(
            w.db.get_attr(t, w.sensors[0], "value").unwrap(),
            Value::Int(9)
        );
        w.db.commit(t).unwrap();
    }

    #[test]
    fn busy_work_takes_roughly_that_long() {
        let start = std::time::Instant::now();
        busy_work(2000);
        assert!(start.elapsed() >= std::time::Duration::from_micros(2000));
    }
}
