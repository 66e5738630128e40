//! Deterministic workload generator for the experiment harness.
//!
//! Experiments must be repeatable, so the generator takes an explicit
//! seed. The stream models the paper's motivating domain: sensor
//! telemetry (power plants, §6.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Which sensor (index into the world's sensor vector).
    pub sensor: usize,
    /// The reported value.
    pub value: i64,
    /// Whether the generator intends this reading to be anomalous
    /// (useful for asserting rule selectivity).
    pub anomalous: bool,
}

/// A reproducible stream of sensor readings where roughly
/// `anomaly_pct` percent exceed the anomaly threshold.
pub fn sensor_stream(seed: u64, sensors: usize, len: usize, anomaly_pct: u32) -> Vec<Reading> {
    assert!(sensors > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let sensor = rng.gen_range(0..sensors);
            let anomalous = rng.gen_range(0u32..100) < anomaly_pct;
            let value = if anomalous {
                rng.gen_range(1_000..2_000)
            } else {
                rng.gen_range(0..100)
            };
            Reading {
                sensor,
                value,
                anomalous,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_stream_is_deterministic_and_calibrated() {
        let a = sensor_stream(42, 4, 10_000, 10);
        let b = sensor_stream(42, 4, 10_000, 10);
        assert_eq!(a, b, "same seed, same stream");
        let anomalies = a.iter().filter(|r| r.anomalous).count();
        assert!(
            (800..1200).contains(&anomalies),
            "≈10% anomalies, got {anomalies}"
        );
        assert!(a.iter().all(|r| r.sensor < 4));
        assert!(
            a.iter().all(|r| r.anomalous == (r.value >= 1_000)),
            "threshold consistent"
        );
    }
}
