//! `--seed` is the only source of randomness: the same seed gives the
//! same operation streams and, on the single-driver `monitor_embedded`,
//! the same exact counts; another seed gives other streams.

use reach_benchmark::gen::{self, Rng};
use reach_benchmark::{catalog, monitor, RunCfg};

fn streams(seed: u64) -> String {
    let mut out = String::new();
    out += &format!("{:?}", monitor::pass_readings(seed, 1, 5));
    for client in 0..2 {
        let mut rng = Rng::stream(seed, client as u64);
        out += &format!("{:?}", gen::oltp_txns(&mut rng, client, 2, 1_000, 1, 50));
    }
    let mut rng = Rng::stream(seed, 7);
    for _ in 0..20 {
        out += &format!("{:?}", gen::reader_txn(&mut rng, 1_000, 100));
        out += &format!("{:?}", gen::writer_txn(&mut rng, 1_000, 100));
    }
    out += &format!(
        "{:?}",
        gen::transfers(&mut Rng::stream(seed, 9), 1, 64, 0, 100)
    );
    out
}

#[test]
fn same_seed_same_streams_other_seed_other_streams() {
    assert_eq!(streams(42), streams(42));
    assert_ne!(streams(42), streams(43));
}

#[test]
fn generated_transactions_never_deadlock_and_never_collide() {
    for client in 0..2 {
        let txns = gen::oltp_txns(&mut Rng::stream(5, client as u64), client, 2, 1_000, 1, 500);
        let mut written = std::collections::HashSet::new();
        for t in &txns {
            let keys: Vec<usize> = t
                .ops
                .iter()
                .map(|op| match *op {
                    gen::Op::Get(k) | gen::Op::Set(k, _) => k,
                })
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "locks in one global order: {keys:?}"
            );
            for op in &t.ops {
                if let gen::Op::Set(k, v) = *op {
                    assert!(!t.read_only);
                    assert_eq!(k % 2, client, "a client writes only its own keys");
                    assert!(written.insert(v), "written values are unique");
                }
            }
        }
        let ro = txns.iter().filter(|t| t.read_only).count();
        assert!(
            (50..150).contains(&ro),
            "about 20 % read-only, got {ro} of 500"
        );
    }
}

#[test]
fn monitor_embedded_exact_counts_repeat_for_a_seed() {
    let out = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let cfg = |seed| RunCfg {
        seed,
        seconds: 0.3,
        trace: true,
        smoke: true,
        out: out.clone(),
    };
    let a = monitor::run(&cfg(11));
    let b = monitor::run(&cfg(11));
    let c = monitor::run(&cfg(12));
    assert!(
        a.correct() && b.correct() && c.correct(),
        "{:?}",
        a.problems
    );
    let exact = |o: &reach_benchmark::Outcome| -> Vec<(&'static str, f64)> {
        catalog::EXACT
            .iter()
            .filter_map(|name| o.metrics.get_key_value(name).map(|(k, v)| (*k, *v)))
            .collect()
    };
    assert!(
        exact(&a).len() >= 6,
        "the exact counts are reported: {:?}",
        exact(&a)
    );
    assert_eq!(exact(&a), exact(&b), "same seed, same counts");
    assert_ne!(
        exact(&a),
        exact(&c),
        "another seed, another stream, other counts"
    );
}
