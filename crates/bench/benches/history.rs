//! Criterion bench for E12: distributed per-manager event histories vs
//! one centrally locked log, under thread contention (§6.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reach_common::{EventTypeId, TimePoint, Timestamp, TxnId};
use reach_core::event::{EventData, EventOccurrence};
use reach_core::history::{GlobalHistory, LocalHistory};
use std::sync::Arc;

const PER_THREAD: u64 = 5_000;

fn occ(ty: u64, seq: u64) -> Arc<EventOccurrence> {
    Arc::new(EventOccurrence {
        event_type: EventTypeId::new(ty),
        seq: Timestamp::new(seq),
        at: TimePoint::ZERO,
        txn: Some(TxnId::new(1)),
        top_txn: Some(TxnId::new(1)),
        data: EventData::default(),
        constituents: Vec::new(),
    })
}

fn bench_history(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_history");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(PER_THREAD * 4));
    for &threads in &[1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("distributed_local", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let hs: Vec<Arc<LocalHistory>> = (0..threads)
                        .map(|_| Arc::new(LocalHistory::new(1 << 16)))
                        .collect();
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let h = Arc::clone(&hs[t]);
                            std::thread::spawn(move || {
                                for i in 0..PER_THREAD {
                                    h.record(&[occ(t as u64, i)]);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("central_log", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let global = Arc::new(GlobalHistory::new(1 << 18));
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let g = Arc::clone(&global);
                            std::thread::spawn(move || {
                                for i in 0..PER_THREAD {
                                    g.absorb(vec![occ(t as u64, i)]);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_history);
criterion_main!(benches);
