//! Seeded input generators. `--seed` is the only source of randomness:
//! the same seed yields the same operation streams, bit for bit. The
//! generator is the benchmark's own (not `reach_common::SplitMix64`) so
//! that a change to the repository cannot change the inputs.

/// SplitMix64: tiny, fast, good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`: per-thread and
    /// per-pass generators must not share state.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, `n > 0`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `pct` percent.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }
}

// ---------------------------------------------------------------------
// monitor_embedded
// ---------------------------------------------------------------------

/// Readings at or above this value are anomalies.
pub const ANOMALY_THRESHOLD: i64 = 1_000;

/// One sensor reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    pub sensor: usize,
    pub value: i64,
}

impl Reading {
    pub fn anomalous(&self) -> bool {
        self.value >= ANOMALY_THRESHOLD
    }
}

/// `len` readings over `sensors` sensors, 10 % of them anomalous.
pub fn readings(rng: &mut Rng, sensors: usize, len: usize) -> Vec<Reading> {
    (0..len)
        .map(|_| {
            let sensor = rng.below(sensors);
            let value = if rng.pct(10) {
                ANOMALY_THRESHOLD + rng.below(1_000) as i64
            } else {
                rng.below(100) as i64
            };
            Reading { sensor, value }
        })
        .collect()
}

// ---------------------------------------------------------------------
// oltp_wire
// ---------------------------------------------------------------------

/// One operation of an OLTP transaction; keys index the object table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(usize),
    Set(usize, i64),
}

/// One OLTP transaction: 2 gets + 2 sets, or 4 gets in a read-only
/// snapshot. Operations are sorted by key so locks are always taken in
/// one global order — two clients can wait for each other but never
/// deadlock, and no operation of the workload ever fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OltpTxn {
    pub read_only: bool,
    pub ops: [Op; 4],
}

/// `len` transactions for `client` of `clients`. Reads are uniform over
/// all `objects`; writes go to keys `≡ client (mod clients)`, so the
/// last acknowledged value of every key is known exactly. Written
/// values are unique per (client, transaction, slot).
pub fn oltp_txns(
    rng: &mut Rng,
    client: usize,
    clients: usize,
    objects: usize,
    first_value: i64,
    len: usize,
) -> Vec<OltpTxn> {
    let own = objects / clients;
    (0..len)
        .map(|i| {
            let read_only = rng.pct(20);
            let mut keys: Vec<(usize, bool)> = Vec::with_capacity(4);
            while keys.len() < 4 {
                let write = !read_only && keys.len() >= 2;
                let key = if write {
                    rng.below(own) * clients + client
                } else {
                    rng.below(objects)
                };
                if keys.iter().all(|(k, _)| *k != key) {
                    keys.push((key, write));
                }
            }
            keys.sort_unstable();
            let mut ops = [Op::Get(0); 4];
            for (slot, (key, write)) in keys.into_iter().enumerate() {
                ops[slot] = if write {
                    Op::Set(key, first_value + (i * 4 + slot) as i64)
                } else {
                    Op::Get(key)
                };
            }
            OltpTxn { read_only, ops }
        })
        .collect()
}

// ---------------------------------------------------------------------
// query_mixed
// ---------------------------------------------------------------------

/// Rows a range query returns.
pub const RANGE_ROWS: usize = 50;

/// One query of a reader transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `k == key`: the static unique attribute, exactly one row.
    EqK(usize),
    /// `g == group`: the attribute the writer keeps changing.
    EqG(usize),
    /// `k >= lo and k < lo + RANGE_ROWS`.
    RangeK(usize),
}

/// One reader transaction: 8 equality queries (alternating `k` and
/// `g`) then one fifty-row range.
pub fn reader_txn(rng: &mut Rng, objects: usize, groups: usize) -> [Query; 9] {
    let mut qs = [Query::EqK(0); 9];
    for (i, q) in qs.iter_mut().enumerate().take(8) {
        *q = if i % 2 == 0 {
            Query::EqK(rng.below(objects))
        } else {
            Query::EqG(rng.below(groups))
        };
    }
    qs[8] = Query::RangeK(rng.below(objects - RANGE_ROWS));
    qs
}

/// One writer transaction: four objects get a new `g` each.
pub fn writer_txn(rng: &mut Rng, objects: usize, groups: usize) -> [(usize, usize); 4] {
    let mut out = [(0, 0); 4];
    let mut n = 0;
    while n < 4 {
        let obj = rng.below(objects);
        if out[..n].iter().all(|(o, _)| *o != obj) {
            out[n] = (obj, rng.below(groups));
            n += 1;
        }
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------
// dist_2pc
// ---------------------------------------------------------------------

/// One transfer: debit `from`, credit `to` (indexes into per-shard
/// account tables), by `amount`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: (u32, usize),
    pub to: (u32, usize),
    pub amount: i64,
}

impl Transfer {
    pub fn cross_shard(&self) -> bool {
        self.from.0 != self.to.0
    }
}

/// `len` transfers over two shards of `per_shard` accounts, numbered
/// from `first`: even-numbered ones stay on one shard, odd-numbered
/// ones cross. Every credit lands on `credit_shard` (see `dist.rs` for
/// why the direction is fixed).
pub fn transfers(
    rng: &mut Rng,
    credit_shard: u32,
    per_shard: usize,
    first: usize,
    len: usize,
) -> Vec<Transfer> {
    (first..first + len)
        .map(|i| {
            let b = rng.below(per_shard);
            let from = if i % 2 == 0 {
                (credit_shard, (b + 1 + rng.below(per_shard - 1)) % per_shard)
            } else {
                (1 - credit_shard, rng.below(per_shard))
            };
            Transfer {
                from,
                to: (credit_shard, b),
                amount: 1 + rng.below(100) as i64,
            }
        })
        .collect()
}
