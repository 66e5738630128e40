//! Every workload and metric by name, with its unit. `/BENCHMARK.json`
//! must list exactly these (a test compares them). README.md defines
//! each one and says which end-to-end metric it should move.

/// The four workloads. Later issues cite these names.
pub const WORKLOADS: &[&str] = &["monitor_embedded", "oltp_wire", "query_mixed", "dist_2pc"];

/// End-to-end metrics: reported by every workload on an untraced run,
/// each with a regression bound in `/BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("req_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: reported by every workload on a traced run; a
/// metric whose layer the workload bypasses reads 0 there. Counts
/// marked `#` in README.md repeat exactly for a given seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What a user sees, but without a bound: tails too unsteady on the
    // sandbox to gate on, and metrics only some workloads have.
    ("txn_p99_us", "us"),
    ("req_p99_us", "us"),
    ("events_per_s", "1/s"),
    ("read_per_s", "1/s"),
    ("react_p50_us", "us"),
    ("react_p99_us", "us"),
    ("recovery_s", "s"),
    // server: wire + session.
    ("server.ping_rtt_us", "us"),
    ("server.wire_codec_ns", "ns"),
    ("server.begin_us", "us"),
    ("server.get_us", "us"),
    ("server.set_us", "us"),
    ("server.commit_us", "us"),
    ("server.peel_us", "us"),
    ("server.bytes_per_txn", "B"),
    // object + oodb sentry + core: the firing pipeline.
    ("object.dispatch_ns", "ns"),
    ("oodb.sentry_ns", "ns"),
    ("core.detect_ns", "ns"),
    ("core.immediate_us", "us"),
    ("core.immediate_write_us", "us"),
    ("core.deferred_us", "us"),
    ("core.compose_us", "us"),
    ("core.detached_spawn_us", "us"),
    ("core.immediate_runs", "count"),
    ("core.deferred_runs", "count"),
    ("core.detached_runs", "count"),
    ("core.composites_completed", "count"),
    ("core.instances_peak", "count"),
    // oodb: attribute access, query and index policy managers.
    ("oodb.get_attr_ns", "ns"),
    ("oodb.set_attr_ns", "ns"),
    ("oodb.peel_us", "us"),
    ("oodb.query_eq_us", "us"),
    ("oodb.query_range_us", "us"),
    ("oodb.index_update_us", "us"),
    // txn: 2PL + MVCC.
    ("txn.begin_commit_us", "us"),
    ("txn.lock_acquisitions_per_txn", "count"),
    ("txn.lock_waits", "count"),
    ("txn.lock_wait_us", "us"),
    ("txn.snapshot_read_ns", "ns"),
    ("txn.reader_lock_grants", "count"),
    ("txn.versions_published", "count"),
    ("txn.versions_reclaimed", "count"),
    // storage: WAL, buffer pool, B-link tree, recovery.
    ("storage.wal_force_us", "us"),
    ("storage.wal_force_p99_us", "us"),
    ("storage.forces_per_commit", "ratio"),
    ("storage.wal_bytes_per_txn", "B"),
    ("storage.peel_us", "us"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.pool_evictions", "count"),
    ("storage.btree_lookup_us", "us"),
    ("storage.btree_insert_us", "us"),
    ("storage.index_node_writes_per_update", "ratio"),
    ("storage.recovery_records_scanned", "count"),
    ("storage.db_bytes_per_object", "B"),
    // dist: router, 2PC coordinator, cross-shard compositor.
    ("dist.route_ns", "ns"),
    ("dist.prepare_us", "us"),
    ("dist.decide_us", "us"),
    ("dist.coord_commit_us", "us"),
    ("dist.local_txn_p50_us", "us"),
    ("dist.forces_per_xshard_commit", "ratio"),
    // rulelang.
    ("rulelang.compile_us", "us"),
    // Health of the benchmark itself.
    ("load.late_share", "ratio"),
    ("load.gen_ns_per_op", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Workloads with one driver thread: given the seed, the work they do
/// is the same to the last operation.
pub const SINGLE_DRIVER: &[&str] = &["monitor_embedded", "dist_2pc"];

/// Counts (marked `#` in README.md) that repeat bit for bit for a
/// given seed and `--seconds` on the single-driver workloads.
pub const EXACT: &[&str] = &[
    "core.immediate_runs",
    "core.deferred_runs",
    "core.detached_runs",
    "core.composites_completed",
    "txn.lock_acquisitions_per_txn",
    "txn.reader_lock_grants",
    "txn.versions_published",
    "storage.wal_bytes_per_txn",
    "dist.forces_per_xshard_commit",
];
