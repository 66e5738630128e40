//! The threaded TCP server: admission control, per-session transaction
//! ownership, deadlines, bounded write queues, idle reaping, graceful
//! shutdown, and push notifications.
//!
//! Robustness policies (DESIGN.md §10):
//!
//! * **Admission** — the session table is bounded. A connection that
//!   arrives with the table full gets an explicit `Overloaded` error
//!   frame and is closed; it is never silently queued.
//! * **Deadlines** — each request carries a `deadline_ms` budget. An
//!   expired deadline is rejected before touching the engine, and a
//!   live one is propagated into the transaction manager so lock waits
//!   give up in time.
//! * **Write path** — the connection thread writes each response to the
//!   socket itself; only frames produced on other threads (push
//!   notifications, and responses that must wait behind them) go
//!   through a bounded queue and the session's writer thread. All writes
//!   take the session's one write lock, so frames never interleave and
//!   leave in the order they were produced. A consumer that stops
//!   reading is disconnected (slow-consumer policy) when a write outlasts
//!   the write timeout or its queue fills, rather than allowed to wedge
//!   a thread or server memory.
//! * **Idle reaping** — sessions idle past the configured timeout are
//!   disconnected and their open transactions aborted, so an orphaned
//!   client can never pin locks forever.
//! * **Shutdown** — in-flight requests finish, then every remaining
//!   session transaction is aborted and connections are closed.
//! * **Panic isolation** — request handlers run under `catch_unwind`;
//!   a panic is counted, answered with an error, and the connection is
//!   dropped, so one poisoned request cannot take the server down.

use crate::transport::{TcpTransport, Transport};
use crate::wire::{Notification, Request, Response, WireDeadLetter, MAX_FRAME, PROTOCOL_VERSION};
use open_oodb::Database;
use reach_common::sync::Mutex;
use reach_common::{FastMap, FastSet, ReachError, Result, TxnId};
use reach_core::{DeadLetter, ReachSystem};
use reach_object::Value;
use std::io::{ErrorKind, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Admission bound: maximum concurrent sessions.
    pub max_sessions: usize,
    /// Bounded per-connection write queue (frames): push notifications,
    /// and the responses queued behind them to keep frame order. A
    /// session whose queue is full when a frame arrives is disconnected
    /// as a slow consumer. Responses with nothing queued ahead of them
    /// bypass it and are written by the connection thread.
    pub write_queue: usize,
    /// Sessions idle longer than this are reaped.
    pub idle_timeout: Duration,
    /// How long `shutdown` waits for sessions to drain before forcing
    /// connections closed.
    pub drain_timeout: Duration,
    /// Read-timeout tick of connection threads: the latency bound on
    /// noticing shutdown/reap while blocked in a read.
    pub read_tick: Duration,
    /// Reaper thread wake interval.
    pub reap_interval: Duration,
    /// Which shard of a sharded deployment this server fronts
    /// (0 for a single-node deployment).
    pub shard_id: u32,
    /// Total shard count of the deployment (1 = unsharded). `ShardOf`
    /// answers with `shard_of(oid, shards)` so clients can route
    /// requests to the owning shard.
    pub shards: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 64,
            write_queue: 64,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            read_tick: Duration::from_millis(50),
            reap_interval: Duration::from_millis(100),
            shard_id: 0,
            shards: 1,
        }
    }
}

/// How long one frame write may block before the peer is taken for a
/// slow consumer and disconnected.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One admitted connection.
struct Session {
    id: u64,
    /// Clone of the connection's stream, used to force it closed from
    /// the reaper or shutdown (the reader wakes with an error).
    stream: TcpStream,
    /// The session's one write path to the socket.
    out: Arc<Outbox>,
    /// Bounded queue of whole frames drained by the writer thread.
    sender: SyncSender<Vec<u8>>,
    /// Cleared when the session is retired; the connection thread then
    /// stops serving it.
    live: AtomicBool,
    /// Transactions this session owns. Anything still here when the
    /// session ends is aborted.
    txns: Mutex<FastSet<TxnId>>,
    last_active: Mutex<Instant>,
    sub_firings: AtomicBool,
    sub_dead_letters: AtomicBool,
}

/// Every frame reaches the socket under `stream`'s lock, so frames
/// never interleave. `queued` counts frames handed to the writer thread
/// and not yet written: a response skips the queue only when it is 0,
/// so frames leave in the order they were produced.
struct Outbox {
    stream: Mutex<TcpStream>,
    queued: AtomicUsize,
}

impl Session {
    fn touch(&self) {
        *self.last_active.lock() = Instant::now();
    }

    fn force_close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Hand a whole frame to the writer thread, counted as queued until
    /// the writer has written it.
    fn queue(&self, frame: Vec<u8>) -> std::result::Result<(), TrySendError<Vec<u8>>> {
        self.out.queued.fetch_add(1, Ordering::SeqCst);
        self.sender.try_send(frame).inspect_err(|_| {
            self.out.queued.fetch_sub(1, Ordering::SeqCst);
        })
    }
}

/// State shared by every server thread.
struct Shared {
    sys: Arc<ReachSystem>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    next_session: AtomicU64,
    sessions: Mutex<FastMap<u64, Arc<Session>>>,
    /// Sessions removed from the table whose cleanup (orphan aborts,
    /// socket close) has not finished yet. Shutdown waits for this too:
    /// an empty table alone does not mean the aborts have run.
    retiring: AtomicUsize,
}

impl Shared {
    fn metrics(&self) -> &reach_common::MetricsRegistry {
        self.sys.metrics()
    }

    /// Abort every transaction `session` still owns (disconnect, reap
    /// or shutdown path) — the mechanism behind the all-or-none
    /// guarantee for clients that never saw a commit ack.
    fn abort_orphans(&self, session: &Session) {
        let txns: Vec<TxnId> = session.txns.lock().drain().collect();
        let db = self.sys.db();
        for t in txns {
            if db.abort(t).is_ok() {
                self.metrics().server.orphan_aborts.inc();
            }
        }
    }

    /// Remove `session` from the table and clean it up. Idempotent:
    /// only the caller that actually removes it runs the cleanup.
    fn retire(&self, session: &Arc<Session>) {
        let removed = {
            let mut sessions = self.sessions.lock();
            let removed = sessions.remove(&session.id).is_some();
            if removed {
                session.live.store(false, Ordering::SeqCst);
                self.retiring.fetch_add(1, Ordering::SeqCst);
            }
            removed
        };
        if removed {
            self.abort_orphans(session);
            session.force_close();
            self.metrics().server.sessions_closed.inc();
            self.retiring.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// No session is live or still being cleaned up. The table is read
    /// first: `retire` counts a session as retiring under the table
    /// lock, before its removal can be seen.
    fn drained(&self) -> bool {
        self.sessions.lock().is_empty() && self.retiring.load(Ordering::SeqCst) == 0
    }

    /// Queue a notification frame to every subscribed session; a full
    /// queue disconnects the subscriber (slow-consumer policy).
    fn fan_out(&self, frame: &[u8], want: impl Fn(&Session) -> bool) {
        let targets: Vec<Arc<Session>> = {
            let sessions = self.sessions.lock();
            sessions.values().filter(|s| want(s)).cloned().collect()
        };
        for s in targets {
            match s.queue(frame.to_vec()) {
                Ok(()) => {
                    self.metrics().server.notifications_sent.inc();
                }
                Err(TrySendError::Full(_)) => {
                    self.metrics().server.slow_consumer_disconnects.inc();
                    self.retire(&s);
                }
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }
}

fn dead_letter_to_wire(d: &DeadLetter) -> WireDeadLetter {
    WireDeadLetter {
        rule: d.rule,
        rule_name: d.rule_name.clone(),
        code: d.error.wire_code(),
        message: d.error.to_string(),
        attempts: d.attempts,
        shard: d.shard,
        origin_txn: d.origin.map(|t| t.raw()).unwrap_or(0),
    }
}

/// A running server. Dropping the handle shuts it down (see
/// [`ServerHandle::shutdown`]): its threads hold the system, so a server
/// left running would keep a dropped world alive.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    reaper: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` used port 0).
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.lock().len()
    }

    /// Graceful shutdown: stop admitting, let in-flight requests
    /// finish, abort every remaining session transaction, close all
    /// connections, and join the server threads. Only the first call
    /// does anything.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.lock().take() {
            let _ = h.join();
        }
        // Drain: connection threads notice the flag within one read
        // tick, finish whatever request they are executing, and retire
        // their sessions (aborting owned transactions).
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        while Instant::now() < deadline && !self.shared.drained() {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Whatever is left gets its socket pulled; the reader wakes
        // with an error and retires the session the same way.
        let leftovers: Vec<Arc<Session>> = self.shared.sessions.lock().values().cloned().collect();
        for s in leftovers {
            s.force_close();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        while Instant::now() < deadline && !self.shared.drained() {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(h) = self.reaper.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and serve `sys` on `cfg.addr` in background threads.
///
/// Registers a firing listener on the engine so subscribed sessions
/// receive [`Notification::RuleFired`] pushes; bind one server per
/// [`ReachSystem`].
pub fn serve(sys: Arc<ReachSystem>, cfg: ServerConfig) -> Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        sys,
        cfg,
        shutdown: AtomicBool::new(false),
        next_session: AtomicU64::new(1),
        sessions: Mutex::new(FastMap::default()),
        retiring: AtomicUsize::new(0),
    });

    // Rule-firing pushes: encode once per firing, fan out to
    // subscribers. Registered for the lifetime of the system.
    {
        let shared = Arc::downgrade(&shared);
        let sys = {
            let strong = shared.upgrade().expect("shared just created");
            Arc::clone(&strong.sys)
        };
        sys.add_firing_listener(Box::new(move |notice| {
            let Some(shared) = shared.upgrade() else {
                return;
            };
            let frame = Response::Notification(Notification::RuleFired {
                rule: notice.rule,
                rule_name: notice.rule_name.clone(),
                event_type: notice.event_type.raw(),
            })
            .frame(0);
            shared.fan_out(&frame, |s| s.sub_firings.load(Ordering::Relaxed));
        }));
    }

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("reach-accept".into())
            .spawn(move || accept_loop(listener, shared))
            .map_err(|e| ReachError::Io(format!("spawn accept thread: {e}")))?
    };
    let reaper = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("reach-reaper".into())
            .spawn(move || reaper_loop(shared))
            .map_err(|e| ReachError::Io(format!("spawn reaper thread: {e}")))?
    };

    Ok(ServerHandle {
        shared,
        addr,
        accept: Mutex::new(Some(accept)),
        reaper: Mutex::new(Some(reaper)),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        admit(stream, &shared);
    }
}

/// Admission control: reserve a session slot or reject explicitly.
fn admit(stream: TcpStream, shared: &Arc<Shared>) {
    let metrics = shared.metrics();
    // Reserve under the table lock so the bound is exact.
    let session = {
        let mut sessions = shared.sessions.lock();
        if sessions.len() >= shared.cfg.max_sessions {
            drop(sessions);
            metrics.server.admissions_rejected.inc();
            // The client's first request on a fresh connection is
            // always Hello with request id 1, so the rejection frame
            // answers it directly before the socket closes.
            let frame = Response::error(&ReachError::Overloaded(format!(
                "session table full ({} sessions)",
                shared.cfg.max_sessions
            )))
            .frame(1);
            let mut s = stream;
            let _ = s.write_all(&frame);
            let _ = s.shutdown(Shutdown::Both);
            return;
        }
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(shared.cfg.write_queue);
        // The timeout is the socket's, so it bounds every clone's writes.
        let (Ok(()), Ok(closer), Ok(writer)) = (
            stream.set_write_timeout(Some(WRITE_TIMEOUT)),
            stream.try_clone(),
            stream.try_clone(),
        ) else {
            return;
        };
        let session = Arc::new(Session {
            id,
            stream: closer,
            out: Arc::new(Outbox {
                stream: Mutex::new(writer),
                queued: AtomicUsize::new(0),
            }),
            sender: tx,
            live: AtomicBool::new(true),
            txns: Mutex::new(FastSet::default()),
            last_active: Mutex::new(Instant::now()),
            sub_firings: AtomicBool::new(false),
            sub_dead_letters: AtomicBool::new(false),
        });
        sessions.insert(id, Arc::clone(&session));
        metrics.server.sessions_opened.inc();
        spawn_writer(shared, &session, rx);
        session
    };
    let session_id = session.id;
    let spawned = {
        let shared = Arc::clone(shared);
        let session = Arc::clone(&session);
        std::thread::Builder::new()
            .name(format!("reach-conn-{session_id}"))
            .spawn(move || {
                connection_loop(stream, &session, &shared);
                shared.retire(&session);
            })
    };
    if spawned.is_err() {
        // Could not spawn: undo the reservation.
        if let Some(s) = shared.sessions.lock().remove(&session_id) {
            s.force_close();
            metrics.server.sessions_closed.inc();
        }
    }
}

/// The writer thread: drains the session's queue onto the socket.
fn spawn_writer(shared: &Arc<Shared>, session: &Session, rx: Receiver<Vec<u8>>) {
    // The outbox, not the session: the session owns the queue's sender,
    // so holding it here would keep `recv` waiting, and this thread
    // (with the whole system behind `shared`) alive, after the session
    // has ended.
    let out = Arc::clone(&session.out);
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name(format!("reach-write-{}", session.id))
        .spawn(move || {
            while let Ok(frame) = rx.recv() {
                let mut stream = out.stream.lock();
                let written = stream.write_all(&frame);
                out.queued.fetch_sub(1, Ordering::SeqCst);
                if written.is_err() {
                    // Writer death must wake the reader too.
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                shared
                    .metrics()
                    .server
                    .bytes_written
                    .add(frame.len() as u64);
            }
        });
}

fn reaper_loop(shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.cfg.reap_interval);
        // Idle sessions: disconnect; their reader thread aborts the
        // orphaned transactions on the way out.
        let now = Instant::now();
        let idle: Vec<Arc<Session>> = {
            let sessions = shared.sessions.lock();
            sessions
                .values()
                .filter(|s| now.duration_since(*s.last_active.lock()) > shared.cfg.idle_timeout)
                .cloned()
                .collect()
        };
        for s in idle {
            shared.metrics().server.idle_reaped.inc();
            shared.retire(&s);
        }
        // Dead-letter pump: only drain when someone is listening, so
        // the DrainDeadLetters RPC keeps working for pull-style use.
        let any_subscriber = shared
            .sessions
            .lock()
            .values()
            .any(|s| s.sub_dead_letters.load(Ordering::Relaxed));
        if any_subscriber {
            for d in shared.sys.take_dead_letters() {
                let frame =
                    Response::Notification(Notification::DeadLetter(dead_letter_to_wire(&d)))
                        .frame(0);
                shared.fan_out(&frame, |s| s.sub_dead_letters.load(Ordering::Relaxed));
            }
        }
    }
}

/// Read/execute/respond loop for one connection. Returns when the peer
/// goes away, a protocol violation or slow-consumer condition forces a
/// disconnect, or the server shuts down.
fn connection_loop(stream: TcpStream, session: &Arc<Session>, shared: &Arc<Shared>) {
    let metrics = shared.metrics();
    let Ok(mut transport) = TcpTransport::new(stream, Some(shared.cfg.read_tick)) else {
        return;
    };
    // The last frame on a dying connection; it takes the same write path
    // as every response.
    let last_word = |request_id: u64, e: &ReachError| {
        let _ = respond(shared, session, Response::error(e).frame(request_id));
    };
    let mut hello_done = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // The session may have been retired under us (slow-consumer or
        // idle reap); stop serving it.
        if !session.live.load(Ordering::SeqCst) {
            return;
        }
        let payload = match transport.read_frame() {
            Ok(p) => p,
            Err(ReachError::IoTransient(_)) => continue,
            Err(e @ ReachError::Protocol(_)) => {
                metrics.server.protocol_errors.inc();
                last_word(0, &e);
                return;
            }
            Err(_) => return,
        };
        metrics.server.bytes_read.add(payload.len() as u64 + 4);
        let t0 = Instant::now();
        let (request_id, deadline_ms, req) = match Request::decode(&payload) {
            Ok(x) => x,
            Err(e) => {
                metrics.server.protocol_errors.inc();
                last_word(0, &e);
                return;
            }
        };
        session.touch();
        let deadline = (deadline_ms > 0).then(|| t0 + Duration::from_millis(deadline_ms as u64));
        // Handshake gate: the first request must be Hello.
        if !hello_done {
            match req {
                Request::Hello { version } if version == PROTOCOL_VERSION => {
                    hello_done = true;
                    let resp = Response::HelloOk {
                        session: session.id,
                        max_frame: MAX_FRAME as u32,
                    };
                    if !respond(shared, session, resp.frame(request_id)) {
                        return;
                    }
                    metrics.server.requests.inc();
                    metrics
                        .server
                        .request_latency
                        .record(t0.elapsed().as_nanos() as u64);
                    continue;
                }
                Request::Hello { version } => {
                    metrics.server.protocol_errors.inc();
                    let e = ReachError::Protocol(format!(
                        "protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"
                    ));
                    last_word(request_id, &e);
                    return;
                }
                _ => {
                    metrics.server.protocol_errors.inc();
                    let e = ReachError::Protocol("first request must be Hello".into());
                    last_word(request_id, &e);
                    return;
                }
            }
        }
        // Execute under panic isolation.
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| execute(shared, session, req, deadline)));
        let frame = match result {
            Ok(Ok(resp)) => resp.frame(request_id),
            Ok(Err(e)) => {
                metrics.server.request_errors.inc();
                if matches!(e, ReachError::Protocol(_)) {
                    metrics.server.protocol_errors.inc();
                }
                Response::error(&e).frame(request_id)
            }
            Err(_) => {
                metrics.server.panics.inc();
                metrics.server.request_errors.inc();
                last_word(
                    request_id,
                    &ReachError::Io("internal panic while handling request".into()),
                );
                return;
            }
        };
        metrics.server.requests.inc();
        metrics
            .server
            .request_latency
            .record(t0.elapsed().as_nanos() as u64);
        if !respond(shared, session, frame) {
            return;
        }
    }
}

/// Send a response frame from the connection thread: straight to the
/// socket when no frame is queued ahead of it, else queued behind them.
/// False ends the session: the peer is gone, or it stopped reading — a
/// write that outlasts [`WRITE_TIMEOUT`] or a full queue — and is
/// disconnected as a slow consumer.
fn respond(shared: &Shared, session: &Session, frame: Vec<u8>) -> bool {
    let server = &shared.metrics().server;
    let mut stream = session.out.stream.lock();
    if session.out.queued.load(Ordering::SeqCst) > 0 {
        return match session.queue(frame) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                server.slow_consumer_disconnects.inc();
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        };
    }
    match stream.write_all(&frame) {
        Ok(()) => {
            server.bytes_written.add(frame.len() as u64);
            true
        }
        Err(e) => {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                server.slow_consumer_disconnects.inc();
            }
            false
        }
    }
}

/// Check session ownership of `t`.
fn owned(session: &Session, t: TxnId) -> Result<()> {
    if session.txns.lock().contains(&t) {
        Ok(())
    } else {
        Err(ReachError::TxnNotFound(t))
    }
}

/// Map a lock timeout to `DeadlineExceeded` when the request deadline
/// (not the manager's default patience) is what cut the wait short.
fn deadline_error(shared: &Shared, deadline: Option<Instant>, e: ReachError) -> ReachError {
    if matches!(e, ReachError::LockTimeout(_)) {
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                shared.metrics().server.deadline_rejections.inc();
                return ReachError::DeadlineExceeded;
            }
        }
    }
    e
}

/// Run one txn-scoped operation with the request deadline propagated
/// into the transaction manager's lock waits.
fn with_deadline<R>(
    shared: &Shared,
    t: TxnId,
    deadline: Option<Instant>,
    f: impl FnOnce(&Database) -> Result<R>,
) -> Result<R> {
    let db = shared.sys.db();
    let tm = db.txn_manager();
    if deadline.is_some() {
        tm.set_deadline(t, deadline);
    }
    let out = f(db);
    if deadline.is_some() {
        tm.set_deadline(t, None);
    }
    out.map_err(|e| deadline_error(shared, deadline, e))
}

fn execute(
    shared: &Arc<Shared>,
    session: &Arc<Session>,
    req: Request,
    deadline: Option<Instant>,
) -> Result<Response> {
    // An already-expired deadline never touches the engine.
    if let Some(dl) = deadline {
        if Instant::now() >= dl {
            shared.metrics().server.deadline_rejections.inc();
            return Err(ReachError::DeadlineExceeded);
        }
    }
    let db = shared.sys.db();
    match req {
        Request::Hello { .. } => Err(ReachError::Protocol("duplicate Hello".into())),
        Request::Begin => {
            let t = db.begin()?;
            session.txns.lock().insert(t);
            Ok(Response::Txn(t))
        }
        Request::BeginReadOnly => {
            let t = db.begin_read_only()?;
            session.txns.lock().insert(t);
            Ok(Response::Txn(t))
        }
        Request::Commit { txn } => {
            owned(session, txn)?;
            session.txns.lock().remove(&txn);
            with_deadline(shared, txn, deadline, |db| db.commit(txn)).inspect_err(|_| {
                // A failed commit must leave nothing behind; the txn
                // may already be gone, so the abort error is ignored.
                let _ = db.abort(txn);
            })?;
            Ok(Response::Ok)
        }
        Request::Abort { txn } => {
            owned(session, txn)?;
            session.txns.lock().remove(&txn);
            db.abort(txn)?;
            Ok(Response::Ok)
        }
        Request::Create {
            txn,
            class,
            overrides,
        } => {
            owned(session, txn)?;
            let class_id = db.schema().class_by_name(&class)?;
            let oid = with_deadline(shared, txn, deadline, |db| {
                if overrides.is_empty() {
                    db.create(txn, class_id)
                } else {
                    let pairs: Vec<(&str, Value)> = overrides
                        .iter()
                        .map(|(n, v)| (n.as_str(), v.clone()))
                        .collect();
                    db.create_with(txn, class_id, &pairs)
                }
            })?;
            Ok(Response::Oid(oid))
        }
        Request::Get { txn, oid, attr } => {
            owned(session, txn)?;
            let v = with_deadline(shared, txn, deadline, |db| db.get_attr(txn, oid, &attr))?;
            Ok(Response::Value(v))
        }
        Request::Set {
            txn,
            oid,
            attr,
            value,
        } => {
            owned(session, txn)?;
            with_deadline(shared, txn, deadline, |db| {
                db.set_attr(txn, oid, &attr, value)
            })?;
            Ok(Response::Ok)
        }
        Request::Invoke {
            txn,
            oid,
            method,
            args,
        } => {
            owned(session, txn)?;
            let v = with_deadline(shared, txn, deadline, |db| {
                db.invoke(txn, oid, &method, &args)
            })?;
            Ok(Response::Value(v))
        }
        Request::Persist { txn, oid } => {
            owned(session, txn)?;
            with_deadline(shared, txn, deadline, |db| db.persist(txn, oid))?;
            Ok(Response::Ok)
        }
        Request::PersistNamed { txn, name, oid } => {
            owned(session, txn)?;
            with_deadline(shared, txn, deadline, |db| {
                db.persist_named(txn, &name, oid)
            })?;
            Ok(Response::Ok)
        }
        Request::FetchRoot { name } => {
            let oid = db.fetch(&name)?;
            Ok(Response::Oid(oid))
        }
        Request::DefineRule { source } => {
            let def = reach_rulelang::parse_rule(&source)?;
            let rid = reach_rulelang::compile(&shared.sys, &def)?;
            Ok(Response::Rule(rid))
        }
        Request::DefineSignal { name } => {
            shared.sys.define_signal(&name)?;
            Ok(Response::Ok)
        }
        Request::RaiseSignal { txn, name, args } => {
            if let Some(t) = txn {
                owned(session, t)?;
                with_deadline(shared, t, deadline, |_| {
                    shared.sys.raise_signal(Some(t), &name, args)
                })?;
            } else {
                shared.sys.raise_signal(None, &name, args)?;
            }
            Ok(Response::Ok)
        }
        Request::Subscribe {
            firings,
            dead_letters,
        } => {
            session.sub_firings.store(firings, Ordering::Relaxed);
            session
                .sub_dead_letters
                .store(dead_letters, Ordering::Relaxed);
            Ok(Response::Ok)
        }
        Request::DrainDeadLetters => {
            let list = shared
                .sys
                .take_dead_letters()
                .iter()
                .map(dead_letter_to_wire)
                .collect();
            Ok(Response::DeadLetters(list))
        }
        Request::Ping => Ok(Response::Pong),
        Request::ShardOf { oid } => Ok(Response::Shard {
            shard: reach_common::shard_of(oid, shared.cfg.shards.max(1)),
            shards: shared.cfg.shards.max(1),
        }),
    }
}
