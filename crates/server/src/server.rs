//! The threaded query server: acceptor, per-connection reader threads,
//! a shared scheduler, and a worker pool feeding the engine.
//!
//! ## Scheduling model
//!
//! Every named session owns a bounded FIFO queue of submitted queries
//! and an in-flight counter. A single scheduler (`Mutex<Sched>` + two
//! condvars) round-robins *sessions*, not queries: a session appears in
//! the ready ring iff it has queued work and spare in-flight budget, so
//! one chatty session cannot starve the others, and a session's own
//! queries never exceed `inflight_cap` concurrent evaluations. Workers
//! pop a ready session, take its oldest query, and call the engine
//! *outside* the scheduler lock — the optimistic plan/fetch/apply seam
//! inside [`SharedIndex::evaluate`] is what lets adaptation writes from
//! one session interleave with reads from every other.
//!
//! ## Backpressure and shutdown
//!
//! Admission control is synchronous: a query arriving at a full session
//! queue is answered `Busy` immediately from the connection thread (the
//! scheduler never blocks on a client). `shutdown()` stops the
//! acceptor, flips the scheduler to draining (new queries get
//! `ShuttingDown`), waits until every queued and in-flight query has
//! been answered, then joins the workers — no submitted work is
//! dropped — and last shuts down every connection still open: a client
//! that went quiet cannot keep its reader thread, and through it the
//! engine and its file, alive past shutdown. A reply that cannot be
//! written within [`REPLY_WRITE_TIMEOUT`] — the peer stopped reading and
//! the socket buffers are full — is dropped and its connection closed,
//! so a client that never reads cannot pin a worker, nor the drain with
//! it.
//!
//! [`SharedIndex::evaluate`]: pai_core::SharedIndex::evaluate

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pai_common::{AggregateFunction, AtomicHistogram, LatencyHistogram, PaiError, Rect, Result};
use pai_core::{ApproxResult, SharedIndex};
use pai_storage::netio::{write_frame, ConnBuf};
use pai_storage::raw::{AppendReceipt, RawFile};

use crate::protocol::{Request, Response, PROTOCOL_VERSION};

/// How long writing one reply may take before the server gives up on the
/// connection: the reply is dropped (metered as `dropped_replies` when it
/// answers a query), the socket is shut down, and the connection's reader
/// thread exits. A write blocks only once the peer has stopped reading and
/// the socket buffers are full. A constant, not a [`ServerConfig`] field:
/// see docs/SERVER.md.
pub const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The evaluation seam the server drives: anything that can answer an
/// approximate window query from concurrent callers. Implemented for
/// [`SharedIndex`] over every `RawFile` backend; the indirection erases
/// the backend type so the server itself is non-generic.
pub trait ServeEngine: Send + Sync {
    /// Evaluates one approximate query (see [`SharedIndex::evaluate`]).
    fn evaluate(&self, window: &Rect, aggs: &[AggregateFunction], phi: f64)
        -> Result<ApproxResult>;

    /// Appends and indexes a batch of rows (see
    /// [`SharedIndex::ingest`](pai_core::SharedIndex::ingest)). The
    /// default refuses — a server over a sealed backend answers ingest
    /// frames with an `Error`, not a crash.
    fn ingest(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        let _ = rows;
        Err(PaiError::unsupported(
            "this server's backend is sealed (no ingest path)",
        ))
    }
}

impl<F: RawFile> ServeEngine for SharedIndex<F> {
    fn evaluate(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        SharedIndex::evaluate(self, window, aggs, phi)
    }

    fn ingest(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        SharedIndex::ingest(self, rows)
    }
}

/// Server sizing and admission-control knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating queries (≥ 1). One worker serializes
    /// all sessions (deterministic order); more workers let adaptation
    /// from different sessions overlap.
    pub workers: usize,
    /// Per-session queued-query bound (≥ 1). A query arriving at a full
    /// queue is rejected with `Busy`.
    pub queue_depth: usize,
    /// Per-session concurrent-evaluation bound (≥ 1). Keeps one session
    /// from monopolizing the worker pool.
    pub inflight_cap: usize,
    /// Maximum distinct named sessions; further `Hello`s are refused.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 16,
            inflight_cap: 2,
            max_sessions: 1024,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<()> {
        if self.workers == 0 || self.queue_depth == 0 || self.inflight_cap == 0 {
            return Err(PaiError::config(
                "workers, queue_depth, and inflight_cap must all be >= 1",
            ));
        }
        if self.max_sessions == 0 {
            return Err(PaiError::config("max_sessions must be >= 1"));
        }
        Ok(())
    }
}

/// Point-in-time server meters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Queries answered with an `Answer` frame.
    pub queries_served: u64,
    /// Queries rejected with `Busy` (full session queue).
    pub busy_rejections: u64,
    /// Queries rejected with `ShuttingDown` during drain.
    pub drain_rejections: u64,
    /// Queries answered with an `Error` frame (engine or protocol).
    pub errors: u64,
    /// Distinct sessions opened so far.
    pub sessions_opened: u64,
    /// Answers computed for clients that had already disconnected, or that
    /// stopped reading for [`REPLY_WRITE_TIMEOUT`].
    pub dropped_replies: u64,
    /// Ingest batches applied (answered `IngestOk`).
    pub ingests_applied: u64,
    /// Rows appended across all applied ingest batches.
    pub rows_ingested: u64,
    /// Distribution of enqueue→answered service times (µs), including
    /// queue wait — the p50/p99 the load gate reads.
    pub service_hist: LatencyHistogram,
}

#[derive(Default)]
struct Meters {
    queries_served: AtomicU64,
    busy_rejections: AtomicU64,
    drain_rejections: AtomicU64,
    errors: AtomicU64,
    sessions_opened: AtomicU64,
    dropped_replies: AtomicU64,
    ingests_applied: AtomicU64,
    rows_ingested: AtomicU64,
    service_hist: AtomicHistogram,
}

/// One submitted query, waiting in its session's queue.
struct Job {
    request_id: u64,
    window: Rect,
    aggs: Vec<AggregateFunction>,
    phi: f64,
    /// Writer of the connection the query arrived on (answers go back
    /// where the query came from, even when the session has several
    /// connections).
    reply: Arc<Mutex<TcpStream>>,
    enqueued: Instant,
}

struct Session {
    queue: VecDeque<Job>,
    inflight: usize,
    in_ready: bool,
}

#[derive(Default)]
struct Sched {
    sessions: HashMap<u64, Session>,
    names: HashMap<String, u64>,
    ready: VecDeque<u64>,
    next_session_id: u64,
    queued_total: usize,
    inflight_total: usize,
    draining: bool,
}

struct Shared {
    engine: Arc<dyn ServeEngine>,
    config: ServerConfig,
    sched: Mutex<Sched>,
    /// Signalled when a session becomes ready (workers wait here).
    work_cv: Condvar,
    /// Signalled when queued+inflight hits zero while draining.
    drain_cv: Condvar,
    shutdown: AtomicBool,
    meters: Meters,
    /// A clone of every open connection's stream, by connection id: what
    /// `shutdown()` closes so that readers blocked on silent peers exit.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// Takes a connection out of the registry when its reader thread ends.
struct Registered<'a>(&'a Shared, u64);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.0
            .conns
            .lock()
            .expect("connection registry lock")
            .remove(&self.1);
    }
}

enum Submit {
    Queued,
    Busy,
    Draining,
}

impl Shared {
    /// Admission control: enqueue the job or reject it, never block.
    fn submit(&self, session_id: u64, job: Job) -> Submit {
        let mut g = self.sched.lock().expect("scheduler lock");
        if g.draining {
            self.meters.drain_rejections.fetch_add(1, Ordering::Relaxed);
            return Submit::Draining;
        }
        let depth = self.config.queue_depth;
        let cap = self.config.inflight_cap;
        let Some(s) = g.sessions.get_mut(&session_id) else {
            // Session map entries live for the server's lifetime, so this
            // is unreachable from a well-behaved connection; treat it as
            // backpressure rather than a protocol error.
            return Submit::Busy;
        };
        if s.queue.len() >= depth {
            self.meters.busy_rejections.fetch_add(1, Ordering::Relaxed);
            return Submit::Busy;
        }
        s.queue.push_back(job);
        let make_ready = !s.in_ready && s.inflight < cap;
        if make_ready {
            s.in_ready = true;
        }
        g.queued_total += 1;
        if make_ready {
            g.ready.push_back(session_id);
            self.work_cv.notify_one();
        }
        Submit::Queued
    }

    /// Sends `resp` on `writer`, tolerating a dead client. A failed write —
    /// the peer is gone, or stopped reading for [`REPLY_WRITE_TIMEOUT`] —
    /// shuts the connection down: what was half written cannot be framed
    /// again, later replies fail at once instead of waiting out the timeout
    /// each, and the connection's reader thread sees the end of its stream.
    fn send(&self, writer: &Arc<Mutex<TcpStream>>, resp: &Response) -> bool {
        let payload = resp.encode();
        let w = writer.lock().expect("connection writer lock");
        let mut reply = ReplyWriter {
            stream: &w,
            until: Instant::now() + REPLY_WRITE_TIMEOUT,
        };
        let sent = write_frame(&mut reply, &payload).is_ok();
        if !sent {
            let _ = w.shutdown(Shutdown::Both);
        }
        sent
    }

    fn worker_loop(&self) {
        loop {
            let (session_id, job) = {
                let mut g = self.sched.lock().expect("scheduler lock");
                loop {
                    if let Some(sid) = g.ready.pop_front() {
                        let cap = self.config.inflight_cap;
                        let s = g.sessions.get_mut(&sid).expect("ready session exists");
                        let job = s.queue.pop_front().expect("ready session has work");
                        s.inflight += 1;
                        // Keep the session in the ring only while it still
                        // has both work and in-flight budget.
                        s.in_ready = !s.queue.is_empty() && s.inflight < cap;
                        let requeue = s.in_ready;
                        g.queued_total -= 1;
                        g.inflight_total += 1;
                        if requeue {
                            g.ready.push_back(sid);
                        }
                        break (sid, job);
                    }
                    if g.draining && g.queued_total == 0 {
                        return;
                    }
                    g = self.work_cv.wait(g).expect("scheduler lock");
                }
            };

            // Evaluate with no scheduler lock held: this is where reads
            // and adaptation writes from different sessions interleave
            // through the engine's own plan/fetch/apply locking.
            let result = self.engine.evaluate(&job.window, &job.aggs, job.phi);
            let service_us = job.enqueued.elapsed().as_micros() as u64;
            let resp = match result {
                Ok(res) => {
                    self.meters.queries_served.fetch_add(1, Ordering::Relaxed);
                    self.meters.service_hist.record(service_us);
                    Response::Answer {
                        id: job.request_id,
                        values: res.values,
                        cis: res.cis,
                        error_bound: res.error_bound,
                        met_constraint: res.met_constraint,
                        server_us: service_us,
                    }
                }
                Err(e) => {
                    self.meters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        id: job.request_id,
                        msg: e.to_string(),
                    }
                }
            };
            if !self.send(&job.reply, &resp) {
                // The client vanished mid-query (kill-client test) or
                // stopped reading: the answer is discarded but the server
                // carries on.
                self.meters.dropped_replies.fetch_add(1, Ordering::Relaxed);
            }

            let mut g = self.sched.lock().expect("scheduler lock");
            let cap = self.config.inflight_cap;
            let s = g.sessions.get_mut(&session_id).expect("session exists");
            s.inflight -= 1;
            // Freed budget may unblock queries queued past the cap.
            if !s.in_ready && !s.queue.is_empty() && s.inflight < cap {
                s.in_ready = true;
                g.ready.push_back(session_id);
                self.work_cv.notify_one();
            }
            g.inflight_total -= 1;
            if g.draining && g.queued_total == 0 && g.inflight_total == 0 {
                self.drain_cv.notify_all();
            }
        }
    }

    /// Handles `Hello`: resolves or creates the named session.
    fn open_session(&self, name: &str) -> Result<u64> {
        let mut g = self.sched.lock().expect("scheduler lock");
        if let Some(&id) = g.names.get(name) {
            return Ok(id);
        }
        if g.draining {
            return Err(PaiError::unsupported("server is shutting down"));
        }
        if g.names.len() >= self.config.max_sessions {
            return Err(PaiError::config(format!(
                "session limit {} reached",
                self.config.max_sessions
            )));
        }
        let id = g.next_session_id;
        g.next_session_id += 1;
        g.names.insert(name.to_string(), id);
        g.sessions.insert(
            id,
            Session {
                queue: VecDeque::new(),
                inflight: 0,
                in_ready: false,
            },
        );
        self.meters.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }
}

/// A connection's socket with one reply's deadline: every write may block
/// for what is left of [`REPLY_WRITE_TIMEOUT`] and no longer — also when a
/// peer that has stopped reading still lets a trickle through, which a
/// timeout per write would wait out again and again.
struct ReplyWriter<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Write for ReplyWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let mut stream = self.stream;
        stream.set_write_timeout(Some(left))?;
        stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut stream = self.stream;
        stream.flush()
    }
}

/// Serves one connection: a `Hello` handshake, then a query loop.
/// Returns on EOF, protocol error, `Close`, or server shutdown.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = ConnBuf::new();
    let mut session_id: Option<u64> = None;
    loop {
        let frame = match buf.read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        let req = match Request::decode(frame) {
            Ok(r) => r,
            Err(e) => {
                shared.meters.errors.fetch_add(1, Ordering::Relaxed);
                let _ = shared.send(
                    &writer,
                    &Response::Error {
                        id: 0,
                        msg: format!("bad frame: {e}"),
                    },
                );
                return;
            }
        };
        match req {
            Request::Hello { version, session } => {
                if version != PROTOCOL_VERSION {
                    let _ = shared.send(
                        &writer,
                        &Response::Error {
                            id: 0,
                            msg: format!(
                                "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                            ),
                        },
                    );
                    return;
                }
                match shared.open_session(&session) {
                    Ok(id) => {
                        session_id = Some(id);
                        if !shared.send(
                            &writer,
                            &Response::HelloOk {
                                version: PROTOCOL_VERSION,
                                session_id: id,
                            },
                        ) {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = shared.send(
                            &writer,
                            &Response::Error {
                                id: 0,
                                msg: e.to_string(),
                            },
                        );
                        return;
                    }
                }
            }
            Request::Query {
                id,
                window,
                phi,
                aggs,
            } => {
                let Some(sid) = session_id else {
                    shared.meters.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = shared.send(
                        &writer,
                        &Response::Error {
                            id,
                            msg: "query before Hello".into(),
                        },
                    );
                    return;
                };
                let job = Job {
                    request_id: id,
                    window,
                    aggs,
                    phi,
                    reply: Arc::clone(&writer),
                    enqueued: Instant::now(),
                };
                let reject = match shared.submit(sid, job) {
                    Submit::Queued => None,
                    Submit::Busy => Some(Response::Busy { id }),
                    Submit::Draining => Some(Response::ShuttingDown { id }),
                };
                if let Some(resp) = reject {
                    if !shared.send(&writer, &resp) {
                        return;
                    }
                }
            }
            Request::Ingest { id, rows } => {
                if session_id.is_none() {
                    shared.meters.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = shared.send(
                        &writer,
                        &Response::Error {
                            id,
                            msg: "ingest before Hello".into(),
                        },
                    );
                    return;
                };
                // Ingest runs inline on the connection thread: the engine's
                // own append latching and short index write lock are the
                // concurrency control, and per-connection FIFO means a
                // client's follow-up query sees its own writes. The
                // scheduler is only consulted for the drain flag.
                if shared.sched.lock().expect("scheduler lock").draining {
                    let _ = shared.send(&writer, &Response::ShuttingDown { id });
                    continue;
                }
                let t0 = Instant::now();
                let resp = match shared.engine.ingest(&rows) {
                    Ok(receipt) => {
                        let n = receipt.locators.len() as u64;
                        shared
                            .meters
                            .ingests_applied
                            .fetch_add(1, Ordering::Relaxed);
                        shared.meters.rows_ingested.fetch_add(n, Ordering::Relaxed);
                        Response::IngestOk {
                            id,
                            start_row: receipt.start_row,
                            rows: n,
                            generation: receipt.generation,
                            delta_blocks: receipt.delta_blocks,
                            server_us: t0.elapsed().as_micros() as u64,
                        }
                    }
                    Err(e) => {
                        shared.meters.errors.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            id,
                            msg: e.to_string(),
                        }
                    }
                };
                if !shared.send(&writer, &resp) {
                    return;
                }
            }
            Request::Close => return,
        }
    }
}

/// A running query server. Dropping it (or calling
/// [`PaiServer::shutdown`]) drains in-flight work, joins the worker
/// pool and closes every open connection.
pub struct PaiServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PaiServer {
    /// Binds a loopback listener and starts the acceptor and worker
    /// pool over `engine`.
    pub fn serve(engine: Arc<dyn ServeEngine>, config: ServerConfig) -> Result<Self> {
        config.validate()?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config: config.clone(),
            sched: Mutex::new(Sched::default()),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            meters: Meters::default(),
            conns: Mutex::new(HashMap::new()),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pai-server-worker-{i}"))
                    .spawn(move || shared.worker_loop())
                    .map_err(PaiError::from)
            })
            .collect::<Result<Vec<_>>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pai-server-accept".into())
                .spawn(move || {
                    for (id, stream) in (0u64..).zip(listener.incoming()) {
                        if shared.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        let Ok(stream) = stream else { continue };
                        // Registered here, not by the reader thread, so that
                        // every connection accepted before shutdown joins the
                        // acceptor is in the registry shutdown sweeps.
                        let Ok(clone) = stream.try_clone() else {
                            continue;
                        };
                        let conns = &shared.conns;
                        conns
                            .lock()
                            .expect("connection registry lock")
                            .insert(id, clone);
                        let conn_shared = Arc::clone(&shared);
                        // Connection readers are detached: they exit on
                        // client EOF, or when shutdown closes their stream,
                        // and hold only an Arc on the shared state, never a
                        // lock across a blocking read.
                        let spawned = std::thread::Builder::new()
                            .name("pai-server-conn".into())
                            .spawn(move || {
                                let _registered = Registered(&conn_shared, id);
                                serve_connection(stream, &conn_shared)
                            });
                        if spawned.is_err() {
                            conns.lock().expect("connection registry lock").remove(&id);
                        }
                    }
                })?
        };

        Ok(PaiServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server meters.
    pub fn stats(&self) -> ServerStats {
        let m = &self.shared.meters;
        ServerStats {
            queries_served: m.queries_served.load(Ordering::Relaxed),
            busy_rejections: m.busy_rejections.load(Ordering::Relaxed),
            drain_rejections: m.drain_rejections.load(Ordering::Relaxed),
            errors: m.errors.load(Ordering::Relaxed),
            sessions_opened: m.sessions_opened.load(Ordering::Relaxed),
            dropped_replies: m.dropped_replies.load(Ordering::Relaxed),
            ingests_applied: m.ingests_applied.load(Ordering::Relaxed),
            rows_ingested: m.rows_ingested.load(Ordering::Relaxed),
            service_hist: m.service_hist.snapshot(),
        }
    }

    /// Graceful shutdown: stop accepting, answer every already-queued
    /// query, join the workers, then close every open connection, so that
    /// each reader thread exits and lets go of the engine even when its
    /// peer has gone quiet. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor's `incoming()` with a throwaway
        // connection (same trick as the object store).
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        {
            let mut g = self.shared.sched.lock().expect("scheduler lock");
            g.draining = true;
            // Wake idle workers so they observe the drain flag.
            self.shared.work_cv.notify_all();
            while g.queued_total > 0 || g.inflight_total > 0 {
                g = self.shared.drain_cv.wait(g).expect("scheduler lock");
            }
            // Drained: wake any worker still parked on work_cv to exit.
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // A reader blocked on a silent peer sees the end of its stream.
        let conns = self.shared.conns.lock().expect("connection registry lock");
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for PaiServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
