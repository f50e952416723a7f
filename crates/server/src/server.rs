//! The threaded TCP serving core.
//!
//! ## Threading model
//!
//! ```text
//! acceptor ──► connection threads (1 per client, frame parsing + I/O)
//!                   │  bounded queue (admission control)
//!                   ▼
//!              worker threads (N, query execution)
//! ```
//!
//! Connection threads parse frames and *wait* on a per-request channel;
//! workers execute queries against the shared endpoints and render each
//! reply line, which the connection thread only writes. The split
//! means slow clients never occupy a worker, and the bounded queue is
//! the single admission-control point: when it is full the connection
//! thread answers `overloaded` immediately instead of queueing
//! unbounded work (fail fast beats collapse under load).
//!
//! ## Deadlines
//!
//! Every request carries a deadline (`timeout_ms`, defaulting from
//! config). The connection thread waits for the worker only until the
//! deadline (plus a small grace window for replies racing the timer)
//! and then answers `timeout`, marking the job cancelled. A cancelled
//! job that is still queued is skipped entirely; one already running is
//! abandoned — its result is dropped when the worker finds the receiver
//! gone.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops the acceptor, closes the queue to new
//! admissions (late arrivals get `shutting_down`), lets the workers
//! drain everything already admitted, and [`Server::join`] waits for
//! connection threads to finish writing their final responses (bounded
//! by `drain_timeout_ms`).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quonto::sync::{lock_or_recover, wait_timeout_or_recover};

use crate::config::ServerConfig;
use crate::endpoint::Endpoint;
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::poll;
use crate::proto::{
    self, error_response, ok_response, overloaded_response, parse_request, shutting_down_response,
    timeout_response, trace_response, write_ok_response, QueryRequest, Request, WriteRequest,
};
use crate::signal;

/// How often blocked loops re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(50);

/// Extra wait past the deadline before the connection thread gives up
/// on the worker: absorbs scheduling jitter so a reply produced *at*
/// the deadline still gets delivered instead of racing the timer.
const DEADLINE_GRACE: Duration = Duration::from_millis(100);

/// What a worker sends back to the waiting connection thread: the
/// finished reply line, which the connection thread only writes, and
/// the envelope the metrics and access log need.
struct WorkerReply {
    /// The rendered reply, newline included.
    line: String,
    status: &'static str,
    rows: usize,
}

/// What an admitted request asks a worker to do: answer a query or
/// apply a write batch. Both flow through the same queue, deadline, and
/// panic-isolation machinery — admission control does not distinguish
/// reads from writes.
enum WorkItem {
    Query(QueryRequest),
    Write(WriteRequest),
}

impl WorkItem {
    fn id(&self) -> &Option<String> {
        match self {
            WorkItem::Query(q) => &q.id,
            WorkItem::Write(w) => &w.id,
        }
    }

    fn endpoint(&self) -> &str {
        match self {
            WorkItem::Query(q) => &q.endpoint,
            WorkItem::Write(w) => &w.endpoint,
        }
    }

    /// The access-log / trace tag for the request flavor: the query
    /// language, or `write`.
    fn kind_str(&self) -> &'static str {
        match self {
            WorkItem::Query(q) => q.lang.as_str(),
            WorkItem::Write(_) => "write",
        }
    }

    fn timeout_ms(&self) -> Option<u64> {
        match self {
            WorkItem::Query(q) => q.timeout_ms,
            WorkItem::Write(w) => w.timeout_ms,
        }
    }

    /// The line recorded as the trace's query text.
    fn trace_text(&self) -> String {
        match self {
            WorkItem::Query(q) => q.query.clone(),
            WorkItem::Write(w) => format!(
                "WRITE insert={} delete={}",
                w.delta.inserts.len(),
                w.delta.deletes.len()
            ),
        }
    }
}

/// One admitted request (query or write), queued for a worker.
struct Job {
    work: WorkItem,
    endpoint: Arc<Endpoint>,
    admitted: Instant,
    deadline: Instant,
    cancelled: Arc<AtomicBool>,
    resp_tx: SyncSender<WorkerReply>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    open: bool,
}

/// Bounded MPMC job queue (mutex + condvar; the queue holds dozens of
/// entries, not millions — contention on the lock is dwarfed by query
/// execution).
///
/// Lock-order note: `JobQueue.inner` is acquired strictly before any
/// engine-side lock (workers pop a job, *release* the queue, then run
/// the query) — `xtask analyze` derives this order from the acquisition
/// paths and would flag any new path that holds `inner` into engine
/// code as an `A1.inversion`.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

enum PushRejection {
    Full,
    Closed,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admits a job unless the queue is full or closed. Returns the
    /// depth after the push.
    fn try_push(&self, job: Job) -> Result<usize, PushRejection> {
        let mut inner = lock_or_recover(&self.inner);
        if !inner.open {
            return Err(PushRejection::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(PushRejection::Full);
        }
        inner.jobs.push_back(job);
        let depth = inner.jobs.len();
        drop(inner);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job. `None` once the queue is closed *and*
    /// drained — the worker-exit condition.
    fn pop(&self) -> Option<(Job, usize)> {
        let mut inner = lock_or_recover(&self.inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                let depth = inner.jobs.len();
                return Some((job, depth));
            }
            if !inner.open {
                return None;
            }
            let (guard, _) = wait_timeout_or_recover(&self.ready, inner, TICK);
            inner = guard;
        }
    }

    /// Closes admission; queued jobs still drain.
    fn close(&self) {
        lock_or_recover(&self.inner).open = false;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        lock_or_recover(&self.inner).jobs.len()
    }
}

/// State shared by every thread of one server instance.
struct Shared {
    cfg: ServerConfig,
    /// Worker threads actually running (after the CPU clamp — see
    /// [`effective_workers`]); `STATS` reports this, not the configured
    /// number, so load tools see the real pool size.
    workers: usize,
    endpoints: HashMap<String, Arc<Endpoint>>,
    queue: JobQueue,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The `STATS` response body.
    fn stats_json(&self) -> Json {
        // Refresh the gauge from the live queue so STATS never shows a
        // stale depth.
        self.metrics
            .queue_depth
            .store(self.queue.depth(), Ordering::Relaxed);
        let mut endpoints: Vec<(String, Json)> = self
            .endpoints
            .values()
            .map(|ep| (ep.name.clone(), ep.stats_json()))
            .collect();
        endpoints.sort_by(|a, b| a.0.cmp(&b.0));
        Json::obj(vec![
            ("status", "ok".into()),
            ("server", self.metrics.to_json()),
            ("workers", self.workers.into()),
            ("queue_capacity", self.cfg.queue_capacity.into()),
            ("endpoints", Json::Obj(endpoints)),
            ("registry", registry_json()),
        ])
    }
}

/// The process-wide metrics registry rendered for `STATS`: every named
/// counter plus a digest of every named histogram.
fn registry_json() -> Json {
    let reg = obda_obs::registry();
    let counters = Json::Obj(
        reg.counters()
            .into_iter()
            .map(|(name, value)| (name, Json::from(value)))
            .collect(),
    );
    let histograms = Json::Obj(
        reg.histograms()
            .into_iter()
            .map(|(name, h)| {
                (
                    name,
                    Json::obj(vec![
                        ("count", h.count.into()),
                        ("mean_us", Json::Num(h.mean_us)),
                        ("p50_us", h.p50_us.into()),
                        ("p95_us", h.p95_us.into()),
                        ("p99_us", h.p99_us.into()),
                        ("max_us", h.max_us.into()),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![("counters", counters), ("histograms", histograms)])
}

/// The worker-pool size the server actually runs.
///
/// CPU-bound query workers past the core count cannot add throughput —
/// they compete for the same cores and the extra timeslicing shows up
/// directly as p95/p99 creep (the A7 measurement). So the pool is
/// clamped to `available_parallelism` unless:
///
/// - `exact_workers` is set (the explicit operator override), or
/// - any endpoint injects an artificial `delay_ms` — those workers
///   *sleep* rather than compute, and the load-test scenarios that use
///   the knob need the configured concurrency exactly.
fn effective_workers(cfg: &ServerConfig) -> usize {
    if cfg.exact_workers || cfg.endpoints.iter().any(|e| e.delay_ms > 0) {
        return cfg.workers;
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(cfg.workers);
    cfg.workers.min(cores).max(1)
}

/// A running server: listener + workers over a set of loaded endpoints.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds every endpoint (classification, data generation,
    /// materialization), binds the listener, and spawns the acceptor,
    /// worker, and summary threads.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        cfg.validate()?;
        let mut endpoints = HashMap::new();
        for ep_cfg in &cfg.endpoints {
            let ep = Endpoint::build(ep_cfg)
                .map_err(|e| format!("endpoint `{}` failed to load: {e}", ep_cfg.name))?;
            endpoints.insert(ep_cfg.name.clone(), Arc::new(ep));
        }
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {} failed: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr failed: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking failed: {e}"))?;

        let workers = effective_workers(&cfg);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            workers,
            endpoints,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            cfg,
        });

        let mut threads = Vec::new();
        for i in 0..shared.workers {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("obda-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }
        {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("obda-acceptor".into())
                    .spawn(move || acceptor_loop(&s, listener))
                    .map_err(|e| format!("spawn acceptor: {e}"))?,
            );
        }
        if shared.cfg.summary_every_s > 0 {
            let s = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("obda-summary".into())
                    .spawn(move || summary_loop(&s))
                    .map_err(|e| format!("spawn summary: {e}"))?,
            );
        }
        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown: stop accepting, close admissions, drain.
    /// Idempotent; returns immediately (pair with [`Self::join`]).
    pub fn shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            self.shared.queue.close();
        }
    }

    /// Waits until all workers drained, then for connection threads to
    /// flush their final responses (bounded by `drain_timeout_ms`).
    /// Call after [`Self::shutdown`] (it will signal it if not).
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let drain_deadline =
            Instant::now() + Duration::from_millis(self.shared.cfg.drain_timeout_ms);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Serves until a SIGINT/SIGTERM arrives (or
    /// [`signal::request_shutdown`] is called), then drains and joins.
    pub fn run_until_signal(self) {
        signal::install_handlers();
        while !signal::shutdown_requested() && !self.shared.shutting_down() {
            std::thread::sleep(TICK);
        }
        // lint: allow(R6.print, "operator-facing shutdown notice on the server's own stderr, not library timing output")
        eprintln!(
            "obda-server draining: {}",
            self.shared.metrics.summary_line()
        );
        self.shutdown();
        self.join();
    }

    /// Metrics snapshot (the same JSON the `STATS` verb returns).
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: a dropped server must not leave threads spinning.
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                shared.metrics.active_connections.store(
                    shared.active_conns.load(Ordering::SeqCst),
                    Ordering::Relaxed,
                );
                let s = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new()
                        .name("obda-conn".into())
                        .spawn(move || {
                            connection_loop(&s, stream);
                            s.active_conns.fetch_sub(1, Ordering::SeqCst);
                            s.metrics
                                .active_connections
                                .store(s.active_conns.load(Ordering::SeqCst), Ordering::Relaxed);
                        });
                if spawned.is_err() {
                    // Thread spawn failed (fd/thread exhaustion): the
                    // stream drops (connection refused-by-close) and the
                    // gauge is restored.
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            // Nothing pending: wait until a connection arrives, or a
            // tick passes so shutdown is still noticed.
            Err(e) if e.kind() == ErrorKind::WouldBlock => poll::wait_readable(&listener, TICK),
            Err(_) => std::thread::sleep(TICK),
        }
    }
}

fn summary_loop(shared: &Arc<Shared>) {
    let every = Duration::from_secs(shared.cfg.summary_every_s);
    let mut last = Instant::now();
    while !shared.shutting_down() {
        std::thread::sleep(TICK);
        if last.elapsed() >= every {
            // lint: allow(R6.print, "periodic operator summary, opt-in via summary_every_s config")
            eprintln!("{}", shared.metrics.summary_line());
            last = Instant::now();
        }
    }
}

/// `json` rendered as one reply line, newline included.
fn reply_line(json: &Json) -> String {
    let mut line = String::new();
    json.write(&mut line);
    line.push('\n');
    line
}

/// Writes one response line; returns `false` when the client is gone.
fn write_response(stream: &mut TcpStream, json: &Json) -> bool {
    stream.write_all(reply_line(json).as_bytes()).is_ok()
}

fn access_log(
    shared: &Shared,
    endpoint: &str,
    lang: &str,
    status: &str,
    rows: usize,
    total_us: u64,
) {
    if shared.cfg.access_log {
        // lint: allow(R6.print, "structured access log, opt-in via access_log config")
        eprintln!(
            "access endpoint={endpoint} lang={lang} status={status} rows={rows} total_us={total_us}"
        );
    }
}

/// Per-connection frame loop: newline-split with our own buffer (not
/// `BufReader::read_line`, which loses bytes across read timeouts). Read
/// timeouts double as shutdown-check ticks.
fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` holds no newline, so each byte read is searched
    // once however many reads a long frame takes.
    let mut scanned = 0;
    let mut chunk = [0u8; 8 * 1024];
    loop {
        // Answer every complete frame buffered, then drop them at once.
        let mut start = 0;
        while let Some(nl) = buf
            .get(scanned..)
            .and_then(|fresh| fresh.iter().position(|&b| b == b'\n'))
            .map(|at| scanned + at)
        {
            let frame = buf.get(start..nl).unwrap_or_default();
            if !process_frame(shared, &mut stream, frame) {
                return;
            }
            start = nl + 1;
            scanned = start;
        }
        buf.drain(..start);
        scanned = buf.len();
        if buf.len() > shared.cfg.max_line_bytes {
            // The stream can't be re-aligned to frame boundaries once a
            // line overflows; answer and hang up.
            shared.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                &mut stream,
                &error_response(&None, "bad_request", "frame too long"),
            );
            return;
        }
        if shared.shutting_down() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            // lint: allow(R1.index, "Read::read contract guarantees n <= chunk.len()")
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Handles one frame; returns `false` to drop the connection.
fn process_frame(shared: &Arc<Shared>, stream: &mut TcpStream, raw: &[u8]) -> bool {
    let metrics = &shared.metrics;
    let line = match std::str::from_utf8(raw) {
        Ok(s) => s,
        Err(_) => {
            metrics.malformed.fetch_add(1, Ordering::Relaxed);
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return write_response(
                stream,
                &error_response(&None, "bad_request", "bad frame: invalid utf-8"),
            );
        }
    };
    if line.trim().is_empty() {
        return true; // blank keep-alive lines are fine
    }
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            metrics.malformed.fetch_add(1, Ordering::Relaxed);
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            return write_response(stream, &error_response(&None, "bad_request", &msg));
        }
    };
    match req {
        Request::Stats => {
            metrics.stats_requests.fetch_add(1, Ordering::Relaxed);
            write_response(stream, &shared.stats_json())
        }
        Request::Trace(n) => {
            metrics.trace_requests.fetch_add(1, Ordering::Relaxed);
            let traces = obda_obs::ring::global().last(n.unwrap_or(1));
            write_response(stream, &trace_response(&traces))
        }
        Request::Query(q) => handle_work(shared, stream, WorkItem::Query(q)),
        Request::Write(w) => handle_work(shared, stream, WorkItem::Write(w)),
    }
}

fn handle_work(shared: &Arc<Shared>, stream: &mut TcpStream, work: WorkItem) -> bool {
    let metrics = &shared.metrics;
    let id = work.id().clone();
    let endpoint_name = work.endpoint().to_owned();
    let kind = work.kind_str();
    let endpoint = match shared.endpoints.get(&endpoint_name) {
        Some(ep) => Arc::clone(ep),
        None => {
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            let msg = proto::engine_error_text(&crate::endpoint::unknown_endpoint(&endpoint_name));
            let resp = error_response(&id, "unknown_endpoint", &msg);
            access_log(shared, &endpoint_name, kind, "error", 0, 0);
            return write_response(stream, &resp);
        }
    };
    if shared.shutting_down() {
        metrics.shed_on_shutdown.fetch_add(1, Ordering::Relaxed);
        return write_response(stream, &shutting_down_response(&id));
    }

    let admitted = Instant::now();
    let timeout_ms = work
        .timeout_ms()
        .unwrap_or(shared.cfg.default_timeout_ms)
        .min(shared.cfg.max_timeout_ms);
    let deadline = admitted + Duration::from_millis(timeout_ms);
    let cancelled = Arc::new(AtomicBool::new(false));
    let (resp_tx, resp_rx) = sync_channel::<WorkerReply>(1);
    let job = Job {
        endpoint,
        admitted,
        deadline,
        cancelled: Arc::clone(&cancelled),
        resp_tx,
        work,
    };

    match shared.queue.try_push(job) {
        Err(PushRejection::Full) => {
            metrics.overloaded.fetch_add(1, Ordering::Relaxed);
            access_log(shared, &endpoint_name, kind, "overloaded", 0, 0);
            return write_response(stream, &overloaded_response(&id));
        }
        Err(PushRejection::Closed) => {
            metrics.shed_on_shutdown.fetch_add(1, Ordering::Relaxed);
            return write_response(stream, &shutting_down_response(&id));
        }
        Ok(depth) => {
            metrics.admitted.fetch_add(1, Ordering::Relaxed);
            metrics.queue_depth.store(depth, Ordering::Relaxed);
            metrics.queue_high_water.fetch_max(depth, Ordering::Relaxed);
        }
    }

    // Wait for the worker, but never past the deadline (+grace).
    let wait = deadline
        .saturating_duration_since(Instant::now())
        .saturating_add(DEADLINE_GRACE);
    let (line, status, rows) = match resp_rx.recv_timeout(wait) {
        Ok(reply) => (reply.line, reply.status, reply.rows),
        Err(RecvTimeoutError::Timeout) => {
            cancelled.store(true, Ordering::SeqCst);
            (reply_line(&timeout_response(&id)), "timeout", 0)
        }
        Err(RecvTimeoutError::Disconnected) => (
            reply_line(&error_response(
                &id,
                "internal",
                "internal error: worker dropped the request",
            )),
            "error",
            0,
        ),
    };
    let total_us = admitted.elapsed().as_micros() as u64;
    match status {
        "ok" => metrics.ok.fetch_add(1, Ordering::Relaxed),
        "timeout" => metrics.timeouts.fetch_add(1, Ordering::Relaxed),
        _ => metrics.errors.fetch_add(1, Ordering::Relaxed),
    };
    metrics.latency.record(total_us);
    access_log(shared, &endpoint_name, kind, status, rows, total_us);
    stream.write_all(line.as_bytes()).is_ok()
}

/// Burns `delay_ms` of simulated work in cancel-aware slices, measured
/// from execution start (queue wait does not count — the knob models
/// work a worker must do, not elapsed request age). Returns `false` if
/// the job was cancelled or its deadline passed mid-sleep.
fn interruptible_delay(job: &Job, delay_ms: u64) -> bool {
    let until = Instant::now() + Duration::from_millis(delay_ms);
    while Instant::now() < until {
        if job.cancelled.load(Ordering::SeqCst) || Instant::now() >= job.deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    !job.cancelled.load(Ordering::SeqCst) && Instant::now() < job.deadline
}

/// What one unit of worker execution produced (queries answer rows;
/// writes answer a delta summary).
enum ExecOutput {
    Answers(mastro::Answers),
    Applied(mastro::DeltaSummary),
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((job, depth)) = shared.queue.pop() {
        shared.metrics.queue_depth.store(depth, Ordering::Relaxed);
        if job.cancelled.load(Ordering::SeqCst) {
            continue; // connection thread already answered `timeout`
        }
        let wait_us = job.admitted.elapsed().as_micros() as u64;
        if Instant::now() >= job.deadline {
            // Expired while queued: cheap timeout, no evaluation at all.
            let _ = job.resp_tx.send(WorkerReply {
                line: reply_line(&timeout_response(job.work.id())),
                status: "timeout",
                rows: 0,
            });
            continue;
        }
        if job.endpoint.delay_ms > 0 && !interruptible_delay(&job, job.endpoint.delay_ms) {
            let _ = job.resp_tx.send(WorkerReply {
                line: reply_line(&timeout_response(job.work.id())),
                status: "timeout",
                rows: 0,
            });
            continue;
        }
        let t = Instant::now();
        // Collect a trace when anyone will consume it: the global ring
        // (the `TRACE` verb) or the endpoint's sink (`QUONTO_TIMINGS`).
        // With both off the context is the disabled no-op.
        let sink = job.endpoint.trace_sink();
        let ctx = if obda_obs::ring::global().is_enabled() || sink.enabled() {
            obda_obs::TraceCtx::new()
        } else {
            obda_obs::TraceCtx::disabled()
        };
        ctx.set_query(job.work.trace_text());
        ctx.tag("endpoint", job.endpoint.name.clone());
        // A panicking request (engine bug, adversarial input) must take
        // down one request, not the worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| match &job.work {
            WorkItem::Query(q) => job
                .endpoint
                .answer_traced(q.lang, &q.query, &ctx)
                .map(ExecOutput::Answers),
            WorkItem::Write(w) => job
                .endpoint
                .apply_delta_traced(&w.delta, &ctx)
                .map(ExecOutput::Applied),
        }));
        let exec_us = t.elapsed().as_micros() as u64;
        let id = job.work.id();
        // The worker renders the whole line, so the `serialize` span
        // covers all reply rendering and the connection thread only
        // writes bytes.
        let reply = {
            let _serialize = ctx.span("serialize");
            match outcome {
                Ok(Ok(ExecOutput::Answers(answers))) => {
                    let mut line = ok_response(id, &answers, wait_us, exec_us);
                    line.push('\n');
                    WorkerReply {
                        rows: answers.len(),
                        line,
                        status: "ok",
                    }
                }
                Ok(Ok(ExecOutput::Applied(summary))) => WorkerReply {
                    rows: summary.inserted + summary.deleted,
                    line: reply_line(&write_ok_response(id, &summary, wait_us, exec_us)),
                    status: "ok",
                },
                Ok(Err(e)) => WorkerReply {
                    line: reply_line(&error_response(id, e.kind(), &proto::engine_error_text(&e))),
                    status: "error",
                    rows: 0,
                },
                Err(_) => WorkerReply {
                    line: reply_line(&error_response(
                        id,
                        "panic",
                        "internal error: request execution panicked",
                    )),
                    status: "error",
                    rows: 0,
                },
            }
        };
        if let Some(trace) = ctx.finish(reply.status, reply.rows as u64) {
            obda_obs::submit(trace, &*sink);
        }
        // Receiver gone = client timed out or hung up; drop the result.
        let _ = job.resp_tx.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_clamp_respects_cores_and_overrides() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let mut cfg = ServerConfig {
            workers: cores + 8,
            ..ServerConfig::default()
        };
        assert_eq!(effective_workers(&cfg), cores, "CPU-bound pools clamp");
        cfg.exact_workers = true;
        assert_eq!(effective_workers(&cfg), cores + 8, "override wins");
        cfg.exact_workers = false;
        cfg.endpoints[0].delay_ms = 5;
        assert_eq!(
            effective_workers(&cfg),
            cores + 8,
            "sleeping pools are never clamped"
        );
        cfg.endpoints[0].delay_ms = 0;
        cfg.workers = 1;
        assert_eq!(effective_workers(&cfg), 1, "never below the config");
    }

    #[test]
    fn queue_rejects_when_full_and_drains_after_close() {
        let q = JobQueue::new(2);
        let mk = |name: &str| {
            let (tx, _rx) = sync_channel(1);
            // _rx dropped: sends fail silently, which is fine here.
            Job {
                work: WorkItem::Query(QueryRequest {
                    id: Some(name.into()),
                    endpoint: "e".into(),
                    lang: crate::proto::Lang::Cq,
                    query: "q".into(),
                    timeout_ms: None,
                }),
                endpoint: Arc::new(
                    crate::endpoint::Endpoint::build(&crate::config::EndpointConfig {
                        scale: 1,
                        ..Default::default()
                    })
                    .unwrap(),
                ),
                admitted: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(1),
                cancelled: Arc::new(AtomicBool::new(false)),
                resp_tx: tx,
            }
        };
        assert_eq!(q.try_push(mk("a")).ok(), Some(1));
        assert_eq!(q.try_push(mk("b")).ok(), Some(2));
        assert!(matches!(q.try_push(mk("c")), Err(PushRejection::Full)));
        q.close();
        assert!(matches!(q.try_push(mk("d")), Err(PushRejection::Closed)));
        // Close drains: both queued jobs still pop, then None.
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert_eq!(q.depth(), 0);
    }
}
