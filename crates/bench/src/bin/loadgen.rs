//! Closed-loop load generator for `obda-server`.
//!
//! Each of `--connections` client threads keeps exactly one request in
//! flight (send → wait → record → send), so offered load adapts to what
//! the server sustains and the measured latency distribution is honest —
//! no coordinated-omission from open-loop timers.
//!
//! By default it spawns the server in-process on an ephemeral port
//! (zero setup, same binary benchmarks both sides); `--addr` targets an
//! already-running `quonto-server` instead.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--workers N] [--queue N] [--scale N] [--seed N]
//!         [--kind university|university-abox] [--exact-workers]
//!         [--connections N] [--requests N]
//!         [--mix cq|sparql|both] [--write-frac F] [--batch N]
//!         [--warm] [--timeout-ms N] [--label S] [--markdown]
//!         [--json FILE] [--trace-slowest K]
//! ```
//!
//! `--write-frac F` turns the run into mixed read/write traffic: the
//! fraction `F` (0.0–1.0) of each connection's requests become INSERT/
//! DELETE batches of `--batch` statements drawn from the reproducible
//! `genont::churn` stream (seeded per connection, so reruns offer the
//! exact same writes). Read and write latencies are tallied separately —
//! the read-qps column under a write load is the A10 degradation
//! measurement. Writes need a materialized engine; keep the default
//! `--kind university-abox`.
//!
//! `--json FILE` appends one machine-readable run record (qps,
//! percentiles, counters) to a JSON array at FILE — the format the
//! EXPERIMENTS tables are generated from (`BENCH_A8.json`).
//!
//! `--trace-slowest K` fetches the server's completed-query trace ring
//! (the `TRACE` protocol verb) after the run and prints the K slowest
//! traced queries with their per-phase timing breakdown — the first
//! place to look when a tail latency needs explaining.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Instant;

use mastro::{EboxMode, RewritingMode};
use obda_genont::{churn_stream, university_scenario, ChurnFact, ChurnOp};
use obda_server::{EndpointConfig, EndpointKind, Json, Server, ServerConfig};

const ENDPOINT: &str = "uni";

struct Opts {
    addr: Option<String>,
    workers: usize,
    queue: usize,
    scale: usize,
    seed: u64,
    kind: EndpointKind,
    /// Rewriting mode on the spawned endpoint.
    rewriting: RewritingMode,
    /// EBox constraint mode on the spawned endpoint (None = engine
    /// default / `QUONTO_EBOX`).
    ebox: Option<EboxMode>,
    connections: usize,
    requests: usize,
    mix: Mix,
    /// Fraction of requests that are write batches (0.0 = read-only).
    write_frac: f64,
    /// Statements per write batch.
    batch: usize,
    warm: bool,
    timeout_ms: u64,
    /// Injected per-request delay on the spawned endpoint — models an
    /// I/O-bound backend so worker-pool scaling is visible even when
    /// the queries themselves are CPU-cheap (or the host is 1-core).
    delay_ms: u64,
    /// Run exactly `--workers` threads even past the core count.
    exact_workers: bool,
    label: String,
    markdown: bool,
    /// Append one machine-readable run record to this JSON file.
    json_path: Option<String>,
    /// Print the K slowest traced queries (0 = off).
    trace_slowest: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Cq,
    Sparql,
    Both,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: None,
            workers: 4,
            queue: 128,
            scale: 2,
            seed: 42,
            kind: EndpointKind::UniversityAbox,
            rewriting: RewritingMode::PerfectRef,
            ebox: None,
            connections: 8,
            requests: 50,
            mix: Mix::Both,
            write_frac: 0.0,
            batch: 4,
            warm: false,
            timeout_ms: 30_000,
            delay_ms: 0,
            exact_workers: false,
            label: String::new(),
            markdown: false,
            json_path: None,
            trace_slowest: 0,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--workers N] [--queue N] [--scale N] [--seed N]\n\
         \x20              [--kind university|university-abox] [--exact-workers]\n\
         \x20              [--rewriting perfectref|presto|ndl] [--ebox off|on|infer]\n\
         \x20              [--connections N] [--requests N]\n\
         \x20              [--mix cq|sparql|both] [--write-frac F] [--batch N]\n\
         \x20              [--warm] [--timeout-ms N] [--delay-ms N]\n\
         \x20              [--label S] [--markdown] [--json FILE] [--trace-slowest K]"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(val("--addr")),
            "--workers" => opts.workers = val("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => opts.queue = val("--queue").parse().unwrap_or_else(|_| usage()),
            "--scale" => opts.scale = val("--scale").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--kind" => {
                opts.kind = match val("--kind").as_str() {
                    "university" => EndpointKind::University,
                    "university-abox" => EndpointKind::UniversityAbox,
                    _ => usage(),
                }
            }
            "--rewriting" => {
                opts.rewriting = val("--rewriting").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--ebox" => {
                opts.ebox = Some(val("--ebox").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }))
            }
            "--connections" => {
                opts.connections = val("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--requests" => opts.requests = val("--requests").parse().unwrap_or_else(|_| usage()),
            "--mix" => {
                opts.mix = match val("--mix").as_str() {
                    "cq" => Mix::Cq,
                    "sparql" => Mix::Sparql,
                    "both" => Mix::Both,
                    _ => usage(),
                }
            }
            "--write-frac" => {
                opts.write_frac = val("--write-frac").parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&opts.write_frac) {
                    eprintln!("--write-frac must be in 0.0..=1.0");
                    usage()
                }
            }
            "--batch" => opts.batch = val("--batch").parse().unwrap_or_else(|_| usage()),
            "--warm" => opts.warm = true,
            "--timeout-ms" => {
                opts.timeout_ms = val("--timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--delay-ms" => opts.delay_ms = val("--delay-ms").parse().unwrap_or_else(|_| usage()),
            "--exact-workers" => opts.exact_workers = true,
            "--label" => opts.label = val("--label"),
            "--markdown" => opts.markdown = true,
            "--json" => opts.json_path = Some(val("--json")),
            "--trace-slowest" => {
                opts.trace_slowest = val("--trace-slowest").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if opts.connections == 0 || opts.requests == 0 || opts.batch == 0 {
        usage()
    }
    opts
}

/// Renders one churn fact as its wire-statement JSON array.
fn statement_json(f: &ChurnFact) -> Json {
    match f {
        ChurnFact::Concept {
            concept,
            individual,
        } => Json::Arr(vec![concept.as_str().into(), individual.as_str().into()]),
        ChurnFact::Role {
            role,
            subject,
            object,
        } => Json::Arr(vec![
            role.as_str().into(),
            subject.as_str().into(),
            object.as_str().into(),
        ]),
        ChurnFact::Attr {
            attr,
            individual,
            text,
        } => Json::Arr(vec![
            attr.as_str().into(),
            individual.as_str().into(),
            text.as_str().into(),
        ]),
    }
}

/// Builds the write-request line for one slice of the churn stream.
fn write_request_json(ops: &[ChurnOp], timeout_ms: u64) -> String {
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for op in ops {
        match op {
            ChurnOp::Insert(f) => inserts.push(statement_json(f)),
            ChurnOp::Delete(f) => deletes.push(statement_json(f)),
        }
    }
    let mut fields = vec![("endpoint", Json::Str(ENDPOINT.into()))];
    if !inserts.is_empty() {
        fields.push(("insert", Json::Arr(inserts)));
    }
    if !deletes.is_empty() {
        fields.push(("delete", Json::Arr(deletes)));
    }
    fields.push(("timeout_ms", timeout_ms.into()));
    Json::obj(fields).to_string()
}

/// The request mix: `(lang, query text)` pairs.
fn build_mix(opts: &Opts) -> Vec<(&'static str, String)> {
    let mut mix = Vec::new();
    if opts.mix != Mix::Sparql {
        for q in university_scenario(opts.scale, opts.seed).queries {
            mix.push(("cq", q.text));
        }
    }
    if opts.mix != Mix::Cq {
        mix.push(("sparql", "SELECT ?x WHERE { ?x a :Student }".into()));
        mix.push((
            "sparql",
            "SELECT ?x ?n WHERE { ?x a :GradStudent . ?x :personName ?n . }".into(),
        ));
    }
    mix
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<Json> {
        // One write per request: on a `TCP_NODELAY` socket a separate
        // newline write can wake the server for a frame it cannot parse yet.
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes())?;
        let mut resp = String::new();
        self.reader.read_line(&mut resp)?;
        Json::parse(resp.trim()).map_err(|e| std::io::Error::other(e.to_string()))
    }

    fn query(&mut self, lang: &str, text: &str, timeout_ms: u64) -> std::io::Result<Json> {
        let req = Json::obj(vec![
            ("endpoint", ENDPOINT.into()),
            ("lang", lang.into()),
            ("query", text.into()),
            ("timeout_ms", timeout_ms.into()),
        ]);
        self.roundtrip(&req.to_string())
    }
}

#[derive(Default)]
struct ClientTally {
    latencies_us: Vec<u64>,
    write_latencies_us: Vec<u64>,
    ok: u64,
    errors: u64,
    timeouts: u64,
    overloaded: u64,
    write_rows: u64,
}

struct ClientPlan<'a> {
    mix: &'a [(&'static str, String)],
    requests: usize,
    offset: usize,
    timeout_ms: u64,
    write_frac: f64,
    batch: usize,
    /// This connection's private churn stream (empty when read-only).
    churn: Vec<ChurnOp>,
}

fn run_client(addr: SocketAddr, plan: &ClientPlan) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut conn = Conn::open(addr).expect("loadgen client connect");
    // Fractional accumulator spreads writes evenly through the request
    // sequence — deterministic, no RNG in the hot loop.
    let mut write_credit = 0.0;
    let mut churn_cursor = 0;
    for i in 0..plan.requests {
        write_credit += plan.write_frac;
        let write = write_credit >= 1.0 && churn_cursor + plan.batch <= plan.churn.len();
        let t = Instant::now();
        let resp = if write {
            write_credit -= 1.0;
            let ops = &plan.churn[churn_cursor..churn_cursor + plan.batch];
            churn_cursor += plan.batch;
            conn.roundtrip(&write_request_json(ops, plan.timeout_ms))
                .expect("loadgen write roundtrip")
        } else {
            let (lang, text) = &plan.mix[(plan.offset + i) % plan.mix.len()];
            conn.query(lang, text, plan.timeout_ms)
                .expect("loadgen roundtrip")
        };
        let us = t.elapsed().as_micros() as u64;
        if write {
            tally.write_latencies_us.push(us);
        } else {
            tally.latencies_us.push(us);
        }
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => {
                tally.ok += 1;
                if write {
                    tally.write_rows += resp.get("inserted").and_then(Json::as_u64).unwrap_or(0)
                        + resp.get("deleted").and_then(Json::as_u64).unwrap_or(0);
                }
            }
            Some("timeout") => tally.timeouts += 1,
            Some("overloaded") => tally.overloaded += 1,
            _ => tally.errors += 1,
        }
    }
    tally
}

fn kind_name(kind: EndpointKind) -> &'static str {
    match kind {
        EndpointKind::University => "university",
        EndpointKind::UniversityAbox => "university-abox",
    }
}

/// Appends `record` to the JSON array at `path` (created as `[record]`
/// when absent), so successive runs build up the table one file feeds.
fn append_json_record(path: &str, record: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(src) => match Json::parse(src.trim()) {
            Ok(Json::Arr(items)) => items,
            Ok(other) => return Err(format!("{path} holds {other}, not a JSON array")),
            Err(e) => return Err(format!("{path} is not valid JSON: {e}")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    runs.push(record);
    let mut out = String::from("[\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&run.to_string());
        if i + 1 < runs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    std::fs::write(path, out).map_err(|e| e.to_string())
}

fn pct(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

/// Fetches the server's trace ring via the `TRACE` verb and prints the
/// `k` slowest traced queries with per-phase attribution.
fn print_slowest_traces(addr: SocketAddr, k: usize) {
    // The ring holds the last N completed traces (QUONTO_TRACE_RING,
    // default 128); ask for more than any default so we see them all.
    let resp = Conn::open(addr)
        .and_then(|mut c| c.roundtrip("TRACE 4096"))
        .unwrap_or(Json::Null);
    let Some(traces) = resp.get("traces").and_then(Json::as_arr) else {
        println!("  trace ring unavailable (server answered: {resp})");
        return;
    };
    let mut traces: Vec<&Json> = traces.iter().collect();
    traces
        .sort_by_key(|t| std::cmp::Reverse(t.get("total_us").and_then(Json::as_u64).unwrap_or(0)));
    println!(
        "  slowest {} of {} traced queries:",
        k.min(traces.len()),
        traces.len()
    );
    for t in traces.iter().take(k) {
        let query = t.get("query").and_then(Json::as_str).unwrap_or("?");
        let status = t.get("status").and_then(Json::as_str).unwrap_or("?");
        let rows = t.get("rows").and_then(Json::as_u64).unwrap_or(0);
        let total_us = t.get("total_us").and_then(Json::as_u64).unwrap_or(0);
        let mut phases = String::new();
        if let Some(ps) = t.get("phases").and_then(Json::as_arr) {
            for p in ps {
                let name = p.get("phase").and_then(Json::as_str).unwrap_or("?");
                let us = p.get("us").and_then(Json::as_u64).unwrap_or(0);
                phases.push_str(&format!(" {name}={us}us"));
            }
        }
        println!(
            "    total_us={total_us} status={status} rows={rows} phases:{phases} query={query:?}"
        );
    }
}

fn main() {
    let opts = parse_opts();
    let mix = build_mix(&opts);

    // Target: an external server, or one spawned in-process.
    let (addr, spawned) = match &opts.addr {
        Some(a) => {
            let addr = a
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .unwrap_or_else(|| {
                    eprintln!("cannot resolve --addr {a}");
                    std::process::exit(2)
                });
            (addr, None)
        }
        None => {
            eprintln!(
                "loadgen: spawning in-process server (workers={} queue={} scale={} seed={})",
                opts.workers, opts.queue, opts.scale, opts.seed
            );
            let server = Server::start(ServerConfig {
                workers: opts.workers,
                queue_capacity: opts.queue,
                exact_workers: opts.exact_workers,
                endpoints: vec![EndpointConfig {
                    name: ENDPOINT.into(),
                    kind: opts.kind,
                    scale: opts.scale,
                    seed: opts.seed,
                    engine: {
                        let mut engine = EndpointConfig::default().engine.rewriting(opts.rewriting);
                        if let Some(mode) = opts.ebox {
                            engine = engine.ebox(mode);
                        }
                        engine
                    },
                    delay_ms: opts.delay_ms,
                    ..EndpointConfig::default()
                }],
                ..ServerConfig::default()
            })
            .expect("server start");
            (server.addr(), Some(server))
        }
    };

    // Warm phase: one pass over the whole mix populates the rewrite
    // cache so the timed run measures steady-state serving.
    if opts.warm {
        let mut conn = Conn::open(addr).expect("warmup connect");
        for (lang, text) in &mix {
            let resp = conn
                .query(lang, text, opts.timeout_ms)
                .expect("warmup query");
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("ok"),
                "warmup failed: {resp}"
            );
        }
    }

    // Per-connection churn streams: disjoint seeds so two connections
    // never race to insert/delete the same churn fact, reruns replay
    // the exact same writes.
    let plans: Vec<ClientPlan> = (0..opts.connections)
        .map(|tid| {
            let churn = if opts.write_frac > 0.0 {
                let len = (opts.requests as f64 * opts.write_frac).ceil() as usize * opts.batch
                    + opts.batch;
                churn_stream(opts.scale, opts.seed ^ ((tid as u64 + 1) << 32), len)
            } else {
                Vec::new()
            };
            ClientPlan {
                mix: &mix,
                requests: opts.requests,
                offset: tid,
                timeout_ms: opts.timeout_ms,
                write_frac: opts.write_frac,
                batch: opts.batch,
                churn,
            }
        })
        .collect();

    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| scope.spawn(move || run_client(addr, plan)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut write_latencies: Vec<u64> = Vec::new();
    let (mut ok, mut errors, mut timeouts, mut overloaded) = (0u64, 0u64, 0u64, 0u64);
    let mut write_rows = 0u64;
    for t in tallies {
        latencies.extend(t.latencies_us);
        write_latencies.extend(t.write_latencies_us);
        ok += t.ok;
        errors += t.errors;
        timeouts += t.timeouts;
        overloaded += t.overloaded;
        write_rows += t.write_rows;
    }
    latencies.sort_unstable();
    write_latencies.sort_unstable();
    let total = latencies.len() as u64;
    let writes = write_latencies.len() as u64;
    // Read qps — under mixed traffic this is the degradation number.
    let qps = total as f64 / wall.as_secs_f64().max(1e-9);
    let mean_us = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64;

    // Server-side view: cache hit rate + queue high-water from STATS.
    let stats = Conn::open(addr)
        .and_then(|mut c| c.roundtrip("STATS"))
        .unwrap_or(Json::Null);
    let hit_rate = stats
        .get("endpoints")
        .and_then(|e| e.get(ENDPOINT))
        .and_then(|e| e.get("cache_hit_rate"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let high_water = stats
        .get("server")
        .and_then(|s| s.get("queue_high_water"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    // Against an external server, --workers describes nothing — report
    // the target's actual pool size from STATS instead (also reflects
    // the CPU clamp on a spawned server).
    let workers = stats
        .get("workers")
        .and_then(Json::as_u64)
        .unwrap_or(opts.workers as u64);
    let rewriting = stats
        .get("endpoints")
        .and_then(|e| e.get(ENDPOINT))
        .and_then(|e| e.get("rewriting"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned();
    let ebox = stats
        .get("endpoints")
        .and_then(|e| e.get(ENDPOINT))
        .and_then(|e| e.get("ebox"))
        .and_then(Json::as_str)
        .unwrap_or("off")
        .to_owned();
    let ebox_constraints = stats
        .get("endpoints")
        .and_then(|e| e.get(ENDPOINT))
        .and_then(|e| e.get("ebox_constraints"))
        .and_then(Json::as_u64)
        .unwrap_or(0);

    let label = if opts.label.is_empty() {
        String::new()
    } else {
        format!(" label={}", opts.label)
    };
    println!(
        "loadgen report{label} workers={workers} rewriting={rewriting} ebox={ebox} connections={} requests={} mix_size={} warm={}",
        opts.connections,
        total,
        mix.len(),
        opts.warm,
    );
    println!(
        "  wall_s={:.3} qps={qps:.1} ok={ok} errors={errors} timeouts={timeouts} overloaded={overloaded}",
        wall.as_secs_f64()
    );
    println!(
        "  latency_us mean={mean_us:.0} p50={} p90={} p95={} p99={} max={}",
        pct(&latencies, 50.0),
        pct(&latencies, 90.0),
        pct(&latencies, 95.0),
        pct(&latencies, 99.0),
        latencies.last().copied().unwrap_or(0),
    );
    if writes > 0 {
        let wqps = writes as f64 / wall.as_secs_f64().max(1e-9);
        println!(
            "  writes={writes} write_qps={wqps:.1} batch={} rows_changed={write_rows} write_us p50={} p95={} p99={}",
            opts.batch,
            pct(&write_latencies, 50.0),
            pct(&write_latencies, 95.0),
            pct(&write_latencies, 99.0),
        );
    }
    println!("  server cache_hit_rate={hit_rate:.3} queue_high_water={high_water}");
    if opts.trace_slowest > 0 {
        print_slowest_traces(addr, opts.trace_slowest);
    }
    if opts.markdown {
        println!(
            "| {workers} | {} | {} | {:.0} | {:.1} | {:.1} | {:.1} | {:.3} |",
            opts.connections,
            if opts.warm { "warm" } else { "cold" },
            qps,
            pct(&latencies, 50.0) as f64 / 1000.0,
            pct(&latencies, 95.0) as f64 / 1000.0,
            pct(&latencies, 99.0) as f64 / 1000.0,
            hit_rate,
        );
    }
    if let Some(path) = &opts.json_path {
        let record = Json::obj(vec![
            ("label", opts.label.as_str().into()),
            ("kind", kind_name(opts.kind).into()),
            ("workers", workers.into()),
            ("rewriting", rewriting.as_str().into()),
            ("ebox", ebox.as_str().into()),
            ("ebox_constraints", ebox_constraints.into()),
            ("connections", opts.connections.into()),
            ("requests", total.into()),
            ("warm", Json::Bool(opts.warm)),
            ("qps", Json::Num(qps)),
            ("mean_us", Json::Num(mean_us)),
            ("p50_us", pct(&latencies, 50.0).into()),
            ("p90_us", pct(&latencies, 90.0).into()),
            ("p95_us", pct(&latencies, 95.0).into()),
            ("p99_us", pct(&latencies, 99.0).into()),
            ("max_us", latencies.last().copied().unwrap_or(0).into()),
            ("ok", ok.into()),
            ("errors", errors.into()),
            ("timeouts", timeouts.into()),
            ("overloaded", overloaded.into()),
            ("cache_hit_rate", Json::Num(hit_rate)),
            ("queue_high_water", high_water.into()),
            ("write_frac", Json::Num(opts.write_frac)),
            ("batch", opts.batch.into()),
            ("writes", writes.into()),
            ("write_rows", write_rows.into()),
            ("write_p50_us", pct(&write_latencies, 50.0).into()),
            ("write_p95_us", pct(&write_latencies, 95.0).into()),
            ("write_p99_us", pct(&write_latencies, 99.0).into()),
        ]);
        if let Err(e) = append_json_record(path, record) {
            eprintln!("loadgen: writing --json {path} failed: {e}");
            std::process::exit(1);
        }
        eprintln!("loadgen: appended run record to {path}");
    }

    if let Some(server) = spawned {
        server.shutdown();
        server.join();
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
