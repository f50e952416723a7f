//! `quonto-server`: the OBDA query service.
//!
//! ```text
//! quonto-server [--config server.json] [--addr HOST:PORT] [--workers N]
//!               [--queue N] [--scale N] [--seed N] [--endpoint-kind university|university-abox]
//!               [--exact-workers] [--access-log] [--summary-s N] [--smoke]
//! ```
//!
//! With no `--config`, serves one endpoint named `uni` (generated
//! university scenario, PerfectRef over the materialized ABox) on
//! `127.0.0.1:7077`. Flags override the corresponding config fields; a
//! malformed flag value prints the usage and exits with status 2.
//! `--smoke` boots on an ephemeral port, answers one self-issued query
//! plus `STATS`, then exits — the CI liveness check.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use obda_server::{config::EndpointKind, Json, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: quonto-server [--config FILE] [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \x20                    [--scale N] [--seed N] [--endpoint-kind university|university-abox]\n\
         \x20                    [--exact-workers] [--access-log] [--summary-s N] [--smoke]"
    );
    std::process::exit(2);
}

/// Parses a numeric flag value, or prints the usage and exits.
fn num<T: std::str::FromStr>(flag: &str, raw: String) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs a non-negative integer, got `{raw}`");
        usage()
    })
}

fn parse_args() -> (ServerConfig, bool) {
    let mut cfg: Option<ServerConfig> = None;
    let mut addr: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut queue: Option<usize> = None;
    let mut scale: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut kind: Option<EndpointKind> = None;
    let mut exact_workers = false;
    let mut access_log = false;
    let mut summary_s: Option<u64> = None;
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--config" => {
                let path = val("--config");
                match ServerConfig::from_file(&path) {
                    Ok(c) => cfg = Some(c),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--addr" => addr = Some(val("--addr")),
            "--workers" => workers = Some(num("--workers", val("--workers"))),
            "--queue" => queue = Some(num("--queue", val("--queue"))),
            "--scale" => scale = Some(num("--scale", val("--scale"))),
            "--seed" => seed = Some(num("--seed", val("--seed"))),
            "--endpoint-kind" => {
                kind = Some(match val("--endpoint-kind").as_str() {
                    "university" => EndpointKind::University,
                    "university-abox" => EndpointKind::UniversityAbox,
                    other => {
                        eprintln!("unknown endpoint kind `{other}`");
                        usage()
                    }
                })
            }
            "--exact-workers" => exact_workers = true,
            "--access-log" => access_log = true,
            "--summary-s" => summary_s = Some(num("--summary-s", val("--summary-s"))),
            "--smoke" => smoke = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }

    let mut cfg = cfg.unwrap_or_else(|| ServerConfig {
        addr: "127.0.0.1:7077".into(),
        summary_every_s: 30,
        ..ServerConfig::default()
    });
    if let Some(a) = addr {
        cfg.addr = a;
    }
    if let Some(w) = workers {
        cfg.workers = w;
    }
    if let Some(q) = queue {
        cfg.queue_capacity = q;
    }
    if let Some(s) = scale {
        for ep in &mut cfg.endpoints {
            ep.scale = s;
        }
    }
    if let Some(s) = seed {
        for ep in &mut cfg.endpoints {
            ep.seed = s;
        }
    }
    if let Some(k) = kind {
        for ep in &mut cfg.endpoints {
            ep.kind = k;
        }
    }
    if exact_workers {
        cfg.exact_workers = true;
    }
    if access_log {
        cfg.access_log = true;
    }
    if let Some(s) = summary_s {
        cfg.summary_every_s = s;
    }
    if smoke {
        cfg.addr = "127.0.0.1:0".into();
        cfg.summary_every_s = 0;
    }
    (cfg, smoke)
}

fn run_smoke(server: Server) -> ExitCode {
    let addr = server.addr();
    let result = (|| -> Result<(), String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut writer = stream;
        writer
            .write_all(b"{\"id\":\"smoke\",\"endpoint\":\"uni\",\"query\":\"q(x) :- Student(x)\"}\nSTATS\n")
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let resp = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("unexpected query response: {line}"));
        }
        let rows = resp.get("rows").and_then(Json::as_u64).unwrap_or(0);
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let stats = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let served = stats
            .get("server")
            .and_then(|s| s.get("ok"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if served != 1 {
            return Err(format!("stats did not count the query: {line}"));
        }
        println!("smoke ok: {rows} rows, stats verb live");
        Ok(())
    })();
    server.shutdown();
    server.join();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("smoke failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let (cfg, smoke) = parse_args();
    let endpoints: Vec<String> = cfg.endpoints.iter().map(|e| e.name.clone()).collect();
    eprintln!(
        "quonto-server loading {} endpoint(s): {} …",
        endpoints.len(),
        endpoints.join(", ")
    );
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("quonto-server failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("quonto-server listening on {}", server.addr());
    if smoke {
        return run_smoke(server);
    }
    server.run_until_signal();
    eprintln!("quonto-server stopped");
    ExitCode::SUCCESS
}
