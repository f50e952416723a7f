//! The end-to-end drive: per round, set up the workload (inputs, server,
//! warm pass), run the closed loops over loopback TCP, tear down, and
//! check every answer outside the timed phase.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Instant;

use mastro::{demo, AboxDelta, Answers, DeltaStatement, QueryEngine};
use obda_dllite::{Abox, Tbox};
use obda_genont::{figure1_presets, ChurnFact, ChurnOp};
use obda_server::proto::answers_to_json;
use obda_server::{EndpointConfig, Json, Server, ServerConfig};
use quonto::{Classification, ClosureEngine, SccEngine};

use crate::ops::{self, Op, RoundPlan, Workload};

const ENDPOINT: &str = "uni";

/// One timed request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub conn: usize,
    pub seq: usize,
    pub class: usize,
    pub write: bool,
    pub latency_us: f64,
    pub ok: bool,
    pub wait_us: u64,
    pub exec_us: u64,
    /// Digest of the answers (reads), or `(arcs << 32) | unsat`
    /// (classifications).
    pub digest: u64,
    /// `(inserted, deleted)` of a write batch.
    pub changed: (u64, u64),
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub samples: Vec<Sample>,
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Server workers as the server resolved them (closure threads on
    /// fig1-classify).
    pub workers: u64,
    pub config: String,
}

/// The timed phase of one round; its samples follow the previous
/// rounds' in `RunResult::samples`.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub secs: f64,
    pub ops: usize,
    pub reads: usize,
}

impl Round {
    fn of(secs: f64, samples: &[Sample]) -> Round {
        Round {
            secs,
            ops: samples.len(),
            reads: samples.iter().filter(|s| !s.write).count(),
        }
    }
}

impl RunResult {
    /// Seconds of timed phase over all rounds.
    pub fn timed_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.secs).sum()
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }
}

/// Digest of a serialized answers array, eight bytes at a time. The
/// server writes answers with `answers_to_json` in one fixed form, so the
/// bytes a reply carries and the bytes of the expected answers are the
/// same exactly when the answers are.
pub fn answers_digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
        h = (h ^ w).wrapping_mul(PRIME).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

pub fn digest_of(answers: &Answers) -> u64 {
    answers_digest(answers_to_json(answers).to_string().as_bytes())
}

/// A reply line split in two: its fields other than `answers`, parsed,
/// and the digest of its `answers` array, if it has one.
#[derive(Debug)]
pub struct Reply {
    pub fields: Json,
    pub digest: Option<u64>,
}

impl Reply {
    fn u64(&self, key: &str) -> u64 {
        self.fields.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn ok(&self) -> bool {
        self.fields.get("status").and_then(Json::as_str) == Some("ok")
    }
}

/// Reads one reply line. An answer reply is
/// `{"id":…,"status":…,"rows":…,"answers":[…],"wait_us":…,"exec_us":…}`:
/// the answers array is digested as it came and only the other fields
/// are parsed. Parsing thousands of answer strings per reply took the
/// client longer than the server took to answer, so the closed loop
/// measured the client. A quote inside a JSON string is escaped, so
/// neither key pattern can match inside an answer.
pub fn read_reply(line: &str) -> Result<Reply, String> {
    const ANSWERS: &str = ",\"answers\":";
    const AFTER: &str = ",\"wait_us\":";
    let parse = |text: &str| Json::parse(text).map_err(|e| e.to_string());
    if let (Some(a), Some(b)) = (line.find(ANSWERS), line.rfind(AFTER)) {
        if a < b {
            let rest = format!("{}{}", &line[..a], &line[b..]);
            return Ok(Reply {
                fields: parse(&rest)?,
                digest: Some(answers_digest(&line.as_bytes()[a + ANSWERS.len()..b])),
            });
        }
    }
    Ok(Reply {
        fields: parse(line)?,
        digest: None,
    })
}

/// The wire form of one churn statement.
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

/// The in-process form of the same batch, as the server parses it.
pub fn delta_of(batch: &[ChurnOp]) -> AboxDelta {
    let stmt = |f: &ChurnFact| match f {
        ChurnFact::Concept {
            concept,
            individual,
        } => DeltaStatement::unary(concept, individual),
        ChurnFact::Role {
            role,
            subject,
            object,
        } => DeltaStatement::binary(role, subject, object),
        ChurnFact::Attr {
            attr,
            individual,
            text,
        } => DeltaStatement::binary(attr, individual, text),
    };
    let mut delta = AboxDelta::new();
    for op in batch {
        delta = match op {
            ChurnOp::Insert(f) => delta.insert(stmt(f)),
            ChurnOp::Delete(f) => delta.delete(stmt(f)),
        };
    }
    delta
}

/// The request line of one op (newline-terminated).
pub fn request_line(op: &Op) -> String {
    let mut line = match op {
        Op::Read { lang, text, .. } => Json::obj(vec![
            ("endpoint", ENDPOINT.into()),
            ("lang", lang.as_str().into()),
            ("query", text.as_str().into()),
        ]),
        Op::Write { batch } => {
            let (mut ins, mut del) = (Vec::new(), Vec::new());
            for op in batch {
                match op {
                    ChurnOp::Insert(f) => ins.push(statement_json(f)),
                    ChurnOp::Delete(f) => del.push(statement_json(f)),
                }
            }
            Json::obj(vec![
                ("endpoint", ENDPOINT.into()),
                ("insert", Json::Arr(ins)),
                ("delete", Json::Arr(del)),
            ])
        }
        Op::Classify { .. } => unreachable!("classifications are not sent to the server"),
    }
    .to_string();
    line.push('\n');
    line
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<Reply> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        self.reader.read_line(&mut self.buf)?;
        read_reply(self.buf.trim()).map_err(std::io::Error::other)
    }
}

/// Runs one connection's requests, timing each from send to read
/// reply.
fn client_loop(conn: &mut Conn, id: usize, ops: &[Op], lines: &[String]) -> Vec<Sample> {
    let mut out = Vec::with_capacity(lines.len());
    for (seq, (op, line)) in ops.iter().zip(lines).enumerate() {
        let t0 = Instant::now();
        let reply = conn.roundtrip(line);
        let latency_us = t0.elapsed().as_nanos() as f64 / 1e3;
        let (class, write) = match op {
            Op::Read { class, .. } => (*class, false),
            _ => (0, true),
        };
        out.push(Sample {
            conn: id,
            seq,
            class,
            write,
            latency_us,
            ok: reply.as_ref().is_ok_and(Reply::ok),
            wait_us: reply.as_ref().map_or(0, |r| r.u64("wait_us")),
            exec_us: reply.as_ref().map_or(0, |r| r.u64("exec_us")),
            digest: reply.as_ref().ok().and_then(|r| r.digest).unwrap_or(0),
            changed: reply
                .as_ref()
                .map_or((0, 0), |r| (r.u64("inserted"), r.u64("deleted"))),
        });
    }
    out
}

/// What the answer checks compare against, built once per run outside
/// every timed phase and outside `setup_s`.
#[allow(clippy::large_enum_variant)]
enum Reference {
    /// uni-read: digests of a virtual-mode engine's answers, per query.
    Digests(Vec<u64>),
    /// uni-lookup-virtual: the materialized engine, and the digests of
    /// the texts it has answered so far in the run.
    Engine(Box<dyn QueryEngine>, HashMap<String, u64>),
    /// uni-churn: the base ABox a fresh engine is rebuilt from.
    Base { tbox: Tbox, abox: Abox },
    /// fig1-classify: `(closure pairs, unsat)` per preset, by SccEngine.
    Counts(Vec<(usize, usize)>),
}

fn reference(w: Workload) -> Result<Reference, String> {
    let err = |e: mastro::ObdaError| e.to_string();
    Ok(match w {
        Workload::UniRead => {
            let scenario = w.scenario();
            let sys = w.engine_config_with_data("virtual").build_obda(
                scenario.tbox.clone(),
                demo::build_mappings(&scenario),
                demo::load_database(&scenario).map_err(err)?,
            );
            let sys = sys.map_err(err)?;
            let mut digests = Vec::new();
            for (_, lang, text) in ops::read_mix() {
                let answers = QueryEngine::answer(&sys, lang.to_engine(), &text).map_err(err)?;
                digests.push(digest_of(&answers));
            }
            Reference::Digests(digests)
        }
        Workload::UniLookupVirtual => {
            let scenario = w.scenario();
            let sys = w.engine_config_with_data("materialized").build_obda(
                scenario.tbox.clone(),
                demo::build_mappings(&scenario),
                demo::load_database(&scenario).map_err(err)?,
            );
            Reference::Engine(Box::new(sys.map_err(err)?), HashMap::new())
        }
        Workload::UniChurn => {
            let scenario = w.scenario();
            let sys = demo::build_system(&scenario).map_err(err)?;
            let abox = sys.materialized_abox().map_err(err)?.abox.clone();
            Reference::Base {
                tbox: scenario.tbox,
                abox,
            }
        }
        Workload::Fig1Classify => Reference::Counts(
            preset_tboxes()
                .iter()
                .map(|t| {
                    let c = Classification::classify_with(t, &SccEngine as &dyn ClosureEngine);
                    (c.closure().num_arcs(), c.unsat().len())
                })
                .collect(),
        ),
    })
}

/// The Figure-1 analogs at the benchmark's preset scale.
pub fn preset_tboxes() -> Vec<Tbox> {
    figure1_presets()
        .iter()
        .map(|s| s.scaled(ops::PRESET_SCALE).generate())
        .collect()
}

/// The server one round is served by.
pub fn start_server(w: Workload) -> Result<Server, String> {
    Server::start(ServerConfig {
        workers: 2,
        default_timeout_ms: 60_000,
        endpoints: vec![EndpointConfig {
            name: ENDPOINT.into(),
            kind: w.endpoint_kind().expect("a university workload"),
            scale: w.scale(),
            seed: ops::DATA_SEED,
            engine: w.engine_config(),
            ..EndpointConfig::default()
        }],
        ..ServerConfig::default()
    })
}

/// Drives a whole run: `ops::ROUNDS` set-ups, each followed by its share
/// of the timed ops and by the answer checks.
pub fn run(w: Workload, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let mut reference = reference(w)?;
    let mut res = match w {
        Workload::Fig1Classify => RunResult {
            config: format!("quonto::recommended() preset_scale={}", ops::PRESET_SCALE),
            workers: quonto::default_threads() as u64,
            ..RunResult::default()
        },
        _ => RunResult {
            config: w.engine_config().render(),
            ..RunResult::default()
        },
    };
    for round in 0..ops::ROUNDS {
        match w {
            Workload::Fig1Classify => classify_round(w, seed, seconds, round, &reference, &mut res),
            _ => server_round(w, seed, seconds, round, &mut reference, &mut res)?,
        }
    }
    Ok(res)
}

fn classify_round(
    w: Workload,
    seed: u64,
    seconds: u64,
    round: usize,
    reference: &Reference,
    res: &mut RunResult,
) {
    let t_setup = Instant::now();
    let plan = ops::round_plan(w, seed, seconds, round);
    let tboxes = preset_tboxes();
    res.setup_s.push(t_setup.elapsed().as_secs_f64());

    let ops = &plan.conns[0];
    let mut samples = Vec::with_capacity(ops.len());
    let t0 = Instant::now();
    for (seq, op) in ops.iter().enumerate() {
        let Op::Classify { class } = *op else {
            unreachable!("fig1-classify plans only classifications")
        };
        let t = Instant::now();
        let c = Classification::classify(&tboxes[class]);
        let latency_us = t.elapsed().as_nanos() as f64 / 1e3;
        let digest = ((c.closure().num_arcs() as u64) << 32) | c.unsat().len() as u64;
        samples.push(Sample {
            conn: 0,
            seq,
            class,
            write: false,
            latency_us,
            ok: true,
            wait_us: 0,
            exec_us: 0,
            digest,
            changed: (0, 0),
        });
    }
    res.rounds
        .push(Round::of(t0.elapsed().as_secs_f64(), &samples));

    let Reference::Counts(counts) = reference else {
        unreachable!("fig1-classify reference")
    };
    for s in samples.iter_mut() {
        res.attempted += 1;
        let (arcs, unsat) = counts[s.class];
        if s.digest != ((arcs as u64) << 32) | unsat as u64 {
            s.ok = false;
            let name = figure1_presets().swap_remove(s.class).name;
            res.fail(format!("classification of {name} disagrees with SccEngine"));
        }
    }
    res.samples.extend(samples);
}

fn server_round(
    w: Workload,
    seed: u64,
    seconds: u64,
    round: usize,
    reference: &mut Reference,
    res: &mut RunResult,
) -> Result<(), String> {
    let t_setup = Instant::now();
    let plan: RoundPlan = ops::round_plan(w, seed, seconds, round);
    let lines: Vec<Vec<String>> = plan
        .conns
        .iter()
        .map(|ops| ops.iter().map(request_line).collect())
        .collect();
    let server = start_server(w)?;
    let addr = server.addr();
    // The server's acceptor polls every 50 ms. Waiting for it to accept
    // the connections is idle time, not set-up work, and whether a
    // connection races the first poll would make `setup_s` bimodal: the
    // wait is taken out of `setup_s` and ends before any timed op.
    let t_accept = Instant::now();
    let conn_err = |e: std::io::Error| format!("connect to the server: {e}");
    let mut conns: Vec<Conn> = (0..=plan.conns.len())
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()
        .map_err(conn_err)?;
    for conn in &mut conns {
        let stats = conn.roundtrip("STATS\n").map_err(conn_err)?;
        if res.workers == 0 {
            res.workers = stats.u64("workers");
        }
    }
    let accept_wait = t_accept.elapsed();
    let mut warm = conns.pop().expect("a warm connection");
    for op in &plan.warm {
        res.attempted += 1;
        match warm.roundtrip(&request_line(op)) {
            Ok(r) if r.ok() => {}
            Ok(r) => res.fail(format!("warm request failed: {}", r.fields)),
            Err(e) => res.fail(format!("warm request failed: {e}")),
        }
    }
    res.setup_s
        .push((t_setup.elapsed() - accept_wait).as_secs_f64());

    let barrier = Barrier::new(conns.len() + 1);
    let (samples, timed) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(id, conn)| {
                let (ops, lines, barrier) = (&plan.conns[id], &lines[id], &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    client_loop(conn, id, ops, lines)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let samples: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        (samples, t0.elapsed().as_secs_f64())
    });
    res.rounds.push(Round::of(timed, &samples));
    drop(conns);

    let checked = check_round(w, &plan, samples, reference, &mut warm, res);
    drop(warm);
    server.shutdown();
    server.join();
    checked
}

fn check_round(
    w: Workload,
    plan: &RoundPlan,
    mut samples: Vec<Sample>,
    reference: &mut Reference,
    server: &mut Conn,
    res: &mut RunResult,
) -> Result<(), String> {
    let err = |e: mastro::ObdaError| e.to_string();
    let mut fails = Vec::new();
    for s in samples.iter_mut() {
        res.attempted += 1;
        let op = &plan.conns[s.conn][s.seq];
        if !s.ok {
            fails.push(format!("request {op:?} did not answer ok"));
            continue;
        }
        let expected = match (&mut *reference, op) {
            (Reference::Digests(d), Op::Read { class, .. }) => Some(d[*class]),
            // A lookup text comes back a few times per run: answer it once.
            (Reference::Engine(sys, known), Op::Read { lang, text, .. }) => match known.get(text) {
                Some(d) => Some(*d),
                None => {
                    let d = digest_of(&sys.answer(lang.to_engine(), text).map_err(err)?);
                    known.insert(text.clone(), d);
                    Some(d)
                }
            },
            // Churn reads race the writer; the final state is checked below.
            _ => None,
        };
        if expected.is_some_and(|d| d != s.digest) {
            s.ok = false;
            fails.push(format!("wrong answer to {op:?}"));
        }
    }
    if let Reference::Base { tbox, abox } = reference {
        // Replay writer A's batches in order on a fresh engine: every
        // batch must change what it changed on the server, and the
        // server must end in the same state.
        let engine = w
            .engine_config()
            .build_abox_engine(tbox.clone(), abox.clone());
        let mut writes: Vec<&mut Sample> = samples.iter_mut().filter(|s| s.write).collect();
        writes.sort_by_key(|s| (s.conn, s.seq));
        for s in writes {
            let Op::Write { batch } = &plan.conns[s.conn][s.seq] else {
                unreachable!("write samples come from write ops")
            };
            let sum = engine.apply_delta(&delta_of(batch)).map_err(err)?;
            if s.ok && (sum.inserted as u64, sum.deleted as u64) != s.changed {
                s.ok = false;
                fails.push(format!(
                    "write {batch:?} changed {:?} on the server",
                    s.changed
                ));
            }
        }
        for (_, lang, text) in ops::read_mix() {
            res.attempted += 1;
            let want = digest_of(&engine.answer(lang.to_engine(), &text).map_err(err)?);
            let got = server
                .roundtrip(&request_line(&Op::Read {
                    class: 0,
                    lang,
                    text: text.clone(),
                }))
                .ok()
                .and_then(|r| r.digest);
            if got != Some(want) {
                fails.push(format!("final state differs on {text}"));
            }
        }
    }
    for f in fails {
        res.fail(f);
    }
    res.samples.extend(samples);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mastro::AnswerTerm;
    use obda_server::proto::ok_response;

    fn answers(terms: &[&[&str]]) -> Answers {
        terms
            .iter()
            .map(|t| t.iter().map(|s| AnswerTerm::Iri(s.to_string())).collect())
            .collect()
    }

    #[test]
    fn a_reply_digests_its_answers_as_the_reference_does() {
        // Answers holding the key patterns, quotes and brackets must not
        // confuse the split.
        let a = answers(&[
            &["person/1", "x\",\"wait_us\":1"],
            &["],\"answers\":[", "course/2"],
        ]);
        let line = ok_response(&None, &a, 7, 42).to_string();
        let reply = read_reply(&line).expect("a reply");
        assert_eq!(reply.digest, Some(digest_of(&a)));
        assert!(reply.ok());
        assert_eq!((reply.u64("rows"), reply.u64("exec_us")), (2, 42));
        assert_ne!(reply.digest, Some(digest_of(&answers(&[&["person/1"]]))));
    }

    #[test]
    fn a_reply_without_answers_is_parsed_whole() {
        let reply =
            read_reply(r#"{"id":null,"status":"ok","inserted":3,"wait_us":0}"#).expect("a reply");
        assert_eq!((reply.digest, reply.u64("inserted")), (None, 3));
        assert!(read_reply("{\"status\":").is_err());
    }
}
