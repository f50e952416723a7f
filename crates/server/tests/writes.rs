//! Loopback tests for the INSERT/DELETE write verbs: a delta batch sent
//! over the wire must change what subsequent queries answer, a
//! delete-then-reinsert round trip must be byte-identical to the
//! original answers, PerfectRef and NDL endpoints fed the same writes
//! must agree, and a virtual-mode endpoint must reject writes with a
//! structured `unsupported` error instead of a panic.

mod common;

use std::sync::Arc;
use std::thread;

use common::{status, Client};
use mastro::{DataMode, RewritingMode};
use obda_server::{EndpointConfig, EndpointKind, Json, Server, ServerConfig};

/// A server with one materialized ABox endpoint (`uni`), its NDL twin
/// (`uni-ndl`), and one virtual-mode OBDA endpoint (`virt`).
fn write_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        endpoints: vec![
            EndpointConfig {
                name: "uni".into(),
                kind: EndpointKind::UniversityAbox,
                scale: 1,
                ..EndpointConfig::default()
            },
            EndpointConfig {
                name: "uni-ndl".into(),
                kind: EndpointKind::UniversityAbox,
                scale: 1,
                engine: EndpointConfig::default()
                    .engine
                    .rewriting(RewritingMode::Ndl),
                ..EndpointConfig::default()
            },
            EndpointConfig {
                name: "virt".into(),
                kind: EndpointKind::University,
                scale: 1,
                engine: EndpointConfig::default()
                    .engine
                    .data_mode(DataMode::Virtual),
                ..EndpointConfig::default()
            },
        ],
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn rows(resp: &Json) -> u64 {
    resp.get("rows")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response without rows: {resp}"))
}

fn count(resp: &Json, field: &str) -> u64 {
    resp.get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("response without {field}: {resp}"))
}

const STUDENTS: &str = "q(x) :- Student(x)";
const COURSES_OF: &str = "q(y) :- takesCourse(x, y), personName(x, \"Delta Test\")";

#[test]
fn writes_change_answers_and_round_trip_to_identical() {
    let server = write_server();
    let mut c = Client::connect(server.addr());

    let before = c.query("uni", "cq", STUDENTS, None);
    assert_eq!(status(&before), "ok");
    let baseline = rows(&before);
    assert!(baseline > 0);

    // Insert a fresh student with a name and two courses.
    let resp = c.roundtrip(
        r#"{"id":"w1","endpoint":"uni","insert":[
            ["Student","person/delta-test"],
            ["personName","person/delta-test","Delta Test"],
            ["takesCourse","person/delta-test","course/0"],
            ["takesCourse","person/delta-test","course/1"]]}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert_eq!(status(&resp), "ok", "{resp}");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("w1"));
    assert_eq!(count(&resp, "inserted"), 4);
    assert_eq!(count(&resp, "deleted"), 0);

    let after = c.query("uni", "cq", STUDENTS, None);
    assert_eq!(rows(&after), baseline + 1, "insert must land: {after}");
    let courses = c.query("uni", "cq", COURSES_OF, None);
    assert_eq!(rows(&courses), 2, "{courses}");

    // Duplicate insert is a no-op (0 changed rows, still ok).
    let dup = c.roundtrip(r#"{"endpoint":"uni","insert":[["Student","person/delta-test"]]}"#);
    assert_eq!(status(&dup), "ok");
    assert_eq!(count(&dup, "inserted"), 0);

    // Delete one course; the other must survive.
    let del = c.roundtrip(
        r#"{"endpoint":"uni","delete":[["takesCourse","person/delta-test","course/0"]]}"#,
    );
    assert_eq!(count(&del, "deleted"), 1);
    assert_eq!(rows(&c.query("uni", "cq", COURSES_OF, None)), 1);

    // Delete everything we added: answers must be byte-identical to the
    // pre-write baseline (the JSON rendering is canonical-sorted).
    let teardown = c.roundtrip(
        r#"{"endpoint":"uni","delete":[
            ["Student","person/delta-test"],
            ["personName","person/delta-test","Delta Test"],
            ["takesCourse","person/delta-test","course/1"]]}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert_eq!(status(&teardown), "ok", "{teardown}");
    assert_eq!(count(&teardown, "deleted"), 3);
    let restored = c.query("uni", "cq", STUDENTS, None);
    assert_eq!(
        restored.get("answers").map(Json::to_string),
        before.get("answers").map(Json::to_string),
        "round-trip must restore the exact answer set"
    );
}

#[test]
fn ndl_endpoint_answers_match_perfectref_after_writes() {
    let server = write_server();
    let mut c = Client::connect(server.addr());
    let batches = [
        r#"{"endpoint":"EP","insert":[["GradStudent","person/new-grad"],["takesCourse","person/new-grad","course/0"],["advisor","person/new-grad","person/0"]]}"#,
        r#"{"endpoint":"EP","delete":[["takesCourse","person/new-grad","course/0"]],"insert":[["takesCourse","person/new-grad","course/1"]]}"#,
        r#"{"endpoint":"EP","insert":[["Professor","person/new-prof"],["teacherOf","person/new-prof","course/1"]]}"#,
    ];
    let queries = [
        "q(x) :- Student(x)",
        "q(x, y) :- takesCourse(x, y)",
        "q(x, y) :- Professor(x), teacherOf(x, y)",
        "q(x) :- GradStudent(x), advisor(x, y)",
    ];
    for batch in batches {
        for ep in ["uni", "uni-ndl"] {
            let resp = c.roundtrip(&batch.replace("EP", ep));
            assert_eq!(status(&resp), "ok", "{ep}: {resp}");
        }
        for q in queries {
            let ucq = c.query("uni", "cq", q, None);
            let ndl = c.query("uni-ndl", "cq", q, None);
            assert_eq!(
                ucq.get("answers").map(Json::to_string),
                ndl.get("answers").map(Json::to_string),
                "NDL diverged on {q}"
            );
        }
    }
}

#[test]
fn virtual_endpoint_rejects_writes_with_unsupported() {
    let server = write_server();
    let mut c = Client::connect(server.addr());
    let resp = c.roundtrip(r#"{"id":"w9","endpoint":"virt","insert":[["Student","person/x"]]}"#);
    assert_eq!(status(&resp), "error", "{resp}");
    assert_eq!(resp.get("kind").and_then(Json::as_str), Some("unsupported"));
    // The connection stays usable and reads still work.
    let q = c.query("virt", "cq", STUDENTS, None);
    assert_eq!(status(&q), "ok");
    assert!(rows(&q) > 0);
}

#[test]
fn concurrent_readers_see_consistent_snapshots_during_writes() {
    let server = write_server();
    let addr = server.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Baseline captured before any writer starts, so readers have a
    // fixed reference (capturing it inside a reader would race the
    // writer's first insert).
    let baseline = {
        let mut c = Client::connect(addr);
        rows(&c.query("uni", "cq", STUDENTS, None))
    };

    // Writer: repeatedly insert and delete the same student.
    let writer = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut c = Client::connect(addr);
            for i in 0..40 {
                let ins = c.roundtrip(
                    r#"{"endpoint":"uni","insert":[["Student","person/churner"],["takesCourse","person/churner","course/0"]]}"#,
                );
                assert_eq!(status(&ins), "ok", "{ins}");
                let del = c.roundtrip(
                    r#"{"endpoint":"uni","delete":[["Student","person/churner"],["takesCourse","person/churner","course/0"]]}"#,
                );
                assert_eq!(status(&del), "ok", "{del}");
                if i % 8 == 0 {
                    thread::yield_now();
                }
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
        })
    };

    // Readers: every response must be a well-formed ok whose row count
    // is the baseline or baseline+1 — never a torn in-between state.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut c = Client::connect(addr);
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let resp = c.query("uni", "cq", STUDENTS, None);
                assert_eq!(status(&resp), "ok", "{resp}");
                let n = rows(&resp);
                assert!(
                    n == baseline || n == baseline + 1,
                    "torn read: {n} vs baseline {baseline}"
                );
            }
        }));
    }
    writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }

    // Final state: all churn deleted, baseline restored.
    let mut c = Client::connect(addr);
    let stats = c.stats();
    assert_eq!(status(&stats), "ok");
    server.join();
}
