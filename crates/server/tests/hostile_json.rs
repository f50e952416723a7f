//! Hostile-input tests for the hand-rolled JSON parser and the framing
//! layer around it: depth bombs at the exact cap boundary, NUL bytes,
//! over-long lines, a frame at the size cap, and multibyte UTF-8
//! truncated at a frame boundary.
//!
//! Two layers are probed. The parser itself (`Json::parse`) must turn
//! every attack into a `JsonError`, never a panic or a stack overflow.
//! The server on top must answer one `error` line per bad frame and
//! keep the connection usable — except for over-long frames, where the
//! stream can no longer be re-aligned and hanging up is the contract.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{status, Client};
use obda_server::json::MAX_DEPTH;
use obda_server::{EndpointConfig, EndpointKind, Json, Server, ServerConfig};

const Q: &str = "q(x) :- Student(x)";

fn small_server(max_line_bytes: usize) -> Server {
    Server::start(ServerConfig {
        workers: 1,
        max_line_bytes,
        endpoints: vec![EndpointConfig {
            name: "uni".into(),
            kind: EndpointKind::UniversityAbox,
            scale: 1,
            ..EndpointConfig::default()
        }],
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// `n` nested arrays: `[[…[]…]]`. The innermost array sits at recursion
/// depth `n - 1`, so `MAX_DEPTH + 1` levels parse and `MAX_DEPTH + 2`
/// must be rejected.
fn nested_arrays(n: usize) -> String {
    let mut s = String::with_capacity(2 * n);
    s.extend(std::iter::repeat_n('[', n));
    s.extend(std::iter::repeat_n(']', n));
    s
}

// ---------------------------------------------------------------------
// Parser layer: table-driven attacks against `Json::parse`.
// ---------------------------------------------------------------------

#[test]
fn depth_cap_boundary_is_exact() {
    // (nesting levels, must parse?)
    let cases = [
        (1, true),
        (MAX_DEPTH, true),
        (MAX_DEPTH + 1, true),  // innermost at depth == MAX_DEPTH: allowed
        (MAX_DEPTH + 2, false), // one past the cap: rejected
        (MAX_DEPTH + 100, false),
        (100_000, false), // would overflow the stack without the cap
    ];
    for (levels, ok) in cases {
        let src = nested_arrays(levels);
        let got = Json::parse(&src);
        assert_eq!(
            got.is_ok(),
            ok,
            "{levels} nested arrays: expected ok={ok}, got {got:?}"
        );
        if !ok {
            let err = got.expect_err("checked above").to_string();
            assert!(err.contains("nesting too deep"), "{err}");
        }
    }
    // Objects burn depth the same way: {"a":{"a":…}} with the innermost
    // value at depth `levels`.
    let deep_obj = |levels: usize| {
        let mut s = String::new();
        s.extend(std::iter::repeat_n(r#"{"a":"#, levels));
        s.push('1');
        s.extend(std::iter::repeat_n('}', levels));
        s
    };
    assert!(Json::parse(&deep_obj(MAX_DEPTH)).is_ok());
    assert!(Json::parse(&deep_obj(MAX_DEPTH + 1)).is_err());
}

#[test]
fn hostile_bytes_error_not_panic() {
    // (name, input bytes as &str) — every one must parse to Err.
    let table: &[(&str, &str)] = &[
        ("nul inside string", "{\"query\":\"q\u{0}x\"}"),
        ("nul between tokens", "{\u{0}}"),
        ("bare nul", "\u{0}"),
        ("control char in string", "\"a\u{1f}b\""),
        ("escape then eof", "\"\\"),
        ("truncated surrogate escape", "\"\\ud8"),
        ("high surrogate then garbage", "\"\\ud800x\""),
        ("minus only", "-"),
        ("exponent soup", "1e+e+e"),
        ("colon in array", "[1:2]"),
        ("unclosed everything", "{\"a\":[{\"b\":[\"c"),
        ("deep then junk", "[[[[[[[[[[!]]]]]]]]]]"),
    ];
    for (name, src) in table {
        assert!(Json::parse(src).is_err(), "{name}: {src:?} must fail");
    }
}

// ---------------------------------------------------------------------
// Wire layer: the same attacks through a real connection.
// ---------------------------------------------------------------------

#[test]
fn depth_bomb_frames_get_one_error_line_each() {
    let server = small_server(1 << 20);
    let mut c = Client::connect(server.addr());
    // A bomb just past the cap: error response, connection survives.
    let resp = c.roundtrip(&nested_arrays(MAX_DEPTH + 2));
    assert_eq!(status(&resp), "error");
    let err = resp.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(err.contains("nesting too deep"), "{err}");
    // A much bigger bomb: still one error line, still alive.
    assert_eq!(status(&c.roundtrip(&nested_arrays(10_000))), "error");
    // The connection answers real queries afterwards.
    assert_eq!(status(&c.query("uni", "cq", Q, None)), "ok");
    server.shutdown();
    server.join();
}

#[test]
fn nul_bytes_on_the_wire_are_an_error_not_a_hangup() {
    let server = small_server(1 << 20);
    let mut c = Client::connect(server.addr());
    // NUL inside the frame: valid UTF-8, invalid JSON.
    c.send_raw(b"{\"endpoint\":\"uni\",\"query\":\"q\x00\"}");
    assert_eq!(status(&c.read_response()), "error");
    // NUL as the whole frame.
    c.send_raw(b"\x00");
    assert_eq!(status(&c.read_response()), "error");
    assert_eq!(status(&c.query("uni", "cq", Q, None)), "ok");
    server.shutdown();
    server.join();
}

#[test]
fn overlong_line_errors_and_hangs_up_but_server_survives() {
    let server = small_server(256);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // 4 KiB with no newline: overflows max_line_bytes=256 while buffering.
    stream.write_all(&[b'x'; 4096]).expect("send flood");
    stream.flush().expect("flush");
    // The server answers `frame too long` and closes: read to EOF and
    // check the one line we got.
    let mut got = String::new();
    stream.read_to_string(&mut got).expect("read until close");
    let line = got.lines().next().expect("one error line before close");
    let resp = Json::parse(line).expect("error line is JSON");
    assert_eq!(status(&resp), "error");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .contains("frame too long"),
        "{resp}"
    );
    // The *server* is fine — a fresh connection gets real answers.
    assert_eq!(
        status(&Client::connect(addr).query("uni", "cq", Q, None)),
        "ok"
    );
    server.shutdown();
    server.join();
}

#[test]
fn a_megabyte_frame_gets_its_error_line_in_linear_time() {
    // One frame just under the default `max_line_bytes`, whose long
    // string is the `query` of an unknown endpoint: framing and parsing
    // it is all the work there is. Each byte must be looked at a bounded
    // number of times; re-scanning the buffer per read or re-validating
    // the rest of the input per string character would make this frame
    // cost tens of seconds of a connection thread's CPU.
    let max_line_bytes = ServerConfig::default().max_line_bytes;
    let server = small_server(max_line_bytes);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let head = r#"{"endpoint":"nowhere","query":""#;
    let tail = "\"}\n";
    let mut frame = String::with_capacity(max_line_bytes);
    frame.push_str(head);
    // Mostly plain text, with an escape and a multibyte char in every
    // 64 bytes so runs end and restart throughout.
    let unit = format!("{}\\né", "x".repeat(60));
    while frame.len() + unit.len() + tail.len() <= max_line_bytes {
        frame.push_str(&unit);
    }
    frame.push_str(tail);
    let started = Instant::now();
    stream.write_all(frame.as_bytes()).expect("send frame");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("one error line within 5 s");
    let elapsed = started.elapsed();
    let resp = Json::parse(line.trim()).expect("error line is JSON");
    assert_eq!(status(&resp), "error");
    assert_eq!(
        resp.get("kind").and_then(Json::as_str),
        Some("unknown_endpoint"),
        "{resp}"
    );
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    // The same connection answers a normal query afterwards.
    let query = format!("{{\"endpoint\":\"uni\",\"lang\":\"cq\",\"query\":\"{Q}\"}}\n");
    stream.write_all(query.as_bytes()).expect("send query");
    line.clear();
    reader.read_line(&mut line).expect("answer");
    let resp = Json::parse(line.trim()).expect("answer is JSON");
    assert_eq!(status(&resp), "ok", "{resp}");
    server.shutdown();
    server.join();
}

#[test]
fn truncated_multibyte_at_frame_boundary_is_invalid_utf8_error() {
    let server = small_server(1 << 20);
    let mut c = Client::connect(server.addr());
    // 'é' is 0xC3 0xA9; ship only the lead byte, then end the frame. The
    // newline lands where the continuation byte should be, so the frame
    // is not UTF-8.
    c.send_raw(b"{\"endpoint\":\"uni\",\"query\":\"caf\xC3\"}");
    let resp = c.read_response();
    assert_eq!(status(&resp), "error");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .contains("invalid utf-8"),
        "{resp}"
    );
    // Same for a 4-byte emoji cut after three bytes.
    c.send_raw(b"\"\xF0\x9F\x98\"");
    assert_eq!(status(&c.read_response()), "error");
    // The connection survives both.
    assert_eq!(status(&c.query("uni", "cq", Q, None)), "ok");
    server.shutdown();
    server.join();
}

#[test]
fn multibyte_split_across_tcp_writes_reassembles() {
    // The framing buffer accumulates until the newline, so a multibyte
    // char split across two `write` calls must *parse*, not error: the
    // split is a transport artifact, not a malformed frame.
    let server = small_server(1 << 20);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let frame = "{\"endpoint\":\"uni\",\"lang\":\"cq\",\"query\":\"q(x) :- Café(x)\"}\n";
    let bytes = frame.as_bytes();
    // Split inside the 'é' (0xC3 0xA9).
    let cut = frame.find('é').expect("é present") + 1;
    stream.write_all(&bytes[..cut]).expect("first half");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(&bytes[cut..]).expect("second half");
    stream.flush().expect("flush");
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("response");
    let resp = Json::parse(line.trim()).expect("valid JSON response");
    // `Café` is not a predicate in the scenario, so this is an engine
    // error — but crucially an *unknown predicate* error, proving the
    // frame reassembled into valid UTF-8 instead of dying at the
    // framing layer.
    assert_eq!(status(&resp), "error");
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .contains("unknown predicate"),
        "{resp}"
    );
    server.shutdown();
    server.join();
}
