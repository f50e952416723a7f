//! A new connection is taken as soon as it arrives: the acceptor waits
//! on the listener with `poll(2)` instead of sleeping a 50 ms tick
//! between non-blocking accepts, which made every connection's first
//! request wait up to a tick.

mod common;

use std::time::{Duration, Instant};

use common::Client;
use obda_server::{EndpointConfig, EndpointKind, Server, ServerConfig};

#[test]
fn first_requests_on_new_connections_are_not_held_for_a_tick() {
    let server = Server::start(ServerConfig {
        workers: 1,
        endpoints: vec![EndpointConfig {
            name: "uni".into(),
            kind: EndpointKind::UniversityAbox,
            scale: 1,
            seed: 7,
            ..EndpointConfig::default()
        }],
        ..ServerConfig::default()
    })
    .expect("server starts");
    // Twenty connections one after another, each timed from connect to
    // its first reply. A tick-sleeping acceptor spends ≈25 ms on
    // average per connection (≈500 ms in all); taken on arrival, each
    // costs well under a millisecond even in a debug build.
    let mut total = Duration::ZERO;
    for _ in 0..20 {
        let started = Instant::now();
        let mut client = Client::connect(server.addr());
        client.send_raw(b"STATS");
        let stats = client.read_response();
        total += started.elapsed();
        assert!(stats.get("server").is_some(), "not a STATS reply: {stats}");
    }
    assert!(
        total < Duration::from_millis(250),
        "20 first replies took {total:?}"
    );
    server.shutdown();
    server.join();
}
