//! Loopback concurrency test: 8 client threads fire interleaved CQ and
//! SPARQL queries at a served endpoint and every response must be
//! byte-identical to single-threaded `AboxSystem` evaluation.

mod common;

use std::sync::Arc;
use std::thread;

use common::{status, Client};
use mastro::{demo, AboxSystem};
use obda_genont::university_scenario;
use obda_server::proto::answers_to_json;
use obda_server::{EndpointConfig, EndpointKind, Json, Server, ServerConfig};

const SCALE: usize = 2;
const SEED: u64 = 42;

/// The interleaved query mix: (lang, text) pairs covering the scenario's
/// CQ presets plus SPARQL SELECT/ASK forms.
fn query_mix() -> Vec<(&'static str, String)> {
    let mut mix: Vec<(&'static str, String)> = university_scenario(SCALE, SEED)
        .queries
        .into_iter()
        .map(|q| ("cq", q.text))
        .collect();
    mix.push(("sparql", "SELECT ?x WHERE { ?x a :Student }".into()));
    mix.push((
        "sparql",
        "SELECT ?x ?n WHERE { ?x a :GradStudent . ?x :personName ?n . }".into(),
    ));
    mix.push((
        "sparql",
        "ASK WHERE { ?x a :Professor . ?x :teacherOf ?y }".into(),
    ));
    mix
}

/// Single-threaded reference: the scenario materialized into an
/// `AboxSystem`, answers rendered exactly like the server renders them.
fn reference_answers(mix: &[(&'static str, String)]) -> Vec<String> {
    let scenario = university_scenario(SCALE, SEED);
    let sys = demo::build_system(&scenario).expect("reference system");
    let mat = sys.materialized_abox().expect("materializes");
    let abox_sys = AboxSystem::new(scenario.tbox.clone(), mat.abox.clone());
    mix.iter()
        .map(|(lang, text)| {
            let answers = match *lang {
                "cq" => abox_sys.answer(text).expect("reference answers"),
                _ => abox_sys.answer_sparql(text).expect("reference answers"),
            };
            answers_to_json(&answers).to_string()
        })
        .collect()
}

#[test]
fn eight_concurrent_clients_match_sequential_reference() {
    let mix = query_mix();
    let expected = Arc::new(reference_answers(&mix));
    let mix = Arc::new(mix);

    // Two endpoints over the same scenario: the plain ABox engine and
    // the full OBDA stack (PerfectRef over the materialized ABox). Both
    // must agree with the reference on every response.
    let server = Server::start(ServerConfig {
        workers: 4,
        endpoints: vec![
            EndpointConfig {
                name: "uni-abox".into(),
                kind: EndpointKind::UniversityAbox,
                scale: SCALE,
                seed: SEED,
                ..EndpointConfig::default()
            },
            EndpointConfig {
                name: "uni".into(),
                kind: EndpointKind::University,
                scale: SCALE,
                seed: SEED,
                ..EndpointConfig::default()
            },
        ],
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;
    let threads: Vec<_> = (0..CLIENTS)
        .map(|tid| {
            let mix = Arc::clone(&mix);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..ROUNDS {
                    for step in 0..mix.len() {
                        // Offset by thread id so the 8 clients interleave
                        // different queries at any instant.
                        let i = (tid + step + round) % mix.len();
                        let (lang, text) = &mix[i];
                        let endpoint = if (tid + step) % 2 == 0 {
                            "uni-abox"
                        } else {
                            "uni"
                        };
                        let resp = client.query(endpoint, lang, text, None);
                        assert_eq!(status(&resp), "ok", "client {tid} query {i}: {resp}");
                        let got = resp.get("answers").expect("answers field").to_string();
                        assert_eq!(
                            got, expected[i],
                            "client {tid} round {round} {lang} query {i} diverged on {endpoint}"
                        );
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    // The mix repeated across 8 clients × 3 rounds must have hit the
    // rewrite cache, and STATS must report it per endpoint.
    let mut client = Client::connect(addr);
    let stats = client.stats();
    assert_eq!(status(&stats), "ok");
    for ep in ["uni-abox", "uni"] {
        let section = stats
            .get("endpoints")
            .and_then(|e| e.get(ep))
            .unwrap_or_else(|| panic!("missing endpoint section {ep}: {stats}"));
        let hits = section.get("cache_hits").and_then(Json::as_u64).unwrap();
        let rate = section
            .get("cache_hit_rate")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(hits > 0, "{ep} cache_hits = 0: {stats}");
        assert!(rate > 0.0, "{ep} cache_hit_rate = 0: {stats}");
    }
    let server_section = stats.get("server").expect("server section");
    let ok = server_section.get("ok").and_then(Json::as_u64).unwrap();
    assert_eq!(ok, (CLIENTS * ROUNDS * mix.len()) as u64, "{stats}");

    server.shutdown();
    server.join();
}
