//! **A1 ablation**: transitive-closure engine choice inside the
//! graph-based classifier, over the Figure 1 ontology suite.
//!
//! Every engine's closure is also checked node by node against
//! `SccEngine`'s; the bin exits 1 if any differs. The `fastest` column
//! names each row's fastest engine from that row's own timings.
//!
//! ```text
//! cargo run --release -p obda-bench --bin closure_report -- --scale 0.05
//! ```

use std::time::{Duration, Instant};

use quonto::{all_engines, Closure, ClosureEngine, NodeId, SccEngine, TboxGraph};

/// The first node whose successors differ, if any.
fn first_difference(got: &Closure, want: &Closure) -> Option<String> {
    if got.num_nodes() != want.num_nodes() {
        return Some(format!(
            "{} nodes, want {}",
            got.num_nodes(),
            want.num_nodes()
        ));
    }
    (0..want.num_nodes() as u32)
        .map(NodeId)
        .find(|&n| got.successors(n) != want.successors(n))
        .map(|n| {
            format!(
                "node {}: {} successors, want {}",
                n.0,
                got.successors(n).len(),
                want.successors(n).len()
            )
        })
}

fn main() {
    let scale = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1f64);
    let engines = all_engines();
    let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    println!(
        "A1 — closure-engine ablation ({}), scale={scale}\n",
        names.join(" / ")
    );
    let mut header = vec!["ontology".to_owned(), "nodes".into(), "edges".into()];
    header.extend(names.iter().map(|&n| n.to_owned()));
    header.push("closure arcs".into());
    header.push("fastest".into());
    let mut table = vec![header];
    let mut mismatches = Vec::new();
    for preset in obda_genont::figure1_presets() {
        let spec = preset.scaled(scale);
        let tbox = spec.generate();
        let graph = TboxGraph::build(&tbox);
        let mut cells = vec![
            spec.name.clone(),
            graph.num_nodes().to_string(),
            graph.num_edges().to_string(),
        ];
        let reference = SccEngine.compute(&graph);
        let mut fastest: Option<(Duration, &str)> = None;
        for engine in &engines {
            let t0 = Instant::now();
            let closure = engine.compute(&graph);
            let elapsed = t0.elapsed();
            if let Some(diff) = first_difference(&closure, &reference) {
                mismatches.push(format!("{} / {}: {diff}", spec.name, engine.name()));
            }
            if fastest.is_none_or(|(best, _)| elapsed < best) {
                fastest = Some((elapsed, engine.name()));
            }
            cells.push(format!("{elapsed:.2?}"));
        }
        cells.push(reference.num_arcs().to_string());
        cells.push(fastest.map_or("", |(_, name)| name).to_owned());
        table.push(cells);
    }
    println!("{}", obda_bench::render(&table));
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("closure differs from scc: {m}");
        }
        std::process::exit(1);
    }
}
