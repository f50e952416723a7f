//! The block path of [`ChunkedBitsetEngine`] — many 64-component blocks,
//! large cycles, lists written straight from the bit sweep — checked node
//! by node against the sequential engines, and as the starting point of
//! incremental classification.

use obda_dllite::Tbox;
use obda_genont::{presets, random_tbox};
use quonto::closure::Condensation;
use quonto::{
    ChunkedBitsetEngine, Classification, Closure, ClosureEngine, DfsEngine, NodeId, SccEngine,
    TboxGraph,
};

fn assert_same(got: &Closure, want: &Closure, what: &str) {
    assert_eq!(got.num_nodes(), want.num_nodes(), "{what}: node count");
    for v in 0..want.num_nodes() as u32 {
        assert_eq!(
            got.successors(NodeId(v)),
            want.successors(NodeId(v)),
            "{what}: node {v}"
        );
    }
    assert_eq!(got.num_arcs(), want.num_arcs(), "{what}: arc count");
}

#[test]
fn chunked_matches_scc_and_dfs_on_block_spanning_presets() {
    let mut largest_scc = 0;
    for spec in [presets::galen(), presets::fma_2_0()] {
        let spec = spec.scaled(0.05);
        let g = TboxGraph::build(&spec.generate());
        let cond = Condensation::build(&g);
        assert!(
            cond.num_comps() > 10 * 64,
            "{}: {} components do not span many blocks",
            spec.name,
            cond.num_comps()
        );
        largest_scc = cond
            .members
            .iter()
            .map(Vec::len)
            .fold(largest_scc, usize::max);
        let scc = SccEngine.compute(&g);
        let dfs = DfsEngine.compute(&g);
        assert_same(&scc, &dfs, &format!("{} scc vs dfs", spec.name));
        for threads in [1, 2, 3] {
            let chunked = ChunkedBitsetEngine::with_threads(threads).compute(&g);
            let what = format!("{} chunked-bitset at {threads} threads", spec.name);
            assert_same(&chunked, &scc, &what);
        }
    }
    // Galen's analog is the cyclic one: the block path must carry a cycle
    // of several hundred nodes.
    assert!(largest_scc >= 200, "largest SCC has {largest_scc} nodes");
}

fn has_cycle(c: &Classification) -> bool {
    let closure = c.closure();
    (0..closure.num_nodes() as u32).any(|v| closure.successors(NodeId(v)).contains(&v))
}

#[test]
fn incremental_from_chunked_matches_scratch_on_cyclic_tboxes() {
    let chunked = ChunkedBitsetEngine::with_threads(2);
    let (mut cyclic_starts, mut closing_axioms) = (0, 0);
    for seed in 0u64..300 {
        let full = random_tbox(seed, 8, 2, 1, 24);
        let axioms = full.axioms().to_vec();
        let split = axioms.len() / 2;
        let mut base = Tbox::with_signature(full.sig.clone());
        for ax in &axioms[..split] {
            base.add(*ax);
        }
        let mut incremental = Classification::classify_with(&base, &chunked);
        if !has_cycle(&incremental) {
            continue;
        }
        cyclic_starts += 1;
        for (k, ax) in axioms[split..].iter().enumerate() {
            let comps = Condensation::build(incremental.graph()).num_comps();
            incremental.add_axioms(&[*ax]);
            base.add(*ax);
            if Condensation::build(incremental.graph()).num_comps() < comps {
                closing_axioms += 1;
            }
            let scratch = Classification::classify(&base);
            let what = format!("seed {seed}, after adding axiom {k}");
            assert_same(incremental.closure(), scratch.closure(), &what);
            assert_eq!(
                incremental.unsat().members(),
                scratch.unsat().members(),
                "{what}: unsat sets"
            );
        }
    }
    assert!(
        cyclic_starts >= 100,
        "only {cyclic_starts} seeds start cyclic"
    );
    assert!(
        closing_axioms >= 50,
        "only {closing_axioms} axioms close a cycle"
    );
}
