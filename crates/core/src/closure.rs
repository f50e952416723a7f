//! Transitive-closure engines for the TBox digraph.
//!
//! The paper's classification technique reduces to computing the
//! transitive closure `G_T*` of the digraph of Definition 1. How the
//! closure is computed is an implementation choice with large performance
//! consequences, so this module provides several interchangeable engines
//! behind the [`ClosureEngine`] trait (benchmarked against each other in
//! the `closure_ablation` bench):
//!
//! * [`DfsEngine`] — per-source iterative depth-first reachability;
//! * [`BfsEngine`] — per-source breadth-first reachability;
//! * [`SccEngine`] — Tarjan SCC condensation followed by reachable-set
//!   propagation in reverse topological order (cycle-heavy ontologies
//!   collapse to small DAGs; this is the default, see [`recommended`]);
//! * [`BitsetEngine`] — dense bit-matrix closure over the condensation,
//!   `O(V·E/64)`; fastest on small dense graphs but requires `O(V²/8)`
//!   bytes, so it refuses graphs above a node threshold.
//!
//! All engines produce the same [`Closure`]: a sorted successor list over
//! `NodeId`s for every node. The members of a strongly connected
//! component (SCC) reach exactly the same nodes, so the SCC-based engines
//! store one list per component and an index from each node to its list;
//! a Galen-style cycle of a thousand concepts then costs one list, not a
//! thousand copies. The per-source engines (DFS, BFS) store one list per
//! node. A node is listed as its own successor only when it lies on a
//! cycle (`S ⊑ … ⊑ S` through at least one arc); the trivial reflexive
//! subsumption is handled by [`Closure::reaches`] directly.

use crate::graph::{NodeId, TboxGraph};

/// The transitive closure of a [`TboxGraph`]: sorted successor lists,
/// shared between nodes that reach each other.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Index into `lists` of each node's successor list.
    list_of: Vec<u32>,
    /// Sorted successor lists. Nodes share a list only when they are
    /// mutually reachable, which makes their successors equal.
    lists: Vec<Vec<u32>>,
}

impl Closure {
    /// Builds a closure from sorted successor lists and the index of each
    /// node's list in `lists`. Nodes may share a list only when they are
    /// mutually reachable: the SCC engines pass one list per component
    /// (indexed by `Condensation::comp_of`), the per-source engines one
    /// list per node.
    pub(crate) fn new(list_of: Vec<u32>, lists: Vec<Vec<u32>>) -> Self {
        Closure { list_of, lists }
    }

    /// Non-trivial successors of `n` (nodes reachable through at least one
    /// arc), sorted ascending.
    #[inline]
    pub fn successors(&self, n: NodeId) -> &[u32] {
        &self.lists[self.list_of[n.index()] as usize]
    }

    /// Whether `to` is reachable from `from` (reflexively: `reaches(n, n)`
    /// is always true).
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        from == to || self.successors(from).binary_search(&to.0).is_ok()
    }

    /// Incrementally incorporates a *new* graph arc `(from, to)` into the
    /// closure (the graph must already contain the arc): every node with
    /// a path to `from` gains `to` and everything `to` reaches. This is
    /// the classic one-edge transitive-closure update —
    /// `O(|pred*(from)| · |succ*(to)|)` sorted-merge work — which keeps
    /// re-classification after small ontology edits far cheaper than a
    /// full recomputation (see `Classification::add_axioms`).
    ///
    /// Each distinct list is merged once. Nodes that share a list reach
    /// each other, so either all of them reach `from` or none does, and
    /// they all gain the same targets; adding arcs never separates them,
    /// so they can go on sharing.
    pub fn insert_edge(&mut self, g: &TboxGraph, from: NodeId, to: NodeId) {
        if self.reaches(from, to) {
            return;
        }
        // Targets: `to` plus everything it already reaches (`to` may be in
        // its own list when it lies on a cycle — keep the list duplicate
        // free).
        let mut targets: Vec<u32> = self.successors(to).to_vec();
        if let Err(pos) = targets.binary_search(&to.0) {
            targets.insert(pos, to.0);
        }
        let mut merged_already = vec![false; self.lists.len()];
        // One scratch buffer reused across lists: after each merge it
        // swaps with the list's old contents, so the loop allocates at
        // most once per call instead of once per list.
        let mut merged: Vec<u32> = Vec::new();
        for p in predecessors_reflexive(g, from) {
            let l = self.list_of[p as usize] as usize;
            if std::mem::replace(&mut merged_already[l], true) {
                continue;
            }
            let existing = &self.lists[l];
            // Sorted merge, skipping already-present targets.
            merged.clear();
            merged.reserve(existing.len() + targets.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < existing.len() || j < targets.len() {
                match (existing.get(i), targets.get(j)) {
                    (Some(&e), Some(&t)) if e < t => {
                        merged.push(e);
                        i += 1;
                    }
                    (Some(&e), Some(&t)) if e > t => {
                        merged.push(t);
                        j += 1;
                    }
                    (Some(&e), Some(_)) => {
                        merged.push(e);
                        i += 1;
                        j += 1;
                    }
                    (Some(&e), None) => {
                        merged.push(e);
                        i += 1;
                    }
                    (None, Some(&t)) => {
                        merged.push(t);
                        j += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            // Reflexive entries stay correct by construction: `p` enters
            // `merged` from `targets` only when the new arc closes a
            // cycle through `p`, and from `existing` only if it was
            // already on one.
            std::mem::swap(&mut self.lists[l], &mut merged);
        }
    }

    /// Total number of arcs in the closure, counted per node (a list
    /// shared by `k` nodes counts `k` times).
    pub fn num_arcs(&self) -> usize {
        self.list_of
            .iter()
            .map(|&l| self.lists[l as usize].len())
            .sum()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.list_of.len()
    }
}

/// Strategy interface for computing the closure of a TBox digraph.
pub trait ClosureEngine {
    /// Human-readable engine name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// Computes the transitive closure.
    fn compute(&self, g: &TboxGraph) -> Closure;

    /// Number of worker threads the engine uses (1 for the sequential
    /// engines; reported in the `QUONTO_TIMINGS` breakdown).
    fn threads(&self) -> usize {
        1
    }

    /// For meta-engines ([`AutoEngine`]): the concrete engine chosen for
    /// this graph, so callers can attribute timings to it. Concrete
    /// engines return `None`.
    fn select_for(&self, _g: &TboxGraph) -> Option<Box<dyn ClosureEngine>> {
        None
    }
}

/// Returns the engine used by default throughout the crate:
/// [`AutoEngine`], which picks a concrete engine from the graph size and
/// the machine's available parallelism at `compute` time, honouring the
/// `QUONTO_CLOSURE` environment override (see [`AutoEngine`] for the
/// selection rule and the accepted override values).
pub fn recommended() -> Box<dyn ClosureEngine> {
    Box::new(AutoEngine::default())
}

/// Like [`recommended`], with an explicit worker-thread knob (`0` = all
/// available cores) — used by the benchmark harness's `--threads` flag.
pub fn recommended_with_threads(threads: usize) -> Box<dyn ClosureEngine> {
    Box::new(AutoEngine::with_threads(threads))
}

/// Engine that defers selection to `compute` time, when both the graph
/// size and the machine's parallelism are known.
///
/// Selection rule (see DESIGN.md "Engine selection & parallel scaling"):
///
/// 1. If `QUONTO_CLOSURE` is set to `dfs`, `bfs`, `scc`, `bitset`, `par`
///    (par-scc) or `chunked` (chunked-bitset), that engine is used
///    unconditionally (`auto` restores the heuristic).
/// 2. Graphs under [`AutoEngine::SMALL_GRAPH`] nodes use [`SccEngine`]:
///    thread spawn/join overhead dominates below that size.
/// 3. With one usable core, dense graphs up to
///    [`BitsetEngine::MAX_NODES`] use [`BitsetEngine`], larger ones
///    [`SccEngine`].
/// 4. With multiple cores, everything else uses the block-parallel
///    [`ChunkedBitsetEngine`](crate::closure_par::ChunkedBitsetEngine),
///    whose `O(V)`-per-block memory never trips a size gate.
#[derive(Debug, Clone, Copy)]
pub struct AutoEngine {
    threads: usize,
}

impl AutoEngine {
    /// Below this node count the sequential SCC engine always wins.
    pub const SMALL_GRAPH: usize = 2048;

    /// Auto-selection with an explicit thread knob (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        AutoEngine {
            threads: if threads == 0 {
                crate::closure_par::default_threads()
            } else {
                threads
            },
        }
    }

    /// Resolves the concrete engine for a given graph (public so the
    /// timing breakdown can name the selected engine).
    pub fn select(&self, g: &TboxGraph) -> Box<dyn ClosureEngine> {
        use crate::closure_par::{ChunkedBitsetEngine, ParSccEngine};
        if let Some(name) = crate::env::closure_engine() {
            match name.as_str() {
                "dfs" => return Box::new(DfsEngine),
                "bfs" => return Box::new(BfsEngine),
                "scc" => return Box::new(SccEngine),
                "bitset" => return Box::new(BitsetEngine),
                "par" | "par-scc" => return Box::new(ParSccEngine::with_threads(self.threads)),
                "chunked" | "chunked-bitset" => {
                    return Box::new(ChunkedBitsetEngine::with_threads(self.threads))
                }
                _ => {} // "auto" and unknown values fall through
            }
        }
        let n = g.num_nodes();
        if n < Self::SMALL_GRAPH {
            Box::new(SccEngine)
        } else if self.threads <= 1 {
            if n <= BitsetEngine::MAX_NODES {
                Box::new(BitsetEngine)
            } else {
                Box::new(SccEngine)
            }
        } else {
            Box::new(ChunkedBitsetEngine::with_threads(self.threads))
        }
    }
}

impl Default for AutoEngine {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

impl ClosureEngine for AutoEngine {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        self.select(g).compute(g)
    }

    fn select_for(&self, g: &TboxGraph) -> Option<Box<dyn ClosureEngine>> {
        Some(self.select(g))
    }
}

/// Per-source iterative DFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsEngine;

impl ClosureEngine for DfsEngine {
    fn name(&self) -> &'static str {
        "dfs"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let n = g.num_nodes();
        let mut succ = vec![Vec::new(); n];
        // Epoch-stamped visited marks avoid clearing between sources.
        let mut mark = vec![u32::MAX; n];
        let mut stack: Vec<u32> = Vec::new();
        for src in 0..n as u32 {
            let mut out = Vec::new();
            stack.extend_from_slice(g.successors(NodeId(src)));
            while let Some(v) = stack.pop() {
                if mark[v as usize] == src {
                    continue;
                }
                mark[v as usize] = src;
                out.push(v);
                stack.extend_from_slice(g.successors(NodeId(v)));
            }
            out.sort_unstable();
            succ[src as usize] = out;
        }
        Closure::new((0..n as u32).collect(), succ)
    }
}

/// Per-source BFS with a reusable queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsEngine;

impl ClosureEngine for BfsEngine {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let n = g.num_nodes();
        let mut succ = vec![Vec::new(); n];
        let mut mark = vec![u32::MAX; n];
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for src in 0..n as u32 {
            let mut out = Vec::new();
            for &v in g.successors(NodeId(src)) {
                if mark[v as usize] != src {
                    mark[v as usize] = src;
                    queue.push_back(v);
                    out.push(v);
                }
            }
            while let Some(v) = queue.pop_front() {
                for &w in g.successors(NodeId(v)) {
                    if mark[w as usize] != src {
                        mark[w as usize] = src;
                        queue.push_back(w);
                        out.push(w);
                    }
                }
            }
            out.sort_unstable();
            succ[src as usize] = out;
        }
        Closure::new((0..n as u32).collect(), succ)
    }
}

/// Strongly-connected-component condensation of a [`TboxGraph`], computed
/// with an iterative Tarjan algorithm (safe for very deep hierarchies).
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id of each node.
    pub comp_of: Vec<u32>,
    /// Members of each component.
    pub members: Vec<Vec<u32>>,
    /// Condensed adjacency (deduplicated), indexed by component id.
    pub comp_succ: Vec<Vec<u32>>,
    /// Component ids in reverse topological order (every component appears
    /// after all components it can reach).
    pub rev_topo: Vec<u32>,
}

impl Condensation {
    /// Computes the condensation of `g`.
    pub fn build(g: &TboxGraph) -> Self {
        let n = g.num_nodes();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp_of = vec![0u32; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut next_index = 0u32;
        // Explicit DFS call stack: (node, next-successor position).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNVISITED {
                continue;
            }
            call.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut pos)) = call.last_mut() {
                let succs = g.successors(NodeId(v));
                if *pos < succs.len() {
                    let w = succs[*pos];
                    *pos += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        low[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        low[parent as usize] = low[parent as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        let cid = members.len() as u32;
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp_of[w as usize] = cid;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        members.push(comp);
                    }
                }
            }
        }
        // Tarjan emits components in reverse topological order already.
        let num_comps = members.len();
        let mut comp_succ: Vec<Vec<u32>> = vec![Vec::new(); num_comps];
        for v in 0..n as u32 {
            let cv = comp_of[v as usize];
            for &w in g.successors(NodeId(v)) {
                let cw = comp_of[w as usize];
                if cv != cw {
                    comp_succ[cv as usize].push(cw);
                }
            }
        }
        for list in &mut comp_succ {
            list.sort_unstable();
            list.dedup();
        }
        let rev_topo: Vec<u32> = (0..num_comps as u32).collect();
        Condensation {
            comp_of,
            members,
            comp_succ,
            rev_topo,
        }
    }

    /// Number of components.
    pub fn num_comps(&self) -> usize {
        self.members.len()
    }

    /// The sorted successor list shared by the members of component `c`,
    /// given the components `reach` it reaches (excluding `c` itself):
    /// their members, plus `c`'s own members when `c` is a cycle.
    pub(crate) fn component_successors(&self, c: usize, reach: &[u32]) -> Vec<u32> {
        let own = &self.members[c];
        let cyclic = own.len() > 1;
        let mut out: Vec<u32> = Vec::with_capacity(
            if cyclic { own.len() } else { 0 }
                + reach
                    .iter()
                    .map(|&d| self.members[d as usize].len())
                    .sum::<usize>(),
        );
        if cyclic {
            out.extend_from_slice(own);
        }
        for &d in reach {
            out.extend_from_slice(&self.members[d as usize]);
        }
        out.sort_unstable();
        out
    }
}

/// SCC condensation + reachable-set propagation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SccEngine;

impl ClosureEngine for SccEngine {
    fn name(&self) -> &'static str {
        "scc"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let cond = Condensation::build(g);
        let nc = cond.num_comps();
        // reach[c] = sorted list of component ids reachable from c
        // (excluding c itself).
        let mut reach: Vec<Vec<u32>> = vec![Vec::new(); nc];
        let mut mark = vec![u32::MAX; nc];
        // rev_topo: component 0 is emitted first by Tarjan and can only
        // reach components already emitted, so ascending order works.
        for c in 0..nc as u32 {
            let mut out: Vec<u32> = Vec::new();
            for &d in &cond.comp_succ[c as usize] {
                if mark[d as usize] != c {
                    mark[d as usize] = c;
                    out.push(d);
                }
                for &e in &reach[d as usize] {
                    if mark[e as usize] != c {
                        mark[e as usize] = c;
                        out.push(e);
                    }
                }
            }
            out.sort_unstable();
            reach[c as usize] = out;
        }
        let lists = (0..nc)
            .map(|c| cond.component_successors(c, &reach[c]))
            .collect();
        Closure::new(cond.comp_of, lists)
    }
}

/// Dense bit-matrix closure over the condensation. Requires `O(V²/8)`
/// bytes; [`BitsetEngine::MAX_NODES`] guards against accidental use on
/// huge graphs (it falls back to [`SccEngine`] above the threshold).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitsetEngine;

impl BitsetEngine {
    /// Node-count threshold above which the engine delegates to
    /// [`SccEngine`] instead of allocating a quadratic bit matrix.
    pub const MAX_NODES: usize = 1 << 15;
}

impl ClosureEngine for BitsetEngine {
    fn name(&self) -> &'static str {
        "bitset"
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        if g.num_nodes() > Self::MAX_NODES {
            return SccEngine.compute(g);
        }
        let cond = Condensation::build(g);
        let nc = cond.num_comps();
        let words = nc.div_ceil(64);
        let mut rows = vec![0u64; nc * words];
        // Ascending component order = reverse topological (see SccEngine).
        for c in 0..nc {
            // Split rows at c*words so we can read successor rows (< c)
            // while writing row c.
            let (done, rest) = rows.split_at_mut(c * words);
            let row = &mut rest[..words];
            for &d in &cond.comp_succ[c] {
                let d = d as usize;
                debug_assert!(d < c);
                row[d / 64] |= 1u64 << (d % 64);
                let drow = &done[d * words..(d + 1) * words];
                for (rw, dw) in row.iter_mut().zip(drow) {
                    *rw |= dw;
                }
            }
        }
        let lists = (0..nc)
            .map(|c| {
                let mut reach: Vec<u32> = Vec::new();
                for (wi, &word) in rows[c * words..(c + 1) * words].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        reach.push((wi * 64) as u32 + bits.trailing_zeros());
                        bits &= bits - 1;
                    }
                }
                cond.component_successors(c, &reach)
            })
            .collect();
        Closure::new(cond.comp_of, lists)
    }
}

/// All engines, for ablation benchmarks and cross-checking tests. The
/// parallel engines are included with their default (all-cores) thread
/// counts.
pub fn all_engines() -> Vec<Box<dyn ClosureEngine>> {
    vec![
        Box::new(DfsEngine),
        Box::new(BfsEngine),
        Box::new(SccEngine),
        Box::new(BitsetEngine),
        Box::new(crate::closure_par::ParSccEngine::default()),
        Box::new(crate::closure_par::ChunkedBitsetEngine::default()),
    ]
}

/// Reflexive predecessors of `n` in the *original* graph `g`: every node
/// with a (possibly empty) path to `n`. Used by `computeUnsat` to resolve
/// the `predecessors(S, G_T*)` sets of the paper without materializing the
/// reverse closure.
pub fn predecessors_reflexive(g: &TboxGraph, n: NodeId) -> Vec<u32> {
    let mut seen = vec![false; g.num_nodes()];
    let mut out = vec![n.0];
    seen[n.index()] = true;
    let mut stack = vec![n.0];
    while let Some(v) = stack.pop() {
        for &p in g.predecessors(NodeId(v)) {
            if !seen[p as usize] {
                seen[p as usize] = true;
                out.push(p);
                stack.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obda_dllite::parse_tbox;

    fn closure_of(src: &str, engine: &dyn ClosureEngine) -> (TboxGraph, Closure) {
        let t = parse_tbox(src).unwrap();
        let g = TboxGraph::build(&t);
        let c = engine.compute(&g);
        (g, c)
    }

    const CHAIN: &str = "concept A B C D\nA [= B\nB [= C\nC [= D";

    #[test]
    fn chain_reachability_all_engines() {
        for e in all_engines() {
            let (g, c) = closure_of(CHAIN, e.as_ref());
            // A reaches B, C, D.
            assert_eq!(c.successors(NodeId(0)), &[1, 2, 3], "engine {}", e.name());
            assert!(c.reaches(NodeId(0), NodeId(3)));
            assert!(!c.reaches(NodeId(3), NodeId(0)));
            assert!(c.reaches(NodeId(2), NodeId(2)));
            assert_eq!(g.num_edges(), 3);
        }
    }

    #[test]
    fn cycle_members_are_mutual_successors() {
        for e in all_engines() {
            let (_, c) = closure_of("concept A B C\nA [= B\nB [= A\nB [= C", e.as_ref());
            assert!(c.reaches(NodeId(0), NodeId(1)), "engine {}", e.name());
            assert!(c.reaches(NodeId(1), NodeId(0)));
            // On a cycle, the node lists itself.
            assert!(c.successors(NodeId(0)).contains(&0));
            assert!(c.reaches(NodeId(0), NodeId(2)));
            assert!(!c.reaches(NodeId(2), NodeId(0)));
        }
    }

    #[test]
    fn engines_agree_on_role_hierarchies() {
        let src = "concept A\nrole p r s\np [= r\nr [= s\nA [= exists p";
        let reference = DfsEngine.compute(&TboxGraph::build(&parse_tbox(src).unwrap()));
        for e in all_engines() {
            let (_, c) = closure_of(src, e.as_ref());
            for n in 0..reference.num_nodes() {
                assert_eq!(
                    c.successors(NodeId(n as u32)),
                    reference.successors(NodeId(n as u32)),
                    "engine {} node {}",
                    e.name(),
                    n
                );
            }
        }
    }

    #[test]
    fn condensation_groups_cycles() {
        let t = parse_tbox("concept A B C\nA [= B\nB [= A\nB [= C").unwrap();
        let g = TboxGraph::build(&t);
        let cond = Condensation::build(&g);
        assert_eq!(cond.comp_of[0], cond.comp_of[1]);
        assert_ne!(cond.comp_of[0], cond.comp_of[2]);
        // Reverse topological: C's component comes before {A,B}'s.
        let cab = cond.comp_of[0] as usize;
        let cc = cond.comp_of[2] as usize;
        assert!(cc < cab);
    }

    #[test]
    fn predecessors_reflexive_walks_reverse_arcs() {
        let t = parse_tbox(CHAIN).unwrap();
        let g = TboxGraph::build(&t);
        let mut preds = predecessors_reflexive(&g, NodeId(2)); // C
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 1, 2]);
    }

    #[test]
    fn closure_arc_count() {
        for e in all_engines() {
            let (_, c) = closure_of(CHAIN, e.as_ref());
            assert_eq!(c.num_arcs(), 3 + 2 + 1, "engine {}", e.name());
        }
    }

    /// Reference one-edge update that allocates a fresh union per
    /// predecessor — the pre-optimization behavior `insert_edge`'s
    /// scratch-buffer merge must reproduce exactly.
    fn insert_edge_allocating(c: &mut Closure, g: &TboxGraph, from: NodeId, to: NodeId) {
        if c.reaches(from, to) {
            return;
        }
        let mut targets: Vec<u32> = c.successors(to).to_vec();
        if let Err(pos) = targets.binary_search(&to.0) {
            targets.insert(pos, to.0);
        }
        for p in predecessors_reflexive(g, from) {
            let mut merged: Vec<u32> = c
                .successors(NodeId(p))
                .iter()
                .chain(targets.iter())
                .copied()
                .collect();
            merged.sort_unstable();
            merged.dedup();
            // A fresh list per predecessor, never shared.
            c.list_of[p as usize] = c.lists.len() as u32;
            c.lists.push(merged);
        }
    }

    #[test]
    fn insert_edge_matches_allocating_path_and_recompute() {
        // Start from the partial ontology, then add axioms one at a time;
        // after every step the scratch-buffer update must agree with both
        // the allocating reference and a full recompute.
        let base = "concept A B C D E\nrole p\nA [= B\nD [= E";
        let extra = ["B [= C", "C [= A", "C [= exists p", "exists inv(p) [= D"];
        let t = parse_tbox(base).unwrap();
        let mut g1 = TboxGraph::build(&t);
        let mut g2 = TboxGraph::build(&t);
        let mut fast = SccEngine.compute(&g1);
        let mut reference = fast.clone();
        let mut full = parse_tbox(base).unwrap();
        for src in extra {
            let grown = parse_tbox(&format!("{base}\n{src}")).unwrap();
            let ax = *grown.axioms().last().unwrap();
            full.add(ax);
            for (from, to) in g1.insert_axiom(&ax) {
                fast.insert_edge(&g1, from, to);
            }
            for (from, to) in g2.insert_axiom(&ax) {
                insert_edge_allocating(&mut reference, &g2, from, to);
            }
            let recomputed = SccEngine.compute(&TboxGraph::build(&full));
            for v in 0..fast.num_nodes() {
                let n = NodeId(v as u32);
                assert_eq!(fast.successors(n), reference.successors(n), "after {src}");
                assert_eq!(fast.successors(n), recomputed.successors(n), "after {src}");
            }
        }
    }
}
