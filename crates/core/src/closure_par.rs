//! Multi-threaded transitive-closure engines (std-only: scoped threads,
//! no external crates).
//!
//! Both engines start from the same Tarjan condensation as
//! [`SccEngine`](crate::closure::SccEngine), parallelize reachable-set
//! propagation over it, and produce one sorted successor list per
//! component (shared by its members, see [`Closure`]):
//!
//! * [`ParSccEngine`] — layers the reverse-topological component order
//!   into *levels* (a component's level is one more than the maximum
//!   level of its successors). All components in a level depend only on
//!   lower levels, so each level's reachable-set merges fan out across
//!   worker threads with a join barrier per level; the components'
//!   successor lists are then expanded in parallel over component ranges.
//! * [`ChunkedBitsetEngine`] — processes source components in 64-wide
//!   *blocks*: one `u64` word per component records which of the block's
//!   64 sources reach it, and a single forward-topological sweep
//!   propagates the words along condensation arcs. The sources' successor
//!   lists are then written straight from the words: one ascending pass
//!   over node ids pushes each node into the lists of the sources whose
//!   bits its component carries, so the lists come out sorted. Memory is
//!   `O(V)` per in-flight block (unlike the dense engine's `O(V²/8)`
//!   matrix, so there is no size gate), and blocks are independent, so
//!   they spread across worker threads with no synchronization at all.
//!
//! Both produce [`Closure`]s identical to the sequential engines
//! (property-tested in `tests/proptest_closure_par.rs`, and node by node
//! on the block-spanning presets in `tests/chunked_closure.rs`):
//! per-component work is deterministic and workers write disjoint slots.

use std::num::NonZeroUsize;
use std::ops::Range;

use crate::closure::{Closure, ClosureEngine, Condensation};
use crate::graph::TboxGraph;

/// Number of worker threads the machine comfortably supports.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a thread knob: `0` means "use all available cores".
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Splits `items` into at most `parts` contiguous chunks of near-equal
/// size (returns ranges; never yields empty chunks).
fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `f(start, &mut items[range])` on one scoped thread per range.
/// The ranges must be contiguous, start at 0 and cover `items`.
fn scoped_chunks<T: Send>(
    items: &mut [T],
    ranges: Vec<Range<usize>>,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    std::thread::scope(|s| {
        let mut rest = items;
        for r in ranges {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            let f = &f;
            s.spawn(move || f(r.start, mine));
        }
    });
}

/// Expands component-level reachability (`reach[c]` = sorted comp ids
/// reachable from `c`, excluding `c`) to one sorted successor list per component,
/// in parallel over contiguous component ranges.
fn expand_components(cond: &Condensation, reach: &[Vec<u32>], threads: usize) -> Vec<Vec<u32>> {
    let nc = cond.num_comps();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nc];
    let fill = |start: usize, out: &mut [Vec<u32>]| {
        for (i, list) in out.iter_mut().enumerate() {
            *list = cond.component_successors(start + i, &reach[start + i]);
        }
    };
    if threads <= 1 || nc < 4096 {
        fill(0, &mut lists);
    } else {
        scoped_chunks(&mut lists, chunk_ranges(nc, threads), fill);
    }
    lists
}

/// Level-scheduled parallel SCC-condensation engine.
#[derive(Debug, Clone, Copy)]
pub struct ParSccEngine {
    threads: usize,
}

impl ParSccEngine {
    /// Engine with an explicit worker count (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        ParSccEngine {
            threads: resolve_threads(threads),
        }
    }

    /// Worker count this engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParSccEngine {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

/// Below this many components in a level, spawning threads costs more
/// than the merges themselves; such levels run inline.
const LEVEL_PAR_CUTOFF: usize = 128;

impl ClosureEngine for ParSccEngine {
    fn name(&self) -> &'static str {
        "par-scc"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let cond = Condensation::build(g);
        let nc = cond.num_comps();
        // Layer components: level(c) = 1 + max level(successor). Tarjan's
        // emission order is reverse topological (successors first), so one
        // ascending pass suffices.
        let mut level = vec![0u32; nc];
        let mut max_level = 0u32;
        for c in 0..nc {
            let l = cond.comp_succ[c]
                .iter()
                .map(|&d| level[d as usize] + 1)
                .max()
                .unwrap_or(0);
            level[c] = l;
            max_level = max_level.max(l);
        }
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
        for c in 0..nc {
            levels[level[c] as usize].push(c as u32);
        }

        // reach[c]: sorted component ids reachable from c (excluding c).
        let mut reach: Vec<Vec<u32>> = vec![Vec::new(); nc];
        // Per-worker epoch-stamped mark buffers, reused across levels
        // (stamps are component ids, which are globally unique).
        let workers = self.threads.max(1);
        let mut marks: Vec<Vec<u32>> = vec![vec![u32::MAX; nc]; workers];

        for comps in &levels {
            if workers <= 1 || comps.len() < LEVEL_PAR_CUTOFF {
                let mark = &mut marks[0];
                for &c in comps {
                    let out = merge_reach(&cond, &reach, mark, c);
                    reach[c as usize] = out;
                }
                continue;
            }
            let ranges = chunk_ranges(comps.len(), workers);
            let mut results: Vec<Vec<(u32, Vec<u32>)>> = Vec::with_capacity(ranges.len());
            std::thread::scope(|s| {
                let reach_ref = &reach;
                let cond_ref = &cond;
                let handles: Vec<_> = ranges
                    .iter()
                    .zip(marks.iter_mut())
                    .map(|(r, mark)| {
                        let slice = &comps[r.clone()];
                        s.spawn(move || {
                            slice
                                .iter()
                                .map(|&c| (c, merge_reach(cond_ref, reach_ref, mark, c)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    results.push(h.join().expect("closure level worker panicked"));
                }
            });
            for part in results {
                for (c, out) in part {
                    reach[c as usize] = out;
                }
            }
        }

        let lists = expand_components(&cond, &reach, self.threads);
        Closure::new(cond.comp_of, lists)
    }
}

/// Merges the reachable sets of `c`'s successors (all already computed)
/// into a sorted, duplicate-free list, using an epoch-stamped mark
/// buffer.
fn merge_reach(cond: &Condensation, reach: &[Vec<u32>], mark: &mut [u32], c: u32) -> Vec<u32> {
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
    out
}

/// Block-parallel bit-slab engine: `O(V)` memory per in-flight block, no
/// node-count gate.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedBitsetEngine {
    threads: usize,
}

impl ChunkedBitsetEngine {
    /// Engine with an explicit worker count (`0` = all cores).
    pub fn with_threads(threads: usize) -> Self {
        ChunkedBitsetEngine {
            threads: resolve_threads(threads),
        }
    }

    /// Worker count this engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ChunkedBitsetEngine {
    fn default() -> Self {
        Self::with_threads(0)
    }
}

impl ClosureEngine for ChunkedBitsetEngine {
    fn name(&self) -> &'static str {
        "chunked-bitset"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn compute(&self, g: &TboxGraph) -> Closure {
        let cond = Condensation::build(g);
        let nc = cond.num_comps();
        let num_blocks = nc.div_ceil(64);
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nc];
        if self.threads <= 1 || num_blocks <= 1 {
            sweep_blocks(&cond, 0, &mut lists);
        } else {
            // Split at block boundaries: each worker owns the lists of the
            // sources in its blocks.
            let ranges = chunk_ranges(num_blocks, self.threads)
                .into_iter()
                .map(|r| r.start * 64..(r.end * 64).min(nc))
                .collect();
            scoped_chunks(&mut lists, ranges, |start, out| {
                sweep_blocks(&cond, start, out)
            });
        }
        Closure::new(cond.comp_of, lists)
    }
}

/// Writes the successor lists of source components `start..start +
/// out.len()` (`start` a multiple of 64) into `out`, one 64-source block
/// at a time.
fn sweep_blocks(cond: &Condensation, start: usize, out: &mut [Vec<u32>]) {
    // One u64 per component: bit i set ⟺ the block's i-th source reaches
    // this component. Reused across blocks; blocks ascend, so entries
    // at or above a block's `hi` are still zero.
    let mut w = vec![0u64; cond.num_comps()];
    for (k, lists) in out.chunks_mut(64).enumerate() {
        let lo = start + k * 64;
        let hi = lo + lists.len();
        w[..hi].fill(0);
        for (i, s) in (lo..hi).enumerate() {
            w[s] |= 1u64 << i;
        }
        // Condensation arcs run from higher to lower component id
        // (Tarjan emits successors first), so one descending sweep is a
        // forward-topological propagation. Components above `hi` can
        // never carry block bits — skip them.
        for c in (0..hi).rev() {
            let wc = w[c];
            if wc == 0 {
                continue;
            }
            for &d in &cond.comp_succ[c] {
                w[d as usize] |= wc;
            }
        }
        // A singleton source does not reach itself (the graph has no
        // self-loops), so it clears its own bit; a cyclic source keeps
        // it, so its members list themselves.
        for (i, s) in (lo..hi).enumerate() {
            if cond.members[s].len() == 1 {
                w[s] &= !(1u64 << i);
            }
        }
        // Exact sizes first, so each list is allocated once.
        let mut len = [0usize; 64];
        for (c, &wc) in w[..hi].iter().enumerate() {
            let size = cond.members[c].len();
            let mut bits = wc;
            while bits != 0 {
                len[bits.trailing_zeros() as usize] += size;
                bits &= bits - 1;
            }
        }
        for (list, &n) in lists.iter_mut().zip(&len) {
            *list = Vec::with_capacity(n);
        }
        // Ascending node ids: every list comes out sorted.
        for (v, &c) in cond.comp_of.iter().enumerate() {
            let mut bits = w[c as usize];
            while bits != 0 {
                lists[bits.trailing_zeros() as usize].push(v as u32);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::SccEngine;
    use obda_dllite::parse_tbox;

    fn engines_under_test(threads: usize) -> Vec<Box<dyn ClosureEngine>> {
        vec![
            Box::new(ParSccEngine::with_threads(threads)),
            Box::new(ChunkedBitsetEngine::with_threads(threads)),
        ]
    }

    fn assert_matches_scc(src: &str) {
        let t = parse_tbox(src).unwrap();
        let g = TboxGraph::build(&t);
        let reference = SccEngine.compute(&g);
        for threads in [1, 2, 4] {
            for e in engines_under_test(threads) {
                let c = e.compute(&g);
                for v in 0..g.num_nodes() {
                    assert_eq!(
                        c.successors(crate::graph::NodeId(v as u32)),
                        reference.successors(crate::graph::NodeId(v as u32)),
                        "engine {} threads {} node {}",
                        e.name(),
                        threads,
                        v
                    );
                }
            }
        }
    }

    #[test]
    fn chain_matches_scc() {
        assert_matches_scc("concept A B C D\nA [= B\nB [= C\nC [= D");
    }

    #[test]
    fn cycles_match_scc() {
        assert_matches_scc("concept A B C\nA [= B\nB [= A\nB [= C");
    }

    #[test]
    fn roles_and_existentials_match_scc() {
        assert_matches_scc("concept A\nrole p r s\np [= r\nr [= s\nA [= exists p");
    }

    #[test]
    fn diamond_with_cycle_matches_scc() {
        assert_matches_scc("concept A B C D E\nA [= B\nA [= C\nB [= D\nC [= D\nD [= E\nE [= D");
    }

    #[test]
    fn empty_graph() {
        let t = parse_tbox("concept A").unwrap();
        let g = TboxGraph::build(&t);
        for e in engines_under_test(2) {
            let c = e.compute(&g);
            assert_eq!(c.num_arcs(), 0, "engine {}", e.name());
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for (len, parts) in [(10, 3), (3, 10), (64, 64), (65, 4), (1, 1), (0, 4)] {
            let ranges = chunk_ranges(len, parts);
            let mut covered = 0;
            let mut expected_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expected_start);
                assert!(!r.is_empty());
                covered += r.len();
                expected_start = r.end;
            }
            assert_eq!(covered, len, "len={len} parts={parts}");
        }
    }

    #[test]
    fn thread_resolution() {
        assert!(ParSccEngine::with_threads(0).threads() >= 1);
        assert_eq!(ChunkedBitsetEngine::with_threads(3).threads(), 3);
    }
}
