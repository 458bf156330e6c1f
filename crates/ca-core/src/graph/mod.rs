//! The communication graph `G(E, V)`.
//!
//! The generals sit at the vertices of an undirected graph; every undirected
//! edge carries messages independently in each direction and each round, and
//! the adversary may destroy any subset of them. This module provides the
//! graph type plus the standard topologies used by the experiments (complete,
//! line, ring, star, balanced tree, grid, Erdős–Rényi), and the graph
//! algorithms the paper's constructions need: connectivity, diameter (the
//! usual-case assumption of Theorem A.1 requires `diameter ≤ N`), and BFS
//! spanning trees (Lemma A.6 builds a run from a spanning tree rooted at
//! process 1).

use crate::error::ModelError;
use crate::ids::ProcessId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

pub mod generators;

pub use generators::{GraphStats, TopologySpec};

/// Maximum number of processes supported. The seen-sets in protocol messages
/// and the level frontier are hybrid inline/heap [`crate::bitset::BitSet`]s,
/// so the bound is a sanity rail against accidental quadratic blowups (a
/// `Run`'s delivery matrix is `m²` bits per round), not a representation
/// limit; it is sized for the big-graph scenario sweeps (`ca sweep` at
/// `m` in the hundreds to ~2000).
pub const MAX_PROCESSES: usize = 2048;

/// An undirected communication graph over processes `0..m`.
///
/// # Examples
///
/// ```
/// use ca_core::graph::Graph;
/// use ca_core::ids::ProcessId;
/// let g = Graph::complete(3)?;
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.edge_count(), 3);
/// assert!(g.has_edge(ProcessId::new(0), ProcessId::new(2)));
/// assert_eq!(g.diameter(), Some(1));
/// # Ok::<(), ca_core::error::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    m: usize,
    /// Sorted adjacency list per vertex.
    adj: Vec<Vec<ProcessId>>,
    /// Sorted list of undirected edges (a < b).
    edges: Vec<(ProcessId, ProcessId)>,
}

impl Graph {
    /// Creates a graph over `m` vertices from a list of undirected edges.
    ///
    /// Duplicate edges are collapsed. Vertices are `0..m`.
    ///
    /// # Errors
    ///
    /// Returns an error if `m < 2`, `m > MAX_PROCESSES`, an endpoint is out of
    /// range, or an edge is a self-loop.
    pub fn new(m: usize, edge_list: &[(u32, u32)]) -> Result<Self, ModelError> {
        if m < 2 {
            return Err(ModelError::TooFewProcesses { got: m, min: 2 });
        }
        if m > MAX_PROCESSES {
            return Err(ModelError::TooManyProcesses {
                got: m,
                max: MAX_PROCESSES,
            });
        }
        let mut edges = Vec::with_capacity(edge_list.len());
        for &(a, b) in edge_list {
            let (a, b) = (a as usize, b as usize);
            if a >= m {
                return Err(ModelError::VertexOutOfRange { vertex: a, m });
            }
            if b >= m {
                return Err(ModelError::VertexOutOfRange { vertex: b, m });
            }
            if a == b {
                return Err(ModelError::SelfLoop { vertex: a });
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            edges.push((ProcessId::new(lo as u32), ProcessId::new(hi as u32)));
        }
        edges.sort_unstable();
        edges.dedup();
        let mut adj = vec![Vec::new(); m];
        for &(a, b) in &edges {
            adj[a.index()].push(b);
            adj[b.index()].push(a);
        }
        for list in adj.iter_mut() {
            list.sort_unstable();
        }
        Ok(Graph { m, adj, edges })
    }

    /// The complete graph `K_m`.
    ///
    /// # Errors
    ///
    /// Returns an error if `m` is out of the supported range.
    pub fn complete(m: usize) -> Result<Self, ModelError> {
        let mut edges = Vec::new();
        for a in 0..m as u32 {
            for b in (a + 1)..m as u32 {
                edges.push((a, b));
            }
        }
        Graph::new(m, &edges)
    }

    /// The line (path) graph `0 - 1 - … - m-1`.
    ///
    /// # Errors
    ///
    /// Returns an error if `m` is out of the supported range.
    pub fn line(m: usize) -> Result<Self, ModelError> {
        let edges: Vec<_> = (0..m.saturating_sub(1) as u32)
            .map(|i| (i, i + 1))
            .collect();
        Graph::new(m, &edges)
    }

    /// The ring (cycle) graph.
    ///
    /// # Errors
    ///
    /// Returns an error if `m < 3` (a 2-cycle would duplicate the single edge)
    /// or `m` is out of the supported range.
    pub fn ring(m: usize) -> Result<Self, ModelError> {
        if m < 3 {
            return Err(ModelError::TooFewProcesses { got: m, min: 3 });
        }
        let mut edges: Vec<_> = (0..m as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((m as u32 - 1, 0));
        Graph::new(m, &edges)
    }

    /// The star graph with vertex 0 (the leader) at the center.
    ///
    /// # Errors
    ///
    /// Returns an error if `m` is out of the supported range.
    pub fn star(m: usize) -> Result<Self, ModelError> {
        let edges: Vec<_> = (1..m as u32).map(|i| (0, i)).collect();
        Graph::new(m, &edges)
    }

    /// A balanced tree of the given branching factor rooted at vertex 0.
    ///
    /// # Errors
    ///
    /// Returns an error if `branching == 0` or `m` is out of the supported range.
    pub fn balanced_tree(m: usize, branching: usize) -> Result<Self, ModelError> {
        if branching == 0 {
            return Err(ModelError::InvalidParameter {
                name: "branching",
                reason: "must be at least 1",
            });
        }
        let edges: Vec<_> = (1..m as u32)
            .map(|i| (((i as usize - 1) / branching) as u32, i))
            .collect();
        Graph::new(m, &edges)
    }

    /// A `rows × cols` grid graph (`m = rows * cols`).
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is 0 or `rows*cols` is out of range.
    pub fn grid(rows: usize, cols: usize) -> Result<Self, ModelError> {
        if rows == 0 || cols == 0 {
            return Err(ModelError::InvalidParameter {
                name: "rows/cols",
                reason: "grid dimensions must be positive",
            });
        }
        let m = rows * cols;
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Graph::new(m, &edges)
    }

    /// The `d`-dimensional hypercube (`m = 2^d` vertices).
    ///
    /// # Errors
    ///
    /// Returns an error if `d == 0` or `2^d` exceeds the supported range.
    pub fn hypercube(d: u32) -> Result<Self, ModelError> {
        if d == 0 {
            return Err(ModelError::InvalidParameter {
                name: "d",
                reason: "hypercube dimension must be at least 1",
            });
        }
        if (1usize << d) > MAX_PROCESSES {
            return Err(ModelError::TooManyProcesses {
                got: 1usize << d,
                max: MAX_PROCESSES,
            });
        }
        let m = 1usize << d;
        let mut edges = Vec::new();
        for v in 0..m as u32 {
            for bit in 0..d {
                let w = v ^ (1 << bit);
                if v < w {
                    edges.push((v, w));
                }
            }
        }
        Graph::new(m, &edges)
    }

    /// A `rows × cols` torus (grid with wraparound edges). Requires both
    /// dimensions ≥ 3 so wraparound edges are distinct.
    ///
    /// # Errors
    ///
    /// Returns an error if either dimension is < 3 or `rows*cols` is out of range.
    pub fn torus(rows: usize, cols: usize) -> Result<Self, ModelError> {
        if rows < 3 || cols < 3 {
            return Err(ModelError::InvalidParameter {
                name: "rows/cols",
                reason: "torus dimensions must be at least 3",
            });
        }
        let m = rows * cols;
        let id = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                edges.push((id(r, c), id(r, (c + 1) % cols)));
                edges.push((id(r, c), id((r + 1) % rows, c)));
            }
        }
        Graph::new(m, &edges)
    }

    /// An Erdős–Rényi `G(m, p)` random graph, re-sampled until connected.
    ///
    /// # Errors
    ///
    /// Returns an error if `m` is out of range or `p` is not in `[0, 1]`, or
    /// if no connected sample is found within a generous retry budget (only
    /// possible for very small `p`).
    pub fn random_connected<R: Rng + ?Sized>(
        m: usize,
        p: f64,
        rng: &mut R,
    ) -> Result<Self, ModelError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(ModelError::InvalidParameter {
                name: "p",
                reason: "edge probability must be in [0, 1]",
            });
        }
        for _ in 0..1000 {
            let mut edges = Vec::new();
            for a in 0..m as u32 {
                for b in (a + 1)..m as u32 {
                    if rng.gen_bool(p) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::new(m, &edges)?;
            if g.is_connected() {
                return Ok(g);
            }
        }
        Err(ModelError::InvalidParameter {
            name: "p",
            reason: "failed to sample a connected graph; p too small",
        })
    }

    /// Number of vertices `m`.
    pub fn len(&self) -> usize {
        self.m
    }

    /// Returns whether the graph has no vertices (never true: `m ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The sorted undirected edge list (each edge appears once, `a < b`).
    pub fn edges(&self) -> &[(ProcessId, ProcessId)] {
        &self.edges
    }

    /// Iterates over the *directed* edges `(i, j)`: both orientations of every
    /// undirected edge. Message slots in a run are directed.
    pub fn directed_edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)])
    }

    /// The neighbors of `v`, sorted.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: ProcessId) -> &[ProcessId] {
        &self.adj[v.index()]
    }

    /// Returns whether `{a, b}` is an edge.
    pub fn has_edge(&self, a: ProcessId, b: ProcessId) -> bool {
        a.index() < self.m && self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = ProcessId> + Clone {
        ProcessId::all(self.m)
    }

    /// BFS distances from `src`; `None` for unreachable vertices.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn bfs_distances(&self, src: ProcessId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.m];
        dist[src.index()] = Some(0);
        let mut q = VecDeque::from([(src, 0u32)]);
        while let Some((v, d)) = q.pop_front() {
            for &w in self.neighbors(v) {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(d + 1);
                    q.push_back((w, d + 1));
                }
            }
        }
        dist
    }

    /// Returns whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        self.bfs_distances(ProcessId::new(0))
            .iter()
            .all(|d| d.is_some())
    }

    /// The diameter (longest shortest path), or `None` if disconnected.
    ///
    /// Equal to the maximum over every [`Graph::bfs_distances`], computed
    /// as one all-sources BFS that advances 64 sources per `u64`.
    pub fn diameter(&self) -> Option<u32> {
        // One pass per block of 64 · 64 sources keeps the per-vertex live
        // mask in one word; `MAX_PROCESSES` graphs take a single pass.
        let mut best = 0;
        for lo in (0..self.m).step_by(64 * 64) {
            best = best.max(self.max_eccentricity(lo..self.m.min(lo + 64 * 64))?);
        }
        Some(best)
    }

    /// The largest eccentricity over `sources` (at most `64 · 64` of them),
    /// or `None` if some vertex is unreachable from them.
    ///
    /// A level-synchronous BFS from all the sources at once, 64 per word:
    /// word `k` of vertex `v` (at `k · m + v`, so neighbouring ids' words
    /// share cache lines) holds sources `64k..64k + 63` of the range, a bit
    /// of `reached` set once that source has reached `v` and of `front`
    /// when it did so at the current depth. Each level ORs the
    /// neighbours' `front` words into a vertex's next front, but only the
    /// words its `live` mask marks as having gained bits in the level
    /// before: on a long ring a vertex's front holds two sources, so an
    /// unmasked pass would walk every word of every vertex to move them.
    fn max_eccentricity(&self, sources: std::ops::Range<usize>) -> Option<u32> {
        let (m, lo) = (self.m, sources.start);
        let w = sources.len().div_ceil(64);
        debug_assert!(w <= 64, "the live mask is one word");
        let mut reached = vec![0u64; w * m];
        let mut front = vec![0u64; w * m];
        let mut next = vec![0u64; w * m];
        let mut live = vec![0u64; m];
        let mut next_live = vec![0u64; m];
        for s in sources.clone() {
            let (k, bit) = ((s - lo) / 64, 1u64 << ((s - lo) % 64));
            reached[k * m + s] |= bit;
            front[k * m + s] |= bit;
            live[s] |= 1 << k;
        }
        let mut depth = 0;
        loop {
            let mut grew = false;
            for (u, adj) in self.adj.iter().enumerate() {
                // The words the neighbours' fronts gained, plus the words
                // this vertex's next front still holds from two levels back
                // (they read no bits and are overwritten with zero), in one
                // pass with a branch-free body.
                let mut words = adj
                    .iter()
                    .fold(next_live[u], |acc, v| acc | live[v.index()]);
                let mut gained = 0;
                while words != 0 {
                    let k = words.trailing_zeros() as usize;
                    words &= words - 1;
                    let row = &front[k * m..(k + 1) * m];
                    let heard = adj.iter().fold(0, |acc, v| acc | row[v.index()]);
                    let fresh = heard & !reached[k * m + u];
                    reached[k * m + u] |= fresh;
                    next[k * m + u] = fresh;
                    gained |= u64::from(fresh != 0) << k;
                }
                next_live[u] = gained;
                grew |= gained != 0;
            }
            if !grew {
                break;
            }
            depth += 1;
            std::mem::swap(&mut front, &mut next);
            std::mem::swap(&mut live, &mut next_live);
        }
        // Connected iff every source reached every vertex.
        let tail = u64::MAX >> (w * 64 - sources.len());
        let (body, last) = reached.split_at((w - 1) * m);
        (body.iter().all(|&x| x == u64::MAX) && last.iter().all(|&x| x == tail)).then_some(depth)
    }

    /// The eccentricity of `v` (max distance to any vertex), or `None` if
    /// some vertex is unreachable from `v`.
    pub fn eccentricity(&self, v: ProcessId) -> Option<u32> {
        let mut best = 0;
        for d in self.bfs_distances(v) {
            best = best.max(d?);
        }
        Some(best)
    }

    /// A BFS spanning tree rooted at `root`: `parent[v]` is `v`'s parent, and
    /// `parent[root]` is `None`. Returns `None` if the graph is disconnected.
    ///
    /// Lemma A.6 uses the tree rooted at the leader to build a run with
    /// `ML(R) = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn spanning_tree(&self, root: ProcessId) -> Option<Vec<Option<ProcessId>>> {
        let mut parent: Vec<Option<ProcessId>> = vec![None; self.m];
        let mut seen = vec![false; self.m];
        seen[root.index()] = true;
        let mut q = VecDeque::from([root]);
        while let Some(v) = q.pop_front() {
            for &w in self.neighbors(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some(v);
                    q.push_back(w);
                }
            }
        }
        if seen.iter().all(|&s| s) {
            Some(parent)
        } else {
            None
        }
    }

    /// The depth of each vertex in the BFS spanning tree rooted at `root`
    /// (root has depth 0), or `None` if disconnected.
    pub fn tree_depths(&self, root: ProcessId) -> Option<Vec<u32>> {
        self.bfs_distances(root)
            .into_iter()
            .collect::<Option<Vec<_>>>()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("m", &self.m)
            .field("edges", &self.edges)
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph(m={}, |E|={})", self.m, self.edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn complete_graph_properties() {
        let g = Graph::complete(5).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.diameter(), Some(1));
        assert!(g.is_connected());
        assert_eq!(g.neighbors(p(2)).len(), 4);
        assert_eq!(g.directed_edges().count(), 20);
    }

    #[test]
    fn line_graph_properties() {
        let g = Graph::line(4).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.diameter(), Some(3));
        assert!(g.has_edge(p(1), p(2)));
        assert!(!g.has_edge(p(0), p(2)));
        assert_eq!(
            g.bfs_distances(p(0)),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn ring_graph_properties() {
        let g = Graph::ring(6).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.diameter(), Some(3));
        assert!(g.has_edge(p(5), p(0)));
        assert!(Graph::ring(2).is_err());
    }

    #[test]
    fn star_graph_properties() {
        let g = Graph::star(7).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.diameter(), Some(2));
        assert_eq!(g.neighbors(p(0)).len(), 6);
        assert_eq!(g.eccentricity(p(0)), Some(1));
        assert_eq!(g.eccentricity(p(3)), Some(2));
    }

    #[test]
    fn balanced_tree_properties() {
        let g = Graph::balanced_tree(7, 2).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert!(g.has_edge(p(0), p(1)));
        assert!(g.has_edge(p(0), p(2)));
        assert!(g.has_edge(p(1), p(3)));
        assert!(g.has_edge(p(2), p(6)));
        assert!(g.is_connected());
        assert!(Graph::balanced_tree(4, 0).is_err());
    }

    #[test]
    fn grid_properties() {
        let g = Graph::grid(2, 3).unwrap();
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.diameter(), Some(3));
        assert!(Graph::grid(0, 3).is_err());
    }

    #[test]
    fn hypercube_properties() {
        let g = Graph::hypercube(3).unwrap();
        assert_eq!(g.len(), 8);
        assert_eq!(g.edge_count(), 12); // d * 2^d / 2
        assert_eq!(g.diameter(), Some(3));
        for v in g.vertices() {
            assert_eq!(g.neighbors(v).len(), 3);
        }
        assert!(Graph::hypercube(0).is_err());
        assert!(Graph::hypercube(12).is_err());
        assert!(Graph::hypercube(11).is_ok());
    }

    #[test]
    fn torus_properties() {
        let g = Graph::torus(3, 4).unwrap();
        assert_eq!(g.len(), 12);
        // Every vertex has degree 4 on a torus with dims ≥ 3.
        for v in g.vertices() {
            assert_eq!(g.neighbors(v).len(), 4, "vertex {v}");
        }
        assert_eq!(g.edge_count(), 24);
        assert!(g.is_connected());
        assert!(Graph::torus(2, 4).is_err());
    }

    #[test]
    fn torus_diameter_smaller_than_grid() {
        let t = Graph::torus(4, 4).unwrap();
        let g = Graph::grid(4, 4).unwrap();
        assert!(t.diameter().unwrap() < g.diameter().unwrap());
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let g = Graph::random_connected(8, 0.4, &mut rng).unwrap();
            assert!(g.is_connected());
        }
        assert!(Graph::random_connected(8, 1.5, &mut rng).is_err());
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Graph::new(1, &[]),
            Err(ModelError::TooFewProcesses { .. })
        ));
        assert!(matches!(
            Graph::new(MAX_PROCESSES + 1, &[]),
            Err(ModelError::TooManyProcesses { .. })
        ));
        assert!(matches!(
            Graph::new(3, &[(0, 3)]),
            Err(ModelError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            Graph::new(3, &[(1, 1)]),
            Err(ModelError::SelfLoop { .. })
        ));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::new(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::new(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert!(g.spanning_tree(p(0)).is_none());
    }

    #[test]
    fn spanning_tree_of_ring() {
        let g = Graph::ring(5).unwrap();
        let parent = g.spanning_tree(p(0)).unwrap();
        assert_eq!(parent[0], None);
        for v in 1..5 {
            let mut cur = p(v);
            let mut hops = 0;
            while let Some(par) = parent[cur.index()] {
                cur = par;
                hops += 1;
                assert!(hops <= 5, "parent chain must reach the root");
            }
            assert_eq!(cur, p(0));
        }
    }

    #[test]
    fn tree_depths_match_bfs() {
        let g = Graph::balanced_tree(7, 2).unwrap();
        let depths = g.tree_depths(p(0)).unwrap();
        assert_eq!(depths, vec![0, 1, 1, 2, 2, 2, 2]);
    }
}
