//! Seed-deterministic topology generators for big-graph scenario sweeps.
//!
//! Every experiment before the scenario engine ran on small fixed graphs
//! (K2/K3, grids with `m ≤ 8`). This module opens the workload axis: families
//! of graphs at `m` in the hundreds to ~2000, spanning the diameter/expansion
//! spectrum the `ca sweep` tradeoff frontiers are plotted against —
//! high-diameter lattices (grid, ring), logarithmic-diameter expanders
//! (random regular), small-world rewirings (Watts–Strogatz), and heavy-tailed
//! scale-free graphs (Barabási–Albert).
//!
//! # Seed-determinism contract
//!
//! Each randomized generator is a *pure function* of its parameters and the
//! `seed`: the same `(params, seed)` produce the identical [`Graph`] on every
//! platform and every call. All randomness comes from
//! [`rand::rngs::StdRng::seed_from_u64`], whose output stream is pinned by
//! the workspace's vendored `rand`; resampling loops (for connectivity or
//! simplicity rejections) consume the same stream deterministically. Reports
//! that embed a [`TopologySpec`] therefore reproduce their graphs exactly —
//! no adjacency lists need to be serialized.
//!
//! Generated graphs are always connected and simple; constructors retry a
//! bounded number of times and return a typed error if the parameters make
//! connectivity implausible (e.g. `degree = 2` random-regular at large `m`).

use super::{Graph, MAX_PROCESSES};
use crate::error::ModelError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Retry budget for rejection loops (simplicity and connectivity): generous
/// enough that sensible parameters never hit it, small enough that hopeless
/// ones fail fast.
const MAX_ATTEMPTS: usize = 200;

/// A random `degree`-regular graph on `m` vertices (configuration model,
/// resampled until simple and connected).
///
/// Random regular graphs are expanders with high probability: diameter
/// `O(log m)` — the low-diameter end of the sweep spectrum.
///
/// # Errors
///
/// Returns an error if `degree < 2`, `degree ≥ m`, `degree · m` is odd, `m`
/// is out of the supported range, or no simple connected pairing is found
/// within the retry budget.
pub fn random_regular(m: usize, degree: usize, seed: u64) -> Result<Graph, ModelError> {
    if degree < 2 {
        return Err(ModelError::InvalidParameter {
            name: "degree",
            reason: "random-regular degree must be at least 2 for connectivity",
        });
    }
    if degree >= m {
        return Err(ModelError::InvalidParameter {
            name: "degree",
            reason: "random-regular degree must be below m",
        });
    }
    if !(degree * m).is_multiple_of(2) {
        return Err(ModelError::InvalidParameter {
            name: "degree",
            reason: "degree * m must be even (handshake lemma)",
        });
    }
    check_m(m)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // Configuration model: shuffle `degree` stubs per vertex, pair
    // consecutive stubs, reject pairings with self-loops or parallel edges.
    let mut stubs: Vec<u32> = (0..m as u32).flat_map(|v| [v].repeat(degree)).collect();
    'attempt: for _ in 0..MAX_ATTEMPTS {
        shuffle(&mut stubs, &mut rng);
        let mut edges = Vec::with_capacity(stubs.len() / 2);
        for pair in stubs.chunks_exact(2) {
            if pair[0] == pair[1] {
                continue 'attempt;
            }
            edges.push((pair[0], pair[1]));
        }
        let before = edges.len();
        let g = Graph::new(m, &edges)?;
        // `Graph::new` collapses parallel edges; a shrunken edge count means
        // the pairing was not simple.
        if g.edge_count() < before || !g.is_connected() {
            continue;
        }
        return Ok(g);
    }
    Err(ModelError::InvalidParameter {
        name: "degree",
        reason: "no simple connected pairing found; raise degree or shrink m",
    })
}

/// A Watts–Strogatz small-world graph: a ring lattice where every vertex is
/// joined to its `k/2` nearest neighbors on each side, with each lattice
/// edge's far endpoint rewired to a uniform random vertex with probability
/// `beta` (avoiding self-loops and duplicates), resampled until connected.
///
/// `beta = 0` is the pure lattice (diameter `≈ m/k`); small positive `beta`
/// collapses the diameter to `O(log m)` while keeping local clustering — the
/// classic small-world middle of the sweep spectrum.
///
/// # Errors
///
/// Returns an error if `k` is odd, `k < 2`, `k ≥ m`, `beta` is outside
/// `[0, 1]`, `m` is out of the supported range, or no connected rewiring is
/// found within the retry budget.
pub fn watts_strogatz(m: usize, k: usize, beta: f64, seed: u64) -> Result<Graph, ModelError> {
    if k < 2 || !k.is_multiple_of(2) {
        return Err(ModelError::InvalidParameter {
            name: "k",
            reason: "small-world lattice degree k must be even and at least 2",
        });
    }
    if k >= m {
        return Err(ModelError::InvalidParameter {
            name: "k",
            reason: "small-world lattice degree k must be below m",
        });
    }
    if !(0.0..=1.0).contains(&beta) {
        return Err(ModelError::InvalidParameter {
            name: "beta",
            reason: "rewiring probability must be in [0, 1]",
        });
    }
    check_m(m)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // An undirected edge as a set key.
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    for _ in 0..MAX_ATTEMPTS {
        let mut edges = Vec::with_capacity(m * k / 2);
        for v in 0..m {
            for j in 1..=k / 2 {
                edges.push(((v as u32), ((v + j) % m) as u32));
            }
        }
        // The current edge set, for membership only (never iterated, so the
        // hasher's order cannot reach the output). The lattice has no
        // duplicate edges (`k < m`) and a rewire only ever adds an absent
        // edge, so the list stays duplicate-free and a rewired edge leaves
        // the set outright.
        let mut present: HashSet<(u32, u32)> = edges.iter().map(|&(a, b)| key(a, b)).collect();
        // Rewire pass in lattice-edge order: deterministic coin per edge.
        for edge in edges.iter_mut() {
            if !rng.gen_bool(beta) {
                continue;
            }
            let (a, old) = *edge;
            // Uniform new endpoint, rejecting self-loops and existing edges.
            // Bounded retries: at k ≪ m a few draws almost always succeed;
            // giving up leaves the lattice edge in place (still a valid WS
            // sample, matching the standard "skip saturated" convention).
            for _ in 0..16 {
                let b = rng.gen_range(0..m as u32);
                if b != a && present.insert(key(a, b)) {
                    present.remove(&key(a, old));
                    *edge = (a, b);
                    break;
                }
            }
        }
        let g = Graph::new(m, &edges)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(ModelError::InvalidParameter {
        name: "beta",
        reason: "no connected rewiring found; lower beta or raise k",
    })
}

/// A Barabási–Albert scale-free graph: starts from a complete core on
/// `attach + 1` vertices, then every new vertex attaches to `attach`
/// distinct existing vertices with probability proportional to their degree
/// (preferential attachment via the repeated-endpoints list). Connected by
/// construction; process 0 (the leader) sits in the initial core and is a
/// high-degree hub with overwhelming probability.
///
/// # Errors
///
/// Returns an error if `attach < 1`, `attach + 1 ≥ m`, or `m` is out of the
/// supported range.
pub fn barabasi_albert(m: usize, attach: usize, seed: u64) -> Result<Graph, ModelError> {
    if attach < 1 {
        return Err(ModelError::InvalidParameter {
            name: "attach",
            reason: "scale-free attachment count must be at least 1",
        });
    }
    if attach + 1 >= m {
        return Err(ModelError::InvalidParameter {
            name: "attach",
            reason: "scale-free attachment count must leave room to grow (attach + 1 < m)",
        });
    }
    check_m(m)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let core = attach + 1;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // `endpoints` holds each edge endpoint once; sampling uniformly from it
    // is sampling vertices proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::new();
    for a in 0..core as u32 {
        for b in (a + 1)..core as u32 {
            edges.push((a, b));
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    let mut chosen: Vec<u32> = Vec::with_capacity(attach);
    for v in core as u32..m as u32 {
        chosen.clear();
        while chosen.len() < attach {
            let target = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &target in &chosen {
            edges.push((target, v));
            endpoints.push(target);
            endpoints.push(v);
        }
    }
    Graph::new(m, &edges)
}

fn check_m(m: usize) -> Result<(), ModelError> {
    if m < 2 {
        return Err(ModelError::TooFewProcesses { got: m, min: 2 });
    }
    if m > MAX_PROCESSES {
        return Err(ModelError::TooManyProcesses {
            got: m,
            max: MAX_PROCESSES,
        });
    }
    Ok(())
}

/// In-place Fisher–Yates shuffle driven by the given RNG (the vendored
/// `rand` has no `SliceRandom`; one draw per position, back to front).
fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// A serializable recipe for one sweep topology: which generator, with which
/// parameters and seed. Building the same spec always yields the identical
/// graph (see the module-level seed-determinism contract), so reports embed
/// specs instead of adjacency lists.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// The complete graph `K_m`.
    Complete {
        /// Number of processes.
        m: usize,
    },
    /// The cycle on `m` vertices: the high-diameter extreme (`⌊m/2⌋`).
    Ring {
        /// Number of processes.
        m: usize,
    },
    /// A `rows × cols` grid lattice.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A `rows × cols` torus (grid with wraparound).
    Torus {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// A random `degree`-regular expander ([`random_regular`]).
    RandomRegular {
        /// Number of processes.
        m: usize,
        /// Uniform vertex degree.
        degree: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A Watts–Strogatz small-world rewiring ([`watts_strogatz`]).
    SmallWorld {
        /// Number of processes.
        m: usize,
        /// Even ring-lattice degree.
        k: usize,
        /// Per-edge rewiring probability.
        beta: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A Barabási–Albert scale-free graph ([`barabasi_albert`]).
    ScaleFree {
        /// Number of processes.
        m: usize,
        /// Edges added per new vertex.
        attach: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySpec {
    /// Builds the graph this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying constructor's parameter validation.
    pub fn build(&self) -> Result<Graph, ModelError> {
        match *self {
            TopologySpec::Complete { m } => Graph::complete(m),
            TopologySpec::Ring { m } => Graph::ring(m),
            TopologySpec::Grid { rows, cols } => Graph::grid(rows, cols),
            TopologySpec::Torus { rows, cols } => Graph::torus(rows, cols),
            TopologySpec::RandomRegular { m, degree, seed } => random_regular(m, degree, seed),
            TopologySpec::SmallWorld { m, k, beta, seed } => watts_strogatz(m, k, beta, seed),
            TopologySpec::ScaleFree { m, attach, seed } => barabasi_albert(m, attach, seed),
        }
    }

    /// A short stable name for tables and reports (e.g. `grid25x40`,
    /// `small-world1000`).
    pub fn name(&self) -> String {
        match *self {
            TopologySpec::Complete { m } => format!("k{m}"),
            TopologySpec::Ring { m } => format!("ring{m}"),
            TopologySpec::Grid { rows, cols } => format!("grid{rows}x{cols}"),
            TopologySpec::Torus { rows, cols } => format!("torus{rows}x{cols}"),
            TopologySpec::RandomRegular { m, degree, .. } => format!("regular{m}d{degree}"),
            TopologySpec::SmallWorld { m, k, .. } => format!("small-world{m}k{k}"),
            TopologySpec::ScaleFree { m, attach, .. } => format!("scale-free{m}a{attach}"),
        }
    }

    /// The near-square grid spec with `rows · cols = m` (the factor pair
    /// closest to √m); falls back to a ring when `m` is prime (a `1 × m`
    /// grid would be the line).
    pub fn near_square_grid(m: usize) -> TopologySpec {
        let mut best = None;
        let mut r = 2;
        while r * r <= m {
            if m.is_multiple_of(r) {
                best = Some(r);
            }
            r += 1;
        }
        match best {
            Some(rows) => TopologySpec::Grid {
                rows,
                cols: m / rows,
            },
            None => TopologySpec::Ring { m },
        }
    }
}

/// Summary statistics of a generated topology: the x-axis material for the
/// sweep's tradeoff frontiers (diameter for distance, mean degree for
/// expansion proxy). All-integer so reports stay byte-stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of processes.
    pub m: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Minimum vertex degree.
    pub degree_min: usize,
    /// Maximum vertex degree.
    pub degree_max: usize,
    /// Graph diameter (generated graphs are always connected).
    pub diameter: u32,
}

impl GraphStats {
    /// Computes the stats of a connected graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (generator outputs never are).
    pub fn of(graph: &Graph) -> GraphStats {
        let degrees: Vec<usize> = graph.vertices().map(|v| graph.neighbors(v).len()).collect();
        GraphStats {
            m: graph.len(),
            edges: graph.edge_count(),
            degree_min: degrees.iter().copied().min().expect("m >= 2"),
            degree_max: degrees.iter().copied().max().expect("m >= 2"),
            diameter: graph.diameter().expect("stats need a connected graph"),
        }
    }

    /// Mean vertex degree (`2·|E| / m`).
    pub fn degree_mean(&self) -> f64 {
        2.0 * self.edges as f64 / self.m as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_regular_is_regular_connected_and_deterministic() {
        let g = random_regular(64, 4, 7).unwrap();
        assert_eq!(g.len(), 64);
        assert!(g.is_connected());
        for v in g.vertices() {
            assert_eq!(g.neighbors(v).len(), 4, "vertex {v}");
        }
        let again = random_regular(64, 4, 7).unwrap();
        assert_eq!(g, again, "same (params, seed) must rebuild the same graph");
        let other = random_regular(64, 4, 8).unwrap();
        assert_ne!(g, other, "a different seed should give a different graph");
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        assert!(random_regular(10, 1, 0).is_err());
        assert!(random_regular(10, 10, 0).is_err());
        assert!(random_regular(9, 3, 0).is_err(), "odd degree sum");
        assert!(random_regular(1, 2, 0).is_err());
    }

    #[test]
    fn watts_strogatz_shrinks_diameter_over_lattice() {
        let lattice = watts_strogatz(128, 4, 0.0, 3).unwrap();
        let rewired = watts_strogatz(128, 4, 0.2, 3).unwrap();
        assert!(lattice.is_connected());
        assert!(rewired.is_connected());
        // beta = 0 is exactly the ring lattice: every degree is k.
        for v in lattice.vertices() {
            assert_eq!(lattice.neighbors(v).len(), 4);
        }
        assert!(
            rewired.diameter().unwrap() < lattice.diameter().unwrap(),
            "rewiring must create shortcuts: {} !< {}",
            rewired.diameter().unwrap(),
            lattice.diameter().unwrap()
        );
        assert_eq!(rewired, watts_strogatz(128, 4, 0.2, 3).unwrap());
    }

    #[test]
    fn watts_strogatz_rejects_bad_parameters() {
        assert!(watts_strogatz(16, 3, 0.1, 0).is_err(), "odd k");
        assert!(watts_strogatz(16, 0, 0.1, 0).is_err());
        assert!(watts_strogatz(16, 16, 0.1, 0).is_err());
        assert!(watts_strogatz(16, 4, 1.5, 0).is_err());
    }

    #[test]
    fn barabasi_albert_grows_hubs() {
        let g = barabasi_albert(256, 3, 11).unwrap();
        assert!(g.is_connected());
        assert_eq!(
            g.edge_count(),
            6 + (256 - 4) * 3,
            "core + attach per vertex"
        );
        let stats = GraphStats::of(&g);
        assert!(
            stats.degree_max >= 3 * stats.degree_min,
            "scale-free degree spread expected, got {stats:?}"
        );
        assert_eq!(g, barabasi_albert(256, 3, 11).unwrap());
        assert!(barabasi_albert(4, 0, 0).is_err());
        assert!(barabasi_albert(3, 3, 0).is_err());
    }

    #[test]
    fn generators_reach_sweep_scale() {
        // The acceptance scale: m = 1000 for every randomized family, and
        // the MAX_PROCESSES rail at ~2000.
        for g in [
            random_regular(1000, 4, 1).unwrap(),
            watts_strogatz(1000, 6, 0.1, 1).unwrap(),
            barabasi_albert(1000, 3, 1).unwrap(),
        ] {
            assert_eq!(g.len(), 1000);
            assert!(g.is_connected());
            let stats = GraphStats::of(&g);
            assert!(stats.diameter < 40, "sweep-scale graphs stay shallow");
        }
        assert!(random_regular(2048, 4, 1).is_ok());
        assert!(random_regular(2049, 4, 1).is_err());
    }

    #[test]
    fn spec_builds_match_direct_constructors() {
        let cases = [
            (TopologySpec::Complete { m: 5 }, Graph::complete(5).unwrap()),
            (TopologySpec::Ring { m: 9 }, Graph::ring(9).unwrap()),
            (
                TopologySpec::Grid { rows: 3, cols: 4 },
                Graph::grid(3, 4).unwrap(),
            ),
            (
                TopologySpec::Torus { rows: 3, cols: 5 },
                Graph::torus(3, 5).unwrap(),
            ),
            (
                TopologySpec::RandomRegular {
                    m: 32,
                    degree: 4,
                    seed: 5,
                },
                random_regular(32, 4, 5).unwrap(),
            ),
            (
                TopologySpec::SmallWorld {
                    m: 32,
                    k: 4,
                    beta: 0.1,
                    seed: 5,
                },
                watts_strogatz(32, 4, 0.1, 5).unwrap(),
            ),
            (
                TopologySpec::ScaleFree {
                    m: 32,
                    attach: 2,
                    seed: 5,
                },
                barabasi_albert(32, 2, 5).unwrap(),
            ),
        ];
        for (spec, expected) in cases {
            assert_eq!(spec.build().unwrap(), expected, "{}", spec.name());
        }
    }

    #[test]
    fn spec_serde_round_trips() {
        let specs = vec![
            TopologySpec::Grid { rows: 25, cols: 40 },
            TopologySpec::SmallWorld {
                m: 1000,
                k: 6,
                beta: 0.1,
                seed: 42,
            },
            TopologySpec::ScaleFree {
                m: 1000,
                attach: 3,
                seed: 42,
            },
            TopologySpec::RandomRegular {
                m: 500,
                degree: 4,
                seed: 9,
            },
            TopologySpec::Ring { m: 64 },
        ];
        let json = serde::json::to_string_pretty(&specs).unwrap();
        let back: Vec<TopologySpec> = serde::json::from_str(&json).unwrap();
        assert_eq!(back, specs);
    }

    #[test]
    fn near_square_grid_factors_or_falls_back() {
        assert_eq!(
            TopologySpec::near_square_grid(1000),
            TopologySpec::Grid { rows: 25, cols: 40 }
        );
        assert_eq!(
            TopologySpec::near_square_grid(96),
            TopologySpec::Grid { rows: 8, cols: 12 }
        );
        assert_eq!(
            TopologySpec::near_square_grid(13),
            TopologySpec::Ring { m: 13 }
        );
    }

    #[test]
    fn stats_report_diameter_and_degrees() {
        let stats = GraphStats::of(&Graph::grid(4, 5).unwrap());
        assert_eq!(stats.m, 20);
        assert_eq!(stats.edges, 31);
        assert_eq!(stats.degree_min, 2);
        assert_eq!(stats.degree_max, 4);
        assert_eq!(stats.diameter, 7);
        assert!((stats.degree_mean() - 3.1).abs() < 1e-12);
    }
}
