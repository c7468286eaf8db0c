//! The benchmark's own sequential references for the weighted classes
//! (Dijkstra, union-find, power iteration) over its own adjacency lists, and
//! the checks that hold an engine answer against them.
//!
//! Nothing here calls into the engine's algorithm crate: a fault shared by
//! the engine and its in-crate sequential functions would otherwise pass.

use grape_graph::generators::WeightedGraph;
use grape_graph::VertexId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A directed weighted graph as plain adjacency lists, indexed by vertex id
/// (the road generator's ids are dense up to its few removed cells).
pub struct RefGraph {
    out: Vec<Vec<(u32, f64)>>,
    present: Vec<bool>,
    live: usize,
}

impl RefGraph {
    /// Copies every vertex and directed edge of `graph`.
    pub fn from_graph(graph: &WeightedGraph) -> RefGraph {
        let cap = graph.vertices().max().map_or(0, |v| v as usize + 1);
        let mut g = RefGraph {
            out: vec![Vec::new(); cap],
            present: vec![false; cap],
            live: 0,
        };
        for v in graph.vertices() {
            g.present[v as usize] = true;
            g.live += 1;
            for (u, w) in graph.out_edges(v) {
                g.add_edge(v, u, *w);
            }
        }
        g
    }

    /// Appends one directed edge (parallel edges are kept, as the engine's
    /// delta overlay keeps them).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, weight: f64) {
        self.out[src as usize].push((dst as u32, weight));
    }

    /// Number of directed edges, parallel ones included.
    pub fn num_edges(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Ids of the live vertices, ascending.
    pub fn vertices(&self) -> Vec<VertexId> {
        (0..self.present.len())
            .filter(|&v| self.present[v])
            .map(|v| v as VertexId)
            .collect()
    }

    /// Single-source shortest distances (`INFINITY` = unreachable).
    pub fn dijkstra(&self, source: VertexId) -> Vec<f64> {
        #[derive(PartialEq)]
        struct Entry(f64, u32);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
            }
        }
        let mut dist = vec![f64::INFINITY; self.out.len()];
        let mut heap = BinaryHeap::new();
        dist[source as usize] = 0.0;
        heap.push(Entry(0.0, source as u32));
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.out[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Entry(nd, v));
                }
            }
        }
        dist
    }

    /// Weakly connected components, labelled by their smallest vertex id.
    pub fn components(&self) -> Vec<u32> {
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                let p = parent[i as usize];
                parent[i as usize] = parent[p as usize];
                i = p;
            }
            i
        }
        let mut parent: Vec<u32> = (0..self.out.len() as u32).collect();
        for (u, edges) in self.out.iter().enumerate() {
            for &(v, _) in edges {
                let (a, b) = (find(&mut parent, u as u32), find(&mut parent, v));
                if a != b {
                    // The smaller root wins, so every root is its class minimum.
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }
        (0..self.out.len() as u32)
            .map(|i| find(&mut parent, i))
            .collect()
    }

    /// PageRank by power iteration to convergence (ℓ₁ step below 1e-13),
    /// with dangling mass spread uniformly every sweep.
    pub fn pagerank(&self, damping: f64) -> Vec<f64> {
        let n = self.live as f64;
        let mut rank: Vec<f64> = self
            .present
            .iter()
            .map(|&p| if p { 1.0 / n } else { 0.0 })
            .collect();
        let mut next = vec![0.0; rank.len()];
        for _ in 0..10_000 {
            let mut dangling = 0.0;
            for (v, r) in next.iter_mut().enumerate() {
                *r = if self.present[v] {
                    (1.0 - damping) / n
                } else {
                    0.0
                };
            }
            for (v, edges) in self.out.iter().enumerate() {
                if !self.present[v] {
                    continue;
                }
                if edges.is_empty() {
                    dangling += rank[v];
                    continue;
                }
                let share = damping * rank[v] / edges.len() as f64;
                for &(u, _) in edges {
                    next[u as usize] += share;
                }
            }
            let spread = damping * dangling / n;
            let mut step = 0.0;
            for (v, r) in next.iter_mut().enumerate() {
                if self.present[v] {
                    *r += spread;
                    step += (*r - rank[v]).abs();
                }
            }
            std::mem::swap(&mut rank, &mut next);
            if step < 1e-13 {
                break;
            }
        }
        rank
    }
}

/// Every live vertex reachable from the source must carry exactly the
/// reference distance; no unreachable vertex may carry a finite one.
pub fn check_sssp(
    g: &RefGraph,
    answer: &HashMap<VertexId, f64>,
    reference: &[f64],
) -> Result<(), String> {
    let mut reachable = 0;
    for v in g.vertices() {
        let want = reference[v as usize];
        let got = answer.get(&v).copied().unwrap_or(f64::INFINITY);
        if want.is_finite() {
            reachable += 1;
        }
        if got != want && !(got.is_infinite() && want.is_infinite()) {
            return Err(format!(
                "sssp: vertex {v} has distance {got}, reference {want}"
            ));
        }
    }
    let finite = answer.values().filter(|d| d.is_finite()).count();
    if finite != reachable {
        return Err(format!(
            "sssp: {finite} finite distances for {reachable} reachable vertices"
        ));
    }
    Ok(())
}

/// Every live vertex must be labelled with its component's smallest id.
pub fn check_cc(
    g: &RefGraph,
    answer: &HashMap<VertexId, VertexId>,
    reference: &[u32],
) -> Result<(), String> {
    let vertices = g.vertices();
    if answer.len() != vertices.len() {
        return Err(format!(
            "cc: {} labels for {} vertices",
            answer.len(),
            vertices.len()
        ));
    }
    for v in vertices {
        let want = reference[v as usize] as VertexId;
        match answer.get(&v) {
            Some(&got) if got == want => {}
            got => return Err(format!("cc: vertex {v} labelled {got:?}, reference {want}")),
        }
    }
    Ok(())
}

/// The largest per-vertex gap a PageRank answer may show against the
/// converged reference, as a multiple of the query's `tolerance`.
///
/// This bound is empirical. A vertex takes one rounded share per in-edge and
/// the damped system spreads an error unevenly over vertices, so no simple
/// closed form bounds a single rank. On the road workloads at tolerance 1e-8
/// the worst gap seen is 5.5e-8, 18 times below `100·tol` = 1e-6; the ranks
/// average 1.1e-5. The derived bound is the ℓ₁ one,
/// `PageRankQuery::fixpoint_cluster_radius`, which [`check_pagerank`]
/// applies as well.
pub const PAGERANK_VERTEX_TOLERANCES: f64 = 100.0;

/// Worst per-vertex gap and ℓ₁ gap of a checked PageRank answer.
pub struct PageRankGap {
    pub vertex: f64,
    pub l1: f64,
}

/// Ranks must cover every live vertex and sum to 1; each must lie within
/// `vertex_bound` of the reference, and all of them within `l1_bound` in ℓ₁.
pub fn check_pagerank(
    g: &RefGraph,
    answer: &HashMap<VertexId, f64>,
    reference: &[f64],
    vertex_bound: f64,
    l1_bound: f64,
) -> Result<PageRankGap, String> {
    let vertices = g.vertices();
    if answer.len() != vertices.len() {
        return Err(format!(
            "pagerank: {} ranks for {} vertices",
            answer.len(),
            vertices.len()
        ));
    }
    let sum: f64 = answer.values().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("pagerank: ranks sum to {sum}"));
    }
    let mut gap = PageRankGap {
        vertex: 0.0,
        l1: 0.0,
    };
    for v in vertices {
        let got = answer.get(&v).copied().unwrap_or(f64::NAN);
        let d = (got - reference[v as usize]).abs();
        if d.is_nan() || d > vertex_bound {
            return Err(format!(
                "pagerank: vertex {v} ranked {got}, reference {}, gap above {vertex_bound}",
                reference[v as usize]
            ));
        }
        gap.vertex = gap.vertex.max(d);
        gap.l1 += d;
    }
    if gap.l1 > l1_bound {
        return Err(format!(
            "pagerank: ℓ₁ gap {} above the fixpoint cluster radius {l1_bound}",
            gap.l1
        ));
    }
    Ok(gap)
}
