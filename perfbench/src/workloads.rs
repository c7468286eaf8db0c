//! The three workloads. Each drives the public `Session` API as one
//! closed-loop client — connect, load, then a fixed list of submit/join
//! (and update) calls — and checks every answer outside the timed calls.
//!
//! A run does a fixed amount of work: the number of rounds follows from
//! `--seconds` alone (never from a clock), so two runs of one seed do the
//! same operations and produce the same engine counts.

use crate::labeled;
use crate::recorder::Recorder;
use crate::reference::{self, RefGraph};
use grape_algo::{Query, QueryResult};
use grape_core::EngineConfig;
use grape_graph::generators::{
    labeled_social, road_network, RoadNetworkConfig, SocialGraphConfig, WeightedGraph,
};
use grape_graph::labels::PatternGraph;
use grape_graph::{DeltaGraph, GraphMutation, LabeledGraph, VertexId};
use grape_partition::{
    build_fragments, evaluate_partition, resolve_net_mutations, BuiltinStrategy,
};
use grape_worker::{
    GrapeService, ServiceHandle, ServiceOptions, Session, SessionConfig, SessionGraph,
};
use std::io;
use std::time::Instant;

/// Workers per session (one per core of the 2-core reference machine).
pub const WORKERS: usize = 2;
/// Connect + load repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The road graph of `road-serve` and `road-churn`: 300×300 grid cells
/// (about 87k vertices after the generator's removed cells).
const ROAD_SIDE: usize = 300;
const ROAD_GRAPH_SEED: u64 = 1;
/// The labeled graph of `social-remote`.
const SOCIAL_PERSONS: usize = 10_000;
const SOCIAL_PRODUCTS: usize = 50;
const SOCIAL_GRAPH_SEED: u64 = 1;

/// `road-serve`: per round, this many SSSP queries and CC queries, then
/// one PageRank; one round takes about this long on the reference machine.
const SERVE_SSSP_PER_ROUND: usize = 8;
const SERVE_CC_PER_ROUND: usize = 2;
const SERVE_ROUND_S: f64 = 1.3;

/// `road-churn`: edge insertions per update batch. The batches come from a
/// fixed seed, not from `--seed`, so the warm-PageRank fault they expose
/// fails the same resubmissions in every run.
const CHURN_BATCH_EDGES: usize = 100;
const CHURN_BATCH_SEED: u64 = 0xC4A2_0001;
/// Superstep budget of `road-churn`: six times what its slowest answered
/// query needs (a cold SSSP on the hash cut takes 60–100 supersteps, a
/// PageRank under 40), so a query that cannot converge fails in under a
/// second instead of running for minutes.
const CHURN_MAX_SUPERSTEPS: usize = 600;
const CHURN_ROUND_S: f64 = 2.0;
/// The `road-churn` SSSP sources, resubmitted every round, are drawn from
/// the cells at most this many rows and columns from the grid's centre.
const CHURN_SOURCES: usize = 3;
const CHURN_SOURCE_RADIUS: usize = 4;

/// `social-remote`: the query list of one round.
const SOCIAL_ROUND: [&str; 10] = [
    "sim",
    "keyword",
    "marketing",
    "sim",
    "keyword",
    "marketing",
    "sim",
    "keyword",
    "marketing",
    "subiso",
];
const SOCIAL_ROUND_S: f64 = 4.0;

const PAGERANK_DAMPING: f64 = 0.85;
/// PageRank tolerance of the workloads. The default (1e-6) is coarse for
/// 87k vertices, whose ranks average 1.1e-5: its answers on the road graph
/// sit as far from the converged ranks (ℓ₁ 0.02–0.04) as the uniform vector
/// does (ℓ₁ 0.05), so no check derived from it could tell a right answer
/// from a wrong one. At 1e-8 the ℓ₁ bound, `fixpoint_cluster_radius`
/// (0.0196 on road 300×300), is below the uniform vector's distance, and
/// the answers stay within 1e-3 of the converged ranks.
const PAGERANK_TOLERANCE: f64 = 1e-8;

/// PageRank as the workloads submit it: the default damping and sweep cap
/// at [`PAGERANK_TOLERANCE`].
fn pagerank_query() -> Query {
    Query::PageRank {
        damping: PAGERANK_DAMPING,
        max_local_iterations: 30,
        tolerance: PAGERANK_TOLERANCE,
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on nothing but
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn rounds_for(seconds: u64, round_s: f64) -> usize {
    ((seconds as f64 / round_s).round() as usize).max(1)
}

pub fn road_graph() -> io::Result<WeightedGraph> {
    road_network(
        RoadNetworkConfig {
            width: ROAD_SIDE,
            height: ROAD_SIDE,
            ..Default::default()
        },
        ROAD_GRAPH_SEED,
    )
    .map_err(|e| io::Error::other(e.to_string()))
}

pub fn social_graph() -> io::Result<LabeledGraph> {
    labeled_social(
        SocialGraphConfig {
            num_persons: SOCIAL_PERSONS,
            num_products: SOCIAL_PRODUCTS,
            ..Default::default()
        },
        SOCIAL_GRAPH_SEED,
    )
    .map_err(|e| io::Error::other(e.to_string()))
}

/// How a session's workers are hosted.
enum Hosting {
    InProcess(EngineConfig),
    /// A `GrapeService` daemon in this process, reached over a Unix-domain
    /// socket in the working directory.
    Daemon,
}

/// A connected, loaded session (and the daemon serving it, if any).
pub struct Served {
    pub session: Session,
    daemon: Option<ServiceHandle>,
}

impl Served {
    pub fn close(self) -> io::Result<()> {
        drop(self.session);
        match self.daemon {
            Some(d) => d.shutdown(),
            None => Ok(()),
        }
    }
}

/// The traced run's own calls into the partition layer (and, for remote
/// hosting, the fragment codec) on the graph a load is about to cut.
fn trace_partition<V, E>(
    rec: &mut Recorder,
    graph: &grape_graph::CsrGraph<V, E>,
    strategy: BuiltinStrategy,
    remote: bool,
) where
    V: grape_core::Wire + Clone + Default,
    E: grape_core::Wire + Clone,
{
    let assignment = rec.layer_call("partition.assign_ms", "partition.assign", || {
        strategy.partition(graph, WORKERS)
    });
    let fragments = rec.layer_call("partition.build_ms", "partition.build", || {
        build_fragments(graph, &assignment)
    });
    let (quality, secs) = rec.call("partition.evaluate", || {
        evaluate_partition(graph, &assignment)
    });
    rec.trace_overhead(secs);
    rec.layer_sample("partition.cut_edges", quality.cut_edges as f64);
    let border: usize = fragments.iter().map(|f| f.border_vertices().len()).sum();
    rec.layer_sample("partition.border_vertices", border as f64);
    let (mut encode_ms, mut decode_ms, mut bytes) = (0.0, 0.0, 0usize);
    if remote {
        for fragment in &fragments {
            let mut frame = Vec::new();
            let (_, secs) = rec.call("comm.fragment_encode", || {
                grape_core::encode_fragment(fragment, &mut frame)
            });
            encode_ms += secs * 1e3;
            let (decoded, secs) = rec.call("comm.fragment_decode", || {
                let (tag, body, _) = grape_comm::wire::decode_frame(&frame)?;
                grape_core::decode_fragment::<V, E>(tag, body)
            });
            decode_ms += secs * 1e3;
            if decoded.is_err() {
                rec.fail("fragment codec: a shipped fragment does not decode".into());
            }
            bytes += frame.len();
        }
    }
    rec.layer_sample("comm.fragment_encode_ms", encode_ms);
    rec.layer_sample("comm.fragment_decode_ms", decode_ms);
    rec.layer_sample("comm.fragment_mb", bytes as f64 / 1e6);
    rec.trace_overhead((encode_ms + decode_ms) / 1e3);
}

/// Connects and loads `SETUP_REPS` times, each on a fresh session (and
/// daemon), and keeps the last one. `setup_s` samples connect + load.
fn setup(
    rec: &mut Recorder,
    graph: &SessionGraph,
    strategy: BuiltinStrategy,
    hosting: Hosting,
) -> io::Result<Served> {
    let mut served: Option<Served> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = served.take() {
            previous.close()?;
        }
        let span = rec.begin("setup");
        let remote = matches!(hosting, Hosting::Daemon);
        if rec.tracing() {
            match graph {
                SessionGraph::Weighted(g) => trace_partition(rec, g, strategy, remote),
                SessionGraph::Labeled(g) => trace_partition(rec, g, strategy, remote),
            }
        }
        let (config, daemon) = match &hosting {
            Hosting::InProcess(engine) => (
                SessionConfig::in_process(WORKERS).with_engine(engine.clone()),
                None,
            ),
            Hosting::Daemon => {
                let path = format!(".perfbench-{}-{rep}.sock", std::process::id());
                let daemon = GrapeService::bind_uds(path, ServiceOptions::default())?.spawn()?;
                (
                    SessionConfig::remote(WORKERS, vec![daemon.endpoint().clone()]),
                    Some(daemon),
                )
            }
        };
        let t = Instant::now();
        let (session, _) = rec.call("session.connect", || Session::connect(config));
        let session = session?;
        let (loaded, load_s) = rec.call("session.load", || session.load(graph, strategy));
        let secs = t.elapsed().as_secs_f64();
        rec.op("load", loaded.is_ok());
        loaded?;
        rec.setup_sample(secs);
        rec.layer_sample("session.load_ms", load_s * 1e3);
        rec.end(span);
        served = Some(Served { session, daemon });
    }
    if rec.tracing() {
        rec.derive_ship_ms();
    }
    Ok(served.expect("at least one setup repetition"))
}

fn wrong_class(rec: &mut Recorder, want: &str, got: &QueryResult) {
    rec.fail(format!(
        "{want} query answered with a {} result",
        got.class().name()
    ));
}

/// Submits SSSP from `source`, runs Dijkstra right after it (the pair feeds
/// `seq_speedup`) and checks the answer.
fn sssp_checked(
    rec: &mut Recorder,
    session: &Session,
    g: &RefGraph,
    source: VertexId,
    measured: bool,
) {
    let Some((outcome, secs)) = rec.query(session, Query::sssp(source), measured) else {
        return;
    };
    let (reference, ref_s) = rec.call("reference.dijkstra", || g.dijkstra(source));
    if measured {
        rec.pair(secs, ref_s);
    }
    match &outcome.result {
        QueryResult::Distances(d) => rec.check(reference::check_sssp(g, d, &reference)),
        other => wrong_class(rec, "sssp", other),
    }
}

fn cc_checked(rec: &mut Recorder, session: &Session, g: &RefGraph, measured: bool) {
    let Some((outcome, secs)) = rec.query(session, Query::cc(), measured) else {
        return;
    };
    let (reference, ref_s) = rec.call("reference.union_find", || g.components());
    if measured {
        rec.pair(secs, ref_s);
    }
    match &outcome.result {
        QueryResult::Components(c) => rec.check(reference::check_cc(g, c, &reference)),
        other => wrong_class(rec, "cc", other),
    }
}

/// PageRank against a converged power iteration (`reference`, computed by
/// the caller for the current graph).
fn pagerank_checked(
    rec: &mut Recorder,
    session: &Session,
    g: &RefGraph,
    reference: &[f64],
    measured: bool,
) {
    let query = pagerank_query();
    let q = query.to_pagerank().expect("a pagerank query");
    let Some((outcome, _)) = rec.query(session, query, measured) else {
        return;
    };
    match &outcome.result {
        QueryResult::Ranks(r) => {
            let checked = reference::check_pagerank(
                g,
                r,
                reference,
                reference::PAGERANK_VERTEX_TOLERANCES * q.tolerance,
                q.fixpoint_cluster_radius(g.num_edges()),
            );
            if let Ok(gap) = &checked {
                rec.layer_sample("check.pagerank_gap", gap.vertex);
                rec.layer_sample("check.pagerank_l1_gap", gap.l1);
            }
            rec.check(checked.map(|_| ()));
        }
        other => wrong_class(rec, "pagerank", other),
    }
}

/// `road-serve`: metis-like cut, in-process workers; rounds of distinct
/// seeded SSSP sources, then CC and PageRank.
pub fn road_serve(rec: &mut Recorder, seed: u64, seconds: u64) -> io::Result<()> {
    let graph = road_graph()?;
    let g = RefGraph::from_graph(&graph);
    let vertices = g.vertices();
    let graph = SessionGraph::Weighted(graph);
    let served = setup(
        rec,
        &graph,
        BuiltinStrategy::MetisLike,
        Hosting::InProcess(EngineConfig::default()),
    )?;
    let pagerank_reference = g.pagerank(PAGERANK_DAMPING);
    let mut rng = Rng::new(seed);
    let mut used = std::collections::HashSet::new();
    let rounds = rounds_for(seconds, SERVE_ROUND_S);
    rec.stream_begin();
    for _ in 0..rounds {
        for _ in 0..SERVE_SSSP_PER_ROUND {
            let source = loop {
                let v = vertices[rng.below(vertices.len())];
                if used.len() >= vertices.len() || used.insert(v) {
                    break v;
                }
            };
            sssp_checked(rec, &served.session, &g, source, true);
        }
        for _ in 0..SERVE_CC_PER_ROUND {
            cc_checked(rec, &served.session, &g, true);
        }
        pagerank_checked(rec, &served.session, &g, &pagerank_reference, true);
    }
    rec.stream_end(rounds);
    served.close()
}

/// `road-churn`: hash cut, in-process workers, a superstep budget; cold
/// SSSP (from three seeded sources), CC and PageRank first, then rounds of
/// one update batch followed by the same queries again, answered warm.
pub fn road_churn(rec: &mut Recorder, seed: u64, seconds: u64) -> io::Result<()> {
    let graph = road_graph()?;
    let mut g = RefGraph::from_graph(&graph);
    let vertices = g.vertices();
    // The traced run's own delta overlay and fragments, mutated batch by
    // batch like the session's.
    let mut mirror = rec.tracing().then(|| {
        let assignment = BuiltinStrategy::Hash.partition(&graph, WORKERS);
        let fragments = build_fragments(&graph, &assignment);
        (DeltaGraph::new(graph.clone()), assignment, fragments)
    });
    let graph = SessionGraph::Weighted(graph);
    let engine = EngineConfig::builder()
        .max_supersteps(CHURN_MAX_SUPERSTEPS)
        .build();
    let served = setup(
        rec,
        &graph,
        BuiltinStrategy::Hash,
        Hosting::InProcess(engine),
    )?;
    let session = &served.session;
    let damping = PAGERANK_DAMPING;
    // The sources are drawn from the block of cells around the grid's
    // centre: how much of a warm answer a batch disturbs depends on where the
    // source sits, and sources far apart would make the seed, not the engine,
    // set the figures.
    let centre: Vec<VertexId> = vertices
        .iter()
        .copied()
        .filter(|&v| {
            let (x, y) = (v as usize % ROAD_SIDE, v as usize / ROAD_SIDE);
            x.abs_diff(ROAD_SIDE / 2) <= CHURN_SOURCE_RADIUS
                && y.abs_diff(ROAD_SIDE / 2) <= CHURN_SOURCE_RADIUS
        })
        .collect();
    let mut rng = Rng::new(seed);
    let sources: Vec<VertexId> = (0..CHURN_SOURCES)
        .map(|_| centre[rng.below(centre.len())])
        .collect();
    let mut batches = Rng::new(CHURN_BATCH_SEED);

    for &source in &sources {
        sssp_checked(rec, session, &g, source, false);
    }
    cc_checked(rec, session, &g, false);
    let reference = g.pagerank(damping);
    pagerank_checked(rec, session, &g, &reference, false);

    let rounds = rounds_for(seconds, CHURN_ROUND_S);
    rec.stream_begin();
    for _ in 0..rounds {
        let batch: Vec<GraphMutation<(), f64>> = (0..CHURN_BATCH_EDGES)
            .map(|_| loop {
                let src = vertices[batches.below(vertices.len())];
                let dst = vertices[batches.below(vertices.len())];
                if src != dst {
                    break GraphMutation::AddEdge {
                        src,
                        dst,
                        data: 1.0 + 9.0 * batches.unit(),
                    };
                }
            })
            .collect();
        if let Some((delta, assignment, fragments)) = mirror.as_mut() {
            let applied = rec.layer_call("graph.delta_apply_ms", "graph.delta_apply", || {
                delta.apply(&batch)
            });
            match applied {
                Ok(applied) => {
                    rec.layer_sample("graph.dirty_vertices", applied.dirty.len() as f64);
                    let updated = rec.layer_call("partition.mutate_ms", "partition.mutate", || {
                        let resolved = resolve_net_mutations(applied.net, assignment, |v| {
                            delta.vertex_data(v).cloned()
                        });
                        fragments
                            .iter()
                            .map(|f| f.apply_mutations(&resolved))
                            .collect::<Result<Vec<_>, _>>()
                    });
                    match updated {
                        Ok(updated) => *fragments = updated,
                        Err(e) => rec.fail(format!("fragment mutation failed: {e}")),
                    }
                }
                Err(e) => rec.fail(format!("delta overlay refused a batch: {e}")),
            }
        }
        if rec.update(session, batch.clone()).is_none() {
            // The session's graph no longer matches the reference graph;
            // later answers could not be checked.
            rec.fail("an update batch failed; the run cannot go on".into());
            break;
        }
        rec.call("reference.replay", || {
            for m in &batch {
                if let GraphMutation::AddEdge { src, dst, data } = m {
                    g.add_edge(*src, *dst, *data);
                }
            }
        });
        for &source in &sources {
            sssp_checked(rec, session, &g, source, true);
        }
        cc_checked(rec, session, &g, true);
        let (reference, _) = rec.call("reference.power_iteration", || g.pagerank(damping));
        pagerank_checked(rec, session, &g, &reference, true);
    }
    rec.stream_end(rounds);
    drop(mirror);
    served.close()
}

/// Simulation patterns of the `social-remote` stream (all within the
/// engine's 64-vertex limit).
fn sim_patterns() -> Vec<PatternGraph> {
    let chain = |relation: &str| {
        PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
            .edge_labeled(0, 1, "follows")
            .edge_labeled(1, 2, relation)
    };
    vec![
        chain("recommends"),
        chain("buys"),
        chain("rates_bad"),
        PatternGraph::new(vec![
            "person".into(),
            "person".into(),
            "person".into(),
            "product".into(),
        ])
        .edge_labeled(0, 1, "follows")
        .edge_labeled(1, 2, "follows")
        .edge_labeled(2, 3, "recommends"),
    ]
}

/// Total-distance bound of the keyword queries, in hops.
const KEYWORD_BOUND: f64 = 3.0;

const KEYWORDS: [&str; 10] = [
    "student", "engineer", "artist", "doctor", "teacher", "phone", "laptop", "camera", "tablet",
    "watch",
];

/// `social-remote`: hash cut, served by a `GrapeService` daemon over a
/// Unix-domain socket; rounds of sim, keyword and marketing (distinct
/// products) with one subgraph-isomorphism query per round.
pub fn social_remote(rec: &mut Recorder, seed: u64, seconds: u64) -> io::Result<()> {
    let graph = social_graph()?;
    let session_graph = SessionGraph::Labeled(graph.clone());
    let served = setup(rec, &session_graph, BuiltinStrategy::Hash, Hosting::Daemon)?;
    let session = &served.session;
    let mut rng = Rng::new(seed);
    let patterns = sim_patterns();
    // The patterns take turns from a seeded start, so every run matches each
    // about equally often.
    let mut next_pattern = rng.below(patterns.len());
    let mut products: Vec<VertexId> = (0..SOCIAL_PRODUCTS as u64)
        .map(|i| SOCIAL_PERSONS as u64 + i)
        .collect();
    for i in (1..products.len()).rev() {
        products.swap(i, rng.below(i + 1));
    }
    let mut next_product = 0;
    // A radius-1 star like `Query::canonical_subiso`, with `buys` for
    // `recommends`: the same neighbourhood replication (about 100 MB per
    // query) with a fifth of the embeddings to hold and check.
    let subiso = Query::subiso(
        PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
            .edge_labeled(0, 1, "follows")
            .edge_labeled(0, 2, "buys"),
    );
    let rounds = rounds_for(seconds, SOCIAL_ROUND_S);
    rec.stream_begin();
    for _ in 0..rounds {
        for class in SOCIAL_ROUND {
            match class {
                "sim" => {
                    let pattern = patterns[next_pattern % patterns.len()].clone();
                    next_pattern += 1;
                    let Some((o, secs)) = rec.query(session, Query::sim(pattern.clone()), true)
                    else {
                        continue;
                    };
                    let (reference, ref_s) = rec.call("reference.sequential_sim", || {
                        grape_algo::sim::sequential_sim(&graph, &pattern)
                    });
                    rec.pair(secs, ref_s);
                    match &o.result {
                        QueryResult::Matches(m) => {
                            rec.check(labeled::check_sim(&graph, &pattern, m, &reference))
                        }
                        other => wrong_class(rec, class, other),
                    }
                }
                "keyword" => {
                    let a = rng.below(KEYWORDS.len());
                    let b = (a + 1 + rng.below(KEYWORDS.len() - 1)) % KEYWORDS.len();
                    let bound = KEYWORD_BOUND;
                    let query = Query::keyword([KEYWORDS[a], KEYWORDS[b]], bound);
                    let typed = query.to_keyword().expect("a keyword query");
                    let Some((o, secs)) = rec.query(session, query, true) else {
                        continue;
                    };
                    let (reference, ref_s) = rec.call("reference.sequential_keyword", || {
                        grape_algo::keyword::sequential_keyword(&graph, &typed)
                    });
                    rec.pair(secs, ref_s);
                    match &o.result {
                        QueryResult::Answers(a) => {
                            rec.check(labeled::check_keyword(a, &reference, bound))
                        }
                        other => wrong_class(rec, class, other),
                    }
                }
                "marketing" => {
                    let product = products[next_product % products.len()];
                    next_product += 1;
                    let query = Query::marketing(product);
                    let typed = query.to_marketing().expect("a marketing query");
                    let Some((o, secs)) = rec.query(session, query, true) else {
                        continue;
                    };
                    let (reference, ref_s) = rec.call("reference.sequential_marketing", || {
                        grape_algo::marketing::sequential_marketing(&graph, &typed)
                    });
                    rec.pair(secs, ref_s);
                    match &o.result {
                        QueryResult::Prospects(p) => rec.check(labeled::check_marketing(
                            &graph,
                            product,
                            typed.min_recommend_ratio,
                            typed.min_followees,
                            p,
                            &reference,
                        )),
                        other => wrong_class(rec, class, other),
                    }
                }
                _ => {
                    let pattern = subiso.to_subiso().expect("a subiso query").pattern;
                    let Some((o, secs)) = rec.query(session, subiso.clone(), true) else {
                        continue;
                    };
                    let (reference, ref_s) = rec.call("reference.sequential_subiso", || {
                        grape_algo::subiso::sequential_subiso(&graph, &pattern)
                    });
                    rec.pair(secs, ref_s);
                    match o.result {
                        QueryResult::Embeddings(e) => {
                            rec.check(labeled::check_subiso(&graph, &pattern, e, reference))
                        }
                        other => wrong_class(rec, class, &other),
                    }
                }
            }
        }
    }
    rec.stream_end(rounds);
    served.close()
}
