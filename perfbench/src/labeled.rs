//! Checks for the labeled classes: each answer must equal the engine-free
//! `sequential_*` function of `grape_algo` and satisfy the defining property
//! of its class, checked here directly against the graph.

use grape_algo::{KeywordAnswer, Prospect, SimMatches};
use grape_graph::labels::PatternGraph;
use grape_graph::{LabeledGraph, VertexId};

fn label(g: &LabeledGraph, v: VertexId) -> &str {
    g.vertex_data(v).map_or("", |d| d.label.0.as_str())
}

fn has_edge(g: &LabeledGraph, from: VertexId, to: VertexId, relation: Option<&str>) -> bool {
    g.out_edges(from)
        .any(|(d, rel)| d == to && relation.is_none_or(|r| r == rel))
}

/// Equal to the reference, and every match of pattern vertex `u` carries
/// `u`'s label and is witnessed along every pattern edge out of `u` by an
/// edge into a match of the edge's target.
pub fn check_sim(
    g: &LabeledGraph,
    pattern: &PatternGraph,
    answer: &SimMatches,
    reference: &SimMatches,
) -> Result<(), String> {
    if answer != reference {
        let sizes = |m: &SimMatches| m.iter().map(|s| s.len()).collect::<Vec<_>>();
        return Err(format!(
            "sim: match sizes {:?}, reference {:?}",
            sizes(answer),
            sizes(reference)
        ));
    }
    for (u, matches) in answer.iter().enumerate() {
        for &v in matches {
            if label(g, v) != pattern.labels[u].0 {
                return Err(format!(
                    "sim: vertex {v} matches pattern vertex {u} with the wrong label"
                ));
            }
            for (child, relation) in pattern.out_edges(u) {
                let witnessed = g.out_edges(v).any(|(w, rel)| {
                    relation.is_none_or(|r| r == rel) && answer[child].contains(&w)
                });
                if !witnessed {
                    return Err(format!(
                        "sim: match {v} of pattern vertex {u} has no witness for edge to {child}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Equal to the reference as a set, and every embedding is injective,
/// label-preserving and edge-preserving.
pub fn check_subiso(
    g: &LabeledGraph,
    pattern: &PatternGraph,
    mut answer: Vec<Vec<VertexId>>,
    mut reference: Vec<Vec<VertexId>>,
) -> Result<(), String> {
    answer.sort_unstable();
    reference.sort_unstable();
    if answer != reference {
        return Err(format!(
            "subiso: {} embeddings, reference {}",
            answer.len(),
            reference.len()
        ));
    }
    for m in &answer {
        if m.len() != pattern.num_vertices() {
            return Err(format!("subiso: embedding {m:?} has the wrong width"));
        }
        for (i, v) in m.iter().enumerate() {
            if m[..i].contains(v) {
                return Err(format!("subiso: embedding {m:?} is not injective"));
            }
            if label(g, *v) != pattern.labels[i].0 {
                return Err(format!("subiso: embedding {m:?} breaks a label"));
            }
        }
        for (a, b, relation) in &pattern.edges {
            if !has_edge(g, m[*a], m[*b], relation.as_deref()) {
                return Err(format!(
                    "subiso: embedding {m:?} misses pattern edge {a}->{b}"
                ));
            }
        }
    }
    Ok(())
}

/// Equal to the reference, and every answer's total is the sum of its
/// finite distances and within the query's bound.
pub fn check_keyword(
    answer: &[KeywordAnswer],
    reference: &[KeywordAnswer],
    bound: f64,
) -> Result<(), String> {
    if answer != reference {
        return Err(format!(
            "keyword: {} answers, reference {}",
            answer.len(),
            reference.len()
        ));
    }
    for a in answer {
        let sum: f64 = a.distances.iter().sum();
        if !sum.is_finite() || sum != a.total || a.total > bound {
            return Err(format!(
                "keyword: answer rooted at {} is inconsistent",
                a.root
            ));
        }
    }
    Ok(())
}

/// Equal to the reference, and every prospect is a person who neither buys
/// nor rates the product badly, follows at least `min_followees` people, of
/// whom at least `min_ratio` recommend the product and none rates it badly.
pub fn check_marketing(
    g: &LabeledGraph,
    product: VertexId,
    min_ratio: f64,
    min_followees: usize,
    answer: &[Prospect],
    reference: &[Prospect],
) -> Result<(), String> {
    if answer != reference {
        return Err(format!(
            "marketing: {} prospects, reference {}",
            answer.len(),
            reference.len()
        ));
    }
    for p in answer {
        let x = p.person;
        let bad = |v| has_edge(g, v, product, Some("rates_bad"));
        if label(g, x) != "person" || has_edge(g, x, product, Some("buys")) || bad(x) {
            return Err(format!("marketing: {x} is not an open prospect"));
        }
        let followees: Vec<VertexId> = g
            .out_edges(x)
            .filter(|(_, rel)| rel.as_str() == "follows")
            .map(|(d, _)| d)
            .collect();
        let recommending = followees
            .iter()
            .filter(|&&f| has_edge(g, f, product, Some("recommends")))
            .count();
        let ratio = recommending as f64 / followees.len() as f64;
        if followees.len() != p.followees
            || followees.len() < min_followees
            || ratio != p.recommend_ratio
            || ratio < min_ratio
            || followees.iter().any(|&f| bad(f))
        {
            return Err(format!(
                "marketing: prospect {x} does not meet the thresholds"
            ));
        }
    }
    Ok(())
}
