//! Output checks that do not trust the label index: graph-search
//! oracles from `sfgraph::traversal`, plus properties every exact
//! distance answer has.

use std::collections::HashMap;

use sfgraph::traversal::bidirectional_distance;
use sfgraph::{Dist, Graph, GraphBuilder, VertexId};

/// Failed checks collected over a run; the run is correct when empty.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record the outcome of one check.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            eprintln!("CHECK FAILED [{what}]: {why}");
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// Whether every recorded check passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// `answers[i]` must equal the shortest-path distance of `pairs[i]` on
/// `g`, found by bidirectional BFS (Dijkstra when weighted).
pub fn against_oracle(
    g: &Graph,
    pairs: &[(VertexId, VertexId)],
    answers: &[Dist],
) -> Result<(), String> {
    if pairs.len() != answers.len() {
        return Err(format!("{} answers for {} pairs", answers.len(), pairs.len()));
    }
    for (&(s, t), &got) in pairs.iter().zip(answers) {
        let want = bidirectional_distance(g, s, t);
        if got != want {
            return Err(format!("d({s}, {t}) answered {got}, graph search gives {want}"));
        }
    }
    Ok(())
}

/// Graph-search distances of `pairs` on `g`.
pub fn oracle(g: &Graph, pairs: &[(VertexId, VertexId)]) -> Vec<Dist> {
    pairs.iter().map(|&(s, t)| bidirectional_distance(g, s, t)).collect()
}

/// Judge a reply against the exact answers (`want`) and against the
/// answers a known fault predicts (`fault`): `Ok(true)` when exact,
/// `Ok(false)` when it differs from `want` exactly as the fault
/// predicts, and an error otherwise.
pub fn exact_or_fault(got: &[Dist], want: &[Dist], fault: &[Dist]) -> Result<bool, String> {
    match same(got, want) {
        Ok(()) => Ok(true),
        Err(why) => match same(got, fault) {
            Ok(()) => Ok(false),
            Err(_) => Err(why),
        },
    }
}

/// For answers given while edges were being inserted: each must lie
/// between the distance after every insertion (`low`) and before any
/// (`high`), since insertions only shorten paths.
pub fn between_oracles(
    low: &Graph,
    high: &Graph,
    pairs: &[(VertexId, VertexId)],
    answers: &[Dist],
) -> Result<(), String> {
    for (&(s, t), &got) in pairs.iter().zip(answers) {
        let (lo, hi) = (bidirectional_distance(low, s, t), bidirectional_distance(high, s, t));
        if got < lo || got > hi {
            return Err(format!("d({s}, {t}) answered {got} outside [{lo}, {hi}]"));
        }
    }
    Ok(())
}

/// Properties of one answered frame: `d(s, s) = 0`, and on undirected
/// graphs `d(s, t) = d(t, s)` for every pair whose reverse the frame
/// also asks.
pub fn properties(
    pairs: &[(VertexId, VertexId)],
    answers: &[Dist],
    directed: bool,
) -> Result<(), String> {
    if pairs.len() != answers.len() {
        return Err(format!("{} answers for {} pairs", answers.len(), pairs.len()));
    }
    let mut seen: HashMap<(VertexId, VertexId), Dist> = HashMap::with_capacity(pairs.len());
    for (&(s, t), &d) in pairs.iter().zip(answers) {
        if s == t && d != 0 {
            return Err(format!("d({s}, {s}) answered {d}, want 0"));
        }
        if !directed {
            if let Some(&back) = seen.get(&(t, s)) {
                if back != d {
                    return Err(format!("d({s}, {t}) = {d} but d({t}, {s}) = {back}"));
                }
            }
        }
        seen.insert((s, t), d);
    }
    Ok(())
}

/// `got` must equal `want` element for element.
pub fn same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, want {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!("differs at {i}: {:?} vs {:?}", got[i], want[i])),
    }
}

/// `g` plus the inserted `edges` (duplicates keep the smaller weight).
pub fn with_edges(g: &Graph, edges: &[(VertexId, VertexId, Dist)]) -> Graph {
    let n = g.num_vertices();
    let mut b = if g.is_directed() {
        GraphBuilder::new_directed(n)
    } else {
        GraphBuilder::new_undirected(n)
    };
    let weighted = g.is_weighted() || edges.iter().any(|&(_, _, w)| w != 1);
    if weighted {
        b = b.weighted();
    }
    for (u, v, w) in g.edge_list() {
        b.add_weighted_edge(u, v, w);
    }
    for &(u, v, w) in edges {
        b.add_weighted_edge(u, v, w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The path 0 – 1 – 2 – 3 plus an isolated vertex 4.
    fn path() -> Graph {
        let mut b = GraphBuilder::new_undirected(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn oracle_accepts_exact_answers_and_rejects_one_wrong_answer() {
        let g = path();
        let pairs = [(0, 3), (3, 0), (1, 1), (0, 4), (2, 0)];
        let mut answers = vec![3, 3, 0, Dist::MAX, 2];
        assert_eq!(against_oracle(&g, &pairs, &answers), Ok(()));
        assert_eq!(properties(&pairs, &answers, false), Ok(()));
        answers[4] = 1;
        assert!(against_oracle(&g, &pairs, &answers).is_err());
    }

    #[test]
    fn properties_catch_nonzero_self_distance_and_asymmetry() {
        let pairs = [(0, 3), (3, 0), (1, 1)];
        assert!(properties(&pairs, &[3, 3, 1], false).is_err(), "d(s, s) must be 0");
        assert!(properties(&pairs, &[3, 2, 0], false).is_err(), "undirected answers are symmetric");
        assert_eq!(properties(&pairs, &[3, 2, 0], true), Ok(()), "directed answers need not be");
    }

    #[test]
    fn inserted_edges_bound_answers_given_during_updates() {
        let g = path();
        let after = with_edges(&g, &[(0, 3, 1)]);
        let pairs = [(0, 3)];
        assert_eq!(between_oracles(&after, &g, &pairs, &[3]), Ok(()));
        assert_eq!(between_oracles(&after, &g, &pairs, &[1]), Ok(()));
        assert!(between_oracles(&after, &g, &pairs, &[0]).is_err());
        assert!(between_oracles(&after, &g, &pairs, &[4]).is_err());
        assert_eq!(against_oracle(&after, &pairs, &[1]), Ok(()));
    }

    #[test]
    fn a_known_fault_is_told_apart_from_a_wrong_answer() {
        let g = path();
        let pairs = [(0, 3), (1, 2)];
        // The fault keeps the graph; the exact answers include an edge 0 – 3.
        let want = oracle(&with_edges(&g, &[(0, 3, 1)]), &pairs);
        let fault = oracle(&g, &pairs);
        assert_eq!((want.clone(), fault.clone()), (vec![1, 1], vec![3, 1]));
        assert_eq!(exact_or_fault(&want, &want, &fault), Ok(true));
        assert_eq!(exact_or_fault(&fault, &want, &fault), Ok(false));
        assert!(exact_or_fault(&[2, 1], &want, &fault).is_err(), "neither exact nor the fault");
    }

    #[test]
    fn same_reports_the_first_difference() {
        assert_eq!(same(&[1, 2, 3], &[1, 2, 3]), Ok(()));
        assert!(same(&[1, 2, 3], &[1, 9, 3]).unwrap_err().contains("at 1"));
        assert!(same(&[1, 2], &[1, 2, 3]).is_err());
    }

    #[test]
    fn checks_collect_failures() {
        let mut c = Checks::default();
        c.record("fine", Ok(()));
        assert!(c.all_passed());
        c.record("broken", Err("wrong answer".into()));
        assert!(!c.all_passed());
    }
}
