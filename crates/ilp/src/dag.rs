//! Exact longest-path solver on DAGs.
//!
//! After the VIVU transformation, the IPET instance of a reducible program
//! is equivalent to a node-weighted longest path on the acyclic context
//! graph, where each node's weight is its per-execution time multiplied by
//! its context multiplicity (product of enclosing `bound` / `bound − 1`
//! factors). At a linear objective's maximum the flow concentrates on one
//! path, so the longest path equals the IPET optimum — the cross-check
//! against [`crate::ilp::solve`] is a property test in this module's suite.

use std::error::Error;
use std::fmt;

/// Error returned when the input graph is not a DAG or refers to unknown
/// nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DagError {
    /// An edge endpoint is out of range.
    NodeOutOfRange(usize),
    /// The graph contains a cycle.
    Cyclic,
    /// The sink is unreachable from the source.
    Unreachable,
    /// A path's total weight exceeds `u64::MAX`.
    Overflow,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NodeOutOfRange(n) => write!(f, "node {n} out of range"),
            DagError::Cyclic => write!(f, "graph contains a cycle"),
            DagError::Unreachable => write!(f, "sink unreachable from source"),
            DagError::Overflow => write!(f, "path weight overflows u64"),
        }
    }
}

impl Error for DagError {}

/// A node-weighted directed acyclic graph.
///
/// # Example
///
/// ```
/// use rtpf_ilp::dag::Dag;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 0 → {1 (heavy), 2 (light)} → 3
/// let mut dag = Dag::new(vec![1, 10, 3, 1]);
/// dag.add_edge(0, 1)?;
/// dag.add_edge(0, 2)?;
/// dag.add_edge(1, 3)?;
/// dag.add_edge(2, 3)?;
/// let best = dag.longest_path(0, 3)?;
/// assert_eq!(best.value, 12);
/// assert_eq!(best.path, vec![0, 1, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Dag {
    weights: Vec<u64>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

/// Result of a longest-path query: total weight and the path itself
/// (source and sink included).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LongestPath {
    /// Sum of node weights along the path.
    pub value: u64,
    /// Nodes on the path, source first.
    pub path: Vec<usize>,
}

impl Dag {
    /// A DAG with `n` nodes of the given weights and no edges.
    pub fn new(weights: Vec<u64>) -> Self {
        let n = weights.len();
        Dag {
            weights,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Adds edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::NodeOutOfRange`] for an unknown endpoint.
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<(), DagError> {
        for n in [from, to] {
            if n >= self.weights.len() {
                return Err(DagError::NodeOutOfRange(n));
            }
        }
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
        Ok(())
    }

    /// Updates the weight of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_weight(&mut self, node: usize, w: u64) {
        self.weights[node] = w;
    }

    /// Weight of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn weight(&self, node: usize) -> u64 {
        self.weights[node]
    }

    /// Successors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn succs(&self, node: usize) -> &[usize] {
        &self.succs[node]
    }

    /// Maximum-weight path from `source` to `sink`.
    ///
    /// # Errors
    ///
    /// Fails on cyclic graphs, out-of-range endpoints, when `sink` is
    /// unreachable from `source`, or when a path's weight overflows
    /// `u64`.
    pub fn longest_path(&self, source: usize, sink: usize) -> Result<LongestPath, DagError> {
        let n = self.weights.len();
        for e in [source, sink] {
            if e >= n {
                return Err(DagError::NodeOutOfRange(e));
            }
        }
        let order = self.topo_order()?;
        let mut best: Vec<Option<u64>> = vec![None; n];
        let mut from: Vec<usize> = vec![usize::MAX; n];
        best[source] = Some(self.weights[source]);
        for &u in &order {
            let Some(bu) = best[u] else { continue };
            for &v in &self.succs[u] {
                let cand = bu.checked_add(self.weights[v]).ok_or(DagError::Overflow)?;
                if best[v].is_none_or(|bv| cand > bv) {
                    best[v] = Some(cand);
                    from[v] = u;
                }
            }
        }
        let Some(value) = best[sink] else {
            return Err(DagError::Unreachable);
        };
        let mut path = vec![sink];
        let mut cur = sink;
        while cur != source {
            cur = from[cur];
            path.push(cur);
        }
        path.reverse();
        Ok(LongestPath { value, path })
    }

    /// Kahn topological order.
    fn topo_order(&self) -> Result<Vec<usize>, DagError> {
        let n = self.weights.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DagError::Cyclic)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_heavier_arm_of_a_diamond() {
        // 0 → {1 (w=10), 2 (w=3)} → 3
        let mut d = Dag::new(vec![1, 10, 3, 1]);
        d.add_edge(0, 1).unwrap();
        d.add_edge(0, 2).unwrap();
        d.add_edge(1, 3).unwrap();
        d.add_edge(2, 3).unwrap();
        let lp = d.longest_path(0, 3).unwrap();
        assert_eq!(lp.value, 12);
        assert_eq!(lp.path, vec![0, 1, 3]);
    }

    #[test]
    fn chain_sums_all_weights() {
        let mut d = Dag::new(vec![2, 3, 4]);
        d.add_edge(0, 1).unwrap();
        d.add_edge(1, 2).unwrap();
        assert_eq!(d.longest_path(0, 2).unwrap().value, 9);
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut d = Dag::new(vec![1, 1]);
        d.add_edge(0, 1).unwrap();
        d.add_edge(1, 0).unwrap();
        assert_eq!(d.longest_path(0, 1), Err(DagError::Cyclic));
    }

    #[test]
    fn unreachable_sink_rejected() {
        let d = Dag::new(vec![1, 1]);
        assert_eq!(d.longest_path(0, 1), Err(DagError::Unreachable));
    }

    #[test]
    fn overflowing_path_weight_is_an_error() {
        let mut d = Dag::new(vec![u64::MAX - 1, 1, 1]);
        d.add_edge(0, 1).unwrap();
        assert_eq!(d.longest_path(0, 1).unwrap().value, u64::MAX);
        d.add_edge(1, 2).unwrap();
        assert_eq!(d.longest_path(0, 2), Err(DagError::Overflow));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = Dag::new(vec![1]);
        assert_eq!(d.add_edge(0, 5), Err(DagError::NodeOutOfRange(5)));
        assert_eq!(d.longest_path(0, 9), Err(DagError::NodeOutOfRange(9)));
    }

    #[test]
    fn matches_ilp_on_a_diamond() {
        // Cross-check the equivalence the wcet crate relies on: longest
        // path == IPET ILP on the same diamond.
        use crate::problem::{Cmp, LinearProgram};
        let weights = [5.0, 9.0, 4.0, 2.0];
        let mut lp = LinearProgram::new(4);
        lp.set_objective(&weights);
        lp.add_constraint(&[(0, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0), (2, -1.0)], Cmp::Eq, 0.0);
        lp.add_constraint(&[(3, 1.0), (1, -1.0), (2, -1.0)], Cmp::Eq, 0.0);
        let ilp = crate::ilp::solve(&lp).optimal().unwrap();

        let mut d = Dag::new(vec![5, 9, 4, 2]);
        d.add_edge(0, 1).unwrap();
        d.add_edge(0, 2).unwrap();
        d.add_edge(1, 3).unwrap();
        d.add_edge(2, 3).unwrap();
        let path = d.longest_path(0, 3).unwrap();
        assert_eq!(path.value as f64, ilp.value);
    }
}
