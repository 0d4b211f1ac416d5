//! IPET: implicit path enumeration over the VIVU graph.
//!
//! The objective `maximize Σ t_w(bb)·n_bb` (paper Eq. 1) is solved two
//! ways: exactly and fast via a node-weighted longest path on the acyclic
//! VIVU graph (node weight = per-execution time × context multiplicity),
//! and via the general ILP encoding with flow-conservation constraints,
//! used to cross-validate the fast path in tests.

use rtpf_ilp::dag::{Dag, DagError};
use rtpf_ilp::{Cmp, LinearProgram};

use crate::error::AnalysisError;
use crate::vivu::{NodeId, VivuGraph};

/// Result of the IPET optimization.
#[derive(Clone, Debug)]
pub struct IpetResult {
    /// The memory system's contribution to the WCET, `τ_w` (Eq. 3).
    pub tau_w: u64,
    /// Whether each VIVU node lies on the WCET path.
    pub on_path: Vec<bool>,
    /// WCET-scenario execution count `n^w` per VIVU node
    /// (multiplicity if on the path, 0 otherwise).
    pub n_w: Vec<u64>,
}

/// Solves IPET as a longest path on the acyclic VIVU graph.
///
/// `node_weight[i]` must be the **total** WCET-scenario contribution of
/// node `i` per program run, i.e. `Σ_r t_w(r) × mult(node)` over the node's
/// references.
///
/// # Errors
///
/// Returns [`AnalysisError::Ipet`] if the graph is malformed and
/// [`AnalysisError::Overflow`] if the longest path's weight overflows.
pub fn solve_dag(vivu: &VivuGraph, node_weight: &[u64]) -> Result<IpetResult, AnalysisError> {
    let n = vivu.len();
    assert_eq!(node_weight.len(), n, "one weight per VIVU node");
    // Virtual source (n) and sink (n + 1).
    let mut weights = node_weight.to_vec();
    weights.push(0);
    weights.push(0);
    let mut dag = Dag::new(weights);
    for u in 0..n {
        for &v in vivu.succs(NodeId(u as u32)) {
            dag.add_edge(u, v.index())
                .map_err(|e| AnalysisError::Ipet(e.to_string()))?;
        }
    }
    dag.add_edge(n, vivu.entry().index())
        .map_err(|e| AnalysisError::Ipet(e.to_string()))?;
    for e in vivu.exits() {
        dag.add_edge(e.index(), n + 1)
            .map_err(|e| AnalysisError::Ipet(e.to_string()))?;
    }
    let lp = dag.longest_path(n, n + 1).map_err(|e| match e {
        DagError::Overflow => AnalysisError::Overflow,
        e => AnalysisError::Ipet(e.to_string()),
    })?;
    let mut on_path = vec![false; n];
    for &node in &lp.path {
        if node < n {
            on_path[node] = true;
        }
    }
    let n_w: Vec<u64> = (0..n)
        .map(|i| {
            if on_path[i] {
                vivu.node(NodeId(i as u32)).mult
            } else {
                0
            }
        })
        .collect();
    Ok(IpetResult {
        tau_w: lp.value,
        on_path,
        n_w,
    })
}

/// Solves the same instance with the general ILP encoding (edge-flow
/// formulation). Exponentially slower than [`solve_dag`]; used for
/// cross-validation and as the reference implementation of Eq. 1.
///
/// # Errors
///
/// Returns [`AnalysisError::Ipet`] if the instance is infeasible.
pub fn solve_ilp(vivu: &VivuGraph, node_weight: &[u64]) -> Result<u64, AnalysisError> {
    let n = vivu.len();
    // Collect edges including source (index n) and sink (n + 1).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for u in 0..n {
        for &v in vivu.succs(NodeId(u as u32)) {
            edges.push((u, v.index()));
        }
    }
    edges.push((n, vivu.entry().index()));
    for e in vivu.exits() {
        edges.push((e.index(), n + 1));
    }
    let m = edges.len();
    let mut lp = LinearProgram::new(m);
    // Objective: weight of a node × its in-flow.
    for (e, &(_, v)) in edges.iter().enumerate() {
        if v < n {
            let w = node_weight[v] as f64;
            if w != 0.0 {
                let cur = lp.objective()[e];
                lp.set_objective_coeff(e, cur + w);
            }
        }
    }
    // Source emits one unit.
    let src_out: Vec<(usize, f64)> = edges
        .iter()
        .enumerate()
        .filter(|(_, &(u, _))| u == n)
        .map(|(e, _)| (e, 1.0))
        .collect();
    lp.add_constraint(&src_out, Cmp::Eq, 1.0);
    // Conservation at every real node.
    for v in 0..n {
        let mut row: Vec<(usize, f64)> = Vec::new();
        for (e, &(a, b)) in edges.iter().enumerate() {
            if b == v {
                row.push((e, 1.0));
            }
            if a == v {
                row.push((e, -1.0));
            }
        }
        if !row.is_empty() {
            lp.add_constraint(&row, Cmp::Eq, 0.0);
        }
    }
    let sol = rtpf_ilp::ilp::solve(&lp)
        .optimal()
        .ok_or_else(|| AnalysisError::Ipet("infeasible flow".into()))?;
    Ok(sol.value.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn weights_all_one_times_mult(v: &VivuGraph) -> Vec<u64> {
        v.nodes().iter().map(|n| n.mult).collect()
    }

    /// One loop, then `loop 10 { n × (loop 6 { code 12 }; code 5) }` for
    /// n = 2, 4, 8.
    #[test]
    fn dag_and_ilp_agree_on_a_loop() {
        let inner = || Shape::seq([Shape::loop_(6, Shape::code(12)), Shape::code(5)]);
        let sequenced =
            |n| Shape::loop_(10, Shape::seq((0..n).map(|_| inner()).collect::<Vec<_>>()));
        let shapes = [
            Shape::loop_(10, Shape::code(5)),
            sequenced(2),
            sequenced(4),
            sequenced(8),
        ];
        for (i, shape) in shapes.into_iter().enumerate() {
            let p = shape.compile("l");
            let v = VivuGraph::build(&p).unwrap();
            let w = weights_all_one_times_mult(&v);
            let dag = solve_dag(&v, &w).unwrap();
            let ilp = solve_ilp(&v, &w).unwrap();
            assert_eq!(dag.tau_w, ilp, "shape {i}");
        }
    }

    #[test]
    fn dag_and_ilp_agree_on_nested_conditionals() {
        let p = Shape::loop_(
            5,
            Shape::if_else(1, Shape::loop_(3, Shape::code(4)), Shape::code(2)),
        )
        .compile("n");
        let v = VivuGraph::build(&p).unwrap();
        let w = weights_all_one_times_mult(&v);
        assert_eq!(solve_dag(&v, &w).unwrap().tau_w, solve_ilp(&v, &w).unwrap());
    }

    #[test]
    fn wcet_path_takes_heavier_arm() {
        let p = Shape::if_else(1, Shape::code(20), Shape::code(7)).compile("d");
        let v = VivuGraph::build(&p).unwrap();
        // Weight = number of instructions (1 cycle each, mult = 1).
        let w: Vec<u64> = v
            .nodes()
            .iter()
            .map(|n| p.block(n.block).len() as u64)
            .collect();
        let r = solve_dag(&v, &w).unwrap();
        // The heavy arm (20 instrs) is on the path, the light one is not.
        let heavy_on = v
            .nodes()
            .iter()
            .any(|n| p.block(n.block).len() == 20 && r.on_path[n.id.index()]);
        let light_on = v
            .nodes()
            .iter()
            .any(|n| p.block(n.block).len() == 7 && r.on_path[n.id.index()]);
        assert!(heavy_on);
        assert!(!light_on);
    }

    #[test]
    fn n_w_is_mult_on_path_zero_off_path() {
        let p = Shape::loop_(10, Shape::code(5)).compile("l");
        let v = VivuGraph::build(&p).unwrap();
        let w = weights_all_one_times_mult(&v);
        let r = solve_dag(&v, &w).unwrap();
        for n in v.nodes() {
            if r.on_path[n.id.index()] {
                assert_eq!(r.n_w[n.id.index()], n.mult);
            } else {
                assert_eq!(r.n_w[n.id.index()], 0);
            }
        }
    }

    #[test]
    fn loop_wcet_accounts_all_iterations() {
        // Body of 5 instrs × bound 10 → the path must count 1×5 (first)
        // + 9×5 (rest) = 50 body-instruction executions, plus entry/header/
        // exit code.
        let p = Shape::loop_(10, Shape::code(5)).compile("l");
        let v = VivuGraph::build(&p).unwrap();
        let w: Vec<u64> = v
            .nodes()
            .iter()
            .map(|n| p.block(n.block).len() as u64 * n.mult)
            .collect();
        let r = solve_dag(&v, &w).unwrap();
        // Total instruction executions on the WCET path ≥ 50.
        assert!(r.tau_w >= 50, "tau_w = {}", r.tau_w);
    }
}
