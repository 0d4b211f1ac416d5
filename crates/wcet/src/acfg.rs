//! The references of the abstract control-flow graph (paper
//! Definition 6).
//!
//! Every instruction fetch in a VIVU context is a reference `r ∈ R`.
//! Inside a VIVU node the references run in instruction order; between
//! nodes, execution order lives in the VIVU graph itself, whose back edges
//! are already broken, so [`Acfg`] stores no edges. The paper's reversed
//! walk over `ACFG*` is the optimizer's `WcetPath` (in `rtpf-core`): the
//! references of the on-path nodes, in topological order, scanned
//! backwards.

use rtpf_isa::{InstrId, Program};

use crate::vivu::{NodeId, VivuGraph};

/// Identity of a reference (an instruction fetch in one VIVU context).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RefId(pub u32);

impl RefId {
    /// Arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RefId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One reference: which instruction, in which VIVU node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reference {
    /// Identity of the reference.
    pub id: RefId,
    /// The fetched instruction.
    pub instr: InstrId,
    /// The VIVU context instance performing the fetch.
    pub node: NodeId,
}

/// The references of a program's VIVU expansion, grouped by node.
///
/// References are allocated node by node in the VIVU graph's topological
/// order, so each node's references are a contiguous id range and the id
/// order is itself an execution order. The analysis rebuilds this for every candidate program
/// the optimizer verifies (an insertion shifts every later id), so it
/// holds nothing else: execution order between nodes lives in the VIVU
/// graph.
#[derive(Clone, Debug)]
pub struct Acfg {
    refs: Vec<Reference>,
    /// Identity sequence `r0, r1, …`; backs the per-node slices of
    /// [`refs_of_node`](Acfg::refs_of_node).
    ids: Vec<RefId>,
    /// Per VIVU node: its id range `start..end`.
    node_range: Vec<(u32, u32)>,
}

impl Acfg {
    /// Builds the reference sequence of `p` over its VIVU expansion.
    pub fn build(p: &Program, vivu: &VivuGraph) -> Acfg {
        let mut refs: Vec<Reference> = Vec::new();
        let mut node_range = vec![(0u32, 0u32); vivu.len()];
        for &nd in vivu.topo() {
            let start = refs.len() as u32;
            for &i in p.block(vivu.node(nd).block).instrs() {
                refs.push(Reference {
                    id: RefId(refs.len() as u32),
                    instr: i,
                    node: nd,
                });
            }
            node_range[nd.index()] = (start, refs.len() as u32);
        }
        let ids = (0..refs.len() as u32).map(RefId).collect();
        Acfg {
            refs,
            ids,
            node_range,
        }
    }

    /// All references.
    #[inline]
    pub fn refs(&self) -> &[Reference] {
        &self.refs
    }

    /// Reference lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn reference(&self, id: RefId) -> Reference {
        self.refs[id.index()]
    }

    /// References of a VIVU node, in instruction order.
    #[inline]
    pub fn refs_of_node(&self, n: NodeId) -> &[RefId] {
        let (start, end) = self.node_range[n.index()];
        &self.ids[start as usize..end as usize]
    }

    /// Number of references.
    #[inline]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the program has no references.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_isa::shape::Shape;

    fn build(shape: Shape) -> (Program, VivuGraph, Acfg) {
        let p = shape.compile("t");
        let v = VivuGraph::build(&p).unwrap();
        let a = Acfg::build(&p, &v);
        (p, v, a)
    }

    #[test]
    fn loop_references_appear_twice() {
        let (p, _, a) = build(Shape::loop_(10, Shape::code(5)));
        // Loop header and body referenced in first and rest contexts.
        assert!(a.len() > p.instr_count());
        use std::collections::HashMap;
        let mut count: HashMap<rtpf_isa::InstrId, usize> = HashMap::new();
        for r in a.refs() {
            *count.entry(r.instr).or_default() += 1;
        }
        assert!(count.values().all(|&c| c <= 2));
        assert!(count.values().any(|&c| c == 2));
    }

    #[test]
    fn node_refs_partition_all_references() {
        let (_, v, a) = build(Shape::loop_(3, Shape::code(4)));
        let total: usize = (0..v.len())
            .map(|n| a.refs_of_node(crate::vivu::NodeId(n as u32)).len())
            .sum();
        assert_eq!(total, a.len());
    }
}
