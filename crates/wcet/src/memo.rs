//! Evaluation cache for an analysis lineage.
//!
//! The optimizer re-analyses near-identical programs dozens of times per
//! round (one per verification candidate). A node evaluation — join the
//! predecessors' out-states, walk the node's references classifying and
//! folding each — is a pure function of the node's *touched-block
//! signature* and the tuple of input state pairs, so its result can be
//! memoized and reused by every analysis derived from the same root (the
//! lineage's owner passes its cache to each
//! [`WcetAnalysis::reanalyze_after_insert`](crate::WcetAnalysis::reanalyze_after_insert)).
//! Two candidates that insert at different anchors diverge only between
//! the two insertion points and for the short stretch until the cache
//! states forget the difference; everything else resolves from the memo
//! without touching a state.
//!
//! The hot path is the *hit*: a warmed verification pass answers every
//! node from the memo. Both signatures and out-states are therefore
//! interned to canonical `Arc`s (`AnalysisCache::intern_sig` /
//! `StateInterner`), which makes the memo key a tuple of pointers —
//! lookups hash a handful of `usize`s with a multiply-rotate mixer and
//! allocate nothing.
//!
//! Exactness: a hit returns the result of an earlier evaluation of the
//! *same* pure function on the *same* inputs — identity is by interned
//! pointer, and the interners map content-equal values to one allocation,
//! so the fixpoint iterates are bit-identical to an uncached run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rtpf_cache::{Classification, StateInterner, StatePair};
use rtpf_isa::MemBlockId;

use crate::classify::{Halves, SolverScratch};
use crate::error::AnalysisError;
use crate::ipet::IpetGraph;
use crate::vivu::VivuGraph;

/// A node's touched-block signature: for every reference in program
/// order, the block it fetches and the block its prefetch targets (if it
/// is one). This determines the node's transfer function entirely
/// (including hardware next-line folds, which depend only on the fetched
/// block).
pub(crate) type NodeSig = Arc<Vec<(MemBlockId, Option<MemBlockId>)>>;

/// The complete result of evaluating one node against one input state.
pub(crate) struct NodeEval {
    /// Out-state after all references of the node.
    pub out: Arc<StatePair>,
    /// Classification per reference, in node-local order.
    pub class: Vec<Classification>,
}

/// One memoized evaluation. The stored `Arc`s keep the keyed allocations
/// alive, so a pointer can never be reused while the entry exists.
struct Entry {
    sig: NodeSig,
    ins: Vec<Arc<StatePair>>,
    eval: Arc<NodeEval>,
}

impl Entry {
    /// Whether this entry was stored for exactly (`sig`, `ins`) — pointer
    /// identity, which interning makes equivalent to content identity.
    #[inline]
    fn matches(&self, sig: &NodeSig, ins: &[Arc<StatePair>]) -> bool {
        Arc::ptr_eq(&self.sig, sig)
            && self.ins.len() == ins.len()
            && self.ins.iter().zip(ins).all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

/// Pass-through hasher for keys that are already well-mixed `u64`s.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("memo keys are pre-hashed u64s");
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

/// Multiply-rotate mixer (FxHash-style); good enough for pointers and
/// block ids, and an order of magnitude cheaper than SipHash.
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// [`mix`] as a word-at-a-time [`Hasher`], for small keys of plain words
/// (the refinement's per-set state interner). Not collision-resistant:
/// use it only for tables whose size is bounded, as the refinement's
/// state budget bounds its interner.
#[derive(Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0, x);
    }
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A hash map keyed through [`MixHasher`].
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

fn key_hash(sig: &NodeSig, ins: &[Arc<StatePair>]) -> u64 {
    let mut h = mix(ins.len() as u64, Arc::as_ptr(sig) as u64);
    for a in ins {
        h = mix(h, Arc::as_ptr(a) as u64);
    }
    h
}

fn sig_hash(sig: &[(MemBlockId, Option<MemBlockId>)]) -> u64 {
    let mut h = mix(0x9e37_79b9_7f4a_7c15, sig.len() as u64);
    for &(own, pf) in sig {
        h = mix(h, own.0);
        // `u64::MAX` never occurs as a real block id (addresses are u32).
        h = mix(h, pf.map_or(u64::MAX, |b| b.0));
    }
    h
}

/// Open-addressed map on pre-mixed 64-bit keys: one value per slot, and
/// the astronomically rare distinct-key hash collision linear-probes to
/// `key + 1` (see the probe loops at the use sites). Entries are never
/// removed, so probe chains stay valid and stop at the first vacant slot.
type PreMap<V> = HashMap<u64, V, BuildHasherDefault<PreHashed>>;

/// Dataflow topology of the classification fixpoint: VIVU adjacency with
/// the broken back edges restored, plus its SCC condensation. Every
/// analysis of a lineage shares one VIVU graph, so this is computed once
/// per cache and reused by every (re-)classification pass.
///
/// Stored in compressed-sparse-row form — one flat data array plus one
/// offset array per relation — instead of nested `Vec<Vec<_>>`: three
/// allocations replace `3n`, and the fixpoint's inner loops walk
/// contiguous memory.
pub(crate) struct Topology {
    pred_off: Vec<u32>,
    pred_dat: Vec<u32>,
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
    comp_off: Vec<u32>,
    comp_dat: Vec<u32>,
    comp_id: Vec<u32>,
}

impl Topology {
    /// Flattens build-time adjacency and condensation lists into CSR form
    /// and derives the per-node component index.
    pub(crate) fn from_parts(
        preds: Vec<Vec<usize>>,
        succs: Vec<Vec<usize>>,
        comps: Vec<Vec<usize>>,
    ) -> Topology {
        fn csr(lists: &[Vec<usize>]) -> (Vec<u32>, Vec<u32>) {
            let mut off = Vec::with_capacity(lists.len() + 1);
            let mut dat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            off.push(0);
            for l in lists {
                dat.extend(l.iter().map(|&x| x as u32));
                off.push(dat.len() as u32);
            }
            (off, dat)
        }
        let n = preds.len();
        let (pred_off, pred_dat) = csr(&preds);
        let (succ_off, succ_dat) = csr(&succs);
        let (comp_off, comp_dat) = csr(&comps);
        let mut comp_id = vec![0u32; n];
        for (cid, comp) in comps.iter().enumerate() {
            for &i in comp {
                comp_id[i] = cid as u32;
            }
        }
        Topology {
            pred_off,
            pred_dat,
            succ_off,
            succ_dat,
            comp_off,
            comp_dat,
            comp_id,
        }
    }

    /// Predecessors of node `i` (loop latches included).
    #[inline]
    pub(crate) fn preds(&self, i: usize) -> &[u32] {
        &self.pred_dat[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successors of node `i` (loop headers included).
    #[inline]
    pub(crate) fn succs(&self, i: usize) -> &[u32] {
        &self.succ_dat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Number of strongly connected components.
    #[inline]
    pub(crate) fn n_comps(&self) -> usize {
        self.comp_off.len() - 1
    }

    /// Members of component `c`, sorted by topological position.
    #[inline]
    pub(crate) fn comp(&self, c: usize) -> &[u32] {
        &self.comp_dat[self.comp_off[c] as usize..self.comp_off[c + 1] as usize]
    }

    /// Component index of node `i`.
    #[inline]
    pub(crate) fn comp_id(&self, i: usize) -> usize {
        self.comp_id[i] as usize
    }
}

/// Interner + evaluation memo of one analysis lineage (one VIVU graph
/// under one L1 geometry, hardware-prefetch setting and set of solved
/// state halves), plus the
/// structures derived only from the lineage's VIVU graph: the fixpoint
/// topology and the frozen IPET graph, each built on first use.
///
/// A lineage runs on one thread and has one owner: the caller that roots
/// it ([`WcetAnalysis::analyze_hierarchy_in`](crate::WcetAnalysis::analyze_hierarchy_in))
/// and passes it to every
/// [`reanalyze_after_insert`](crate::WcetAnalysis::reanalyze_after_insert)
/// derived from that root. No analysis holds it, so the memo dies with
/// its owner — in the optimizer, when `Optimizer::run` returns.
#[derive(Default)]
pub struct AnalysisCache {
    /// The VIVU graph and solver mode of the lineage the cache is bound
    /// to (see [`AnalysisCache::bind`]); holding the graph keeps the
    /// pointer comparison sound.
    lineage: Option<(Arc<VivuGraph>, Halves)>,
    interner: StateInterner,
    sigs: PreMap<NodeSig>,
    memo: PreMap<Entry>,
    topo: Option<Arc<Topology>>,
    ipet: Option<IpetGraph>,
    /// The solver scratch of the last classify pass. A lineage runs
    /// thousands of passes over the same graph, one at a time; reusing
    /// the node-indexed solver vectors (and the grown word/merge buffers
    /// inside) removes five allocations plus their zero-fill from every
    /// pass.
    pub(crate) scratch: Option<SolverScratch>,
}

impl AnalysisCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the cache to the lineage whose VIVU graph is `vivu`, solved
    /// for `halves`. Every root analysis builds its own graph and its
    /// re-analyses share it by pointer, so the pointer names the lineage —
    /// and with it the geometry and next-line setting that node
    /// evaluations depend on besides their memo key, and the graph the
    /// topology and IPET graph describe. The mode is part of the binding
    /// because a memo entry's classifications answer only the halves its
    /// pass ran. A cache bound to another lineage or mode starts over
    /// empty, so handing a re-analysis the wrong cache costs reuse, never
    /// a result.
    pub(crate) fn bind(&mut self, vivu: &Arc<VivuGraph>, halves: Halves) {
        let bound = self
            .lineage
            .as_ref()
            .is_some_and(|(v, h)| Arc::ptr_eq(v, vivu) && *h == halves);
        if !bound {
            *self = AnalysisCache {
                lineage: Some((Arc::clone(vivu), halves)),
                ..AnalysisCache::new()
            };
        }
    }

    /// Returns the lineage's fixpoint topology, building it on first use.
    pub(crate) fn topology(&mut self, build: impl FnOnce() -> Topology) -> Arc<Topology> {
        Arc::clone(self.topo.get_or_insert_with(|| Arc::new(build())))
    }

    /// Returns the lineage's frozen IPET graph, building it on first use.
    pub(crate) fn ipet_graph(
        &mut self,
        build: impl FnOnce() -> Result<IpetGraph, AnalysisError>,
    ) -> Result<&IpetGraph, AnalysisError> {
        let g = match self.ipet.take() {
            Some(g) => g,
            None => build()?,
        };
        Ok(self.ipet.insert(g))
    }

    /// Returns the canonical `Arc` for a signature, so content-equal
    /// signatures from different analyses of the lineage compare (and
    /// hash) by pointer. Takes a slice and copies only on a miss, so
    /// callers can fill one scratch buffer per pass instead of allocating
    /// a `Vec` per node.
    pub(crate) fn intern_sig(&mut self, sig: &[(MemBlockId, Option<MemBlockId>)]) -> NodeSig {
        let mut h = sig_hash(sig);
        loop {
            match self.sigs.get(&h) {
                Some(found) if found.as_slice() == sig => return Arc::clone(found),
                Some(_) => h = h.wrapping_add(1),
                None => {
                    let arc: NodeSig = Arc::new(sig.to_vec());
                    self.sigs.insert(h, Arc::clone(&arc));
                    return arc;
                }
            }
        }
    }

    /// Looks up a prior evaluation of `sig` against `ins`. Allocation-free;
    /// both must be interned (lineage-canonical) pointers.
    pub(crate) fn lookup(&self, sig: &NodeSig, ins: &[Arc<StatePair>]) -> Option<Arc<NodeEval>> {
        let mut h = key_hash(sig, ins);
        loop {
            match self.memo.get(&h) {
                Some(e) if e.matches(sig, ins) => return Some(Arc::clone(&e.eval)),
                Some(_) => h = h.wrapping_add(1),
                None => return None,
            }
        }
    }

    /// Interns `out` (cloning it only if its content is new), registers
    /// the evaluation, and returns the shared record plus whether the
    /// out-state was a fresh allocation. Storing a key that is already
    /// present returns the existing record, so the memo never grows
    /// duplicate entries.
    pub(crate) fn store(
        &mut self,
        sig: &NodeSig,
        ins: &[Arc<StatePair>],
        out: &StatePair,
        class: Vec<Classification>,
    ) -> (Arc<NodeEval>, bool) {
        let (out, fresh) = self.interner.intern_ref(out);
        let mut h = key_hash(sig, ins);
        loop {
            match self.memo.get(&h) {
                Some(e) if e.matches(sig, ins) => return (Arc::clone(&e.eval), fresh),
                Some(_) => h = h.wrapping_add(1),
                None => break,
            }
        }
        let eval = Arc::new(NodeEval { out, class });
        self.memo.insert(
            h,
            Entry {
                sig: Arc::clone(sig),
                ins: ins.to_vec(),
                eval: Arc::clone(&eval),
            },
        );
        (eval, fresh)
    }

    /// Number of memoized node evaluations.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the cache holds no evaluations yet.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("evals", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_cache::{CacheConfig, MayState, MustState};

    #[test]
    fn memo_roundtrip_and_ptr_identity() {
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let mut cache = AnalysisCache::new();
        let sig = cache.intern_sig(&[(MemBlockId(3), None)]);
        let base = Arc::new((MustState::new(&cfg), MayState::new(&cfg)));
        assert!(cache.lookup(&sig, std::slice::from_ref(&base)).is_none());

        let mut out = (MustState::new(&cfg), MayState::new(&cfg));
        out.0.update(MemBlockId(3));
        out.1.update(MemBlockId(3));
        let (stored, fresh) = cache.store(
            &sig,
            std::slice::from_ref(&base),
            &out,
            vec![Classification::AlwaysMiss],
        );
        assert!(fresh);
        // Storing the same key again adopts the first entry.
        let (dup, _) = cache.store(
            &sig,
            std::slice::from_ref(&base),
            &out,
            vec![Classification::AlwaysMiss],
        );
        assert!(Arc::ptr_eq(&dup, &stored));
        let hit = cache
            .lookup(&sig, std::slice::from_ref(&base))
            .expect("memo hit");
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(hit.class, vec![Classification::AlwaysMiss]);
        assert_eq!(cache.len(), 1);

        // Content-equal signatures intern to the same canonical pointer.
        let sig2 = cache.intern_sig(&[(MemBlockId(3), None)]);
        assert!(Arc::ptr_eq(&sig, &sig2));
        assert!(cache.lookup(&sig2, std::slice::from_ref(&base)).is_some());
        // A different input misses.
        let other = Arc::clone(&hit.out);
        assert!(cache.lookup(&sig, std::slice::from_ref(&other)).is_none());
    }

    #[test]
    fn binding_to_another_mode_starts_over() {
        let p = rtpf_isa::shape::Shape::code(4).compile("bind");
        let vivu = Arc::new(VivuGraph::build(&p).unwrap());
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let mut cache = AnalysisCache::new();
        cache.bind(&vivu, Halves::Must);
        let sig = cache.intern_sig(&[(MemBlockId(3), None)]);
        let base = Arc::new(rtpf_cache::no_info(&cfg));
        let ins = std::slice::from_ref(&base);
        cache.store(&sig, ins, &base, vec![Classification::Unclassified]);
        cache.bind(&vivu, Halves::Must);
        assert_eq!(cache.len(), 1, "same lineage, same mode: kept");
        cache.bind(&vivu, Halves::Both);
        assert!(
            cache.is_empty(),
            "a must-only entry never answers a fused pass"
        );
    }
}
