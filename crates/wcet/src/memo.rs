//! Shared evaluation cache for an analysis lineage.
//!
//! The optimizer re-analyses near-identical programs dozens of times per
//! round (one per verification candidate). A node evaluation — join the
//! predecessors' out-states, walk the node's references classifying and
//! folding each — is a pure function of the node's *touched-block
//! signature* and the tuple of input state pairs, so its result can be
//! memoized and shared across every analysis derived from the same root
//! ([`WcetAnalysis::reanalyze_after_insert`](crate::WcetAnalysis::reanalyze_after_insert)
//! passes the cache along). Two candidates that insert at different
//! anchors diverge only between the two insertion points and for the
//! short stretch until the cache states forget the difference; everything
//! else resolves from the memo without touching a state.
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
use std::sync::{Arc, Mutex, OnceLock};

use rtpf_cache::{Classification, SharedInterner, StatePair};
use rtpf_isa::MemBlockId;

use crate::classify::WorkerState;

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
    /// Condensation DAG, CSR over component ids: distinct successor
    /// components per component, and each component's indegree (distinct
    /// predecessor components). Drives the parallel SCC-DAG scheduler.
    comp_succ_off: Vec<u32>,
    comp_succ_dat: Vec<u32>,
    comp_indeg: Vec<u32>,
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
        // Condensation edges: every cross-component node edge, deduplicated.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (i, ps) in preds.iter().enumerate() {
            let ci = comp_id[i];
            for &pr in ps {
                let cp = comp_id[pr];
                if cp != ci {
                    edges.push((cp, ci));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let n_comps = comps.len();
        let mut comp_succ_off = Vec::with_capacity(n_comps + 1);
        let mut comp_succ_dat = Vec::with_capacity(edges.len());
        let mut comp_indeg = vec![0u32; n_comps];
        comp_succ_off.push(0);
        let mut e = 0usize;
        for c in 0..n_comps as u32 {
            while e < edges.len() && edges[e].0 == c {
                comp_succ_dat.push(edges[e].1);
                comp_indeg[edges[e].1 as usize] += 1;
                e += 1;
            }
            comp_succ_off.push(comp_succ_dat.len() as u32);
        }
        Topology {
            pred_off,
            pred_dat,
            succ_off,
            succ_dat,
            comp_off,
            comp_dat,
            comp_id,
            comp_succ_off,
            comp_succ_dat,
            comp_indeg,
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

    /// Distinct successor components of component `c` in the condensation
    /// DAG.
    #[inline]
    pub(crate) fn comp_succs(&self, c: usize) -> &[u32] {
        &self.comp_succ_dat[self.comp_succ_off[c] as usize..self.comp_succ_off[c + 1] as usize]
    }

    /// Number of distinct predecessor components of component `c`.
    #[inline]
    pub(crate) fn comp_indegree(&self, c: usize) -> u32 {
        self.comp_indeg[c]
    }
}

/// Number of independently locked memo shards. A power of two so the
/// shard index is a shift of the (well-mixed) key hash.
const MEMO_SHARDS: usize = 16;

/// Interner + evaluation memo shared by every analysis of one lineage
/// (same cache configuration, timing, and hardware-prefetch setting).
///
/// Concurrency-safe by sharding: the parallel classify solver looks up and
/// stores evaluations from every worker thread, so the memo is split into
/// `MEMO_SHARDS` independently locked maps keyed by the high bits of the
/// evaluation hash, and out-states intern through a
/// [`SharedInterner`]. Signatures keep one mutex — they are interned in
/// the solver's sequential setup phase. The topology is a `OnceLock`
/// (write-once, lock-free reads).
pub struct AnalysisCache {
    interner: SharedInterner,
    sigs: Mutex<PreMap<NodeSig>>,
    memo: [Mutex<PreMap<Entry>>; MEMO_SHARDS],
    topo: OnceLock<Arc<Topology>>,
    /// Pool of solver scratch states. A lineage runs thousands of classify
    /// passes over the same graph; recycling the node-indexed worker
    /// vectors (and the grown word/merge buffers inside) removes five
    /// allocations plus their zero-fill from every pass.
    scratch: Mutex<Vec<WorkerState>>,
}

impl AnalysisCache {
    pub fn new() -> Self {
        AnalysisCache {
            interner: SharedInterner::new(),
            sigs: Mutex::new(PreMap::default()),
            memo: std::array::from_fn(|_| Mutex::new(PreMap::default())),
            topo: OnceLock::new(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The key hash is multiply-mixed, so its high bits spread best.
    #[inline]
    fn shard_of(hash: u64) -> usize {
        (hash >> 60) as usize & (MEMO_SHARDS - 1)
    }

    /// Returns the lineage's fixpoint topology, building it on first use.
    pub(crate) fn topology(&self, build: impl FnOnce() -> Topology) -> Arc<Topology> {
        Arc::clone(self.topo.get_or_init(|| Arc::new(build())))
    }

    /// Returns the canonical `Arc` for a signature, so content-equal
    /// signatures from different analyses of the lineage compare (and
    /// hash) by pointer. Takes a slice and copies only on a miss, so
    /// callers can fill one scratch buffer per pass instead of allocating
    /// a `Vec` per node.
    pub(crate) fn intern_sig(&self, sig: &[(MemBlockId, Option<MemBlockId>)]) -> NodeSig {
        let mut h = sig_hash(sig);
        let mut sigs = self.sigs.lock().expect("analysis cache poisoned");
        loop {
            match sigs.get(&h) {
                Some(found) if found.as_slice() == sig => return Arc::clone(found),
                Some(_) => h = h.wrapping_add(1),
                None => {
                    let arc: NodeSig = Arc::new(sig.to_vec());
                    sigs.insert(h, Arc::clone(&arc));
                    return arc;
                }
            }
        }
    }

    /// Looks up a prior evaluation of `sig` against `ins`. Allocation-free;
    /// both must be interned (lineage-canonical) pointers.
    pub(crate) fn lookup(&self, sig: &NodeSig, ins: &[Arc<StatePair>]) -> Option<Arc<NodeEval>> {
        let mut h = key_hash(sig, ins);
        let shard = self.memo[Self::shard_of(h)]
            .lock()
            .expect("analysis cache poisoned");
        loop {
            match shard.get(&h) {
                Some(e) if e.matches(sig, ins) => return Some(Arc::clone(&e.eval)),
                Some(_) => h = h.wrapping_add(1),
                None => return None,
            }
        }
    }

    /// Interns `out` (cloning it only if its content is new), registers
    /// the evaluation, and returns the shared record plus whether the
    /// out-state was a fresh allocation. Two threads racing to store the
    /// same key compute content-identical evaluations; the first insert
    /// wins and the loser adopts it, so the memo never grows duplicate
    /// entries.
    pub(crate) fn store(
        &self,
        sig: &NodeSig,
        ins: &[Arc<StatePair>],
        out: &StatePair,
        class: Vec<Classification>,
    ) -> (Arc<NodeEval>, bool) {
        let (out, fresh) = self.interner.intern_ref(out);
        let mut h = key_hash(sig, ins);
        let mut shard = self.memo[Self::shard_of(h)]
            .lock()
            .expect("analysis cache poisoned");
        loop {
            match shard.get(&h) {
                Some(e) if e.matches(sig, ins) => return (Arc::clone(&e.eval), fresh),
                Some(_) => h = h.wrapping_add(1),
                None => break,
            }
        }
        let eval = Arc::new(NodeEval { out, class });
        shard.insert(
            h,
            Entry {
                sig: Arc::clone(sig),
                ins: ins.to_vec(),
                eval: Arc::clone(&eval),
            },
        );
        (eval, fresh)
    }

    /// Pops a pooled solver scratch, if any (see
    /// [`WorkerState::acquire`]).
    pub(crate) fn take_scratch(&self) -> Option<WorkerState> {
        self.scratch.lock().expect("analysis cache poisoned").pop()
    }

    /// Returns a clean solver scratch to the pool for the next pass.
    pub(crate) fn put_scratch(&self, ws: WorkerState) {
        self.scratch
            .lock()
            .expect("analysis cache poisoned")
            .push(ws);
    }

    /// Number of memoized node evaluations.
    pub fn len(&self) -> usize {
        self.memo
            .iter()
            .map(|m| m.lock().expect("analysis cache poisoned").len())
            .sum()
    }

    /// Whether the cache holds no evaluations yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("evals", &self.len())
            .finish()
    }
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpf_cache::{CacheConfig, MayState, MustState};

    #[test]
    fn memo_roundtrip_and_ptr_identity() {
        let cfg = CacheConfig::new(2, 16, 256).unwrap();
        let cache = AnalysisCache::new();
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
}
