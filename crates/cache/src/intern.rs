//! Hash-consing of abstract cache state pairs.
//!
//! The dataflow fixpoint in the WCET analysis materialises one
//! (must, may) pair per VIVU context, and on real programs the vast
//! majority of those pairs are identical — straight-line runs of
//! references propagate the same state forward, and incremental
//! re-analysis reuses entire regions verbatim. Interning keyed by content
//! hash turns those duplicates into `Arc` clones, so equality checks
//! short-circuit on pointer identity and the per-state allocation cost is
//! paid once.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::{MayState, MustState};

/// Pass-through hasher for keys that are already well-mixed `u64`s —
/// re-hashing the content hash through SipHash would only add latency.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("interner keys are pre-hashed u64s");
    }
    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }
}

/// A must/may abstract state pair as propagated per VIVU context.
pub type StatePair = (MustState, MayState);

/// Folded 128-bit multiply (the wyhash primitive): one `mulx` mixes two
/// words completely, and consecutive calls are independent, so the loop
/// below runs at multiplier throughput instead of a serial mix-chain's
/// latency.
#[inline]
fn mum(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Content hash of a pair over the packed state words. Interning hashes
/// every state the fixpoint produces and large states run to hundreds of
/// words, so this is throughput-critical: word pairs fold through
/// independent [`mum`]s xor-accumulated with a position salt (the salt
/// keeps chunk order significant; the length seed keeps the must/may
/// split significant). Collisions are harmless — the bucket compares
/// full states.
fn content_hash(pair: &StatePair) -> u64 {
    const C0: u64 = 0x2d35_8dcc_aa6c_78a5;
    const C1: u64 = 0x8bb8_4b93_962e_acc9;
    const STEP: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = mum(
        pair.0.words().len() as u64 ^ C0,
        pair.1.words().len() as u64 ^ C1,
    );
    let mut salt = 0u64;
    for words in [pair.0.words(), pair.1.words()] {
        let mut chunks = words.chunks_exact(2);
        for c in &mut chunks {
            salt = salt.wrapping_add(STEP);
            acc ^= mum(c[0] ^ salt, c[1] ^ C1);
        }
        if let [w] = chunks.remainder() {
            salt = salt.wrapping_add(STEP);
            acc ^= mum(w ^ salt, C0);
        }
    }
    mum(acc, C0)
}

/// Content-addressed store of [`StatePair`]s.
///
/// Open-addressed on the 64-bit content hash: each map slot holds one
/// canonical pair directly (no per-bucket `Vec`), and the astronomically
/// rare distinct-content hash collision linear-probes to `key + 1`.
/// Entries are never removed, so probe chains stay valid forever and a
/// probe can stop at the first vacant slot.
///
/// The WCET analysis keeps one per lineage, owned by that lineage's
/// evaluation cache and used from one thread, so it takes no lock.
#[derive(Default, Debug)]
pub struct StateInterner {
    buckets: HashMap<u64, Arc<StatePair>, BuildHasherDefault<PreHashed>>,
    hits: u64,
    fresh: u64,
}

impl StateInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the canonical `Arc` for `pair` and whether it was freshly
    /// allocated. Clones `pair` only when no equal pair exists yet (the
    /// clone allocates exactly `len`, so oversized scratch capacity is not
    /// carried into the store).
    pub fn intern_ref(&mut self, pair: &StatePair) -> (Arc<StatePair>, bool) {
        let mut key = content_hash(pair);
        loop {
            match self.buckets.get(&key) {
                Some(p) if **p == *pair => {
                    self.hits += 1;
                    return (Arc::clone(p), false);
                }
                Some(_) => key = key.wrapping_add(1),
                None => {
                    self.fresh += 1;
                    let arc = Arc::new(pair.clone());
                    self.buckets.insert(key, Arc::clone(&arc));
                    return (arc, true);
                }
            }
        }
    }

    /// Number of `intern_ref` calls answered from the store.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of `intern_ref` calls that allocated a new canonical pair.
    pub fn fresh(&self) -> u64 {
        self.fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;
    use rtpf_isa::MemBlockId;

    fn pair(blocks: &[u64]) -> StatePair {
        let config = CacheConfig::new(2, 16, 64).unwrap();
        let mut must = MustState::new(&config);
        let mut may = MayState::new(&config);
        for &b in blocks {
            must.update(MemBlockId(b));
            may.update(MemBlockId(b));
        }
        (must, may)
    }

    #[test]
    fn equal_pairs_share_one_allocation() {
        let mut it = StateInterner::new();
        let (a, fresh) = it.intern_ref(&pair(&[1, 2, 3]));
        assert!(fresh);
        for _ in 0..3 {
            let (b, fresh) = it.intern_ref(&pair(&[1, 2, 3]));
            assert!(!fresh);
            assert!(Arc::ptr_eq(&a, &b));
        }
        assert_eq!(it.hits(), 3);
        assert_eq!(it.fresh(), 1);
        // A content-distinct pair gets its own allocation.
        let (other, fresh) = it.intern_ref(&pair(&[4]));
        assert!(fresh);
        assert!(!Arc::ptr_eq(&other, &a));
        assert_eq!(it.fresh(), 2);
    }

    #[test]
    fn distinct_pairs_stay_distinct() {
        let mut it = StateInterner::new();
        let (a, _) = it.intern_ref(&pair(&[1]));
        let (b, _) = it.intern_ref(&pair(&[2]));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, pair(&[1]));
        assert_eq!(*b, pair(&[2]));
        assert_eq!(it.fresh(), 2);
    }
}
