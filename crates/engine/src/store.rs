//! The content-addressed artifact store.
//!
//! Every pipeline product — a parsed program, a WCET analysis, an
//! optimization, a simulation, an evaluation row — is an *artifact*
//! addressed by [`ArtifactKey`]: the producing [`Stage`] (with its
//! version) plus a [`Fingerprint`] of everything the stage's output
//! depends on (program content and the relevant
//! [`EngineConfig`](crate::EngineConfig) knobs). Identical keys mean
//! identical values, so a lookup can replace a recomputation anywhere.
//!
//! One in-memory tier, safe for concurrent use by many engines and — since
//! the store became the service tier behind `rtpfd` — many requests: a
//! *sharded* map of `Arc`ed values (key-hash selects the shard, so
//! unrelated lookups never contend on one lock), with an optional
//! LRU-bounded byte budget (see [`StoreConfig::max_bytes`]) and
//! *single-flight* deduplication in
//! [`get_or_compute`](ArtifactStore::get_or_compute): identical in-flight
//! keys coalesce onto one computation instead of racing to redo it.
//!
//! The store keeps nothing on disk. The one persisted artifact family, the
//! `results/*.csv` sweeps with their `.hash` sidecars, is written by
//! `rtpf-experiments` under [`Stage::Sweep`] keys (see `DESIGN.md` §15).
//!
//! Every counter the tier maintains is surfaced as a typed
//! [`StoreMetrics`] snapshot (the `rtpfd` `/metrics` endpoint serves its
//! JSON rendering). The in-memory invariant the counters keep: every
//! *successful* [`get_or_compute`](ArtifactStore::get_or_compute) call is
//! exactly one `hit` or one `miss`, and `coalesced` counts the subset of
//! hits that waited on another caller's in-flight computation.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use rtpf_core::{OptimizeResult, TheoremReport};
use rtpf_isa::Program;
use rtpf_sim::SimResult;
use rtpf_wcet::WcetAnalysis;

use crate::error::EngineError;
use crate::fingerprint::{Fingerprint, FpHasher};
use crate::unit::UnitResult;

/// The typed stages of the pipeline.
///
/// `Parse → Analyze → Optimize → Verify → Simulate → Energy → Unit →
/// Sweep`. The structure/VIVU/classify/IPET phases live *inside* the
/// `Analyze` artifact (a [`WcetAnalysis`](rtpf_wcet::WcetAnalysis) carries
/// all four products and its own per-phase profile); they version together
/// because each is consumed exactly once by the next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// Program text → validated [`Program`](rtpf_isa::Program).
    Parse,
    /// CFG/loops/layout + VIVU + classify + IPET → `WcetAnalysis`.
    Analyze,
    /// Prefetch insertion → `OptimizeResult`.
    Optimize,
    /// Independent Theorem 1 re-proof → `TheoremReport`.
    Verify,
    /// Trace simulation → `SimResult`.
    Simulate,
    /// Energy accounting → `EnergyBreakdown` per technology.
    Energy,
    /// One `(program, configuration)` evaluation row → `UnitResult`.
    Unit,
    /// The full evaluation grid → CSV text. Never held in the store:
    /// its key is the `.hash` sidecar of a `results/` CSV.
    Sweep,
}

impl Stage {
    /// Stage version, part of every key. **Bump when the stage's
    /// algorithm changes observably** so stale `results/` sweeps (whose
    /// sidecars carry a [`Stage::Sweep`] key) are recomputed instead of
    /// silently reused.
    pub fn version(self) -> u32 {
        // Latest bump: the multi-level hierarchy (DESIGN.md §14). Every
        // stage that consumes the cache configuration now consumes a
        // hierarchy — per-level classifications feed τ_w and the
        // optimizer, the simulator walks both levels, and the energy
        // breakdown grew L2 terms — so all of them re-key. (A change to
        // *how* artifacts are stored, such as the concurrent tier or the
        // `results/` sidecar write of DESIGN.md §15, computes nothing
        // new, so it bumps nothing.)
        match self {
            Stage::Parse => 1,
            Stage::Analyze => 3,
            Stage::Optimize => 3,
            Stage::Verify => 1,
            Stage::Simulate => 2,
            Stage::Energy => 2,
            Stage::Unit => 3,
            Stage::Sweep => 3,
        }
    }

    fn tag(self) -> u8 {
        match self {
            Stage::Parse => 0,
            Stage::Analyze => 1,
            Stage::Optimize => 2,
            Stage::Verify => 3,
            Stage::Simulate => 4,
            Stage::Energy => 5,
            Stage::Unit => 6,
            Stage::Sweep => 7,
        }
    }
}

/// Content address of one artifact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// Producing stage.
    pub stage: Stage,
    /// Hash over the stage version and every input fingerprint.
    pub content: Fingerprint,
}

impl ArtifactKey {
    /// Builds a key from the stage and its input fingerprints.
    pub fn new(stage: Stage, inputs: &[Fingerprint]) -> ArtifactKey {
        let mut h = FpHasher::new();
        h.write_u8(stage.tag());
        h.write_u32(stage.version());
        for &fp in inputs {
            h.write_fp(fp);
        }
        ArtifactKey {
            stage,
            content: h.finish(),
        }
    }
}

/// Approximate resident size of an artifact value, used for the hot
/// tier's byte accounting.
///
/// Estimates are deliberately coarse — they only have to make the byte
/// budget *meaningful* (an eviction decision between a full
/// `OptimizeResult` and a `u64` should weigh them differently), not
/// account every allocation. The default is the shallow `size_of`;
/// artifact types carrying dominant heap blocks override it with a
/// heuristic proportional to program size.
pub trait Weigh: Send + Sync + 'static {
    /// Approximate bytes this value keeps resident.
    fn weight_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// Per-instruction footprint heuristic for analysis-sized artifacts: the
/// VIVU graph, classifications, and per-reference tables all scale with
/// the instruction count times the (small, bounded) context depth. An
/// analysis owns no evaluation memo (the optimizer's lineage cache dies
/// with its run), so this is its whole footprint.
const ANALYSIS_BYTES_PER_INSTR: usize = 192;
/// Per-instruction footprint of a compiled [`Program`] (instruction
/// stream + CFG arenas + layout order).
const PROGRAM_BYTES_PER_INSTR: usize = 48;

impl Weigh for u64 {}
impl Weigh for TheoremReport {}
impl Weigh for UnitResult {}

impl Weigh for String {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<String>() + self.capacity()
    }
}

impl Weigh for (String, Program) {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.0.capacity()
            + self.1.instr_count() * PROGRAM_BYTES_PER_INSTR
    }
}

impl Weigh for WcetAnalysis {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.layout().len() * ANALYSIS_BYTES_PER_INSTR
    }
}

impl Weigh for OptimizeResult {
    fn weight_bytes(&self) -> usize {
        // The optimized program plus both before/after analyses; neither
        // pins the run's lineage cache, which was dropped with the run.
        std::mem::size_of::<Self>()
            + self.program.instr_count() * PROGRAM_BYTES_PER_INSTR
            + self.analysis_before.weight_bytes()
            + self.analysis_after.weight_bytes()
    }
}

impl Weigh for SimResult {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Configuration of the store's in-memory tier.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Independent map partitions. More shards mean less lock contention
    /// between unrelated lookups; the key hash picks the shard.
    pub shards: usize,
    /// Byte budget of the hot tier, `None` = unbounded. When set, the
    /// least-recently-used artifacts are evicted (per shard, each shard
    /// owning an equal slice of the budget) until the tier fits; the
    /// most-recently-touched entry of a shard is never evicted, so a
    /// single oversized artifact still caches.
    pub max_bytes: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: 16,
            max_bytes: None,
        }
    }
}

/// Fixed per-entry bookkeeping cost added to every weighed value.
const ENTRY_OVERHEAD_BYTES: usize = 96;

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    /// Last-touch stamp from the store-wide clock; the recency queue
    /// entry carrying the same stamp is the live one.
    stamp: u64,
}

#[derive(Default)]
struct ShardMap {
    entries: HashMap<ArtifactKey, Entry>,
    /// Lazy LRU queue: every touch pushes `(key, stamp)`; an element is
    /// live iff the entry's current stamp matches. Maintained only when a
    /// byte budget is configured (an unbounded tier never evicts, so
    /// recency would be dead weight).
    recency: VecDeque<(ArtifactKey, u64)>,
    bytes: u64,
}

impl ShardMap {
    fn touch(&mut self, key: ArtifactKey, clock: &AtomicU64, track: bool) {
        if !track {
            return;
        }
        let stamp = clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.stamp = stamp;
            self.recency.push_back((key, stamp));
            self.compact();
        }
    }

    /// Bounds the lazy queue: stale elements (superseded stamps) are
    /// dropped whenever the queue grows past a small multiple of the live
    /// entry count, keeping memory proportional to the tier itself.
    fn compact(&mut self) {
        if self.recency.len() > 4 * self.entries.len() + 16 {
            let entries = &self.entries;
            self.recency
                .retain(|(k, s)| entries.get(k).is_some_and(|e| e.stamp == *s));
        }
    }
}

/// A single-flight slot: the first caller of a key computes while later
/// callers of the same key park here and receive the shared outcome.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    Running,
    Ok(Arc<dyn Any + Send + Sync>),
    Err(EngineError),
    /// The leader unwound (panicked) without producing an outcome;
    /// waiters retry from scratch.
    Poisoned,
}

/// Counter snapshot of the store (see the module docs for the
/// reconciliation invariant). Serialized by [`StoreMetrics::to_json`] for
/// the daemon's `/metrics` endpoint.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct StoreMetrics {
    /// `get_or_compute` calls answered from the map (including coalesced
    /// waits).
    pub hits: u64,
    /// `get_or_compute` calls that ran the computation (single-flight
    /// leaders).
    pub misses: u64,
    /// The subset of `hits` that waited on an in-flight leader instead of
    /// recomputing — the deduplicated work.
    pub coalesced: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Bytes released by those evictions.
    pub evicted_bytes: u64,
    /// Current bytes resident in the hot tier (gauge).
    pub bytes_in_use: u64,
    /// Current entry count of the hot tier (gauge).
    pub entries: u64,
    /// Wall-clock spent inside `compute` closures (leaders only).
    pub compute_ns: u64,
    /// Wall-clock callers spent parked on another caller's computation.
    pub coalesce_wait_ns: u64,
}

impl StoreMetrics {
    /// Total map lookups: every successful `get_or_compute` lands in
    /// exactly one of `hits`/`misses`.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Flat JSON object rendering (stable field order), the `/metrics`
    /// wire format.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \"evictions\": {}, \
             \"evicted_bytes\": {}, \"bytes_in_use\": {}, \"entries\": {}, \
             \"compute_ms\": {:.3}, \"coalesce_wait_ms\": {:.3}}}",
            self.hits,
            self.misses,
            self.coalesced,
            self.evictions,
            self.evicted_bytes,
            self.bytes_in_use,
            self.entries,
            self.compute_ns as f64 / 1e6,
            self.coalesce_wait_ns as f64 / 1e6,
        )
    }
}

/// The shared artifact store (see the module docs).
pub struct ArtifactStore {
    shards: Vec<Mutex<ShardMap>>,
    /// Per-shard byte budget (`max_bytes / shards`), `None` = unbounded.
    shard_budget: Option<u64>,
    clock: AtomicU64,
    flights: Mutex<HashMap<ArtifactKey, Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    compute_ns: AtomicU64,
    coalesce_wait_ns: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::with_config(StoreConfig::default())
    }
}

impl ArtifactStore {
    /// An unbounded store with the default shard count.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// A store with explicit tier configuration (the daemon's route).
    pub fn with_config(config: StoreConfig) -> ArtifactStore {
        let shards = config.shards.max(1);
        ArtifactStore {
            shards: (0..shards)
                .map(|_| Mutex::new(ShardMap::default()))
                .collect(),
            shard_budget: config
                .max_bytes
                .map(|b| (b / shards as u64).max(ENTRY_OVERHEAD_BYTES as u64)),
            clock: AtomicU64::new(0),
            flights: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            compute_ns: AtomicU64::new(0),
            coalesce_wait_ns: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: ArtifactKey) -> &Mutex<ShardMap> {
        // The key content is already a mixed 128-bit hash; fold both
        // words so shard choice depends on the whole fingerprint.
        let h = key.content.0 ^ key.content.1.rotate_left(32) ^ u64::from(key.stage.tag());
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// In-memory lookups answered from the map (hits include coalesced
    /// single-flight waits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// In-memory lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Typed counter snapshot (gauges summed over shards).
    pub fn metrics(&self) -> StoreMetrics {
        let (mut bytes, mut entries) = (0u64, 0u64);
        for shard in &self.shards {
            let m = shard.lock().expect("store shard lock");
            bytes += m.bytes;
            entries += m.entries.len() as u64;
        }
        StoreMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            bytes_in_use: bytes,
            entries,
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            coalesce_wait_ns: self.coalesce_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// Typed in-memory lookup. Touches the entry's recency (a bounded
    /// tier keeps what is being used) but does **not** move the hit/miss
    /// counters — only [`get_or_compute`](ArtifactStore::get_or_compute)
    /// does, so the counters reconcile against memoized stage executions.
    pub fn get<T: Send + Sync + 'static>(&self, key: ArtifactKey) -> Option<Arc<T>> {
        let mut map = self.shard(key).lock().expect("store shard lock");
        map.touch(key, &self.clock, self.shard_budget.is_some());
        map.entries
            .get(&key)
            .and_then(|e| Arc::clone(&e.value).downcast::<T>().ok())
    }

    /// Inserts a value, returning its shared handle. Replacing an
    /// existing key releases the old entry's bytes; when the shard
    /// exceeds its budget, least-recently-touched entries are evicted
    /// (never the one just inserted).
    pub fn put<T: Weigh>(&self, key: ArtifactKey, value: T) -> Arc<T> {
        let v = Arc::new(value);
        self.insert_arc(
            key,
            Arc::clone(&v) as Arc<dyn Any + Send + Sync>,
            v.weight_bytes(),
        );
        v
    }

    fn insert_arc(&self, key: ArtifactKey, value: Arc<dyn Any + Send + Sync>, weight: usize) {
        let bytes = (weight + ENTRY_OVERHEAD_BYTES) as u64;
        let track = self.shard_budget.is_some();
        let mut map = self.shard(key).lock().expect("store shard lock");
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(old) = map.entries.insert(
            key,
            Entry {
                value,
                bytes,
                stamp,
            },
        ) {
            map.bytes -= old.bytes;
        }
        map.bytes += bytes;
        if track {
            map.recency.push_back((key, stamp));
            map.compact();
            self.evict_over_budget(&mut map, key);
        }
    }

    /// Pops least-recently-touched entries until the shard fits its
    /// budget. `protect` (the just-touched key) carries the newest stamp,
    /// so it is reached last and never evicted: a single artifact larger
    /// than the whole budget still caches.
    fn evict_over_budget(&self, map: &mut ShardMap, protect: ArtifactKey) {
        let budget = self.shard_budget.expect("eviction only runs when bounded");
        while map.bytes > budget {
            let Some((key, stamp)) = map.recency.pop_front() else {
                break;
            };
            let live = map.entries.get(&key).is_some_and(|e| e.stamp == stamp);
            if !live {
                continue;
            }
            if key == protect {
                map.recency.push_front((key, stamp));
                break;
            }
            let e = map.entries.remove(&key).expect("checked live above");
            map.bytes -= e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(e.bytes, Ordering::Relaxed);
        }
    }

    /// The memoizing fetch every stage goes through: returns the cached
    /// artifact when the key is present, otherwise computes, stores, and
    /// returns it.
    ///
    /// Concurrent callers of the *same* key coalesce: the first becomes
    /// the single-flight leader and runs `compute` (outside every map
    /// lock); the rest park until the leader finishes and share its
    /// outcome — value and error alike. A leader that panics poisons the
    /// flight; parked callers then retry from scratch instead of
    /// deadlocking.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (to the leader and every coalesced
    /// waiter); nothing is stored on failure.
    pub fn get_or_compute<T: Weigh>(
        &self,
        key: ArtifactKey,
        compute: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<Arc<T>, EngineError> {
        let mut compute = Some(compute);
        loop {
            if let Some(v) = self.get::<T>(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
            enum Role {
                Leader(Arc<Flight>),
                Follower(Arc<Flight>),
            }
            let role = {
                let mut flights = self.flights.lock().expect("flights lock");
                match flights.get(&key) {
                    Some(f) => Role::Follower(Arc::clone(f)),
                    None => {
                        // A leader may have stored the value and retired
                        // its flight since the lookup above. It stores
                        // before it unregisters, so a second lookup under
                        // the registry lock sees the value.
                        if let Some(v) = self.get::<T>(key) {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(v);
                        }
                        let f = Arc::new(Flight {
                            state: Mutex::new(FlightState::Running),
                            done: Condvar::new(),
                        });
                        flights.insert(key, Arc::clone(&f));
                        Role::Leader(f)
                    }
                }
            };
            match role {
                Role::Leader(flight) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    // On unwind (compute panicked) the guard poisons the
                    // flight and unregisters it so parked callers retry;
                    // on success/error we disarm it and publish instead.
                    let guard = FlightGuard {
                        store: self,
                        key,
                        flight: Arc::clone(&flight),
                        armed: true,
                    };
                    let t0 = Instant::now();
                    let result = (compute.take().expect("leader computes once"))();
                    self.compute_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let outcome = match result {
                        Ok(value) => {
                            let v = Arc::new(value);
                            let any = Arc::clone(&v) as Arc<dyn Any + Send + Sync>;
                            self.insert_arc(key, Arc::clone(&any), v.weight_bytes());
                            Ok(v)
                        }
                        Err(e) => Err(e),
                    };
                    guard.publish(match &outcome {
                        Ok(v) => FlightState::Ok(Arc::clone(v) as Arc<dyn Any + Send + Sync>),
                        Err(e) => FlightState::Err(e.clone()),
                    });
                    return outcome;
                }
                Role::Follower(flight) => {
                    let t0 = Instant::now();
                    let mut state = flight.state.lock().expect("flight lock");
                    while matches!(*state, FlightState::Running) {
                        state = flight.done.wait(state).expect("flight wait");
                    }
                    self.coalesce_wait_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    match &*state {
                        FlightState::Ok(v) => {
                            if let Ok(typed) = Arc::clone(v).downcast::<T>() {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                self.coalesced.fetch_add(1, Ordering::Relaxed);
                                return Ok(typed);
                            }
                            // Type mismatch can only mean two callers
                            // disagree about the key's artifact type;
                            // fall through and compute our own.
                        }
                        FlightState::Err(e) => {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            return Err(e.clone());
                        }
                        FlightState::Poisoned | FlightState::Running => {}
                    }
                    // Poisoned (or mistyped) flight: retry as a fresh
                    // caller — the registry slot was already cleared.
                }
            }
        }
    }
}

/// Publishes a flight outcome exactly once; on unwind without
/// [`publish`](FlightGuard::publish), poisons the flight so parked
/// followers retry instead of waiting forever.
struct FlightGuard<'a> {
    store: &'a ArtifactStore,
    key: ArtifactKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    fn publish(mut self, outcome: FlightState) {
        self.settle(outcome);
        self.armed = false;
    }

    fn settle(&self, outcome: FlightState) {
        // Unregister first: callers arriving after this point must start
        // a fresh flight (the map already holds a success, so they hit).
        self.store
            .flights
            .lock()
            .expect("flights lock")
            .remove(&self.key);
        let mut state = self.flight.state.lock().expect("flight lock");
        *state = outcome;
        self.flight.done.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.settle(FlightState::Poisoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ArtifactKey {
        ArtifactKey::new(Stage::Unit, &[Fingerprint(n, n ^ 1)])
    }

    #[test]
    fn memory_layer_hits_after_put() {
        let store = ArtifactStore::in_memory();
        let k = key(1);
        assert!(store.get::<u64>(k).is_none());
        let v = store.get_or_compute(k, || Ok(42u64)).expect("computes");
        assert_eq!(*v, 42);
        let again = store.get_or_compute(k, || Ok(7u64)).expect("cached");
        assert_eq!(*again, 42, "cached value served, compute not re-run");
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        let m = store.metrics();
        assert_eq!((m.hits, m.misses, m.coalesced), (1, 1, 0));
        assert_eq!(m.lookups(), 2);
        assert_eq!(m.entries, 1);
        assert!(m.bytes_in_use >= 8);
        // A different key (or the same content under another stage) misses.
        assert!(store.get::<u64>(key(2)).is_none());
        let other = ArtifactKey::new(Stage::Simulate, &[Fingerprint(1, 0)]);
        assert!(store.get::<u64>(other).is_none());
    }

    #[test]
    fn compute_errors_are_propagated_and_not_cached() {
        let store = ArtifactStore::in_memory();
        let k = key(9);
        let err = store
            .get_or_compute::<u64>(k, || {
                Err(EngineError::Read {
                    path: "x".into(),
                    error: "boom".into(),
                })
            })
            .expect_err("propagates");
        assert!(matches!(err, EngineError::Read { .. }));
        assert!(store.get::<u64>(k).is_none(), "failures are not stored");
        assert_eq!(store.misses(), 1);
        let v = store.get_or_compute(k, || Ok(5u64)).expect("recovers");
        assert_eq!(*v, 5);
        assert_eq!(store.misses(), 2);
    }

    #[test]
    fn lru_budget_evicts_cold_entries_and_keeps_hot_ones() {
        // One shard so the budget arithmetic is exact; each u64 entry
        // costs 8 + ENTRY_OVERHEAD_BYTES = 104 bytes. Budget fits 3.
        let store = ArtifactStore::with_config(StoreConfig {
            shards: 1,
            max_bytes: Some(3 * 104),
        });
        for n in 0..3 {
            store.put(key(n), n);
        }
        assert_eq!(store.metrics().entries, 3);
        assert_eq!(store.metrics().evictions, 0);
        // Touch key 0 so key 1 is now the least recently used.
        assert_eq!(store.get::<u64>(key(0)).as_deref(), Some(&0));
        store.put(key(3), 3u64);
        let m = store.metrics();
        assert_eq!(m.entries, 3);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.evicted_bytes, 104);
        assert!(m.bytes_in_use <= 3 * 104);
        assert!(store.get::<u64>(key(1)).is_none(), "LRU entry evicted");
        assert!(store.get::<u64>(key(0)).is_some(), "touched entry kept");
        assert!(store.get::<u64>(key(3)).is_some(), "new entry kept");
    }

    #[test]
    fn oversized_entry_still_caches_alone() {
        let store = ArtifactStore::with_config(StoreConfig {
            shards: 1,
            max_bytes: Some(16),
        });
        store.put(key(1), 1u64);
        assert!(
            store.get::<u64>(key(1)).is_some(),
            "the just-inserted entry is never evicted, even over budget"
        );
        store.put(key(2), 2u64);
        assert!(store.get::<u64>(key(1)).is_none(), "older entry gives way");
        assert!(store.get::<u64>(key(2)).is_some());
    }

    #[test]
    fn replacing_a_key_releases_the_old_bytes() {
        let store = ArtifactStore::in_memory();
        let k = key(5);
        store.put(k, "x".repeat(100));
        let before = store.metrics().bytes_in_use;
        store.put(k, String::from("y"));
        let after = store.metrics().bytes_in_use;
        assert!(after < before, "replacement must not leak accounting");
        assert_eq!(store.metrics().entries, 1);
    }
}
