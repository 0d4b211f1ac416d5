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
//! Two layers, both safe for concurrent use by many engines and — since
//! the store became the service tier behind `rtpfd` — many requests:
//!
//! * **in-memory** — a *sharded* map of `Arc`ed values (key-hash selects
//!   the shard, so unrelated lookups never contend on one lock), with an
//!   optional LRU-bounded byte budget (see [`StoreConfig::max_bytes`])
//!   and *single-flight* deduplication in
//!   [`get_or_compute`](ArtifactStore::get_or_compute): identical
//!   in-flight keys coalesce onto one computation instead of racing to
//!   redo it;
//! * **on-disk** — text artifacts stored as `<name>` plus a `<name>.hash`
//!   sidecar holding the key's hex fingerprint. Writes go through a
//!   `<name>.lock` lease and a write-to-temp + rename protocol (the
//!   sidecar lands only after the artifact is durable), so concurrent
//!   writers and crashes leave *stale-but-detectable* state, never a torn
//!   artifact under a fresh hash. An artifact whose sidecar is missing or
//!   names a different key is *stale*: it is treated as absent **and
//!   deleted**, so stale bytes cannot accumulate under live names.
//!
//! Every counter the layers maintain is surfaced as a typed
//! [`StoreMetrics`] snapshot (the `rtpfd` `/metrics` endpoint serves its
//! JSON rendering). The in-memory invariant the counters keep: every
//! *successful* [`get_or_compute`](ArtifactStore::get_or_compute) call is
//! exactly one `hit` or one `miss`, and `coalesced` counts the subset of
//! hits that waited on another caller's in-flight computation.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// The full evaluation grid → CSV text (on-disk layer).
    Sweep,
}

impl Stage {
    /// Stage version, part of every key. **Bump when the stage's
    /// algorithm changes observably** so stale on-disk artifacts are
    /// discarded instead of silently reused.
    pub fn version(self) -> u32 {
        // Latest bump: the multi-level hierarchy (DESIGN.md §14). Every
        // stage that consumes the cache configuration now consumes a
        // hierarchy — per-level classifications feed τ_w and the
        // optimizer, the simulator walks both levels, and the energy
        // breakdown grew L2 terms — so all of them re-key. (The service
        // tier refactor of DESIGN.md §15 changed *how* artifacts are
        // stored, not what any stage computes, so it bumped nothing.)
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
/// the instruction count times the (small, bounded) context depth.
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
        // The optimized program plus both before/after analyses.
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
    /// Root of the on-disk layer, `None` = in-memory only.
    pub disk_root: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: 16,
            max_bytes: None,
            disk_root: None,
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

/// Counter snapshot of both store layers (see the module docs for the
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
    /// On-disk reads served fresh.
    pub disk_hits: u64,
    /// On-disk reads that found nothing usable.
    pub disk_misses: u64,
    /// Stale artifact/sidecar pairs deleted by reads.
    pub disk_stale_cleanups: u64,
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
             \"disk_hits\": {}, \"disk_misses\": {}, \"disk_stale_cleanups\": {}, \
             \"compute_ms\": {:.3}, \"coalesce_wait_ms\": {:.3}}}",
            self.hits,
            self.misses,
            self.coalesced,
            self.evictions,
            self.evicted_bytes,
            self.bytes_in_use,
            self.entries,
            self.disk_hits,
            self.disk_misses,
            self.disk_stale_cleanups,
            self.compute_ns as f64 / 1e6,
            self.coalesce_wait_ns as f64 / 1e6,
        )
    }
}

/// The shared artifact store (see the module docs for the two layers).
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
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_stale_cleanups: AtomicU64,
    compute_ns: AtomicU64,
    coalesce_wait_ns: AtomicU64,
    disk_root: Option<PathBuf>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("disk_root", &self.disk_root)
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
    /// A store with only the (unbounded) in-memory layer.
    pub fn in_memory() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// A store whose on-disk layer lives under `root`.
    pub fn with_disk(root: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore::with_config(StoreConfig {
            disk_root: Some(root.into()),
            ..StoreConfig::default()
        })
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
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            disk_stale_cleanups: AtomicU64::new(0),
            compute_ns: AtomicU64::new(0),
            coalesce_wait_ns: AtomicU64::new(0),
            disk_root: config.disk_root,
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

    /// Typed counter snapshot of both layers (gauges summed over shards).
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
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_stale_cleanups: self.disk_stale_cleanups.load(Ordering::Relaxed),
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

    /// Path of an on-disk artifact, when the disk layer is configured.
    pub fn disk_path(&self, name: &str) -> Option<PathBuf> {
        self.disk_root.as_ref().map(|r| r.join(name))
    }

    /// Reads the on-disk artifact `name` **iff** its `.hash` sidecar names
    /// exactly `key`. Anything else — missing, unreadable, or mismatching
    /// sidecar, or an artifact the sidecar no longer describes — means the
    /// artifact is stale (produced by other inputs or an older stage
    /// version): it yields `None` **and the stale pair is deleted**, so
    /// the next write starts from clean state and stale bytes cannot
    /// shadow live names. (A reader racing a writer between the two
    /// rename steps may delete the writer's fresh artifact; the result is
    /// a detectable-stale state the next request recomputes, never a torn
    /// artifact under a fresh hash.)
    pub fn disk_get(&self, name: &str, key: ArtifactKey) -> Option<String> {
        let path = self.disk_path(name)?;
        let sidecar = sidecar_path(&path);
        let recorded = fs::read_to_string(&sidecar)
            .ok()
            .and_then(|s| Fingerprint::from_hex(&s));
        if recorded == Some(key.content) {
            if let Ok(text) = fs::read_to_string(&path) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Some(text);
            }
        }
        // Stale (or half-written) state: remove whatever half exists.
        let removed_artifact = fs::remove_file(&path).is_ok();
        let removed_sidecar = fs::remove_file(&sidecar).is_ok();
        if removed_artifact || removed_sidecar {
            self.disk_stale_cleanups.fetch_add(1, Ordering::Relaxed);
        }
        self.disk_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Writes the on-disk artifact `name` and its `.hash` sidecar.
    ///
    /// Safe for multiple concurrent writers: the write happens under a
    /// `<name>.lock` lease (stale leases are stolen after
    /// `LEASE_TTL`), each file lands via write-to-temp + fsync +
    /// rename, and the sidecar is renamed in only after the artifact is
    /// durable. A crash at any point leaves either the old pair, a fresh
    /// artifact with no/old sidecar (detectable stale), or the fresh
    /// pair — never a torn artifact under a fresh hash.
    ///
    /// # Errors
    ///
    /// Fails when the disk layer is absent, the lease cannot be acquired
    /// within `LEASE_ACQUIRE_TIMEOUT`, or a filesystem write fails.
    pub fn disk_put(&self, name: &str, key: ArtifactKey, text: &str) -> Result<(), EngineError> {
        let path = self.disk_path(name).ok_or_else(|| EngineError::Store {
            path: name.to_string(),
            error: "store has no on-disk layer".to_string(),
        })?;
        let io = |e: std::io::Error| EngineError::Store {
            path: path.display().to_string(),
            error: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(io)?;
        }
        let _lease = DiskLease::acquire(&path)?;
        write_durable(&path, text.as_bytes()).map_err(io)?;
        write_durable(&sidecar_path(&path), key.content.hex().as_bytes()).map_err(io)?;
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically: temp sibling, fsync, rename.
fn write_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// How long a `<name>.lock` lease may sit before other writers steal it
/// (covers writers that died mid-write).
pub const LEASE_TTL: Duration = Duration::from_secs(10);
/// How long a writer waits for the lease before giving up.
pub const LEASE_ACQUIRE_TIMEOUT: Duration = Duration::from_secs(30);

/// An exclusive on-disk write lease: a `<name>.lock` file created with
/// `create_new` (atomic on POSIX and NTFS alike), removed on drop. A
/// lease older than `LEASE_TTL` is presumed abandoned and stolen.
struct DiskLease {
    path: PathBuf,
}

impl DiskLease {
    fn acquire(target: &Path) -> Result<DiskLease, EngineError> {
        let mut p = target.as_os_str().to_os_string();
        p.push(".lock");
        let path = PathBuf::from(p);
        let deadline = Instant::now() + LEASE_ACQUIRE_TIMEOUT;
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(DiskLease { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > LEASE_TTL);
                    if stale {
                        // Two stealers may race the removal; the loser's
                        // remove fails or removes the winner's fresh
                        // lease — either way both loop back to create_new
                        // and exactly one wins it.
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(EngineError::Store {
                            path: target.display().to_string(),
                            error: format!(
                                "could not acquire write lease {} within {:?}",
                                path.display(),
                                LEASE_ACQUIRE_TIMEOUT
                            ),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(EngineError::Store {
                        path: path.display().to_string(),
                        error: e.to_string(),
                    })
                }
            }
        }
    }
}

impl Drop for DiskLease {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
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

fn sidecar_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".hash");
    PathBuf::from(s)
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
                Err(EngineError::Store {
                    path: "x".into(),
                    error: "boom".into(),
                })
            })
            .expect_err("propagates");
        assert!(matches!(err, EngineError::Store { .. }));
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
            disk_root: None,
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
            disk_root: None,
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

    #[test]
    fn disk_layer_rejects_and_deletes_stale_state() {
        let dir = std::env::temp_dir().join(format!("rtpf-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_disk(&dir);
        let k = key(3);
        assert!(store.disk_get("a.csv", k).is_none());
        store.disk_put("a.csv", k, "payload").expect("writes");
        assert_eq!(store.disk_get("a.csv", k).as_deref(), Some("payload"));
        assert_eq!(store.metrics().disk_hits, 1);
        // No temp or lock residue from the atomic write protocol.
        let residue: Vec<_> = fs::read_dir(&dir)
            .expect("reads dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .filter(|n| n.contains(".tmp.") || n.ends_with(".lock"))
            .collect();
        assert!(residue.is_empty(), "left residue: {residue:?}");

        // Another key — the stale artifact is treated as absent AND the
        // pair is deleted so it cannot shadow the name.
        assert!(store.disk_get("a.csv", key(4)).is_none());
        assert_eq!(store.metrics().disk_stale_cleanups, 1);
        assert!(!dir.join("a.csv").exists(), "stale artifact deleted");
        assert!(!dir.join("a.csv.hash").exists(), "stale sidecar deleted");

        // Corrupt sidecar next to a fresh artifact: same cleanup.
        store.disk_put("a.csv", k, "payload").expect("writes");
        fs::write(dir.join("a.csv.hash"), "not-a-hash").expect("writes");
        assert!(store.disk_get("a.csv", k).is_none());
        assert!(!dir.join("a.csv").exists());
        assert!(!dir.join("a.csv.hash").exists());

        // Orphan artifact (crash between artifact and sidecar rename):
        // detectably stale, removed on read.
        fs::write(dir.join("b.csv"), "half-written").expect("writes");
        assert!(store.disk_get("b.csv", k).is_none());
        assert!(!dir.join("b.csv").exists(), "orphan artifact deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_abandoned_lease_is_stolen() {
        let dir = std::env::temp_dir().join(format!("rtpf-lease-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let store = ArtifactStore::with_disk(&dir);
        let lock = dir.join("a.csv.lock");
        fs::write(&lock, "stale-writer").expect("writes");
        // Age the lease past the TTL.
        let old = std::time::SystemTime::now() - (LEASE_TTL + Duration::from_secs(1));
        let f = fs::File::options().write(true).open(&lock).expect("opens");
        f.set_modified(old).expect("sets mtime");
        drop(f);
        store
            .disk_put("a.csv", key(3), "payload")
            .expect("steals lease");
        assert_eq!(store.disk_get("a.csv", key(3)).as_deref(), Some("payload"));
        assert!(!lock.exists(), "lease released after the write");
        let _ = fs::remove_dir_all(&dir);
    }
}
