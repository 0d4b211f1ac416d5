//! Concurrency hammer for the sharded, single-flight [`ArtifactStore`].
//!
//! N threads issue mixed `get` / `put` / `get_or_compute` traffic over a
//! small overlapping key space and the test asserts the store's core
//! service-tier guarantees: each key's computation runs **exactly once**
//! (single-flight), every successful `get_or_compute` is exactly one hit
//! or one miss (`hits + misses` reconciles with the operation count), and
//! a byte-bounded tier never exceeds its budget while keeping its
//! accounting consistent under eviction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use rtpf_engine::{ArtifactKey, ArtifactStore, EngineError, Fingerprint, Stage, StoreConfig};

fn key(n: u64) -> ArtifactKey {
    ArtifactKey::new(Stage::Unit, &[Fingerprint(n, !n)])
}

#[test]
fn overlapping_get_or_compute_computes_each_key_exactly_once() {
    const THREADS: usize = 16;
    const KEYS: u64 = 7;
    const ROUNDS: u64 = 50;

    let store = Arc::new(ArtifactStore::in_memory());
    let computed: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            let computed = Arc::clone(&computed);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut ops = 0u64;
                for round in 0..ROUNDS {
                    // Walk the key space in a thread-dependent order so
                    // every key sees concurrent callers.
                    let k = (round + t as u64) % KEYS;
                    let v = store
                        .get_or_compute(key(k), || {
                            computed[k as usize].fetch_add(1, Ordering::Relaxed);
                            Ok(k * 1000)
                        })
                        .expect("computes");
                    assert_eq!(*v, k * 1000);
                    ops += 1;
                    // Uncounted reads must not disturb the reconciliation.
                    if let Some(v) = store.get::<u64>(key(k)) {
                        assert_eq!(*v, k * 1000);
                    }
                }
                ops
            })
        })
        .collect();
    let total_ops: u64 = workers.into_iter().map(|w| w.join().expect("joins")).sum();

    for (k, count) in computed.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "key {k} must be computed exactly once (single-flight)"
        );
    }
    let m = store.metrics();
    assert_eq!(
        m.hits + m.misses,
        total_ops,
        "every successful get_or_compute is exactly one hit or miss"
    );
    assert_eq!(m.misses, KEYS, "one miss per distinct key");
    assert_eq!(m.hits, total_ops - KEYS);
    assert_eq!(m.entries, KEYS);
    assert_eq!(m.evictions, 0);
}

#[test]
fn coalesced_followers_share_one_slow_computation() {
    const WAITERS: usize = 8;
    let store = Arc::new(ArtifactStore::in_memory());
    let computed = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(WAITERS));

    let workers: Vec<_> = (0..WAITERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let computed = Arc::clone(&computed);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let v = store
                    .get_or_compute(key(1), || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        // Hold the flight open long enough that the other
                        // threads arrive while it is still in flight.
                        thread::sleep(std::time::Duration::from_millis(50));
                        Ok(77u64)
                    })
                    .expect("computes");
                assert_eq!(*v, 77);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("joins");
    }

    assert_eq!(computed.load(Ordering::Relaxed), 1, "one leader computes");
    let m = store.metrics();
    assert_eq!(m.misses, 1);
    assert_eq!(m.hits, WAITERS as u64 - 1);
    assert!(
        m.coalesced >= 1,
        "at least one caller must have parked on the in-flight leader"
    );
    assert!(m.coalesce_wait_ns > 0);
}

#[test]
fn leader_errors_propagate_to_coalesced_followers() {
    const WAITERS: usize = 6;
    let store = Arc::new(ArtifactStore::in_memory());
    let attempts = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(WAITERS));

    let workers: Vec<_> = (0..WAITERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let attempts = Arc::clone(&attempts);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                store.get_or_compute::<u64>(key(2), || {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(std::time::Duration::from_millis(30));
                    Err(EngineError::Read {
                        path: "k2".into(),
                        error: "deliberate".into(),
                    })
                })
            })
        })
        .collect();
    let mut errors = 0;
    for w in workers {
        assert!(
            w.join().expect("joins").is_err(),
            "all callers see the error"
        );
        errors += 1;
    }
    assert_eq!(errors, WAITERS);
    // Failures are never cached: once the flights drain, callers retry.
    assert!(attempts.load(Ordering::Relaxed) >= 1);
    assert!(store.get::<u64>(key(2)).is_none());
    let v = store
        .get_or_compute(key(2), || Ok(11u64))
        .expect("recovers");
    assert_eq!(*v, 11);
}

#[test]
fn a_panicking_leader_does_not_wedge_followers() {
    let store = Arc::new(ArtifactStore::in_memory());
    let barrier = Arc::new(Barrier::new(2));

    let leader = {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = store.get_or_compute::<u64>(key(4), || {
                    barrier.wait();
                    thread::sleep(std::time::Duration::from_millis(30));
                    panic!("leader dies mid-compute");
                });
            }));
        })
    };
    let follower = {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            barrier.wait();
            // Arrives while the doomed leader is in flight; must retry as
            // a fresh leader rather than wait forever.
            let v = store
                .get_or_compute(key(4), || Ok(13u64))
                .expect("retries after poison");
            assert_eq!(*v, 13);
        })
    };
    leader.join().expect("leader thread joins");
    follower.join().expect("follower must not deadlock");
    assert_eq!(store.get::<u64>(key(4)).as_deref(), Some(&13));
}

#[test]
fn bounded_tier_stays_within_budget_under_mixed_hammer() {
    const THREADS: usize = 8;
    const KEYS: u64 = 64;
    const ROUNDS: u64 = 200;
    // Each u64 entry costs 8 + 96 overhead = 104 bytes; budget holds
    // only a fraction of the key space so eviction runs constantly.
    const BUDGET: u64 = 16 * 104;

    let store = Arc::new(ArtifactStore::with_config(StoreConfig {
        shards: 4,
        max_bytes: Some(BUDGET),
    }));
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut goc_ops = 0u64;
                for round in 0..ROUNDS {
                    let k = (round * 7 + t as u64 * 13) % KEYS;
                    match (round + t as u64) % 3 {
                        0 => {
                            store.put(key(k), k);
                        }
                        1 => {
                            if let Some(v) = store.get::<u64>(key(k)) {
                                assert_eq!(*v, k);
                            }
                        }
                        _ => {
                            let v = store.get_or_compute(key(k), || Ok(k)).expect("computes");
                            assert_eq!(*v, k);
                            goc_ops += 1;
                        }
                    }
                }
                goc_ops
            })
        })
        .collect();
    let goc_ops: u64 = workers.into_iter().map(|w| w.join().expect("joins")).sum();

    let m = store.metrics();
    assert!(
        m.bytes_in_use <= BUDGET,
        "tier over budget: {} > {BUDGET}",
        m.bytes_in_use
    );
    assert_eq!(
        m.bytes_in_use,
        m.entries * 104,
        "byte accounting reconciles with the entry count"
    );
    assert!(m.evictions > 0, "the hammer must have forced evictions");
    assert_eq!(m.evicted_bytes, m.evictions * 104);
    assert_eq!(
        m.hits + m.misses,
        goc_ops,
        "every get_or_compute call lands in exactly one of hits/misses"
    );
}
