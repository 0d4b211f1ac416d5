//! The work-stealing grid scheduler.
//!
//! Runs one closure over every item of a grid (e.g. the evaluation's
//! 37 programs × 36 configurations) on a pool of scoped threads. Workers
//! steal item indices from a shared atomic counter and accumulate results
//! in per-worker buffers, which are scattered into index-addressed slots
//! after the join — there is no shared lock anywhere on the hot path.
//! Results come back in item order regardless of which worker computed
//! what.
//!
//! With [`Grid::shards`] > 1 the item range is partitioned into that many
//! contiguous shards, each with its own claim counter, and the worker pool
//! is split into groups with one home shard apiece. Workers drain their
//! home shard first and only then steal from the others, so a wide pool
//! hammering one shared counter turns into independent groups that
//! converge only in the tail.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Scheduler knobs.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    /// Worker threads; `0` = one per available core.
    pub workers: usize,
    /// Progress line every `n` completed items (`0` = silent).
    pub progress_every: usize,
    /// Label prefixing progress lines.
    pub label: &'static str,
    /// Independent claim-counter partitions (`0` or `1` = one shared
    /// counter, the classic mode). Clamped to the worker and item counts.
    pub shards: usize,
}

impl Default for Grid {
    fn default() -> Self {
        Grid {
            workers: 0,
            progress_every: 0,
            label: "grid",
            shards: 0,
        }
    }
}

impl Grid {
    /// Runs `f(index, item)` for every item, in parallel, returning the
    /// results in item order.
    pub fn run<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.workers
        };
        // More shards than workers (or items) would only manufacture
        // steal traffic, so clamp; shard `s` owns `bounds[s]..bounds[s+1]`.
        let shards = self.shards.clamp(1, workers.min(items.len()).max(1));
        let bounds: Vec<usize> = (0..=shards).map(|s| s * items.len() / shards).collect();
        let cursors: Vec<AtomicUsize> = bounds[..shards]
            .iter()
            .map(|&lo| AtomicUsize::new(lo))
            .collect();
        let done = AtomicUsize::new(0);
        let started = std::time::Instant::now();

        let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let home = w % shards;
                    let cursors = &cursors;
                    let bounds = &bounds;
                    let done = &done;
                    let started = &started;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        'work: loop {
                            // Home shard first, then steal round-robin.
                            for k in 0..shards {
                                let s = (home + k) % shards;
                                let i = cursors[s].fetch_add(1, Ordering::Relaxed);
                                if i >= bounds[s + 1] {
                                    continue;
                                }
                                local.push((i, f(i, &items[i])));
                                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                                if self.progress_every > 0 && d.is_multiple_of(self.progress_every)
                                {
                                    let rate = d as f64 / started.elapsed().as_secs_f64();
                                    eprintln!(
                                        "{}: {d}/{} units ({rate:.2} units/s)",
                                        self.label,
                                        items.len()
                                    );
                                }
                                continue 'work;
                            }
                            break;
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("grid worker panicked"))
                .collect()
        });

        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(items.len(), || None);
        for (i, r) in buffers.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item computed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_and_covers_every_item() {
        let items: Vec<u64> = (0..257).collect();
        let grid = Grid {
            workers: 7,
            ..Grid::default()
        };
        let out = grid.run(&items, |i, &v| {
            assert_eq!(i as u64, v);
            v * 2
        });
        assert_eq!(out.len(), items.len());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn sharded_run_covers_every_item_in_order() {
        let items: Vec<u64> = (0..131).collect();
        for shards in [2, 4, 16, 1000] {
            let grid = Grid {
                workers: 7,
                shards,
                ..Grid::default()
            };
            let out = grid.run(&items, |i, &v| {
                assert_eq!(i as u64, v);
                v + 10
            });
            assert_eq!(out.len(), items.len(), "shards={shards}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u64 + 10, "shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_workers_finish_foreign_shards() {
        // One shard gets all the slow items; with stealing, the grid still
        // completes every item even though the home groups are unbalanced.
        let items: Vec<u64> = (0..64).collect();
        let grid = Grid {
            workers: 4,
            shards: 4,
            ..Grid::default()
        };
        let out = grid.run(&items, |i, &v| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            v * 3
        });
        assert_eq!(out, (0..64).map(|v| v * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn single_worker_and_empty_grid_work() {
        let grid = Grid {
            workers: 1,
            ..Grid::default()
        };
        assert_eq!(grid.run(&[1, 2, 3], |_, v| v + 1), vec![2, 3, 4]);
        let empty: Vec<u32> = Vec::new();
        assert!(grid.run(&empty, |_, v| *v).is_empty());
    }
}
