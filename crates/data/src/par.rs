//! Std-only data parallelism: a scoped-thread worker pool with chunked work
//! distribution.
//!
//! The hot paths of the system — chase trigger search, homomorphism
//! enumeration, experiment series — are embarrassingly parallel over
//! independent items (triggers, candidate tuples, experiments). This module
//! provides the one primitive they all share: split a slice into chunks,
//! process chunks on a fixed set of scoped worker threads pulling from a
//! shared atomic counter, and return the per-chunk results **in chunk
//! order**, independent of thread scheduling.
//!
//! Determinism contract: `map_chunks(items, f)` returns exactly
//! `chunks(items).map(f)` — the same result as the sequential loop, for any
//! worker count and any interleaving. Callers that need reproducible output
//! (answer enumeration, WCOJ morsels)
//! get it by construction: all nondeterminism is confined to *when* a chunk
//! runs, never to *where its result lands*.
//!
//! There is no work stealing and no channel machinery: workers race on a
//! single `AtomicUsize` for the next chunk index and write results into
//! their own slot vectors. Chunks are over-partitioned (more chunks than
//! workers) so stragglers re-balance naturally.

use crate::obs;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many chunks to split work into, independent of worker count. A
/// width-independent chunking makes [`Pool::map_chunks`] return an
/// *identical* vector for any worker count (not merely an equal multiset),
/// and 64 chunks over-partitions any plausible pool (≤ 16 workers) enough
/// that stragglers re-balance naturally.
const TARGET_CHUNKS: usize = 64;

/// A worker-pool configuration. `Pool` is cheap to construct — threads are
/// scoped per call, not kept alive — so it is a value type describing *how
/// wide* to run, not a handle to live threads.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with exactly `workers` workers (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// A pool sized by the environment: `GTGD_JOBS` if set, otherwise the
    /// number of available hardware threads.
    pub fn from_env() -> Pool {
        Pool::with_workers(default_workers())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to chunks of `items`, in parallel, returning the
    /// per-chunk results in chunk order. `f` receives the chunk's starting
    /// offset into `items` and the chunk itself.
    ///
    /// Sequential fallback: with one worker, one chunk, or an empty input
    /// this runs inline on the calling thread (no spawn cost, identical
    /// results).
    pub fn map_chunks<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let chunk_size = items.len().div_ceil(TARGET_CHUNKS).max(1);
        let chunks: Vec<(usize, &[T])> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| (i * chunk_size, c))
            .collect();
        if self.workers == 1 || chunks.len() == 1 {
            return chunks.into_iter().map(|(off, c)| f(off, c)).collect();
        }
        let spawned = self.workers.min(chunks.len());
        obs::count(obs::Metric::PoolRuns, 1);
        obs::record_max(obs::Metric::PoolMaxWidth, spawned as u64);
        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<Vec<(usize, R)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(off, chunk)) = chunks.get(i) else {
                                return mine;
                            };
                            mine.push((i, f(off, chunk)));
                        }
                    })
                })
                .collect();
            for h in handles {
                let mine = h.join().expect("pool worker panicked");
                obs::count(obs::Metric::PoolChunksClaimed, mine.len() as u64);
                obs::observe(obs::Hist::PoolWorkerChunks, mine.len() as u64);
                per_worker.push(mine);
            }
        });
        let mut slots: Vec<Option<R>> = (0..chunks.len()).map(|_| None).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every chunk claimed exactly once"))
            .collect()
    }

    /// Like [`Pool::map`], but `f` also receives the claiming worker's id
    /// and the item index: `f(worker, index, item)`. Items are claimed one
    /// at a time off a shared atomic counter, so an idle worker *steals*
    /// whatever task is next regardless of any notional home assignment —
    /// this is the execution substrate for morsel-driven parallelism
    /// (callers treat each item as a morsel and use `worker`/`index` for
    /// steal accounting and per-worker timing). Results come back in item
    /// order, for any worker count.
    pub fn run_tasks<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(usize, usize, &T) -> R + Sync,
    ) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let spawned = self.workers.min(items.len());
        if spawned == 1 {
            return items.iter().enumerate().map(|(i, t)| f(0, i, t)).collect();
        }
        obs::count(obs::Metric::PoolRuns, 1);
        obs::record_max(obs::Metric::PoolMaxWidth, spawned as u64);
        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<Vec<(usize, R)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned)
                .map(|w| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let mut mine: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                return mine;
                            };
                            mine.push((i, f(w, i, item)));
                        }
                    })
                })
                .collect();
            for h in handles {
                let mine = h.join().expect("pool worker panicked");
                obs::count(obs::Metric::PoolChunksClaimed, mine.len() as u64);
                obs::observe(obs::Hist::PoolWorkerChunks, mine.len() as u64);
                per_worker.push(mine);
            }
        });
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task claimed exactly once"))
            .collect()
    }

    /// Applies `f` to every item, in parallel, returning results in item
    /// order. Each item is its own unit of work — use for few, coarse tasks
    /// (e.g. independent experiment series); prefer [`Pool::map_chunks`]
    /// for many fine-grained items.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        if items.is_empty() {
            return Vec::new();
        }
        let chunks: Vec<&[T]> = items.chunks(1).collect();
        if self.workers == 1 || chunks.len() == 1 {
            return items.iter().map(f).collect();
        }
        let spawned = self.workers.min(items.len());
        obs::count(obs::Metric::PoolRuns, 1);
        obs::record_max(obs::Metric::PoolMaxWidth, spawned as u64);
        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<Vec<(usize, R)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else {
                                return mine;
                            };
                            mine.push((i, f(item)));
                        }
                    })
                })
                .collect();
            for h in handles {
                per_worker.push(h.join().expect("pool worker panicked"));
            }
        });
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every item claimed exactly once"))
            .collect()
    }
}

/// The default worker count: `GTGD_JOBS` if set to a positive integer,
/// otherwise the available hardware parallelism.
pub fn default_workers() -> usize {
    if let Ok(s) = std::env::var("GTGD_JOBS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_chunks_matches_sequential_for_any_width() {
        let items: Vec<usize> = (0..103).collect();
        let expect: Vec<usize> =
            Pool::with_workers(1).map_chunks(&items, |_, c| c.iter().sum::<usize>());
        for w in [2, 3, 4, 8] {
            let got = Pool::with_workers(w).map_chunks(&items, |_, c| c.iter().sum::<usize>());
            assert_eq!(got, expect, "width {w}");
        }
    }

    #[test]
    fn chunk_offsets_tile_the_input() {
        let items: Vec<u32> = (0..57).collect();
        let spans = Pool::with_workers(4).map_chunks(&items, |off, c| (off, c.len()));
        let mut pos = 0;
        for (off, len) in spans {
            assert_eq!(off, pos);
            pos += len;
        }
        assert_eq!(pos, items.len());
    }

    #[test]
    fn run_tasks_preserves_item_order_and_covers_all() {
        let items: Vec<usize> = (0..41).collect();
        for w in [1usize, 2, 5, 9] {
            let got = Pool::with_workers(w).run_tasks(&items, |worker, i, &x| {
                assert!(worker < w);
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(
                got,
                items.iter().map(|&x| x * 3).collect::<Vec<_>>(),
                "width {w}"
            );
        }
        let none: Vec<u8> = Vec::new();
        assert!(Pool::with_workers(4)
            .run_tasks(&none, |_, _, &x| x)
            .is_empty());
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<i64> = (0..37).collect();
        let got = Pool::with_workers(5).map(&items, |&x| x * 2);
        assert_eq!(got, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let none: Vec<u8> = Vec::new();
        assert!(Pool::with_workers(4)
            .map_chunks(&none, |_, c| c.len())
            .is_empty());
        assert!(Pool::with_workers(4).map(&none, |&x| x).is_empty());
    }

    #[test]
    fn all_items_processed_exactly_once() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<usize> = (0..256).collect();
        HITS.store(0, Ordering::SeqCst);
        let _ = Pool::with_workers(6).map_chunks(&items, |_, c| {
            HITS.fetch_add(c.len(), Ordering::SeqCst);
        });
        assert_eq!(HITS.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(Pool::with_workers(0).workers(), 1);
    }
}
