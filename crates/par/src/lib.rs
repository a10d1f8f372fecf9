//! A deterministic work-stealing executor for the pipeline's fan-out
//! stages.
//!
//! Every parallel stage in this workspace — the homograph and semantic
//! scans, lenient zone ingest, the crawl surveys, the report generators —
//! shares one scheduling discipline: the input is split into fixed chunks,
//! the chunks go into a shared queue, and each worker thread repeatedly
//! *steals* the next unclaimed chunk (an atomic cursor bump) until the
//! queue drains. Fast workers therefore absorb the slow chunks instead of
//! idling behind a static partition, which is what makes the pipeline
//! scale with cores on skewed workloads (ZDNS-style self-scheduling).
//!
//! # Determinism contract
//!
//! Results are returned **in input order** regardless of which worker
//! processed which chunk and in what order: each chunk's output is slotted
//! by chunk index and reassembled after the scope joins. As long as the
//! per-item closure is a pure function of its item (plus commutative
//! side effects such as telemetry counters), the output is byte-identical
//! for every thread count, including `threads == 1`, which runs inline
//! without spawning. The proptests in `idnre-bench` hold every pipeline
//! stage to this contract across 1/2/8 threads. [`par_map_ordered`]
//! keeps the same contract for a streaming fold: it hands results to a
//! sink in input order while later items are still computing.
//!
//! # Examples
//!
//! ```
//! let squares = idnre_par::par_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Hard cap on worker threads, matching the pipeline-wide clamp.
pub const MAX_THREADS: usize = 64;

/// Chunks-per-worker granularity: enough chunks that stealing evens out
/// skew, few enough that queue traffic stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// The number of workers to use when the caller has no preference:
/// the machine's available parallelism, clamped to [`MAX_THREADS`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_THREADS)
}

/// The chunk size that splits `len` items into roughly
/// `threads × CHUNKS_PER_THREAD` steal units (at least 1).
pub fn chunk_size(len: usize, threads: usize) -> usize {
    let threads = threads.clamp(1, MAX_THREADS);
    len.div_ceil(threads * CHUNKS_PER_THREAD).max(1)
}

/// Maps `f` over `items` on `threads` workers, returning results in input
/// order. `threads <= 1` (or a short input) runs inline on the caller's
/// thread. See the module docs for the determinism contract.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let per_chunk = par_chunks(
        items,
        threads,
        chunk_size(items.len(), threads),
        |_, chunk| chunk.iter().map(&f).collect::<Vec<R>>(),
    );
    per_chunk.into_iter().flatten().collect()
}

/// Runs `f(chunk_index, chunk)` over `items` split into `size`-item
/// chunks, pulling chunks from a shared work queue on `threads` workers.
/// The returned vector holds one result per chunk, **in chunk order** —
/// scheduling never leaks into the output.
pub fn par_chunks<T, R, F>(items: &[T], threads: usize, size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let size = size.max(1);
    let n_chunks = items.len().div_ceil(size);
    let threads = threads.clamp(1, MAX_THREADS).min(n_chunks.max(1));
    if threads <= 1 {
        return items
            .chunks(size)
            .enumerate()
            .map(|(i, chunk)| f(i, chunk))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let start = i * size;
                let end = (start + size).min(items.len());
                let result = f(i, &items[start..end]);
                slots
                    .lock()
                    .expect("result slot poisoned")
                    .push((i, result));
            });
        }
    });
    let mut per_chunk = slots.into_inner().expect("result slot poisoned");
    per_chunk.sort_unstable_by_key(|&(i, _)| i);
    per_chunk.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over `items` on `threads` workers and hands every result to
/// `sink` on the calling thread, in input order. Workers claim one item at
/// a time and start an item only when fewer than `ahead` results precede
/// it unsunk, so at most `ahead` results are ever buffered — however long
/// `items` is — and `sink` runs while the workers compute. `threads <= 1`
/// runs inline. A panic in `f` or `sink` stops every worker and
/// propagates.
pub fn par_map_ordered<T, R, F, S>(items: &[T], threads: usize, ahead: usize, f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(R),
{
    let threads = threads.clamp(1, MAX_THREADS).min(items.len());
    if threads <= 1 {
        for item in items {
            sink(f(item));
        }
        return;
    }
    // The item the sink waits for is always below `taken + ahead`, so its
    // worker never waits and the sink always progresses. A bound below
    // `threads` would only idle workers.
    let ahead = ahead.max(threads);
    let cursor = AtomicUsize::new(0);
    let state = Mutex::new(Reorder {
        taken: 0,
        ready: HashMap::new(),
        aborted: false,
    });
    let changed = Condvar::new();
    let lock = || state.lock().expect("reorder state poisoned");
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _abort = AbortOnPanic(&state, &changed);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        return;
                    }
                    let mut reorder = lock();
                    while i >= reorder.taken + ahead && !reorder.aborted {
                        reorder = changed.wait(reorder).expect("reorder state poisoned");
                    }
                    if reorder.aborted {
                        return;
                    }
                    drop(reorder);
                    let result = f(&items[i]);
                    lock().ready.insert(i, result);
                    changed.notify_all();
                }
            });
        }
        let _abort = AbortOnPanic(&state, &changed);
        for i in 0..items.len() {
            let mut reorder = lock();
            let result = loop {
                if let Some(result) = reorder.ready.remove(&i) {
                    break result;
                }
                if reorder.aborted {
                    drop(reorder);
                    panic!("a par_map_ordered worker panicked");
                }
                reorder = changed.wait(reorder).expect("reorder state poisoned");
            };
            reorder.taken = i + 1;
            drop(reorder);
            changed.notify_all();
            sink(result);
        }
    });
}

/// [`par_map_ordered`]'s shared state: how many results the sink has
/// taken, the finished results waiting for it, and whether a thread
/// panicked.
struct Reorder<R> {
    taken: usize,
    ready: HashMap<usize, R>,
    aborted: bool,
}

/// Marks a [`par_map_ordered`] run aborted and wakes every waiter when
/// its thread unwinds, so one panic cannot leave the others waiting
/// forever.
struct AbortOnPanic<'a, R>(&'a Mutex<Reorder<R>>, &'a Condvar);

impl<R> Drop for AbortOnPanic<'_, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .aborted = true;
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let doubled = par_map(&items, threads, |&x| x * 2);
            assert_eq!(doubled.len(), items.len());
            assert!(doubled.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let items: Vec<u64> = (0..777).collect();
        let serial = par_map(&items, 1, |&x| x.wrapping_mul(0x9e37_79b9));
        for threads in [2, 4, 8] {
            assert_eq!(
                serial,
                par_map(&items, threads, |&x| x.wrapping_mul(0x9e37_79b9))
            );
        }
    }

    #[test]
    fn chunks_arrive_in_chunk_order() {
        let items: Vec<u32> = (0..103).collect();
        let sums = par_chunks(&items, 4, 10, |i, chunk| {
            (i, chunk.iter().copied().sum::<u32>())
        });
        assert_eq!(sums.len(), 11);
        assert!(sums.iter().enumerate().all(|(k, &(i, _))| k == i));
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, items.iter().sum::<u32>());
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let items: Vec<usize> = (0..5000).collect();
        let visits = AtomicU64::new(0);
        let _ = par_map(&items, 8, |_| visits.fetch_add(1, Ordering::Relaxed));
        assert_eq!(visits.into_inner(), 5000);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u8], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn skewed_work_is_stolen_not_partitioned() {
        // One pathological item 100x slower than the rest; with chunk
        // stealing the wall time stays near the single slow item rather
        // than serializing behind a static partition. We only assert
        // correctness here (timing is for the bench harness), but the
        // chunk count guarantees the slow chunk is a steal unit.
        let items: Vec<u64> = (0..256).collect();
        let out = par_map(&items, 8, |&x| {
            if x == 0 {
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            }
        });
        assert_eq!(out[1..], items[1..]);
    }

    #[test]
    fn ordered_map_sinks_every_result_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            for ahead in [1, 4, 64] {
                let mut sunk = Vec::new();
                par_map_ordered(&items, threads, ahead, |&x| x * 3, |y| sunk.push(y));
                assert!(sunk.iter().copied().eq(items.iter().map(|x| x * 3)));
            }
        }
        par_map_ordered(&[] as &[u64], 4, 4, |&x| x, |_| panic!("no items"));
    }

    #[test]
    fn ordered_map_starts_no_item_more_than_ahead_past_the_sink() {
        let items: Vec<usize> = (0..2000).collect();
        let (threads, ahead) = (4, 6);
        let started = AtomicUsize::new(0);
        let mut sunk = 0;
        par_map_ordered(
            &items,
            threads,
            ahead,
            |&i| {
                started.fetch_add(1, Ordering::SeqCst);
                i
            },
            |i| {
                // While the sink holds item `i`, only items before
                // `i + 1 + ahead` may have started.
                assert!(started.load(Ordering::SeqCst) <= i + 1 + ahead);
                std::hint::black_box((0..200u64).sum::<u64>());
                sunk += 1;
            },
        );
        assert_eq!(sunk, items.len());
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn ordered_map_propagates_a_worker_panic() {
        let items: Vec<u64> = (0..1000).collect();
        par_map_ordered(
            &items,
            4,
            8,
            |&x| {
                assert!(x != 500, "item {x} failed");
                x
            },
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "sink failed")]
    fn ordered_map_propagates_a_sink_panic() {
        let items: Vec<u64> = (0..1000).collect();
        par_map_ordered(&items, 4, 8, |&x| x, |x| assert!(x != 10, "sink failed"));
    }

    #[test]
    fn default_threads_is_sane() {
        let n = default_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }

    #[test]
    fn chunk_size_scales() {
        assert_eq!(chunk_size(0, 8), 1);
        assert_eq!(chunk_size(1, 8), 1);
        assert!(chunk_size(100_000, 8) >= 100_000 / (8 * CHUNKS_PER_THREAD));
    }
}
