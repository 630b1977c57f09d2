//! A minimal deterministic fork-join pool for the exploration engines.
//!
//! The crash-state model checker and the bench harness both fan an
//! embarrassingly parallel matrix of independent simulation cases across
//! host threads. This module provides the two primitives they need —
//! ordered parallel maps — built purely on [`std::thread::scope`], so
//! the workspace stays dependency-free (the container image carries no
//! crates.io registry).
//!
//! # Determinism contract
//!
//! [`par_map`] and [`par_map_collect`] return results in input order
//! regardless of which worker processed which item or in what real-time
//! order items completed. As long as `f(i, item)` is itself a pure
//! function of its inputs (the simulator is deterministic and every
//! stochastic choice draws from a [`crate::rng::Rng64::new_stream`] keyed
//! by the item, never from shared state), the output is byte-identical at
//! any thread count, including the sequential `threads <= 1` fallback.
//!
//! # Scheduling
//!
//! Work is distributed dynamically: workers claim the next unclaimed
//! *batch* of indices from a shared atomic counter (a strided
//! `fetch_add`, so claiming cost amortizes over `claim_stride` items
//! while a few slow items still cannot idle the remaining workers the way
//! static chunking would). Results never contend: [`par_map`] writes each
//! into its own write-once [`OnceLock`] slot, and [`par_map_collect`]
//! accumulates into a worker-local vector merged exactly once at the end,
//! in input order. No locks are held while computing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use by default: the host's available
/// parallelism, or 1 if it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Indices claimed per `fetch_add` on the shared work counter: enough
/// that claiming is a vanishing fraction of the work, small enough that
/// dynamic load balancing still absorbs slow items (each worker should
/// get several claims even on a perfectly uniform workload).
fn claim_stride(items: usize, workers: usize) -> usize {
    (items / (workers * 8)).clamp(1, 64)
}

/// Map `f` over `items` using up to `threads` host threads, returning the
/// results in input order.
///
/// `f` receives `(index, &item)`. With `threads <= 1` (or one item) the
/// map runs sequentially on the calling thread — the result is identical
/// either way, only wall-clock differs.
///
/// # Panics
///
/// If `f` panics on any item the panic is propagated to the caller once
/// all workers have stopped, matching the sequential behaviour closely
/// enough for `should_panic`-style callers.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let workers = threads.min(items.len());
    let stride = claim_stride(items.len(), workers);
    let next = AtomicUsize::new(0);
    // Write-once result slots: setting a OnceLock is one atomic store on
    // the uncontended path (and each slot has exactly one writer), unlike
    // the per-item Mutex<Option<R>> this replaces.
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let base = next.fetch_add(stride, Ordering::Relaxed);
                    if base >= items.len() {
                        break;
                    }
                    for i in base..(base + stride).min(items.len()) {
                        let claimed = slots[i].set(f(i, &items[i]));
                        assert!(claimed.is_ok(), "slot {i} written twice");
                    }
                })
            })
            .collect();
        // Re-raise the first worker panic with its original payload (a
        // bare scope exit would replace it with "a scoped thread
        // panicked").
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker completed every claimed slot")
        })
        .collect()
}

/// [`par_map`] with worker-local result accumulation: each worker pushes
/// `(index, result)` pairs into its own vector and merges it into the
/// shared output exactly once, when it runs out of work. Results are
/// sorted back into input order before returning, so the output is
/// identical to [`par_map`]'s.
///
/// Prefer this over [`par_map`] when results are produced faster than a
/// per-item slot write amortizes (many small results), or when the caller
/// wants the pool's contention limited to one lock acquisition per
/// *worker* rather than any per-item synchronization at all.
///
/// # Panics
///
/// Worker panics propagate to the caller with their original payload,
/// exactly as in [`par_map`].
pub fn par_map_collect<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let workers = threads.min(items.len());
    let stride = claim_stride(items.len(), workers);
    let next = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let base = next.fetch_add(stride, Ordering::Relaxed);
                        if base >= items.len() {
                            break;
                        }
                        let end = (base + stride).min(items.len());
                        for (i, item) in items[base..end].iter().enumerate() {
                            local.push((base + i, f(base + i, item)));
                        }
                    }
                    merged.lock().unwrap().append(&mut local);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let mut all = merged.into_inner().unwrap();
    assert_eq!(all.len(), items.len(), "every item produced one result");
    all.sort_unstable_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(8, &items, |i, &x| {
            // Make later items finish first to exercise the ordered merge.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            (i as u64) * 10 + x
        });
        let expect: Vec<u64> = (0..100).map(|x| x * 11).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u32> = (0..257).collect();
        let f = |i: usize, x: &u32| (i as u32).wrapping_mul(31).wrapping_add(*x);
        assert_eq!(par_map(1, &items, f), par_map(7, &items, f));
    }

    #[test]
    fn collect_matches_slot_map_and_sequential() {
        let items: Vec<u32> = (0..1023).collect();
        let f = |i: usize, x: &u32| (i as u32).wrapping_mul(31).wrapping_add(*x);
        let seq = par_map_collect(1, &items, f);
        let par = par_map_collect(5, &items, f);
        assert_eq!(seq, par);
        assert_eq!(par, par_map(5, &items, f));
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = vec![];
        assert!(par_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[42u8], |_, &x| x), vec![42]);
        assert!(par_map_collect(4, &none, |_, &x| x).is_empty());
        assert_eq!(par_map_collect(4, &[42u8], |_, &x| x), vec![42]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u8, 2, 3];
        assert_eq!(par_map(64, &items, |_, &x| x * 2), vec![2, 4, 6]);
        assert_eq!(par_map_collect(64, &items, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn stride_amortizes_without_starving_workers() {
        assert_eq!(claim_stride(1, 8), 1);
        assert_eq!(claim_stride(100, 8), 1);
        assert_eq!(claim_stride(10_000, 8), 64, "stride is capped");
        // Every worker still gets multiple claims at the cap.
        assert!(10_000 / claim_stride(10_000, 8) >= 8 * 8);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let _ = par_map(4, &items, |_, &x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "collect boom")]
    fn collect_worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let _ = par_map_collect(4, &items, |_, &x| {
            if x == 7 {
                panic!("collect boom");
            }
            x
        });
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
