//! A minimal deterministic fork-join pool for the exploration engines.
//!
//! The crash-state model checker and the bench harness both fan an
//! embarrassingly parallel matrix of independent simulation cases across
//! host threads. This module provides the one primitive they need — an
//! ordered parallel map — built purely on [`std::thread::scope`], so the
//! workspace stays dependency-free (no crates.io registry is needed).
//!
//! # Determinism contract
//!
//! [`par_map`] returns results in input order regardless of which worker
//! processed which item or in what real-time order items completed. As
//! long as `f(i, item)` is itself a pure function of its inputs (the
//! simulator is deterministic and every stochastic choice draws from a
//! [`crate::rng::Rng64::new_stream`] keyed by the item, never from shared
//! state), the output is byte-identical at any thread count, including
//! the sequential `threads <= 1` fallback.
//!
//! # Scheduling
//!
//! Work is distributed dynamically: workers claim the next unclaimed
//! *batch* of indices from a shared atomic counter (a strided
//! `fetch_add`, so claiming cost amortizes over a batch of items while a
//! few slow items still cannot idle the remaining workers the way static
//! chunking would). Results never contend: each worker accumulates into a
//! local vector merged exactly once at the end, then sorted back into
//! input order. No locks are held while computing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
/// either way, only wall-clock differs. Each worker pushes `(index,
/// result)` pairs into its own vector and merges it into the shared output
/// exactly once, when it runs out of work, so the pool takes one lock per
/// worker and none per item.
///
/// # Panics
///
/// If `f` panics on any item the panic is propagated to the caller, with
/// its original payload, once all workers have stopped.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
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
        // Re-raise the first worker panic with its original payload (a
        // bare scope exit would replace it with "a scoped thread
        // panicked").
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
    fn batched_claims_match_sequential() {
        // 1023 items on 5 workers are claimed 25 at a time, the last claim
        // a 23-item tail; the merge must still restore input order.
        let items: Vec<u32> = (0..1023).collect();
        assert_eq!(claim_stride(items.len(), 5), 25);
        let f = |i: usize, x: &u32| (i as u32).wrapping_mul(31).wrapping_add(*x);
        assert_eq!(par_map(1, &items, f), par_map(5, &items, f));
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = vec![];
        assert!(par_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[42u8], |_, &x| x), vec![42]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u8, 2, 3];
        assert_eq!(par_map(64, &items, |_, &x| x * 2), vec![2, 4, 6]);
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
    #[should_panic(expected = "boom at 1010")]
    fn panic_mid_batch_propagates() {
        // Item 1010 lies inside the 1000..1023 tail claim, so its worker
        // already holds results it has not merged when it panics.
        let items: Vec<u32> = (0..1023).collect();
        let _ = par_map(5, &items, |_, &x| {
            if x == 1010 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
