//! The workspace's one parallel-map helper.
//!
//! Every parallel step of the pipeline — the scenario sweep, gravity
//! pair sampling, snapshot propagation, attack-candidate scoring and the
//! attack-search refinement — is an indexed map whose outputs must not
//! depend on how many threads computed them. [`par_map`] is that map:
//! scoped workers claim input indices off one atomic queue, each output
//! lands in its input's own slot, and the slots are read back in input
//! order. Scheduling decides only *which* worker computes an item, never
//! what it computes or where the result goes, so the returned vector is
//! the same for every thread count — including the serial fallback.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count a `threads` setting stands for: `0` means the
/// machine's available parallelism (4 if it cannot be queried), any
/// other value is taken as given.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers (`0` = the
/// machine, see [`resolve_threads`]) and returns the outputs in input
/// order.
///
/// With one worker or at most one item it runs serially on the calling
/// thread and spawns nothing. Otherwise `min(threads, items)` workers
/// claim indices off a shared atomic counter; item `i` is moved out of
/// input slot `i` and its output is stored in output slot `i`. A panic
/// in `f` propagates to the caller once every worker has stopped.
pub fn par_map<T, R, F>(items: impl IntoIterator<Item = T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let workers = resolve_threads(threads).min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(i) else { break };
                let item = input.lock().expect("input slot poisoned").take();
                let out = f(item.expect("every index is claimed once"));
                *outputs[i].lock().expect("output slot poisoned") = Some(out);
            });
        }
    });
    outputs
        .into_iter()
        .map(|slot| slot.into_inner().expect("output slot poisoned").expect("every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_keeps_explicit_counts() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn output_is_in_input_order_for_every_thread_count() {
        // Uneven per-item cost so workers finish out of order.
        let work = |i: u64| (0..(i % 7) * 1000).fold(i, |acc, k| acc.wrapping_mul(31) ^ k);
        let serial: Vec<u64> = (0..200).map(work).collect();
        for threads in [0, 1, 2, 3, 8, 500] {
            assert_eq!(par_map(0..200u64, threads, work), serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u8> = par_map(Vec::<u8>::new(), 4, |x| x);
        assert!(none.is_empty());
        // One item runs on the calling thread.
        let caller = std::thread::current().id();
        assert_eq!(par_map([5], 4, |x| (x, std::thread::current().id())), vec![(5, caller)]);
    }

    #[test]
    fn items_are_moved_and_may_borrow_mutably() {
        let mut buf = vec![0u32; 12];
        let chunks: Vec<(usize, &mut [u32])> = buf.chunks_mut(3).enumerate().collect();
        let sums = par_map(chunks, 3, |(k, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = u32::try_from(k * 3 + j).unwrap();
            }
            chunk.iter().sum::<u32>()
        });
        assert_eq!(buf, (0..12).collect::<Vec<u32>>());
        assert_eq!(sums, vec![3, 12, 21, 30]);
    }

    #[test]
    #[should_panic]
    fn worker_panics_reach_the_caller() {
        par_map(0..8, 2, |i| assert_ne!(i, 3));
    }
}
