// Negative fixture: ordered work without a priority queue, and
// look-alike identifiers that are not `BinaryHeap`.
use std::collections::BTreeSet;

pub fn nearest_first(dists: &[u64]) -> Vec<u64> {
    let mut sorted = dists.to_vec();
    sorted.sort_unstable();
    sorted
}

pub fn distinct(dists: &[u64]) -> BTreeSet<u64> {
    dists.iter().copied().collect()
}

pub struct Heap {
    pub binary_heap: usize,
}

pub fn heap_size(h: &Heap) -> usize {
    // A BinaryHeap named only in a comment is not a use.
    let binary = h.binary_heap;
    binary + 1
}
