// Positive fixture: a second hand-rolled Dijkstra queue, the pattern the
// routing module's one kernel replaces.
use std::collections::BinaryHeap;

pub fn nearest_first(dists: &[u64]) -> Vec<u64> {
    let mut heap = BinaryHeap::new();
    for &d in dists {
        heap.push(std::cmp::Reverse(d));
    }
    std::iter::from_fn(|| heap.pop().map(|r| r.0)).collect()
}
