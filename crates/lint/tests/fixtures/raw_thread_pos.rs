// Positive fixture: a hand-rolled worker pool and an ad-hoc thread
// count, the pattern `par_map` replaces.
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn squares(xs: &[u64]) -> Vec<u64> {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let next = AtomicUsize::new(0);
    let out: Vec<std::sync::Mutex<u64>> = xs.iter().map(|_| Default::default()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(x) = xs.get(i) else { break };
                *out[i].lock().unwrap() = x * x;
            });
        }
    });
    out.into_iter().map(|m| m.into_inner().unwrap()).collect()
}

pub fn detached() {
    use std::thread;
    thread::spawn(|| ()).join().unwrap();
}
