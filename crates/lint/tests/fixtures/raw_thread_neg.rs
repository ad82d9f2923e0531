// Negative fixture: parallel work through the audited helper, and
// look-alike identifiers that are not thread spawns.
use ssplane_astro::par::{par_map, resolve_threads};

pub fn squares(xs: &[u64], threads: usize) -> Vec<u64> {
    par_map(xs, threads, |x| x * x)
}

pub fn budget(threads: usize) -> usize {
    resolve_threads(threads)
}

pub struct Pool {
    pub thread: usize,
}

pub fn scope(p: &Pool) -> usize {
    let spawn = p.thread;
    spawn + 1
}
