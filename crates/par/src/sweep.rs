//! Parallel parameter sweeps.
//!
//! An experiment is usually a grid of configurations (graph size × relaxation
//! parameter × decider guarantee), each of which internally runs its own
//! Monte-Carlo estimate. [`sweep`] evaluates the grid in parallel while
//! keeping the output in input order, and [`grid2`]/[`grid3`] build the
//! cartesian products.
//!
//! Two dispatch shapes exist. [`sweep`] cuts its input into two contiguous
//! chunks per pool thread, which keeps per-task overhead low for many
//! fine-grained items. [`sweep_per_item`] makes every item its own pool
//! task, for a few coarse items of uneven cost (the sweep executor's
//! `(grid point, trial range)` items) that contiguous chunks would leave on
//! one worker. It goes through `IndexedParallelIterator::with_max_len(1)`,
//! which is upstream rayon API, so it needs no patch when the vendored
//! stub is swapped back for crates.io `rayon`.

use rayon::prelude::*;

/// Evaluates `f` on every configuration, in parallel, preserving order.
pub fn sweep<C, T, F>(configs: Vec<C>, f: F) -> Vec<T>
where
    C: Send + Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    configs.par_iter().map(|c| f(c)).collect()
}

/// Evaluates `f` on every item as its own pool task, preserving order.
/// Results are identical to [`sweep`]; only the load balance differs.
pub fn sweep_per_item<C, T, F>(items: &[C], f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    items.par_iter().with_max_len(1).map(f).collect()
}

/// Evaluates `f` sequentially (for nested sweeps where the inner level is
/// already parallel).
pub fn sweep_sequential<C, T, F>(configs: Vec<C>, f: F) -> Vec<T>
where
    F: Fn(&C) -> T,
{
    configs.iter().map(f).collect()
}

/// Number of resident worker threads the vendored `rayon` stub's
/// persistent pool has spawned since process start — a *timing-section*
/// metric (it depends on core count / `RLNC_THREADS`, never on
/// results). The pool spawns its workers exactly once, on the first
/// real parallel region, and parks them between regions, so this stays
/// at `thread_count() - 1` for the life of the process (0 before the
/// first region, or always under `RLNC_THREADS=1`). Kept under its
/// historical name so `rayon.scoped_spawns` traces stay comparable
/// across the scoped-thread → pool transition; the richer per-region
/// counters live in [`crate::pool::stats`].
///
/// This wrapper is the single site to patch when swapping the vendored
/// stub back to crates.io `rayon`: count `ThreadPoolBuilder` spawns via
/// its `spawn_handler` (the semantics — threads spawned into the
/// resident pool — now match upstream's one-time spawn model exactly).
pub fn scoped_spawn_count() -> u64 {
    rayon::scoped_spawn_count()
}

/// Cartesian product of two parameter axes.
pub fn grid2<A: Clone, B: Clone>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for x in a {
        for y in b {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

/// Cartesian product of three parameter axes.
pub fn grid3<A: Clone, B: Clone, C: Clone>(a: &[A], b: &[B], c: &[C]) -> Vec<(A, B, C)> {
    let mut out = Vec::with_capacity(a.len() * b.len() * c.len());
    for x in a {
        for y in b {
            for z in c {
                out.push((x.clone(), y.clone(), z.clone()));
            }
        }
    }
    out
}

/// Splits `0..n` into at most `chunks` contiguous ranges of nearly equal
/// size (used to batch per-node work in the simulator).
pub fn balanced_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let configs: Vec<u64> = (0..100).collect();
        let out = sweep(configs.clone(), |&c| c * c);
        assert_eq!(out, configs.iter().map(|c| c * c).collect::<Vec<_>>());
        assert_eq!(sweep_per_item(&configs, |&c| c * c), out);
        let seq = sweep_sequential(configs.clone(), |&c| c + 1);
        assert_eq!(seq[0], 1);
        assert_eq!(seq[99], 100);
    }

    #[test]
    fn grids_have_expected_sizes() {
        let g = grid2(&[1, 2, 3], &["a", "b"]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1, "a"));
        assert_eq!(g[5], (3, "b"));
        let g3 = grid3(&[1, 2], &[10, 20], &[100]);
        assert_eq!(g3.len(), 4);
        assert_eq!(g3[3], (2, 20, 100));
    }

    #[test]
    fn balanced_ranges_cover_everything() {
        let ranges = balanced_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 10);
        // Degenerate cases.
        assert!(balanced_ranges(0, 4).is_empty());
        assert!(balanced_ranges(5, 0).is_empty());
        assert_eq!(balanced_ranges(3, 10).len(), 3);
    }
}
