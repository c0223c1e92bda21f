//! Chunk-parallel execution runtime for the columnar kernels.
//!
//! Every hot kernel in `ops/` splits its row range into contiguous chunks,
//! processes each chunk on a scoped worker thread, and merges the
//! per-chunk results **in chunk order**. Because chunks are contiguous and
//! the merge is ordered, a parallel kernel produces bit-identical output
//! to the serial one — the property the differential suite in
//! `tests/parallel_diff_props.rs` pins down.
//!
//! Determinism rules the helpers here enforce by construction:
//!
//! - Chunk boundaries depend only on `(len, threads, min_chunk)`, never on
//!   scheduling. The same configuration always yields the same split.
//! - Results come back as a `Vec` indexed by chunk, so the caller's merge
//!   order is the chunk order regardless of which worker finished first.
//! - A panicking worker never unwinds through the caller: panics are
//!   caught at the scope boundary and surfaced as [`DfError::Internal`].
//!   (The executor's `catch_unwind` confines panics on *its* thread only;
//!   a panic on a pool thread would otherwise abort the process.)
//!
//! Thread count resolution order: an active [`with_config`] override
//! (used by tests to force serial or parallel execution regardless of the
//! host), else [`set_threads`], else the `CO_DF_THREADS` environment
//! variable, else [`std::thread::available_parallelism`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::error::{DfError, Result};

/// Global thread-count override; 0 = unset (fall back to env / hardware).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Rows below which kernels stay serial: thread spawn + merge overhead
/// beats any win on small frames.
pub const DEFAULT_MIN_CHUNK: usize = 16 * 1024;

thread_local! {
    /// Per-thread `(threads, min_chunk)` override installed by [`with_config`].
    static LOCAL_CONFIG: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Set the process-wide worker thread count (0 clears the override).
///
/// Takes precedence over the `CO_DF_THREADS` environment variable;
/// individual calls can still be pinned with [`with_config`].
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Run `f` with a pinned `(threads, min_chunk)` configuration.
///
/// Thread-local, so concurrent tests cannot race each other's settings.
/// `min_chunk = 1` forces chunked execution even on tiny frames, which is
/// how the differential suite exercises the parallel path on generated
/// frames of a few rows.
pub fn with_config<R>(threads: usize, min_chunk: usize, f: impl FnOnce() -> R) -> R {
    LOCAL_CONFIG.with(|cfg| {
        let prev = cfg.replace(Some((threads.max(1), min_chunk.max(1))));
        let out = f();
        cfg.set(prev);
        out
    })
}

/// The effective `(threads, min_chunk)` for the current thread.
fn config() -> (usize, usize) {
    if let Some(cfg) = LOCAL_CONFIG.with(Cell::get) {
        return cfg;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    let threads = if global > 0 {
        global
    } else if let Some(n) = std::env::var("CO_DF_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        n
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    };
    (threads.max(1), DEFAULT_MIN_CHUNK)
}

/// The worker thread count kernels currently resolve to.
#[must_use]
pub fn current_threads() -> usize {
    config().0
}

/// Deterministic split of `0..len` into at most `threads` contiguous
/// chunks of at least `min_chunk` rows (except possibly the last).
fn chunk_bounds(len: usize, threads: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let max_chunks = len.div_ceil(min_chunk.max(1));
    let n_chunks = threads.min(max_chunks).max(1);
    let base = len / n_chunks;
    let extra = len % n_chunks;
    let mut bounds = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

fn internal_panic() -> DfError {
    DfError::Internal("worker thread panicked".into())
}

/// Run `job` over contiguous chunks of `0..len` and return the per-chunk
/// results **in chunk order**.
///
/// `job(chunk_index, start, end)` must depend only on its arguments (and
/// shared immutable input); chunk order in the returned `Vec` is the merge
/// order. Falls back to inline serial execution when one chunk suffices,
/// so small frames never pay for a thread spawn. Worker panics and errors
/// both surface as `Err`; the first error in chunk order wins.
pub fn run_chunks<T, F>(len: usize, job: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, usize, usize) -> Result<T> + Sync,
{
    let (threads, min_chunk) = config();
    let bounds = chunk_bounds(len, threads, min_chunk);
    if bounds.len() <= 1 {
        return bounds
            .into_iter()
            .enumerate()
            .map(|(i, (s, e))| job(i, s, e))
            .collect();
    }
    let slots: Vec<Mutex<Option<Result<T>>>> = bounds.iter().map(|_| Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for (i, &(start, end)) in bounds.iter().enumerate() {
            let slot = &slots[i];
            let job = &job;
            scope.spawn(move |_| {
                *slot.lock() = Some(job(i, start, end));
            });
        }
    })
    .map_err(|_| internal_panic())?;
    slots
        .into_iter()
        .map(|slot| slot.into_inner().ok_or_else(internal_panic)?)
        .collect()
}

/// Run `k` independent tasks and return their results in task order.
///
/// Task-shaped counterpart of [`run_chunks`] for work that partitions by
/// something other than rows (hash partitions in join/group-by, column
/// pairs in the correlation matrix). Honors the same thread-count
/// configuration: with 1 thread the tasks run inline, serially, in order.
pub fn run_tasks<T, F>(k: usize, job: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let (threads, _) = config();
    if k <= 1 || threads <= 1 {
        return (0..k).map(&job).collect();
    }
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..k).map(|_| Mutex::new(None)).collect();
    // Cap live threads at the configured count: workers sweep the slot
    // array and claim unclaimed tasks, so at most `threads` OS threads
    // exist while all `k` tasks still run exactly once.
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.min(k) {
            let slots = &slots;
            let next = &next;
            let job = &job;
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                *slots[i].lock() = Some(job(i));
            });
        }
    })
    .map_err(|_| internal_panic())?;
    slots
        .into_iter()
        .map(|slot| slot.into_inner().ok_or_else(internal_panic)?)
        .collect()
}

/// Fill `out` in place by running `job` over contiguous chunks of it.
///
/// `job(chunk_index, start, chunk)` writes the values for `out[start..]`
/// into `chunk` (a disjoint `&mut` sub-slice handed out via
/// `split_at_mut`, so no locking and no copy-merge step). The chunk
/// layout matches [`run_chunks`], keeping output placement deterministic.
pub fn fill_chunks<T, F>(out: &mut [T], job: F) -> Result<()>
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) -> Result<()> + Sync,
{
    let (threads, min_chunk) = config();
    let bounds = chunk_bounds(out.len(), threads, min_chunk);
    if bounds.len() <= 1 {
        for (i, &(start, end)) in bounds.iter().enumerate() {
            job(i, start, &mut out[start..end])?;
        }
        return Ok(());
    }
    let errors: Mutex<Vec<(usize, DfError)>> = Mutex::new(Vec::new());
    crossbeam::thread::scope(|scope| {
        let mut rest = out;
        let mut consumed = 0;
        for (i, &(start, end)) in bounds.iter().enumerate() {
            let (chunk, tail) = rest.split_at_mut(end - consumed);
            rest = tail;
            consumed = end;
            let errors = &errors;
            let job = &job;
            scope.spawn(move |_| {
                if let Err(e) = job(i, start, chunk) {
                    errors.lock().push((i, e));
                }
            });
        }
    })
    .map_err(|_| internal_panic())?;
    let mut errors = errors.into_inner();
    errors.sort_by_key(|&(i, _)| i);
    match errors.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_range_exactly() {
        for len in [0usize, 1, 2, 7, 100, 1001] {
            for threads in [1usize, 2, 3, 8] {
                for min_chunk in [1usize, 4, 1000] {
                    let bounds = chunk_bounds(len, threads, min_chunk);
                    let mut pos = 0;
                    for &(s, e) in &bounds {
                        assert_eq!(s, pos, "len={len} threads={threads}");
                        assert!(e > s, "empty chunk len={len} threads={threads}");
                        pos = e;
                    }
                    assert_eq!(pos, len);
                    assert!(bounds.len() <= threads.max(1));
                }
            }
        }
    }

    #[test]
    fn chunk_bounds_are_deterministic() {
        assert_eq!(chunk_bounds(10, 4, 1), chunk_bounds(10, 4, 1));
        assert_eq!(
            chunk_bounds(10, 4, 1),
            vec![(0, 3), (3, 6), (6, 8), (8, 10)]
        );
    }

    #[test]
    fn run_chunks_merges_in_chunk_order() {
        let data: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4] {
            let parts = with_config(threads, 1, || {
                run_chunks(data.len(), |_i, s, e| Ok(data[s..e].to_vec()))
            })
            .unwrap();
            let flat: Vec<u64> = parts.into_iter().flatten().collect();
            assert_eq!(flat, data);
        }
    }

    #[test]
    fn run_chunks_surfaces_errors_first_in_chunk_order() {
        let r: Result<Vec<()>> = with_config(4, 1, || {
            run_chunks(100, |i, _s, _e| {
                if i >= 1 {
                    Err(DfError::Internal(format!("chunk {i}")))
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(r.unwrap_err(), DfError::Internal("chunk 1".into()));
    }

    #[test]
    fn run_chunks_catches_worker_panics() {
        let r: Result<Vec<()>> = with_config(4, 1, || {
            run_chunks(100, |i, _s, _e| {
                assert!(i < 2, "simulated kernel bug");
                Ok(())
            })
        });
        assert!(matches!(r, Err(DfError::Internal(_))));
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        for threads in [1, 3] {
            let out = with_config(threads, 1, || run_tasks(10, |i| Ok(i * i))).unwrap();
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fill_chunks_writes_every_slot() {
        for threads in [1, 4] {
            let mut out = vec![0usize; 97];
            with_config(threads, 1, || {
                fill_chunks(&mut out, |_i, start, chunk| {
                    for (off, v) in chunk.iter_mut().enumerate() {
                        *v = start + off;
                    }
                    Ok(())
                })
            })
            .unwrap();
            assert_eq!(out, (0..97).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fill_chunks_reports_lowest_chunk_error() {
        let mut out = vec![0u8; 50];
        let r = with_config(4, 1, || {
            fill_chunks(&mut out, |i, _s, _c| {
                if i % 2 == 1 {
                    Err(DfError::Internal(format!("chunk {i}")))
                } else {
                    Ok(())
                }
            })
        });
        assert_eq!(r.unwrap_err(), DfError::Internal("chunk 1".into()));
    }

    #[test]
    fn with_config_is_scoped_and_restores() {
        let before = current_threads();
        let inner = with_config(7, 1, current_threads);
        assert_eq!(inner, 7);
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn serial_config_runs_inline() {
        // threads=1 must not spawn: verify by observing the worker runs on
        // the caller's thread.
        let caller = std::thread::current().id();
        let ids = with_config(1, 1, || {
            run_chunks(10, |_i, _s, _e| Ok(std::thread::current().id()))
        })
        .unwrap();
        assert!(ids.iter().all(|&id| id == caller));
    }
}
