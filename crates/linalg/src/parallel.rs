//! Data parallelism built on `std::thread::scope`.
//!
//! The build environment cannot fetch rayon, so this is a small
//! scoped-thread fork/join layer with the same work-splitting shape rayon's
//! `par_chunks_mut` would give us. With a thread budget of 1 — from
//! `GRAMC_THREADS=1`, a single-core host or a [`with_thread_cap`] scope —
//! or for work below the splitting threshold, every helper runs the serial
//! loop on the calling thread, so results are identical either way (the
//! kernels themselves are deterministic; parallelism only splits disjoint
//! output ranges).
//!
//! Thread count comes from [`max_threads`]: the `GRAMC_THREADS` environment
//! variable if set, else [`std::thread::available_parallelism`].

/// Maximum worker threads for data-parallel kernels.
///
/// Honors `GRAMC_THREADS` (values `0`/unparsable fall back to the detected
/// parallelism). Always at least 1. Resolved once per process — the env
/// lookup and `available_parallelism` syscall would otherwise run on every
/// kernel call, including tiny ones.
pub fn max_threads() -> usize {
    static MAX_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *MAX_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("GRAMC_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

std::thread_local! {
    /// Per-thread cap on worker count, layered on top of [`max_threads`].
    /// `usize::MAX` means "no extra cap". See [`with_thread_cap`].
    static THREAD_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Worker-thread budget for kernels launched from the current thread:
/// [`max_threads`] clamped by any enclosing [`with_thread_cap`] scope.
pub fn current_max_threads() -> usize {
    max_threads().min(THREAD_CAP.with(|c| c.get())).max(1)
}

/// Runs `f` with kernels launched from this thread capped at `cap` worker
/// threads (on top of the process-wide [`max_threads`]).
///
/// Two users: benches and tests measure the serial behavior of a parallel
/// kernel in the same process (`with_thread_cap(1, …)`; gramc-runtime's
/// `Runtime::run_all` then drains on the calling thread too), and nested
/// parallelism — e.g. a [`map_collect`] whose items each call a threaded
/// `matmul` — divides the budget between levels instead of oversubscribing
/// the host. The cap is thread-local and restored on exit (including on
/// panic).
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_CAP.with(|c| c.get());
    let _restore = Restore(prev);
    THREAD_CAP.with(|c| c.set(cap.max(1).min(prev)));
    f()
}

/// Maps `f` over `items` on scoped threads, returning results in input order.
///
/// Each worker handles one item and runs under a [`with_thread_cap`] scope
/// dividing the current budget across items, so an `f` that itself calls
/// threaded kernels does not oversubscribe the host. Serial (in-order) when
/// the budget is 1 or there are fewer than two items — so, as with
/// [`for_each_chunk_mut`], results are identical either way as long as `f`
/// is deterministic per item.
pub fn map_collect<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if current_max_threads().min(items.len()) <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let inner_cap = current_max_threads().div_ceil(items.len()).max(1);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, item) in out.iter_mut().zip(items) {
            scope.spawn(move || {
                *slot = Some(with_thread_cap(inner_cap, || f(item)));
            });
        }
    });
    out.into_iter().map(|r| r.expect("map_collect worker filled its slot")).collect()
}

/// Runs `f(start_index, chunk)` over `chunk_len`-sized disjoint chunks of
/// `data`, on scoped threads when the budget allows more than one and there
/// is more than one chunk.
///
/// `start_index` is the offset of `chunk` inside `data`. Chunks are the unit
/// of scheduling: each worker thread processes a contiguous run of chunks,
/// so `f` must not rely on any cross-chunk ordering.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len).max(1);
    let threads = current_max_threads().min(n_chunks);
    if threads <= 1 {
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c * chunk_len, chunk);
        }
        return;
    }
    // Hand each worker a contiguous run of whole chunks, offset-tagged so
    // the callback sees the same indices as the serial path.
    let f = &f;
    let chunks_per_worker = n_chunks.div_ceil(threads);
    let stride = chunks_per_worker * chunk_len;
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut offset = 0usize;
        while !rest.is_empty() {
            let take = stride.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let base = offset;
            scope.spawn(move || {
                for (c, chunk) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + c * chunk_len, chunk);
                }
            });
            rest = tail;
            offset += take;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_element_exactly_once() {
        let mut data = vec![0u32; 1003];
        for_each_chunk_mut(&mut data, 64, |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn offsets_match_serial_enumeration() {
        let mut data = vec![0usize; 257];
        for_each_chunk_mut(&mut data, 32, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k);
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let mut empty: Vec<f64> = Vec::new();
        for_each_chunk_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        let mut one = vec![1.0f64];
        for_each_chunk_mut(&mut one, 8, |start, chunk| {
            assert_eq!(start, 0);
            chunk[0] = 2.0;
        });
        assert_eq!(one[0], 2.0);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn thread_cap_is_scoped_and_restored() {
        let before = current_max_threads();
        with_thread_cap(1, || {
            assert_eq!(current_max_threads(), 1);
            // Nested scopes can only shrink the budget.
            with_thread_cap(8, || assert_eq!(current_max_threads(), 1));
        });
        assert_eq!(current_max_threads(), before);
    }

    #[test]
    fn map_collect_preserves_input_order() {
        let items: Vec<usize> = (0..23).collect();
        let out = map_collect(&items, |&i| i * i);
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(map_collect(&empty, |&i: &usize| i).is_empty());
    }

    #[test]
    fn map_collect_matches_serial_under_cap() {
        let items: Vec<f64> = (0..7).map(|i| i as f64 * 0.3).collect();
        let par = map_collect(&items, |x| x.sin());
        let ser = with_thread_cap(1, || map_collect(&items, |x| x.sin()));
        assert_eq!(par, ser);
    }
}
