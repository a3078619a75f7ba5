//! Deterministic parallel fan-out for sweeps.
//!
//! [`parallel_map`] runs one closure per sweep point across a pool of
//! scoped worker threads ([`std::thread::scope`], no external runtime).
//! Each worker owns private per-thread state built by an `init` closure —
//! typically an [`crate::engine::EngineWorkspace`] or a freshly built
//! simulator — so no locking happens on the hot path. Results are tagged
//! with their input index and re-sorted before returning, so the output
//! order (and therefore every downstream reduction) is identical to the
//! serial path regardless of scheduling.
//!
//! Determinism contract: the closure must derive all randomness from the
//! point itself (e.g. a per-point seed), never from worker identity or
//! execution order. Under that contract `parallel_map(items, …)` is
//! byte-identical to the equivalent serial loop.
//!
//! [`parallel_map_with_stats`] additionally collects per-worker telemetry
//! (e.g. the [`crate::telemetry::EngineStats`] of each worker's workspace)
//! and merges it into one total whose value is independent of how items
//! were scheduled across workers.

use crate::telemetry::Merge;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Picks a worker count: the available parallelism, capped by the number
/// of items (no point spinning up idle threads).
fn worker_count(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(items).max(1)
}

/// Maps `f` over `items` in parallel with deterministic output ordering.
///
/// `init` runs once per worker thread to build its private state (a
/// workspace, a simulator instance, scratch buffers); `f` receives that
/// state, the item, and the item's index. Items are dispatched dynamically
/// (an atomic cursor), so uneven point costs still balance, but results
/// are returned in input order.
///
/// # Errors
///
/// If any invocation of `f` fails, the error for the smallest failing
/// index is returned — exactly the error a serial loop would have hit
/// first.
pub fn parallel_map<T, S, R, E, I, F>(items: &[T], init: I, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, usize) -> Result<R, E> + Sync,
{
    parallel_map_with_stats(items, init, f, |_| ()).map(|(results, ())| results)
}

/// [`parallel_map`] with deterministic telemetry collection: after a worker
/// drains its share of items, `extract` distills its private state into a
/// mergeable summary (typically the [`crate::telemetry::EngineStats`] of a
/// workspace), and the per-worker summaries are folded into one total via
/// [`Merge`].
///
/// Because [`Merge`] implementations are associative and commutative, and
/// each item contributes to exactly one worker's summary, the merged total
/// is independent of how items were scheduled across workers — the same
/// totals as the serial loop, every run.
///
/// On the single-worker (serial) path `extract` runs on the one state; the
/// behavior is `parallel_map` plus the summary.
///
/// # Errors
///
/// As [`parallel_map`]: the error for the smallest failing index wins. On
/// error the partial stats are discarded along with the partial results.
pub fn parallel_map_with_stats<T, S, R, E, St, I, F, X>(
    items: &[T],
    init: I,
    f: F,
    extract: X,
) -> Result<(Vec<R>, St), E>
where
    T: Sync,
    R: Send,
    E: Send,
    St: Merge + Default + Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, usize) -> Result<R, E> + Sync,
    X: Fn(S) -> St + Sync,
{
    if items.is_empty() {
        return Ok((Vec::new(), St::default()));
    }
    let workers = worker_count(items.len());
    if workers == 1 {
        let mut state = init();
        let results: Result<Vec<R>, E> = items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, item, i))
            .collect();
        let mut total = St::default();
        let results = results?;
        total.merge(&extract(state));
        return Ok((results, total));
    }

    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
    let mut first_err: Option<(usize, E)> = None;
    let mut total = St::default();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut ok: Vec<(usize, R)> = Vec::new();
                    let mut err: Option<(usize, E)> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        match f(&mut state, &items[i], i) {
                            Ok(r) => ok.push((i, r)),
                            Err(e) => {
                                err = Some((i, e));
                                break;
                            }
                        }
                    }
                    (ok, err, extract(state))
                })
            })
            .collect();
        for handle in handles {
            // A panicking worker propagates its panic here, as in serial code.
            let (ok, err, stats) = handle.join().expect("sweep worker panicked");
            tagged.extend(ok);
            total.merge(&stats);
            if let Some((i, e)) = err {
                match &first_err {
                    Some((fi, _)) if *fi <= i => {}
                    _ => first_err = Some((i, e)),
                }
            }
        }
    });

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    tagged.sort_by_key(|&(i, _)| i);
    Ok((tagged.into_iter().map(|(_, r)| r).collect(), total))
}

/// Default scenario block size for [`parallel_map_batched`]: long enough to
/// amortize a block's symbolic analysis and warm-start chain, short enough
/// to load-balance across workers.
pub const DEFAULT_BLOCK: usize = 32;

/// Maps a *batched* closure over fixed-size contiguous blocks of `items`
/// in parallel, with results bit-identical to the serial block-by-block
/// loop for any worker count.
///
/// Where [`parallel_map`] hands the closure one item at a time,
/// `parallel_map_batched` hands it a whole block (`f(&mut state, block,
/// block_start)` returning one result per block item). The closure is free
/// to share work across the block — one symbolic factorization, a
/// warm-start chain seeded by a [`crate::engine::BatchRun`] — which is
/// exactly the sharing a per-item closure cannot express.
///
/// Determinism contract: block boundaries depend only on `items.len()` and
/// `block_size` — never on the worker count — and every block gets a fresh
/// `init()` state, so no block's result can depend on which worker ran it
/// or what that worker ran before. Warm-start chains are therefore
/// confined to a block by construction.
///
/// # Panics
///
/// Panics if `f` returns a result vector whose length differs from its
/// block length.
///
/// # Errors
///
/// If any block fails, the error for the smallest failing block start is
/// returned — the error the serial block loop would have hit first.
pub fn parallel_map_batched<T, S, R, E, I, F>(
    items: &[T],
    block_size: usize,
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &[T], usize) -> Result<Vec<R>, E> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let block = block_size.max(1);
    let run_block = |start: usize| -> Result<Vec<R>, E> {
        let end = (start + block).min(items.len());
        let mut state = init();
        let results = f(&mut state, &items[start..end], start)?;
        assert_eq!(
            results.len(),
            end - start,
            "batched closure must return one result per block item"
        );
        Ok(results)
    };
    let starts: Vec<usize> = (0..items.len()).step_by(block).collect();
    let workers = worker_count(starts.len());
    if workers == 1 {
        let mut out = Vec::with_capacity(items.len());
        for &start in &starts {
            out.extend(run_block(start)?);
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Vec<R>)> = Vec::with_capacity(starts.len());
    let mut first_err: Option<(usize, E)> = None;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ok: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut err: Option<(usize, E)> = None;
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= starts.len() {
                            break;
                        }
                        let start = starts[b];
                        match run_block(start) {
                            Ok(results) => ok.push((start, results)),
                            Err(e) => {
                                err = Some((start, e));
                                break;
                            }
                        }
                    }
                    (ok, err)
                })
            })
            .collect();
        for handle in handles {
            // A panicking worker propagates its panic here, as in serial code.
            let (ok, err) = handle.join().expect("batched sweep worker panicked");
            tagged.extend(ok);
            if let Some((i, e)) = err {
                match &first_err {
                    Some((fi, _)) if *fi <= i => {}
                    _ => first_err = Some((i, e)),
                }
            }
        }
    });

    if let Some((_, e)) = first_err {
        return Err(e);
    }
    tagged.sort_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items.len());
    for (_, results) in tagged {
        out.extend(results);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalogError;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(
            &items,
            || 0u64,
            |_, &v, i| {
                assert_eq!(v, i);
                Ok::<usize, AnalogError>(v * v)
            },
        )
        .unwrap();
        assert_eq!(out, items.iter().map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn matches_serial_loop_bitwise() {
        let items: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37).collect();
        let work = |x: f64| (x.sin() * 1e3).exp().ln_1p();
        let serial: Vec<f64> = items.iter().map(|&x| work(x)).collect();
        let par = parallel_map(&items, || (), |(), &x, _| Ok::<f64, AnalogError>(work(x))).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn first_error_by_index_wins() {
        let items: Vec<usize> = (0..64).collect();
        let err = parallel_map(
            &items,
            || (),
            |(), &v, _| {
                if v >= 7 {
                    Err(AnalogError::NoConvergence {
                        iterations: v,
                        residual: 1.0,
                        gmin: 1e-12,
                        residual_history: vec![1.0],
                    })
                } else {
                    Ok(v)
                }
            },
        )
        .unwrap_err();
        match err {
            AnalogError::NoConvergence { iterations, .. } => assert_eq!(iterations, 7),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> =
            parallel_map(&[] as &[u8], || (), |(), &v, _| Ok::<u8, AnalogError>(v)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn with_stats_merges_per_worker_counts_to_item_total() {
        use crate::telemetry::{EngineStats, Merge};

        let items: Vec<u64> = (0..193).collect();
        // Each processed item bumps the worker's private collector once;
        // the merged total must cover every item exactly once no matter
        // how the scheduler partitioned them.
        let (out, stats) = parallel_map_with_stats(
            &items,
            EngineStats::new,
            |stats, &v, _| {
                stats.solves += 1;
                stats.newton_iterations += v;
                Ok::<u64, AnalogError>(v)
            },
            |stats| stats,
        )
        .unwrap();
        assert_eq!(out, items);
        assert_eq!(stats.solves, items.len() as u64);
        assert_eq!(stats.newton_iterations, items.iter().sum::<u64>());

        // And the total matches a serial fold of the same contributions.
        let mut serial = EngineStats::new();
        for &v in &items {
            let mut one = EngineStats::new();
            one.solves = 1;
            one.newton_iterations = v;
            serial.merge(&one);
        }
        assert_eq!(stats, serial);
    }

    #[test]
    fn with_stats_discards_stats_on_error() {
        let items: Vec<usize> = (0..16).collect();
        let err = parallel_map_with_stats(
            &items,
            || (),
            |(), &v, _| {
                if v == 3 {
                    Err(AnalogError::EmptyCircuit)
                } else {
                    Ok(v)
                }
            },
            |()| (),
        )
        .unwrap_err();
        assert_eq!(err, AnalogError::EmptyCircuit);
    }

    /// Serial reference for the batched contract: fresh state per block,
    /// blocks in order.
    fn serial_blocks<T: Clone, S, R, E>(
        items: &[T],
        block: usize,
        init: impl Fn() -> S,
        f: impl Fn(&mut S, &[T], usize) -> Result<Vec<R>, E>,
    ) -> Result<Vec<R>, E> {
        let mut out = Vec::new();
        let mut start = 0;
        while start < items.len() {
            let end = (start + block).min(items.len());
            let mut state = init();
            out.extend(f(&mut state, &items[start..end], start)?);
            start = end;
        }
        Ok(out)
    }

    #[test]
    fn batched_is_bit_identical_to_serial_block_loop() {
        // The closure's result depends on within-block state (a running
        // accumulator), so any deviation from the serial blocking — state
        // leaking across blocks, blocks out of order, boundaries moving
        // with worker count — changes the bits.
        let items: Vec<f64> = (0..271).map(|i| f64::from(i).mul_add(0.31, 0.7)).collect();
        let work = |acc: &mut f64, block: &[f64], start: usize| {
            let mut out = Vec::with_capacity(block.len());
            for (k, &x) in block.iter().enumerate() {
                *acc = (*acc + x).sin().mul_add(1e3, (start + k) as f64).sqrt();
                out.push(*acc);
            }
            Ok::<_, AnalogError>(out)
        };
        for block in [1, 7, 32, 271, 1000] {
            let serial = serial_blocks(&items, block, || 0.0f64, work).unwrap();
            let par = parallel_map_batched(&items, block, || 0.0f64, work).unwrap();
            assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                assert_eq!(s.to_bits(), p.to_bits(), "block size {block}");
            }
        }
    }

    #[test]
    fn batched_first_error_by_block_start_wins() {
        let items: Vec<usize> = (0..64).collect();
        let err = parallel_map_batched(
            &items,
            8,
            || (),
            |(), block: &[usize], start| {
                if start >= 16 {
                    Err(AnalogError::NoConvergence {
                        iterations: start,
                        residual: 1.0,
                        gmin: 1e-12,
                        residual_history: vec![1.0],
                    })
                } else {
                    Ok(block.to_vec())
                }
            },
        )
        .unwrap_err();
        match err {
            AnalogError::NoConvergence { iterations, .. } => assert_eq!(iterations, 16),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn batched_zero_block_size_is_clamped_and_empty_input_is_empty() {
        let items: Vec<u8> = (0..5).collect();
        let out = parallel_map_batched(
            &items,
            0,
            || (),
            |(), b: &[u8], _| Ok::<_, AnalogError>(b.to_vec()),
        )
        .unwrap();
        assert_eq!(out, items);
        let empty: Vec<u8> = parallel_map_batched(
            &[] as &[u8],
            4,
            || (),
            |(), b: &[u8], _| Ok::<_, AnalogError>(b.to_vec()),
        )
        .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "one result per block item")]
    fn batched_length_mismatch_panics() {
        let items: Vec<u8> = (0..5).collect();
        let _ = parallel_map_batched(
            &items,
            5,
            || (),
            |(), _b: &[u8], _| Ok::<Vec<u8>, AnalogError>(Vec::new()),
        );
    }

    #[test]
    fn init_runs_per_worker_state_is_private() {
        let items: Vec<usize> = (0..32).collect();
        // Each worker counts its own items; totals must cover all items.
        let out = parallel_map(
            &items,
            || 0usize,
            |count, &v, _| {
                *count += 1;
                Ok::<_, AnalogError>((v, *count))
            },
        )
        .unwrap();
        assert_eq!(out.len(), items.len());
        for (i, (v, count)) in out.iter().enumerate() {
            assert_eq!(*v, i);
            assert!(*count >= 1 && *count <= items.len());
        }
    }
}
