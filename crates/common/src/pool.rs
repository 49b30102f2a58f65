//! An ordered, bounded worker pool over an index range.
//!
//! [`run_ordered`] is the one shape both pipelined stages of this workspace
//! need (the crude-index build over scan partitions, the engine's overlapped
//! fetch over read units): items `0..n` are *claimed* by worker threads in
//! index order, *delivered* to the calling thread in index order, never more
//! than a fixed number claimed-but-undelivered at once, and the first error
//! in index order is the one returned — so nothing the caller can observe
//! depends on which worker finished first.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

use crate::error::Result;

/// Claim gate shared by the workers: the next index to hand out and how many
/// items the consumer has taken delivery of.
struct Gate {
    next: usize,
    delivered: usize,
}

/// Runs `produce(i)` for every `i in 0..n` on up to `workers` scoped threads
/// and hands each result to `consume(i, item)` on the calling thread,
/// strictly in index order.
///
/// * **Claim in order, deliver in order.** Workers take indices 0, 1, 2, …;
///   `consume` sees them as 0, 1, 2, … whatever order they finish in.
/// * **Bounded in flight.** At most `max_in_flight` items (clamped to at
///   least 1) are claimed and not yet consumed, so results that are large
///   cannot pile up behind a slow consumer.
/// * **First error in index order wins.** The error returned is the one a
///   sequential `for i in 0..n { consume(i, produce(i)?)? }` would have hit:
///   every item before it is consumed, nothing after it is.
/// * **Always drained.** After an error no new index is claimed; items
///   already claimed run to completion and every thread is joined before
///   this returns.
///
/// With `workers <= 1` or `n <= 1` it *is* that sequential loop: no thread
/// is spawned.
pub fn run_ordered<T: Send>(
    n: usize,
    workers: usize,
    max_in_flight: usize,
    produce: impl Fn(usize) -> Result<T> + Sync,
    mut consume: impl FnMut(usize, T) -> Result<()>,
) -> Result<()> {
    let workers = workers.min(n);
    if workers <= 1 {
        for i in 0..n {
            consume(i, produce(i)?)?;
        }
        return Ok(());
    }
    let max_in_flight = max_in_flight.max(1);
    let gate = Mutex::new(Gate {
        next: 0,
        delivered: 0,
    });
    let slot_freed = Condvar::new();
    // Set once any item fails; workers read it under the gate's mutex.
    let stop = AtomicBool::new(false);
    let halt = || {
        stop.store(true, Ordering::SeqCst);
        // Take the gate so a worker between its check and its wait cannot
        // miss the wake-up.
        drop(gate.lock().expect("no holder of the claim gate panics"));
        slot_freed.notify_all();
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Result<T>)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let (gate, slot_freed, stop, produce) = (&gate, &slot_freed, &stop, &produce);
            scope.spawn(move || loop {
                let i = {
                    let mut g = gate.lock().expect("no holder of the claim gate panics");
                    loop {
                        if stop.load(Ordering::SeqCst) || g.next >= n {
                            return;
                        }
                        if g.next - g.delivered < max_in_flight {
                            g.next += 1;
                            break g.next - 1;
                        }
                        g = slot_freed
                            .wait(g)
                            .expect("no holder of the claim gate panics");
                    }
                };
                if tx.send((i, produce(i))).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        let mut landed: BTreeMap<usize, Result<T>> = BTreeMap::new();
        let mut cursor = 0usize;
        let mut outcome = Ok(());
        // Ends when every worker has exited and dropped its sender.
        for (i, res) in rx {
            if res.is_err() {
                halt();
            }
            landed.insert(i, res);
            while outcome.is_ok() {
                let Some(res) = landed.remove(&cursor) else {
                    break;
                };
                outcome = res.and_then(|item| consume(cursor, item));
                if outcome.is_err() {
                    halt();
                    break;
                }
                cursor += 1;
                gate.lock()
                    .expect("no holder of the claim gate panics")
                    .delivered = cursor;
                // All of them: a waiter may be woken only to find the range
                // exhausted, and the others must learn that too.
                slot_freed.notify_all();
            }
        }
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PaiError;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn delivers_in_index_order_at_every_width() {
        for workers in [1, 2, 3, 8] {
            let mut seen = Vec::new();
            run_ordered(
                50,
                workers,
                workers + 2,
                |i| Ok(i * i),
                |i, sq| {
                    seen.push((i, sq));
                    Ok(())
                },
            )
            .unwrap();
            let want: Vec<_> = (0..50).map(|i| (i, i * i)).collect();
            assert_eq!(seen, want, "workers={workers}");
        }
    }

    #[test]
    fn in_flight_never_exceeds_the_bound() {
        // `live` counts items produced and not yet consumed; the claim gate
        // must keep it at or under the bound however slow the consumer is.
        for (workers, bound) in [(2, 4), (8, 3), (4, 1)] {
            let live = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            run_ordered(
                200,
                workers,
                bound,
                |i| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    Ok(i)
                },
                |_, _| {
                    std::thread::yield_now();
                    live.fetch_sub(1, Ordering::SeqCst);
                    Ok(())
                },
            )
            .unwrap();
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= bound, "peak {peak} > bound {bound}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "every item consumed");
        }
    }

    #[test]
    fn first_error_in_index_order_wins_and_the_pool_drains() {
        // Items 3 and 4 both fail; a barrier makes 4 fail *first* in time.
        // The sequential loop would report 3, so must the pool, and
        // everything before 3 must have been consumed.
        let both_claimed = Barrier::new(2);
        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let mut consumed = Vec::new();
        let err = run_ordered(
            64,
            2,
            8,
            |i| {
                started.fetch_add(1, Ordering::SeqCst);
                let res = match i {
                    3 => {
                        both_claimed.wait();
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Err(PaiError::internal("three"))
                    }
                    4 => {
                        both_claimed.wait();
                        Err(PaiError::internal("four"))
                    }
                    _ => Ok(i),
                };
                finished.fetch_add(1, Ordering::SeqCst);
                res
            },
            |i, _| {
                consumed.push(i);
                Ok(())
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("three"), "{err}");
        assert_eq!(consumed, vec![0, 1, 2]);
        // Drained: whatever was claimed ran to completion, and the failure
        // stopped the claims long before the end of the range.
        let started = started.load(Ordering::SeqCst);
        assert_eq!(started, finished.load(Ordering::SeqCst));
        assert!(started < 64, "claims stop after an error ({started})");
    }

    #[test]
    fn consumer_error_stops_the_pool() {
        let err = run_ordered(100, 3, 5, Ok, |i, _| {
            if i == 7 {
                Err(PaiError::internal("fold failed"))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("fold failed"));
    }

    #[test]
    fn narrow_or_tiny_runs_spawn_no_thread() {
        let caller = std::thread::current().id();
        for (n, workers) in [(5, 1), (1, 8), (0, 4)] {
            run_ordered(
                n,
                workers,
                4,
                |i| {
                    assert_eq!(std::thread::current().id(), caller);
                    Ok(i)
                },
                |_, _| Ok(()),
            )
            .unwrap();
        }
    }
}
