//! Scoped-worker job dispatch for the build/refresh pipeline: one job per
//! independent sort or linear pass ([`crate::views`]), then one per Cubetree
//! ([`crate::forest`]).
//!
//! Jobs are independent units dispatched over a bounded pool of scoped
//! threads; work-stealing is a single atomic cursor over the job indices.
//! Error reporting is deterministic: the error of the lowest-indexed failing
//! job wins regardless of completion order, and a panicking job surfaces as
//! an `Err` instead of taking down (or hanging) the pool.

use ct_common::{CtError, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(i)`, converting a panic into an error. The panic payload's
/// message is preserved when it is a string.
fn run_caught<T>(f: &(impl Fn(usize) -> Result<T> + Sync), i: usize) -> Result<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CtError::invalid(format!("worker job panicked: {msg}")))
        }
    }
}

/// Maps `f` over `0..n` on at most `threads` scoped workers and returns the
/// outputs in index order. With one thread or one job it runs inline, in
/// order, on the calling thread — no spawn, no lock. Jobs may finish in any
/// order but must be deterministic in isolation; on failure the error of the
/// lowest-indexed failing job wins.
pub(crate) fn map_jobs<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(|i| run_caught(&f, i)).collect();
    }
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let out = run_caught(&f, i);
                // Poisoning is impossible (the lock is only held to move the
                // output in or out), but recover the guard rather than panic
                // if it ever happens.
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| Err(CtError::invalid("a worker job never ran")))
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_jobs_run_at_any_thread_count() {
        for threads in [1, 2, 4, 16] {
            let done = AtomicU64::new(0);
            let out = map_jobs(threads, 10, |i| {
                done.fetch_add(1, Ordering::SeqCst);
                Ok(i * 2)
            })
            .unwrap();
            assert_eq!(done.load(Ordering::SeqCst), 10);
            assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>(), "outputs in index order");
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let err = map_jobs(4, 3, |i| match i {
            0 => Ok(()),
            1 => Err(CtError::invalid("second")),
            _ => Err(CtError::invalid("third")),
        })
        .unwrap_err();
        assert!(err.to_string().contains("second"), "got: {err}");
    }

    #[test]
    fn panics_become_errors() {
        let err = map_jobs(2, 2, |i| if i == 1 { panic!("boom") } else { Ok(()) }).unwrap_err();
        assert!(err.to_string().contains("boom"), "got: {err}");
    }
}
