//! Deterministic parallel campaign runner.
//!
//! The testbed's evaluation is a Monte-Carlo campaign: thousands of
//! seeded scenario runs whose aggregates (means, variances, percentile
//! tables) must be **bitwise reproducible** — the same property the
//! rest of the workspace enforces with `detlint`. This crate is the
//! execution substrate that makes those campaigns parallel *without*
//! weakening that guarantee.
//!
//! # How determinism survives parallelism
//!
//! * **Jobs are pure functions of their index.** A job receives only its
//!   seed index `i`; every stochastic component inside it derives from a
//!   per-run seed, never from shared mutable state or the scheduler.
//! * **Static chunked work assignment.** The index range `0..jobs` is
//!   split into `workers` contiguous chunks decided *before* any thread
//!   starts; there is no work stealing, so which thread computes which
//!   index never depends on timing.
//! * **Index-ordered merge.** Worker results are concatenated in worker
//!   (= index) order after all workers join, so the output `Vec` is
//!   identical to what a serial loop would produce — element for
//!   element, and therefore in floating-point summation order too.
//!
//! Consequently `Runner::new(1)`, `Runner::new(8)` and everything in
//! between produce byte-identical aggregates; `tests/parallel_determinism.rs`
//! pins this as a tier-1 regression test.
//!
//! The pool is hand-rolled on `std::thread::scope` — the workspace
//! builds fully offline, so no rayon — and borrows the job closure and
//! its captured config by reference, avoiding any cloning of campaign
//! state.
//!
//! # Example
//!
//! ```
//! use runner::Runner;
//!
//! let squares = Runner::new(4).run(8, |i| (i * i) as u64);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Thread count never changes the result.
//! assert_eq!(squares, Runner::new(1).run(8, |i| (i * i) as u64));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use std::thread;

/// Environment variable overriding the worker count picked by
/// [`Runner::from_env`].
pub const THREADS_ENV: &str = "RUNNER_THREADS";

/// A deterministic parallel executor over an index range.
///
/// See the crate-level documentation for the determinism argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with exactly `threads` workers (clamped to at least 1).
    ///
    /// The workers are spawned even when `threads` exceeds the machine's
    /// core count — oversubscription changes scheduling, never results.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A runner honouring the `RUNNER_THREADS` environment variable,
    /// falling back to the machine's available parallelism when it is
    /// unset.
    ///
    /// # Panics
    ///
    /// Panics with a clear message when `RUNNER_THREADS` is set but is
    /// not a positive integer (`0`, negative, garbage) — a silently
    /// ignored override would hide configuration mistakes.
    pub fn from_env() -> Self {
        let configured = std::env::var(THREADS_ENV)
            .ok()
            .map(|v| parse_threads(&v).unwrap_or_else(|e| panic!("{THREADS_ENV}: {e}")));
        Self::new(
            configured.unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get())),
        )
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `job(i)` for every `i` in `0..jobs` and returns the
    /// results in index order.
    ///
    /// At most `min(threads, jobs)` workers run; with one worker (or one
    /// job) everything runs inline on the calling thread. The returned
    /// `Vec` is bitwise identical for every worker count.
    ///
    /// # Panics
    ///
    /// Propagates the first (lowest-chunk) panic raised by a job, as a
    /// serial loop would.
    pub fn run<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            return (0..jobs).map(job).collect();
        }
        let job = &job;
        let mut out: Vec<T> = Vec::with_capacity(jobs);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (lo, hi) = chunk_bounds(jobs, workers, w);
                    scope.spawn(move || (lo..hi).map(job).collect::<Vec<T>>())
                })
                .collect();
            // Joining in spawn order merges chunks in index order.
            for handle in handles {
                match handle.join() {
                    Ok(chunk) => out.extend(chunk),
                    Err(payload) => {
                        if panic.is_none() {
                            panic = Some(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        out
    }
}

impl Default for Runner {
    /// Equivalent to [`Runner::from_env`].
    fn default() -> Self {
        Self::from_env()
    }
}

/// A thread-count value that could not be parsed.
///
/// Zero is rejected on purpose: a campaign with no workers cannot make
/// progress, and `0` as "auto" would be ambiguous with a typo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsError {
    value: String,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid thread count `{}`: expected a positive integer (1, 2, 8, ...)",
            self.value
        )
    }
}

impl std::error::Error for ThreadsError {}

/// Parses a thread-count value (`RUNNER_THREADS`, `--threads`).
///
/// The single parsing authority for worker counts: [`Runner::from_env`]
/// and the examples' `--threads` flags all route through here, so `0`
/// and garbage are rejected with the same clear error everywhere.
pub fn parse_threads(value: &str) -> Result<usize, ThreadsError> {
    match value.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(ThreadsError {
            value: value.trim().to_owned(),
        }),
    }
}

/// Scans command-line arguments for `--threads N` / `--threads=N`.
///
/// Returns `Ok(None)` when the flag is absent, `Ok(Some(n))` for a valid
/// count, and a [`ThreadsError`] for a missing or invalid value — the
/// shared helper behind every example binary's flag parsing.
pub fn threads_flag(args: impl IntoIterator<Item = String>) -> Result<Option<usize>, ThreadsError> {
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--threads" {
            let value = it.next().unwrap_or_default();
            return parse_threads(&value).map(Some);
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            return parse_threads(v).map(Some);
        }
    }
    Ok(None)
}

/// The contiguous index range `[lo, hi)` assigned to worker `w` of
/// `workers` over `jobs` items: balanced static chunks, the first
/// `jobs % workers` chunks one item larger.
///
/// This is the chunk-assignment contract shared by the in-process
/// thread pool and the multi-process shard coordinator (`crates/shard`):
/// any executor that assigns chunk `w` with these bounds and merges
/// chunks in `w` order reproduces the serial job order exactly.
pub fn chunk_bounds(jobs: usize, workers: usize, w: usize) -> (usize, usize) {
    let base = jobs / workers;
    let extra = jobs % workers;
    let lo = w * base + w.min(extra);
    let hi = lo + base + usize::from(w < extra);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_without_overlap() {
        for jobs in 0..40 {
            for workers in 1..10 {
                let mut next = 0;
                for w in 0..workers {
                    let (lo, hi) = chunk_bounds(jobs, workers, w);
                    assert_eq!(lo, next, "jobs {jobs} workers {workers} w {w}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, jobs);
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        for jobs in 0..40 {
            for workers in 1..10 {
                let sizes: Vec<usize> = (0..workers)
                    .map(|w| {
                        let (lo, hi) = chunk_bounds(jobs, workers, w);
                        hi - lo
                    })
                    .collect();
                let max = *sizes.iter().max().unwrap();
                let min = *sizes.iter().min().unwrap();
                assert!(max - min <= 1, "jobs {jobs} workers {workers}: {sizes:?}");
            }
        }
    }

    #[test]
    fn results_arrive_in_index_order_for_every_thread_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16, 97, 200] {
            let got = Runner::new(threads).run(97, |i| i * 3 + 1);
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn zero_jobs_and_single_job() {
        assert!(Runner::new(4).run(0, |i| i).is_empty());
        assert_eq!(Runner::new(4).run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Runner::new(0).threads(), 1);
        assert_eq!(Runner::new(0).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 12 "), Ok(12));
        for bad in ["0", "-3", "eight", ""] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.to_string().contains("positive integer"),
                "error for {bad:?} should explain the constraint: {err}"
            );
        }
    }

    #[test]
    fn threads_flag_finds_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(threads_flag(args(&["prog", "--threads", "4"])), Ok(Some(4)));
        assert_eq!(threads_flag(args(&["prog", "--threads=7"])), Ok(Some(7)));
        assert_eq!(threads_flag(args(&["prog", "--other"])), Ok(None));
        assert!(threads_flag(args(&["prog", "--threads", "0"])).is_err());
        assert!(threads_flag(args(&["prog", "--threads"])).is_err());
        assert!(threads_flag(args(&["prog", "--threads=zero"])).is_err());
    }

    #[test]
    fn float_accumulation_order_is_thread_count_independent() {
        // The property the campaign aggregates rely on: summing the
        // returned Vec front to back gives bit-identical floats.
        let sum = |threads: usize| -> f64 {
            Runner::new(threads)
                .run(1000, |i| ((i as f64) * 0.1).sin())
                .iter()
                .sum()
        };
        let s1 = sum(1);
        assert_eq!(s1.to_bits(), sum(2).to_bits());
        assert_eq!(s1.to_bits(), sum(8).to_bits());
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            Runner::new(4).run(16, |i| {
                assert!(i != 11, "boom at 11");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn borrows_captured_state_without_cloning() {
        let config = [2u64, 3, 5, 7];
        let out = Runner::new(2).run(4, |i| config[i] * 10);
        assert_eq!(out, vec![20, 30, 50, 70]);
    }
}
