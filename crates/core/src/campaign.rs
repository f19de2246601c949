//! The unified campaign abstraction: *what* to run, separated from
//! *how* to run it.
//!
//! A Monte-Carlo campaign is a [`CampaignSpec`] — a base
//! [`ScenarioConfig`], a [`SeedSchedule`], and a run count. Executing it
//! is delegated to an [`Executor`]:
//!
//! * [`Serial`] — a plain loop on the calling thread (the reference
//!   semantics every other executor must reproduce bitwise),
//! * [`Runner`] — the in-process thread pool of `crates/runner`
//!   (DESIGN.md §8).
//!
//! Every experiment entry point ([`crate::experiments`],
//! [`crate::ablation`], [`crate::congestion`]) takes `&impl Executor`,
//! so the same campaign definition runs serially or across threads —
//! and, by the executors' shared static-chunk/index-merge contract,
//! produces byte-identical results on both. Worker processes run a
//! registered grid through `campaignd::SocketFanout` (DESIGN.md
//! §10/§14), which indexes it by the same [`FlatGrid`].
//!
//! # Example
//!
//! ```
//! use its_testbed::campaign::{CampaignSpec, Executor, Serial};
//! use its_testbed::{Runner, ScenarioConfig};
//!
//! let spec = CampaignSpec::new(ScenarioConfig::default(), 4);
//! let serial = spec.execute(&Serial);
//! let threaded = spec.execute(&Runner::new(2));
//! assert_eq!(serial.len(), 4);
//! for (a, b) in serial.iter().zip(&threaded) {
//!     assert_eq!(a.trace.digest(), b.trace.digest());
//! }
//! ```

use crate::scenario::{RunRecord, Scenario, ScenarioConfig};
use runner::Runner;
use sim_core::Fnv1a;

/// How run indices map to scenario seeds.
///
/// Run `i` of a campaign always uses seed `base.seed + offset(i)`; the
/// schedule only chooses the offset. Keeping the historical offsets
/// stable is what keeps campaign fingerprints (e.g. Table III's mean
/// braking distance) byte-identical across refactors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSchedule {
    /// Run `i` uses seed index `i` (seed `base.seed + i`).
    Consecutive,
    /// Run `i` uses seed index `offset + i` — e.g. Table III's
    /// historical `+1000` block, which keeps its campaign disjoint from
    /// Table II's on the same base seed.
    Offset(u64),
}

impl SeedSchedule {
    /// The seed index of run `i` under this schedule.
    pub fn seed_index(&self, i: usize) -> u64 {
        match self {
            SeedSchedule::Consecutive => i as u64,
            SeedSchedule::Offset(offset) => offset + i as u64,
        }
    }
}

/// One campaign: a base configuration, a seed schedule, and a run count.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Configuration shared by every run; run `i` overrides only the
    /// seed (`base.seed + seeds.seed_index(i)`).
    pub base: ScenarioConfig,
    /// The run-index → seed mapping.
    pub seeds: SeedSchedule,
    /// Number of seeded runs.
    pub runs: usize,
}

impl CampaignSpec {
    /// A campaign of `runs` consecutive seeds starting at `base.seed`.
    pub fn new(base: ScenarioConfig, runs: usize) -> Self {
        Self {
            base,
            seeds: SeedSchedule::Consecutive,
            runs,
        }
    }

    /// A campaign whose seed indices start at `offset` (run `i` uses
    /// seed `base.seed + offset + i`).
    pub fn with_seed_offset(base: ScenarioConfig, offset: u64, runs: usize) -> Self {
        Self {
            base,
            seeds: SeedSchedule::Offset(offset),
            runs,
        }
    }

    /// Executes run `i`: a pure function of the spec and the index —
    /// the property every executor relies on to parallelise without
    /// changing results.
    pub fn run_job(&self, i: usize) -> RunRecord {
        Scenario::run_seeded(&self.base, self.seeds.seed_index(i))
    }

    /// Executes the whole campaign on `executor`; records come back in
    /// seed-index order.
    pub fn execute(&self, executor: &impl Executor) -> Vec<RunRecord> {
        executor.execute(self)
    }

    /// A stable 64-bit fingerprint of the spec (FNV-1a over the full
    /// `Debug` rendering of the configuration plus the schedule and run
    /// count).
    ///
    /// The shard protocol uses it as a coordinator/worker handshake:
    /// both sides derive the spec from the same code, and the
    /// fingerprint proves they derived the *same* spec before any
    /// distributed result is trusted (see DESIGN.md §10).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(format!("{:?}", self.base).as_bytes());
        h.write(format!("{:?}", self.seeds).as_bytes());
        h.write(&(self.runs as u64).to_le_bytes());
        h.finish()
    }
}

/// Derives a named campaign grid.
type DeriveGrid = fn() -> Vec<CampaignSpec>;

/// Named campaigns a binary — or a campaign server — can execute by
/// name.
///
/// A registry is plain data: names and `fn() -> Vec<CampaignSpec>`
/// pointers. Because deriving a campaign is pure code, two processes
/// (a campaign server and its re-exec'd socket worker, or a socket
/// worker on another host) construct the same registry and
/// identify a campaign across the process boundary by name plus grid
/// fingerprint instead of by serialising configuration — see
/// [`grid_fingerprint`] and DESIGN.md §10/§14.
///
/// Registration order is part of the API: [`names`](Self::names)
/// iterates in it, so listings (e.g. the campaign server's
/// `GET /campaigns`) are deterministic for a given binary.
#[derive(Debug, Clone, Default)]
pub struct CampaignRegistry {
    entries: Vec<(&'static str, DeriveGrid)>,
}

impl CampaignRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named campaign; `derive` must be a pure function so every
    /// process derives identical specs.
    pub fn register(mut self, name: &'static str, derive: DeriveGrid) -> Self {
        self.entries.push((name, derive));
        self
    }

    /// Derives the named campaign's specs, if registered.
    pub fn derive(&self, name: &str) -> Option<Vec<CampaignSpec>> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f())
    }

    /// Whether `name` is registered.
    #[cfg(test)]
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| *n == name)
    }

    /// Registered campaign names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(n, _)| *n)
    }

    /// Number of registered campaigns.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A stable fingerprint of a whole campaign grid, order-sensitive.
pub fn grid_fingerprint(specs: &[CampaignSpec]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&(specs.len() as u64).to_le_bytes());
    for spec in specs {
        h.write(&spec.fingerprint().to_le_bytes());
    }
    h.finish()
}

/// A campaign grid flattened into one row-major job list (spec-major,
/// run-minor): flat job `j` is run `j − offset(k)` of the spec `k` whose
/// runs hold it. [`Executor::execute_grid`], the shard worker's chunk
/// compute and the socket coordinator all index a grid this way, so a
/// chunk of flat indices names the same runs everywhere.
#[derive(Debug)]
pub struct FlatGrid<'a> {
    specs: &'a [CampaignSpec],
    /// Exclusive prefix sums of the run counts; the last element is the
    /// job total.
    offsets: Vec<usize>,
}

impl<'a> FlatGrid<'a> {
    /// Flattens `specs`.
    pub fn new(specs: &'a [CampaignSpec]) -> Self {
        let mut offsets = Vec::with_capacity(specs.len() + 1);
        let mut total = 0usize;
        for spec in specs {
            offsets.push(total);
            total += spec.runs;
        }
        offsets.push(total);
        Self { specs, offsets }
    }

    /// Number of flat jobs: the grid's total run count.
    pub fn jobs(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Executes flat job `j` (`j < jobs()`).
    pub fn run_job(&self, j: usize) -> RunRecord {
        let k = match self.offsets.binary_search(&j) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        self.specs[k].run_job(j - self.offsets[k])
    }
}

/// An execution strategy for campaigns.
///
/// The contract every implementation must honour: `run_indexed` returns
/// `job(i)` for every `i` in index order, so `execute` returns exactly
/// `spec.runs` records, element `i` being `spec.run_job(i)` — bitwise.
/// How the work is scheduled (inline, threads, processes) is the
/// implementation's business; the output is not.
pub trait Executor {
    /// Executes `job(i)` for `i in 0..jobs`, results in index order:
    /// the one scheduling decision an executor makes. Campaigns whose
    /// jobs are not scenario runs (e.g. the congestion fleets, one whole
    /// simulated fleet per job) call it directly.
    fn run_indexed<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync;

    /// Executes every run of `spec`; records in seed-index order.
    fn execute(&self, spec: &CampaignSpec) -> Vec<RunRecord> {
        self.run_indexed(spec.runs, |i| spec.run_job(i))
    }

    /// Executes a grid of campaigns (one per swept parameter value),
    /// returning one record vector per spec, each in seed-index order.
    ///
    /// The whole [`FlatGrid`] is one job list, so an executor with a
    /// worker pool spreads the grid — not each small per-parameter
    /// campaign — across its workers.
    fn execute_grid(&self, specs: &[CampaignSpec]) -> Vec<Vec<RunRecord>> {
        let flat = FlatGrid::new(specs);
        let mut records = self
            .run_indexed(flat.jobs(), |j| flat.run_job(j))
            .into_iter();
        specs
            .iter()
            .map(|spec| records.by_ref().take(spec.runs).collect())
            .collect()
    }
}

/// The reference executor: a plain serial loop on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Serial;

impl Executor for Serial {
    fn run_indexed<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..jobs).map(job).collect()
    }
}

impl Executor for Runner {
    fn run_indexed<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run(jobs, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioConfig {
        ScenarioConfig {
            seed: 5000,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn serial_matches_run_job_schedule() {
        let spec = CampaignSpec::new(base(), 4);
        let records = spec.execute(&Serial);
        assert_eq!(records.len(), 4);
        for (i, record) in records.iter().enumerate() {
            let reference = Scenario::run_seeded(&base(), i as u64);
            assert_eq!(record.trace.digest(), reference.trace.digest(), "run {i}");
        }
    }

    #[test]
    fn seed_offset_schedule_matches_historical_table3_seeds() {
        let spec = CampaignSpec::with_seed_offset(base(), 1000, 3);
        let records = spec.execute(&Serial);
        for (i, record) in records.iter().enumerate() {
            let reference = Scenario::run_seeded(&base(), 1000 + i as u64);
            assert_eq!(record.trace.digest(), reference.trace.digest(), "run {i}");
        }
    }

    #[test]
    fn runner_executor_matches_serial_at_any_thread_count() {
        let spec = CampaignSpec::new(base(), 6);
        let serial = spec.execute(&Serial);
        for threads in [1, 3, 8] {
            let parallel = spec.execute(&Runner::new(threads));
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.trace.digest(), b.trace.digest(), "{threads} threads");
            }
        }
    }

    #[test]
    fn grid_execution_matches_per_spec_execution() {
        let specs = vec![
            CampaignSpec::new(base(), 3),
            CampaignSpec::with_seed_offset(base(), 1000, 2),
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 5100,
                    ..base()
                },
                4,
            ),
        ];
        let individually: Vec<Vec<RunRecord>> = specs.iter().map(|s| s.execute(&Serial)).collect();
        for threads in [1, 2, 8] {
            let grid = Runner::new(threads).execute_grid(&specs);
            assert_eq!(grid.len(), individually.len());
            for (k, (a, b)) in individually.iter().zip(&grid).enumerate() {
                assert_eq!(a.len(), b.len(), "spec {k}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.trace.digest(), y.trace.digest(), "spec {k}");
                }
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let spec = CampaignSpec::new(base(), 5);
        assert_eq!(
            spec.fingerprint(),
            CampaignSpec::new(base(), 5).fingerprint()
        );
        assert_ne!(
            spec.fingerprint(),
            CampaignSpec::new(base(), 6).fingerprint()
        );
        assert_ne!(
            spec.fingerprint(),
            CampaignSpec::with_seed_offset(base(), 1000, 5).fingerprint()
        );
        assert_ne!(
            spec.fingerprint(),
            CampaignSpec::new(
                ScenarioConfig {
                    seed: 5001,
                    ..base()
                },
                5
            )
            .fingerprint()
        );
        let grid = [CampaignSpec::new(base(), 5), CampaignSpec::new(base(), 2)];
        assert_ne!(grid_fingerprint(&grid), grid_fingerprint(&grid[..1]));
    }

    #[test]
    fn registry_lookup_and_ordered_names() {
        fn grid_a() -> Vec<CampaignSpec> {
            vec![CampaignSpec::new(ScenarioConfig::default(), 2)]
        }
        fn grid_b() -> Vec<CampaignSpec> {
            vec![CampaignSpec::new(ScenarioConfig::default(), 3)]
        }
        let r = CampaignRegistry::new()
            .register("beta", grid_b)
            .register("alpha", grid_a);
        // Registration order, not lexical order: listings must reflect
        // exactly what the binary registered.
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["beta", "alpha"]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.contains("alpha"));
        assert!(!r.contains("gamma"));
        assert_eq!(r.derive("beta").map(|g| g.len()), Some(1));
        assert!(r.derive("gamma").is_none());
        assert!(CampaignRegistry::new().is_empty());
    }

    #[test]
    fn run_indexed_default_is_serial_order() {
        let out = Serial.run_indexed(5, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert_eq!(Runner::new(3).run_indexed(5, |i| i * 2), out);
    }
}
