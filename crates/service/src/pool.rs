//! The warm worker pool: persistent machines with retained sort state.
//!
//! Every machine in the pool is a [`SpmdMachine`] whose ranks hold a
//! long-lived [`SortContext`]: remap plans computed for one batch shape
//! stay cached for every later batch of that shape, and the flat
//! pack/transfer/unpack buffers stay at working-set size. Because the
//! service pads batches to power-of-two keys per rank, the set of
//! distinct shapes is logarithmic in the size range — after a short
//! warm-up, every batch runs with a 100% plan-cache hit rate (the
//! [`PoolStats`] counters prove it).
//!
//! Failure policy: a batch that fails — watchdog expiry on a stalled
//! rank, or a panic — breaks its machine. The pool replaces the machine
//! wholesale (fresh ranks, empty caches) and reports the failure to the
//! caller; the other machines and the service keep running.

use crate::config::ServiceConfig;
use crate::metrics::ClassMetrics;
use bitonic_core::algorithms::smart_sort_ctx;
use bitonic_core::{LocalStrategy, SortContext};
use local_sorts::{RadixKey, W192};
use spmd::fault::FaultStats;
use spmd::{MachineConfig, MachineFailure, SpmdMachine};
use std::sync::Arc;
use std::time::Duration;

/// The machine type the pool manages: `u64` tagged words through ranks
/// retaining a `SortContext`, each job returning its rank's sorted slice.
pub type SortMachine = SpmdMachine<u64, SortContext<u64>, Vec<u64>>;

/// A record machine over 128-bit words (`[tag:32][key:64][rid:32]`).
pub type Record128Machine = SpmdMachine<u128, SortContext<u128>, Vec<u128>>;

/// A record machine over 192-bit words (`[tag:32][key:128][rid:32]`).
pub type Record192Machine = SpmdMachine<W192, SortContext<W192>, Vec<W192>>;

/// What the pool has done so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Batches completed successfully.
    pub batches_run: u64,
    /// Batches that failed (watchdog or panic) and broke their machine.
    pub batches_failed: u64,
    /// Machines replaced after a failed batch.
    pub machines_rebuilt: u64,
    /// Plan-cache hits summed over all ranks and batches.
    pub plan_hits: u64,
    /// Plan-cache misses summed over all ranks and batches.
    pub plan_misses: u64,
    /// Plan-cache misses of the most recent successful batch — zero once
    /// its machine has warmed to the batch's shape.
    pub last_batch_plan_misses: u64,
    /// Machines currently in the rotation (kept current across
    /// [`WarmPool::grow`]/[`WarmPool::shrink`]).
    pub machines: u64,
    /// Most machines the rotation ever held — the autoscaler's high-water
    /// mark.
    pub peak_machines: u64,
    /// Injected-fault and ARQ-recovery totals summed over every rank of
    /// every successful batch (the chaos layer's lifetime footprint on
    /// this pool).
    pub faults: FaultStats,
}

impl PoolStats {
    /// Lifetime plan-cache hit rate in `[0, 1]`.
    ///
    /// An unused pool (no hits, no misses) reports 1.0 by convention: it
    /// has never missed, and downstream `--check` gates demand a 100%
    /// steady-state rate, which a freshly idle pool should not fail.
    #[must_use]
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            return 1.0;
        }
        self.plan_hits as f64 / total as f64
    }

    /// Fold `other` into `self` — how per-shard pool stats aggregate into
    /// one fleet view (and into the metrics registry). Event counters
    /// add; `machines` and `peak_machines` add too, because across
    /// distinct pools they measure total capacity, not one rotation's
    /// size; `last_batch_plan_misses` adds the per-pool latest batches.
    pub fn merge(&mut self, other: &PoolStats) {
        self.batches_run += other.batches_run;
        self.batches_failed += other.batches_failed;
        self.machines_rebuilt += other.machines_rebuilt;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.last_batch_plan_misses += other.last_batch_plan_misses;
        self.machines += other.machines;
        self.peak_machines += other.peak_machines;
        self.faults.sum_merge(&other.faults);
    }
}

/// A rotation of warm [`SortMachine`]s, plus (lazily booted) one record
/// machine per record word shape. The record machines sit outside the
/// autoscaled rotation — they exist only once a record batch arrives,
/// and like the rotation they retain their `SortContext` so record
/// batch shapes warm the same remap plan cache. They are not counted in
/// the `machines` gauge, which measures plain-lane capacity.
pub struct WarmPool {
    machine_config: MachineConfig,
    strategy: LocalStrategy,
    machines: Vec<SortMachine>,
    rec128: Option<Record128Machine>,
    rec192: Option<Record192Machine>,
    next: usize,
    stats: PoolStats,
    metrics: Option<Arc<ClassMetrics>>,
}

impl std::fmt::Debug for WarmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmPool")
            .field("machines", &self.machines.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl WarmPool {
    /// Boot `cfg.machines` warm machines of `cfg.procs` ranks each.
    #[must_use]
    pub fn new(cfg: &ServiceConfig) -> Self {
        cfg.validate();
        // Measure the local-kernel crossover table once per process, so
        // every batch this pool serves dispatches on calibrated thresholds
        // instead of the baked-in reference-host constants (the serving
        // analogue of the LogP machine constants). The services call this
        // before spawning their workers, so there it is already free.
        local_sorts::dispatch::ensure_calibrated();
        // The chaos layer's faults (if any) ride along; the service-level
        // batch watchdog takes precedence over a watchdog configured there,
        // because the serving layer depends on it for batch containment.
        let mut fault = cfg.fault;
        if cfg.batch_watchdog.is_some() {
            fault.watchdog = cfg.batch_watchdog;
        }
        let machine_config = MachineConfig {
            procs: cfg.procs,
            mode: cfg.mode,
            fault,
            drain_grace: cfg
                .batch_watchdog
                .map_or(Duration::from_secs(5), |w| w * 4 + Duration::from_secs(1)),
            ..MachineConfig::new(cfg.procs)
        };
        let machines: Vec<SortMachine> = (0..cfg.machines)
            .map(|_| Self::boot_machine(machine_config))
            .collect();
        let mut pool = WarmPool {
            machine_config,
            strategy: LocalStrategy::Merges,
            machines,
            rec128: None,
            rec192: None,
            next: 0,
            stats: PoolStats::default(),
            metrics: None,
        };
        pool.stats.peak_machines = pool.machines.len() as u64;
        pool.sync_gauge();
        pool
    }

    /// Hook this pool's per-batch harvest (plan cache, faults, kernels,
    /// machine gauge) into a live metrics class.
    pub(crate) fn set_metrics(&mut self, metrics: Arc<ClassMetrics>) {
        metrics.pool_machines.set(self.machines.len() as f64);
        self.metrics = Some(metrics);
    }

    /// Stamp the current pool size into every machine's gauge so each
    /// job's per-rank `CommStats` records the capacity that served it.
    fn sync_gauge(&mut self) {
        let n = self.machines.len() as u64;
        self.stats.machines = n;
        self.stats.peak_machines = self.stats.peak_machines.max(n);
        for m in &self.machines {
            m.set_pool_machines(n);
        }
        if let Some(m) = &self.metrics {
            m.pool_machines.set(n as f64);
        }
    }

    /// Add one freshly booted machine to the rotation (autoscaler
    /// scale-up). Its caches start cold and warm on its first batches.
    pub fn grow(&mut self) {
        self.machines.push(Self::boot_machine(self.machine_config));
        self.sync_gauge();
    }

    /// Retire one machine (autoscaler scale-down), never dropping below
    /// one — a pool that scaled to zero could not serve the request that
    /// wakes it. Returns whether a machine was actually retired.
    pub fn shrink(&mut self) -> bool {
        if self.machines.len() <= 1 {
            return false;
        }
        self.machines.pop();
        if self.next >= self.machines.len() {
            self.next = 0;
        }
        self.sync_gauge();
        true
    }

    fn boot_machine(config: MachineConfig) -> SortMachine {
        SpmdMachine::boot(config, |_| SortContext::new())
    }

    /// Machines currently in the rotation.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines.len()
    }

    /// The pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Sort `words` (already padded to `per_rank * procs`, see
    /// [`bitonic_core::tagged::TaggedBatch::padded_words`]) on the next
    /// machine in the rotation, returning the globally ascending words.
    ///
    /// On failure the broken machine is replaced with a fresh one and the
    /// failure returned; the pool remains usable.
    ///
    /// # Errors
    /// The [`MachineFailure`] that broke the batch.
    ///
    /// # Panics
    /// Panics if `words.len() != per_rank * procs`.
    pub fn run_batch(
        &mut self,
        words: Vec<u64>,
        per_rank: usize,
    ) -> Result<Vec<u64>, MachineFailure> {
        let procs = self.machine_config.procs;
        assert_eq!(words.len(), per_rank * procs, "batch must be padded");
        let idx = self.next;
        self.next = (self.next + 1) % self.machines.len();
        let words = Arc::new(words);
        let strategy = self.strategy;
        let result = self.machines[idx].run(move |comm, ctx| {
            let me = comm.rank();
            let local = words[me * per_rank..(me + 1) * per_rank].to_vec();
            smart_sort_ctx(comm, local, strategy, ctx)
        });
        match result {
            Ok(ranks) => {
                self.stats.batches_run += 1;
                let mut batch_misses = 0;
                let mut out = Vec::with_capacity(per_rank * procs);
                for r in ranks {
                    self.stats.plan_hits += r.stats.plan_hits;
                    self.stats.plan_misses += r.stats.plan_misses;
                    self.stats.faults.sum_merge(&r.stats.faults);
                    batch_misses += r.stats.plan_misses;
                    if let Some(m) = &self.metrics {
                        m.record_rank_stats(&r.stats);
                    }
                    out.extend_from_slice(&r.output);
                }
                self.stats.last_batch_plan_misses = batch_misses;
                Ok(out)
            }
            Err(failure) => {
                self.stats.batches_failed += 1;
                self.stats.machines_rebuilt += 1;
                if let Some(m) = &self.metrics {
                    m.machines_rebuilt.inc();
                }
                self.machines[idx] = Self::boot_machine(self.machine_config);
                self.machines[idx].set_pool_machines(self.machines.len() as u64);
                Err(failure)
            }
        }
    }

    /// Sort 128-bit record words (u32/u64 keys) on the pool's lazily
    /// booted record machine; same padding contract and failure policy
    /// as [`WarmPool::run_batch`].
    ///
    /// # Errors
    /// The [`MachineFailure`] that broke the batch.
    ///
    /// # Panics
    /// Panics if `words.len() != per_rank * procs`.
    pub fn run_record128_batch(
        &mut self,
        words: Vec<u128>,
        per_rank: usize,
    ) -> Result<Vec<u128>, MachineFailure> {
        let metrics = self.metrics.clone();
        run_record_words(
            &mut self.rec128,
            self.machine_config,
            self.strategy,
            &mut self.stats,
            metrics.as_deref(),
            words,
            per_rank,
        )
    }

    /// Sort 192-bit record words (u128 keys) on the pool's lazily
    /// booted record machine; same padding contract and failure policy
    /// as [`WarmPool::run_batch`].
    ///
    /// # Errors
    /// The [`MachineFailure`] that broke the batch.
    ///
    /// # Panics
    /// Panics if `words.len() != per_rank * procs`.
    pub fn run_record192_batch(
        &mut self,
        words: Vec<W192>,
        per_rank: usize,
    ) -> Result<Vec<W192>, MachineFailure> {
        let metrics = self.metrics.clone();
        run_record_words(
            &mut self.rec192,
            self.machine_config,
            self.strategy,
            &mut self.stats,
            metrics.as_deref(),
            words,
            per_rank,
        )
    }
}

/// Run one record batch on the (lazily booted) machine in `slot`,
/// harvesting plan-cache, fault, and kernel stats into the shared pool
/// counters exactly like the plain path. A failed batch drops the
/// machine; the next record batch of this shape boots a fresh one.
fn run_record_words<K: RadixKey>(
    slot: &mut Option<SpmdMachine<K, SortContext<K>, Vec<K>>>,
    config: MachineConfig,
    strategy: LocalStrategy,
    stats: &mut PoolStats,
    metrics: Option<&ClassMetrics>,
    words: Vec<K>,
    per_rank: usize,
) -> Result<Vec<K>, MachineFailure> {
    let procs = config.procs;
    assert_eq!(words.len(), per_rank * procs, "batch must be padded");
    let machine = slot.get_or_insert_with(|| SpmdMachine::boot(config, |_| SortContext::new()));
    let words = Arc::new(words);
    let result = machine.run(move |comm, ctx| {
        let me = comm.rank();
        let local = words[me * per_rank..(me + 1) * per_rank].to_vec();
        smart_sort_ctx(comm, local, strategy, ctx)
    });
    match result {
        Ok(ranks) => {
            stats.batches_run += 1;
            let mut batch_misses = 0;
            let mut out = Vec::with_capacity(per_rank * procs);
            for r in ranks {
                stats.plan_hits += r.stats.plan_hits;
                stats.plan_misses += r.stats.plan_misses;
                stats.faults.sum_merge(&r.stats.faults);
                batch_misses += r.stats.plan_misses;
                if let Some(m) = metrics {
                    m.record_rank_stats(&r.stats);
                }
                out.extend_from_slice(&r.output);
            }
            stats.last_batch_plan_misses = batch_misses;
            Ok(out)
        }
        Err(failure) => {
            stats.batches_failed += 1;
            stats.machines_rebuilt += 1;
            if let Some(m) = metrics {
                m.machines_rebuilt.inc();
            }
            *slot = None;
            Err(failure)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitonic_core::tagged::TaggedBatch;
    use bitonic_network::Direction;

    fn pool(procs: usize) -> WarmPool {
        let mut cfg = ServiceConfig::new(procs);
        cfg.batch_watchdog = Some(Duration::from_millis(200));
        WarmPool::new(&cfg)
    }

    fn run(pool: &mut WarmPool, keys: &[u32]) -> Vec<u32> {
        let mut batch = TaggedBatch::new();
        batch.push(keys, Direction::Ascending);
        let (words, per_rank) = batch.padded_words(pool.machine_config.procs);
        let sorted = pool.run_batch(words, per_rank).expect("batch runs");
        batch.split(&sorted).remove(0)
    }

    #[test]
    fn repeated_shapes_reach_a_perfect_hit_rate() {
        let mut p = pool(4);
        let keys: Vec<u32> = (0..256u32).rev().collect();
        let first = run(&mut p, &keys);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        let cold = p.stats();
        assert!(cold.plan_misses > 0, "first batch computes plans");
        for _ in 0..5 {
            let out = run(&mut p, &keys);
            assert!(out.windows(2).all(|w| w[0] <= w[1]));
        }
        let warm = p.stats();
        assert_eq!(
            warm.plan_misses, cold.plan_misses,
            "steady state must not compute plans"
        );
        assert_eq!(warm.last_batch_plan_misses, 0);
        assert!(warm.plan_hits > cold.plan_hits);
        assert_eq!(warm.batches_run, 6);
    }

    #[test]
    fn grow_and_shrink_move_the_gauge_and_respect_the_floor() {
        let mut p = pool(2);
        assert_eq!(p.machines(), 1);
        assert_eq!(p.stats().machines, 1);
        p.grow();
        p.grow();
        assert_eq!(p.machines(), 3);
        assert_eq!(p.stats().machines, 3);
        assert_eq!(p.stats().peak_machines, 3);
        // Batches still come back correct across the grown rotation, and
        // every job's stats carry the current pool size.
        for _ in 0..3 {
            let out = run(&mut p, &[9, 3, 7, 1]);
            assert_eq!(out, vec![1, 3, 7, 9]);
        }
        assert!(p.shrink());
        assert_eq!(p.machines(), 2);
        assert!(p.shrink());
        assert!(!p.shrink(), "the floor is one machine");
        assert_eq!(p.machines(), 1);
        assert_eq!(p.stats().machines, 1);
        assert_eq!(p.stats().peak_machines, 3, "high-water mark sticks");
        let out = run(&mut p, &[4, 2]);
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn merging_empty_pool_stats_is_the_identity() {
        // Two never-used pools: the merge stays empty and the hit rate
        // keeps its by-convention 1.0 (an idle pool has never missed).
        let mut a = PoolStats::default();
        let b = PoolStats::default();
        a.merge(&b);
        assert_eq!(a.plan_hits + a.plan_misses, 0);
        assert_eq!(a.plan_hit_rate(), 1.0);
        assert_eq!(a.batches_run, 0);
        assert_eq!(a.machines, 0);
        // Empty merged into a live pool leaves it untouched.
        let mut live = PoolStats {
            batches_run: 3,
            plan_hits: 10,
            plan_misses: 2,
            machines: 2,
            peak_machines: 3,
            ..PoolStats::default()
        };
        let before = live;
        live.merge(&PoolStats::default());
        assert_eq!(live.plan_hits, before.plan_hits);
        assert_eq!(live.batches_run, before.batches_run);
        assert_eq!(live.peak_machines, before.peak_machines);
    }

    #[test]
    fn merging_saturated_pool_stats_adds_counters() {
        // A fully warmed pool (all hits) merged with a fully cold one
        // (all misses): totals add, and the rate reflects the blend.
        let mut warm = PoolStats {
            batches_run: u64::MAX / 2,
            plan_hits: 100,
            machines: 4,
            peak_machines: 4,
            ..PoolStats::default()
        };
        warm.faults.retries = 7;
        let mut cold = PoolStats {
            batches_run: 1,
            plan_misses: 100,
            machines: 1,
            peak_machines: 2,
            last_batch_plan_misses: 100,
            ..PoolStats::default()
        };
        cold.faults.retries = 5;
        cold.faults.drops_injected = 3;
        warm.merge(&cold);
        assert_eq!(warm.batches_run, u64::MAX / 2 + 1);
        assert_eq!((warm.plan_hits, warm.plan_misses), (100, 100));
        assert_eq!(warm.plan_hit_rate(), 0.5);
        assert_eq!(warm.machines, 5, "capacity across pools adds");
        assert_eq!(warm.peak_machines, 6);
        assert_eq!(warm.last_batch_plan_misses, 100);
        assert_eq!(warm.faults.retries, 12);
        assert_eq!(warm.faults.drops_injected, 3);
    }

    #[test]
    fn record_batches_sort_stably_and_warm_their_own_plan_cache() {
        use bitonic_core::tagged::{records_sorted_independently, RecordBatch};
        let mut p = pool(2);
        // Duplicate-heavy keys so stability is load-bearing.
        let keys: Vec<u64> = (0..64u64).map(|i| (i * 37) % 16).collect();
        for round in 0..3 {
            let mut batch = RecordBatch::<u128>::new();
            batch.push(&keys, Direction::Ascending);
            let (words, per_rank) = batch.padded_words(2);
            let sorted = p
                .run_record128_batch(words, per_rank)
                .expect("record batch");
            let seg = batch.split(&sorted).remove(0);
            let oracle = records_sorted_independently(&keys, Direction::Ascending);
            assert_eq!(seg.keys, oracle.keys);
            assert_eq!(seg.perm, oracle.perm, "stable permutation");
            if round > 0 {
                assert_eq!(
                    p.stats().last_batch_plan_misses,
                    0,
                    "record shapes warm too"
                );
            }
        }
        // The 192-bit machine is independent and handles >64-bit keys.
        let wide: Vec<u128> = keys.iter().map(|&k| u128::from(k) << 80).collect();
        let mut batch = RecordBatch::<W192>::new();
        batch.push(&wide, Direction::Descending);
        let (words, per_rank) = batch.padded_words(2);
        let sorted = p
            .run_record192_batch(words, per_rank)
            .expect("192-bit batch");
        let seg = batch.split(&sorted).remove(0);
        let oracle = records_sorted_independently(&wide, Direction::Descending);
        assert_eq!(seg.keys, oracle.keys);
        assert_eq!(seg.perm, oracle.perm);
        // Record machines live outside the plain rotation's gauge.
        assert_eq!(p.machines(), 1);
    }

    #[test]
    fn a_failed_batch_is_contained_and_the_pool_recovers() {
        let mut p = pool(2);
        // per_rank = 3 is not a power of two: the job's sort asserts on
        // every rank, breaking the machine.
        let bad = vec![1u64; 6];
        let err = p.run_batch(bad, 3);
        assert!(err.is_err());
        let s = p.stats();
        assert_eq!((s.batches_failed, s.machines_rebuilt), (1, 1));
        // The replacement machine serves the next batch correctly.
        let out = run(&mut p, &[5, 1, 9, 2]);
        assert_eq!(out, vec![1, 2, 5, 9]);
        assert_eq!(p.stats().batches_run, 1);
    }
}
