//! Serving-layer guarantees: coalesced batches are indistinguishable
//! from independent sorts, the pool's single and machine paths agree
//! word for word, the warm pool's plan cache reaches a perfect
//! steady-state hit rate, and a stalled batch fails alone.

use bitonic_core::tagged::{
    records_sorted_independently, sorted_independently, RecordBatch, RecordWord, TaggedBatch,
};
use bitonic_network::Direction;
use local_sorts::{local_sort_with_scratch, RadixKey, W192};
use proptest::prelude::*;
use sort_service::pool::{BatchPath, SINGLE_PATH_MAX_WORDS};
use sort_service::{PoolStats, ServiceConfig, SortRequest, SortService, WarmPool};
use spmd::MachineFailure;
use std::time::Duration;

/// A request mix for the coalescing property: small counts and sizes
/// (including n < P and empty), low-entropy keys (duplicates), and both
/// directions.
fn request_strategy() -> impl Strategy<Value = Vec<(Vec<u32>, Direction)>> {
    let request = (
        proptest::collection::vec(0u32..16, 0..40),
        any::<bool>().prop_map(|asc| {
            if asc {
                Direction::Ascending
            } else {
                Direction::Descending
            }
        }),
    );
    proptest::collection::vec(request, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole's correctness core: any mix of requests coalesced
    /// into one tagged batch splits back into exactly what each request
    /// would get from its own independent sort.
    #[test]
    fn coalesced_batches_equal_independent_sorts(requests in request_strategy()) {
        let mut cfg = ServiceConfig::new(4);
        cfg.batch_watchdog = Some(Duration::from_secs(20));
        let mut pool = WarmPool::new(&cfg);

        let mut batch = TaggedBatch::new();
        for (keys, dir) in &requests {
            batch.push(keys, *dir);
        }
        let (words, per_rank) = batch.padded_words(cfg.procs);
        let sorted = pool.run_batch(words, per_rank).expect("batch runs");
        let outputs = batch.split(&sorted);

        prop_assert_eq!(outputs.len(), requests.len());
        for (out, (keys, dir)) in outputs.iter().zip(&requests) {
            prop_assert_eq!(out, &sorted_independently(keys, *dir));
        }
    }
}

const PROCS: usize = 4;

/// A pool whose chaos layer injects a harmless 1 µs of jitter, so every
/// batch, however small, runs on a machine.
fn machine_pool() -> WarmPool {
    let mut cfg = ServiceConfig::new(PROCS);
    cfg.batch_watchdog = Some(Duration::from_secs(20));
    cfg.fault.jitter_us = 1;
    WarmPool::new(&cfg)
}

/// `n` keys from `seed`, masked to `mask`: a small mask makes ties the
/// common case.
fn seeded_keys(seed: u64, n: usize, mask: u128) -> Vec<u128> {
    let mut s = seed;
    let mut next = || {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| ((u128::from(next()) << 64) | u128::from(next())) & mask)
        .collect()
}

/// One of the pool's batch entry points (`run_batch`,
/// `run_record128_batch`, `run_record192_batch`).
type RunBatch<W> = fn(&mut WarmPool, Vec<W>, usize) -> Result<Vec<W>, MachineFailure>;

/// Sort padded `words` three ways: one local sort on this thread, the
/// path `plain` picks for them, and `faulty`'s machine. All three must
/// agree word for word; returns the agreed words.
fn sort_three_ways<W: RadixKey + std::fmt::Debug>(
    words: Vec<W>,
    per_rank: usize,
    plain: &mut WarmPool,
    faulty: &mut WarmPool,
    run: RunBatch<W>,
) -> Vec<W> {
    let mut single = words.clone();
    local_sort_with_scratch(&mut single, &mut Vec::new(), Direction::Ascending);
    let chosen = run(plain, words.clone(), per_rank).expect("chosen path runs");
    let machine = run(faulty, words, per_rank).expect("machine path runs");
    assert_eq!(chosen, single, "the pool's path equals one local sort");
    assert_eq!(machine, single, "the machine path equals one local sort");
    single
}

/// Split sorted record words and check every segment against the
/// stable oracle.
fn check_records<W: RecordWord>(
    batch: &RecordBatch<W>,
    sorted: &[W],
    requests: &[(Vec<W::Key>, Direction)],
) where
    W::Key: std::fmt::Debug,
{
    let segments = batch.split(sorted);
    assert_eq!(segments.len(), requests.len());
    for (seg, (keys, dir)) in segments.iter().zip(requests) {
        let oracle = records_sorted_independently(keys, *dir);
        assert_eq!(seg.keys, oracle.keys);
        assert_eq!(seg.perm, oracle.perm, "stable permutation");
    }
}

/// One case of the path-equivalence property: `1..=3` requests of
/// seed-drawn sizes and directions in word shape `lane` (0 = tagged u64,
/// 1 = u128 records, 2 = `W192` records), together just above the
/// single-path limit or well below it.
fn paths_agree(seed: u64, lane: u8, above: bool, dup_heavy: bool) {
    let mut plain = WarmPool::new(&ServiceConfig::new(PROCS));
    let mut faulty = machine_pool();
    let count = 1 + (seed % 3) as usize;
    let size = |i: usize| {
        if above {
            // Together just over the limit, so the padded batch is too.
            SINGLE_PATH_MAX_WORDS / count + 1 + (seed as usize >> 8) % 300 + i
        } else {
            (seed as usize >> (8 * i + 4)) % 40
        }
    };
    let dir = |i: usize| {
        if (seed >> (40 + i)) & 1 == 0 {
            Direction::Ascending
        } else {
            Direction::Descending
        }
    };
    let width_mask = [u128::from(u32::MAX), u128::from(u64::MAX), u128::MAX][usize::from(lane)];
    let mask = if dup_heavy { 3 } else { width_mask };
    let keys: Vec<Vec<u128>> = (0..count)
        .map(|i| seeded_keys(seed ^ i as u64, size(i), mask))
        .collect();
    let expect = if above {
        BatchPath::Machine
    } else {
        BatchPath::Single
    };
    match lane {
        0 => {
            let requests: Vec<(Vec<u32>, Direction)> = (0..count)
                .map(|i| (keys[i].iter().map(|&k| k as u32).collect(), dir(i)))
                .collect();
            let mut batch = TaggedBatch::new();
            for (k, d) in &requests {
                batch.push(k, *d);
            }
            let (words, per_rank) = batch.padded_words(PROCS);
            assert_eq!(plain.path(words.len()), expect);
            let sorted = sort_three_ways(
                words,
                per_rank,
                &mut plain,
                &mut faulty,
                WarmPool::run_batch,
            );
            for (out, (k, d)) in batch.split(&sorted).iter().zip(&requests) {
                assert_eq!(out, &sorted_independently(k, *d));
            }
        }
        1 => {
            let requests: Vec<(Vec<u64>, Direction)> = (0..count)
                .map(|i| (keys[i].iter().map(|&k| k as u64).collect(), dir(i)))
                .collect();
            let mut batch = RecordBatch::<u128>::new();
            for (k, d) in &requests {
                batch.push(k, *d);
            }
            let (words, per_rank) = batch.padded_words(PROCS);
            assert_eq!(plain.path(words.len()), expect);
            let sorted = sort_three_ways(
                words,
                per_rank,
                &mut plain,
                &mut faulty,
                WarmPool::run_record128_batch,
            );
            check_records(&batch, &sorted, &requests);
        }
        _ => {
            let requests: Vec<(Vec<u128>, Direction)> =
                (0..count).map(|i| (keys[i].clone(), dir(i))).collect();
            let mut batch = RecordBatch::<W192>::new();
            for (k, d) in &requests {
                batch.push(k, *d);
            }
            let (words, per_rank) = batch.padded_words(PROCS);
            assert_eq!(plain.path(words.len()), expect);
            let sorted = sort_three_ways(
                words,
                per_rank,
                &mut plain,
                &mut faulty,
                WarmPool::run_record192_batch,
            );
            check_records(&batch, &sorted, &requests);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The single path is an optimization, never a semantic change: for
    /// tagged u64 words and both record word shapes, on both sides of
    /// the single-path limit, in both directions, with duplicate-heavy
    /// keys and requests smaller than P, one local sort, the pool's
    /// chosen path and a machine produce the same words, and those words
    /// split into exactly the oracle's replies.
    #[test]
    fn single_and_machine_paths_agree_word_for_word(seed: u64, dup_heavy: bool) {
        for lane in 0..3 {
            let seed = seed.rotate_left(u32::from(lane) * 8);
            paths_agree(seed, lane, false, false);
            paths_agree(seed, lane, false, true);
            // One machine-sized batch per lane; the middle lane flips the
            // key mix, so every case covers both above the limit.
            paths_agree(seed, lane, true, dup_heavy ^ (lane == 1));
        }
    }
}

/// The satellite regression: once the pool has seen a batch shape, every
/// later batch of that shape must run at a 100% plan-cache hit rate.
#[test]
fn steady_state_plan_cache_hit_rate_is_100_percent() {
    let cfg = ServiceConfig::new(4);
    let mut pool = WarmPool::new(&cfg);
    // Above the single-path limit, so every batch runs on a machine.
    let keys: Vec<u32> = (0..=SINGLE_PATH_MAX_WORDS as u32).rev().collect();

    let run = |pool: &mut WarmPool| {
        let mut batch = TaggedBatch::new();
        batch.push(&keys, Direction::Ascending);
        let (words, per_rank) = batch.padded_words(cfg.procs);
        pool.run_batch(words, per_rank).expect("batch runs");
    };

    run(&mut pool);
    let cold: PoolStats = pool.stats();
    assert!(cold.plan_misses > 0, "the first batch computes its plans");

    for _ in 0..8 {
        run(&mut pool);
    }
    let warm = pool.stats();
    assert_eq!(
        warm.plan_misses, cold.plan_misses,
        "a warmed shape must never recompute a plan"
    );
    assert_eq!(warm.last_batch_plan_misses, 0);
    // The lifetime rate climbs toward 1 as warm batches accumulate.
    assert!(warm.plan_hit_rate() > cold.plan_hit_rate());
}

/// The containment satellite end to end: a batch whose job stalls a rank
/// past the watchdog fails *that batch* with a structured error; the
/// service sheds nothing, replaces the machine, and keeps serving.
#[test]
fn a_stalled_batch_fails_alone_and_the_service_keeps_serving() {
    let mut cfg = ServiceConfig::new(2);
    cfg.batch_watchdog = Some(Duration::from_millis(50));
    // Forbid coalescing across the poisoned request: flush immediately.
    cfg.max_wait = Duration::ZERO;
    let service = SortService::start(cfg);

    // A healthy request first proves the pool works.
    let ok = service
        .submit(SortRequest::ascending(vec![3, 1, 2]))
        .expect("admitted")
        .wait()
        .expect("sorted");
    assert_eq!(ok, vec![1, 2, 3]);

    // There is no public way to stall a rank through the service API (by
    // design), so poison a pool directly the same way a stalled rank
    // manifests: a job that breaks the machine mid-batch.
    let mut poisoned = ServiceConfig {
        batch_watchdog: Some(Duration::from_millis(50)),
        ..ServiceConfig::new(2)
    };
    // 1 µs of injected jitter keeps even this tiny batch on a machine.
    poisoned.fault.jitter_us = 1;
    let mut pool = WarmPool::new(&poisoned);
    // per_rank = 3 is not a power of two: every rank's sort asserts, the
    // machine breaks, and run_batch reports a structured failure.
    let failure = pool.run_batch(vec![9u64; 6], 3).expect_err("batch fails");
    assert!(!failure.to_string().is_empty());
    let stats = pool.stats();
    assert_eq!((stats.batches_failed, stats.machines_rebuilt), (1, 1));

    // The replacement machine (and the untouched service) still serve.
    let mut batch = TaggedBatch::new();
    batch.push(&[5, 4, 6, 2], Direction::Descending);
    let (words, per_rank) = batch.padded_words(2);
    let sorted = pool.run_batch(words, per_rank).expect("pool recovered");
    assert_eq!(batch.split(&sorted).remove(0), vec![6, 5, 4, 2]);

    let still = service
        .submit(SortRequest::new(vec![9, 7, 8], Direction::Descending))
        .expect("admitted")
        .wait()
        .expect("sorted");
    assert_eq!(still, vec![9, 8, 7]);
    let report = service.shutdown();
    assert_eq!(report.stats.shed, 0);
    assert_eq!(report.stats.completed, 2);
}
