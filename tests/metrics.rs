//! Metrics-plane guarantees: histogram quantiles stay within one
//! bucket's relative error of the exact sample quantile, merging
//! histograms is exactly observing the concatenated streams, and the
//! live registry reconciles *exactly* with the serving layer's own
//! counters — two independent tallies of the same events.

use bitonic_network::Direction;
use obs::Histogram;
use proptest::prelude::*;
use sort_service::pool::SINGLE_PATH_MAX_WORDS;
use sort_service::{
    Rejection, ServiceConfig, ShardedConfig, ShardedService, SortRequest, SortService,
};

/// The log-linear bucket layout's sub-bucket resolution: 2^5 buckets per
/// octave, so a bucket's width is at most `value >> 5` (~3.1% relative).
const SUB_BITS: u32 = 5;

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_quantile_bounded(samples: &[u64], q: f64) {
    let h = Histogram::new();
    for &v in samples {
        h.observe(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let exact = exact_quantile(&sorted, q);
    let approx = h.quantile(q);
    assert!(
        approx >= exact,
        "q={q}: bucket upper bound {approx} below exact {exact}"
    );
    assert!(
        approx - exact <= exact >> SUB_BITS,
        "q={q}: {approx} vs exact {exact} exceeds one bucket's width"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Constant stream: every quantile must land in the sample's bucket.
    #[test]
    fn constant_distribution_quantiles_are_bucket_exact(
        value in 1u64..1_000_000_000,
        count in 1usize..200,
        q in 0.01f64..1.0,
    ) {
        assert_quantile_bounded(&vec![value; count], q);
    }

    /// Bimodal stream: the quantile must pick the right mode and stay
    /// within one bucket of it.
    #[test]
    fn bimodal_distribution_quantiles_are_bounded(
        lo in 1u64..1_000,
        hi in 100_000u64..10_000_000,
        n_lo in 1usize..100,
        n_hi in 1usize..100,
        q in 0.01f64..1.0,
    ) {
        let mut samples = vec![lo; n_lo];
        samples.extend(std::iter::repeat_n(hi, n_hi));
        assert_quantile_bounded(&samples, q);
    }

    /// Power-law stream spanning many octaves — the layout the log-linear
    /// buckets exist for.
    #[test]
    fn power_law_distribution_quantiles_are_bounded(
        exponents in proptest::collection::vec(0u32..40, 1..200),
        q in 0.01f64..1.0,
    ) {
        let samples: Vec<u64> = exponents
            .iter()
            .map(|&e| (1u64 << e) | (u64::from(e) * 7 % (1 << e).max(1)))
            .collect();
        assert_quantile_bounded(&samples, q);
    }

    /// Bucket-wise merge is exact: merging two histograms is
    /// indistinguishable from observing the concatenated sample streams.
    #[test]
    fn merge_equals_histogram_of_concatenation(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let ha = Histogram::new();
        for &v in &a {
            ha.observe(v);
        }
        let hb = Histogram::new();
        for &v in &b {
            hb.observe(v);
        }
        ha.merge_from(&hb);

        let concat = Histogram::new();
        for &v in a.iter().chain(&b) {
            concat.observe(v);
        }
        prop_assert_eq!(ha.count(), concat.count());
        prop_assert_eq!(ha.sum(), concat.sum());
        prop_assert_eq!(ha.cumulative_buckets(), concat.cumulative_buckets());
    }
}

/// Registry totals reconcile exactly with the single service's
/// `ServiceStats`: submissions, admissions, sheds (by reason), completed
/// requests, batches, the latency histogram's sample count, and the plan
/// cache's hit/miss counters.
#[test]
fn single_service_registry_reconciles_with_service_stats() {
    let cfg = ServiceConfig::new(4);
    let too_large = cfg.max_request_keys + 1;
    let service = SortService::start(cfg);
    let metrics = service.metrics().expect("metrics are on by default");

    let mut tickets = Vec::new();
    for i in 0..20u32 {
        let keys: Vec<u32> = (0..(8 + i * 3)).map(|k| k * 17 % 97).collect();
        let dir = if i % 2 == 0 {
            Direction::Ascending
        } else {
            Direction::Descending
        };
        tickets.push(
            service
                .submit(SortRequest::new(keys, dir))
                .expect("admitted"),
        );
    }
    // One oversized request, shed at admission with a stable reason label.
    match service.submit(SortRequest::ascending(vec![1; too_large])) {
        Err(Rejection::TooLarge { .. }) => {}
        other => panic!("oversized request should shed as too_large, got {other:?}"),
    }
    for t in tickets {
        t.wait().expect("request sorts");
    }
    let stats = service.shutdown().stats;

    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter_total("bitonic_requests_submitted_total"),
        stats.submitted
    );
    assert_eq!(
        snap.counter_total("bitonic_requests_admitted_total"),
        stats.admitted
    );
    assert_eq!(
        snap.counter_total("bitonic_requests_shed_total"),
        stats.shed
    );
    assert_eq!(
        snap.counter_labeled("bitonic_requests_shed_total", "reason", "too_large"),
        1,
        "the shed carries its Rejection reason as a label"
    );
    assert_eq!(
        snap.counter_total("bitonic_requests_completed_total"),
        stats.completed
    );
    assert_eq!(snap.counter_total("bitonic_batches_total"), stats.batches);
    assert_eq!(
        snap.histogram_count("bitonic_request_latency_us"),
        stats.completed,
        "one latency sample per completed request"
    );
    assert_eq!(
        snap.counter_total("bitonic_plan_cache_hits_total"),
        stats.pool.plan_hits
    );
    assert_eq!(
        snap.counter_total("bitonic_plan_cache_misses_total"),
        stats.pool.plan_misses
    );
}

/// `bitonic_batches_total` carries the path that sorted each batch: a
/// batch at or below the single-path limit is labelled `single`, one
/// above it `machine`, and the labels still sum to the service's batch
/// count. Single-path sorts report their local kernels like machine
/// ranks do.
#[test]
fn batches_are_labelled_by_the_path_that_sorted_them() {
    let big = SINGLE_PATH_MAX_WORDS + 1;
    let mut cfg = ServiceConfig::new(4);
    cfg.max_batch_keys = big;
    cfg.max_request_keys = big;
    let service = SortService::start(cfg);
    let metrics = service.metrics().expect("metrics are on by default");
    let sort = |keys: Vec<u32>| {
        let mut expect = keys.clone();
        expect.sort_unstable();
        let out = service
            .submit(SortRequest::ascending(keys))
            .expect("admitted")
            .wait()
            .expect("request sorts");
        assert_eq!(out, expect);
    };
    let labelled = |path| {
        metrics
            .snapshot()
            .counter_labeled("bitonic_batches_total", "path", path)
    };
    let kernel_calls = || {
        metrics
            .snapshot()
            .counter_total("bitonic_local_kernel_invocations_total")
    };

    sort((0..1000u32).rev().collect());
    assert_eq!((labelled("single"), labelled("machine")), (1, 0));
    assert!(kernel_calls() > 0, "the single path reports its kernel");

    sort(
        (0..big as u32)
            .map(|k| k.wrapping_mul(2_654_435_761))
            .collect(),
    );
    assert_eq!((labelled("single"), labelled("machine")), (1, 1));

    let stats = service.shutdown().stats;
    assert_eq!(stats.batches, 2);
    assert_eq!(
        metrics.snapshot().counter_total("bitonic_batches_total"),
        stats.batches
    );
}

/// The sharded registry reconciles per class: every shard's counters
/// match its `class`-labelled series, and router drops surface as the
/// unroutable counter.
#[test]
fn sharded_registry_reconciles_per_class() {
    let cfg = ShardedConfig::banded(4, 2);
    let widest = cfg
        .classes
        .last()
        .expect("at least one class")
        .pool
        .max_request_keys;
    let service = ShardedService::start(cfg);
    let metrics = service.metrics().expect("metrics are on by default");

    let mut tickets = Vec::new();
    for i in 0..12u32 {
        // Mostly small requests, every third one bulk-sized.
        let n = if i % 3 == 2 {
            widest - 5
        } else {
            6 + i as usize
        };
        let keys: Vec<u32> = (0..n as u32).map(|k| k.wrapping_mul(31) % 211).collect();
        tickets.push(
            service
                .submit(SortRequest::ascending(keys))
                .expect("admitted"),
        );
    }
    match service.submit(SortRequest::ascending(vec![1; widest + 1])) {
        Err(Rejection::TooLarge { .. }) => {}
        other => panic!("oversized request should be unroutable, got {other:?}"),
    }
    for t in tickets {
        t.wait().expect("request sorts");
    }
    let stats = service.shutdown().stats;

    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter_total("bitonic_requests_unroutable_total"),
        stats.unroutable
    );
    assert_eq!(stats.unroutable, 1);
    for shard in &stats.shards {
        for (name, stat) in [
            ("bitonic_requests_submitted_total", shard.submitted),
            ("bitonic_requests_admitted_total", shard.admitted),
            ("bitonic_requests_shed_total", shard.shed),
            ("bitonic_requests_completed_total", shard.completed),
            ("bitonic_batches_total", shard.batches),
            ("bitonic_steals_total", shard.steals),
            ("bitonic_stolen_requests_total", shard.stolen_requests),
        ] {
            assert_eq!(
                snap.counter_labeled(name, "class", &shard.class),
                stat,
                "{} diverged for class {}",
                name,
                shard.class
            );
        }
        assert!(
            snap.counter_labeled("bitonic_requests_completed_total", "class", &shard.class)
                <= snap.histogram_count("bitonic_request_latency_us"),
            "every completion recorded a latency sample somewhere"
        );
    }
    // Latency samples across all classes equal completions across all
    // classes (steal credit moves both to the thief together).
    assert_eq!(
        snap.histogram_count("bitonic_request_latency_us"),
        stats.shards.iter().map(|s| s.completed).sum::<u64>()
    );
}
