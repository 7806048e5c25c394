//! Criterion group `pool_paths`: the serving pool's two ways to sort a
//! batch's padded words, side by side — one dispatched local sort on
//! the calling thread (`single`), and the smart sort on a warm P = 4
//! machine (`machine`), exactly as `WarmPool` runs it. Sizes are 2^10 to
//! 2^17 words of each word shape the pool sorts: u64 tagged words, u128
//! record words (u32/u64 keys) and `W192` record words (u128 keys).
//!
//! Where `machine` starts to win is the host crossover that sets
//! `sort_service::pool::SINGLE_PATH_MAX_WORDS` (DESIGN.md §7).

use bitonic_core::algorithms::smart_sort_ctx;
use bitonic_core::tagged::{RecordBatch, TaggedBatch};
use bitonic_core::{LocalStrategy, SortContext};
use bitonic_network::Direction;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use local_sorts::{local_sort_with_scratch, RadixKey, W192};
use spmd::fault::FaultConfig;
use spmd::{MachineConfig, SpmdMachine};
use std::sync::Arc;
use std::time::Duration;

const PROCS: usize = 4;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` padded words of one shape, from four requests of random keys in
/// alternating directions.
fn tagged_words(n: usize) -> Vec<u64> {
    let mut s = n as u64;
    let mut batch = TaggedBatch::new();
    for r in 0..4 {
        let keys: Vec<u32> = (0..n / 4).map(|_| splitmix(&mut s) as u32).collect();
        batch.push(&keys, direction(r));
    }
    batch.padded_words(PROCS).0
}

fn record128_words(n: usize) -> Vec<u128> {
    let mut s = n as u64;
    let mut batch = RecordBatch::<u128>::new();
    for r in 0..4 {
        let keys: Vec<u64> = (0..n / 4).map(|_| splitmix(&mut s)).collect();
        batch.push(&keys, direction(r));
    }
    batch.padded_words(PROCS).0
}

fn record192_words(n: usize) -> Vec<W192> {
    let mut s = n as u64;
    let mut batch = RecordBatch::<W192>::new();
    for r in 0..4 {
        let keys: Vec<u128> = (0..n / 4)
            .map(|_| (u128::from(splitmix(&mut s)) << 64) | u128::from(splitmix(&mut s)))
            .collect();
        batch.push(&keys, direction(r));
    }
    batch.padded_words(PROCS).0
}

fn direction(r: usize) -> Direction {
    if r.is_multiple_of(2) {
        Direction::Ascending
    } else {
        Direction::Descending
    }
}

/// Time both paths on every size for one word shape.
fn bench_shape<W: RadixKey>(c: &mut Criterion, shape: &str, make: fn(usize) -> Vec<W>) {
    let mut group = c.benchmark_group(format!("pool_paths/{shape}"));
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    // The pool arms its batch watchdog on every machine; so does this one.
    let config = MachineConfig {
        fault: FaultConfig {
            watchdog: Some(Duration::from_secs(2)),
            ..FaultConfig::off()
        },
        ..MachineConfig::new(PROCS)
    };
    let mut machine: SpmdMachine<W, SortContext<W>, Vec<W>> =
        SpmdMachine::boot(config, |_| SortContext::new());
    for lg in 10..=17u32 {
        let n = 1usize << lg;
        let input = make(n);
        let per_rank = n / PROCS;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("single", n), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut v = input.clone();
                local_sort_with_scratch(&mut v, &mut scratch, Direction::Ascending);
                v
            })
        });
        group.bench_function(BenchmarkId::new("machine", n), |b| {
            b.iter(|| {
                let words = Arc::new(input.clone());
                let ranks = machine
                    .run(move |comm, ctx| {
                        let me = comm.rank();
                        let local = words[me * per_rank..(me + 1) * per_rank].to_vec();
                        smart_sort_ctx(comm, local, LocalStrategy::Merges, ctx)
                    })
                    .expect("machine sorts");
                let mut out = Vec::with_capacity(n);
                for r in ranks {
                    out.extend_from_slice(&r.output);
                }
                out
            })
        });
    }
    group.finish();
}

fn bench_pool_paths(c: &mut Criterion) {
    local_sorts::dispatch::ensure_calibrated();
    bench_shape(c, "u64", tagged_words);
    bench_shape(c, "u128", record128_words);
    bench_shape(c, "w192", record192_words);
}

criterion_group!(benches, bench_pool_paths);
criterion_main!(benches);
