//! Criterion micro-benchmarks for the branch-free local-phase kernels
//! against the seed kernels they dispatch against: radix vs the iterative
//! bitonic network on full sorts, the rotate-copy circular merge vs the
//! comparator network on bitonic inputs, the dispatched entry points
//! themselves (which must track the winner per size class), and the
//! step-major sweep over a slice of bitonic chunks against merging the
//! chunks one call at a time (`local_kernels/merge_chunks`, which sets
//! `dispatch::CHUNK_SWEEP_MAX_LG`).

use bitonic_network::Direction;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use local_sorts::bitonic_merge::sort_circular_with_scratch;
use local_sorts::kernels::{bitonic_merge_chunks, bitonic_merge_iterative, bitonic_sort_iterative};
use local_sorts::radix::radix_sort_with_scratch;
use local_sorts::{local_sort_with_scratch, sort_bitonic_with_scratch};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed;
    (0..n).map(|_| splitmix(&mut s)).collect()
}

fn bitonic_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut v = random_keys(n, seed);
    let peak = n / 2;
    v[..peak].sort_unstable();
    v[peak..].sort_unstable_by(|a, b| b.cmp(a));
    v.rotate_left(n / 3);
    v
}

fn bench_local_kernels(c: &mut Criterion) {
    local_sorts::dispatch::ensure_calibrated();

    let mut group = c.benchmark_group("local_kernels/sort");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    // One size class per side of the default u64 crossover.
    for lg in [6u32, 12] {
        let n = 1usize << lg;
        let input = random_keys(n, u64::from(lg));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("radix", n), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut v = input.clone();
                radix_sort_with_scratch(&mut v, &mut scratch);
                v
            })
        });
        group.bench_function(BenchmarkId::new("bitonic_net", n), |b| {
            b.iter(|| {
                let mut v = input.clone();
                bitonic_sort_iterative(&mut v, Direction::Ascending);
                v
            })
        });
        group.bench_function(BenchmarkId::new("dispatch", n), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut v = input.clone();
                local_sort_with_scratch(&mut v, &mut scratch, Direction::Ascending);
                v
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("local_kernels/merge");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(400));
    for lg in [4u32, 12] {
        let n = 1usize << lg;
        let input = bitonic_keys(n, u64::from(lg));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("circular_merge", n), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut v = input.clone();
                sort_circular_with_scratch(&mut v, &mut scratch, Direction::Ascending);
                v
            })
        });
        group.bench_function(BenchmarkId::new("network_merge", n), |b| {
            b.iter(|| {
                let mut v = input.clone();
                bitonic_merge_iterative(&mut v, Direction::Ascending);
                v
            })
        });
        group.bench_function(BenchmarkId::new("dispatch", n), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut v = input.clone();
                sort_bitonic_with_scratch(&mut v, &mut scratch, Direction::Ascending);
                v
            })
        });
    }
    group.finish();
}

/// Keys of every benched width, drawn from one 64-bit stream.
trait BenchKey: Ord + Copy {
    const NAME: &'static str;
    fn from_draw(x: u64) -> Self;
}
impl BenchKey for u32 {
    const NAME: &'static str = "u32";
    fn from_draw(x: u64) -> Self {
        x as u32
    }
}
impl BenchKey for u64 {
    const NAME: &'static str = "u64";
    fn from_draw(x: u64) -> Self {
        x
    }
}
impl BenchKey for u128 {
    const NAME: &'static str = "u128";
    fn from_draw(x: u64) -> Self {
        (u128::from(x) << 64) | u128::from(x.rotate_left(23))
    }
}

/// Keys of one slice the chunked merge benches sort: 2^14, the same for
/// every chunk size, so cells compare per key.
const CHUNKED_SLICE_LG: u32 = 14;

/// A 2^14-key slice of rotated-mountain chunks of `2^lg_chunk` keys.
fn bitonic_chunk_keys<K: BenchKey>(lg_chunk: u32) -> Vec<K> {
    let chunk = 1usize << lg_chunk;
    let mut s = u64::from(lg_chunk) + 17;
    let mut v: Vec<K> = (0..1usize << CHUNKED_SLICE_LG)
        .map(|_| K::from_draw(splitmix(&mut s)))
        .collect();
    for c in v.chunks_mut(chunk) {
        c[..chunk / 2].sort_unstable();
        c[chunk / 2..].sort_unstable_by(|a, b| b.cmp(a));
        c.rotate_left(chunk / 3);
    }
    v
}

/// One width's cells: the sweep vs one dispatched merge per chunk.
fn merge_chunk_cells<K: BenchKey>(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_kernels/merge_chunks");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(500));
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.throughput(Throughput::Elements(1 << CHUNKED_SLICE_LG));
    for lg_chunk in 1..=10u32 {
        let input = bitonic_chunk_keys::<K>(lg_chunk);
        let cell = format!("{}/chunk_{}", K::NAME, 1usize << lg_chunk);
        group.bench_function(BenchmarkId::new("sweep", &cell), |b| {
            b.iter(|| {
                let mut v = input.clone();
                bitonic_merge_chunks(&mut v, lg_chunk, Direction::Ascending);
                v
            })
        });
        group.bench_function(BenchmarkId::new("per_chunk", &cell), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut v = input.clone();
                for chunk in v.chunks_mut(1 << lg_chunk) {
                    sort_bitonic_with_scratch(chunk, &mut scratch, Direction::Ascending);
                }
                v
            })
        });
    }
    group.finish();
}

fn bench_merge_chunks(c: &mut Criterion) {
    local_sorts::dispatch::ensure_calibrated();
    merge_chunk_cells::<u32>(c);
    merge_chunk_cells::<u64>(c);
    merge_chunk_cells::<u128>(c);
}

criterion_group!(benches, bench_local_kernels, bench_merge_chunks);
criterion_main!(benches);
