//! Kernel-level properties of the branch-free local-phase kernels
//! (`local_sorts::kernels`) and their dispatch layer:
//!
//! * **oracle equivalence** — every kernel and both dispatched entry
//!   points agree with `slice::sort_unstable` for every `RadixKey` type,
//!   in both directions, at adversarial lengths (empty, singleton,
//!   non-powers-of-two, all-equal, saturated);
//! * **comparator-sequence purity** — the number of key comparisons a
//!   network kernel performs is a function of the input *length* alone
//!   (the oblivious-execution precondition), and matches the closed-form
//!   counts `sort_ce_count` / `merge_ce_count`;
//! * **step-major chunk merges** — the one-sweep merge of a slice of
//!   bitonic chunks equals merging each chunk alone, with exactly
//!   `(n/2) · lg_chunk` comparisons;
//! * **dispatch semantics** — the force override and the threshold table
//!   select the kernels they claim to;
//! * **wide service words** — the dispatched sort of the service's u64
//!   tagged words and `W192` record words (a comparison sort above the
//!   network crossover) equals `sort_unstable` and the radix sort bit for
//!   bit, in both directions.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt::Debug;

use bitonic_core::algorithms::{run_parallel_sort, Algorithm};
use bitonic_core::local::LocalStrategy;
use bitonic_core::tagged::{RecordBatch, TaggedBatch};
use local_sorts::bitonic_merge::{sort_bitonic_chunks_with_scratch, sort_circular_with_scratch};
use local_sorts::dispatch::{self, select_merge_kernel, select_sort_kernel, set_force};
use local_sorts::kernels::{
    bitonic_merge_chunks, bitonic_merge_iterative, bitonic_sort_iterative,
    bitonic_sort_iterative_any, merge_ce_count, sort_ce_count,
};
use local_sorts::radix::radix_sort_with_scratch;
use local_sorts::{
    local_sort_with_scratch, sort_bitonic_with_scratch, Direction, ForceKernel, Kernel, RadixKey,
    W192,
};
use proptest::prelude::*;
use spmd::MessageMode;

// ---------------------------------------------------------------------------
// Oracle equivalence

/// Sort `v` with the network kernel and the dispatched entry point and
/// compare both against the standard library.
fn sort_oracle<K: RadixKey + Debug>(mut v: Vec<K>, descending: bool) {
    let dir = if descending {
        Direction::Descending
    } else {
        Direction::Ascending
    };
    let mut expect = v.clone();
    expect.sort_unstable();
    if descending {
        expect.reverse();
    }

    let mut scratch = Vec::new();
    let mut net = v.clone();
    bitonic_sort_iterative_any(&mut net, &mut scratch, dir);
    assert_eq!(net, expect, "network sort, n={} {dir:?}", v.len());

    // Whatever kernel the table picks must give the same answer.
    local_sort_with_scratch(&mut v, &mut scratch, dir);
    assert_eq!(v, expect, "dispatched sort {dir:?}");
}

/// Shape `v` into a rotated mountain (a circular bitonic sequence), then
/// check every merge kernel and the dispatched merge against the oracle.
fn merge_oracle<K: RadixKey + Debug>(mut v: Vec<K>, rot: usize, descending: bool) {
    let n = v.len();
    if n > 1 {
        let peak = n / 2;
        v[..peak].sort_unstable();
        v[peak..].sort_unstable_by(|a, b| b.cmp(a));
        v.rotate_left(rot % n);
    }
    let dir = if descending {
        Direction::Descending
    } else {
        Direction::Ascending
    };
    let mut expect = v.clone();
    expect.sort_unstable();
    if descending {
        expect.reverse();
    }

    let mut scratch = Vec::new();
    let mut d = v.clone();
    sort_bitonic_with_scratch(&mut d, &mut scratch, dir);
    assert_eq!(d, expect, "dispatched merge, n={n} rot={rot} {dir:?}");

    if n.is_power_of_two() {
        let mut m = v.clone();
        bitonic_merge_iterative(&mut m, dir);
        assert_eq!(m, expect, "network merge, n={n} rot={rot} {dir:?}");
    }

    sort_circular_with_scratch(&mut v, &mut scratch, dir);
    assert_eq!(v, expect, "circular merge, n={n} rot={rot} {dir:?}");
}

macro_rules! oracle_suite {
    ($mod_name:ident, $ty:ty) => {
        mod $mod_name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig::with_cases(48))]

                #[test]
                fn full_sort_matches_oracle(
                    v in proptest::collection::vec(any::<$ty>(), 0..300),
                    descending in any::<bool>(),
                ) {
                    sort_oracle(v, descending);
                }

                #[test]
                fn bitonic_merge_matches_oracle(
                    v in proptest::collection::vec(any::<$ty>(), 0..300),
                    rot in any::<usize>(),
                    descending in any::<bool>(),
                ) {
                    merge_oracle(v, rot, descending);
                }
            }

            #[test]
            fn adversarial_lengths_and_values() {
                for n in [0usize, 1, 2, 3, 5, 31, 33, 255, 257] {
                    for descending in [false, true] {
                        // All-equal saturated keys: every compare-exchange
                        // ties, padding picks the same extreme.
                        sort_oracle(vec![<$ty>::MAX; n], descending);
                        sort_oracle(vec![<$ty>::MIN; n], descending);
                        merge_oracle(vec![<$ty>::MAX; n], n / 2, descending);
                        // A deterministic spread including both extremes.
                        let spread: Vec<$ty> = (0..n)
                            .map(|i| {
                                if i % 3 == 0 {
                                    <$ty>::MAX
                                } else if i % 3 == 1 {
                                    <$ty>::MIN
                                } else {
                                    <$ty>::MAX / 2
                                }
                            })
                            .collect();
                        sort_oracle(spread.clone(), descending);
                        merge_oracle(spread, 1, descending);
                    }
                }
            }
        }
    };
}

oracle_suite!(u16_keys, u16);
oracle_suite!(u32_keys, u32);
oracle_suite!(u64_keys, u64);
oracle_suite!(u128_keys, u128);
oracle_suite!(i32_keys, i32);
oracle_suite!(i64_keys, i64);

// ---------------------------------------------------------------------------
// Step-major chunk merges

/// Key types the chunk-merge tests synthesize from a 64-bit draw.
trait ChunkKey: Ord + Copy + Debug {
    fn from_draw(x: u64) -> Self;
}
impl ChunkKey for u32 {
    fn from_draw(x: u64) -> Self {
        x as u32
    }
}
impl ChunkKey for u64 {
    fn from_draw(x: u64) -> Self {
        x
    }
}
impl ChunkKey for u128 {
    fn from_draw(x: u64) -> Self {
        (u128::from(x) << 64) | u128::from(x.rotate_left(17))
    }
}
impl ChunkKey for W192 {
    fn from_draw(x: u64) -> Self {
        W192 {
            hi: x >> 3,
            mid: x.rotate_left(29),
            lo: x,
        }
    }
}

/// `count` chunks of `2^lg_chunk` keys, each a rotated mountain (a
/// circular bitonic sequence). `mode` 0 draws distinct-ish keys, 1 draws
/// from four values, 2 makes every key equal.
fn bitonic_chunks<K: ChunkKey>(lg_chunk: u32, count: usize, seed: u64, mode: u8) -> Vec<K> {
    let chunk = 1usize << lg_chunk;
    let mut x = seed | 1;
    let mut draw = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match mode {
            0 => x >> 11,
            1 => (x >> 40) % 4,
            _ => 7,
        }
    };
    let mut v: Vec<K> = (0..chunk * count).map(|_| K::from_draw(draw())).collect();
    for (i, c) in v.chunks_mut(chunk).enumerate() {
        let peak = chunk / 2;
        c[..peak].sort_unstable();
        c[peak..].sort_unstable_by(|a, b| b.cmp(a));
        c.rotate_left((seed as usize).wrapping_add(i * 7) % chunk);
    }
    v
}

/// The one-sweep chunk merge, the dispatched chunk merge and per-chunk
/// `sort_bitonic_with_scratch` agree, and every chunk is sorted in `dir`.
fn chunk_merge_oracle<K: ChunkKey>(
    lg_chunk: u32,
    count: usize,
    seed: u64,
    mode: u8,
    dir: Direction,
) {
    let input = bitonic_chunks::<K>(lg_chunk, count, seed, mode);
    let chunk = 1usize << lg_chunk;
    let mut scratch = Vec::new();
    let mut expect = input.clone();
    for c in expect.chunks_mut(chunk) {
        sort_bitonic_with_scratch(c, &mut scratch, dir);
    }
    for c in expect.chunks(chunk) {
        let mut sorted = c.to_vec();
        sorted.sort_unstable();
        if dir == Direction::Descending {
            sorted.reverse();
        }
        assert_eq!(c, &sorted[..], "per-chunk merge, lg_chunk={lg_chunk}");
    }
    let mut swept = input.clone();
    bitonic_merge_chunks(&mut swept, lg_chunk, dir);
    assert_eq!(
        swept, expect,
        "sweep, lg_chunk={lg_chunk} mode={mode} {dir:?}"
    );
    let mut dispatched = input;
    sort_bitonic_chunks_with_scratch(&mut dispatched, lg_chunk, &mut scratch, dir);
    assert_eq!(
        dispatched, expect,
        "dispatched, lg_chunk={lg_chunk} mode={mode} {dir:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every chunk size 2^0..=2^12, both directions, distinct,
    /// duplicate-heavy and all-equal keys, at every key width.
    #[test]
    fn chunk_sweep_equals_per_chunk_merges(seed in any::<u64>(), count in 1usize..5) {
        for lg_chunk in 0..=12u32 {
            for dir in [Direction::Ascending, Direction::Descending] {
                for mode in 0..3u8 {
                    chunk_merge_oracle::<u32>(lg_chunk, count, seed, mode, dir);
                    chunk_merge_oracle::<u64>(lg_chunk, count, seed, mode, dir);
                    chunk_merge_oracle::<u128>(lg_chunk, count, seed, mode, dir);
                    chunk_merge_oracle::<W192>(lg_chunk, count, seed, mode, dir);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Comparator-sequence purity

thread_local! {
    static COMPARES: Cell<u64> = const { Cell::new(0) };
}

/// A key whose every comparison bumps a thread-local counter, exposing
/// the comparator sequence length of the kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Counted(u64);

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARES.with(|c| c.set(c.get() + 1));
        self.0.cmp(&other.0)
    }
}

fn compares_during(f: impl FnOnce()) -> u64 {
    COMPARES.with(|c| c.set(0));
    f();
    COMPARES.with(|c| c.get())
}

fn counted_keys(n: usize, seed: u64) -> Vec<Counted> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Counted(x >> 16)
        })
        .collect()
}

#[test]
fn sort_network_compare_count_is_pure() {
    for lg in 0..=9u32 {
        let n = 1usize << lg;
        for dir in [Direction::Ascending, Direction::Descending] {
            for seed in [1u64, 99, 12345] {
                let mut v = counted_keys(n, seed);
                let count = compares_during(|| bitonic_sort_iterative(&mut v, dir));
                assert_eq!(
                    count,
                    sort_ce_count(n),
                    "n={n} {dir:?} seed={seed}: data leaked into the comparator sequence"
                );
            }
        }
    }
}

#[test]
fn merge_network_compare_count_is_pure() {
    for lg in 1..=10u32 {
        let n = 1usize << lg;
        for dir in [Direction::Ascending, Direction::Descending] {
            for seed in [2u64, 77] {
                // Any input is fine for counting: the sequence of compared
                // addresses must not depend on the values at all.
                let mut v = counted_keys(n, seed);
                let count = compares_during(|| bitonic_merge_iterative(&mut v, dir));
                assert_eq!(count, merge_ce_count(n), "n={n} {dir:?} seed={seed}");
            }
        }
    }
}

#[test]
fn chunk_sweep_compare_count_is_pure() {
    for lg_chunk in 0..=10u32 {
        for n in [1usize << lg_chunk, 4 << lg_chunk] {
            for dir in [Direction::Ascending, Direction::Descending] {
                for seed in [5u64, 808] {
                    let mut v = counted_keys(n, seed);
                    let count = compares_during(|| bitonic_merge_chunks(&mut v, lg_chunk, dir));
                    assert_eq!(
                        count,
                        (n as u64 / 2) * u64::from(lg_chunk),
                        "n={n} lg_chunk={lg_chunk} {dir:?} seed={seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn padded_sort_compare_count_is_pure() {
    // Non-power-of-two lengths add a pad-element scan (n − 1 compares)
    // before the network on ⌈n⌉₂ keys; still a pure function of n.
    for n in [3usize, 5, 100, 257] {
        for dir in [Direction::Ascending, Direction::Descending] {
            let expect = (n as u64 - 1) + sort_ce_count(n.next_power_of_two());
            for seed in [3u64, 41, 5000] {
                let mut v = counted_keys(n, seed);
                let mut scratch = Vec::new();
                let count =
                    compares_during(|| bitonic_sort_iterative_any(&mut v, &mut scratch, dir));
                assert_eq!(count, expect, "n={n} {dir:?} seed={seed}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch semantics

/// Force override and table boundaries, in one test because both read the
/// process-global dispatch state (concurrent oracle tests stay correct
/// under any force, but only this test asserts *which* kernel is picked).
#[test]
fn force_overrides_table_then_auto_restores_boundaries() {
    set_force(ForceKernel::Bitonic);
    assert_eq!(select_sort_kernel::<u64>(1 << 20), Kernel::BitonicNetwork);
    assert_eq!(select_merge_kernel::<u64>(1 << 20), Kernel::NetworkMerge);
    // The comparator network's power-of-two precondition outranks a force.
    assert_eq!(select_merge_kernel::<u64>(100), Kernel::CircularMerge);

    set_force(ForceKernel::Radix);
    assert_eq!(select_sort_kernel::<u64>(2), Kernel::Radix);
    assert_eq!(select_sort_kernel::<W192>(1 << 20), Kernel::Radix);
    assert_eq!(select_merge_kernel::<u64>(4), Kernel::CircularMerge);

    set_force(ForceKernel::Auto);
    let table = dispatch::current();
    let max = table.sort_bitonic_max_lg[dispatch::width_class::<u64>()];
    assert_eq!(
        select_sort_kernel::<u64>(1 << max),
        Kernel::BitonicNetwork,
        "at the threshold the network must be chosen"
    );
    assert_eq!(
        select_sort_kernel::<u64>(1 << (max + 1)),
        Kernel::Comparison,
        "one class above the threshold a u64 sort must be a comparison sort"
    );
    let max32 = table.sort_bitonic_max_lg[dispatch::width_class::<u32>()];
    assert_eq!(
        select_sort_kernel::<u32>(1 << max32),
        Kernel::BitonicNetwork,
        "at the u32 threshold the network must be chosen"
    );
    assert_eq!(
        select_sort_kernel::<u32>(1 << (max32 + 1)),
        Kernel::Radix,
        "one class above the threshold a u32 sort must be radix"
    );
    let mmax = table.merge_network_max_lg[dispatch::width_class::<u64>()];
    assert_eq!(select_merge_kernel::<u64>(1 << mmax), Kernel::NetworkMerge);
    assert_eq!(
        select_merge_kernel::<u64>(1 << (mmax + 1)),
        Kernel::CircularMerge
    );

    chunk_merges_follow_the_force();
    forced_radix_and_auto_sort_identically();
}

/// The tally a dispatched chunk merge of `count` chunks of `2^lg_chunk`
/// keys leaves behind.
fn chunk_merge_tally(lg_chunk: u32, count: usize) -> Vec<(&'static str, u64)> {
    let mut v = bitonic_chunks::<u64>(lg_chunk, count, 3, 0);
    let mut scratch = Vec::new();
    dispatch::clear_tally();
    sort_bitonic_chunks_with_scratch(&mut v, lg_chunk, &mut scratch, Direction::Ascending);
    dispatch::take_tally()
}

/// Called from the force test, which owns the process-global force.
fn chunk_merges_follow_the_force() {
    let sweep_max = dispatch::CHUNK_SWEEP_MAX_LG;
    set_force(ForceKernel::Radix);
    assert_eq!(chunk_merge_tally(1, 32), vec![("circular_merge", 32)]);
    set_force(ForceKernel::Bitonic);
    assert_eq!(
        chunk_merge_tally(sweep_max + 4, 3),
        vec![("network_merge", 3)]
    );
    set_force(ForceKernel::Auto);
    assert_eq!(chunk_merge_tally(sweep_max, 5), vec![("network_merge", 5)]);
    assert_eq!(chunk_merge_tally(0, 5), vec![]);
    let above = chunk_merge_tally(sweep_max + 1, 5);
    let kernel = select_merge_kernel::<u64>(1 << (sweep_max + 1));
    assert_eq!(
        above,
        vec![(kernel.name(), 5)],
        "one dispatched merge per chunk"
    );
}

/// A whole smart sort gives the same output under forced-radix (the
/// seed's per-chunk circular merges) and auto (step-major sweeps), with
/// the same number of merges per rank. Called from the force test.
fn forced_radix_and_auto_sort_identically() {
    let p = 4;
    let mut x = 0x2545_F491u64;
    let keys: Vec<u32> = (0..1usize << 13)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if i % 3 == 0 {
                (x >> 60) as u32
            } else {
                (x >> 33) as u32
            }
        })
        .collect();
    let mut expect = keys.clone();
    expect.sort_unstable();
    let run = |force: ForceKernel| {
        set_force(force);
        let run = run_parallel_sort(
            &keys,
            p,
            MessageMode::Long,
            Algorithm::Smart,
            LocalStrategy::Merges,
        );
        set_force(ForceKernel::Auto);
        let merges: Vec<(u64, u64)> = run
            .ranks
            .iter()
            .map(|r| {
                let calls = |name: &str| -> u64 {
                    r.stats
                        .local_kernels
                        .iter()
                        .filter(|(k, _)| *k == name)
                        .map(|(_, c)| c)
                        .sum()
                };
                (calls("circular_merge"), calls("network_merge"))
            })
            .collect();
        (run.output, merges)
    };
    let (radix_out, radix_merges) = run(ForceKernel::Radix);
    let (auto_out, auto_merges) = run(ForceKernel::Auto);
    assert_eq!(radix_out, expect, "forced radix");
    assert_eq!(auto_out, radix_out, "auto vs forced radix");
    for (rank, (r, a)) in radix_merges.iter().zip(&auto_merges).enumerate() {
        assert_eq!(r.1, 0, "rank {rank}: forced radix swept chunks");
        assert_eq!(
            r.0,
            a.0 + a.1,
            "rank {rank}: one merge per chunk either way"
        );
        assert!(a.1 > a.0, "rank {rank}: auto swept most chunks: {a:?}");
    }
    let (tagged, _) =
        tagged_batch(0x5EED, &[(3_000, false), (1, true), (2_500, true)]).padded_words(p);
    wide_words_sort_identically("u64 tagged", &tagged);
    let (records, _) = w192_batch(0xBA7C, &[(2_900, true), (2_100, false)]).padded_words(p);
    wide_words_sort_identically("W192 records", &records);
}

/// A whole P = 4 smart sort of 64- or 192-bit words gives the same bits
/// under forced radix (the seed: radix for every full sort) and auto,
/// whose full sorts above the network crossover are comparison sorts.
/// Called from the force test.
fn wide_words_sort_identically<K: RadixKey + Debug>(what: &str, words: &[K]) {
    let mut expect = words.to_vec();
    expect.sort_unstable();
    let run = |force: ForceKernel| {
        set_force(force);
        let run = run_parallel_sort(
            words,
            4,
            MessageMode::Long,
            Algorithm::Smart,
            LocalStrategy::Merges,
        );
        set_force(ForceKernel::Auto);
        let calls = |name: &str| -> Vec<u64> {
            run.ranks
                .iter()
                .map(|r| r.stats.kernel_count(name))
                .collect()
        };
        (run.output, calls("radix"), calls("comparison"))
    };
    let (radix_out, radix_calls, radix_cmp) = run(ForceKernel::Radix);
    let (auto_out, auto_radix, auto_cmp) = run(ForceKernel::Auto);
    assert_eq!(radix_out, expect, "{what}: forced radix");
    assert_eq!(auto_out, radix_out, "{what}: auto vs forced radix");
    assert!(
        radix_calls.iter().all(|&c| c > 0),
        "{what}: {radix_calls:?}"
    );
    assert!(radix_cmp.iter().all(|&c| c == 0), "{what}: {radix_cmp:?}");
    assert!(auto_radix.iter().all(|&c| c == 0), "{what}: {auto_radix:?}");
    assert_eq!(
        auto_cmp, radix_calls,
        "{what}: one comparison sort per radix sort"
    );
}

// ---------------------------------------------------------------------------
// Wide service words

fn direction(descending: bool) -> Direction {
    if descending {
        Direction::Descending
    } else {
        Direction::Ascending
    }
}

/// xorshift64 draws for the batch builders below.
fn draws(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// A coalesced plain batch of `(len, descending)` requests whose keys
/// repeat heavily (64 distinct values), as the warm pool encodes it.
fn tagged_batch(seed: u64, requests: &[(usize, bool)]) -> TaggedBatch {
    let mut draw = draws(seed);
    let mut batch = TaggedBatch::new();
    for &(len, descending) in requests {
        let keys: Vec<u32> = (0..len).map(|_| (draw() % 64) as u32).collect();
        batch.push(&keys, direction(descending));
    }
    batch
}

/// A record batch of `(len, descending)` u128-key requests with duplicate
/// keys (16 distinct values, set in all three limbs of the word) and
/// distinct record ids, as the record plane encodes it.
fn w192_batch(seed: u64, requests: &[(usize, bool)]) -> RecordBatch<W192> {
    let mut draw = draws(seed);
    let mut batch = RecordBatch::new();
    for &(len, descending) in requests {
        let keys: Vec<u128> = (0..len)
            .map(|_| {
                let k = draw() % 16;
                (u128::from(k) << 120) | u128::from(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        batch.push(&keys, direction(descending));
    }
    batch
}

/// The dispatched sort of `words` equals `sort_unstable` and the seed's
/// radix sort, bit for bit, in both directions.
fn wide_sort_oracle<K: RadixKey + Debug>(words: &[K]) {
    let mut expect = words.to_vec();
    expect.sort_unstable();
    let mut by_radix = words.to_vec();
    radix_sort_with_scratch(&mut by_radix, &mut Vec::new());
    assert_eq!(by_radix, expect, "radix");
    let mut scratch = Vec::new();
    for dir in [Direction::Ascending, Direction::Descending] {
        if dir == Direction::Descending {
            expect.reverse();
        }
        let mut v = words.to_vec();
        local_sort_with_scratch(&mut v, &mut scratch, dir);
        assert_eq!(
            v,
            expect,
            "dispatched sort of {} words, {dir:?}",
            words.len()
        );
    }
}

/// Up to five requests of up to 1,500 keys each, in either direction.
fn request_shapes() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0usize..1_500, any::<bool>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tagged u64 batches with `u64::MAX` padding, padded for P = 1..8.
    #[test]
    fn dispatched_sort_of_tagged_words_matches_oracle(
        seed in any::<u64>(),
        requests in request_shapes(),
        lg_p in 0u32..4,
    ) {
        let (words, _) = tagged_batch(seed, &requests).padded_words(1 << lg_p);
        wide_sort_oracle(&words);
    }

    /// `W192` record words: duplicate keys, distinct record ids, padding.
    #[test]
    fn dispatched_sort_of_w192_record_words_matches_oracle(
        seed in any::<u64>(),
        requests in request_shapes(),
        lg_p in 0u32..4,
    ) {
        let (words, _) = w192_batch(seed, &requests).padded_words(1 << lg_p);
        wide_sort_oracle(&words);
    }
}
