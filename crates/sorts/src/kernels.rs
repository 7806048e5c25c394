//! Branch-free iterative compare-exchange kernels.
//!
//! The recursive formulation of the bitonic network (and the recursive
//! `osort`-style oblivious sorts it inspired) spends its time on call
//! overhead and data-dependent branches. These kernels run the same
//! comparator network as an **iterative stage/step loop** — two nested
//! counters instead of a call tree — and perform every compare-exchange
//! with a conditional *select* (`if swap { b } else { a }`), which the
//! compiler lowers to `cmov`/min/max instructions on integer keys. No
//! data-dependent branch is taken anywhere in a kernel, so
//!
//! * the branch predictor never sees the keys (pure throughput on random
//!   data, where a predicted compare-exchange mispredicts ~50% of the
//!   time), and
//! * the sequence of compared addresses is a pure function of the input
//!   *length* — the oblivious-execution precondition (property-tested in
//!   `tests/kernels.rs`).
//!
//! Direction is folded into the block parity test (`(base & k) == 0`),
//! which depends only on indices, so descending sorts cost exactly the
//! same comparator sequence as ascending ones.

use bitonic_network::Direction;

/// One ascending compare-exchange: afterwards `data[i] <= data[j]`.
///
/// Written as two conditional selects rather than a branch-plus-swap so
/// integer instantiations compile to branchless min/max.
#[inline(always)]
fn ce_asc<T: Ord + Copy>(data: &mut [T], i: usize, j: usize) {
    let a = data[i];
    let b = data[j];
    let swap = b < a;
    data[i] = if swap { b } else { a };
    data[j] = if swap { a } else { b };
}

/// One descending compare-exchange: afterwards `data[i] >= data[j]`.
#[inline(always)]
fn ce_desc<T: Ord + Copy>(data: &mut [T], i: usize, j: usize) {
    let a = data[i];
    let b = data[j];
    let swap = a < b;
    data[i] = if swap { b } else { a };
    data[j] = if swap { a } else { b };
}

/// Run the `lg k` comparator levels of a width-`k` merge stage over every
/// `k`-block of `data`, blocks alternating direction starting with `dir`.
///
/// `data.len()` and `k` must be powers of two with `k <= data.len()`.
fn merge_stage<T: Ord + Copy>(data: &mut [T], k: usize, dir: Direction) {
    let n = data.len();
    let asc = dir == Direction::Ascending;
    let mut j = k >> 1;
    while j > 0 {
        let mut base = 0;
        while base < n {
            // The stage's direction bit is index bit lg k: constant across
            // a 2j-block (2j <= k), so it hoists out of the inner loop and
            // the global direction folds into the same test.
            if ((base & k) == 0) == asc {
                for i in base..base + j {
                    ce_asc(data, i, i + j);
                }
            } else {
                for i in base..base + j {
                    ce_desc(data, i, i + j);
                }
            }
            base += j << 1;
        }
        j >>= 1;
    }
}

/// Sort `data` in direction `dir` with the full iterative bitonic sorting
/// network: stages `k = 2, 4, …, n`, each running its `lg k` comparator
/// levels. In place, no allocation, no data-dependent branches;
/// `O(n lg² n)` compare-exchanges (exactly [`sort_ce_count`]`(n)` of
/// them).
///
/// # Panics
/// Panics if `data.len()` is not a power of two (use
/// [`bitonic_sort_iterative_any`] for arbitrary lengths).
pub fn bitonic_sort_iterative<T: Ord + Copy>(data: &mut [T], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "iterative bitonic sort needs a power-of-two length, got {n}"
    );
    let mut k = 2;
    while k <= n {
        merge_stage(data, k, dir);
        k <<= 1;
    }
}

/// Sort the bitonic sequence `data` (any cyclic shift) in direction `dir`
/// with the iterative merge network alone: the single `k = n` stage, `lg n`
/// comparator levels, `O(n lg n)` compare-exchanges, in place with no
/// allocation and no data-dependent branches.
///
/// This is the branch-free alternative to the `O(n)` circular merge sort
/// of `bitonic_merge`: asymptotically slower, but with no minimum search,
/// no scratch traffic, and no branches — faster on small arrays (the
/// dispatch table in [`crate::dispatch`] picks the crossover).
///
/// # Panics
/// Panics if `data.len()` is not a power of two.
pub fn bitonic_merge_iterative<T: Ord + Copy>(data: &mut [T], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(
        n.is_power_of_two(),
        "iterative bitonic merge needs a power-of-two length, got {n}"
    );
    merge_stage(data, n, dir);
}

/// Branch-free ascending compare-exchange of every pair `(lo[i], hi[i])`:
/// afterwards `lo[i] <= hi[i]`.
#[inline(always)]
fn ce_halves<T: Ord + Copy>(lo: &mut [T], hi: &mut [T]) {
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let (a, b) = (*x, *y);
        let swap = b < a;
        *x = if swap { b } else { a };
        *y = if swap { a } else { b };
    }
}

/// Sort every `2^lg_chunk`-key bitonic chunk of `data` in direction `dir`
/// by running the chunk merge network **step-major**: each of its
/// `lg_chunk` comparator levels sweeps the whole slice before the next
/// one starts, as GPU bitonic sorts run one comparator step across all
/// blocks at once.
///
/// Every level is a pass over the `split_at_mut` halves of each
/// `2d`-block, so the chunk count costs no dispatch, no tally, no
/// minimum search and no scratch. The result is what
/// [`bitonic_merge_iterative`] gives on each chunk alone, from exactly
/// `(n/2) · lg_chunk` compare-exchanges.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `2^lg_chunk`.
pub fn bitonic_merge_chunks<T: Ord + Copy>(data: &mut [T], lg_chunk: u32, dir: Direction) {
    let chunk = 1usize << lg_chunk;
    assert!(
        data.len().is_multiple_of(chunk),
        "chunked merge needs a multiple of the chunk length {chunk}, got {}",
        data.len()
    );
    let mut d = chunk >> 1;
    while d > 0 {
        for block in data.chunks_exact_mut(d << 1) {
            let (lo, hi) = block.split_at_mut(d);
            // Descending swaps the halves' roles: the minimum goes high.
            match dir {
                Direction::Ascending => ce_halves(lo, hi),
                Direction::Descending => ce_halves(hi, lo),
            }
        }
        d >>= 1;
    }
}

/// Sort `data` of **any** length with the iterative network, padding
/// through `scratch` to the next power of two when necessary.
///
/// Padding uses the array's own extreme element (maximum for ascending,
/// minimum for descending), so the padded suffix sorts to the far end and
/// the first `data.len()` slots of the sorted scratch are exactly the
/// input multiset. Power-of-two inputs skip the copy and sort in place.
/// The comparator sequence (including the extreme scan) remains a pure
/// function of `data.len()` and `dir`.
pub fn bitonic_sort_iterative_any<T: Ord + Copy>(
    data: &mut [T],
    scratch: &mut Vec<T>,
    dir: Direction,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        bitonic_sort_iterative(data, dir);
        return;
    }
    let m = n.next_power_of_two();
    let pad = match dir {
        Direction::Ascending => *data.iter().max().expect("n > 1"),
        Direction::Descending => *data.iter().min().expect("n > 1"),
    };
    scratch.clear();
    scratch.reserve(m);
    scratch.extend_from_slice(data);
    scratch.resize(m, pad);
    bitonic_sort_iterative(scratch, dir);
    data.copy_from_slice(&scratch[..n]);
}

/// Exact number of compare-exchanges [`bitonic_sort_iterative`] performs
/// on a power-of-two length `n`: `(n/2) · lg n · (lg n + 1) / 2`.
#[must_use]
pub fn sort_ce_count(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let lg = u64::from(n.trailing_zeros());
    (n as u64 / 2) * lg * (lg + 1) / 2
}

/// Exact number of compare-exchanges [`bitonic_merge_iterative`] performs
/// on a power-of-two length `n`: `(n/2) · lg n`.
#[must_use]
pub fn merge_ce_count(n: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    (n as u64 / 2) * u64::from(n.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitonic_network::sequence::{generate, is_sorted};
    use proptest::prelude::*;

    fn keys(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 16
            })
            .collect()
    }

    #[test]
    fn sorts_random_power_of_two_inputs() {
        for lg in 0..=10u32 {
            let n = 1usize << lg;
            for dir in [Direction::Ascending, Direction::Descending] {
                let mut v = keys(n, u64::from(lg) + 1);
                let mut expect = v.clone();
                expect.sort_unstable();
                if dir == Direction::Descending {
                    expect.reverse();
                }
                bitonic_sort_iterative(&mut v, dir);
                assert_eq!(v, expect, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn merge_sorts_rotated_bitonic_inputs() {
        for lg in 1..=9u32 {
            let n = 1usize << lg;
            let m = generate::distinct_mountain(n, n / 3);
            for shift in [0, 1, n / 2, n - 1] {
                let mut input = m.clone();
                bitonic_network::sequence::rotate_left(&mut input, shift);
                for dir in [Direction::Ascending, Direction::Descending] {
                    let mut v = input.clone();
                    bitonic_merge_iterative(&mut v, dir);
                    assert!(is_sorted(&v, dir), "n={n} shift={shift} {dir:?}: {v:?}");
                }
            }
        }
    }

    #[test]
    fn any_length_pads_correctly() {
        for n in [0usize, 1, 2, 3, 5, 17, 100, 255, 257] {
            for dir in [Direction::Ascending, Direction::Descending] {
                let mut v = keys(n, n as u64 + 7);
                let mut expect = v.clone();
                expect.sort_unstable();
                if dir == Direction::Descending {
                    expect.reverse();
                }
                let mut scratch = Vec::new();
                bitonic_sort_iterative_any(&mut v, &mut scratch, dir);
                assert_eq!(v, expect, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn all_equal_and_saturated() {
        let mut v = vec![u64::MAX; 64];
        bitonic_sort_iterative(&mut v, Direction::Ascending);
        assert!(v.iter().all(|&x| x == u64::MAX));
        let mut v = vec![7u64; 33];
        let mut scratch = Vec::new();
        bitonic_sort_iterative_any(&mut v, &mut scratch, Direction::Descending);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn ce_count_formulas() {
        assert_eq!(sort_ce_count(1), 0);
        assert_eq!(sort_ce_count(2), 1);
        assert_eq!(sort_ce_count(4), 6);
        assert_eq!(sort_ce_count(8), 24);
        assert_eq!(merge_ce_count(8), 12);
        assert_eq!(merge_ce_count(1), 0);
    }

    proptest! {
        #[test]
        fn matches_std_sort(
            mut v in proptest::collection::vec(any::<u32>(), 0..300),
            descending in any::<bool>(),
        ) {
            let dir = if descending { Direction::Descending } else { Direction::Ascending };
            let mut expect = v.clone();
            expect.sort_unstable();
            if descending { expect.reverse(); }
            let mut scratch = Vec::new();
            bitonic_sort_iterative_any(&mut v, &mut scratch, dir);
            prop_assert_eq!(v, expect);
        }
    }
}
