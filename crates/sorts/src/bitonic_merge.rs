//! The `O(n)` bitonic merge sort of Section 4.2, in a branch-free layout.
//!
//! "For a bitonic input sequence, the fastest way to sort it is to use a
//! merge sort instead of simulating the last stage of a bitonic sorting
//! network. This consists of two phases: first the minimum element of the
//! bitonic sequence is found, and second we use mergesort to merge the keys
//! to the left and right of the minimum."
//!
//! Viewed circularly, the keys starting at the minimum and walking forward
//! form one ascending run, and the keys walking *backward* from the minimum
//! form the other (Lemma 9: `O(n)` vs `O(n log n)` for the comparator
//! network). Instead of chasing both pointers around the circle with two
//! `%` reductions and an `i == j` exit test per element, we **rotate-copy**
//! the circle into scratch so the minimum sits at slot 0 — the sequence is
//! then a mountain: one ascending run from the front, one (reversed) from
//! the back — and run a classic converging two-pointer merge whose per-key
//! work is one comparison, one conditional select, and two index bumps, all
//! branchless. The pointers satisfy `emitted = i + (n-1-j)`, so they meet
//! exactly at the last emission and no bounds branch is needed.
//!
//! [`sort_bitonic_with_scratch`] additionally consults the kernel dispatch
//! table ([`crate::dispatch`]): tiny power-of-two inputs run the in-place
//! branch-free merge *network* ([`crate::kernels::bitonic_merge_iterative`])
//! instead, which beats the rotate-copy below the calibrated size class.
//! [`sort_bitonic_chunks_with_scratch`] sorts a whole slice of equal
//! bitonic chunks, sweeping small chunks step-major through the network
//! ([`crate::kernels::bitonic_merge_chunks`]) in one call.

use crate::bitonic_min::bitonic_min_index;
use crate::dispatch::{self, Kernel};
use crate::kernels::{bitonic_merge_chunks, bitonic_merge_iterative};
use bitonic_network::Direction;

/// Sort the bitonic sequence `data` in place, in direction `dir`.
///
/// Allocates a scratch buffer; use [`sort_bitonic_with_scratch`] in hot
/// loops. The result is unspecified if `data` is not bitonic (use
/// [`bitonic_network::is_bitonic`] to validate in debug paths).
///
/// ```
/// use local_sorts::{sort_bitonic, Direction};
/// let mut v = vec![4, 7, 9, 6, 2, 1, 0, 3]; // bitonic (cyclic shift)
/// sort_bitonic(&mut v, Direction::Ascending);
/// assert_eq!(v, vec![0, 1, 2, 3, 4, 6, 7, 9]);
/// ```
pub fn sort_bitonic<T: Ord + Copy>(data: &mut [T], dir: Direction) {
    let mut scratch = Vec::new();
    sort_bitonic_with_scratch(data, &mut scratch, dir);
}

/// Sort the bitonic sequence `data` in place using a caller-provided
/// scratch buffer (cleared and refilled; capacity is reused), picking the
/// merge kernel from the dispatch table and counting it in the
/// thread-local kernel tally.
pub fn sort_bitonic_with_scratch<T: Ord + Copy>(
    data: &mut [T],
    scratch: &mut Vec<T>,
    dir: Direction,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let kernel = dispatch::select_merge_kernel::<T>(n);
    match kernel {
        Kernel::NetworkMerge => bitonic_merge_iterative(data, dir),
        _ => sort_circular_with_scratch(data, scratch, dir),
    }
    dispatch::bump(kernel);
}

/// Sort every `2^lg_chunk`-key bitonic chunk of `data` in direction `dir`.
///
/// Chunks at or below [`dispatch::CHUNK_SWEEP_MAX_LG`] (subject to the
/// kernel force) go through the step-major sweep
/// [`bitonic_merge_chunks`] in one call, tallied as one
/// [`Kernel::NetworkMerge`] per chunk; larger chunks are sorted one by one
/// with [`sort_bitonic_with_scratch`]. Either way the tally counts one
/// merge per chunk of two or more keys.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `2^lg_chunk`.
pub fn sort_bitonic_chunks_with_scratch<T: Ord + Copy>(
    data: &mut [T],
    lg_chunk: u32,
    scratch: &mut Vec<T>,
    dir: Direction,
) {
    let chunk = 1usize << lg_chunk;
    assert!(
        data.len().is_multiple_of(chunk),
        "chunked merge needs a multiple of the chunk length {chunk}, got {}",
        data.len()
    );
    if lg_chunk == 0 {
        return;
    }
    debug_assert!(data.chunks(chunk).all(|c| bitonic_network::is_bitonic(c)));
    if dispatch::sweeps_chunks(lg_chunk) {
        bitonic_merge_chunks(data, lg_chunk, dir);
        dispatch::bump_n(Kernel::NetworkMerge, (data.len() >> lg_chunk) as u64);
    } else {
        for c in data.chunks_mut(chunk) {
            sort_bitonic_with_scratch(c, scratch, dir);
        }
    }
}

/// The rotate-copy circular merge, unconditionally (no dispatch, no
/// tally): linearize the circle into `scratch` with the minimum first,
/// then converge two pointers over the mountain, writing straight back
/// into `data` (forward for ascending, backward for descending).
pub fn sort_circular_with_scratch<T: Ord + Copy>(
    data: &mut [T],
    scratch: &mut Vec<T>,
    dir: Direction,
) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let start = bitonic_min_index(data);
    scratch.clear();
    scratch.reserve(n);
    scratch.extend_from_slice(&data[start..]);
    scratch.extend_from_slice(&data[..start]);
    match dir {
        Direction::Ascending => merge_mountain(scratch, data.iter_mut()),
        Direction::Descending => merge_mountain(scratch, data.iter_mut().rev()),
    }
}

/// Converging branch-free merge of a mountain (minimum at slot 0): emit
/// `src.len()` keys in ascending order into `out`.
///
/// Loop invariant: `emitted = i + (src.len() - 1 - j)`, so `i == j` exactly
/// when the last key is emitted; at that point `a == b` and the front is
/// taken, so `j` never underflows. Each iteration is one comparison and
/// three conditional selects — no data-dependent branch.
fn merge_mountain<'a, T: Ord + Copy + 'a>(src: &[T], out: impl Iterator<Item = &'a mut T>) {
    let mut i = 0usize;
    let mut j = src.len() - 1;
    for slot in out {
        let a = src[i];
        let b = src[j];
        let take_front = a <= b;
        *slot = if take_front { a } else { b };
        i += usize::from(take_front);
        j -= usize::from(!take_front);
    }
}

/// Sort the bitonic sequence `src` into `out` (appended), ascending.
///
/// This is the allocation-free core used by the fused sort-and-pack path
/// of Section 4.3. It must not disturb `out`'s existing prefix, so it
/// keeps the circular walk — but with the `%` reductions replaced by
/// conditional wrap-arounds (selects) and the `i == j` exit test hoisted
/// out of the loop: the pointers meet exactly at emission `n`, so the
/// first `n − 1` iterations need no meeting test at all.
pub fn sort_bitonic_into<T: Ord + Copy>(src: &[T], out: &mut Vec<T>) {
    let n = src.len();
    if n == 0 {
        return;
    }
    let before = out.len();
    out.reserve(n);
    let start = bitonic_min_index(src);
    let mut i = start;
    let mut j = if start == 0 { n - 1 } else { start - 1 };
    for _ in 0..n - 1 {
        let a = src[i];
        let b = src[j];
        let take_i = a <= b;
        out.push(if take_i { a } else { b });
        // Conditional wrap instead of `%`: i advances (mod n) when the
        // forward run is taken, j retreats (mod n) otherwise.
        let ti = usize::from(take_i);
        i += ti;
        i = if i == n { 0 } else { i };
        j += n - 1 + ti;
        j = if j >= n { j - n } else { j };
    }
    out.push(src[i]);
    debug_assert_eq!(i, j, "pointers must meet at the maximum");
    debug_assert_eq!(out.len() - before, n, "merge must emit exactly n elements");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitonic_network::sequence::{generate, is_sorted, rotate_left};
    use bitonic_network::{bitonic_merge, is_bitonic};
    use proptest::prelude::*;

    fn check_both_directions(input: &[u64]) {
        assert!(is_bitonic(input), "precondition violated: {input:?}");
        for dir in [Direction::Ascending, Direction::Descending] {
            let mut v = input.to_vec();
            sort_bitonic(&mut v, dir);
            assert!(
                is_sorted(&v, dir),
                "not sorted {dir:?}: {v:?} from {input:?}"
            );
            let mut a = v.clone();
            let mut b = input.to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "output is not a permutation of the input");

            // The circular path must agree regardless of what dispatch picked.
            let mut c = input.to_vec();
            let mut scratch = Vec::new();
            sort_circular_with_scratch(&mut c, &mut scratch, dir);
            assert_eq!(c, v, "circular and dispatched kernels disagree");
        }
    }

    #[test]
    fn rotations_of_mountains() {
        for len in [1usize, 2, 3, 8, 17, 64] {
            let m = generate::distinct_mountain(len, len / 2);
            for shift in 0..len {
                let mut r = m.clone();
                rotate_left(&mut r, shift);
                check_both_directions(&r);
            }
        }
    }

    #[test]
    fn duplicate_heavy_inputs() {
        check_both_directions(&[1, 1, 2, 1]);
        check_both_directions(&[5, 5, 5, 5]);
        check_both_directions(&[3, 3, 7, 7, 7, 3]);
        check_both_directions(&[0, 9, 0]);
    }

    #[test]
    fn agrees_with_network_bitonic_merge() {
        // The O(n) merge sort must produce exactly what the comparator
        // butterfly produces (both are stable-free sorts of the same keys).
        for shift in [0usize, 5, 31, 63] {
            let input = generate::rotated((0..64).collect(), 40, shift);
            let mut fast = input.clone();
            sort_bitonic(&mut fast, Direction::Ascending);
            let mut reference = input;
            bitonic_merge(&mut reference, Direction::Ascending);
            assert_eq!(fast, reference);
        }
    }

    #[test]
    fn sort_into_appends() {
        let mut out = vec![99u64];
        sort_bitonic_into(&[3, 7, 5, 1], &mut out);
        assert_eq!(out, vec![99, 1, 3, 5, 7]);
    }

    #[test]
    fn sort_into_every_rotation() {
        for len in [1usize, 2, 5, 16, 33] {
            let m = generate::distinct_mountain(len, len / 3);
            for shift in 0..len {
                let mut r = m.clone();
                rotate_left(&mut r, shift);
                let mut out = Vec::new();
                sort_bitonic_into(&r, &mut out);
                assert!(is_sorted(&out, Direction::Ascending), "{r:?} -> {out:?}");
                let mut expect = r.clone();
                expect.sort_unstable();
                assert_eq!(out, expect);
            }
        }
    }

    #[test]
    fn scratch_capacity_reused() {
        let mut scratch: Vec<u64> = Vec::new();
        let mut v = generate::distinct_mountain(128, 50);
        sort_bitonic_with_scratch(&mut v, &mut scratch, Direction::Ascending);
        let cap = scratch.capacity();
        let mut v2 = generate::distinct_mountain(128, 90);
        sort_bitonic_with_scratch(&mut v2, &mut scratch, Direction::Descending);
        assert_eq!(scratch.capacity(), cap, "scratch should not reallocate");
    }

    proptest! {
        #[test]
        fn arbitrary_bitonic_sequences(
            values in proptest::collection::vec(any::<u64>(), 1..200),
            peak_frac in 0.0f64..1.0,
            shift_frac in 0.0f64..1.0,
        ) {
            let len = values.len();
            let peak = ((len as f64) * peak_frac) as usize;
            let shift = ((len as f64) * shift_frac) as usize;
            let m = generate::rotated(values, peak, shift);
            check_both_directions(&m);
        }

        #[test]
        fn low_entropy_bitonic_sequences(
            values in proptest::collection::vec(0u64..4, 1..100),
            peak_frac in 0.0f64..1.0,
            shift_frac in 0.0f64..1.0,
        ) {
            let len = values.len();
            let peak = ((len as f64) * peak_frac) as usize;
            let shift = ((len as f64) * shift_frac) as usize;
            let m = generate::rotated(values, peak, shift);
            check_both_directions(&m);
        }
    }
}
