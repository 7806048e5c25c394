//! LSD radix sort — the general-purpose local sort of the thesis.
//!
//! "For the first `lg n` stages since the keys are in a specified range we
//! used radix-sort which also takes `O(n)` time" (Section 4.4). This is a
//! classic least-significant-digit counting sort with 8-bit digits and a
//! double buffer. One read of the input counts every digit of every pass,
//! and a pass is skipped when all keys share its digit.

use crate::RadixKey;

/// Sort `data` ascending, stably, in `O(passes · n)` time.
///
/// Allocates one scratch buffer of `data.len()` elements; use
/// [`radix_sort_with_scratch`] to amortize that allocation across calls.
pub fn radix_sort<K: RadixKey>(data: &mut [K]) {
    let mut scratch = data.to_vec();
    radix_sort_with_scratch(data, &mut scratch);
}

/// Sort `data` ascending using `scratch` as the ping-pong buffer.
///
/// `scratch` is resized to `data.len()` if needed; its prior contents are
/// irrelevant.
pub fn radix_sort_with_scratch<K: RadixKey>(data: &mut [K], scratch: &mut Vec<K>) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Every pass that runs writes all of its destination, so the copy is
    // not needed for correctness. It stays because its sequential write
    // brings `scratch` into cache before the first scatter's random
    // writes: without it a 2^17-key u32 sort measured 7–10% slower.
    scratch.clear();
    scratch.extend_from_slice(data);

    const RADIX: usize = 256;
    // A pass permutes the keys but never changes how many share a digit,
    // so one read of the input yields the histogram of every pass.
    let mut counts = vec![[0usize; RADIX]; K::PASSES as usize];
    for &k in data.iter() {
        for (pass, bucket) in counts.iter_mut().enumerate() {
            bucket[k.digit(pass as u32)] += 1;
        }
    }

    // Ping-pong between `data` and `scratch`; track which holds the current
    // ordering so we can copy back at the end if necessary.
    let mut src_is_data = true;
    for (pass, bucket) in counts.iter_mut().enumerate() {
        // All keys share this digit: the pass is the identity, skip it.
        if bucket.contains(&n) {
            continue;
        }
        // Exclusive prefix sums give the first output slot of each bucket.
        let mut sum = 0usize;
        for c in bucket.iter_mut() {
            let here = *c;
            *c = sum;
            sum += here;
        }
        let (src, dst): (&mut [K], &mut [K]) = if src_is_data {
            (data, &mut scratch[..])
        } else {
            (&mut scratch[..], data)
        };
        for &k in src.iter() {
            let d = k.digit(pass as u32);
            dst[bucket[d]] = k;
            bucket[d] += 1;
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_small_vectors() {
        let mut v: Vec<u32> = vec![170, 45, 75, 90, 2, 802, 2, 66];
        radix_sort(&mut v);
        assert_eq!(v, vec![2, 2, 45, 66, 75, 90, 170, 802]);
    }

    #[test]
    fn sorts_u64_full_range() {
        let mut v: Vec<u64> = vec![u64::MAX, 0, 1, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        radix_sort(&mut v);
        assert_eq!(
            v,
            vec![0, 1, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX]
        );
    }

    #[test]
    fn empty_and_singleton() {
        let mut v: Vec<u32> = vec![];
        radix_sort(&mut v);
        assert!(v.is_empty());
        let mut v = vec![7u32];
        radix_sort(&mut v);
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn all_equal_uses_skip_path() {
        let mut v = vec![42u32; 1000];
        radix_sort(&mut v);
        assert!(v.iter().all(|&x| x == 42));
    }

    #[test]
    fn already_sorted_input() {
        let mut v: Vec<u32> = (0..1024).collect();
        let expect = v.clone();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn reverse_sorted_input() {
        let mut v: Vec<u32> = (0..1024).rev().collect();
        radix_sort(&mut v);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scratch_reuse_across_calls() {
        let mut scratch = Vec::new();
        for round in 0..4u32 {
            let mut v: Vec<u32> = (0..257).map(|i| (i * 7919 + round) % 1031).collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort_with_scratch(&mut v, &mut scratch);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn stale_scratch_of_any_length_is_harmless() {
        // Keys whose low byte is constant skip pass 0, and three running
        // passes leave the result in scratch, forcing the copy-back.
        let v: Vec<u32> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) & !0xFF) | 0x5A)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        for stale_len in [0, 7, v.len(), v.len() + 9] {
            let mut scratch = vec![u32::MAX; stale_len];
            let mut w = v.clone();
            radix_sort_with_scratch(&mut w, &mut scratch);
            assert_eq!(w, expect, "stale scratch of length {stale_len}");
            assert_eq!(scratch.len(), v.len());
        }
    }

    #[test]
    fn thesis_key_range_31_bits() {
        // Keys are drawn from [0, 2^31) in the thesis experiments; the top
        // pass must then be a skipped identity pass for many inputs.
        let mut v: Vec<u32> = (0..4096u32)
            .map(|i| i.wrapping_mul(2654435761) & 0x7FFF_FFFF)
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    proptest! {
        #[test]
        fn matches_std_sort_u32(mut v in proptest::collection::vec(any::<u32>(), 0..2000)) {
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort(&mut v);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn matches_std_sort_u64(mut v in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort(&mut v);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn low_entropy_inputs(mut v in proptest::collection::vec(0u32..4, 0..300)) {
            let mut expect = v.clone();
            expect.sort_unstable();
            radix_sort(&mut v);
            prop_assert_eq!(v, expect);
        }
    }
}
