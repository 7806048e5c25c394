//! Local computation routines of Chapter 4 (*Optimizing Computation*).
//!
//! On a coarse-grained machine each processor holds `n = N/P` keys, and the
//! thesis replaces the naive simulation of compare-exchange steps with much
//! faster local routines that exploit the special format of the data at
//! each column of the network:
//!
//! * [`radix`] — LSD radix sort, used for the first `lg n` stages and as the
//!   general-purpose local sort (Section 4.4);
//! * [`bitonic_min`] — Algorithm 2, finding the minimum of a bitonic
//!   sequence in `O(log n)` time;
//! * [`bitonic_merge`] — the `O(n)` *bitonic merge sort* of Section 4.2
//!   (find the minimum, then merge the two circular monotonic runs);
//! * [`pway_merge`] — p-way merging of the alternating sorted runs produced
//!   by the packing of long messages (Section 4.3).
//!
//! All routines support both sort directions because merge blocks of the
//! bitonic network alternate between increasing and decreasing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic_merge;
pub mod bitonic_min;
pub mod dispatch;
pub mod kernels;
pub mod merge;
pub mod pway_merge;
pub mod radix;

pub use bitonic_merge::{sort_bitonic, sort_bitonic_with_scratch};
pub use bitonic_min::bitonic_min_index;
pub use bitonic_network::Direction;
pub use dispatch::{ForceKernel, Kernel, KernelTable};
pub use radix::radix_sort;

/// An unsigned key type sortable by the LSD radix sort.
///
/// The thesis sorts uniformly distributed 31-bit keys ("random,
/// uniformly-distributed 32-bit keys … in the range 0 through 2³¹ − 1",
/// Section 5.3); we additionally support 64-bit keys.
pub trait RadixKey: Copy + Ord + Send + Sync + 'static {
    /// Number of radix passes of [`Self::DIGIT_BITS`] bits each.
    const PASSES: u32;
    /// Width of one radix digit in bits.
    const DIGIT_BITS: u32 = 8;
    /// Extract digit `pass` (0 = least significant).
    fn digit(self, pass: u32) -> usize;
}

impl RadixKey for u32 {
    const PASSES: u32 = 4;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        ((self >> (pass * Self::DIGIT_BITS)) & 0xFF) as usize
    }
}

impl RadixKey for u64 {
    const PASSES: u32 = 8;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        ((self >> (pass * Self::DIGIT_BITS)) & 0xFF) as usize
    }
}

impl RadixKey for u16 {
    const PASSES: u32 = 2;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        usize::from((self >> (pass * Self::DIGIT_BITS)) & 0xFF)
    }
}

// Wide keys (ROADMAP item 3): 16 byte-wide passes. The dispatch table
// gives u128 its own width class, where the pass count pushes the radix
// crossover far enough out that the bitonic network wins a wide band.
impl RadixKey for u128 {
    const PASSES: u32 = 16;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        ((self >> (pass * Self::DIGIT_BITS)) & 0xFF) as usize
    }
}

/// A 192-bit unsigned word: three `u64` limbs compared lexicographically
/// (`hi`, then `mid`, then `lo`).
///
/// The record-sorting layer needs one machine word wide enough to carry
/// `[tag:32][key:128][rid:32]` — a u128 key plus the batch tag and the
/// record id that threads the payload permutation through the sort. No
/// primitive holds 192 bits, so this struct does; the derived `Ord` is
/// limb-lexicographic, which is exactly unsigned 192-bit integer order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct W192 {
    /// Bits 191..128.
    pub hi: u64,
    /// Bits 127..64.
    pub mid: u64,
    /// Bits 63..0.
    pub lo: u64,
}

impl W192 {
    /// The all-ones word — sorts after every other `W192`.
    pub const MAX: W192 = W192 {
        hi: u64::MAX,
        mid: u64::MAX,
        lo: u64::MAX,
    };
}

impl RadixKey for W192 {
    const PASSES: u32 = 24;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        let limb = match pass / 8 {
            0 => self.lo,
            1 => self.mid,
            _ => self.hi,
        };
        ((limb >> ((pass % 8) * Self::DIGIT_BITS)) & 0xFF) as usize
    }
}

// Signed keys: flipping the sign bit maps i32/i64 order-preservingly onto
// u32/u64, so the same byte-wise digits sort them correctly.
impl RadixKey for i32 {
    const PASSES: u32 = 4;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        ((self as u32 ^ 0x8000_0000) >> (pass * Self::DIGIT_BITS)) as usize & 0xFF
    }
}

impl RadixKey for i64 {
    const PASSES: u32 = 8;
    #[inline]
    fn digit(self, pass: u32) -> usize {
        (((self as u64 ^ 0x8000_0000_0000_0000) >> (pass * Self::DIGIT_BITS)) & 0xFF) as usize
    }
}

/// Sort `data` in `dir` using the fastest applicable local routine for
/// its size class and key width, per the kernel dispatch table
/// ([`dispatch`]): the branch-free iterative bitonic network below the
/// calibrated crossover; above it the LSD radix sort for keys of at most
/// 32 bits and std `sort_unstable` for 64-bit and wider words
/// ([`dispatch::full_sort_kernel`]). Descending output of either is an
/// ascending sort plus an `O(n)` reversal.
///
/// Every kernel produces the same bits: keys equal under `Ord` are equal
/// words for every `RadixKey` type, so stability cannot show.
///
/// Allocates a scratch buffer; hot loops should thread a pooled buffer
/// through [`local_sort_with_scratch`] instead.
pub fn local_sort<K: RadixKey>(data: &mut [K], dir: Direction) {
    let mut scratch = Vec::new();
    local_sort_with_scratch(data, &mut scratch, dir);
}

/// [`local_sort`] with a caller-provided scratch buffer (cleared and
/// refilled; capacity is reused across calls). The chosen kernel is
/// counted in the thread-local tally ([`dispatch::take_tally`]).
pub fn local_sort_with_scratch<K: RadixKey>(data: &mut [K], scratch: &mut Vec<K>, dir: Direction) {
    let kernel = dispatch::select_sort_kernel::<K>(data.len());
    match kernel {
        Kernel::BitonicNetwork => kernels::bitonic_sort_iterative_any(data, scratch, dir),
        Kernel::Comparison => data.sort_unstable(),
        _ => radix::radix_sort_with_scratch(data, scratch),
    }
    if kernel != Kernel::BitonicNetwork && dir == Direction::Descending {
        data.reverse();
    }
    dispatch::bump(kernel);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_of_u32() {
        let k: u32 = 0xAABBCCDD;
        assert_eq!(k.digit(0), 0xDD);
        assert_eq!(k.digit(1), 0xCC);
        assert_eq!(k.digit(2), 0xBB);
        assert_eq!(k.digit(3), 0xAA);
    }

    #[test]
    fn digits_of_u64() {
        let k: u64 = 0x0102030405060708;
        assert_eq!(k.digit(0), 0x08);
        assert_eq!(k.digit(7), 0x01);
    }

    #[test]
    fn digits_of_u128() {
        let k: u128 = 0xAB << 120 | 0xCD << 64 | 0xEF << 56 | 0x12;
        assert_eq!(k.digit(0), 0x12);
        assert_eq!(k.digit(7), 0xEF);
        assert_eq!(k.digit(8), 0xCD);
        assert_eq!(k.digit(15), 0xAB);
        // Interior passes carry nothing for this key.
        assert_eq!(k.digit(1), 0);
        assert_eq!(k.digit(14), 0);
        assert_eq!(u128::MAX.digit(15), 0xFF);
        assert_eq!(0u128.digit(0), 0);
    }

    #[test]
    fn u128_keys_sort_across_digit_boundaries() {
        // Keys that differ only above bit 64, only below, and at the
        // 64-bit boundary — the passes that a u64-shaped impl would lose.
        let mut v: Vec<u128> = vec![
            u128::MAX,
            0,
            1 << 64,
            (1 << 64) - 1,
            1 << 127,
            (1 << 127) - 1,
            42,
        ];
        let mut expect = v.clone();
        expect.sort_unstable();
        local_sort(&mut v, Direction::Ascending);
        assert_eq!(v, expect);
        local_sort(&mut v, Direction::Descending);
        expect.reverse();
        assert_eq!(v, expect);
    }

    #[test]
    fn w192_digits_cover_all_three_limbs() {
        let w = W192 {
            hi: 0xAB00_0000_0000_00CD,
            mid: 0x0000_00EF_0000_0000,
            lo: 0x1200_0000_0000_0034,
        };
        assert_eq!(w.digit(0), 0x34);
        assert_eq!(w.digit(7), 0x12);
        assert_eq!(w.digit(12), 0xEF);
        assert_eq!(w.digit(16), 0xCD);
        assert_eq!(w.digit(23), 0xAB);
        assert_eq!(W192::MAX.digit(23), 0xFF);
    }

    #[test]
    fn w192_sorts_like_a_192_bit_integer() {
        let mk = |hi, mid, lo| W192 { hi, mid, lo };
        let mut v = vec![
            W192::MAX,
            mk(0, 0, 0),
            mk(0, u64::MAX, u64::MAX),
            mk(1, 0, 0),
            mk(0, 1, u64::MAX),
            mk(0, 2, 0),
            mk(u64::MAX, 0, 0),
        ];
        let mut expect = v.clone();
        expect.sort_unstable();
        // Small n: the bitonic network kernel path.
        local_sort(&mut v, Direction::Ascending);
        assert_eq!(v, expect);
        // Large n: the above-crossover path (a comparison sort for wide
        // words), and the radix sort itself through all 24 passes.
        let mut big: Vec<W192> = (0..4096u64)
            .map(|i| {
                let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                mk(x & 0xFF, x.rotate_left(17), x.rotate_left(39))
            })
            .collect();
        let mut expect = big.clone();
        expect.sort_unstable();
        let mut by_radix = big.clone();
        radix_sort(&mut by_radix);
        assert_eq!(by_radix, expect);
        local_sort(&mut big, Direction::Ascending);
        assert_eq!(big, expect);
        local_sort(&mut big, Direction::Descending);
        expect.reverse();
        assert_eq!(big, expect);
    }

    #[test]
    fn local_sort_with_scratch_reuses_capacity() {
        let mut scratch = Vec::new();
        for round in 0..3u32 {
            // 32-bit keys above the bitonic crossover, so the radix path
            // exercises the scratch buffer.
            let mut v: Vec<u32> = (0..5000u32)
                .map(|i| (i.wrapping_mul(2654435761) + round) % 9973)
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            local_sort_with_scratch(&mut v, &mut scratch, Direction::Ascending);
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn signed_keys_sort_across_zero() {
        let mut v: Vec<i32> = vec![5, -1, i32::MIN, 0, i32::MAX, -7];
        local_sort(&mut v, Direction::Ascending);
        assert_eq!(v, vec![i32::MIN, -7, -1, 0, 5, i32::MAX]);
        let mut v: Vec<i64> = vec![1, -1, 0, i64::MIN, i64::MAX];
        local_sort(&mut v, Direction::Ascending);
        assert_eq!(v, vec![i64::MIN, -1, 0, 1, i64::MAX]);
    }

    #[test]
    fn u16_keys_sort() {
        let mut v: Vec<u16> = vec![500, 3, u16::MAX, 256, 255];
        local_sort(&mut v, Direction::Ascending);
        assert_eq!(v, vec![3, 255, 256, 500, u16::MAX]);
    }

    #[test]
    fn local_sort_both_directions() {
        let mut v: Vec<u32> = vec![5, 1, 9, 1, 7];
        local_sort(&mut v, Direction::Ascending);
        assert_eq!(v, vec![1, 1, 5, 7, 9]);
        local_sort(&mut v, Direction::Descending);
        assert_eq!(v, vec![9, 7, 5, 1, 1]);
    }
}
