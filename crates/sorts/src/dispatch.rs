//! Per-size-class kernel selection for the local phase.
//!
//! Chapter 4 of the thesis picks the local routine analytically (radix for
//! full sorts, the `O(n)` circular merge for bitonic inputs). On real
//! hardware the constants — branch mispredictions, pass counts, scratch
//! traffic — decide the winner per *size class* and *key width*, not the
//! asymptotics (cf. *Integer sorting on multicores and GPUs*). This module
//! keeps a small threshold table, analogous to the calibrated LogP machine
//! constants in `logp::predict`:
//!
//! * full sorts of `n` keys use the branch-free iterative bitonic network
//!   ([`crate::kernels`]) while `lg ⌈n⌉₂` is at or below the width class's
//!   `sort_bitonic_max_lg`, and above it the width's own full-sort kernel
//!   ([`full_sort_kernel`]): the LSD radix sort for keys of at most 32
//!   bits, std `sort_unstable` for 64-bit and wider words, where radix
//!   pays 8–24 byte passes;
//! * bitonic merges use the branchless comparator network while the length
//!   is a power of two at or below `merge_network_max_lg`, and the
//!   rotate-copy circular merge above it;
//! * a slice of equal bitonic chunks is merged by one step-major sweep
//!   ([`crate::kernels::bitonic_merge_chunks`]) while the chunk size class
//!   is at or below the constant [`CHUNK_SWEEP_MAX_LG`], and chunk by chunk
//!   above it.
//!
//! The table starts from constants measured on the reference host
//! ([`KernelTable::default_host`]) and can be re-measured at process start
//! with [`ensure_calibrated`] (the serving pool does this once per
//! process). Selections are counted in a thread-local tally so the SPMD
//! drivers can attribute kernel use to phases without changing any sort
//! signature.

use crate::RadixKey;
use core::cell::Cell;
use core::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Once;
use std::time::Instant;

/// A local-phase kernel, as recorded in stats, traces, and `BENCH_6.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// LSD radix sort (`crate::radix`) — the seed full-sort path.
    Radix,
    /// Iterative branch-free bitonic sorting network (`crate::kernels`).
    BitonicNetwork,
    /// Rotate-copy circular merge of a bitonic input (`crate::bitonic_merge`).
    CircularMerge,
    /// Single branch-free merge stage of the comparator network.
    NetworkMerge,
    /// std `sort_unstable` (plus a reversal for descending) — the full
    /// sort above the network crossover for 64-bit and wider words.
    Comparison,
}

impl Kernel {
    /// All kernels, in [`Kernel::index`] order.
    pub const ALL: [Kernel; 5] = [
        Kernel::Radix,
        Kernel::BitonicNetwork,
        Kernel::CircularMerge,
        Kernel::NetworkMerge,
        Kernel::Comparison,
    ];

    /// Stable short name used in stats lines, trace events, and bench JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Radix => "radix",
            Kernel::BitonicNetwork => "bitonic_net",
            Kernel::CircularMerge => "circular_merge",
            Kernel::NetworkMerge => "network_merge",
            Kernel::Comparison => "comparison",
        }
    }

    /// Dense index into tally arrays (matches [`Kernel::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Kernel::Radix => 0,
            Kernel::BitonicNetwork => 1,
            Kernel::CircularMerge => 2,
            Kernel::NetworkMerge => 3,
            Kernel::Comparison => 4,
        }
    }
}

/// Number of key-width classes (≤16-bit, 32-bit, 64-bit, ≥128-bit).
pub const WIDTH_CLASSES: usize = 4;

/// Map a key type to its width class by size: `0` for ≤2 bytes, `1` for
/// 4 bytes, `2` for 8 bytes, `3` for anything wider.
#[must_use]
pub fn width_class<T>() -> usize {
    match core::mem::size_of::<T>() {
        0..=2 => 0,
        3..=4 => 1,
        5..=8 => 2,
        _ => 3,
    }
}

/// The full-sort kernel for keys of type `K` above the network
/// crossover, by width: [`Kernel::Radix`] for keys of at most 32 bits
/// (at most four byte passes), [`Kernel::Comparison`] for 64-bit and
/// wider words, where the 8–24 counting-and-scatter passes of the radix
/// cost more than `sort_unstable`'s `n lg n` comparisons at every size
/// the local phase sees.
#[must_use]
pub fn full_sort_kernel<K>() -> Kernel {
    if width_class::<K>() <= 1 {
        Kernel::Radix
    } else {
        Kernel::Comparison
    }
}

/// Size class of a slice length: `lg` of the next power of two.
#[must_use]
pub fn size_class(n: usize) -> u32 {
    n.next_power_of_two().trailing_zeros()
}

/// Crossover thresholds per width class, in size-class (`lg n`) units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTable {
    /// Largest `lg ⌈n⌉₂` at which a full sort uses the bitonic network.
    pub sort_bitonic_max_lg: [u32; WIDTH_CLASSES],
    /// Largest `lg n` (power-of-two `n` only) at which a bitonic merge
    /// uses the comparator network instead of the circular merge.
    pub merge_network_max_lg: [u32; WIDTH_CLASSES],
}

impl KernelTable {
    /// Constants measured on the reference container
    /// (`cargo run --release -p bitonic-bench --bin experiments -- kernels`),
    /// rounded down to the threshold the calibration reproduced on every
    /// run so dispatch never regresses a cell. Radix does fewer passes on
    /// narrow keys, so its crossover drops with the width: a u16 sort is
    /// two counting passes and beats the network from 16 keys up. For
    /// 64-bit and wider words the network is timed against the comparison
    /// sort instead ([`full_sort_kernel`]), which beats it from two keys
    /// up, so their sort thresholds are 0.
    #[must_use]
    pub const fn default_host() -> Self {
        KernelTable {
            sort_bitonic_max_lg: [3, 4, 0, 0],
            merge_network_max_lg: [2, 2, 2, 4],
        }
    }
}

impl Default for KernelTable {
    fn default() -> Self {
        Self::default_host()
    }
}

// The installed table, stored as atomics so the per-sort read is two
// relaxed loads instead of a lock acquisition.
static SORT_MAX_LG: [AtomicU32; WIDTH_CLASSES] = {
    const T: KernelTable = KernelTable::default_host();
    [
        AtomicU32::new(T.sort_bitonic_max_lg[0]),
        AtomicU32::new(T.sort_bitonic_max_lg[1]),
        AtomicU32::new(T.sort_bitonic_max_lg[2]),
        AtomicU32::new(T.sort_bitonic_max_lg[3]),
    ]
};
static MERGE_MAX_LG: [AtomicU32; WIDTH_CLASSES] = {
    const T: KernelTable = KernelTable::default_host();
    [
        AtomicU32::new(T.merge_network_max_lg[0]),
        AtomicU32::new(T.merge_network_max_lg[1]),
        AtomicU32::new(T.merge_network_max_lg[2]),
        AtomicU32::new(T.merge_network_max_lg[3]),
    ]
};

const FORCE_AUTO: u8 = 0;
const FORCE_RADIX: u8 = 1;
const FORCE_BITONIC: u8 = 2;
static FORCE: AtomicU8 = AtomicU8::new(FORCE_AUTO);
static CALIBRATED: Once = Once::new();

/// A forced kernel family, overriding the threshold table (CLI
/// `--local-kernel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForceKernel {
    /// Use the threshold table (the default).
    #[default]
    Auto,
    /// Seed behavior: radix full sorts at every key width, circular
    /// merges.
    Radix,
    /// Branch-free networks wherever the precondition (power-of-two
    /// length for merges) allows.
    Bitonic,
}

/// Install a process-wide kernel force (or [`ForceKernel::Auto`] to
/// return control to the table).
pub fn set_force(force: ForceKernel) {
    let v = match force {
        ForceKernel::Auto => FORCE_AUTO,
        ForceKernel::Radix => FORCE_RADIX,
        ForceKernel::Bitonic => FORCE_BITONIC,
    };
    FORCE.store(v, Ordering::Relaxed);
}

/// Install `table` as the process-wide dispatch table.
pub fn install(table: &KernelTable) {
    for w in 0..WIDTH_CLASSES {
        SORT_MAX_LG[w].store(table.sort_bitonic_max_lg[w], Ordering::Relaxed);
        MERGE_MAX_LG[w].store(table.merge_network_max_lg[w], Ordering::Relaxed);
    }
}

/// The currently installed dispatch table.
#[must_use]
pub fn current() -> KernelTable {
    let mut t = KernelTable::default_host();
    for w in 0..WIDTH_CLASSES {
        t.sort_bitonic_max_lg[w] = SORT_MAX_LG[w].load(Ordering::Relaxed);
        t.merge_network_max_lg[w] = MERGE_MAX_LG[w].load(Ordering::Relaxed);
    }
    t
}

/// Pick the kernel for a *full sort* of `n` keys of type `K`.
#[must_use]
pub fn select_sort_kernel<K: RadixKey>(n: usize) -> Kernel {
    match FORCE.load(Ordering::Relaxed) {
        FORCE_RADIX => return Kernel::Radix,
        FORCE_BITONIC => return Kernel::BitonicNetwork,
        _ => {}
    }
    let max_lg = SORT_MAX_LG[width_class::<K>()].load(Ordering::Relaxed);
    if size_class(n) <= max_lg {
        Kernel::BitonicNetwork
    } else {
        full_sort_kernel::<K>()
    }
}

/// Pick the kernel for sorting a *bitonic* input of `n` keys of width
/// `size_of::<T>()`. The comparator network needs a power-of-two length;
/// everything else falls to the circular merge.
#[must_use]
pub fn select_merge_kernel<T>(n: usize) -> Kernel {
    if !n.is_power_of_two() {
        return Kernel::CircularMerge;
    }
    match FORCE.load(Ordering::Relaxed) {
        FORCE_RADIX => return Kernel::CircularMerge,
        FORCE_BITONIC => return Kernel::NetworkMerge,
        _ => {}
    }
    let max_lg = MERGE_MAX_LG[width_class::<T>()].load(Ordering::Relaxed);
    if size_class(n) <= max_lg {
        Kernel::NetworkMerge
    } else {
        Kernel::CircularMerge
    }
}

/// Largest chunk size class (`lg` of the chunk length) at which a slice
/// of bitonic chunks is merged by the step-major sweep
/// ([`crate::kernels::bitonic_merge_chunks`]) rather than chunk by chunk.
/// Measured by the `local_kernels/merge_chunks` criterion group: the sweep
/// wins clearly through 2^6 keys for u32, u64 and u128, and breaks even
/// from 2^7 on, where one chunk's own work outweighs a call.
pub const CHUNK_SWEEP_MAX_LG: u32 = 6;

/// Whether a slice of `2^lg_chunk`-key bitonic chunks is merged by the
/// step-major sweep. [`ForceKernel::Radix`] keeps the seed's per-chunk
/// circular merges; [`ForceKernel::Bitonic`] sweeps every chunk size.
#[must_use]
pub fn sweeps_chunks(lg_chunk: u32) -> bool {
    match FORCE.load(Ordering::Relaxed) {
        FORCE_RADIX => false,
        FORCE_BITONIC => true,
        _ => lg_chunk <= CHUNK_SWEEP_MAX_LG,
    }
}

const KERNELS: usize = Kernel::ALL.len();

thread_local! {
    static TALLY: Cell<[u64; KERNELS]> = const { Cell::new([0; KERNELS]) };
}

/// Count one use of `kernel` in this thread's tally.
pub fn bump(kernel: Kernel) {
    bump_n(kernel, 1);
}

/// Count `n` uses of `kernel` in this thread's tally.
pub fn bump_n(kernel: Kernel, n: u64) {
    TALLY.with(|t| {
        let mut v = t.get();
        v[kernel.index()] += n;
        t.set(v);
    });
}

/// Take (and reset) this thread's kernel tally as `(name, count)` pairs,
/// omitting zero counts.
#[must_use]
pub fn take_tally() -> Vec<(&'static str, u64)> {
    let counts = TALLY.with(|t| t.replace([0; KERNELS]));
    Kernel::ALL
        .iter()
        .filter(|k| counts[k.index()] > 0)
        .map(|&k| (k.name(), counts[k.index()]))
        .collect()
}

/// Reset this thread's kernel tally (e.g. at the start of an SPMD
/// program, so counts from a previous program on a pooled machine thread
/// are not attributed to this one).
pub fn clear_tally() {
    TALLY.with(|t| t.set([0; KERNELS]));
}

// ---------------------------------------------------------------------------
// Calibration

/// Keys the calibrator can synthesize. Private: only the four canonical
/// unsigned widths are measured; signed keys share their class by size.
trait CalKey: RadixKey {
    fn from_u64(x: u64) -> Self;
}
impl CalKey for u16 {
    fn from_u64(x: u64) -> Self {
        x as u16
    }
}
impl CalKey for u32 {
    fn from_u64(x: u64) -> Self {
        x as u32
    }
}
impl CalKey for u64 {
    fn from_u64(x: u64) -> Self {
        x
    }
}
impl CalKey for u128 {
    fn from_u64(x: u64) -> Self {
        (u128::from(x) << 64) | u128::from(x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_keys<K: CalKey>(n: usize, seed: u64) -> Vec<K> {
    let mut s = seed;
    (0..n).map(|_| K::from_u64(splitmix(&mut s))).collect()
}

/// A rotated mountain: bitonic, exercising both merge kernels fairly.
fn bitonic_keys<K: CalKey>(n: usize, seed: u64) -> Vec<K> {
    let mut v = random_keys::<K>(n, seed);
    let peak = n / 2;
    v[..peak].sort_unstable();
    v[peak..].sort_unstable_by(|a, b| b.cmp(a));
    v.rotate_left(n / 3);
    v
}

/// Nanoseconds per run of `f`, re-seeding `data` from `input` each rep.
fn time_kernel<K: Copy>(
    input: &[K],
    data: &mut Vec<K>,
    scratch: &mut Vec<K>,
    reps: u32,
    mut f: impl FnMut(&mut [K], &mut Vec<K>),
) -> u64 {
    // One untimed warm-up rep to fault in buffers and warm the icache.
    data.clear();
    data.extend_from_slice(input);
    f(data, scratch);
    let t0 = Instant::now();
    for _ in 0..reps {
        data.clear();
        data.extend_from_slice(input);
        f(data, scratch);
    }
    (t0.elapsed().as_nanos() / u128::from(reps.max(1))) as u64
}

fn calibration_reps(lg: u32) -> u32 {
    // Aim for roughly constant measured work per size: more reps at
    // small n where per-call noise dominates.
    match lg {
        0..=6 => 600,
        7..=9 => 160,
        10..=11 => 48,
        _ => 16,
    }
}

const CAL_MAX_LG: u32 = 12;
/// Interleaved measurement rounds per size; the minimum of each kernel's
/// rounds decides, so transient host noise cannot flip a comparison that
/// has one clean round.
const CAL_ROUNDS: u32 = 3;

/// Whether the network's time beats the kernel it would displace (`seed`)
/// with an 8% margin. The margin, plus the contiguous-prefix rule in the
/// scans below (the first decisive loss ends the scan), keeps the
/// threshold conservative: a single noisy network win past the true
/// crossover must not extend the table into sizes where dispatch would
/// then lose to the seed.
fn network_wins(network: u64, seed: u64) -> bool {
    network.saturating_mul(100) <= seed.saturating_mul(92)
}

/// The network's crossover against the width's own full-sort kernel
/// ([`full_sort_kernel`]), the one it displaces below the threshold.
fn sort_crossover<K: CalKey>() -> u32 {
    let above = full_sort_kernel::<K>();
    let mut best = 0u32;
    let (mut data, mut scratch) = (Vec::new(), Vec::new());
    for lg in 2..=CAL_MAX_LG {
        let n = 1usize << lg;
        let input = random_keys::<K>(n, u64::from(lg) * 11 + 5);
        let reps = calibration_reps(lg);
        let (mut full, mut bitonic) = (u64::MAX, u64::MAX);
        for _ in 0..CAL_ROUNDS {
            full = full.min(time_kernel(
                &input,
                &mut data,
                &mut scratch,
                reps,
                |d, s| match above {
                    Kernel::Comparison => d.sort_unstable(),
                    _ => crate::radix::radix_sort_with_scratch(d, s),
                },
            ));
            bitonic = bitonic.min(time_kernel(
                &input,
                &mut data,
                &mut scratch,
                reps,
                |d, _| {
                    crate::kernels::bitonic_sort_iterative(d, crate::Direction::Ascending);
                },
            ));
        }
        if network_wins(bitonic, full) {
            best = lg;
        } else {
            break;
        }
    }
    best
}

fn merge_crossover<K: CalKey>() -> u32 {
    let mut best = 0u32;
    let (mut data, mut scratch) = (Vec::new(), Vec::new());
    for lg in 2..=CAL_MAX_LG {
        let n = 1usize << lg;
        let input = bitonic_keys::<K>(n, u64::from(lg) * 17 + 3);
        let reps = calibration_reps(lg);
        let (mut circular, mut network) = (u64::MAX, u64::MAX);
        for _ in 0..CAL_ROUNDS {
            circular = circular.min(time_kernel(
                &input,
                &mut data,
                &mut scratch,
                reps,
                |d, s| {
                    crate::bitonic_merge::sort_circular_with_scratch(
                        d,
                        s,
                        crate::Direction::Ascending,
                    );
                },
            ));
            network = network.min(time_kernel(
                &input,
                &mut data,
                &mut scratch,
                reps,
                |d, _| {
                    crate::kernels::bitonic_merge_iterative(d, crate::Direction::Ascending);
                },
            ));
        }
        if network_wins(network, circular) {
            best = lg;
        } else {
            break;
        }
    }
    best
}

/// Measure both crossovers for every width class on this host.
///
/// Costs a few tens of milliseconds; call once per process (or use
/// [`ensure_calibrated`], which does exactly that).
#[must_use]
pub fn calibrate() -> KernelTable {
    KernelTable {
        sort_bitonic_max_lg: [
            sort_crossover::<u16>(),
            sort_crossover::<u32>(),
            sort_crossover::<u64>(),
            sort_crossover::<u128>(),
        ],
        merge_network_max_lg: [
            merge_crossover::<u16>(),
            merge_crossover::<u32>(),
            merge_crossover::<u64>(),
            merge_crossover::<u128>(),
        ],
    }
}

/// Measure and [`install`] the dispatch table, once per process.
/// A caller that arrives while another thread calibrates blocks until
/// the measured table is installed, so no sort after this returns runs
/// on a table that is about to change. Subsequent calls are free.
/// Returns `true` on the call that calibrated.
pub fn ensure_calibrated() -> bool {
    let mut ran = false;
    CALIBRATED.call_once(|| {
        install(&calibrate());
        ran = true;
    });
    ran
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_classes_by_size() {
        assert_eq!(width_class::<u16>(), 0);
        assert_eq!(width_class::<u32>(), 1);
        assert_eq!(width_class::<i32>(), 1);
        assert_eq!(width_class::<u64>(), 2);
        assert_eq!(width_class::<u128>(), 3);
    }

    #[test]
    fn size_class_rounds_up() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(1025), 11);
    }

    #[test]
    fn selection_respects_table() {
        let t = current();
        let max = t.sort_bitonic_max_lg[width_class::<u64>()];
        let small = 1usize << max;
        assert_eq!(select_sort_kernel::<u64>(small), Kernel::BitonicNetwork);
        let large = 1usize << (max + 1);
        assert_eq!(select_sort_kernel::<u64>(large), Kernel::Comparison);
        let max = t.sort_bitonic_max_lg[width_class::<u32>()];
        assert_eq!(select_sort_kernel::<u32>(1 << max), Kernel::BitonicNetwork);
        assert_eq!(select_sort_kernel::<u32>(1 << (max + 1)), Kernel::Radix);
    }

    #[test]
    fn full_sort_kernel_follows_key_width() {
        assert_eq!(full_sort_kernel::<u16>(), Kernel::Radix);
        assert_eq!(full_sort_kernel::<u32>(), Kernel::Radix);
        assert_eq!(full_sort_kernel::<i32>(), Kernel::Radix);
        assert_eq!(full_sort_kernel::<u64>(), Kernel::Comparison);
        assert_eq!(full_sort_kernel::<i64>(), Kernel::Comparison);
        assert_eq!(full_sort_kernel::<u128>(), Kernel::Comparison);
        assert_eq!(full_sort_kernel::<crate::W192>(), Kernel::Comparison);
    }

    #[test]
    fn merge_selection_requires_power_of_two() {
        assert_eq!(select_merge_kernel::<u64>(100), Kernel::CircularMerge);
        let max = current().merge_network_max_lg[width_class::<u64>()];
        assert_eq!(
            select_merge_kernel::<u64>(1usize << max),
            Kernel::NetworkMerge
        );
        assert_eq!(
            select_merge_kernel::<u64>(1usize << (max + 3)),
            Kernel::CircularMerge
        );
    }

    #[test]
    fn tally_counts_and_resets() {
        clear_tally();
        bump(Kernel::Radix);
        bump(Kernel::Radix);
        bump(Kernel::NetworkMerge);
        bump_n(Kernel::Comparison, 3);
        let t = take_tally();
        assert_eq!(
            t,
            vec![("radix", 2), ("network_merge", 1), ("comparison", 3)]
        );
        assert!(take_tally().is_empty(), "take must reset");
    }

    #[test]
    fn calibrated_table_is_plausible() {
        let t = calibrate();
        for w in 0..WIDTH_CLASSES {
            assert!(t.sort_bitonic_max_lg[w] <= CAL_MAX_LG);
            assert!(t.merge_network_max_lg[w] <= CAL_MAX_LG);
        }
    }
}
