//! `kernels` / `bench6` — the local-kernel matrix, reported as `KERNEL_1`
//! JSON.
//!
//! Times every local-phase kernel on every `(key width, size class)` cell
//! it can legally run on (full sorts: `radix`, `bitonic_net` and the
//! `comparison` sort), against the seed kernel for that cell (`radix`
//! for full sorts, `circular_merge` for bitonic merges), and times the
//! dispatched path (`local_sort_with_scratch` /
//! `sort_bitonic_with_scratch`) on the same cells — the calibrated
//! threshold table must never lose to the seed by more than measurement
//! noise, and must win outright where the table says the network is
//! faster. Every timed run is checked against the `slice::sort` oracle;
//! a mismatch poisons the whole run (`passed = false`).
//!
//! `bench6` wraps the matrix into the committed `BENCH_6.json` artifact
//! together with the dispatch table the run calibrated.

use super::Experiment;
use crate::report::{f2, kernel_json, KernelRecord, Table};
use local_sorts::bitonic_merge::sort_circular_with_scratch;
use local_sorts::dispatch::{self, Kernel};
use local_sorts::kernels::{bitonic_merge_iterative, bitonic_sort_iterative};
use local_sorts::radix::radix_sort_with_scratch;
use local_sorts::{
    local_sort_with_scratch, sort_bitonic_with_scratch, Direction, KernelTable, RadixKey,
};
use std::time::Instant;

/// Keys the matrix synthesizes: the four canonical unsigned widths
/// (signed keys share their width class by size).
trait BenchKey: RadixKey {
    const WIDTH_BITS: u32;
    fn from_u64(x: u64) -> Self;
}
impl BenchKey for u16 {
    const WIDTH_BITS: u32 = 16;
    fn from_u64(x: u64) -> Self {
        x as u16
    }
}
impl BenchKey for u32 {
    const WIDTH_BITS: u32 = 32;
    fn from_u64(x: u64) -> Self {
        x as u32
    }
}
impl BenchKey for u64 {
    const WIDTH_BITS: u32 = 64;
    fn from_u64(x: u64) -> Self {
        x
    }
}
impl BenchKey for u128 {
    const WIDTH_BITS: u32 = 128;
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

fn random_keys<K: BenchKey>(n: usize, seed: u64) -> Vec<K> {
    let mut s = seed;
    (0..n).map(|_| K::from_u64(splitmix(&mut s))).collect()
}

/// A rotated mountain: bitonic, exercising both merge kernels fairly.
fn bitonic_keys<K: BenchKey>(n: usize, seed: u64) -> Vec<K> {
    let mut v = random_keys::<K>(n, seed);
    let peak = n / 2;
    v[..peak].sort_unstable();
    v[peak..].sort_unstable_by(|a, b| b.cmp(a));
    v.rotate_left(n / 3);
    v
}

/// Timed runs per cell; the minimum is reported. Samples are interleaved
/// across a cell's kernels so a slow scheduling period on a shared host
/// cannot penalize one kernel's whole sample set.
const SAMPLES: usize = 7;

fn reps_for(lg: u32, quick: bool) -> u32 {
    let base = match lg {
        0..=6 => 800,
        7..=9 => 200,
        10..=12 => 64,
        _ => 12,
    };
    if quick {
        (base / 8).max(4)
    } else {
        base
    }
}

/// A kernel under measurement: sorts the slice, may use the scratch.
type KernelFn<'a, K> = &'a mut dyn FnMut(&mut [K], &mut Vec<K>);

/// Min-of-`SAMPLES` nanoseconds per rep of each kernel in `fns`,
/// re-seeding `data` from `input` each rep, plus an oracle check of each
/// kernel's final output. One sample round times every kernel once
/// before taking the next sample, so transient host noise lands on all
/// kernels of the cell alike.
fn time_cell<K: BenchKey>(
    input: &[K],
    oracle: &[K],
    reps: u32,
    fns: &mut [KernelFn<'_, K>],
) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut data: Vec<K> = Vec::with_capacity(input.len());
    let mut scratch: Vec<K> = Vec::new();
    let mut rounds: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); fns.len()];
    let mut oks: Vec<bool> = Vec::with_capacity(fns.len());
    for f in fns.iter_mut() {
        // Untimed warm-up rep: fault in buffers, warm the icache, and
        // check the oracle once per kernel.
        data.clear();
        data.extend_from_slice(input);
        f(&mut data, &mut scratch);
        oks.push(data == oracle);
    }
    for s in 0..SAMPLES {
        // Rotate the in-round order so periodic host interference cannot
        // phase-lock onto one kernel's slot in every round.
        for k in 0..fns.len() {
            let i = (k + s) % fns.len();
            let t0 = Instant::now();
            for _ in 0..reps {
                data.clear();
                data.extend_from_slice(input);
                fns[i](&mut data, &mut scratch);
            }
            rounds[i].push(t0.elapsed().as_secs_f64() * 1e9 / f64::from(reps.max(1)));
        }
    }
    (rounds, oks)
}

/// Minimum of one kernel's sample rounds.
fn min_ns(rounds: &[f64]) -> f64 {
    rounds.iter().fold(f64::INFINITY, |a, &b| a.min(b))
}

/// Best same-round ratio of `num` over `den`: each sample round times
/// both kernels back to back, so taking the ratio within a round cancels
/// common-mode host noise, and the min across rounds picks the cleanest
/// one. Used for the dispatch-vs-seed bound, where the two paths are
/// near-equal and a min-of-mins ratio would be dominated by jitter.
fn min_ratio(num: &[f64], den: &[f64]) -> f64 {
    num.iter()
        .zip(den)
        .map(|(n, d)| n / d)
        .fold(f64::INFINITY, f64::min)
}

/// The full-sort rows of one `(width, lg_n)` cell: seed radix, the
/// bitonic network, the comparison sort, and the dispatched path, each
/// relative to radix.
fn sort_rows<K: BenchKey>(lg: u32, quick: bool, records: &mut Vec<KernelRecord>) {
    let n = 1usize << lg;
    let input = random_keys::<K>(n, u64::from(K::WIDTH_BITS) * 1000 + u64::from(lg));
    let mut oracle = input.clone();
    oracle.sort_unstable();
    let reps = reps_for(lg, quick);
    let selected = dispatch::select_sort_kernel::<K>(n);

    let (rounds, oks) = time_cell(
        &input,
        &oracle,
        reps,
        &mut [
            &mut |d: &mut [K], s: &mut Vec<K>| radix_sort_with_scratch(d, s),
            &mut |d: &mut [K], _: &mut Vec<K>| bitonic_sort_iterative(d, Direction::Ascending),
            &mut |d: &mut [K], _: &mut Vec<K>| d.sort_unstable(),
            &mut |d: &mut [K], s: &mut Vec<K>| local_sort_with_scratch(d, s, Direction::Ascending),
        ],
    );
    let radix_ns = min_ns(&rounds[0]);

    let row = |kernel: &str, ns: f64, vs_seed: f64, selected: bool, ok: bool| KernelRecord {
        width_bits: K::WIDTH_BITS,
        lg_n: lg,
        op: "sort".into(),
        kernel: kernel.into(),
        ns_per_key: ns / n as f64,
        vs_seed,
        selected,
        oracle_ok: ok,
    };
    records.push(row(
        "radix",
        radix_ns,
        1.0,
        selected == Kernel::Radix,
        oks[0],
    ));
    records.push(row(
        "bitonic_net",
        min_ns(&rounds[1]),
        min_ns(&rounds[1]) / radix_ns,
        selected == Kernel::BitonicNetwork,
        oks[1],
    ));
    records.push(row(
        "comparison",
        min_ns(&rounds[2]),
        min_ns(&rounds[2]) / radix_ns,
        selected == Kernel::Comparison,
        oks[2],
    ));
    records.push(row(
        "dispatch",
        min_ns(&rounds[3]),
        min_ratio(&rounds[3], &rounds[0]),
        true,
        oks[3],
    ));
}

/// The bitonic-merge rows of one cell: seed circular merge, the
/// comparator network, and the dispatched path, relative to circular.
fn merge_rows<K: BenchKey>(lg: u32, quick: bool, records: &mut Vec<KernelRecord>) {
    let n = 1usize << lg;
    let input = bitonic_keys::<K>(n, u64::from(K::WIDTH_BITS) * 2000 + u64::from(lg));
    let mut oracle = input.clone();
    oracle.sort_unstable();
    let reps = reps_for(lg, quick);
    let selected = dispatch::select_merge_kernel::<K>(n);

    let (rounds, oks) = time_cell(
        &input,
        &oracle,
        reps,
        &mut [
            &mut |d: &mut [K], s: &mut Vec<K>| {
                sort_circular_with_scratch(d, s, Direction::Ascending)
            },
            &mut |d: &mut [K], _: &mut Vec<K>| bitonic_merge_iterative(d, Direction::Ascending),
            &mut |d: &mut [K], s: &mut Vec<K>| {
                sort_bitonic_with_scratch(d, s, Direction::Ascending)
            },
        ],
    );
    let circ_ns = min_ns(&rounds[0]);

    let row = |kernel: &str, ns: f64, vs_seed: f64, selected: bool, ok: bool| KernelRecord {
        width_bits: K::WIDTH_BITS,
        lg_n: lg,
        op: "merge".into(),
        kernel: kernel.into(),
        ns_per_key: ns / n as f64,
        vs_seed,
        selected,
        oracle_ok: ok,
    };
    records.push(row(
        "circular_merge",
        circ_ns,
        1.0,
        selected == Kernel::CircularMerge,
        oks[0],
    ));
    records.push(row(
        "network_merge",
        min_ns(&rounds[1]),
        min_ns(&rounds[1]) / circ_ns,
        selected == Kernel::NetworkMerge,
        oks[1],
    ));
    records.push(row(
        "dispatch",
        min_ns(&rounds[2]),
        min_ratio(&rounds[2], &rounds[0]),
        true,
        oks[2],
    ));
}

/// What one kernel-matrix run produced.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Rendered report (calibrated table + matrix + verdicts).
    pub report: String,
    /// The bare `KERNEL_1` JSON document.
    pub json: String,
    /// The table the run calibrated and dispatched on.
    pub table: KernelTable,
    /// Per-width flag: the selected kernel beat the seed on at least one
    /// sort size class of that width.
    pub sort_win_per_width: [bool; 4],
    /// Every oracle check passed.
    pub oracles_ok: bool,
    /// The dispatched path never lost more than 5% to the seed kernel on
    /// any measured cell.
    pub dispatch_within_bound: bool,
    /// `oracles_ok && dispatch_within_bound && sort_win_per_width.all()`.
    pub passed: bool,
}

/// Size classes measured per width: quick (CI) vs full (committed
/// artifact) — always at least one cell on each side of the default
/// crossovers.
fn size_classes(quick: bool) -> Vec<u32> {
    if quick {
        vec![3, 4, 8]
    } else {
        vec![3, 4, 5, 6, 7, 8, 10, 12, 14]
    }
}

/// Run the matrix. Calibrates (and installs) the dispatch table first so
/// `selected` and the dispatched-path rows reflect this host.
#[must_use]
pub fn run_kernels(quick: bool) -> KernelRun {
    dispatch::ensure_calibrated();
    let table = dispatch::current();
    let mut records: Vec<KernelRecord> = Vec::new();
    for lg in size_classes(quick) {
        sort_rows::<u16>(lg, quick, &mut records);
        sort_rows::<u32>(lg, quick, &mut records);
        sort_rows::<u64>(lg, quick, &mut records);
        sort_rows::<u128>(lg, quick, &mut records);
        merge_rows::<u16>(lg, quick, &mut records);
        merge_rows::<u32>(lg, quick, &mut records);
        merge_rows::<u64>(lg, quick, &mut records);
        merge_rows::<u128>(lg, quick, &mut records);
    }

    let oracles_ok = records.iter().all(|r| r.oracle_ok);
    // Dispatch may not regress the seed: 5% bound per the acceptance
    // criterion, with a small absolute floor so sub-microsecond cells
    // aren't judged on scheduler jitter.
    let dispatch_within_bound = records
        .iter()
        .filter(|r| r.kernel == "dispatch")
        .all(|r| r.vs_seed <= 1.05 || r.ns_per_key * (1 << r.lg_n) as f64 <= 2000.0);
    let mut sort_win_per_width = [false; 4];
    for r in &records {
        if r.op == "sort" && r.kernel != "dispatch" && r.selected && r.vs_seed < 1.0 {
            let w = match r.width_bits {
                16 => 0,
                32 => 1,
                64 => 2,
                _ => 3,
            };
            sort_win_per_width[w] = true;
        }
    }
    let passed = oracles_ok && dispatch_within_bound && sort_win_per_width.iter().all(|&b| b);

    let mut t = Table::new(vec![
        "width", "lg n", "op", "kernel", "ns/key", "vs seed", "sel", "oracle",
    ]);
    for r in &records {
        t.row(vec![
            r.width_bits.to_string(),
            r.lg_n.to_string(),
            r.op.clone(),
            r.kernel.clone(),
            f2(r.ns_per_key),
            f2(r.vs_seed),
            if r.selected { "*" } else { "" }.to_string(),
            if r.oracle_ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    let report = format!(
        "Calibrated dispatch table (max lg n for the network, per width \
         class):\n  sort:  {:?}\n  merge: {:?}\n\n{}\n\
         selected-kernel sort win per width (16/32/64/128): {:?}\n\
         all oracles ok: {oracles_ok}; dispatch within 5% of seed \
         everywhere: {dispatch_within_bound}\n",
        table.sort_bitonic_max_lg,
        table.merge_network_max_lg,
        t.render(),
        sort_win_per_width,
    );
    let json = kernel_json(&records);
    KernelRun {
        report,
        json,
        table,
        sort_win_per_width,
        oracles_ok,
        dispatch_within_bound,
        passed,
    }
}

/// Compose the committed `BENCH_6` document: the calibrated table plus
/// the bare `KERNEL_1` matrix.
#[must_use]
pub fn bench6_doc(run: &KernelRun) -> String {
    format!(
        "{{\n\"schema\": \"BENCH_6\",\n\
         \"sort_bitonic_max_lg\": {:?},\n\
         \"merge_network_max_lg\": {:?},\n\
         \"sort_win_per_width\": {:?},\n\
         \"kernels\": {}}}\n",
        run.table.sort_bitonic_max_lg,
        run.table.merge_network_max_lg,
        run.sort_win_per_width,
        run.json
    )
}

/// Run the matrix at quick scale and render it as an experiment.
#[must_use]
pub fn kernels(_scale: super::Scale) -> Experiment {
    let run = run_kernels(true);
    Experiment {
        id: "kernels",
        title: "Local kernels: branch-free networks vs radix/comparison/circular, per size class",
        body: run.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_synthesis_is_deterministic_and_bitonic() {
        let a = random_keys::<u32>(64, 7);
        let b = random_keys::<u32>(64, 7);
        assert_eq!(a, b);
        let m = bitonic_keys::<u64>(128, 3);
        // A rotation of a mountain sorts correctly under the circular
        // kernel — the cheap structural check that it is bitonic.
        let mut v = m.clone();
        let mut s = Vec::new();
        sort_circular_with_scratch(&mut v, &mut s, Direction::Ascending);
        let mut oracle = m;
        oracle.sort_unstable();
        assert_eq!(v, oracle);
    }

    #[test]
    fn quick_matrix_is_complete_and_oracle_clean() {
        let run = run_kernels(true);
        assert!(run.oracles_ok, "{}", run.report);
        // 4 widths x (4 sort rows + 3 merge rows) per measured size class.
        let per_lg = 4 * (4 + 3);
        assert_eq!(
            run.json.matches("\"width_bits\"").count(),
            per_lg * size_classes(true).len()
        );
        let doc = bench6_doc(&run);
        assert!(doc.contains("\"schema\": \"BENCH_6\""));
        assert!(doc.contains("\"schema\": \"KERNEL_1\""));
        let mut depth = 0i64;
        for c in doc.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }
}
