//! Local computation phases (Chapter 4).
//!
//! Two interchangeable engines execute the `lg n` network steps that follow
//! each remap:
//!
//! * [`run_phase_canonical`] — simulates each compare-exchange step on the
//!   local array through the layout's bit mapping. This is the always-
//!   correct reference (the "naive" computation the thesis starts from).
//! * [`run_phase_merges`] — the optimized computation of Theorems 2 and 3:
//!   an inside phase is one bitonic merge sort of the whole local array; a
//!   crossing phase is `2^b` chunked bitonic merge sorts, the mid-phase
//!   transpose of the local address bits, then `2^a` more chunked sorts;
//!   the final phase sorts `2^s`-element bitonic chunks ascending. Small
//!   chunks are merged step-major: each comparator level of the chunk
//!   network sweeps the whole local array at once (at P = 4 every
//!   schedule has `a = 1` and `s = 3`, so nearly every chunk is small).
//!
//! Both engines produce bit-identical arrays (tested exhaustively), so the
//! optimized one can be swapped in without re-deriving the theorems.

use crate::address::BitLayout;
use crate::schedule::RemapPhase;
use crate::smart::RemapKind;
use bitonic_network::network::StepId;
use bitonic_network::{compare_exchange, Direction};
use local_sorts::bitonic_merge::{sort_bitonic_chunks_with_scratch, sort_bitonic_with_scratch};

/// Which engine executes local phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalStrategy {
    /// Simulate every compare-exchange step (reference semantics).
    Canonical,
    /// Replace steps with bitonic merge sorts per Theorems 2–3 (default).
    #[default]
    Merges,
    /// The Figure 4.5 fast path: every phase is *one* full local sort.
    ///
    /// Valid whenever no crossing remap is followed by an inside remap
    /// (Section 4.1) — always true in the common regime
    /// `lgP(lgP+1)/2 <= lg n`. A crossing phase then skips the Theorem 3
    /// transpose and stays in its phase-1 bit order: the sorted array has
    /// the same elements in every `2^a` block as the canonical bitonic
    /// blocks (the blocks are totally ordered), and the next remap moves
    /// those blocks wholesale because `t > a`. On schedules where the
    /// condition fails, [`crate::algorithms::smart_sort`] silently falls
    /// back to [`LocalStrategy::Merges`].
    FullSort,
}

/// Direction of `stage`'s merge blocks for the keys held by processor `me`
/// under `layout` — `Some` when the direction bit is a processor bit (one
/// direction for the whole processor), `None` when it is a local bit (the
/// direction varies across the local array).
///
/// The direction bit of stage `s` is absolute bit `s` (Definition 3); for
/// the final stage that bit lies beyond the address width, making the
/// final merge ascending everywhere.
#[must_use]
pub fn stage_direction(layout: &BitLayout, me: usize, stage: u32) -> Option<Direction> {
    if stage >= layout.lg_total() {
        return Some(Direction::Ascending);
    }
    let pos = layout
        .position_of(stage)
        .expect("stage bit within address width");
    if pos < layout.lg_local() {
        None
    } else {
        let bit = (me >> (pos - layout.lg_local())) & 1;
        Some(if bit == 0 {
            Direction::Ascending
        } else {
            Direction::Descending
        })
    }
}

/// Direction in which a processor's local array is sorted by the initial
/// blocked phase (stages `1 ..= lg n`): ascending on even processors —
/// Lemma 6's alternating runs at the input of stage `lg n + 1`.
#[must_use]
pub fn initial_direction(layout: &BitLayout, me: usize) -> Direction {
    stage_direction(layout, me, layout.lg_local())
        .expect("bit lg n is a processor bit under the blocked layout")
}

/// Execute one network step on the local array of processor `me`.
///
/// # Panics
/// Panics if the step's compared bit is not local under `layout` (such a
/// step cannot run without communication).
pub fn run_step_canonical<K: Ord + Copy>(
    layout: &BitLayout,
    me: usize,
    data: &mut [K],
    step: StepId,
) {
    let lambda = layout
        .local_position_of(step.bit())
        .unwrap_or_else(|| panic!("step {step:?} is not local under this layout"));
    let dist = 1usize << lambda;
    debug_assert_eq!(data.len(), layout.local_size());

    match stage_direction(layout, me, step.direction_bit()) {
        Some(dir) => {
            for x in (0..data.len()).filter(|x| x & dist == 0) {
                compare_exchange(data, x, x | dist, dir);
            }
        }
        None => {
            // Direction varies: read it off the local position of the
            // stage's direction bit.
            let sigma = layout
                .local_position_of(step.direction_bit())
                .expect("direction bit is local in this branch");
            for x in (0..data.len()).filter(|x| x & dist == 0) {
                let dir = if (x >> sigma) & 1 == 0 {
                    Direction::Ascending
                } else {
                    Direction::Descending
                };
                compare_exchange(data, x, x | dist, dir);
            }
        }
    }
}

/// The Theorem 3 mid-phase transpose: reinterpret a local address whose low
/// `a` bits are region `D` and high `b` bits region `B` as `(D << b) | B`.
/// `scratch` is clobbered.
pub fn transpose_local<K: Copy>(data: &mut [K], a: u32, b: u32, scratch: &mut Vec<K>) {
    assert_eq!(data.len(), 1usize << (a + b), "data length must be 2^(a+b)");
    if a == 0 || b == 0 {
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(data);
    let mask_a = (1usize << a) - 1;
    for (x, &v) in scratch.iter().enumerate() {
        let d = x & mask_a;
        let bb = x >> a;
        data[(d << b) | bb] = v;
    }
}

/// Execute a whole phase with the canonical engine, including the
/// mid-phase transpose for crossing phases (so its final state matches the
/// optimized engine exactly).
pub fn run_phase_canonical<K: Ord + Copy>(
    phase: &RemapPhase,
    me: usize,
    data: &mut [K],
    scratch: &mut Vec<K>,
) {
    let before = phase.steps_before_transpose();
    for (i, &step) in phase.steps.iter().enumerate() {
        if i == before && phase.layout != phase.layout_after {
            transpose_local(data, phase.params.a, phase.params.b, scratch);
        }
        let layout = if i < before {
            &phase.layout
        } else {
            &phase.layout_after
        };
        run_step_canonical(layout, me, data, step);
    }
    // A crossing phase whose steps all precede the transpose (impossible
    // today, but keep the state machine total): transpose at the end.
    if before == phase.steps.len() && phase.layout != phase.layout_after {
        transpose_local(data, phase.params.a, phase.params.b, scratch);
    }
}

/// Execute a whole phase with the optimized engine of Theorems 2 and 3.
pub fn run_phase_merges<K: Ord + Copy>(
    phase: &RemapPhase,
    me: usize,
    data: &mut [K],
    scratch: &mut Vec<K>,
) {
    let lg_n = phase.layout.lg_local();
    match phase.params.kind {
        RemapKind::Inside => {
            // Theorem 2: the local array is one bitonic sequence; lg n
            // steps sort it in the stage's direction.
            let stage = phase.steps[0].stage;
            let dir = stage_direction(&phase.layout, me, stage)
                .expect("inside-phase direction bit is a processor bit");
            debug_assert!(bitonic_network::is_bitonic(data));
            sort_bitonic_with_scratch(data, scratch, dir);
        }
        RemapKind::Last => {
            // Final phase: `s` remaining steps of the last stage sort
            // 2^s-element bitonic chunks; the last stage is ascending.
            let s = phase.steps.len() as u32;
            sort_bitonic_chunks_with_scratch(data, s, scratch, Direction::Ascending);
        }
        RemapKind::Crossing => {
            let (a, b) = (phase.params.a, phase.params.b);
            // Sub-phase 1: 2^b bitonic chunks of 2^a elements; the
            // direction bit (stage lg n + k) is the *top local bit*, so
            // the first half of the chunks ascend and the second half
            // descend.
            let sigma = phase
                .layout
                .local_position_of(phase.steps[0].direction_bit())
                .expect("crossing sub-phase 1 direction bit is the top local bit");
            debug_assert_eq!(sigma, lg_n - 1);
            let (ascending, descending) = data.split_at_mut(data.len() / 2);
            sort_bitonic_chunks_with_scratch(ascending, a, scratch, Direction::Ascending);
            sort_bitonic_chunks_with_scratch(descending, a, scratch, Direction::Descending);
            transpose_local(data, a, b, scratch);
            // Sub-phase 2: 2^a bitonic chunks of 2^b elements; direction
            // bit (stage lg n + k + 1) is a processor bit (or beyond the
            // address width in the final stage).
            let stage2 = phase.steps.last().expect("crossing phase has steps").stage;
            let dir2 = stage_direction(&phase.layout_after, me, stage2)
                .expect("crossing sub-phase 2 direction bit is a processor bit");
            sort_bitonic_chunks_with_scratch(data, b, scratch, dir2);
        }
    }
}

/// Execute a whole phase as one full local sort (Figure 4.5). See
/// [`LocalStrategy::FullSort`] for the validity condition; the caller is
/// responsible for checking it over the schedule.
pub fn run_phase_fullsort<K: local_sorts::RadixKey>(
    phase: &RemapPhase,
    me: usize,
    data: &mut [K],
    scratch: &mut Vec<K>,
) {
    let dir = match phase.params.kind {
        // Inside: the whole array sorts in the stage direction (Theorem 2).
        RemapKind::Inside => {
            let stage = phase.steps[0].stage;
            stage_direction(&phase.layout, me, stage)
                .expect("inside-phase direction bit is a processor bit")
        }
        // Crossing: stay in phase-1 bit order; sort in the *next* stage's
        // direction (its bit is a processor bit in phase-1 order too).
        RemapKind::Crossing => {
            let stage2 = phase.steps.last().expect("crossing phase has steps").stage;
            stage_direction(&phase.layout, me, stage2)
                .expect("crossing-phase next-stage direction bit is a processor bit")
        }
        // Final phase: the local slice of the blocked, globally ascending
        // output.
        RemapKind::Last => Direction::Ascending,
    };
    local_sorts::local_sort_with_scratch(data, scratch, dir);
}

/// The local bit arrangement at the end of a phase under `strategy` — the
/// layout the *next* remap must be planned from. `FullSort` skips the
/// Theorem 3 transpose, so crossing phases end in phase-1 order.
#[must_use]
pub fn layout_after_for(strategy: LocalStrategy, phase: &RemapPhase) -> BitLayout {
    match strategy {
        LocalStrategy::FullSort => phase.layout.clone(),
        _ => phase.layout_after.clone(),
    }
}

/// Is [`LocalStrategy::FullSort`] valid for this schedule — i.e., is no
/// crossing remap followed by an inside remap (Section 4.1)?
#[must_use]
pub fn fullsort_valid(schedule: &crate::schedule::SmartSchedule) -> bool {
    schedule.phases.windows(2).all(|w| {
        !(w[0].params.kind == RemapKind::Crossing && w[1].params.kind == RemapKind::Inside)
    })
}

/// Dispatch on [`LocalStrategy`].
pub fn run_phase<K: local_sorts::RadixKey>(
    strategy: LocalStrategy,
    phase: &RemapPhase,
    me: usize,
    data: &mut [K],
    scratch: &mut Vec<K>,
) {
    match strategy {
        LocalStrategy::Canonical => run_phase_canonical(phase, me, data, scratch),
        LocalStrategy::Merges => run_phase_merges(phase, me, data, scratch),
        LocalStrategy::FullSort => run_phase_fullsort(phase, me, data, scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::blocked;
    use crate::remap::RemapPlan;
    use crate::schedule::SmartSchedule;

    #[test]
    fn transpose_is_its_own_inverse_when_swapped() {
        let mut data: Vec<u32> = (0..32).collect();
        let orig = data.clone();
        let mut scratch = Vec::new();
        transpose_local(&mut data, 2, 3, &mut scratch);
        assert_ne!(data, orig);
        transpose_local(&mut data, 3, 2, &mut scratch);
        assert_eq!(data, orig, "transposing back with swapped widths restores");
    }

    #[test]
    fn transpose_moves_strides_to_chunks() {
        // a=1, b=2: old index (B<<1)|D -> new (D<<2)|B.
        let mut data = vec![0u32, 1, 2, 3, 4, 5, 6, 7];
        let mut scratch = Vec::new();
        transpose_local(&mut data, 1, 2, &mut scratch);
        // Element at old x lands at new ((x&1)<<2)|(x>>1).
        assert_eq!(data, vec![0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn stage_direction_blocked_alternates_with_me() {
        let l = blocked(6, 3);
        // Stage 4's direction bit is abs bit 4 = proc bit 1.
        assert_eq!(stage_direction(&l, 0b000, 4), Some(Direction::Ascending));
        assert_eq!(stage_direction(&l, 0b010, 4), Some(Direction::Descending));
        // Stage 6 = lg N: always ascending.
        assert_eq!(stage_direction(&l, 0b111, 6), Some(Direction::Ascending));
        // Stage 2's bit is local: no single direction.
        assert_eq!(stage_direction(&l, 0b000, 2), None);
    }

    #[test]
    fn initial_direction_is_even_odd() {
        let l = blocked(6, 3);
        assert_eq!(initial_direction(&l, 0), Direction::Ascending);
        assert_eq!(initial_direction(&l, 1), Direction::Descending);
        assert_eq!(initial_direction(&l, 2), Direction::Ascending);
    }

    /// Per-phase snapshots of all processors' arrays.
    type States = Vec<Vec<Vec<u64>>>;

    /// Drive a full sequential sort with the given engine and verify the
    /// merges engine matches the canonical engine *state-for-state*.
    fn full_run_states(n_total: usize, p: usize, seed: u64) -> (States, States) {
        let sched = SmartSchedule::new(n_total, p);
        let n = n_total / p;
        let mut x = seed | 1;
        let keys: Vec<u64> = (0..n_total)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 40
            })
            .collect();
        let blocked_layout = sched.blocked_layout();

        let run = |strategy: LocalStrategy| -> States {
            let mut per_proc: Vec<Vec<u64>> = (0..p)
                .map(|me| keys[me * n..(me + 1) * n].to_vec())
                .collect();
            let mut scratch = Vec::new();
            // Initial blocked phase.
            for (me, d) in per_proc.iter_mut().enumerate() {
                let mut v = d.clone();
                v.sort_unstable();
                if initial_direction(&blocked_layout, me) == Direction::Descending {
                    v.reverse();
                }
                *d = v;
            }
            let mut states = vec![per_proc.clone()];
            let mut prev = blocked_layout.clone();
            for phase in &sched.phases {
                let plans: Vec<RemapPlan> = (0..p)
                    .map(|me| RemapPlan::new(&prev, &phase.layout, me))
                    .collect();
                RemapPlan::apply_sequential(&plans, &mut per_proc);
                for (me, d) in per_proc.iter_mut().enumerate() {
                    run_phase(strategy, phase, me, d, &mut scratch);
                }
                states.push(per_proc.clone());
                prev = phase.layout_after.clone();
            }
            states
        };
        (run(LocalStrategy::Canonical), run(LocalStrategy::Merges))
    }

    #[test]
    fn merges_engine_matches_canonical_state_for_state() {
        for (n_total, p, seed) in [
            (256usize, 16usize, 1u64), // the Figure 3.3 shape
            (64, 4, 2),
            (128, 8, 3),
            (1024, 4, 4),
            (64, 16, 5), // n < P territory
            (64, 32, 6), // n << P
            (32, 2, 7),
        ] {
            let (canon, merges) = full_run_states(n_total, p, seed);
            assert_eq!(canon.len(), merges.len());
            for (i, (c, m)) in canon.iter().zip(merges.iter()).enumerate() {
                assert_eq!(c, m, "divergence after phase {i} (N={n_total}, P={p})");
            }
            // And the final state is the globally sorted array, blocked.
            let finals: Vec<u64> = canon.last().unwrap().concat();
            assert!(finals.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
        }
    }

    /// The chunked merges of every crossing sub-phase and final phase
    /// match the canonical steps, for P in {2, 4, 8, 16} and a range of
    /// local sizes — crossing phases with `a` in {1, 2, 3} merge both an
    /// ascending and a descending half of 2^a-element chunks.
    #[test]
    fn chunked_merges_match_canonical_across_machine_sizes() {
        let mut crossing_a = std::collections::BTreeSet::new();
        for p in [2usize, 4, 8, 16] {
            let lg_p = p.trailing_zeros();
            for lg_n in 1..=(14 - lg_p).min(10) {
                let n_total = p << lg_n;
                let sched = SmartSchedule::new(n_total, p);
                crossing_a.extend(
                    sched
                        .phases
                        .iter()
                        .filter(|ph| ph.params.kind == RemapKind::Crossing)
                        .map(|ph| ph.params.a),
                );
                let (canon, merges) = full_run_states(n_total, p, u64::from(lg_n) * 31 + 7);
                for (i, (c, m)) in canon.iter().zip(merges.iter()).enumerate() {
                    assert_eq!(c, m, "divergence after phase {i} (N={n_total}, P={p})");
                }
            }
        }
        for a in 1..=3 {
            assert!(
                crossing_a.contains(&a),
                "no crossing phase with a={a}: {crossing_a:?}"
            );
        }
    }

    #[test]
    fn canonical_engine_sorts_with_duplicates() {
        let (canon, merges) = full_run_states(256, 16, 0xDEAD);
        let finals: Vec<u64> = merges.last().unwrap().concat();
        assert!(finals.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(canon.last(), merges.last());
    }

    #[test]
    #[should_panic(expected = "not local")]
    fn canonical_step_rejects_remote_bits() {
        let l = blocked(6, 3);
        let mut data = vec![0u32; 8];
        // Stage 6, step 6 compares bit 5 — a processor bit under blocked.
        run_step_canonical(&l, 0, &mut data, StepId { stage: 6, step: 6 });
    }
}
