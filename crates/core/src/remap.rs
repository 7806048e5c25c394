//! The generic remap engine: redistributing data between two layouts.
//!
//! A remap is a three-phase long-message transfer (Figure 3.17): *pack* the
//! elements bound for each processor into one message, *transfer* the
//! messages, *unpack* arrivals into their local addresses. The pack and
//! unpack masks of Section 3.3.1 become, for arbitrary [`BitLayout`]s,
//! precomputed gather/scatter index tables; the canonical message order is
//! ascending destination local address, so the receiver needs no per-key
//! address headers (both sides derive the order from the two layouts).

use crate::address::BitLayout;
use spmd::{Comm, Phase};

/// A precomputed remap between two layouts, from one rank's perspective.
///
/// ```
/// use bitonic_core::layout::{blocked, cyclic};
/// use bitonic_core::RemapPlan;
/// let plan = RemapPlan::new(&blocked(4, 2), &cyclic(4, 2), 0);
/// // Under a full blocked→cyclic remap every rank keeps n/P elements…
/// assert_eq!(plan.kept(0), 1);
/// // …and exchanges with every other rank (group of P).
/// assert_eq!(plan.partners(0).count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RemapPlan {
    procs: usize,
    local: usize,
    /// Local source indices to pack, concatenated per destination rank in
    /// rank order; segment `dst` is ordered by the element's destination
    /// local address (the pack mask). One flat table instead of
    /// `Vec<Vec<u32>>` keeps the pack loop a single linear walk.
    gather: Vec<u32>,
    /// `gather_offsets[d]..gather_offsets[d + 1]` bounds destination `d`'s
    /// segment of `gather`.
    gather_offsets: Vec<usize>,
    /// Local destination indices for arriving elements, concatenated per
    /// source rank in rank order; segment `src` is in the same canonical
    /// order the sender packed (the unpack mask). Always a permutation of
    /// `0..local`.
    scatter: Vec<u32>,
    /// `scatter_offsets[s]..scatter_offsets[s + 1]` bounds source `s`'s
    /// segment of `scatter`.
    scatter_offsets: Vec<usize>,
    /// Per-destination segment lengths — exactly the `send_counts` of
    /// [`spmd::Comm::alltoallv`].
    send_counts: Vec<usize>,
    /// Per-source segment lengths — the `recv_counts` of `alltoallv`,
    /// computable on both sides because the plan is shared knowledge.
    recv_counts: Vec<usize>,
    /// `dest[x]` — destination rank of local position `x`; the inverse
    /// view of `gather`, used by the fused pipeline to pack in array
    /// order.
    dest: Vec<u32>,
}

impl RemapPlan {
    /// Plan the remap `old → new` as seen from processor `me`.
    ///
    /// # Panics
    /// Panics if the layouts disagree on dimensions.
    #[must_use]
    pub fn new(old: &BitLayout, new: &BitLayout, me: usize) -> Self {
        assert_eq!(
            old.lg_total(),
            new.lg_total(),
            "layouts must address the same N"
        );
        assert_eq!(old.lg_local(), new.lg_local(), "layouts must agree on n");
        let procs = old.procs();
        let local = old.local_size();
        assert!(me < procs);

        // Pack side: where does each of my current elements go? Build the
        // per-destination segments sorted by destination local address,
        // then flatten them into one table with offsets.
        let mut gather_pairs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); procs];
        let mut dest = vec![0u32; local];
        for (x, d) in dest.iter_mut().enumerate() {
            let abs = old.abs_at(me, x);
            let dst = new.proc_of(abs);
            let new_local = new.local_of(abs);
            *d = dst as u32;
            gather_pairs[dst].push((new_local as u32, x as u32));
        }
        let mut gather = Vec::with_capacity(local);
        let mut gather_offsets = Vec::with_capacity(procs + 1);
        let mut send_counts = Vec::with_capacity(procs);
        gather_offsets.push(0);
        for mut segment in gather_pairs {
            segment.sort_unstable_by_key(|&(new_local, _)| new_local);
            send_counts.push(segment.len());
            gather.extend(segment.into_iter().map(|(_, x)| x));
            gather_offsets.push(gather.len());
        }

        // Unpack side: which of my future elements come from each source?
        // Walking new local addresses in ascending order reproduces the
        // sender's canonical order without communication. Two passes: count
        // each source's segment, then fill the flat table in place.
        let mut recv_counts = vec![0usize; procs];
        for y in 0..local {
            recv_counts[old.proc_of(new.abs_at(me, y))] += 1;
        }
        let mut scatter_offsets = Vec::with_capacity(procs + 1);
        scatter_offsets.push(0);
        for &c in &recv_counts {
            scatter_offsets.push(scatter_offsets.last().unwrap() + c);
        }
        let mut cursor = scatter_offsets.clone();
        let mut scatter = vec![0u32; local];
        for y in 0..local {
            let src = old.proc_of(new.abs_at(me, y));
            scatter[cursor[src]] = y as u32;
            cursor[src] += 1;
        }
        RemapPlan {
            procs,
            local,
            gather,
            gather_offsets,
            scatter,
            scatter_offsets,
            send_counts,
            recv_counts,
            dest,
        }
    }

    /// Number of elements this rank keeps (`N_keep = n / 2^{N_BitsChanged}`,
    /// Section 3.2.1).
    #[must_use]
    pub fn kept(&self, me: usize) -> usize {
        self.send_counts[me]
    }

    /// Number of elements this rank sends away.
    #[must_use]
    pub fn sent(&self, me: usize) -> usize {
        self.local - self.kept(me)
    }

    /// Ranks this plan actually exchanges data with (non-empty messages).
    pub fn partners(&self, me: usize) -> impl Iterator<Item = usize> + '_ {
        let me_copy = me;
        (0..self.procs).filter(move |&d| d != me_copy && self.send_counts[d] > 0)
    }

    /// The gather indices (pack mask realization) for destination `dst`.
    #[must_use]
    pub fn gather_indices(&self, dst: usize) -> &[u32] {
        &self.gather[self.gather_offsets[dst]..self.gather_offsets[dst + 1]]
    }

    /// The scatter indices (unpack mask realization) for source `src`.
    #[must_use]
    pub fn scatter_indices(&self, src: usize) -> &[u32] {
        &self.scatter[self.scatter_offsets[src]..self.scatter_offsets[src + 1]]
    }

    /// Per-destination message sizes — the `send_counts` argument of
    /// [`spmd::Comm::alltoallv`] for this remap.
    #[must_use]
    pub fn send_counts(&self) -> &[usize] {
        &self.send_counts
    }

    /// Per-source message sizes — the `recv_counts` argument of
    /// [`spmd::Comm::alltoallv`] for this remap.
    #[must_use]
    pub fn recv_counts(&self) -> &[usize] {
        &self.recv_counts
    }

    /// Destination rank of every local position, `dest[x]` — the inverse
    /// view of the gather tables. Used by the fused pipeline of Section
    /// 4.3 to pack messages in *array order* (so a sorted array yields
    /// sorted messages) with one linear pass. Precomputed, so repeated
    /// phases borrow it for free.
    #[must_use]
    pub fn destinations(&self) -> &[u32] {
        &self.dest
    }

    /// Execute the remap over the SPMD machine: pack, all-to-all transfer,
    /// unpack. `data` is consumed and the relocated array returned. Pack
    /// and unpack wall-clock are charged to their phases; the transfer to
    /// [`Phase::Transfer`] (inside [`Comm::exchange`]).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the layouts' `n`.
    pub fn apply<K: Copy + Send + 'static>(&self, comm: &mut Comm<K>, data: &[K]) -> Vec<K> {
        assert_eq!(data.len(), self.local, "data length must equal n");
        assert_eq!(
            comm.procs(),
            self.procs,
            "plan built for a different machine size"
        );
        let me = comm.rank();

        let outgoing: Vec<Vec<K>> = comm.timed(Phase::Pack, |_| {
            (0..self.procs)
                .map(|d| {
                    self.gather_indices(d)
                        .iter()
                        .map(|&i| data[i as usize])
                        .collect()
                })
                .collect()
        });

        let incoming = comm.exchange(outgoing);

        comm.timed(Phase::Unpack, |_| {
            let mut out = vec![incoming[me].first().copied().unwrap_or(data[0]); self.local];
            for (src, values) in incoming.iter().enumerate() {
                let slots = self.scatter_indices(src);
                assert_eq!(
                    slots.len(),
                    values.len(),
                    "rank {me}: {src} sent {} elements, expected {}",
                    values.len(),
                    slots.len()
                );
                for (&slot, &v) in slots.iter().zip(values.iter()) {
                    out[slot as usize] = v;
                }
            }
            out
        })
    }

    /// Execute the remap through the zero-copy flat path: each message is
    /// gathered straight into a recycled transfer buffer, moved through
    /// [`Comm::alltoallv_with`] (recv sizes come from the plan, so empty
    /// partners cost nothing), and each arriving segment is scattered
    /// straight into `out` — every element is touched exactly twice, with
    /// no intermediate flat copy on either side.
    ///
    /// `out` is overwritten each call; once it and the
    /// communicator's buffer pool have grown to the remap's working-set
    /// size — after the first call, for a fixed plan — subsequent calls
    /// perform **zero heap allocations**. Callers double-buffer by
    /// swapping `out` with their data vector between remaps (see
    /// [`crate::context::SortContext::remap`]).
    ///
    /// The wire format, message order, and recorded R/V/M counters are
    /// identical to [`RemapPlan::apply`]; the two are property-tested for
    /// exact output equality.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the layouts' `n` or the plan
    /// was built for a different machine size.
    pub fn apply_into<K: Copy + Send + 'static>(
        &self,
        comm: &mut Comm<K>,
        data: &[K],
        out: &mut Vec<K>,
    ) {
        assert_eq!(data.len(), self.local, "data length must equal n");
        assert_eq!(
            comm.procs(),
            self.procs,
            "plan built for a different machine size"
        );

        // `scatter` is a permutation of 0..local, so the transfer
        // overwrites every slot: only a length change needs a write here,
        // and on a warm context `out` is already `local` long.
        out.resize(self.local, data[0]);
        let out = &mut out[..];
        comm.alltoallv_with(
            &self.send_counts,
            &self.recv_counts,
            |dst, buf| buf.extend(self.gather_indices(dst).iter().map(|&i| data[i as usize])),
            |src, segment| {
                for (&slot, &v) in self.scatter_indices(src).iter().zip(segment.iter()) {
                    out[slot as usize] = v;
                }
            },
        );
    }

    /// Apply the remap without a machine: move elements between the
    /// per-processor arrays directly. Used by the sequential reference
    /// executor and by tests.
    pub fn apply_sequential<K: Copy>(plans: &[RemapPlan], data: &mut [Vec<K>]) {
        let procs = data.len();
        // Pack everything first (the plans may overlap arbitrarily).
        let mut in_flight: Vec<Vec<Vec<K>>> = Vec::with_capacity(procs);
        for (me, plan) in plans.iter().enumerate() {
            in_flight.push(
                (0..procs)
                    .map(|d| {
                        plan.gather_indices(d)
                            .iter()
                            .map(|&i| data[me][i as usize])
                            .collect()
                    })
                    .collect(),
            );
        }
        for (me, plan) in plans.iter().enumerate() {
            for (src, flight) in in_flight.iter_mut().enumerate() {
                let values = std::mem::take(&mut flight[me]);
                let slots = plan.scatter_indices(src);
                assert_eq!(slots.len(), values.len());
                for (&slot, v) in slots.iter().zip(values) {
                    data[me][slot as usize] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{blocked, cyclic};
    use crate::smart::SmartParams;
    use proptest::prelude::*;

    /// Move data between two layouts sequentially and check every node
    /// landed at the address the new layout dictates.
    fn check_remap(old: &BitLayout, new: &BitLayout) {
        let procs = old.procs();
        let n = old.local_size();
        // data[p][x] = absolute address stored there under `old`.
        let mut data: Vec<Vec<usize>> = (0..procs)
            .map(|p| (0..n).map(|x| old.abs_at(p, x)).collect())
            .collect();
        let plans: Vec<RemapPlan> = (0..procs).map(|me| RemapPlan::new(old, new, me)).collect();
        RemapPlan::apply_sequential(&plans, &mut data);
        for (p, row) in data.iter().enumerate() {
            for (x, &abs) in row.iter().enumerate() {
                assert_eq!(
                    (new.proc_of(abs), new.local_of(abs)),
                    (p, x),
                    "node {abs} landed at ({p}, {x})"
                );
            }
        }
    }

    #[test]
    fn blocked_to_cyclic_and_back() {
        for (lg_total, lg_local) in [(4u32, 2u32), (6, 3), (8, 5)] {
            let b = blocked(lg_total, lg_local);
            let c = cyclic(lg_total, lg_local);
            check_remap(&b, &c);
            check_remap(&c, &b);
        }
    }

    #[test]
    fn blocked_to_smart_inside() {
        let b = blocked(8, 4);
        let s = SmartParams::new(4, 4, 1, 5).layout(4, 4);
        check_remap(&b, &s);
    }

    #[test]
    fn whole_figure_3_3_schedule_remaps_correctly() {
        // Chain all seven remaps of the N=256/P=16 example.
        let sched = crate::schedule::SmartSchedule::new(256, 16);
        let mut prev = sched.blocked_layout();
        for phase in &sched.phases {
            check_remap(&prev, &phase.layout);
            // The transpose between layout and layout_after is local-only;
            // check it as a remap too (it must keep everything in place
            // processor-wise).
            check_remap(&phase.layout, &phase.layout_after);
            prev = phase.layout_after.clone();
        }
    }

    #[test]
    fn kept_matches_bits_changed() {
        // N_keep = n / 2^{N_BitsChanged} (Section 3.2.1), identical on all
        // processors.
        let b = blocked(8, 4);
        let s = SmartParams::new(4, 4, 1, 5).layout(4, 4);
        let r = b.bits_changed_to(&s);
        for me in 0..16 {
            let plan = RemapPlan::new(&b, &s, me);
            assert_eq!(plan.kept(me), 16 >> r);
            assert_eq!(plan.sent(me), 16 - (16 >> r));
        }
    }

    #[test]
    fn identity_remap_keeps_everything() {
        let b = blocked(6, 3);
        for me in 0..8 {
            let plan = RemapPlan::new(&b, &b, me);
            assert_eq!(plan.kept(me), 8);
            assert_eq!(plan.partners(me).count(), 0);
        }
    }

    #[test]
    fn partner_set_is_the_lemma_4_group() {
        // Along the real schedule, processors communicate in groups of
        // 2^r consecutive ranks starting at a multiple of 2^r, and each
        // processor sends n / 2^r elements to every other group member.
        for (n_total, p) in [(256usize, 16usize), (1usize << 10, 8)] {
            let sched = crate::schedule::SmartSchedule::new(n_total, p);
            let n = n_total / p;
            let mut prev = sched.blocked_layout();
            for phase in &sched.phases {
                let r = prev.bits_changed_to(&phase.layout);
                let group_size = 1usize << r;
                for me in 0..p {
                    let plan = RemapPlan::new(&prev, &phase.layout, me);
                    let base = (me / group_size) * group_size;
                    let expect: Vec<usize> =
                        (base..base + group_size).filter(|&q| q != me).collect();
                    let got: Vec<usize> = plan.partners(me).collect();
                    assert_eq!(got, expect, "rank {me} at {:?}", phase.info);
                    for q in got {
                        assert_eq!(
                            plan.gather_indices(q).len(),
                            n >> r,
                            "rank {me}->{q}: every group member gets n/2^r elements"
                        );
                    }
                }
                prev = phase.layout_after.clone();
            }
        }
    }

    #[test]
    fn over_the_machine_matches_sequential() {
        use spmd::{run_spmd, MessageMode};
        let old = blocked(6, 3);
        let new = cyclic(6, 3);
        // Sequential reference.
        let mut seq: Vec<Vec<usize>> = (0..8)
            .map(|p| (0..8).map(|x| old.abs_at(p, x) * 10).collect())
            .collect();
        let plans: Vec<RemapPlan> = (0..8).map(|me| RemapPlan::new(&old, &new, me)).collect();
        RemapPlan::apply_sequential(&plans, &mut seq);
        // Machine run.
        let old2 = old.clone();
        let new2 = new.clone();
        let results = run_spmd::<usize, _, _>(8, MessageMode::Long, move |comm| {
            let me = comm.rank();
            let data: Vec<usize> = (0..8).map(|x| old2.abs_at(me, x) * 10).collect();
            let plan = RemapPlan::new(&old2, &new2, me);
            plan.apply(comm, &data)
        });
        for (me, r) in results.iter().enumerate() {
            assert_eq!(r.output, seq[me], "rank {me}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Remapping between two *arbitrary* bit-permutation layouts places
        /// every node exactly where the target layout says, and chaining the
        /// reverse remap restores the original placement.
        #[test]
        fn arbitrary_layout_pairs_roundtrip(
            perm_a in Just(()).prop_perturb(|_, mut rng| {
                let mut v: Vec<u32> = (0..6).collect();
                for i in (1..v.len()).rev() {
                    let j = (rng.next_u32() as usize) % (i + 1);
                    v.swap(i, j);
                }
                v
            }),
            perm_b in Just(()).prop_perturb(|_, mut rng| {
                let mut v: Vec<u32> = (0..6).collect();
                for i in (1..v.len()).rev() {
                    let j = (rng.next_u32() as usize) % (i + 1);
                    v.swap(i, j);
                }
                v
            }),
        ) {
            let a = BitLayout::new(perm_a, 3);
            let b = BitLayout::new(perm_b, 3);
            let procs = a.procs();
            let n = a.local_size();
            let original: Vec<Vec<usize>> =
                (0..procs).map(|p| (0..n).map(|x| a.abs_at(p, x)).collect()).collect();
            let mut data = original.clone();
            let fwd: Vec<RemapPlan> =
                (0..procs).map(|me| RemapPlan::new(&a, &b, me)).collect();
            RemapPlan::apply_sequential(&fwd, &mut data);
            for (p, row) in data.iter().enumerate() {
                for (x, &abs) in row.iter().enumerate() {
                    prop_assert_eq!((b.proc_of(abs), b.local_of(abs)), (p, x));
                }
            }
            let back: Vec<RemapPlan> =
                (0..procs).map(|me| RemapPlan::new(&b, &a, me)).collect();
            RemapPlan::apply_sequential(&back, &mut data);
            prop_assert_eq!(data, original);
        }

        /// Over the running machine, the flat [`RemapPlan::apply_into`]
        /// path produces exactly the same per-rank data *and* the same
        /// R/V/M counter record as the legacy [`RemapPlan::apply`] oracle —
        /// across random layout pairs, machine shapes and both message
        /// modes.
        #[test]
        fn apply_into_matches_apply_over_the_machine(
            perm_a in Just(()).prop_perturb(|_, mut rng| {
                let mut v: Vec<u32> = (0..6).collect();
                for i in (1..v.len()).rev() {
                    let j = (rng.next_u32() as usize) % (i + 1);
                    v.swap(i, j);
                }
                v
            }),
            perm_b in Just(()).prop_perturb(|_, mut rng| {
                let mut v: Vec<u32> = (0..6).collect();
                for i in (1..v.len()).rev() {
                    let j = (rng.next_u32() as usize) % (i + 1);
                    v.swap(i, j);
                }
                v
            }),
            lg_local in 2u32..5,
            long in proptest::prelude::any::<bool>(),
        ) {
            use spmd::{run_spmd, MessageMode};
            let a = BitLayout::new(perm_a, lg_local);
            let b = BitLayout::new(perm_b, lg_local);
            let procs = a.procs();
            let mode = if long { MessageMode::Long } else { MessageMode::Short };
            let (a2, b2) = (a.clone(), b.clone());
            let results = run_spmd::<u64, _, _>(procs, mode, move |comm| {
                let me = comm.rank();
                let data: Vec<u64> = (0..a2.local_size())
                    .map(|x| (a2.abs_at(me, x) * 7 + 1) as u64)
                    .collect();
                let plan = RemapPlan::new(&a2, &b2, me);
                let oracle = plan.apply(comm, &data);
                let mut out = Vec::new();
                plan.apply_into(comm, &data, &mut out);
                (out, oracle)
            });
            for r in &results {
                let (flat, oracle) = &r.output;
                prop_assert_eq!(flat, oracle, "rank {}: flat ≡ oracle", r.rank);
                let [x, y] = &r.stats.remaps[..] else {
                    panic!("expected exactly two remap records");
                };
                prop_assert_eq!(x, y, "rank {}: R/V/M records must match", r.rank);
            }
        }
    }
}
