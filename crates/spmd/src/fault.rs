//! Deterministic fault injection for the SPMD machine.
//!
//! The thesis assumes a lossless, in-order Meiko CS-2 network; a
//! production-scale machine does not get that luxury. This module
//! manufactures the failure conditions that dominate real runs — latency
//! jitter, reordering, duplication, drops, and whole-rank stalls — in a
//! way that is *byte-reproducible*: every fault decision is a pure
//! function of the master seed and the message's link coordinates
//! `(src, dst, seq)`, never of wall-clock time or thread scheduling. Two
//! runs with the same [`FaultConfig`] inject exactly the same faults, no
//! matter how the OS schedules the ranks.
//!
//! The *recovery* machinery that makes the faults survivable (sequence
//! numbers, reorder buffers, duplicate suppression, the nack/retransmit
//! path, the barrier watchdog) lives in [`crate::comm`]; this module owns
//! the configuration, the seeded decision function, the fault counters,
//! and the structured [`RankFailure`] error a watchdog converts a
//! permanent stall into.

use std::time::Duration;

/// Configuration of the fault-injection layer, passed to
/// [`crate::runtime::run_spmd_chaos`].
///
/// All rates are per-message probabilities in `[0, 1)`. With
/// [`FaultConfig::off`] (the default) no fault session is created at all
/// and the mesh runs its legacy zero-overhead paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed. Every per-link decision stream is derived from it, so
    /// runs with equal seeds (and equal traffic) inject identical faults.
    pub seed: u64,
    /// Probability that a data message is dropped on the wire (recovered
    /// via the receiver-driven nack/retransmit path).
    pub drop_rate: f64,
    /// Probability that a data message is delivered twice (the duplicate
    /// is suppressed by the receiver's sequence tracking).
    pub dup_rate: f64,
    /// Probability that a data message is held back and emitted *after*
    /// its successor on the same link (bounded reordering; the receiver's
    /// reorder buffer restores sequence order).
    pub reorder_rate: f64,
    /// Maximum injected per-message latency, microseconds (the actual
    /// jitter is drawn uniformly in `0..=jitter_us` per message). 0 = off.
    pub jitter_us: u64,
    /// Rank to afflict with a whole-rank stall ("slow rank" skew).
    pub stall_rank: Option<usize>,
    /// Injected sleep at the start of each collective on `stall_rank`,
    /// microseconds.
    pub stall_us: u64,
    /// How long a receiver waits for an expected message before nacking
    /// the sender (the first retry tick; subsequent ticks back off
    /// exponentially up to [`FaultConfig::backoff_cap`]).
    pub retry_tick: Duration,
    /// Upper bound on the exponential nack backoff.
    pub backoff_cap: Duration,
    /// Cumulative blocked time after which a rank declares the machine
    /// wedged and fails with a [`RankFailure`] instead of deadlocking.
    /// `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl FaultConfig {
    /// No faults, no watchdog: the mesh takes its legacy paths and the
    /// run is indistinguishable from one without a fault layer.
    #[must_use]
    pub fn off() -> Self {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            jitter_us: 0,
            stall_rank: None,
            stall_us: 0,
            retry_tick: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(8),
            watchdog: None,
        }
    }

    /// A moderate all-classes preset seeded with `seed`: a few percent of
    /// drops and duplicates, noticeable reordering and jitter, and a
    /// generous watchdog so genuine bugs fail fast instead of hanging CI.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_rate: 0.02,
            dup_rate: 0.02,
            reorder_rate: 0.05,
            jitter_us: 20,
            watchdog: Some(Duration::from_secs(10)),
            ..FaultConfig::off()
        }
    }

    /// Whether any fault class or the watchdog is active — i.e. whether
    /// the mesh needs a fault session at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.injects() || self.watchdog.is_some()
    }

    /// Whether any fault class is active: [`FaultConfig::enabled`]
    /// without the watchdog, which only converts a stall into a failure
    /// and injects nothing.
    #[must_use]
    pub fn injects(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.reorder_rate > 0.0
            || self.jitter_us > 0
            || (self.stall_rank.is_some() && self.stall_us > 0)
    }

    /// Validate the configuration.
    ///
    /// # Panics
    /// Panics if any rate is outside `[0, 1)` or not finite — a drop rate
    /// of 1.0 would mean *no* copy of a message ever survives, including
    /// retransmissions, so the machine could never make progress.
    pub fn validate(&self) {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("dup_rate", self.dup_rate),
            ("reorder_rate", self.reorder_rate),
        ] {
            assert!(
                rate.is_finite() && (0.0..1.0).contains(&rate),
                "{name} must be in [0, 1), got {rate}"
            );
        }
        assert!(
            self.retry_tick > Duration::ZERO,
            "retry_tick must be positive"
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// The fault classes a message can be subjected to. Each class consumes
/// its own decision stream, so e.g. raising the drop rate does not change
/// which messages get duplicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultClass {
    Drop,
    Duplicate,
    Reorder,
    Jitter,
}

impl FaultClass {
    fn salt(self) -> u64 {
        match self {
            FaultClass::Drop => 0x9E37_79B9_7F4A_7C15,
            FaultClass::Duplicate => 0xD1B5_4A32_D192_ED03,
            FaultClass::Reorder => 0x8CB9_2BA7_2F3D_8DD7,
            FaultClass::Jitter => 0x2545_F491_4F6C_DD1D,
        }
    }
}

/// One xorshift64* step — the mixing core of the decision streams.
fn xorshift_star(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The per-link decision stream: a stateless PRF over
/// `(seed, src, dst, class, seq)`. Stateless is the point — the value for
/// message `seq` on link `src→dst` does not depend on how many faults
/// other links drew before it, so fault decisions are independent of
/// thread interleaving. Retransmitted copies reuse the original `seq` and
/// are *not* re-injected, so each data message consumes exactly one draw
/// per class no matter how often it is resent.
#[must_use]
pub(crate) fn fault_draw(seed: u64, src: usize, dst: usize, class: FaultClass, seq: u64) -> u64 {
    let link = ((src as u64) << 32) | dst as u64;
    let mut x = seed ^ class.salt() ^ xorshift_star(link.wrapping_add(0xA076_1D64_78BD_642F));
    x = x.wrapping_add(seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Two rounds: one to mix seq in, one to decorrelate adjacent streams.
    xorshift_star(xorshift_star(x | 1))
}

/// Bernoulli decision at probability `rate` from the link's stream.
#[must_use]
pub(crate) fn fault_hit(
    seed: u64,
    src: usize,
    dst: usize,
    class: FaultClass,
    seq: u64,
    rate: f64,
) -> bool {
    if rate <= 0.0 {
        return false;
    }
    // Top 53 bits → uniform f64 in [0, 1).
    let u = (fault_draw(seed, src, dst, class, seq) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < rate
}

/// Fault-layer counters, carried inside [`crate::CommStats`].
///
/// The *injected* counters (`drops_injected`, `dups_injected`,
/// `reorders_injected`, `jitter_events`, `stalls_injected`) and
/// `acks_sent` are deterministic: they depend only on the seed and the
/// traffic, so two runs with equal configs produce equal values — the
/// chaos suite regression-tests this via [`FaultStats::injected`]. The
/// *recovery* counters (`retries`, `nacks_sent`, `dups_suppressed`) and
/// the time fields depend on wall-clock races (how late a message is when
/// the receiver's patience runs out) and legitimately vary between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Data messages dropped on the wire by injection.
    pub drops_injected: u64,
    /// Data messages delivered twice by injection.
    pub dups_injected: u64,
    /// Data messages held back past a successor by injection.
    pub reorders_injected: u64,
    /// Data messages delayed by injected jitter.
    pub jitter_events: u64,
    /// Whole-rank stalls injected at collective boundaries.
    pub stalls_injected: u64,
    /// Acknowledgements sent (one per distinct sequence number
    /// delivered — deterministic, unlike the recovery counters).
    pub acks_sent: u64,
    /// Payloads retransmitted in response to a peer's nack.
    pub retries: u64,
    /// Nacks sent while waiting out a missing message.
    pub nacks_sent: u64,
    /// Received copies discarded by duplicate suppression (injected
    /// duplicates plus retransmissions that crossed their ack in flight).
    pub dups_suppressed: u64,
    /// Wall-clock spent retransmitting (inside Transfer windows).
    pub retry_time: Duration,
    /// Wall-clock of injected stalls on this rank.
    pub stall_time: Duration,
}

impl FaultStats {
    /// The deterministic subset: equal seeds and traffic give equal
    /// values. This is what the determinism regression test compares —
    /// the recovery counters are timing-dependent by design.
    #[must_use]
    pub fn injected(&self) -> [u64; 6] {
        [
            self.drops_injected,
            self.dups_injected,
            self.reorders_injected,
            self.jitter_events,
            self.stalls_injected,
            self.acks_sent,
        ]
    }

    /// Total injected fault events of every class.
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.drops_injected
            + self.dups_injected
            + self.reorders_injected
            + self.jitter_events
            + self.stalls_injected
    }

    /// Field-wise additive merge (the machine-total view over ranks —
    /// what the serving pool folds into its lifetime fault counters).
    pub fn sum_merge(&mut self, other: &FaultStats) {
        self.drops_injected += other.drops_injected;
        self.dups_injected += other.dups_injected;
        self.reorders_injected += other.reorders_injected;
        self.jitter_events += other.jitter_events;
        self.stalls_injected += other.stalls_injected;
        self.acks_sent += other.acks_sent;
        self.retries += other.retries;
        self.nacks_sent += other.nacks_sent;
        self.dups_suppressed += other.dups_suppressed;
        self.retry_time += other.retry_time;
        self.stall_time += other.stall_time;
    }

    /// Field-wise maximum merge (the critical-path view over ranks).
    pub fn max_merge(&mut self, other: &FaultStats) {
        self.drops_injected = self.drops_injected.max(other.drops_injected);
        self.dups_injected = self.dups_injected.max(other.dups_injected);
        self.reorders_injected = self.reorders_injected.max(other.reorders_injected);
        self.jitter_events = self.jitter_events.max(other.jitter_events);
        self.stalls_injected = self.stalls_injected.max(other.stalls_injected);
        self.acks_sent = self.acks_sent.max(other.acks_sent);
        self.retries = self.retries.max(other.retries);
        self.nacks_sent = self.nacks_sent.max(other.nacks_sent);
        self.dups_suppressed = self.dups_suppressed.max(other.dups_suppressed);
        self.retry_time = self.retry_time.max(other.retry_time);
        self.stall_time = self.stall_time.max(other.stall_time);
    }
}

/// Where a failing rank was blocked when its watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePhase {
    /// Waiting at a barrier that never opened.
    Barrier,
    /// Waiting for an expected message that never arrived.
    Receive,
    /// Draining acknowledgements at the end of a collective.
    Drain,
}

impl FailurePhase {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailurePhase::Barrier => "barrier",
            FailurePhase::Receive => "receive",
            FailurePhase::Drain => "drain",
        }
    }
}

/// A rank's structured report that the machine is permanently wedged —
/// what the barrier/receive watchdogs convert a deadlock into.
/// [`crate::runtime::run_spmd_chaos`] returns it as an error instead of
/// hanging or propagating an opaque panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankFailure {
    /// The rank whose watchdog fired.
    pub rank: usize,
    /// Where it was blocked.
    pub during: FailurePhase,
    /// The peer it was waiting on, when known (receive/drain).
    pub waiting_on: Option<usize>,
    /// How long it had been blocked when it gave up.
    pub waited: Duration,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} stalled in {} for {:.1?}",
            self.rank,
            self.during.name(),
            self.waited
        )?;
        if let Some(peer) = self.waiting_on {
            write!(f, " waiting on rank {peer}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RankFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_disabled_and_valid() {
        let cfg = FaultConfig::off();
        assert!(!cfg.enabled());
        cfg.validate();
        assert_eq!(cfg, FaultConfig::default());
    }

    #[test]
    fn chaos_preset_is_enabled_and_valid() {
        let cfg = FaultConfig::chaos(42);
        assert!(cfg.enabled());
        cfg.validate();
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn watchdog_alone_enables_a_session() {
        let cfg = FaultConfig {
            watchdog: Some(Duration::from_secs(1)),
            ..FaultConfig::off()
        };
        assert!(cfg.enabled(), "watchdog-only mode still needs the session");
        assert!(!cfg.injects(), "a watchdog injects no fault");
    }

    #[test]
    fn injects_tracks_every_fault_class() {
        assert!(!FaultConfig::off().injects());
        assert!(FaultConfig::chaos(7).injects());
        let off = FaultConfig::off();
        for cfg in [
            FaultConfig {
                drop_rate: 0.01,
                ..off
            },
            FaultConfig {
                dup_rate: 0.01,
                ..off
            },
            FaultConfig {
                reorder_rate: 0.01,
                ..off
            },
            FaultConfig {
                jitter_us: 1,
                ..off
            },
            FaultConfig {
                stall_rank: Some(0),
                stall_us: 1,
                ..off
            },
        ] {
            assert!(cfg.injects(), "{cfg:?}");
            assert!(cfg.enabled());
        }
        // A stall needs both its rank and a duration.
        let rank_only = FaultConfig {
            stall_rank: Some(1),
            ..off
        };
        assert!(!rank_only.injects());
    }

    #[test]
    #[should_panic(expected = "drop_rate must be in [0, 1)")]
    fn full_drop_rate_rejected() {
        FaultConfig {
            drop_rate: 1.0,
            ..FaultConfig::off()
        }
        .validate();
    }

    #[test]
    fn draws_are_reproducible_and_link_dependent() {
        let a = fault_draw(7, 0, 1, FaultClass::Drop, 3);
        assert_eq!(a, fault_draw(7, 0, 1, FaultClass::Drop, 3));
        assert_ne!(a, fault_draw(8, 0, 1, FaultClass::Drop, 3), "seed");
        assert_ne!(a, fault_draw(7, 1, 0, FaultClass::Drop, 3), "link");
        assert_ne!(a, fault_draw(7, 0, 1, FaultClass::Duplicate, 3), "class");
        assert_ne!(a, fault_draw(7, 0, 1, FaultClass::Drop, 4), "seq");
    }

    #[test]
    fn hit_rate_tracks_probability() {
        let mut hits = 0u32;
        const N: u64 = 20_000;
        for seq in 0..N {
            if fault_hit(99, 2, 5, FaultClass::Drop, seq, 0.25) {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / N as f64;
        assert!((rate - 0.25).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn zero_rate_never_hits() {
        assert!((0..1000).all(|s| !fault_hit(1, 0, 1, FaultClass::Drop, s, 0.0)));
    }

    #[test]
    fn stats_merge_takes_field_wise_max() {
        let mut a = FaultStats {
            drops_injected: 5,
            retries: 1,
            ..Default::default()
        };
        let b = FaultStats {
            drops_injected: 2,
            retries: 9,
            stall_time: Duration::from_millis(3),
            ..Default::default()
        };
        a.max_merge(&b);
        assert_eq!(a.drops_injected, 5);
        assert_eq!(a.retries, 9);
        assert_eq!(a.stall_time, Duration::from_millis(3));
    }

    #[test]
    fn failure_display_names_peer() {
        let f = RankFailure {
            rank: 3,
            during: FailurePhase::Receive,
            waiting_on: Some(1),
            waited: Duration::from_millis(250),
        };
        let s = f.to_string();
        assert!(s.contains("rank 3"), "{s}");
        assert!(s.contains("receive"), "{s}");
        assert!(s.contains("rank 1"), "{s}");
    }
}
