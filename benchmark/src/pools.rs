//! The six workloads and their seeded request pools.
//!
//! Every pool, and the oracle answer to each request in it, is generated
//! from `--seed` before any window opens; clients then cycle through the
//! pool, so nothing is sorted on the client side while a window is open.
//! Request sizes are drawn so that each size occurs equally often (or one
//! draw per equal stratum of a size range): each request's size is still
//! uniform, but the pool's mean size, which sets throughput, barely moves
//! from seed to seed.

use bitonic_core::tagged::{records_sorted_independently, sorted_independently};
use local_sorts::Direction;
use sort_service::{RecordKeys, ReplyFrame, RequestFrame, ServiceConfig};

/// Ranks per machine, as `bitonic-sort serve` runs.
pub const PROCS: usize = 4;

/// Payload bytes per key on `records-wide`.
pub const RECORD_STRIDE: usize = 64;

/// Keys sorted per `offline-sort` run: 128K keys per rank at P = 4, the
/// smallest row of the paper's Table 5.1.
pub const OFFLINE_KEYS: usize = 1 << 19;

/// Offered rate of the `inproc-open` generator, requests per second.
pub const OPEN_RATE: f64 = 16_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSmall,
    WireLarge,
    RecordsWide,
    WireBulk,
    InprocOpen,
    OfflineSort,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::WireSmall,
        Workload::WireLarge,
        Workload::RecordsWide,
        Workload::WireBulk,
        Workload::InprocOpen,
        Workload::OfflineSort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire-small",
            Workload::WireLarge => "wire-large",
            Workload::RecordsWide => "records-wide",
            Workload::WireBulk => "wire-bulk",
            Workload::InprocOpen => "inproc-open",
            Workload::OfflineSort => "offline-sort",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether clients reach the service over `SORT_1` loopback sockets.
    pub fn over_wire(self) -> bool {
        matches!(
            self,
            Workload::WireSmall | Workload::WireLarge | Workload::RecordsWide | Workload::WireBulk
        )
    }
}

/// The keys of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Keys {
    Plain(Vec<u32>),
    /// u128 keys carrying `RECORD_STRIDE` payload bytes each.
    Record {
        keys: Vec<u128>,
        payload: Vec<u8>,
    },
}

/// One request and the reply a correct system gives it.
#[derive(Debug, Clone)]
pub struct Case {
    pub keys: Keys,
    pub dir: Direction,
    pub expect: ReplyFrame,
}

impl Case {
    pub fn plain(keys: Vec<u32>, dir: Direction) -> Case {
        let expect = ReplyFrame::Sorted(sorted_independently(&keys, dir));
        Case {
            keys: Keys::Plain(keys),
            dir,
            expect,
        }
    }

    pub fn record(keys: Vec<u128>, payload: Vec<u8>, dir: Direction) -> Case {
        let oracle = records_sorted_independently(&keys, dir);
        let gathered = oracle
            .perm
            .iter()
            .flat_map(|&r| {
                let at = r as usize * RECORD_STRIDE;
                payload[at..at + RECORD_STRIDE].iter().copied()
            })
            .collect();
        let expect = ReplyFrame::Record {
            keys: RecordKeys::U128(oracle.keys),
            payload: gathered,
            stride: RECORD_STRIDE as u32,
        };
        Case {
            keys: Keys::Record { keys, payload },
            dir,
            expect,
        }
    }

    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::Plain(k) => k.len(),
            Keys::Record { keys, .. } => keys.len(),
        }
    }

    /// The request as a `SORT_1` frame (server default deadline).
    pub fn frame(&self) -> RequestFrame {
        match &self.keys {
            Keys::Plain(k) => RequestFrame::from_u32_keys(k, self.dir, None),
            Keys::Record { keys, payload } => RequestFrame::from_u128_keys(keys, self.dir, None)
                .with_payload(RECORD_STRIDE as u32, payload.clone()),
        }
    }

    /// The keys as the plain lane's u32s (a record key keeps its low 32
    /// bits), for replaying plain-lane layers on any workload.
    pub fn keys_u32(&self) -> Vec<u32> {
        match &self.keys {
            Keys::Plain(k) => k.clone(),
            Keys::Record { keys, .. } => keys.iter().map(|&k| k as u32).collect(),
        }
    }

    /// The keys widened to u128, for replaying the record lane.
    pub fn keys_u128(&self) -> Vec<u128> {
        match &self.keys {
            Keys::Plain(k) => k.iter().map(|&k| u128::from(k)).collect(),
            Keys::Record { keys, .. } => keys.clone(),
        }
    }
}

/// A workload's requests; over the wire each is also pre-encoded.
#[derive(Debug)]
pub struct Pool {
    pub cases: Vec<Case>,
    pub frames: Vec<Vec<u8>>,
}

impl Pool {
    pub fn new(cases: Vec<Case>, encode: bool) -> Pool {
        let frames = if encode {
            cases.iter().map(|c| c.frame().encode()).collect()
        } else {
            Vec::new()
        };
        Pool { cases, frames }
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn dir(&mut self) -> Direction {
        if self.next_u64() & 1 == 0 {
            Direction::Ascending
        } else {
            Direction::Descending
        }
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn u32s(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.next_u64() as u32).collect()
    }
}

/// `n` sizes cycling through `set`, each equally often, in random order.
fn balanced(rng: &mut Rng, n: usize, set: &[usize]) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..n).map(|i| set[i % set.len()]).collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// `n` sizes in `lo..=hi`, one uniform draw from each of `n` equal
/// strata, in random order.
fn stratified(rng: &mut Rng, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let span = hi - lo + 1;
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| lo + (i * span + rng.below(span)) / n)
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// Plain requests of the given sizes: uniform u32 keys, every fourth
/// request duplicate-heavy (`k % 8`) when `dups`, random direction.
fn plain_cases(rng: &mut Rng, sizes: &[usize], dups: bool) -> Vec<Case> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut keys = rng.u32s(n);
            if dups && i % 4 == 0 {
                keys.iter_mut().for_each(|k| *k %= 8);
            }
            Case::plain(keys, rng.dir())
        })
        .collect()
}

/// The request pool of `w` for `seed`.
pub fn pool(w: Workload, seed: u64) -> Pool {
    // Decorrelate the workloads' streams for one seed.
    let mut rng = Rng::new(seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let cases = match w {
        Workload::WireSmall => {
            let sizes = balanced(&mut rng, 4000, &[1, 2, 3, 4, 7, 16, 33, 64, 100, 256]);
            plain_cases(&mut rng, &sizes, true)
        }
        Workload::WireLarge => {
            let sizes = stratified(&mut rng, 256, 2049, 16_384);
            plain_cases(&mut rng, &sizes, false)
        }
        Workload::RecordsWide => {
            let mut values = vec![0u128, u128::MAX];
            values.extend(
                (0..6).map(|_| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())),
            );
            // Above the 1,024 pending keys below which the coalescer holds
            // a batch for more load: with smaller requests about half of
            // them wait out the hold, and the median falls between the two
            // modes.
            stratified(&mut rng, 64, 1025, 4096)
                .into_iter()
                .map(|n| {
                    let keys = (0..n).map(|_| values[rng.below(values.len())]).collect();
                    let payload = (0..n * RECORD_STRIDE)
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    Case::record(keys, payload, rng.dir())
                })
                .collect()
        }
        Workload::WireBulk => {
            let sizes = stratified(&mut rng, 64, 16_385, 65_536);
            plain_cases(&mut rng, &sizes, false)
        }
        Workload::InprocOpen => {
            let sizes = balanced(
                &mut rng,
                4096,
                &[
                    1,
                    2,
                    PROCS - 1,
                    PROCS,
                    7,
                    16,
                    33,
                    64,
                    100,
                    256,
                    777,
                    1024,
                    2048,
                ],
            );
            plain_cases(&mut rng, &sizes, true)
        }
        Workload::OfflineSort => {
            let keys = (0..OFFLINE_KEYS)
                .map(|_| rng.next_u64() as u32 >> 1)
                .collect();
            vec![Case::plain(keys, Direction::Ascending)]
        }
    };
    Pool::new(cases, w.over_wire())
}

/// Largest request a `ServiceConfig::new(PROCS)` pool admits.
pub fn max_request_keys() -> usize {
    ServiceConfig::new(PROCS).max_request_keys
}

/// One request per padded batch shape a single request can produce
/// (`per_rank` = 2, 4, … up to the admission limit), so warm-up leaves
/// every such remap plan cached. `wire-bulk` adds in-band and over-band
/// sizes whose scatter reaches each shard's shapes. Fixed inputs: set-up
/// time measures the same work for every seed.
pub fn warm_shapes(w: Workload) -> Pool {
    let mut rng = Rng::new(7);
    let shape_sizes: Vec<usize> = (1..)
        .map(|s| PROCS << s)
        .take_while(|&n| n <= max_request_keys())
        .collect();
    let cases = match w {
        Workload::OfflineSort => Vec::new(),
        Workload::RecordsWide => shape_sizes
            .iter()
            .map(|&n| {
                let keys = (0..n).map(|_| u128::from(rng.next_u64()) << 40).collect();
                let payload = vec![0xA5; n * RECORD_STRIDE];
                Case::record(keys, payload, Direction::Ascending)
            })
            .collect(),
        Workload::WireBulk => {
            let sizes: Vec<usize> = shape_sizes
                .into_iter()
                .chain([20_000, 36_000, 60_000])
                .collect();
            sizes
                .iter()
                .map(|&n| Case::plain(rng.u32s(n), Direction::Ascending))
                .collect()
        }
        _ => shape_sizes
            .iter()
            .map(|&n| Case::plain(rng.u32s(n), Direction::Ascending))
            .collect(),
    };
    Pool::new(cases, w.over_wire())
}

/// The largest batch (in requests of the admission limit) that
/// `w`'s traffic can coalesce, beyond what one request reaches: two on
/// `wire-large` (two connections), up to the batch limit on
/// `inproc-open`. Workloads whose batches stay within the single-request
/// shapes need no bursts.
fn burst_sizes(w: Workload) -> &'static [usize] {
    match w {
        Workload::WireLarge => &[2],
        Workload::InprocOpen => &[2, 4],
        _ => &[],
    }
}

/// One pool per coalesced shape to warm: a record request first, to
/// occupy the dispatcher (records never share a batch with plain
/// requests), then `k` admission-limit plain requests that queue behind
/// it and so form one batch of `k` times the limit.
pub fn warm_bursts(w: Workload) -> Vec<Pool> {
    let mut rng = Rng::new(11);
    let limit = max_request_keys();
    burst_sizes(w)
        .iter()
        .map(|&k| {
            let blocker_keys = (0..limit).map(|_| u128::from(rng.next_u64())).collect();
            let blocker = Case::record(
                blocker_keys,
                vec![0x5A; limit * RECORD_STRIDE],
                Direction::Ascending,
            );
            let plain = (0..k).map(|_| Case::plain(rng.u32s(limit), Direction::Ascending));
            Pool::new(
                std::iter::once(blocker).chain(plain).collect(),
                w.over_wire(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_pools() {
        for w in Workload::ALL {
            let a = pool(w, 42);
            let b = pool(w, 42);
            let c = pool(w, 43);
            let bytes = |p: &Pool| -> Vec<Vec<u8>> {
                p.cases
                    .iter()
                    .map(|c| {
                        let mut f = c.frame().encode();
                        f.extend(c.expect.encode());
                        f
                    })
                    .collect()
            };
            assert_eq!(bytes(&a), bytes(&b), "{}", w.name());
            assert_eq!(a.frames, b.frames, "{}", w.name());
            assert_ne!(bytes(&a), bytes(&c), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn sizes_stay_in_their_declared_ranges() {
        let sizes = |w| pool(w, 5).cases.iter().map(Case::len).collect::<Vec<_>>();
        assert!(sizes(Workload::WireLarge)
            .iter()
            .all(|n| (2049..=16_384).contains(n)));
        assert!(sizes(Workload::RecordsWide)
            .iter()
            .all(|n| (1025..=4096).contains(n)));
        assert!(sizes(Workload::WireBulk)
            .iter()
            .all(|&n| n > max_request_keys() && n <= 65_536));
        assert_eq!(sizes(Workload::OfflineSort), vec![OFFLINE_KEYS]);
        let mut rng = Rng::new(1);
        let s = stratified(&mut rng, 10, 1, 100);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        for (i, n) in sorted.iter().enumerate() {
            assert!(
                (1 + i * 10..=10 + i * 10).contains(n),
                "one draw per stratum"
            );
        }
    }
}
