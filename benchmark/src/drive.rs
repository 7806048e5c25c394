//! Driving a system under test: start it, warm it, put a workload's load
//! on it, and record every request's timing and oracle verdict.
//!
//! A *session* is one system from start to shutdown: warm-up requests
//! that visit every padded batch shape, then the workload's own traffic,
//! first discarded until the plan caches stop missing, then measured for
//! the window. Registry counters and histograms are read as window-end
//! minus window-start snapshots.

use crate::pools::{self, Case, Keys, Pool, Workload, OPEN_RATE, PROCS, RECORD_STRIDE};
use bitonic_core::algorithms::smart_sort_ctx;
use bitonic_core::complexity::smart_metrics;
use bitonic_core::{LocalStrategy, SortContext};
use local_sorts::RadixKey;
use obs::metrics::{bucket_index, bucket_upper};
use obs::{RankTrace, Snapshot, TraceConfig};
use sort_service::{
    RecordKeys, RecordRequest, RecordTicket, ReplyFrame, ServiceConfig, ServiceMetrics,
    ShardedConfig, SortRequest, SortService, Ticket, WireClient, WireConfig, WireServer,
};
use spmd::{MachineConfig, Phase, RankResult, SpmdMachine};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients (and loopback connections) per wire workload.
pub const CLIENTS: usize = 2;

/// Warm-up traffic keeps going in slices this long until one slice sees
/// no remap-plan miss ...
const QUIET_SLICE: Duration = Duration::from_millis(250);
/// ... for at most this much longer than the minimum warm-up.
const WARM_CAP: Duration = Duration::from_secs(4);
/// Attempts at each coalescing burst before warm-up moves on.
const BURST_TRIES: usize = 5;

/// A persistent machine whose ranks keep their sort context, as the
/// service's warm pool runs them.
pub type Machine<K> = SpmdMachine<K, SortContext<K>, Vec<K>>;

/// Boot a `PROCS`-rank machine with the local-kernel table calibrated,
/// as the warm pool does before its first batch.
pub fn boot_machine<K: RadixKey>(traced: bool) -> Machine<K> {
    local_sorts::dispatch::ensure_calibrated();
    let mut cfg = MachineConfig::new(PROCS);
    if traced {
        // A few hundred events per rank per sort; the ring is re-allocated
        // on every drain, so keep it small.
        cfg.trace = TraceConfig::with_capacity(1 << 12);
    }
    SpmdMachine::boot(cfg, |_| SortContext::new())
}

/// Sort `words` (`per_rank` to a rank) with the smart strategy, the call
/// the warm pool makes for every batch.
pub fn machine_sort<K: RadixKey>(
    machine: &mut Machine<K>,
    words: &Arc<Vec<K>>,
    per_rank: usize,
) -> Result<Vec<RankResult<Vec<K>>>, String> {
    let words = Arc::clone(words);
    machine
        .run(move |comm, ctx| {
            let me = comm.rank();
            let local = words[me * per_rank..(me + 1) * per_rank].to_vec();
            smart_sort_ctx(comm, local, LocalStrategy::Merges, ctx)
        })
        .map_err(|e| e.to_string())
}

/// What one machine run cost, from its ranks' `CommStats`.
#[derive(Debug, Clone, Default)]
pub struct SortRecord {
    /// Per phase (in `Phase::ALL` order), the slowest rank's time in ms.
    pub phases_ms: [f64; 5],
    /// R, V and M of the rank that sent most.
    pub remaps: u64,
    pub sent: u64,
    pub messages: u64,
    /// Local-kernel calls summed over ranks.
    pub kernels: Vec<(&'static str, u64)>,
    /// Plan-cache traffic summed over ranks.
    pub hits: u64,
    pub misses: u64,
}

impl SortRecord {
    pub fn of<R>(ranks: &[RankResult<R>]) -> SortRecord {
        let mut rec = SortRecord::default();
        for r in ranks {
            let s = &r.stats;
            for (slot, phase) in rec.phases_ms.iter_mut().zip(Phase::ALL) {
                *slot = slot.max(s.time(phase).as_secs_f64() * 1e3);
            }
            rec.remaps = rec.remaps.max(s.remap_count());
            rec.sent = rec.sent.max(s.elements_sent);
            rec.messages = rec.messages.max(s.messages_sent);
            rec.hits += s.plan_hits;
            rec.misses += s.plan_misses;
            for &(name, n) in &s.local_kernels {
                match rec.kernels.iter_mut().find(|(k, _)| *k == name) {
                    Some(e) => e.1 += n,
                    None => rec.kernels.push((name, n)),
                }
            }
        }
        rec
    }

    pub fn kernel(&self, name: &str) -> u64 {
        self.kernels
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |e| e.1)
    }
}

/// `offline-sort`'s system: one warm machine sorting the same keys over
/// and over, every result checked against `sort_unstable` and every
/// run's R/V/M against `complexity::smart_metrics`.
pub struct Offline {
    machine: Mutex<Machine<u32>>,
    input: Arc<Vec<u32>>,
    expect: ReplyFrame,
    rvm: [u64; 3],
    traced: bool,
    misses: AtomicU64,
    /// Every run: when it started and what it cost.
    sorts: Mutex<Vec<(Instant, SortRecord)>>,
    /// Rank spans of the latest runs, when traced.
    traces: Mutex<Vec<RankTrace>>,
}

impl Offline {
    fn boot(case: &Case, traced: bool) -> Offline {
        let Keys::Plain(keys) = &case.keys else {
            panic!("offline-sort sorts plain keys");
        };
        let m = smart_metrics(keys.len(), PROCS);
        Offline {
            machine: Mutex::new(boot_machine(traced)),
            input: Arc::new(keys.clone()),
            expect: case.expect.clone(),
            rvm: [m.remaps, m.volume, m.messages],
            traced,
            misses: AtomicU64::new(0),
            sorts: Mutex::new(Vec::new()),
            traces: Mutex::new(Vec::new()),
        }
    }

    fn sort(&self) -> (Instant, Result<(), String>) {
        let start = Instant::now();
        let per_rank = self.input.len() / PROCS;
        let ranks = machine_sort(
            &mut self.machine.lock().expect("offline machine lock"),
            &self.input,
            per_rank,
        );
        let replied = Instant::now();
        let ranks = match ranks {
            Ok(r) => r,
            Err(e) => return (replied, Err(e)),
        };
        let rec = SortRecord::of(&ranks);
        self.misses.fetch_add(rec.misses, Ordering::Relaxed);
        let verdict = if ranks.iter().any(|r| {
            [
                r.stats.remap_count(),
                r.stats.elements_sent,
                r.stats.messages_sent,
            ] != self.rvm
        }) {
            Err(format!(
                "R/V/M differ from complexity::smart_metrics {:?}",
                self.rvm
            ))
        } else {
            let out: Vec<u32> = ranks
                .iter()
                .flat_map(|r| r.output.iter().copied())
                .collect();
            check(&ReplyFrame::Sorted(out), &self.expect, self.input.len())
        };
        if self.traced {
            let mut traces = self.traces.lock().expect("trace list lock");
            if traces.len() >= 4 * PROCS {
                traces.drain(..PROCS);
            }
            traces.extend(ranks.into_iter().map(|r| r.trace));
        }
        self.sorts
            .lock()
            .expect("sort record lock")
            .push((start, rec));
        (replied, verdict)
    }
}

fn check(reply: &ReplyFrame, expect: &ReplyFrame, keys: usize) -> Result<(), String> {
    if reply == expect {
        Ok(())
    } else {
        Err(format!(
            "{keys}-key request: `{}` reply differs from the oracle",
            reply.label()
        ))
    }
}

/// Which system a session starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `WireServer::start` over one `ServiceConfig::new(PROCS)` pool.
    Wire,
    /// `WireServer::start_sharded` over `ShardedConfig::banded_bulk(PROCS, 2)`.
    WireSharded,
    /// An in-process `SortService` with `ServiceConfig::new(PROCS)`.
    Inproc,
    /// A bare warm `SpmdMachine`.
    Offline,
}

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// This many clients, each sending its next request on a reply.
    Closed(usize),
    /// One generator submitting at this many requests per second
    /// regardless of replies.
    Open(f64),
}

impl Workload {
    pub fn kind(self) -> Kind {
        match self {
            Workload::WireSmall | Workload::WireLarge | Workload::RecordsWide => Kind::Wire,
            Workload::WireBulk => Kind::WireSharded,
            Workload::InprocOpen => Kind::Inproc,
            Workload::OfflineSort => Kind::Offline,
        }
    }

    /// Whether warm-up visits every batch shape the workload's traffic
    /// can form, so that a remap-plan miss in the window is a failure.
    /// `wire-bulk`'s shapes depend on work stealing and on how the chunks
    /// of concurrent bulk requests interleave in a shard's queue; its
    /// misses are reported, not counted.
    pub fn warms_every_shape(self) -> bool {
        self != Workload::WireBulk
    }

    pub fn load(self) -> Load {
        match self {
            Workload::InprocOpen => Load::Open(OPEN_RATE),
            Workload::OfflineSort => Load::Closed(1),
            _ => Load::Closed(CLIENTS),
        }
    }
}

/// A running system under test.
pub enum System {
    Wire(WireServer),
    Inproc(Arc<SortService>),
    Offline(Arc<Offline>),
}

fn service_config(traced: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(PROCS);
    if traced {
        cfg.trace = TraceConfig::on();
    }
    cfg
}

impl System {
    /// Start a system of `kind`. `pool` supplies `offline-sort`'s keys.
    pub fn start(kind: Kind, pool: &Pool, traced: bool) -> System {
        let loopback = "127.0.0.1:0";
        match kind {
            Kind::Wire => System::Wire(
                WireServer::start(service_config(traced), WireConfig::default(), loopback)
                    .expect("bind a loopback port"),
            ),
            Kind::WireSharded => {
                let mut cfg = ShardedConfig::banded_bulk(PROCS, 2);
                if traced {
                    cfg.trace = TraceConfig::on();
                }
                System::Wire(
                    WireServer::start_sharded(cfg, WireConfig::default(), loopback)
                        .expect("bind a loopback port"),
                )
            }
            Kind::Inproc => System::Inproc(Arc::new(SortService::start(service_config(traced)))),
            Kind::Offline => System::Offline(Arc::new(Offline::boot(&pool.cases[0], traced))),
        }
    }

    fn client(&self, pool: &Arc<Pool>) -> Box<dyn Client> {
        match self {
            System::Wire(s) => Box::new(WireConn {
                client: connect(s),
                pool: Arc::clone(pool),
            }),
            System::Inproc(s) => Box::new(InprocConn {
                service: Arc::clone(s),
                pool: Arc::clone(pool),
            }),
            System::Offline(o) => Box::new(OfflineConn(Arc::clone(o))),
        }
    }

    pub fn metrics(&self) -> Option<Arc<ServiceMetrics>> {
        match self {
            System::Wire(s) => s.metrics(),
            System::Inproc(s) => s.metrics(),
            System::Offline(_) => None,
        }
    }

    /// Remap-plan cache misses so far, over every machine of the system.
    pub fn plan_misses(&self) -> u64 {
        match self {
            System::Offline(o) => o.misses.load(Ordering::Relaxed),
            _ => self.metrics().map_or(0, |m| {
                m.snapshot()
                    .counter_total("bitonic_plan_cache_misses_total")
            }),
        }
    }

    /// Send every request of `shapes` one at a time, then each burst with
    /// all of its requests in flight at once. Returns the oracle failures.
    pub fn warm(&self, shapes: &Arc<Pool>, bursts: &[Arc<Pool>]) -> Vec<String> {
        let mut errors = Vec::new();
        if let System::Offline(o) = self {
            if let (_, Err(e)) = o.sort() {
                errors.push(e);
            }
            return errors;
        }
        let mut client = self.client(shapes);
        for i in 0..shapes.cases.len() {
            if let (_, Err(e)) = client.exchange(i) {
                errors.push(e);
            }
        }
        for burst in bursts {
            // The burst's batch is `k` admission-limit requests; retry until
            // the registry shows a batch of that size ran.
            let batch_keys: usize = burst.cases[1..].iter().map(Case::len).sum();
            for _ in 0..BURST_TRIES {
                errors.extend(self.burst(burst));
                if self.ran_batch_of(batch_keys) {
                    break;
                }
            }
        }
        errors
    }

    /// Put all of `pool`'s requests in flight: the first (a record
    /// request) occupies the dispatcher while the rest queue behind it.
    fn burst(&self, pool: &Arc<Pool>) -> Vec<String> {
        let cases = &pool.cases;
        let verdicts: Vec<Result<(), String>> = match self {
            System::Wire(s) => {
                let mut conns: Vec<WireClient> = cases.iter().map(|_| connect(s)).collect();
                for (i, (c, frame)) in conns.iter_mut().zip(&pool.frames).enumerate() {
                    c.send_raw(frame).expect("loopback send");
                    if i == 0 {
                        // Let the server read the blocker and start it.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                conns
                    .iter_mut()
                    .zip(cases)
                    .map(|(c, case)| match c.read_reply() {
                        Ok(reply) => check(&reply, &case.expect, case.len()),
                        Err(e) => Err(e.to_string()),
                    })
                    .collect()
            }
            System::Inproc(s) => {
                let tickets: Vec<_> = cases.iter().map(|c| submit(s, c)).collect();
                tickets
                    .into_iter()
                    .zip(cases)
                    .map(|(t, case)| check(&t?.wait()?, &case.expect, case.len()))
                    .collect()
            }
            System::Offline(_) => Vec::new(),
        };
        verdicts.into_iter().filter_map(Result::err).collect()
    }

    /// Whether the registry has seen a batch in the histogram bucket of
    /// `keys` useful keys.
    fn ran_batch_of(&self, keys: usize) -> bool {
        let Some(m) = self.metrics() else {
            return true;
        };
        let upper = bucket_upper(bucket_index(keys as u64));
        m.snapshot()
            .histograms
            .iter()
            .filter(|h| h.name == "bitonic_batch_keys")
            .any(|h| {
                let mut below = 0;
                h.buckets.iter().any(|&(u, cum)| {
                    let here = cum - below;
                    below = cum;
                    u == upper && here > 0
                })
            })
    }

    /// Stop the system; returns the span timelines it recorded.
    pub fn shutdown(self) -> Vec<RankTrace> {
        match self {
            System::Wire(s) => {
                let report = s.shutdown();
                match report.sharded {
                    Some(sharded) => {
                        let mut traces = sharded.shard_traces;
                        traces.push(sharded.router_trace);
                        traces
                    }
                    None => vec![report.service.trace],
                }
            }
            System::Inproc(s) => {
                let service = Arc::try_unwrap(s).expect("every client has finished");
                vec![service.shutdown().trace]
            }
            System::Offline(o) => std::mem::take(&mut *o.traces.lock().expect("trace list lock")),
        }
    }
}

fn connect(server: &WireServer) -> WireClient {
    let client = WireClient::connect(server.local_addr()).expect("connect over loopback");
    client
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .expect("set reply timeout");
    client
}

/// One client: issues a pool request and waits for its reply.
trait Client: Send {
    /// Send request `i`; returns when its reply arrived and whether the
    /// reply matches the oracle.
    fn exchange(&mut self, i: usize) -> (Instant, Result<(), String>);
}

struct WireConn {
    client: WireClient,
    pool: Arc<Pool>,
}

impl Client for WireConn {
    fn exchange(&mut self, i: usize) -> (Instant, Result<(), String>) {
        let case = &self.pool.cases[i];
        let reply = self
            .client
            .send_raw(&self.pool.frames[i])
            .and_then(|()| self.client.read_reply());
        let at = Instant::now();
        (
            at,
            reply
                .map_err(|e| e.to_string())
                .and_then(|r| check(&r, &case.expect, case.len())),
        )
    }
}

/// An admitted in-process request of either lane.
enum InprocTicket {
    Plain(Ticket),
    Record(RecordTicket),
}

impl InprocTicket {
    fn wait(self) -> Result<ReplyFrame, String> {
        let reply = match self {
            InprocTicket::Plain(t) => t.wait().map(ReplyFrame::Sorted),
            InprocTicket::Record(t) => t.wait().map(|r| ReplyFrame::Record {
                keys: r.keys,
                payload: r.payload,
                stride: r.stride as u32,
            }),
        };
        reply.map_err(|e| e.to_string())
    }
}

fn submit(service: &SortService, case: &Case) -> Result<InprocTicket, String> {
    let ticket = match &case.keys {
        Keys::Plain(keys) => service
            .submit(SortRequest::new(keys.clone(), case.dir))
            .map(InprocTicket::Plain),
        Keys::Record { keys, payload } => {
            let keys = RecordKeys::U128(keys.clone());
            service
                .submit_record(RecordRequest::new(
                    keys,
                    payload.clone(),
                    RECORD_STRIDE,
                    case.dir,
                ))
                .map(InprocTicket::Record)
        }
    };
    ticket.map_err(|r| r.to_string())
}

struct InprocConn {
    service: Arc<SortService>,
    pool: Arc<Pool>,
}

impl Client for InprocConn {
    fn exchange(&mut self, i: usize) -> (Instant, Result<(), String>) {
        let case = &self.pool.cases[i];
        let reply = submit(&self.service, case).and_then(InprocTicket::wait);
        let at = Instant::now();
        (at, reply.and_then(|r| check(&r, &case.expect, case.len())))
    }
}

struct OfflineConn(Arc<Offline>);

impl Client for OfflineConn {
    fn exchange(&mut self, _: usize) -> (Instant, Result<(), String>) {
        self.0.sort()
    }
}

/// One request as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due: nanoseconds after the session started. A closed
    /// loop sends a request as soon as it is due.
    pub due_ns: u64,
    /// Due time to decoded reply.
    pub latency_ns: u64,
    /// Send time minus due time (open loop); time from the previous reply
    /// to this send (closed loop).
    pub late_ns: u64,
    pub keys: u32,
    pub ok: bool,
    pub client: u8,
}

struct Timeline {
    base: Instant,
    stop: AtomicBool,
}

impl Timeline {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.base).as_nanos() as u64
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

type Traffic = JoinHandle<(Vec<Sample>, Vec<String>)>;

fn closed_client(
    mut client: Box<dyn Client>,
    id: usize,
    of: usize,
    pool: Arc<Pool>,
    tl: Arc<Timeline>,
) -> Traffic {
    std::thread::spawn(move || {
        let n = pool.cases.len();
        let mut i = id * n / of;
        let (mut samples, mut errors) = (Vec::new(), Vec::new());
        let mut ready = Instant::now();
        while !tl.stopped() {
            let sent = Instant::now();
            let (replied, verdict) = client.exchange(i);
            samples.push(Sample {
                due_ns: tl.ns(sent),
                latency_ns: replied.duration_since(sent).as_nanos() as u64,
                late_ns: sent.duration_since(ready).as_nanos() as u64,
                keys: pool.cases[i].len() as u32,
                ok: verdict.is_ok(),
                client: id as u8,
            });
            if let Err(e) = verdict {
                errors.push(e);
            }
            ready = Instant::now();
            i = (i + 1) % n;
        }
        (samples, errors)
    })
}

/// The open loop: a generator submitting on a fixed schedule, and a
/// collector waiting the tickets in submission order.
fn open_loop(
    service: Arc<SortService>,
    rate: f64,
    pool: Arc<Pool>,
    tl: Arc<Timeline>,
) -> Vec<Traffic> {
    let (tx, rx) = mpsc::channel();
    let gen_pool = Arc::clone(&pool);
    let gen_tl = Arc::clone(&tl);
    let generator = std::thread::spawn(move || {
        let (pool, tl) = (gen_pool, gen_tl);
        let start = tl.ns(Instant::now());
        let mut k = 0u64;
        while !tl.stopped() {
            let due = start + (k as f64 * 1e9 / rate) as u64;
            let now = tl.ns(Instant::now());
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let i = (k % pool.cases.len() as u64) as usize;
            let case = &pool.cases[i];
            let sent = tl.ns(Instant::now());
            tx.send((i, due, sent, submit(&service, case)))
                .expect("collector is running");
            k += 1;
        }
        (Vec::new(), Vec::new())
    });
    let collector = std::thread::spawn(move || {
        let (mut samples, mut errors) = (Vec::new(), Vec::new());
        for (i, due, sent, ticket) in rx {
            let case: &Case = &pool.cases[i];
            let reply = ticket.and_then(InprocTicket::wait);
            let at = tl.ns(Instant::now());
            let verdict = reply.and_then(|r| check(&r, &case.expect, case.len()));
            samples.push(Sample {
                due_ns: due,
                latency_ns: at.saturating_sub(due),
                late_ns: sent.saturating_sub(due),
                keys: case.len() as u32,
                ok: verdict.is_ok(),
                client: 0,
            });
            if let Err(e) = verdict {
                errors.push(e);
            }
        }
        (samples, errors)
    });
    vec![generator, collector]
}

/// What the warm-up sends before the traffic starts.
pub struct Warm {
    pub shapes: Arc<Pool>,
    pub bursts: Vec<Arc<Pool>>,
}

impl Warm {
    pub fn of(w: Workload) -> Warm {
        Warm {
            shapes: Arc::new(pools::warm_shapes(w)),
            bursts: pools::warm_bursts(w).into_iter().map(Arc::new).collect(),
        }
    }
}

/// Everything one session observed.
pub struct Session {
    /// Window bounds, nanoseconds after the session started.
    pub window: (u64, u64),
    /// Every request of the traffic, warm-up traffic included.
    pub samples: Vec<Sample>,
    /// Oracle and transport failures anywhere in the session.
    pub errors: Vec<String>,
    /// Remap-plan misses inside the window.
    pub plan_misses: u64,
    /// The service registry at window start and end.
    pub registry: Option<(Snapshot, Snapshot)>,
    /// The system's span timelines (traced sessions).
    pub traces: Vec<RankTrace>,
    /// `offline-sort` runs: start (ns after session start) and cost.
    pub sorts: Vec<(u64, SortRecord)>,
    /// Peak resident memory minus resident memory before the start.
    pub peak_rss_mb: f64,
}

impl Session {
    pub fn in_window(&self) -> impl Iterator<Item = &Sample> + '_ {
        let (start, end) = self.window;
        self.samples
            .iter()
            .filter(move |s| (start..end).contains(&s.due_ns))
    }

    /// Requests due in the window, and how many of those failed; with
    /// `count_misses`, each remap-plan miss in the window counts as a
    /// failure too (a fully warmed service has none).
    pub fn tally(&self, count_misses: bool) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = if count_misses { self.plan_misses } else { 0 };
        for s in self.in_window() {
            attempted += 1;
            failed += u64::from(!s.ok);
        }
        (attempted, failed)
    }

    pub fn window_secs(&self) -> f64 {
        (self.window.1 - self.window.0) as f64 / 1e9
    }

    pub fn window_sorts(&self) -> impl Iterator<Item = &SortRecord> + '_ {
        let (start, end) = self.window;
        self.sorts
            .iter()
            .filter(move |(at, _)| (start..end).contains(at))
            .map(|(_, r)| r)
    }
}

/// Run one session of `kind` under `load` with `pool`'s requests.
pub fn session(
    kind: Kind,
    load: Load,
    pool: &Arc<Pool>,
    warm: &Warm,
    traced: bool,
    warm_min: Duration,
    window: Duration,
) -> Session {
    let rss_before = status_kb("VmRSS");
    let base = Instant::now();
    let system = System::start(kind, pool, traced);
    let mut errors = system.warm(&warm.shapes, &warm.bursts);

    let tl = Arc::new(Timeline {
        base,
        stop: AtomicBool::new(false),
    });
    let traffic = match (load, &system) {
        (Load::Open(rate), System::Inproc(s)) => {
            open_loop(Arc::clone(s), rate, Arc::clone(pool), Arc::clone(&tl))
        }
        (Load::Closed(n), _) => (0..n)
            .map(|id| {
                closed_client(
                    system.client(pool),
                    id,
                    n,
                    Arc::clone(pool),
                    Arc::clone(&tl),
                )
            })
            .collect(),
        (Load::Open(_), _) => panic!("the open loop drives an in-process service"),
    };

    std::thread::sleep(warm_min);
    let cap = Instant::now() + WARM_CAP;
    loop {
        let before = system.plan_misses();
        std::thread::sleep(QUIET_SLICE);
        if system.plan_misses() == before || Instant::now() > cap {
            break;
        }
    }
    let snapshot = || system.metrics().map(|m| m.snapshot());
    let (start, reg0, miss0) = (tl.ns(Instant::now()), snapshot(), system.plan_misses());
    std::thread::sleep(window);
    let (end, reg1, miss1) = (tl.ns(Instant::now()), snapshot(), system.plan_misses());
    tl.stop.store(true, Ordering::Relaxed);

    let mut samples = Vec::new();
    for t in traffic {
        let (s, e) = t.join().expect("traffic thread");
        samples.extend(s);
        errors.extend(e);
    }
    let peak_rss_mb = (status_kb("VmHWM").saturating_sub(rss_before)) as f64 * 1024.0 / 1e6;
    let sorts = match &system {
        System::Offline(o) => o
            .sorts
            .lock()
            .expect("sort record lock")
            .iter()
            .map(|(at, r)| (tl.ns(*at), r.clone()))
            .collect(),
        _ => Vec::new(),
    };
    let traces = system.shutdown();
    Session {
        window: (start, end),
        samples,
        errors,
        plan_misses: miss1 - miss0,
        registry: reg0.zip(reg1),
        traces,
        sorts,
        peak_rss_mb,
    }
}

/// Time from starting a fresh system to the reply for its last warm-up
/// shape: kernel calibration, machine boot and remap-plan builds.
pub fn cold_start(w: Workload, seed: u64) -> Result<f64, String> {
    let pool = if w == Workload::OfflineSort {
        pools::pool(w, seed)
    } else {
        Pool::new(Vec::new(), false)
    };
    let shapes = Arc::new(pools::warm_shapes(w));
    let start = Instant::now();
    let system = System::start(w.kind(), &pool, false);
    let errors = system.warm(&shapes, &[]);
    let took = start.elapsed().as_secs_f64();
    let _ = system.shutdown();
    match errors.first() {
        None => Ok(took),
        Some(e) => Err(e.clone()),
    }
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}
