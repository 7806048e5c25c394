//! The front door: submission, the dispatcher loop, tickets and stats.
//!
//! [`SortService::start`] spawns one dispatcher thread that owns the
//! [`WarmPool`]. Clients call [`SortService::submit`] from any thread;
//! admission control answers immediately (admitted requests get a
//! [`Ticket`], shed ones a structured [`Rejection`]). The dispatcher
//! pulls admitted requests from the queue under the [`Coalescer`]'s
//! flush/wait policy, encodes them as one [`TaggedBatch`], runs the
//! batch on a warm machine, and scatters per-request replies back
//! through the tickets.
//!
//! Every stage is recorded as a span in the service's
//! [`obs::TraceSink`] under the serving-layer phases —
//! `Queue` (submit → batch formation, one span per request), `Batch`
//! (coalesce + encode + pad), `Run` (the machine), `Scatter` (split +
//! reply) — with the span's `step` carrying the batch number.

use crate::admission::{Admission, Rejection};
use crate::coalescer::{Coalescer, Verdict};
use crate::config::ServiceConfig;
use crate::metrics::{ClassMetrics, ServiceMetrics};
use crate::pool::WarmPool;
use bitonic_core::tagged::{RecordBatch, RecordWord, TaggedBatch};
use bitonic_network::Direction;
use local_sorts::W192;
use obs::{RankTrace, TracePhase, TraceSink};
use spmd::MachineFailure;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One client sort request.
#[derive(Debug, Clone)]
pub struct SortRequest {
    /// The keys to sort.
    pub keys: Vec<u32>,
    /// Requested output order.
    pub dir: Direction,
    /// Per-request deadline; [`ServiceConfig::default_deadline`] when
    /// `None`. A request predicted to miss its deadline is shed at
    /// submission; one that misses it in the queue anyway is expired.
    pub deadline: Option<Duration>,
}

impl SortRequest {
    /// An ascending sort of `keys` under the service's default deadline.
    #[must_use]
    pub fn ascending(keys: Vec<u32>) -> Self {
        SortRequest {
            keys,
            dir: Direction::Ascending,
            deadline: None,
        }
    }

    /// A sort of `keys` in `dir` under the service's default deadline.
    #[must_use]
    pub fn new(keys: Vec<u32>, dir: Direction) -> Self {
        SortRequest {
            keys,
            dir,
            deadline: None,
        }
    }

    /// This request with an explicit deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why an *admitted* request still failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// The request out-waited its deadline in the queue.
    Expired {
        /// How long it actually waited.
        waited: Duration,
        /// The deadline it carried.
        deadline: Duration,
    },
    /// The batch carrying the request failed (watchdog gave up on a
    /// stalled rank, or a rank panicked); its machine was replaced.
    MachineFailed(String),
    /// The service shut down before the request could be answered.
    ServiceClosed,
    /// A bulk request's sub-request sank on one shard; the failure
    /// names the shard and the reason, and every surviving partition
    /// was discarded (a partial bulk sort is not a sort).
    Bulk(crate::split::BulkFailure),
}

impl std::fmt::Display for SortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SortError::Expired { waited, deadline } => {
                write!(f, "deadline {deadline:?} exceeded after waiting {waited:?}")
            }
            SortError::MachineFailed(msg) => write!(f, "batch failed: {msg}"),
            SortError::ServiceClosed => write!(f, "service closed"),
            SortError::Bulk(failure) => write!(f, "bulk sort failed: {failure}"),
        }
    }
}

impl std::error::Error for SortError {}

/// A claim on an admitted request's eventual reply.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<Vec<u32>, SortError>>,
}

impl Ticket {
    /// Block until the reply arrives.
    ///
    /// # Errors
    /// The [`SortError`] describing why the admitted request failed.
    pub fn wait(self) -> Result<Vec<u32>, SortError> {
        self.rx.recv().unwrap_or(Err(SortError::ServiceClosed))
    }
}

/// The keys of a record request, at one of the three supported widths.
///
/// u32 keys ride the 128-bit record word (zero-extended to u64 — the
/// descending munge happens in the 64-bit domain, which preserves order
/// and round-trips); u128 keys ride the 192-bit word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKeys {
    /// 4-byte keys.
    U32(Vec<u32>),
    /// 8-byte keys.
    U64(Vec<u64>),
    /// 16-byte keys.
    U128(Vec<u128>),
}

impl RecordKeys {
    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            RecordKeys::U32(k) => k.len(),
            RecordKeys::U64(k) => k.len(),
            RecordKeys::U128(k) => k.len(),
        }
    }

    /// True when there are no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key width in bytes (4, 8 or 16).
    #[must_use]
    pub fn width(&self) -> u8 {
        match self {
            RecordKeys::U32(_) => 4,
            RecordKeys::U64(_) => 8,
            RecordKeys::U128(_) => 16,
        }
    }
}

/// One client record-sort request: keys plus an opaque payload of
/// `stride` bytes per key, carried through the sort untouched and
/// handed back in key order.
#[derive(Debug, Clone)]
pub struct RecordRequest {
    /// The keys to sort.
    pub keys: RecordKeys,
    /// `stride` bytes per key, row `i` belonging to `keys[i]`. Length
    /// must equal `stride * keys.len()`; `stride` 0 means key-only.
    pub payload: Vec<u8>,
    /// Payload bytes per key.
    pub stride: usize,
    /// Requested output order.
    pub dir: Direction,
    /// Per-request deadline; the service default when `None`.
    pub deadline: Option<Duration>,
}

impl RecordRequest {
    /// A record request sorting `keys` in `dir` with `stride` payload
    /// bytes per key.
    ///
    /// # Panics
    /// Panics if `payload.len() != stride * keys.len()`.
    #[must_use]
    pub fn new(keys: RecordKeys, payload: Vec<u8>, stride: usize, dir: Direction) -> Self {
        assert_eq!(
            payload.len(),
            stride * keys.len(),
            "payload must hold exactly stride bytes per key"
        );
        RecordRequest {
            keys,
            payload,
            stride,
            dir,
            deadline: None,
        }
    }

    /// This request with an explicit deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A sorted record reply: keys in the requested order, with payload row
/// `i` being the bytes that arrived attached to what is now `keys[i]`.
/// Ties are stable — records with equal keys come back in submission
/// order for both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordReply {
    /// The sorted keys.
    pub keys: RecordKeys,
    /// Payload rows, permuted into key order.
    pub payload: Vec<u8>,
    /// Payload bytes per key (echoed from the request).
    pub stride: usize,
}

/// A claim on an admitted record request's eventual reply.
#[derive(Debug)]
pub struct RecordTicket {
    pub(crate) rx: mpsc::Receiver<Result<RecordReply, SortError>>,
}

impl RecordTicket {
    /// Block until the reply arrives.
    ///
    /// # Errors
    /// The [`SortError`] describing why the admitted request failed.
    pub fn wait(self) -> Result<RecordReply, SortError> {
        self.rx.recv().unwrap_or(Err(SortError::ServiceClosed))
    }
}

/// Service-lifetime counters, readable at any time via
/// [`SortService::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests presented to `submit`.
    pub submitted: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests shed at the door (see [`Rejection`]).
    pub shed: u64,
    /// Admitted requests that out-waited their deadline in the queue.
    pub expired: u64,
    /// Admitted requests lost to a failed batch.
    pub failed: u64,
    /// Requests answered with sorted keys.
    pub completed: u64,
    /// Batches formed (including ones that later failed).
    pub batches: u64,
    /// Useful keys across all formed batches (padding excluded).
    pub batched_keys: u64,
    /// Most requests coalesced into one batch.
    pub largest_batch: u64,
    /// The warm pool's counters (machine runs, rebuilds, plan cache).
    pub pool: crate::pool::PoolStats,
}

impl ServiceStats {
    /// Mean requests per formed batch; 0 for an unused service.
    #[must_use]
    pub fn requests_per_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        (self.completed + self.failed) as f64 / self.batches as f64
    }
}

/// What a finished service hands back.
#[derive(Debug)]
pub struct ServiceReport {
    /// Final counters.
    pub stats: ServiceStats,
    /// The dispatcher's span timeline (empty unless the service was
    /// started with tracing enabled).
    pub trace: RankTrace,
}

/// The work carried by one queued request: a legacy bare-key sort, or a
/// record sort carrying payload bytes alongside the keys.
pub(crate) enum PendingWork {
    Plain {
        keys: Vec<u32>,
        reply: mpsc::Sender<Result<Vec<u32>, SortError>>,
    },
    Record {
        keys: RecordKeys,
        payload: Vec<u8>,
        stride: usize,
        reply: mpsc::Sender<Result<RecordReply, SortError>>,
    },
}

/// The coalescing lane of a queued request. Requests only share a batch
/// with same-lane peers: a batch is one word stream, so every element in
/// it must use the same word shape and key width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    Plain,
    Rec32,
    Rec64,
    Rec128,
}

/// An admitted request waiting in a queue — the unit both the
/// single-pool dispatcher and the sharded workers (including steals)
/// move around.
pub(crate) struct Pending {
    pub(crate) work: PendingWork,
    pub(crate) dir: Direction,
    pub(crate) deadline: Duration,
    pub(crate) enqueued: Instant,
}

impl Pending {
    pub(crate) fn plain(
        keys: Vec<u32>,
        dir: Direction,
        deadline: Duration,
        reply: mpsc::Sender<Result<Vec<u32>, SortError>>,
    ) -> Self {
        Pending {
            work: PendingWork::Plain { keys, reply },
            dir,
            deadline,
            enqueued: Instant::now(),
        }
    }

    pub(crate) fn record(
        keys: RecordKeys,
        payload: Vec<u8>,
        stride: usize,
        dir: Direction,
        deadline: Duration,
        reply: mpsc::Sender<Result<RecordReply, SortError>>,
    ) -> Self {
        Pending {
            work: PendingWork::Record {
                keys,
                payload,
                stride,
                reply,
            },
            dir,
            deadline,
            enqueued: Instant::now(),
        }
    }

    pub(crate) fn key_count(&self) -> usize {
        match &self.work {
            PendingWork::Plain { keys, .. } => keys.len(),
            PendingWork::Record { keys, .. } => keys.len(),
        }
    }

    pub(crate) fn lane(&self) -> Lane {
        match &self.work {
            PendingWork::Plain { .. } => Lane::Plain,
            PendingWork::Record { keys, .. } => match keys {
                RecordKeys::U32(_) => Lane::Rec32,
                RecordKeys::U64(_) => Lane::Rec64,
                RecordKeys::U128(_) => Lane::Rec128,
            },
        }
    }

    /// Send the failure to whichever reply channel this request carries.
    pub(crate) fn fail(&self, err: SortError) {
        match &self.work {
            PendingWork::Plain { reply, .. } => {
                let _ = reply.send(Err(err));
            }
            PendingWork::Record { reply, .. } => {
                let _ = reply.send(Err(err));
            }
        }
    }
}

/// Pop the FIFO prefix of `pending` that fits `max_batch_keys`, keeping
/// `pending_keys` consistent. Always takes at least one request when the
/// queue is non-empty (admission guarantees any single admitted request
/// fits one batch). The prefix stops at the first request in a different
/// coalescing lane than the head — records only batch with same-width
/// peers, and never with plain sorts. Shared by the single-pool
/// dispatcher, the shard workers, and the work-stealing path — a thief
/// claiming a victim's oldest batch takes exactly the prefix the victim
/// itself would have.
pub(crate) fn take_prefix(
    pending: &mut VecDeque<Pending>,
    pending_keys: &mut usize,
    max_batch_keys: usize,
) -> Vec<Pending> {
    let mut batch = Vec::new();
    let mut keys = 0usize;
    let mut lane = None;
    while let Some(front) = pending.front() {
        let k = front.key_count();
        if !batch.is_empty() && keys + k > max_batch_keys {
            break;
        }
        if *lane.get_or_insert(front.lane()) != front.lane() {
            break;
        }
        keys += k;
        *pending_keys -= k;
        batch.push(pending.pop_front().expect("front exists"));
    }
    batch
}

/// What [`process_batch`] did with one taken batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchOutcome {
    pub(crate) requests: u64,
    pub(crate) expired: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) batched_keys: u64,
}

/// Gather payload rows of `stride` bytes into the order given by
/// `perm`: output row `i` is input row `perm[i]`.
pub(crate) fn gather_rows(payload: &[u8], stride: usize, perm: &[u32]) -> Vec<u8> {
    if stride == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(perm.len() * stride);
    for &r in perm {
        let at = r as usize * stride;
        out.extend_from_slice(&payload[at..at + stride]);
    }
    out
}

/// Expire the stale, encode the live requests as one batch (a
/// [`TaggedBatch`] for plain sorts, a [`RecordBatch`] for record sorts
/// — `take_prefix` guarantees a taken batch is single-lane), run it on
/// `pool`, and scatter the replies — recording `Queue`/`Batch`/`Run`/
/// `Scatter` spans (with `batch_no` as the span step) along the way.
/// Shared by the single-pool dispatcher and every shard worker.
pub(crate) fn process_batch(
    pool: &mut WarmPool,
    procs: usize,
    batch: Vec<Pending>,
    sink: &mut TraceSink,
    batch_no: u32,
    metrics: Option<&ClassMetrics>,
) -> BatchOutcome {
    sink.set_step(batch_no);
    let formed_at = Instant::now();
    let mut outcome = BatchOutcome {
        requests: batch.len() as u64,
        ..BatchOutcome::default()
    };
    if let Some(m) = metrics {
        m.batches.inc();
        m.batch_requests.observe(batch.len() as u64);
    }

    // Expiry sweep, shared by every lane.
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for p in batch {
        sink.span(TracePhase::Queue, p.enqueued, formed_at);
        let waited = formed_at.duration_since(p.enqueued);
        if let Some(m) = metrics {
            m.queue_wait_us.observe_us(waited);
        }
        if waited > p.deadline {
            p.fail(SortError::Expired {
                waited,
                deadline: p.deadline,
            });
            outcome.expired += 1;
            if let Some(m) = metrics {
                m.expired.inc();
                m.slo.record_expired(m.now());
            }
            continue;
        }
        live.push(p);
    }

    outcome.batched_keys = live.iter().map(Pending::key_count).sum::<usize>() as u64;
    if let Some(m) = metrics {
        m.batch_keys.observe(outcome.batched_keys);
    }
    if live.is_empty() {
        return outcome;
    }
    match live[0].lane() {
        Lane::Plain => run_plain_batch(pool, procs, &live, formed_at, sink, metrics, &mut outcome),
        Lane::Rec32 => run_record_batch::<u128>(
            pool,
            procs,
            &live,
            formed_at,
            sink,
            metrics,
            &mut outcome,
            |keys| match keys {
                RecordKeys::U32(k) => k.iter().copied().map(u64::from).collect(),
                _ => unreachable!("single-lane batch"),
            },
            |keys| RecordKeys::U32(keys.into_iter().map(|k| k as u32).collect()),
            WarmPool::run_record128_batch,
        ),
        Lane::Rec64 => run_record_batch::<u128>(
            pool,
            procs,
            &live,
            formed_at,
            sink,
            metrics,
            &mut outcome,
            |keys| match keys {
                RecordKeys::U64(k) => k.clone(),
                _ => unreachable!("single-lane batch"),
            },
            RecordKeys::U64,
            WarmPool::run_record128_batch,
        ),
        Lane::Rec128 => run_record_batch::<W192>(
            pool,
            procs,
            &live,
            formed_at,
            sink,
            metrics,
            &mut outcome,
            |keys| match keys {
                RecordKeys::U128(k) => k.clone(),
                _ => unreachable!("single-lane batch"),
            },
            RecordKeys::U128,
            WarmPool::run_record192_batch,
        ),
    }
    outcome
}

/// The legacy bare-key path: encode as a [`TaggedBatch`], run, split.
fn run_plain_batch(
    pool: &mut WarmPool,
    procs: usize,
    live: &[Pending],
    formed_at: Instant,
    sink: &mut TraceSink,
    metrics: Option<&ClassMetrics>,
    outcome: &mut BatchOutcome,
) {
    let mut tagged = TaggedBatch::new();
    for p in live {
        let PendingWork::Plain { keys, .. } = &p.work else {
            unreachable!("single-lane batch");
        };
        tagged.push(keys, p.dir);
    }
    let (words, per_rank) = tagged.padded_words(procs);
    let encoded_at = Instant::now();
    sink.span(TracePhase::Batch, formed_at, encoded_at);
    let result = pool.run_batch(words, per_rank);
    let ran_at = Instant::now();
    sink.span(TracePhase::Run, encoded_at, ran_at);
    observe_drift(metrics, outcome.batched_keys, encoded_at, ran_at);
    match result {
        Ok(sorted) => {
            let replies = tagged.split(&sorted);
            for (p, r) in live.iter().zip(replies) {
                let PendingWork::Plain { reply, .. } = &p.work else {
                    unreachable!("single-lane batch");
                };
                let _ = reply.send(Ok(r));
            }
            note_batch_completed(live, ran_at, sink, metrics, outcome);
        }
        Err(failure) => note_batch_failed(live, &failure, metrics, outcome),
    }
}

/// The record path, generic over the machine word `W` (u128 for u32/u64
/// keys, [`W192`] for u128 keys). `widen` lifts a request's keys into
/// the word's key domain, `narrow` rebuilds [`RecordKeys`] from sorted
/// wide keys, and `run` picks the pool's machine for this word shape.
#[allow(clippy::too_many_arguments)]
fn run_record_batch<W: RecordWord>(
    pool: &mut WarmPool,
    procs: usize,
    live: &[Pending],
    formed_at: Instant,
    sink: &mut TraceSink,
    metrics: Option<&ClassMetrics>,
    outcome: &mut BatchOutcome,
    widen: impl Fn(&RecordKeys) -> Vec<W::Key>,
    narrow: impl Fn(Vec<W::Key>) -> RecordKeys,
    run: impl FnOnce(&mut WarmPool, Vec<W>, usize) -> Result<Vec<W>, MachineFailure>,
) {
    let mut rec = RecordBatch::<W>::new();
    for p in live {
        let PendingWork::Record { keys, .. } = &p.work else {
            unreachable!("single-lane batch");
        };
        rec.push(&widen(keys), p.dir);
    }
    let (words, per_rank) = rec.padded_words(procs);
    let encoded_at = Instant::now();
    sink.span(TracePhase::Batch, formed_at, encoded_at);
    let result = run(pool, words, per_rank);
    let ran_at = Instant::now();
    sink.span(TracePhase::Run, encoded_at, ran_at);
    observe_drift(metrics, outcome.batched_keys, encoded_at, ran_at);
    match result {
        Ok(sorted) => {
            let segments = rec.split(&sorted);
            for (p, seg) in live.iter().zip(segments) {
                let PendingWork::Record {
                    keys,
                    payload,
                    stride,
                    reply,
                } = &p.work
                else {
                    unreachable!("single-lane batch");
                };
                if let Some(m) = metrics {
                    m.record_record_request(keys.width(), payload.len() as u64);
                }
                let _ = reply.send(Ok(RecordReply {
                    keys: narrow(seg.keys),
                    payload: gather_rows(payload, *stride, &seg.perm),
                    stride: *stride,
                }));
            }
            note_batch_completed(live, ran_at, sink, metrics, outcome);
        }
        Err(failure) => note_batch_failed(live, &failure, metrics, outcome),
    }
}

/// The live drift signal: how far off the LogP prediction for this
/// batch's key count the machine actually ran.
fn observe_drift(
    metrics: Option<&ClassMetrics>,
    batched_keys: u64,
    encoded_at: Instant,
    ran_at: Instant,
) {
    if let Some(m) = metrics {
        let predicted = m.cost().predicted_run(batched_keys as usize);
        m.drift
            .observe(predicted, ran_at.duration_since(encoded_at));
    }
}

/// Shared completion bookkeeping: the `Scatter` span, per-request
/// latency + SLO marks, and the completed counters.
fn note_batch_completed(
    live: &[Pending],
    ran_at: Instant,
    sink: &mut TraceSink,
    metrics: Option<&ClassMetrics>,
    outcome: &mut BatchOutcome,
) {
    outcome.completed = live.len() as u64;
    sink.span(TracePhase::Scatter, ran_at, Instant::now());
    if let Some(m) = metrics {
        let replied_at = Instant::now();
        for p in live {
            let latency = replied_at.duration_since(p.enqueued);
            m.latency_us.observe_us(latency);
            m.slo.record_latency(m.now(), latency);
        }
        m.completed.add(live.len() as u64);
    }
}

/// Shared failure bookkeeping: fail every live request and bump the
/// failed counters.
fn note_batch_failed(
    live: &[Pending],
    failure: &MachineFailure,
    metrics: Option<&ClassMetrics>,
    outcome: &mut BatchOutcome,
) {
    let msg = failure.to_string();
    for p in live {
        p.fail(SortError::MachineFailed(msg.clone()));
    }
    outcome.failed = live.len() as u64;
    if let Some(m) = metrics {
        m.failed.add(live.len() as u64);
        for _ in live {
            m.slo.record_failed(m.now());
        }
    }
}

struct QueueState {
    pending: VecDeque<Pending>,
    pending_keys: usize,
    closed: bool,
    stats: ServiceStats,
}

struct Shared {
    q: Mutex<QueueState>,
    cv: Condvar,
}

/// A running sort service.
///
/// Submissions are accepted from any thread (`&self`); dropping the
/// service (or calling [`SortService::shutdown`]) drains the queue and
/// joins the dispatcher.
#[derive(Debug)]
pub struct SortService {
    shared: Arc<Shared>,
    admission: Admission,
    default_deadline: Duration,
    metrics: Option<Arc<ServiceMetrics>>,
    dispatcher: Option<std::thread::JoinHandle<ServiceReport>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl SortService {
    /// Boot the warm pool and start the dispatcher.
    ///
    /// # Panics
    /// Panics if `config` fails [`ServiceConfig::validate`].
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        config.validate();
        // Calibrate the local-kernel table here, before the dispatcher
        // exists, so the first batch never races the timing loop.
        local_sorts::dispatch::ensure_calibrated();
        let shared = Arc::new(Shared {
            q: Mutex::new(QueueState {
                pending: VecDeque::new(),
                pending_keys: 0,
                closed: false,
                stats: ServiceStats::default(),
            }),
            cv: Condvar::new(),
        });
        let metrics = config.metrics.then(|| ServiceMetrics::for_single(&config));
        let dispatcher_shared = Arc::clone(&shared);
        let dispatcher_metrics = metrics.clone();
        let dispatcher =
            std::thread::spawn(move || dispatch(config, &dispatcher_shared, dispatcher_metrics));
        SortService {
            shared,
            admission: Admission::new(&config),
            default_deadline: config.default_deadline,
            metrics,
            dispatcher: Some(dispatcher),
        }
    }

    /// The live metrics plane, when [`ServiceConfig::metrics`] is on.
    /// The handle stays valid (and final totals readable) after
    /// [`SortService::shutdown`] if cloned first.
    #[must_use]
    pub fn metrics(&self) -> Option<Arc<ServiceMetrics>> {
        self.metrics.clone()
    }

    /// Submit a request. Admitted requests return a [`Ticket`]; shed
    /// ones a structured [`Rejection`] without ever touching a machine.
    ///
    /// # Errors
    /// The [`Rejection`] naming the admission limit the request hit.
    pub fn submit(&self, request: SortRequest) -> Result<Ticket, Rejection> {
        let deadline = request.deadline.unwrap_or(self.default_deadline);
        let m = self.metrics.as_deref().map(|m| m.class(0).clone());
        let mut q = self.shared.q.lock().expect("queue lock");
        q.stats.submitted += 1;
        if let Some(m) = &m {
            m.submitted.inc();
        }
        if q.closed {
            q.stats.shed += 1;
            if let Some(m) = &m {
                m.record_shed(&Rejection::Closed);
            }
            return Err(Rejection::Closed);
        }
        if let Err(r) = self.admission.admit(
            q.pending.len(),
            q.pending_keys,
            request.keys.len(),
            deadline,
        ) {
            q.stats.shed += 1;
            if let Some(m) = &m {
                m.record_shed(&r);
            }
            return Err(r);
        }
        q.stats.admitted += 1;
        q.pending_keys += request.keys.len();
        let (reply, rx) = mpsc::channel();
        q.pending
            .push_back(Pending::plain(request.keys, request.dir, deadline, reply));
        if let Some(m) = &m {
            m.admitted.inc();
            m.set_queue(q.pending.len(), q.pending_keys);
        }
        drop(q);
        self.shared.cv.notify_all();
        Ok(Ticket { rx })
    }

    /// Submit a record request: keys at any supported width plus an
    /// opaque payload carried through the sort and handed back in key
    /// order. Admission treats a record like a plain request with the
    /// same key count; records only coalesce with same-width peers.
    ///
    /// # Errors
    /// The [`Rejection`] naming the admission limit the request hit.
    pub fn submit_record(&self, request: RecordRequest) -> Result<RecordTicket, Rejection> {
        assert_eq!(
            request.payload.len(),
            request.stride * request.keys.len(),
            "payload must hold exactly stride bytes per key"
        );
        let deadline = request.deadline.unwrap_or(self.default_deadline);
        let m = self.metrics.as_deref().map(|m| m.class(0).clone());
        let mut q = self.shared.q.lock().expect("queue lock");
        q.stats.submitted += 1;
        if let Some(m) = &m {
            m.submitted.inc();
        }
        if q.closed {
            q.stats.shed += 1;
            if let Some(m) = &m {
                m.record_shed(&Rejection::Closed);
            }
            return Err(Rejection::Closed);
        }
        if let Err(r) = self.admission.admit(
            q.pending.len(),
            q.pending_keys,
            request.keys.len(),
            deadline,
        ) {
            q.stats.shed += 1;
            if let Some(m) = &m {
                m.record_shed(&r);
            }
            return Err(r);
        }
        q.stats.admitted += 1;
        q.pending_keys += request.keys.len();
        let (reply, rx) = mpsc::channel();
        q.pending.push_back(Pending::record(
            request.keys,
            request.payload,
            request.stride,
            request.dir,
            deadline,
            reply,
        ));
        if let Some(m) = &m {
            m.admitted.inc();
            m.set_queue(q.pending.len(), q.pending_keys);
        }
        drop(q);
        self.shared.cv.notify_all();
        Ok(RecordTicket { rx })
    }

    /// A snapshot of the counters (pool counters are as of the most
    /// recently finished batch).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.shared.q.lock().expect("queue lock").stats
    }

    /// Stop accepting requests, drain the queue, and return the final
    /// report.
    ///
    /// # Panics
    /// Panics if the dispatcher thread itself panicked.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        let handle = self.dispatcher.take().expect("dispatcher present");
        self.close();
        handle.join().expect("dispatcher thread panicked")
    }

    fn close(&self) {
        self.shared.q.lock().expect("queue lock").closed = true;
        self.shared.cv.notify_all();
    }
}

impl Drop for SortService {
    fn drop(&mut self) {
        if let Some(handle) = self.dispatcher.take() {
            self.close();
            let _ = handle.join();
        }
    }
}

/// The dispatcher: coalesce → run → scatter until closed and drained.
fn dispatch(
    cfg: ServiceConfig,
    shared: &Shared,
    metrics: Option<Arc<ServiceMetrics>>,
) -> ServiceReport {
    let mut pool = WarmPool::new(&cfg);
    let class = metrics.as_deref().map(|m| m.class(0).clone());
    if let Some(c) = &class {
        pool.set_metrics(c.clone());
    }
    let coalescer = Coalescer::new(&cfg);
    let mut sink = TraceSink::new(0, cfg.trace, Instant::now());
    let mut batch_no: u32 = 0;

    loop {
        // Hold the lock only to decide and to take a batch.
        let taken: Option<Vec<Pending>> = {
            let mut q = shared.q.lock().expect("queue lock");
            loop {
                if q.pending.is_empty() {
                    if q.closed {
                        break None;
                    }
                    q = shared.cv.wait(q).expect("queue lock");
                    continue;
                }
                let now = Instant::now();
                let oldest_age = now.duration_since(q.pending[0].enqueued);
                let tightest_slack = q
                    .pending
                    .iter()
                    .map(|p| p.deadline.saturating_sub(now.duration_since(p.enqueued)))
                    .min()
                    .expect("queue is non-empty");
                match coalescer.decide(q.pending_keys, oldest_age, tightest_slack, q.closed) {
                    Verdict::Flush => {
                        if let Some(c) = &class {
                            c.verdict_flush.inc();
                        }
                        let qs = &mut *q;
                        let batch =
                            take_prefix(&mut qs.pending, &mut qs.pending_keys, cfg.max_batch_keys);
                        if let Some(c) = &class {
                            c.set_queue(qs.pending.len(), qs.pending_keys);
                        }
                        break Some(batch);
                    }
                    Verdict::Wait(d) => {
                        if let Some(c) = &class {
                            c.verdict_wait.inc();
                        }
                        let (guard, _) = shared.cv.wait_timeout(q, d).expect("queue lock");
                        q = guard;
                    }
                }
            }
        };
        let Some(batch) = taken else {
            // Closed and drained: report and exit.
            let mut q = shared.q.lock().expect("queue lock");
            q.stats.pool = pool.stats();
            return ServiceReport {
                stats: q.stats,
                trace: sink.finish(),
            };
        };

        batch_no += 1;
        let outcome = process_batch(
            &mut pool,
            cfg.procs,
            batch,
            &mut sink,
            batch_no,
            class.as_deref(),
        );

        let mut q = shared.q.lock().expect("queue lock");
        q.stats.batches += 1;
        q.stats.batched_keys += outcome.batched_keys;
        q.stats.largest_batch = q.stats.largest_batch.max(outcome.requests);
        q.stats.expired += outcome.expired;
        q.stats.completed += outcome.completed;
        q.stats.failed += outcome.failed;
        q.stats.pool = pool.stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitonic_core::tagged::sorted_independently;

    fn config(procs: usize) -> ServiceConfig {
        let mut cfg = ServiceConfig::new(procs);
        cfg.batch_watchdog = Some(Duration::from_millis(500));
        cfg
    }

    #[test]
    fn requests_come_back_sorted_in_their_requested_order() {
        let svc = SortService::start(config(2));
        let asc = svc
            .submit(SortRequest::ascending(vec![5, 1, 9, 1]))
            .unwrap();
        let desc = svc
            .submit(SortRequest::new(vec![3, 8, 2], Direction::Descending))
            .unwrap();
        let empty = svc.submit(SortRequest::ascending(vec![])).unwrap();
        assert_eq!(asc.wait().unwrap(), vec![1, 1, 5, 9]);
        assert_eq!(desc.wait().unwrap(), vec![8, 3, 2]);
        assert_eq!(empty.wait().unwrap(), Vec::<u32>::new());
        let report = svc.shutdown();
        assert_eq!(report.stats.completed, 3);
        assert_eq!(report.stats.shed, 0);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn many_concurrent_clients_all_get_their_own_answer() {
        let svc = Arc::new(SortService::start(config(4)));
        let mut handles = Vec::new();
        for c in 0..16u32 {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let keys: Vec<u32> = (0..64)
                    .map(|i| (c + 1) * 1000 + (i * 37 + c) % 100)
                    .collect();
                let dir = if c % 2 == 0 {
                    Direction::Ascending
                } else {
                    Direction::Descending
                };
                let expect = sorted_independently(&keys, dir);
                let got = svc
                    .submit(SortRequest::new(keys, dir))
                    .expect("admitted")
                    .wait()
                    .expect("sorted");
                assert_eq!(got, expect, "client {c}");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let Ok(svc) = Arc::try_unwrap(svc) else {
            panic!("all clients done");
        };
        let report = svc.shutdown();
        assert_eq!(report.stats.completed, 16);
        assert_eq!(
            report.stats.shed + report.stats.expired + report.stats.failed,
            0
        );
        assert!(report.stats.batches <= 16);
    }

    #[test]
    fn bounded_queue_sheds_with_structured_rejections() {
        let mut cfg = config(2);
        cfg.max_request_keys = 8;
        let svc = SortService::start(cfg);
        match svc.submit(SortRequest::ascending(vec![0; 9])) {
            Err(Rejection::TooLarge { keys: 9, limit: 8 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!((stats.submitted, stats.shed, stats.admitted), (1, 1, 0));
        drop(svc);
    }

    #[test]
    fn steady_state_batches_hit_the_plan_cache_every_time() {
        // Same request shape over and over: after the first batch of each
        // padded shape, no plan is ever computed again.
        let svc = SortService::start(config(2));
        let keys: Vec<u32> = (0..128u32).rev().collect();
        for _ in 0..4 {
            let t = svc.submit(SortRequest::ascending(keys.clone())).unwrap();
            assert!(t.wait().is_ok());
        }
        let report = svc.shutdown();
        let pool = report.stats.pool;
        assert!(pool.plan_misses > 0, "first batch was cold");
        assert_eq!(pool.last_batch_plan_misses, 0, "steady state is all hits");
        assert!(pool.plan_hit_rate() > 0.5);
    }

    #[test]
    fn record_requests_come_back_stable_with_their_payload() {
        use bitonic_core::tagged::records_sorted_independently;
        let svc = SortService::start(config(2));
        // Duplicate-heavy u64 keys; payload row = its original index.
        let keys: Vec<u64> = (0..48u64).map(|i| (i * 5) % 7).collect();
        let payload: Vec<u8> = (0..keys.len() as u64).flat_map(u64::to_le_bytes).collect();
        let t = svc
            .submit_record(RecordRequest::new(
                RecordKeys::U64(keys.clone()),
                payload,
                8,
                Direction::Descending,
            ))
            .unwrap();
        let got = t.wait().unwrap();
        let oracle = records_sorted_independently(&keys, Direction::Descending);
        assert_eq!(got.keys, RecordKeys::U64(oracle.keys));
        let want: Vec<u8> = oracle
            .perm
            .iter()
            .flat_map(|&i| u64::from(i).to_le_bytes())
            .collect();
        assert_eq!(got.payload, want, "payload rows follow their keys stably");

        // A mixed queue coalesces per lane but answers everyone: plain,
        // u32-record, and u128-record (empty payload) side by side.
        let plain = svc.submit(SortRequest::ascending(vec![3, 1, 2])).unwrap();
        let r32 = svc
            .submit_record(RecordRequest::new(
                RecordKeys::U32(vec![9, 2, 9, 1]),
                vec![4, 7, 5, 6],
                1,
                Direction::Ascending,
            ))
            .unwrap();
        let r128 = svc
            .submit_record(RecordRequest::new(
                RecordKeys::U128(vec![1 << 90, 1, 1 << 90]),
                vec![],
                0,
                Direction::Descending,
            ))
            .unwrap();
        assert_eq!(plain.wait().unwrap(), vec![1, 2, 3]);
        let r32 = r32.wait().unwrap();
        assert_eq!(r32.keys, RecordKeys::U32(vec![1, 2, 9, 9]));
        assert_eq!(r32.payload, vec![6, 7, 4, 5], "equal keys keep input order");
        let r128 = r128.wait().unwrap();
        assert_eq!(r128.keys, RecordKeys::U128(vec![1 << 90, 1 << 90, 1]));
        assert!(r128.payload.is_empty());
        let report = svc.shutdown();
        assert_eq!(report.stats.completed, 4);
        assert_eq!(report.stats.failed + report.stats.expired, 0);
    }

    #[test]
    fn tracing_records_the_serving_phases() {
        let mut cfg = config(2);
        cfg.trace = obs::TraceConfig::on();
        let svc = SortService::start(cfg);
        let t = svc.submit(SortRequest::ascending(vec![3, 1, 2])).unwrap();
        assert_eq!(t.wait().unwrap(), vec![1, 2, 3]);
        let report = svc.shutdown();
        for phase in [
            TracePhase::Queue,
            TracePhase::Batch,
            TracePhase::Run,
            TracePhase::Scatter,
        ] {
            assert!(
                report.trace.spans().any(|s| s.phase == phase),
                "missing {phase:?} span"
            );
        }
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let svc = SortService::start(config(2));
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                svc.submit(SortRequest::ascending(vec![8 - i as u32, i as u32]))
                    .unwrap()
            })
            .collect();
        let report = svc.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted requests are answered");
        }
        assert_eq!(report.stats.completed, 8);
    }
}
