//! Sharded serving: a size-class router over multiple warm pools, with
//! work stealing and predictive autoscaling.
//!
//! One pool serves every request shape poorly: the coalescer tuned for
//! bulk throughput holds small interactive sorts hostage, and the one
//! tuned for latency never amortizes the big ones. Sharding splits the
//! request-size spectrum into bands ([`crate::ShardedConfig`]), gives
//! each band its own pool — its own `P`, coalescer, plan cache, machine
//! count — and routes every request to the narrowest band that admits
//! it ([`Router`]).
//!
//! ```text
//!  clients ──submit──▶ [router] ──▶ shard 0 (small)  [queue]─▶ pool
//!                         │    ───▶ shard 1 (bulk)   [queue]─▶ pool
//!                         │              ▲ steal ▲
//!                         └── size-class │ bands │ autoscaler
//! ```
//!
//! Two mechanisms keep the split from stranding capacity:
//!
//! * **Work stealing** — an idle shard claims the oldest compatible
//!   batch from a *busy* neighbor's queue (head waited at least
//!   `steal_after`), re-coalescing it under its own cost model. The
//!   claim is exactly the FIFO prefix the victim itself would have
//!   taken (`server::take_prefix`), so replies are unchanged —
//!   only who computes them.
//! * **Predictive autoscaling** — each shard feeds queue snapshots to an
//!   [`Autoscaler`], growing its pool when the LogP-predicted drain
//!   time overshoots the class's deadline budget and shrinking it after
//!   sustained idleness (never below one machine).
//!
//! When [`crate::BulkConfig::enabled`], a third mechanism lifts the
//! shard layer from isolation to aggregate capacity: a request larger
//! than every band is split by [`crate::split`] into per-shard in-band
//! sub-requests (one oversampled splitter-selection round), each rides
//! the normal admission/coalesce/pool path above, and a coordinator
//! k-way merges the sorted partitions into the parent's reply.
//!
//! Both services here answer identically to a single pool — the
//! property tests in `tests/shard.rs` prove replies are byte-identical.
//! [`ShardedService`] is the production front door (one worker thread
//! per shard). [`ShardEngine`] is the same policy stack run
//! *synchronously under virtual time*: every routing, flush, steal and
//! scale decision is a pure function of the scripted submission times,
//! so tests replay a scenario and demand bit-for-bit identical event
//! logs.

use crate::admission::{Admission, Rejection};
use crate::autoscale::{Autoscaler, ScaleVerdict};
use crate::coalescer::{Coalescer, Verdict};
use crate::config::{BulkConfig, ServiceConfig, ShardedConfig};
use crate::metrics::ServiceMetrics;
use crate::pool::{PoolStats, WarmPool};
use crate::router::Router;
use crate::server::{
    gather_rows, process_batch, take_prefix, Lane, Pending, PendingWork, RecordKeys, RecordReply,
    RecordRequest, RecordTicket, SortError, SortRequest, Ticket,
};
use crate::split::{self, BulkFailure, BulkReason};
use bitonic_core::tagged::{RecordBatch, RecordWord, TaggedBatch};
use bitonic_network::Direction;
use local_sorts::W192;
use obs::{RankTrace, TracePhase, TraceSink};
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A steal candidate as seen by an idle shard: the victim's index, its
/// head request's age and key count, and whether the victim's worker is
/// currently busy running a batch.
pub(crate) type StealHead = (usize, Duration, usize, bool);

/// Pick the victim an idle thief should steal from: among busy shards
/// whose head request has waited at least `steal_after` and fits
/// `thief_capacity` keys, the one with the *oldest* head (ties go to the
/// lowest shard index). Pure and deterministic — shared by the threaded
/// workers and the virtual-time engine so both steal identically.
pub(crate) fn pick_victim(
    heads: &[StealHead],
    steal_after: Duration,
    thief_capacity: usize,
) -> Option<usize> {
    heads
        .iter()
        .filter(|(_, age, keys, busy)| *busy && *age >= steal_after && *keys <= thief_capacity)
        .max_by_key(|(shard, age, _, _)| (*age, Reverse(*shard)))
        .map(|(shard, _, _, _)| *shard)
}

/// One shard's lifetime counters.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// The class name this shard serves.
    pub class: String,
    /// Requests the router sent here.
    pub submitted: u64,
    /// Requests past this shard's admission control.
    pub admitted: u64,
    /// Requests shed by this shard's admission control.
    pub shed: u64,
    /// Admitted requests that out-waited their deadline.
    pub expired: u64,
    /// Admitted requests lost to a failed batch.
    pub failed: u64,
    /// Requests answered with sorted keys (including stolen ones — the
    /// thief gets the credit).
    pub completed: u64,
    /// Batches this shard ran (own and stolen).
    pub batches: u64,
    /// Useful keys across those batches.
    pub batched_keys: u64,
    /// Most requests in one batch.
    pub largest_batch: u64,
    /// Batches this shard stole from neighbors.
    pub steals: u64,
    /// Requests claimed across those steals.
    pub stolen_requests: u64,
    /// Times the autoscaler grew this shard's pool.
    pub scale_ups: u64,
    /// Times the autoscaler shrank this shard's pool.
    pub scale_downs: u64,
    /// The shard's pool counters (machines, rebuilds, plan cache).
    pub pool: PoolStats,
}

/// Whole-service counters: one [`ShardStats`] per shard plus the
/// requests no band admitted.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Per-shard counters, in class order.
    pub shards: Vec<ShardStats>,
    /// Requests larger than every band (shed at the router).
    pub unroutable: u64,
    /// Over-band requests admitted through the bulk split path.
    pub bulk_submitted: u64,
    /// Bulk requests answered with a merged sorted reply.
    pub bulk_completed: u64,
    /// Bulk requests failed by a sub-request (shed/expired/failed).
    pub bulk_failed: u64,
}

impl ShardedStats {
    /// Requests answered with sorted keys, summed over shards.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Requests shed anywhere (router or shard admission).
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.unroutable + self.shards.iter().map(|s| s.shed).sum::<u64>()
    }

    /// Admitted requests that expired in a queue, summed over shards.
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.shards.iter().map(|s| s.expired).sum()
    }

    /// Admitted requests lost to failed batches, summed over shards.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.shards.iter().map(|s| s.failed).sum()
    }

    /// Batches stolen, summed over shards.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.shards.iter().map(|s| s.steals).sum()
    }
}

/// What a finished sharded service hands back.
#[derive(Debug)]
pub struct ShardedReport {
    /// Final counters.
    pub stats: ShardedStats,
    /// One span timeline per shard worker (queue/batch/run/scatter plus
    /// steal and scale spans), in class order.
    pub shard_traces: Vec<RankTrace>,
    /// The router's timeline (one `Route` span per admitted request,
    /// `step` carrying the shard index).
    pub router_trace: RankTrace,
}

struct ShardQueue {
    pending: VecDeque<Pending>,
    pending_keys: usize,
    /// The shard's worker is currently off running a batch — the signal
    /// that makes an aged queue *stealable* (an idle victim flushes its
    /// own queue within `max_wait`; stealing from it would just churn).
    busy: bool,
    stats: ShardStats,
}

struct MultiQueue {
    shards: Vec<ShardQueue>,
    closed: bool,
    unroutable: u64,
    bulk_submitted: u64,
    bulk_completed: u64,
    bulk_failed: u64,
    router_sink: TraceSink,
}

struct SharedShards {
    q: Mutex<MultiQueue>,
    cv: Condvar,
}

/// A running sharded sort service: one worker thread per size class,
/// each owning its shard's [`WarmPool`].
///
/// Submissions are accepted from any thread; dropping the service (or
/// calling [`ShardedService::shutdown`]) drains every queue and joins
/// the workers.
pub struct ShardedService {
    shared: Arc<SharedShards>,
    router: Router,
    admissions: Vec<Admission>,
    deadlines: Vec<Duration>,
    bulk: BulkConfig,
    bands: Vec<usize>,
    metrics: Option<Arc<ServiceMetrics>>,
    workers: Vec<std::thread::JoinHandle<RankTrace>>,
    /// One coordinator per in-flight bulk request, joined at shutdown so
    /// the final stats include every scatter/merge in flight. Finished
    /// ones are reaped whenever a new one registers.
    bulk_workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ShardedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.router.shards())
            .finish_non_exhaustive()
    }
}

impl ShardedService {
    /// Boot every shard's pool and start one worker per shard.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`ShardedConfig::validate`].
    #[must_use]
    pub fn start(cfg: ShardedConfig) -> Self {
        cfg.validate();
        // Calibrate the local-kernel table on this thread, before any
        // shard worker boots its pool: otherwise one worker spends the
        // timing loop calibrating while its neighbours already serve, and
        // the steal and scaling decisions see that skew.
        local_sorts::dispatch::ensure_calibrated();
        let router = Router::new(&cfg);
        let epoch = Instant::now();
        let shards = cfg
            .classes
            .iter()
            .map(|c| ShardQueue {
                pending: VecDeque::new(),
                pending_keys: 0,
                busy: false,
                stats: ShardStats {
                    class: c.name.clone(),
                    ..ShardStats::default()
                },
            })
            .collect();
        let shared = Arc::new(SharedShards {
            q: Mutex::new(MultiQueue {
                shards,
                closed: false,
                unroutable: 0,
                bulk_submitted: 0,
                bulk_completed: 0,
                bulk_failed: 0,
                router_sink: TraceSink::new(cfg.classes.len(), cfg.trace, epoch),
            }),
            cv: Condvar::new(),
        });
        let admissions = cfg
            .classes
            .iter()
            .map(|c| Admission::new(&c.pool))
            .collect();
        let deadlines = cfg
            .classes
            .iter()
            .map(|c| c.pool.default_deadline)
            .collect();
        let metrics = cfg
            .classes
            .iter()
            .any(|c| c.pool.metrics)
            .then(|| ServiceMetrics::for_sharded(&cfg));
        let workers = (0..cfg.classes.len())
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                let metrics = metrics.clone();
                std::thread::spawn(move || shard_worker(&cfg, i, epoch, &shared, metrics))
            })
            .collect();
        ShardedService {
            bulk: cfg.bulk,
            bands: router.band_capacities(),
            shared,
            router,
            admissions,
            deadlines,
            metrics,
            workers,
            bulk_workers: Mutex::new(Vec::new()),
        }
    }

    /// The live metrics plane, when any class's
    /// [`ServiceConfig::metrics`] is on. All shards share one registry;
    /// series are told apart by their `class` label. The handle stays
    /// valid after [`ShardedService::shutdown`] if cloned first.
    #[must_use]
    pub fn metrics(&self) -> Option<Arc<ServiceMetrics>> {
        self.metrics.clone()
    }

    /// Submit a request: route it to its size class, apply that shard's
    /// admission control, and enqueue it. Requests larger than every
    /// band are shed as [`Rejection::TooLarge`] against the widest band —
    /// unless [`crate::BulkConfig::enabled`], in which case they are
    /// split across the shards and merged on reply (see [`crate::split`]).
    ///
    /// # Errors
    /// The [`Rejection`] naming the limit the request hit.
    pub fn submit(&self, request: SortRequest) -> Result<Ticket, Rejection> {
        let t0 = Instant::now();
        let mut q = self.shared.q.lock().expect("shard queues lock");
        if q.closed {
            return Err(Rejection::Closed);
        }
        let Some(shard) = self.router.route(request.keys.len()) else {
            if self.bulk.enabled {
                drop(q);
                return self.submit_bulk(request);
            }
            q.unroutable += 1;
            if let Some(m) = self.metrics.as_deref() {
                m.unroutable.inc();
            }
            return Err(self.router.too_large(request.keys.len()));
        };
        let cm = self.metrics.as_deref().map(|m| m.class(shard));
        let deadline = request.deadline.unwrap_or(self.deadlines[shard]);
        let sq = &mut q.shards[shard];
        sq.stats.submitted += 1;
        if let Some(m) = &cm {
            m.submitted.inc();
        }
        if let Err(r) = self.admissions[shard].admit(
            sq.pending.len(),
            sq.pending_keys,
            request.keys.len(),
            deadline,
        ) {
            sq.stats.shed += 1;
            if let Some(m) = &cm {
                m.record_shed(&r);
            }
            return Err(r);
        }
        sq.stats.admitted += 1;
        sq.pending_keys += request.keys.len();
        if let Some(m) = &cm {
            m.admitted.inc();
            m.set_queue(sq.pending.len() + 1, sq.pending_keys);
        }
        let (reply, rx) = mpsc::channel();
        sq.pending.push_back(Pending {
            work: PendingWork::Plain {
                keys: request.keys,
                reply,
            },
            dir: request.dir,
            deadline,
            enqueued: t0,
        });
        q.router_sink.set_step(shard as u32);
        q.router_sink.span(TracePhase::Route, t0, Instant::now());
        drop(q);
        self.shared.cv.notify_all();
        Ok(Ticket { rx })
    }

    /// Submit a record request: same routing and admission as
    /// [`ShardedService::submit`] (a record counts its keys), with the
    /// payload riding the queue and coming back in key order. Over-band
    /// record requests take the bulk split path when enabled — payload
    /// rows are scattered with their keys and merged stably on reply.
    ///
    /// # Errors
    /// The [`Rejection`] naming the limit the request hit.
    pub fn submit_record(&self, request: RecordRequest) -> Result<RecordTicket, Rejection> {
        assert_eq!(
            request.payload.len(),
            request.stride * request.keys.len(),
            "payload must hold exactly stride bytes per key"
        );
        let t0 = Instant::now();
        let mut q = self.shared.q.lock().expect("shard queues lock");
        if q.closed {
            return Err(Rejection::Closed);
        }
        let Some(shard) = self.router.route(request.keys.len()) else {
            if self.bulk.enabled {
                drop(q);
                return self.submit_record_bulk(request);
            }
            q.unroutable += 1;
            if let Some(m) = self.metrics.as_deref() {
                m.unroutable.inc();
            }
            return Err(self.router.too_large(request.keys.len()));
        };
        let cm = self.metrics.as_deref().map(|m| m.class(shard));
        let deadline = request.deadline.unwrap_or(self.deadlines[shard]);
        let sq = &mut q.shards[shard];
        sq.stats.submitted += 1;
        if let Some(m) = &cm {
            m.submitted.inc();
        }
        if let Err(r) = self.admissions[shard].admit(
            sq.pending.len(),
            sq.pending_keys,
            request.keys.len(),
            deadline,
        ) {
            sq.stats.shed += 1;
            if let Some(m) = &cm {
                m.record_shed(&r);
            }
            return Err(r);
        }
        sq.stats.admitted += 1;
        sq.pending_keys += request.keys.len();
        if let Some(m) = &cm {
            m.admitted.inc();
            m.set_queue(sq.pending.len() + 1, sq.pending_keys);
        }
        let (reply, rx) = mpsc::channel();
        sq.pending.push_back(Pending {
            work: PendingWork::Record {
                keys: request.keys,
                payload: request.payload,
                stride: request.stride,
                reply,
            },
            dir: request.dir,
            deadline,
            enqueued: t0,
        });
        q.router_sink.set_step(shard as u32);
        q.router_sink.span(TracePhase::Route, t0, Instant::now());
        drop(q);
        self.shared.cv.notify_all();
        Ok(RecordTicket { rx })
    }

    /// Dispatch an over-band record request to the width-typed bulk
    /// scatter path.
    fn submit_record_bulk(&self, request: RecordRequest) -> Result<RecordTicket, Rejection> {
        let RecordRequest {
            keys,
            payload,
            stride,
            dir,
            deadline,
        } = request;
        match keys {
            RecordKeys::U32(k) => self.record_bulk(
                k,
                payload,
                stride,
                dir,
                deadline,
                RecordKeys::U32,
                |rk| match rk {
                    RecordKeys::U32(v) => v,
                    _ => unreachable!("width is fixed per bulk request"),
                },
            ),
            RecordKeys::U64(k) => self.record_bulk(
                k,
                payload,
                stride,
                dir,
                deadline,
                RecordKeys::U64,
                |rk| match rk {
                    RecordKeys::U64(v) => v,
                    _ => unreachable!("width is fixed per bulk request"),
                },
            ),
            RecordKeys::U128(k) => self.record_bulk(
                k,
                payload,
                stride,
                dir,
                deadline,
                RecordKeys::U128,
                |rk| match rk {
                    RecordKeys::U128(v) => v,
                    _ => unreachable!("width is fixed per bulk request"),
                },
            ),
        }
    }

    /// The record bulk path: [`split::plan_records`] scatters keys and
    /// their payload rows into per-shard in-band record sub-requests
    /// under the same two-phase admission as the plain bulk path; a
    /// coordinator merges the sorted partitions stably (key ties break
    /// toward the earlier partition) into the parent's reply.
    #[allow(clippy::too_many_arguments)]
    fn record_bulk<K: Copy + Ord + Send + Sync + 'static>(
        &self,
        keys: Vec<K>,
        payload: Vec<u8>,
        stride: usize,
        dir: Direction,
        deadline: Option<Duration>,
        wrap: impl Fn(Vec<K>) -> RecordKeys + Send + 'static,
        unwrap: impl Fn(RecordKeys) -> Vec<K> + Send + 'static,
    ) -> Result<RecordTicket, Rejection> {
        let t0 = Instant::now();
        let plan = split::plan_records(&keys, &self.bands, &self.bulk);
        let nparts = plan.parts.len();
        let parent_deadline =
            deadline.unwrap_or_else(|| *self.deadlines.last().expect("at least one shard"));
        let sub_deadline = parent_deadline.saturating_sub(self.bulk.merge_budget);
        let (parent_tx, parent_rx) = mpsc::channel();
        let mut q = self.shared.q.lock().expect("shard queues lock");
        if q.closed {
            return Err(Rejection::Closed);
        }
        q.bulk_submitted += 1;
        if let Some(m) = self.metrics.as_deref() {
            m.bulk_submitted.inc();
            m.bulk_parts.add(nparts as u64);
            m.bulk_samples.add(plan.samples as u64);
            for s in &plan.skew {
                m.bulk_skew_permille.observe((s * 1000.0).round() as u64);
            }
        }
        let mut extra_len = vec![0usize; q.shards.len()];
        let mut extra_keys = vec![0usize; q.shards.len()];
        let mut refused = None;
        for part in &plan.parts {
            let sq = &q.shards[part.shard];
            if let Err(r) = self.admissions[part.shard].admit(
                sq.pending.len() + extra_len[part.shard],
                sq.pending_keys + extra_keys[part.shard],
                part.keys.len(),
                sub_deadline,
            ) {
                refused = Some(BulkFailure {
                    shard: part.shard,
                    reason: BulkReason::Shed(r),
                });
                break;
            }
            extra_len[part.shard] += 1;
            extra_keys[part.shard] += part.keys.len();
        }
        if let Some(failure) = refused {
            q.bulk_failed += 1;
            if let Some(m) = self.metrics.as_deref() {
                m.bulk_failed.inc();
            }
            drop(q);
            let _ = parent_tx.send(Err(SortError::Bulk(failure)));
            return Ok(RecordTicket { rx: parent_rx });
        }
        let mut subs = Vec::with_capacity(nparts);
        for part in plan.parts {
            let sq = &mut q.shards[part.shard];
            sq.stats.submitted += 1;
            sq.stats.admitted += 1;
            sq.pending_keys += part.keys.len();
            if let Some(m) = self.metrics.as_deref() {
                let cm = m.class(part.shard);
                cm.submitted.inc();
                cm.admitted.inc();
                cm.set_queue(sq.pending.len() + 1, sq.pending_keys);
            }
            let (reply, rx) = mpsc::channel();
            sq.pending.push_back(Pending {
                work: PendingWork::Record {
                    keys: wrap(part.keys),
                    payload: gather_rows(&payload, stride, &part.rows),
                    stride,
                    reply,
                },
                dir,
                deadline: sub_deadline,
                enqueued: t0,
            });
            subs.push((part.shard, rx));
        }
        q.router_sink.set_step(nparts as u32);
        q.router_sink.span(TracePhase::Split, t0, Instant::now());
        let shared = Arc::clone(&self.shared);
        let metrics = self.metrics.clone();
        let worker = std::thread::spawn(move || {
            record_bulk_coordinator(
                &shared,
                metrics.as_deref(),
                dir,
                stride,
                subs,
                &parent_tx,
                wrap,
                unwrap,
            );
        });
        self.register_bulk_worker(worker);
        drop(q);
        self.shared.cv.notify_all();
        Ok(RecordTicket { rx: parent_rx })
    }

    /// The bulk path: split an over-band request into per-shard in-band
    /// sub-requests, enqueue them through each shard's normal admission,
    /// and hand reassembly to a coordinator thread. The parent's ticket
    /// resolves to the merged keys, or to [`SortError::Bulk`] naming the
    /// first shard whose partition sank.
    fn submit_bulk(&self, request: SortRequest) -> Result<Ticket, Rejection> {
        let t0 = Instant::now();
        // Splitter selection is pure CPU over the keys; keep it outside
        // the queue lock.
        let plan = split::plan(&request.keys, &self.bands, &self.bulk);
        let nparts = plan.parts.len();
        let dir = request.dir;
        let parent_deadline = request
            .deadline
            .unwrap_or_else(|| *self.deadlines.last().expect("at least one shard"));
        let sub_deadline = parent_deadline.saturating_sub(self.bulk.merge_budget);
        let (parent_tx, parent_rx) = mpsc::channel();
        let mut q = self.shared.q.lock().expect("shard queues lock");
        if q.closed {
            return Err(Rejection::Closed);
        }
        q.bulk_submitted += 1;
        if let Some(m) = self.metrics.as_deref() {
            m.bulk_submitted.inc();
            m.bulk_parts.add(nparts as u64);
            m.bulk_samples.add(plan.samples as u64);
            for s in &plan.skew {
                m.bulk_skew_permille.observe((s * 1000.0).round() as u64);
            }
        }
        // Two-phase scatter: admission-check every partition (each check
        // accounting for the ones before it) before enqueuing any, so a
        // shed leaves no orphaned sub-requests behind.
        let mut extra_len = vec![0usize; q.shards.len()];
        let mut extra_keys = vec![0usize; q.shards.len()];
        let mut refused = None;
        for part in &plan.parts {
            let sq = &q.shards[part.shard];
            if let Err(r) = self.admissions[part.shard].admit(
                sq.pending.len() + extra_len[part.shard],
                sq.pending_keys + extra_keys[part.shard],
                part.keys.len(),
                sub_deadline,
            ) {
                refused = Some(BulkFailure {
                    shard: part.shard,
                    reason: BulkReason::Shed(r),
                });
                break;
            }
            extra_len[part.shard] += 1;
            extra_keys[part.shard] += part.keys.len();
        }
        if let Some(failure) = refused {
            q.bulk_failed += 1;
            if let Some(m) = self.metrics.as_deref() {
                m.bulk_failed.inc();
            }
            drop(q);
            let _ = parent_tx.send(Err(SortError::Bulk(failure)));
            return Ok(Ticket { rx: parent_rx });
        }
        let mut subs = Vec::with_capacity(nparts);
        for part in plan.parts {
            let sq = &mut q.shards[part.shard];
            sq.stats.submitted += 1;
            sq.stats.admitted += 1;
            sq.pending_keys += part.keys.len();
            if let Some(m) = self.metrics.as_deref() {
                let cm = m.class(part.shard);
                cm.submitted.inc();
                cm.admitted.inc();
                cm.set_queue(sq.pending.len() + 1, sq.pending_keys);
            }
            let (reply, rx) = mpsc::channel();
            sq.pending.push_back(Pending {
                work: PendingWork::Plain {
                    keys: part.keys,
                    reply,
                },
                dir,
                deadline: sub_deadline,
                enqueued: t0,
            });
            subs.push((part.shard, rx));
        }
        q.router_sink.set_step(nparts as u32);
        q.router_sink.span(TracePhase::Split, t0, Instant::now());
        // Register the coordinator while still holding the queue lock
        // (where `closed` is known false), so a concurrent shutdown
        // cannot drain the worker list before this one is on it.
        let shared = Arc::clone(&self.shared);
        let metrics = self.metrics.clone();
        let worker = std::thread::spawn(move || {
            bulk_coordinator(&shared, metrics.as_deref(), dir, subs, &parent_tx);
        });
        self.register_bulk_worker(worker);
        drop(q);
        self.shared.cv.notify_all();
        Ok(Ticket { rx: parent_rx })
    }

    /// A snapshot of every shard's counters (pool counters as of each
    /// shard's most recently finished batch).
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        let q = self.shared.q.lock().expect("shard queues lock");
        ShardedStats {
            shards: q.shards.iter().map(|s| s.stats.clone()).collect(),
            unroutable: q.unroutable,
            bulk_submitted: q.bulk_submitted,
            bulk_completed: q.bulk_completed,
            bulk_failed: q.bulk_failed,
        }
    }

    /// Stop accepting requests, drain every shard, and return the final
    /// report.
    ///
    /// # Panics
    /// Panics if a worker thread itself panicked.
    #[must_use]
    pub fn shutdown(mut self) -> ShardedReport {
        let workers = std::mem::take(&mut self.workers);
        self.close();
        let shard_traces: Vec<RankTrace> = workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        // The drained queues have answered every sub-request by now, so
        // the coordinators all finish; join them before taking the final
        // counters so in-flight merges are counted.
        let bulk: Vec<_> = self
            .bulk_workers
            .lock()
            .expect("bulk worker list")
            .drain(..)
            .collect();
        for w in bulk {
            let _ = w.join();
        }
        let mut q = self.shared.q.lock().expect("shard queues lock");
        let router_sink = std::mem::replace(
            &mut q.router_sink,
            TraceSink::new(0, obs::TraceConfig::off(), Instant::now()),
        );
        ShardedReport {
            stats: ShardedStats {
                shards: q.shards.iter().map(|s| s.stats.clone()).collect(),
                unroutable: q.unroutable,
                bulk_submitted: q.bulk_submitted,
                bulk_completed: q.bulk_completed,
                bulk_failed: q.bulk_failed,
            },
            shard_traces,
            router_trace: router_sink.finish(),
        }
    }

    /// Keep `worker` for joining at shutdown, first joining every
    /// coordinator that has finished: an unjoined thread keeps its stack
    /// mapped, so the list holds the bulk requests in flight, not every
    /// one served.
    fn register_bulk_worker(&self, worker: std::thread::JoinHandle<()>) {
        let mut workers = self.bulk_workers.lock().expect("bulk worker list");
        let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *workers)
            .into_iter()
            .partition(std::thread::JoinHandle::is_finished);
        for w in finished {
            let _ = w.join();
        }
        *workers = running;
        workers.push(worker);
    }

    fn close(&self) {
        self.shared.q.lock().expect("shard queues lock").closed = true;
        self.shared.cv.notify_all();
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.close();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        let bulk: Vec<_> = self
            .bulk_workers
            .lock()
            .expect("bulk worker list")
            .drain(..)
            .collect();
        for w in bulk {
            let _ = w.join();
        }
    }
}

/// One shard's sub-reply channel within a bulk scatter.
type SubReplyRx = mpsc::Receiver<Result<Vec<u32>, SortError>>;

/// Reassemble one bulk request: wait for every per-shard sub-reply, then
/// k-way merge the sorted partitions into the parent's answer. The first
/// failing sub-request fails the parent with a structured
/// [`BulkFailure`] naming the shard and reason; the surviving partitions
/// are discarded (their shard stats still settle as their batches run).
fn bulk_coordinator(
    shared: &SharedShards,
    metrics: Option<&ServiceMetrics>,
    dir: Direction,
    subs: Vec<(usize, SubReplyRx)>,
    parent: &mpsc::Sender<Result<Vec<u32>, SortError>>,
) {
    let mut parts: Vec<Vec<u32>> = Vec::with_capacity(subs.len());
    let mut failure: Option<BulkFailure> = None;
    for (shard, rx) in subs {
        if failure.is_some() {
            // Parent already doomed; drain the rest so nothing dangles.
            let _ = rx.recv();
            continue;
        }
        match rx.recv() {
            Ok(Ok(keys)) => parts.push(keys),
            Ok(Err(e)) => {
                failure = Some(BulkFailure {
                    shard,
                    reason: BulkReason::from_sub_error(&e),
                });
            }
            Err(_) => {
                failure = Some(BulkFailure {
                    shard,
                    reason: BulkReason::Closed,
                });
            }
        }
    }
    let reply = match failure {
        Some(f) => {
            shared.q.lock().expect("shard queues lock").bulk_failed += 1;
            if let Some(m) = metrics {
                m.bulk_failed.inc();
            }
            Err(SortError::Bulk(f))
        }
        None => {
            let m0 = Instant::now();
            let merged = split::merge_parts(&parts, dir);
            let m1 = Instant::now();
            {
                let mut q = shared.q.lock().expect("shard queues lock");
                q.bulk_completed += 1;
                q.router_sink.span(TracePhase::Merge, m0, m1);
            }
            if let Some(m) = metrics {
                m.bulk_completed.inc();
                m.bulk_merge_us
                    .observe(u64::try_from(m1.duration_since(m0).as_micros()).unwrap_or(u64::MAX));
            }
            Ok(merged)
        }
    };
    let _ = parent.send(reply);
}

/// [`bulk_coordinator`] for record requests: collect every partition's
/// [`RecordReply`], then merge keys *and* payload rows stably — key
/// ties break toward the earlier partition, which together with
/// [`split::plan_records`]'s ties-left scatter keeps the whole bulk
/// record sort stable.
#[allow(clippy::too_many_arguments)]
fn record_bulk_coordinator<K: Copy + Ord>(
    shared: &SharedShards,
    metrics: Option<&ServiceMetrics>,
    dir: Direction,
    stride: usize,
    subs: Vec<(usize, mpsc::Receiver<Result<RecordReply, SortError>>)>,
    parent: &mpsc::Sender<Result<RecordReply, SortError>>,
    wrap: impl Fn(Vec<K>) -> RecordKeys,
    unwrap: impl Fn(RecordKeys) -> Vec<K>,
) {
    let mut parts: Vec<(Vec<K>, Vec<u8>)> = Vec::with_capacity(subs.len());
    let mut failure: Option<BulkFailure> = None;
    for (shard, rx) in subs {
        if failure.is_some() {
            let _ = rx.recv();
            continue;
        }
        match rx.recv() {
            Ok(Ok(reply)) => parts.push((unwrap(reply.keys), reply.payload)),
            Ok(Err(e)) => {
                failure = Some(BulkFailure {
                    shard,
                    reason: BulkReason::from_sub_error(&e),
                });
            }
            Err(_) => {
                failure = Some(BulkFailure {
                    shard,
                    reason: BulkReason::Closed,
                });
            }
        }
    }
    let reply = match failure {
        Some(f) => {
            shared.q.lock().expect("shard queues lock").bulk_failed += 1;
            if let Some(m) = metrics {
                m.bulk_failed.inc();
            }
            Err(SortError::Bulk(f))
        }
        None => {
            let m0 = Instant::now();
            let (keys, payload) = split::merge_record_parts(&parts, stride, dir);
            let m1 = Instant::now();
            {
                let mut q = shared.q.lock().expect("shard queues lock");
                q.bulk_completed += 1;
                q.router_sink.span(TracePhase::Merge, m0, m1);
            }
            if let Some(m) = metrics {
                m.bulk_completed.inc();
                m.bulk_merge_us
                    .observe(u64::try_from(m1.duration_since(m0).as_micros()).unwrap_or(u64::MAX));
            }
            Ok(RecordReply {
                keys: wrap(keys),
                payload,
                stride,
            })
        }
    };
    let _ = parent.send(reply);
}

/// What a worker pulled out of the queues in one pass.
enum Taken {
    /// A batch of this shard's own requests.
    Own(Vec<Pending>),
    /// A batch stolen from `victim`'s queue.
    Stolen(Vec<Pending>, usize),
    /// Closed and this shard's queue is drained: exit.
    Done,
}

/// One shard's worker: coalesce → (steal when idle) → run → scatter,
/// with the autoscaler adjusting the pool between batches.
fn shard_worker(
    cfg: &ShardedConfig,
    me: usize,
    epoch: Instant,
    shared: &SharedShards,
    metrics: Option<Arc<ServiceMetrics>>,
) -> RankTrace {
    let class = &cfg.classes[me].pool;
    let mut pool = WarmPool::new(class);
    let cm = metrics.as_deref().map(|m| m.class(me).clone());
    if let Some(m) = &cm {
        pool.set_metrics(Arc::clone(m));
    }
    let coalescer = Coalescer::new(class);
    let mut scaler = cfg.autoscale.map(|a| Autoscaler::new(class, a));
    let mut sink = TraceSink::new(me, cfg.trace, epoch);
    let mut batch_no: u32 = 0;
    // When idle with stealing enabled, wake at this tick to rescan for
    // steal opportunities even without a submit notification.
    let idle_tick = cfg.steal_after.map(|d| d.max(Duration::from_micros(200)));

    loop {
        let taken: Taken = {
            let mut q = shared.q.lock().expect("shard queues lock");
            loop {
                // Autoscale from the live queue snapshot.
                if let Some(scaler) = scaler.as_mut() {
                    let t0 = Instant::now();
                    let verdict = scaler.assess_with_drift(
                        t0.duration_since(epoch),
                        q.shards[me].pending_keys,
                        pool.machines(),
                        cm.as_ref().map_or(1.0, |m| m.drift.ratio()),
                    );
                    match verdict {
                        ScaleVerdict::Grow => {
                            pool.grow();
                            q.shards[me].stats.scale_ups += 1;
                            if let Some(m) = &cm {
                                m.scale_ups.inc();
                            }
                            sink.span(TracePhase::Scale, t0, Instant::now());
                        }
                        ScaleVerdict::Shrink => {
                            if pool.shrink() {
                                q.shards[me].stats.scale_downs += 1;
                                if let Some(m) = &cm {
                                    m.scale_downs.inc();
                                }
                                sink.span(TracePhase::Scale, t0, Instant::now());
                            }
                        }
                        ScaleVerdict::Hold => {}
                    }
                }

                if q.shards[me].pending.is_empty() {
                    if q.closed {
                        break Taken::Done;
                    }
                    // Idle: look for a busy neighbor with an aged head.
                    if let Some(after) = cfg.steal_after {
                        let now = Instant::now();
                        let heads: Vec<StealHead> = q
                            .shards
                            .iter()
                            .enumerate()
                            .filter(|(v, _)| *v != me)
                            .filter_map(|(v, sq)| {
                                sq.pending.front().map(|p| {
                                    (v, now.duration_since(p.enqueued), p.key_count(), sq.busy)
                                })
                            })
                            .collect();
                        if let Some(victim) = pick_victim(&heads, after, class.max_batch_keys) {
                            let vq = &mut q.shards[victim];
                            let batch = take_prefix(
                                &mut vq.pending,
                                &mut vq.pending_keys,
                                class.max_batch_keys,
                            );
                            if let Some(m) = metrics.as_deref() {
                                m.class(victim).set_queue(vq.pending.len(), vq.pending_keys);
                            }
                            sink.span(TracePhase::Steal, now, Instant::now());
                            break Taken::Stolen(batch, victim);
                        }
                    }
                    q = match idle_tick {
                        Some(tick) => shared.cv.wait_timeout(q, tick).expect("lock").0,
                        None => shared.cv.wait(q).expect("shard queues lock"),
                    };
                    continue;
                }

                let now = Instant::now();
                let sq = &q.shards[me];
                let oldest_age = now.duration_since(sq.pending[0].enqueued);
                let tightest_slack = sq
                    .pending
                    .iter()
                    .map(|p| p.deadline.saturating_sub(now.duration_since(p.enqueued)))
                    .min()
                    .expect("queue is non-empty");
                match coalescer.decide(sq.pending_keys, oldest_age, tightest_slack, q.closed) {
                    Verdict::Flush => {
                        let sq = &mut q.shards[me];
                        let batch = take_prefix(
                            &mut sq.pending,
                            &mut sq.pending_keys,
                            class.max_batch_keys,
                        );
                        if let Some(m) = &cm {
                            m.verdict_flush.inc();
                            m.set_queue(sq.pending.len(), sq.pending_keys);
                        }
                        break Taken::Own(batch);
                    }
                    Verdict::Wait(d) => {
                        if let Some(m) = &cm {
                            m.verdict_wait.inc();
                        }
                        q = shared.cv.wait_timeout(q, d).expect("lock").0;
                    }
                }
            }
        };

        let (batch, stolen_from) = match taken {
            Taken::Done => {
                let mut q = shared.q.lock().expect("shard queues lock");
                q.shards[me].stats.pool = pool.stats();
                return sink.finish();
            }
            Taken::Own(b) => (b, None),
            Taken::Stolen(b, v) => (b, Some(v)),
        };

        {
            let mut q = shared.q.lock().expect("shard queues lock");
            q.shards[me].busy = true;
            // The victim keeps its submitted/admitted counts; the thief
            // takes the steal and completion credit.
            if stolen_from.is_some() {
                q.shards[me].stats.steals += 1;
                q.shards[me].stats.stolen_requests += batch.len() as u64;
                if let Some(m) = &cm {
                    m.steals.inc();
                    m.stolen_requests.add(batch.len() as u64);
                }
            }
        }
        batch_no += 1;
        let outcome = process_batch(
            &mut pool,
            class.procs,
            batch,
            &mut sink,
            batch_no,
            cm.as_deref(),
        );
        let mut q = shared.q.lock().expect("shard queues lock");
        let sq = &mut q.shards[me];
        sq.busy = false;
        sq.stats.batches += 1;
        sq.stats.batched_keys += outcome.batched_keys;
        sq.stats.largest_batch = sq.stats.largest_batch.max(outcome.requests);
        sq.stats.expired += outcome.expired;
        sq.stats.completed += outcome.completed;
        sq.stats.failed += outcome.failed;
        sq.stats.pool = pool.stats();
        drop(q);
        shared.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The deterministic engine: the same policy stack under virtual time.
// ---------------------------------------------------------------------------

/// One scheduling decision the [`ShardEngine`] made, in order. Replaying
/// the same submissions at the same virtual times yields the same log,
/// bit for bit — the work-stealing conformance tests diff two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A request was admitted and enqueued on `shard`.
    Routed {
        /// Request id (as returned by [`ShardEngine::submit`]).
        request: u64,
        /// The shard it routed to.
        shard: usize,
    },
    /// `shard` formed and ran a batch. `stolen_from` names the victim
    /// when the batch was claimed from a neighbor's queue.
    Flushed {
        /// The shard that ran the batch.
        shard: usize,
        /// Requests in the batch (before expiry).
        requests: u64,
        /// Useful keys in the batch.
        keys: u64,
        /// The victim shard, for stolen batches.
        stolen_from: Option<usize>,
    },
    /// The autoscaler resized `shard`'s pool.
    Scaled {
        /// The shard whose pool changed.
        shard: usize,
        /// `true` for a grow, `false` for a shrink.
        grew: bool,
        /// Machines after the change.
        machines: u64,
    },
    /// A request was answered with sorted keys by `shard`.
    Completed {
        /// The finished request.
        request: u64,
        /// The shard that ran it (the thief, for stolen batches).
        shard: usize,
    },
    /// A request out-waited its deadline before its batch formed.
    Expired {
        /// The expired request.
        request: u64,
    },
    /// A request was lost to a failed batch.
    Failed {
        /// The lost request.
        request: u64,
    },
    /// An over-band request was split: one splitter-selection round
    /// scattered it into per-shard sub-requests (which then appear as
    /// [`EngineEvent::Routed`] entries of their own).
    Split {
        /// The parent request.
        request: u64,
        /// Shard of each scattered partition, in partition order.
        parts: Vec<usize>,
        /// Keys sampled by splitter selection.
        samples: u64,
    },
    /// Every partition of a bulk request completed and the k-way merge
    /// produced the parent's reply.
    Merged {
        /// The parent request.
        request: u64,
        /// Keys in the merged reply.
        keys: u64,
    },
}

/// What one engine pending sorts: bare keys or a record request.
enum EngineWork {
    Plain(Vec<u32>),
    Record {
        keys: RecordKeys,
        payload: Vec<u8>,
        stride: usize,
    },
}

struct EnginePending {
    id: u64,
    work: EngineWork,
    dir: Direction,
    deadline: Duration,
    enqueued: Duration,
    /// `(parent id, partition index)` when this pending is one scattered
    /// partition of a bulk request.
    bulk: Option<(u64, usize)>,
}

impl EnginePending {
    fn key_count(&self) -> usize {
        match &self.work {
            EngineWork::Plain(keys) => keys.len(),
            EngineWork::Record { keys, .. } => keys.len(),
        }
    }

    fn lane(&self) -> Lane {
        match &self.work {
            EngineWork::Plain(_) => Lane::Plain,
            EngineWork::Record { keys, .. } => match keys {
                RecordKeys::U32(_) => Lane::Rec32,
                RecordKeys::U64(_) => Lane::Rec64,
                RecordKeys::U128(_) => Lane::Rec128,
            },
        }
    }
}

/// One in-flight bulk request inside the engine: completed partitions
/// accumulate here until the merge (or the first failure).
struct EngineBulk {
    dir: Direction,
    total: usize,
    parts: BTreeMap<usize, Vec<u32>>,
    failed: bool,
}

struct EngineShard {
    cfg: ServiceConfig,
    pool: WarmPool,
    coalescer: Coalescer,
    scaler: Option<Autoscaler>,
    queue: VecDeque<EnginePending>,
    queue_keys: usize,
    /// Per-machine busy-until times (virtual). A machine whose entry is
    /// `<= now` is free.
    busy: Vec<Duration>,
}

impl EngineShard {
    fn machine_free(&self, now: Duration) -> Option<usize> {
        self.busy
            .iter()
            .enumerate()
            .filter(|(_, b)| **b <= now)
            .min_by_key(|(_, b)| **b)
            .map(|(i, _)| i)
    }
}

/// The sharded policy stack run synchronously under a virtual clock.
///
/// The engine uses *real* pools (real machines, real sorted replies,
/// real plan caches) but replaces every wall-clock read with a caller-
/// advanced `now`, and models machine occupancy with the cost model:
/// running a batch marks a machine busy for
/// [`crate::BatchCost::predicted_run`] of virtual time. Because every
/// decision input is deterministic, so is the [`EngineEvent`] log.
///
/// Drive it with [`ShardEngine::submit`] / [`ShardEngine::advance`] /
/// [`ShardEngine::run_until_idle`], then inspect
/// [`ShardEngine::events`] and [`ShardEngine::reply`].
pub struct ShardEngine {
    now: Duration,
    router: Router,
    admissions: Vec<Admission>,
    steal_after: Option<Duration>,
    bulk_cfg: BulkConfig,
    bands: Vec<usize>,
    shards: Vec<EngineShard>,
    next_id: u64,
    events: Vec<EngineEvent>,
    replies: BTreeMap<u64, Result<Vec<u32>, SortError>>,
    record_replies: BTreeMap<u64, Result<RecordReply, SortError>>,
    bulk: BTreeMap<u64, EngineBulk>,
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine")
            .field("now", &self.now)
            .field("events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl ShardEngine {
    /// Build the engine for `cfg` at virtual time zero.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`ShardedConfig::validate`].
    #[must_use]
    pub fn new(cfg: &ShardedConfig) -> Self {
        cfg.validate();
        let router = Router::new(cfg);
        let admissions = cfg
            .classes
            .iter()
            .map(|c| Admission::new(&c.pool))
            .collect();
        let shards = cfg
            .classes
            .iter()
            .map(|c| {
                let pool = WarmPool::new(&c.pool);
                let busy = vec![Duration::ZERO; pool.machines()];
                EngineShard {
                    cfg: c.pool,
                    coalescer: Coalescer::new(&c.pool),
                    scaler: cfg.autoscale.map(|a| Autoscaler::new(&c.pool, a)),
                    pool,
                    queue: VecDeque::new(),
                    queue_keys: 0,
                    busy,
                }
            })
            .collect();
        ShardEngine {
            now: Duration::ZERO,
            bulk_cfg: cfg.bulk,
            bands: router.band_capacities(),
            router,
            admissions,
            steal_after: cfg.steal_after,
            shards,
            next_id: 0,
            events: Vec::new(),
            replies: BTreeMap::new(),
            record_replies: BTreeMap::new(),
            bulk: BTreeMap::new(),
        }
    }

    /// The virtual clock.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.now
    }

    /// Advance the virtual clock by `dt` without making any decisions.
    pub fn advance(&mut self, dt: Duration) {
        self.now += dt;
    }

    /// Machines currently in `shard`'s pool.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn machines(&self, shard: usize) -> usize {
        self.shards[shard].pool.machines()
    }

    /// Requests waiting on `shard`'s queue.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn queued(&self, shard: usize) -> usize {
        self.shards[shard].queue.len()
    }

    /// The decision log so far.
    #[must_use]
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// The reply recorded for request `id`, if its batch has run.
    #[must_use]
    pub fn reply(&self, id: u64) -> Option<&Result<Vec<u32>, SortError>> {
        self.replies.get(&id)
    }

    /// The record reply recorded for request `id`, if its batch has run.
    #[must_use]
    pub fn record_reply(&self, id: u64) -> Option<&Result<RecordReply, SortError>> {
        self.record_replies.get(&id)
    }

    /// Route and admit a record request at the current virtual time,
    /// returning its id. In-band only — the engine twin replays record
    /// batches, not record bulk scatters.
    ///
    /// # Errors
    /// The [`Rejection`] naming the limit the request hit.
    pub fn submit_record(&mut self, request: RecordRequest) -> Result<u64, Rejection> {
        assert_eq!(
            request.payload.len(),
            request.stride * request.keys.len(),
            "payload must hold exactly stride bytes per key"
        );
        let Some(shard) = self.router.route(request.keys.len()) else {
            return Err(self.router.too_large(request.keys.len()));
        };
        let deadline = request
            .deadline
            .unwrap_or(self.shards[shard].cfg.default_deadline);
        let sq = &mut self.shards[shard];
        self.admissions[shard].admit(
            sq.queue.len(),
            sq.queue_keys,
            request.keys.len(),
            deadline,
        )?;
        let id = self.next_id;
        self.next_id += 1;
        sq.queue_keys += request.keys.len();
        sq.queue.push_back(EnginePending {
            id,
            work: EngineWork::Record {
                keys: request.keys,
                payload: request.payload,
                stride: request.stride,
            },
            dir: request.dir,
            deadline,
            enqueued: self.now,
            bulk: None,
        });
        self.events.push(EngineEvent::Routed { request: id, shard });
        Ok(id)
    }

    /// Route and admit a request at the current virtual time, returning
    /// its id.
    ///
    /// # Errors
    /// The [`Rejection`] naming the limit the request hit.
    pub fn submit(&mut self, request: SortRequest) -> Result<u64, Rejection> {
        let Some(shard) = self.router.route(request.keys.len()) else {
            if self.bulk_cfg.enabled {
                return self.submit_bulk(request);
            }
            return Err(self.router.too_large(request.keys.len()));
        };
        let deadline = request
            .deadline
            .unwrap_or(self.shards[shard].cfg.default_deadline);
        let sq = &mut self.shards[shard];
        self.admissions[shard].admit(
            sq.queue.len(),
            sq.queue_keys,
            request.keys.len(),
            deadline,
        )?;
        let id = self.next_id;
        self.next_id += 1;
        sq.queue_keys += request.keys.len();
        sq.queue.push_back(EnginePending {
            id,
            work: EngineWork::Plain(request.keys),
            dir: request.dir,
            deadline,
            enqueued: self.now,
            bulk: None,
        });
        self.events.push(EngineEvent::Routed { request: id, shard });
        Ok(id)
    }

    /// The engine's bulk path: the identical pure split plan the
    /// threaded service computes, scattered at the current virtual time.
    /// A partition shed at admission fails the parent immediately (its
    /// reply is [`SortError::Bulk`]); the parent id is returned either
    /// way, mirroring the threaded ticket semantics.
    fn submit_bulk(&mut self, request: SortRequest) -> Result<u64, Rejection> {
        let plan = split::plan(&request.keys, &self.bands, &self.bulk_cfg);
        let parent_deadline = request.deadline.unwrap_or_else(|| {
            self.shards
                .last()
                .expect("at least one shard")
                .cfg
                .default_deadline
        });
        let sub_deadline = parent_deadline.saturating_sub(self.bulk_cfg.merge_budget);
        let parent = self.next_id;
        self.next_id += 1;
        self.events.push(EngineEvent::Split {
            request: parent,
            parts: plan.parts.iter().map(|p| p.shard).collect(),
            samples: plan.samples as u64,
        });
        // Two-phase scatter, as in the threaded service: check every
        // partition before enqueuing any.
        let mut extra_len = vec![0usize; self.shards.len()];
        let mut extra_keys = vec![0usize; self.shards.len()];
        let mut refused = None;
        for part in &plan.parts {
            let s = &self.shards[part.shard];
            if let Err(r) = self.admissions[part.shard].admit(
                s.queue.len() + extra_len[part.shard],
                s.queue_keys + extra_keys[part.shard],
                part.keys.len(),
                sub_deadline,
            ) {
                refused = Some(BulkFailure {
                    shard: part.shard,
                    reason: BulkReason::Shed(r),
                });
                break;
            }
            extra_len[part.shard] += 1;
            extra_keys[part.shard] += part.keys.len();
        }
        if let Some(failure) = refused {
            self.events.push(EngineEvent::Failed { request: parent });
            self.replies.insert(parent, Err(SortError::Bulk(failure)));
            return Ok(parent);
        }
        self.bulk.insert(
            parent,
            EngineBulk {
                dir: request.dir,
                total: plan.parts.len(),
                parts: BTreeMap::new(),
                failed: false,
            },
        );
        for (idx, part) in plan.parts.into_iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            let sq = &mut self.shards[part.shard];
            sq.queue_keys += part.keys.len();
            sq.queue.push_back(EnginePending {
                id,
                work: EngineWork::Plain(part.keys),
                dir: request.dir,
                deadline: sub_deadline,
                enqueued: self.now,
                bulk: Some((parent, idx)),
            });
            self.events.push(EngineEvent::Routed {
                request: id,
                shard: part.shard,
            });
        }
        Ok(parent)
    }

    /// Record one completed bulk partition; when the last one lands, run
    /// the k-way merge and answer the parent.
    fn bulk_part_done(&mut self, parent: u64, idx: usize, keys: Vec<u32>) {
        let Some(b) = self.bulk.get_mut(&parent) else {
            return;
        };
        if b.failed {
            return;
        }
        b.parts.insert(idx, keys);
        if b.parts.len() == b.total {
            let b = self.bulk.remove(&parent).expect("entry present");
            let parts: Vec<Vec<u32>> = b.parts.into_values().collect();
            let merged = split::merge_parts(&parts, b.dir);
            self.events.push(EngineEvent::Merged {
                request: parent,
                keys: merged.len() as u64,
            });
            self.replies.insert(parent, Ok(merged));
        }
    }

    /// Fail a bulk parent on its first sinking partition; later
    /// partitions of the same parent are discarded as they complete.
    fn bulk_part_failed(&mut self, parent: u64, shard: usize, reason: BulkReason) {
        let Some(b) = self.bulk.get_mut(&parent) else {
            return;
        };
        if b.failed {
            return;
        }
        b.failed = true;
        b.parts.clear();
        self.events.push(EngineEvent::Failed { request: parent });
        self.replies
            .insert(parent, Err(SortError::Bulk(BulkFailure { shard, reason })));
    }

    /// One decision pass at the current virtual time: autoscale every
    /// shard, flush every shard whose coalescer says so (while machines
    /// are free), then let idle shards steal from busy neighbors.
    /// Returns whether anything happened.
    pub fn tick(&mut self) -> bool {
        let mut progressed = false;
        for i in 0..self.shards.len() {
            progressed |= self.autoscale(i);
        }
        for i in 0..self.shards.len() {
            while self.try_flush(i) {
                progressed = true;
            }
        }
        if self.steal_after.is_some() {
            for thief in 0..self.shards.len() {
                while self.try_steal(thief) {
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Run ticks, advancing virtual time through waits, until every
    /// queue is empty and every machine is free.
    pub fn run_until_idle(&mut self) {
        loop {
            if self.tick() {
                continue;
            }
            let Some(next) = self.next_event_time() else {
                break;
            };
            debug_assert!(next > self.now, "virtual time must advance");
            self.now = next;
        }
    }

    /// The earliest future virtual time at which a new decision could
    /// fire: a machine freeing up, a coalescer wait expiring, or a
    /// queued head crossing the steal threshold. `None` when fully idle.
    fn next_event_time(&self) -> Option<Duration> {
        let mut next: Option<Duration> = None;
        let mut consider = |t: Duration| {
            if t > self.now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for s in &self.shards {
            for b in &s.busy {
                consider(*b);
            }
            if let Some(head) = s.queue.front() {
                // The coalescer's wait is bounded by max_wait from the
                // head's enqueue; flushing is certain by then.
                consider(head.enqueued + s.cfg.max_wait);
                if let Some(after) = self.steal_after {
                    consider(head.enqueued + after);
                }
            }
        }
        next
    }

    fn autoscale(&mut self, i: usize) -> bool {
        let now = self.now;
        let s = &mut self.shards[i];
        let Some(scaler) = s.scaler.as_mut() else {
            return false;
        };
        match scaler.assess(now, s.queue_keys, s.pool.machines()) {
            ScaleVerdict::Grow => {
                s.pool.grow();
                s.busy.push(now);
                self.events.push(EngineEvent::Scaled {
                    shard: i,
                    grew: true,
                    machines: s.pool.machines() as u64,
                });
                true
            }
            ScaleVerdict::Shrink => {
                if s.pool.shrink() {
                    // Retire the freest machine slot.
                    if let Some(idx) = s
                        .busy
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, b)| **b)
                        .map(|(idx, _)| idx)
                    {
                        s.busy.remove(idx);
                    }
                    self.events.push(EngineEvent::Scaled {
                        shard: i,
                        grew: false,
                        machines: s.pool.machines() as u64,
                    });
                    true
                } else {
                    false
                }
            }
            ScaleVerdict::Hold => false,
        }
    }

    fn try_flush(&mut self, i: usize) -> bool {
        let now = self.now;
        let s = &self.shards[i];
        if s.queue.is_empty() || s.machine_free(now).is_none() {
            return false;
        }
        let oldest_age = now.saturating_sub(s.queue[0].enqueued);
        let tightest_slack = s
            .queue
            .iter()
            .map(|p| p.deadline.saturating_sub(now.saturating_sub(p.enqueued)))
            .min()
            .expect("queue is non-empty");
        if s.coalescer
            .decide(s.queue_keys, oldest_age, tightest_slack, false)
            != Verdict::Flush
        {
            return false;
        }
        let max_batch_keys = self.shards[i].cfg.max_batch_keys;
        let batch = Self::take_engine_prefix(&mut self.shards[i], max_batch_keys);
        self.run_engine_batch(i, batch, None);
        true
    }

    fn try_steal(&mut self, thief: usize) -> bool {
        let Some(after) = self.steal_after else {
            return false;
        };
        let now = self.now;
        let t = &self.shards[thief];
        if !t.queue.is_empty() || t.machine_free(now).is_none() {
            return false;
        }
        let capacity = t.cfg.max_batch_keys;
        let heads: Vec<StealHead> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(v, _)| *v != thief)
            .filter_map(|(v, s)| {
                s.queue.front().map(|p| {
                    // A victim is "busy" when no machine of its own could
                    // pick the head up right now.
                    (
                        v,
                        now.saturating_sub(p.enqueued),
                        p.key_count(),
                        s.machine_free(now).is_none(),
                    )
                })
            })
            .collect();
        let Some(victim) = pick_victim(&heads, after, capacity) else {
            return false;
        };
        let batch = Self::take_engine_prefix(&mut self.shards[victim], capacity);
        self.run_engine_batch(thief, batch, Some(victim));
        true
    }

    /// [`crate::server::take_prefix`] over engine pendings — including
    /// its single-lane rule: the prefix stops at the first request in a
    /// different coalescing lane than the head.
    fn take_engine_prefix(s: &mut EngineShard, max_batch_keys: usize) -> Vec<EnginePending> {
        let mut batch = Vec::new();
        let mut keys = 0usize;
        let mut lane = None;
        while let Some(front) = s.queue.front() {
            let k = front.key_count();
            if !batch.is_empty() && keys + k > max_batch_keys {
                break;
            }
            if *lane.get_or_insert(front.lane()) != front.lane() {
                break;
            }
            keys += k;
            s.queue_keys -= k;
            batch.push(s.queue.pop_front().expect("front exists"));
        }
        batch
    }

    fn run_engine_batch(
        &mut self,
        runner: usize,
        batch: Vec<EnginePending>,
        stolen_from: Option<usize>,
    ) {
        let now = self.now;
        let origin = stolen_from.unwrap_or(runner);
        let requests = batch.len() as u64;
        let mut live: Vec<EnginePending> = Vec::with_capacity(batch.len());
        for p in batch {
            let waited = now.saturating_sub(p.enqueued);
            if waited > p.deadline {
                let err = SortError::Expired {
                    waited,
                    deadline: p.deadline,
                };
                match p.work {
                    EngineWork::Plain(_) => {
                        self.replies.insert(p.id, Err(err));
                    }
                    EngineWork::Record { .. } => {
                        self.record_replies.insert(p.id, Err(err));
                    }
                }
                self.events.push(EngineEvent::Expired { request: p.id });
                if let Some((parent, _)) = p.bulk {
                    self.bulk_part_failed(
                        parent,
                        origin,
                        BulkReason::Expired {
                            waited,
                            deadline: p.deadline,
                        },
                    );
                }
                continue;
            }
            live.push(p);
        }
        let keys = live.iter().map(EnginePending::key_count).sum::<usize>() as u64;
        self.events.push(EngineEvent::Flushed {
            shard: runner,
            requests,
            keys,
            stolen_from,
        });
        if live.is_empty() {
            return;
        }
        let s = &mut self.shards[runner];
        let slot = s
            .machine_free(now)
            .expect("caller checked a machine is free");
        s.busy[slot] = now + s.coalescer.cost().predicted_run(keys as usize);
        match live[0].lane() {
            Lane::Plain => self.run_engine_plain(runner, &live),
            Lane::Rec32 => self.run_engine_records::<u128>(
                runner,
                &live,
                |keys| match keys {
                    RecordKeys::U32(k) => k.iter().copied().map(u64::from).collect(),
                    _ => unreachable!("single-lane batch"),
                },
                |keys| RecordKeys::U32(keys.into_iter().map(|k| k as u32).collect()),
                WarmPool::run_record128_batch,
            ),
            Lane::Rec64 => self.run_engine_records::<u128>(
                runner,
                &live,
                |keys| match keys {
                    RecordKeys::U64(k) => k.clone(),
                    _ => unreachable!("single-lane batch"),
                },
                RecordKeys::U64,
                WarmPool::run_record128_batch,
            ),
            Lane::Rec128 => self.run_engine_records::<W192>(
                runner,
                &live,
                |keys| match keys {
                    RecordKeys::U128(k) => k.clone(),
                    _ => unreachable!("single-lane batch"),
                },
                RecordKeys::U128,
                WarmPool::run_record192_batch,
            ),
        }
    }

    /// The engine's plain batch body: [`TaggedBatch`] encode, run, split.
    fn run_engine_plain(&mut self, runner: usize, live: &[EnginePending]) {
        let mut tagged = TaggedBatch::new();
        for p in live {
            let EngineWork::Plain(keys) = &p.work else {
                unreachable!("single-lane batch");
            };
            tagged.push(keys, p.dir);
        }
        let s = &mut self.shards[runner];
        let (words, per_rank) = tagged.padded_words(s.cfg.procs);
        match s.pool.run_batch(words, per_rank) {
            Ok(sorted) => {
                for (p, reply) in live.iter().zip(tagged.split(&sorted)) {
                    self.replies.insert(p.id, Ok(reply.clone()));
                    self.events.push(EngineEvent::Completed {
                        request: p.id,
                        shard: runner,
                    });
                    if let Some((parent, idx)) = p.bulk {
                        self.bulk_part_done(parent, idx, reply);
                    }
                }
            }
            Err(failure) => {
                let msg = failure.to_string();
                for p in live {
                    self.replies
                        .insert(p.id, Err(SortError::MachineFailed(msg.clone())));
                    self.events.push(EngineEvent::Failed { request: p.id });
                    if let Some((parent, _)) = p.bulk {
                        self.bulk_part_failed(parent, runner, BulkReason::Failed(msg.clone()));
                    }
                }
            }
        }
    }

    /// The engine's record batch body, generic over the machine word —
    /// the deterministic twin of `server::run_record_batch`. Record
    /// pendings are never bulk partitions (the engine's record path is
    /// in-band only), so there is no bulk bookkeeping here.
    fn run_engine_records<W: RecordWord>(
        &mut self,
        runner: usize,
        live: &[EnginePending],
        widen: impl Fn(&RecordKeys) -> Vec<W::Key>,
        narrow: impl Fn(Vec<W::Key>) -> RecordKeys,
        run: impl FnOnce(&mut WarmPool, Vec<W>, usize) -> Result<Vec<W>, spmd::MachineFailure>,
    ) {
        let mut rec = RecordBatch::<W>::new();
        for p in live {
            let EngineWork::Record { keys, .. } = &p.work else {
                unreachable!("single-lane batch");
            };
            rec.push(&widen(keys), p.dir);
        }
        let s = &mut self.shards[runner];
        let (words, per_rank) = rec.padded_words(s.cfg.procs);
        match run(&mut s.pool, words, per_rank) {
            Ok(sorted) => {
                for (p, seg) in live.iter().zip(rec.split(&sorted)) {
                    let EngineWork::Record {
                        payload, stride, ..
                    } = &p.work
                    else {
                        unreachable!("single-lane batch");
                    };
                    self.record_replies.insert(
                        p.id,
                        Ok(RecordReply {
                            keys: narrow(seg.keys),
                            payload: gather_rows(payload, *stride, &seg.perm),
                            stride: *stride,
                        }),
                    );
                    self.events.push(EngineEvent::Completed {
                        request: p.id,
                        shard: runner,
                    });
                }
            }
            Err(failure) => {
                let msg = failure.to_string();
                for p in live {
                    self.record_replies
                        .insert(p.id, Err(SortError::MachineFailed(msg.clone())));
                    self.events.push(EngineEvent::Failed { request: p.id });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_victim_wants_the_oldest_busy_compatible_head() {
        let ms = Duration::from_millis;
        let heads = vec![
            (0, ms(5), 10, true),
            (1, ms(9), 10, false), // oldest but not busy
            (2, ms(7), 10, true),
            (3, ms(7), 999_999, true), // too big for the thief
        ];
        assert_eq!(pick_victim(&heads, ms(1), 100), Some(2));
        assert_eq!(pick_victim(&heads, ms(8), 100), None, "nobody aged enough");
        // Ties go to the lowest shard index.
        let tied = vec![(4, ms(7), 10, true), (1, ms(7), 10, true)];
        assert_eq!(pick_victim(&tied, ms(1), 100), Some(1));
        assert_eq!(pick_victim(&[], ms(1), 100), None);
    }
}
