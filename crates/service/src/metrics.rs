//! Service-side metric handles: every counter, gauge, and histogram the
//! serving stack exports, registered once per service instance.
//!
//! Each [`crate::SortService`] / [`crate::ShardedService`] owns one
//! [`ServiceMetrics`] (when [`crate::ServiceConfig::metrics`] is on)
//! backed by its own `obs::metrics::Registry` — instances are isolated,
//! so parallel tests never cross-contaminate and registry totals
//! reconcile *exactly* against that instance's `ServiceStats`/`PoolStats`
//! (conformance-tested in `tests/metrics.rs`). Per-class handles live in
//! [`ClassMetrics`]; the sharded service registers one set per size
//! class, all labelled `class="<name>"` in the shared registry.
//!
//! Naming follows Prometheus conventions under a `bitonic_` prefix:
//! counters end in `_total`, histograms carry their unit (`_us`, keys),
//! labels are `class`, `reason` (admission), `verdict` (coalescer),
//! `direction` (autoscaler), `kernel` (local sorts), `path` (batches).
//! See DESIGN.md §10.

use crate::coalescer::BatchCost;
use crate::config::{ServiceConfig, ShardedConfig};
use crate::pool::BatchPath;
use obs::metrics::{Counter, DriftGauge, Gauge, Histogram, Registry, SloTracker, Snapshot};
use spmd::CommStats;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SLO window length; the tracker aggregates [`SLO_SLOTS`] of these.
const SLO_WINDOW: Duration = Duration::from_secs(1);
/// Rolling SLO horizon in windows.
const SLO_SLOTS: usize = 10;

/// Metric handles for one size class (the single-pool service is one
/// class named `"all"`). All fields are pre-registered `Arc` handles, so
/// request-path updates are single relaxed atomic ops.
pub struct ClassMetrics {
    class: String,
    registry: Arc<Registry>,
    started: Instant,
    cost: BatchCost,
    /// Requests offered to `submit`.
    pub(crate) submitted: Arc<Counter>,
    /// Requests past admission control.
    pub(crate) admitted: Arc<Counter>,
    /// Sheds by [`crate::Rejection::label`]: closed, too_large,
    /// queue_full, queue_overflow, deadline_unmeetable.
    shed: [Arc<Counter>; 5],
    /// Requests that expired in the queue.
    pub(crate) expired: Arc<Counter>,
    /// Requests lost to machine failures.
    pub(crate) failed: Arc<Counter>,
    /// Requests answered.
    pub(crate) completed: Arc<Counter>,
    /// Batches taken off the queue (including all-expired ones), by
    /// [`BatchPath`] label: `single`, then `machine`.
    batches: [Arc<Counter>; 2],
    /// Coalescer flush verdicts.
    pub(crate) verdict_flush: Arc<Counter>,
    /// Coalescer wait verdicts.
    pub(crate) verdict_wait: Arc<Counter>,
    /// Batches claimed from a neighbor's queue.
    pub(crate) steals: Arc<Counter>,
    /// Requests moved by those steals.
    pub(crate) stolen_requests: Arc<Counter>,
    /// Autoscaler grow events.
    pub(crate) scale_ups: Arc<Counter>,
    /// Autoscaler shrink events.
    pub(crate) scale_downs: Arc<Counter>,
    /// Plan-cache hits summed over ranks and batches.
    pub(crate) plan_hits: Arc<Counter>,
    /// Plan-cache misses summed over ranks and batches.
    pub(crate) plan_misses: Arc<Counter>,
    /// Lifetime plan-cache hit rate in `[0, 1]`, refreshed per batch.
    pub(crate) plan_hit_rate: Arc<Gauge>,
    /// Machines replaced after a failed batch.
    pub(crate) machines_rebuilt: Arc<Counter>,
    /// Injected fault events (drops/dups/reorders/jitter/stalls).
    pub(crate) faults_injected: Arc<Counter>,
    /// ARQ retransmissions in response to nacks.
    pub(crate) arq_retries: Arc<Counter>,
    /// Live queue depth (requests).
    pub(crate) queue_depth: Arc<Gauge>,
    /// Live queued keys.
    pub(crate) queue_keys: Arc<Gauge>,
    /// Warm machines in the pool right now.
    pub(crate) pool_machines: Arc<Gauge>,
    /// End-to-end request latency (enqueue → reply), microseconds.
    pub(crate) latency_us: Arc<Histogram>,
    /// Age of each request when its batch formed, microseconds.
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// Useful (unpadded) keys per batch.
    pub(crate) batch_keys: Arc<Histogram>,
    /// Requests per batch.
    pub(crate) batch_requests: Arc<Histogram>,
    /// Payload bytes carried per completed record request.
    pub(crate) record_payload_bytes: Arc<Histogram>,
    /// Rolling-window SLO state for this class.
    pub(crate) slo: SloTracker,
    /// EWMA of measured/LogP-predicted batch runtime.
    pub(crate) drift: DriftGauge,
}

impl ClassMetrics {
    fn new(registry: &Arc<Registry>, started: Instant, class: &str, cfg: &ServiceConfig) -> Self {
        let r = registry.as_ref();
        let l = &[("class", class)][..];
        let shed_reason = |reason| {
            r.counter(
                "bitonic_requests_shed_total",
                "Requests refused at admission, by reason",
                &[("class", class), ("reason", reason)],
            )
        };
        ClassMetrics {
            class: class.to_string(),
            registry: registry.clone(),
            started,
            cost: BatchCost::new(cfg.procs),
            submitted: r.counter(
                "bitonic_requests_submitted_total",
                "Requests offered to submit()",
                l,
            ),
            admitted: r.counter(
                "bitonic_requests_admitted_total",
                "Requests past admission control",
                l,
            ),
            shed: [
                shed_reason("closed"),
                shed_reason("too_large"),
                shed_reason("queue_full"),
                shed_reason("queue_overflow"),
                shed_reason("deadline_unmeetable"),
            ],
            expired: r.counter(
                "bitonic_requests_expired_total",
                "Requests that outlived their deadline in the queue",
                l,
            ),
            failed: r.counter(
                "bitonic_requests_failed_total",
                "Requests lost to machine failures",
                l,
            ),
            completed: r.counter(
                "bitonic_requests_completed_total",
                "Requests answered with sorted keys",
                l,
            ),
            batches: [BatchPath::Single, BatchPath::Machine].map(|path| {
                r.counter(
                    "bitonic_batches_total",
                    "Batches taken off the queue, by the path that sorted them",
                    &[("class", class), ("path", path.label())],
                )
            }),
            verdict_flush: r.counter(
                "bitonic_coalescer_verdicts_total",
                "Coalescer decisions, by verdict",
                &[("class", class), ("verdict", "flush")],
            ),
            verdict_wait: r.counter(
                "bitonic_coalescer_verdicts_total",
                "Coalescer decisions, by verdict",
                &[("class", class), ("verdict", "wait")],
            ),
            steals: r.counter(
                "bitonic_steals_total",
                "Batches stolen from a neighbor's queue",
                l,
            ),
            stolen_requests: r.counter(
                "bitonic_stolen_requests_total",
                "Requests moved by work stealing",
                l,
            ),
            scale_ups: r.counter(
                "bitonic_scale_events_total",
                "Autoscaler resize events, by direction",
                &[("class", class), ("direction", "up")],
            ),
            scale_downs: r.counter(
                "bitonic_scale_events_total",
                "Autoscaler resize events, by direction",
                &[("class", class), ("direction", "down")],
            ),
            plan_hits: r.counter(
                "bitonic_plan_cache_hits_total",
                "Remap-plan cache hits over all ranks and batches",
                l,
            ),
            plan_misses: r.counter(
                "bitonic_plan_cache_misses_total",
                "Remap-plan cache misses over all ranks and batches",
                l,
            ),
            plan_hit_rate: r.gauge(
                "bitonic_plan_cache_hit_rate",
                "Lifetime plan-cache hit rate in [0, 1]",
                l,
            ),
            machines_rebuilt: r.counter(
                "bitonic_machines_rebuilt_total",
                "Pool machines replaced after a failed batch",
                l,
            ),
            faults_injected: r.counter(
                "bitonic_faults_injected_total",
                "Injected fault events across pool ranks",
                l,
            ),
            arq_retries: r.counter(
                "bitonic_arq_retries_total",
                "ARQ retransmissions across pool ranks",
                l,
            ),
            queue_depth: r.gauge("bitonic_queue_depth", "Requests waiting in the queue", l),
            queue_keys: r.gauge("bitonic_queue_keys", "Keys waiting in the queue", l),
            pool_machines: r.gauge("bitonic_pool_machines", "Warm machines in the pool", l),
            latency_us: r.histogram(
                "bitonic_request_latency_us",
                "End-to-end request latency (enqueue to reply)",
                l,
            ),
            queue_wait_us: r.histogram(
                "bitonic_queue_wait_us",
                "Request age when its batch formed",
                l,
            ),
            batch_keys: r.histogram("bitonic_batch_keys", "Useful keys per batch", l),
            batch_requests: r.histogram("bitonic_batch_requests", "Requests per batch", l),
            record_payload_bytes: r.histogram(
                "bitonic_record_payload_bytes",
                "Payload bytes carried per completed record request",
                l,
            ),
            slo: SloTracker::new(SLO_WINDOW, SLO_SLOTS, cfg.default_deadline),
            drift: DriftGauge::default(),
        }
    }

    /// Elapsed time since the owning service started (the SLO clock).
    pub(crate) fn now(&self) -> Duration {
        self.started.elapsed()
    }

    /// Batch cost model used for the drift gauge's predictions.
    pub(crate) fn cost(&self) -> &BatchCost {
        &self.cost
    }

    /// Count one shed with the rejection's reason label and SLO impact.
    pub(crate) fn record_shed(&self, rejection: &crate::Rejection) {
        let idx = match rejection {
            crate::Rejection::Closed => 0,
            crate::Rejection::TooLarge { .. } => 1,
            crate::Rejection::QueueFull { .. } => 2,
            crate::Rejection::QueueOverflow { .. } => 3,
            crate::Rejection::DeadlineUnmeetable { .. } => 4,
        };
        self.shed[idx].inc();
        self.slo.record_shed(self.now());
    }

    /// Refresh the queue gauges from a queue snapshot.
    pub(crate) fn set_queue(&self, depth: usize, keys: usize) {
        self.queue_depth.set(depth as f64);
        self.queue_keys.set(keys as f64);
    }

    /// Fold one rank's per-batch [`CommStats`] into the registry: plan
    /// cache traffic, fault/ARQ counters, and local-kernel tallies.
    pub(crate) fn record_rank_stats(&self, stats: &CommStats) {
        self.plan_hits.add(stats.plan_hits);
        self.plan_misses.add(stats.plan_misses);
        let hits = self.plan_hits.get();
        let total = hits + self.plan_misses.get();
        if total > 0 {
            self.plan_hit_rate.set(hits as f64 / total as f64);
        }
        self.faults_injected.add(stats.faults.total_injected());
        self.arq_retries.add(stats.faults.retries);
        self.record_kernels(&stats.local_kernels);
    }

    /// Add `(kernel, count)` tallies to the local-kernel counters.
    pub(crate) fn record_kernels(&self, kernels: &[(&'static str, u64)]) {
        for &(name, count) in kernels {
            self.registry
                .counter(
                    "bitonic_local_kernel_invocations_total",
                    "Local-phase kernel invocations, by kernel",
                    &[("class", &self.class), ("kernel", name)],
                )
                .add(count);
        }
    }

    /// Count one batch taken off the queue under its path label.
    pub(crate) fn record_batch(&self, path: BatchPath) {
        let idx = match path {
            BatchPath::Single => 0,
            BatchPath::Machine => 1,
        };
        self.batches[idx].inc();
    }

    /// Count one completed record request: the per-width counter plus
    /// the payload-bytes histogram. Width is the key width in bytes.
    pub(crate) fn record_record_request(&self, width: u8, payload_bytes: u64) {
        let width = match width {
            4 => "4",
            8 => "8",
            _ => "16",
        };
        self.registry
            .counter(
                "bitonic_record_requests_total",
                "Record requests completed, by key width in bytes",
                &[("class", &self.class), ("width", width)],
            )
            .inc();
        self.record_payload_bytes.observe(payload_bytes);
    }

    /// Total sheds across all reasons (for brief reports).
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|c| c.get()).sum()
    }
}

/// The live metrics plane of one service instance: a private registry
/// plus per-class handles. Snapshots stamp the SLO and drift state into
/// gauges first, so every export path (Prometheus text, `METRICS_1`
/// JSON, `--metrics-every` briefs) sees the same derived values.
pub struct ServiceMetrics {
    registry: Arc<Registry>,
    started: Instant,
    /// Requests no class band admits (sharded router only).
    pub(crate) unroutable: Arc<Counter>,
    /// Over-band requests admitted through the bulk split path.
    pub(crate) bulk_submitted: Arc<Counter>,
    /// Bulk requests answered with a merged sorted reply.
    pub(crate) bulk_completed: Arc<Counter>,
    /// Bulk requests failed by a sub-request (shed/expired/failed).
    pub(crate) bulk_failed: Arc<Counter>,
    /// Per-shard sub-requests scattered by bulk splits.
    pub(crate) bulk_parts: Arc<Counter>,
    /// Keys sampled by splitter selection, summed over bulk requests.
    pub(crate) bulk_samples: Arc<Counter>,
    /// Partition skew (observed/fair-share keys) per partition, in
    /// permille — 1000 is a perfectly fair cut.
    pub(crate) bulk_skew_permille: Arc<Histogram>,
    /// k-way merge latency per completed bulk request, microseconds.
    pub(crate) bulk_merge_us: Arc<Histogram>,
    classes: Vec<Arc<ClassMetrics>>,
}

impl std::fmt::Debug for ServiceMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceMetrics")
            .field("classes", &self.classes.len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for ClassMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassMetrics")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

impl ServiceMetrics {
    fn build(class_cfgs: &[(&str, &ServiceConfig)]) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let started = Instant::now();
        let classes = class_cfgs
            .iter()
            .map(|(name, cfg)| Arc::new(ClassMetrics::new(&registry, started, name, cfg)))
            .collect();
        let unroutable = registry.counter(
            "bitonic_requests_unroutable_total",
            "Requests no size-class band admits",
            &[],
        );
        let bulk_submitted = registry.counter(
            "bitonic_bulk_requests_total",
            "Over-band requests admitted through the bulk split path",
            &[],
        );
        let bulk_completed = registry.counter(
            "bitonic_bulk_completed_total",
            "Bulk requests answered with a merged sorted reply",
            &[],
        );
        let bulk_failed = registry.counter(
            "bitonic_bulk_failed_total",
            "Bulk requests failed by a sub-request",
            &[],
        );
        let bulk_parts = registry.counter(
            "bitonic_bulk_partitions_total",
            "Per-shard sub-requests scattered by bulk splits",
            &[],
        );
        let bulk_samples = registry.counter(
            "bitonic_bulk_splitter_samples_total",
            "Keys sampled by splitter selection",
            &[],
        );
        let bulk_skew_permille = registry.histogram(
            "bitonic_bulk_partition_skew_permille",
            "Partition keys over fair share, per partition (1000 = fair)",
            &[],
        );
        let bulk_merge_us = registry.histogram(
            "bitonic_bulk_merge_us",
            "k-way merge latency per completed bulk request",
            &[],
        );
        Arc::new(ServiceMetrics {
            registry,
            started,
            unroutable,
            bulk_submitted,
            bulk_completed,
            bulk_failed,
            bulk_parts,
            bulk_samples,
            bulk_skew_permille,
            bulk_merge_us,
            classes,
        })
    }

    /// Metrics for a single-pool service: one class named `"all"`.
    #[must_use]
    pub fn for_single(cfg: &ServiceConfig) -> Arc<Self> {
        Self::build(&[("all", cfg)])
    }

    /// Metrics for a sharded service: one class per configured band.
    #[must_use]
    pub fn for_sharded(cfg: &ShardedConfig) -> Arc<Self> {
        let classes: Vec<(&str, &ServiceConfig)> = cfg
            .classes
            .iter()
            .map(|c| (c.name.as_str(), &c.pool))
            .collect();
        Self::build(&classes)
    }

    /// Handles for class `i` (class 0 on the single-pool service).
    #[must_use]
    pub fn class(&self, i: usize) -> &Arc<ClassMetrics> {
        &self.classes[i]
    }

    /// Number of registered classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    /// Elapsed time since the service started.
    #[must_use]
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Stamp SLO and drift state into gauges, then snapshot the whole
    /// registry.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let now = self.started.elapsed();
        for class in &self.classes {
            let l = &[("class", class.class.as_str())][..];
            let slo = class.slo.snapshot(now);
            let r = self.registry.as_ref();
            r.gauge("bitonic_slo_p50_us", "Rolling-window p50 latency", l)
                .set(slo.p50_us as f64);
            r.gauge("bitonic_slo_p95_us", "Rolling-window p95 latency", l)
                .set(slo.p95_us as f64);
            r.gauge("bitonic_slo_p99_us", "Rolling-window p99 latency", l)
                .set(slo.p99_us as f64);
            r.gauge(
                "bitonic_slo_shed_rate",
                "Rolling-window shed fraction of offered load",
                l,
            )
            .set(slo.shed_rate);
            r.gauge(
                "bitonic_slo_error_rate",
                "Rolling-window expired+failed fraction of offered load",
                l,
            )
            .set(slo.error_rate);
            r.gauge(
                "bitonic_slo_within_budget",
                "1 when rolling p99 is inside the deadline budget",
                l,
            )
            .set(f64::from(u8::from(slo.within_budget)));
            r.gauge(
                "bitonic_slo_budget_us",
                "Latency budget the SLO grades against",
                l,
            )
            .set(class.slo.budget().as_micros() as f64);
            r.gauge(
                "bitonic_logp_drift_ratio",
                "EWMA of measured over LogP-predicted batch runtime",
                l,
            )
            .set(class.drift.ratio());
        }
        self.registry.snapshot()
    }

    /// Render the current state in Prometheus text exposition format.
    #[must_use]
    pub fn prometheus(&self) -> String {
        obs::metrics::encode_prometheus(&self.snapshot())
    }

    /// Wire-frontend handles registered in this instance's registry, so
    /// one snapshot reconciles socket counters against request counters.
    pub(crate) fn wire_handles(&self) -> WireMetrics {
        WireMetrics::new(&self.registry)
    }

    /// One compact line per class — what `serve --metrics-every` prints.
    #[must_use]
    pub fn brief(&self) -> String {
        let now = self.started.elapsed();
        let mut out = String::new();
        for class in &self.classes {
            let slo = class.slo.snapshot(now);
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "[metrics] class={} queued={} machines={} done={} shed={} expired={} \
                 failed={} p50_us={} p99_us={} shed_rate={:.3} drift={:.3}",
                class.class,
                class.queue_depth.get() as u64,
                class.pool_machines.get() as u64,
                class.completed.get(),
                class.shed_total(),
                class.expired.get(),
                class.failed.get(),
                slo.p50_us,
                slo.p99_us,
                slo.shed_rate,
                class.drift.ratio(),
            ));
        }
        let unroutable = self.unroutable.get();
        if unroutable > 0 {
            out.push_str(&format!("\n[metrics] unroutable={unroutable}"));
        }
        let bulk = self.bulk_submitted.get();
        if bulk > 0 {
            out.push_str(&format!(
                "\n[metrics] bulk={} bulk_done={} bulk_failed={}",
                bulk,
                self.bulk_completed.get(),
                self.bulk_failed.get(),
            ));
        }
        out.push('\n');
        out
    }
}

/// Metric handles for the TCP wire frontend, registered in the owning
/// service's registry under `bitonic_wire_*` names. Labeled series
/// (replies by status, rejections/disconnects/frame errors by reason)
/// go through the registry's idempotent get-or-create path, so the hot
/// unlabeled counters stay single relaxed atomics while the per-reason
/// ones pay one registry lookup per event — events, not bytes.
pub struct WireMetrics {
    registry: Arc<Registry>,
    /// Open connections right now.
    pub(crate) connections: Arc<Gauge>,
    /// Connections accepted over the service's lifetime.
    pub(crate) connections_total: Arc<Counter>,
    /// Well-formed request frames accepted for submission.
    pub(crate) frames_total: Arc<Counter>,
    /// Bytes read off all sockets.
    pub(crate) bytes_read_total: Arc<Counter>,
    /// Bytes written to all sockets.
    pub(crate) bytes_written_total: Arc<Counter>,
}

impl std::fmt::Debug for WireMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireMetrics").finish_non_exhaustive()
    }
}

impl WireMetrics {
    fn new(registry: &Arc<Registry>) -> Self {
        let r = registry.as_ref();
        WireMetrics {
            registry: registry.clone(),
            connections: r.gauge("bitonic_wire_connections", "Open TCP connections", &[]),
            connections_total: r.counter(
                "bitonic_wire_connections_total",
                "TCP connections accepted",
                &[],
            ),
            frames_total: r.counter(
                "bitonic_wire_frames_total",
                "Well-formed request frames accepted for submission",
                &[],
            ),
            bytes_read_total: r.counter("bitonic_wire_bytes_read_total", "Bytes read", &[]),
            bytes_written_total: r.counter(
                "bitonic_wire_bytes_written_total",
                "Bytes written",
                &[],
            ),
        }
    }

    /// Count one reply by its status label; rejections additionally
    /// stamp `bitonic_wire_rejections_total{reason=...}`, the series the
    /// conformance suite reconciles against
    /// `bitonic_requests_shed_total{reason=...}`.
    pub(crate) fn record_reply(&self, label: &'static str, is_rejection: bool) {
        self.registry
            .counter(
                "bitonic_wire_replies_total",
                "Replies written, by status",
                &[("status", label)],
            )
            .inc();
        if is_rejection {
            self.registry
                .counter(
                    "bitonic_wire_rejections_total",
                    "Rejection replies, by admission reason",
                    &[("reason", label)],
                )
                .inc();
        }
    }

    /// Count one malformed frame by its [`crate::net::FrameError::label`].
    pub(crate) fn record_frame_error(&self, label: &'static str) {
        self.registry
            .counter(
                "bitonic_wire_frame_errors_total",
                "Malformed frames, by error class",
                &[("reason", label)],
            )
            .inc();
    }

    /// Count one connection close by its
    /// [`crate::net::Disconnect::label`].
    pub(crate) fn record_disconnect(&self, label: &'static str) {
        self.registry
            .counter(
                "bitonic_wire_disconnects_total",
                "Connection closes, by reason",
                &[("reason", label)],
            )
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_metrics_share_the_service_registry() {
        let cfg = ServiceConfig::new(2);
        let m = ServiceMetrics::for_single(&cfg);
        let w = m.wire_handles();
        w.connections_total.inc();
        w.frames_total.add(3);
        w.record_reply("ok", false);
        w.record_reply("queue_full", true);
        w.record_frame_error("bad_magic");
        w.record_disconnect("read_stall");
        let snap = m.snapshot();
        assert_eq!(snap.counter_total("bitonic_wire_connections_total"), 1);
        assert_eq!(snap.counter_total("bitonic_wire_frames_total"), 3);
        assert_eq!(
            snap.counter_labeled("bitonic_wire_replies_total", "status", "ok"),
            1
        );
        assert_eq!(
            snap.counter_labeled("bitonic_wire_rejections_total", "reason", "queue_full"),
            1
        );
        assert_eq!(
            snap.counter_labeled("bitonic_wire_frame_errors_total", "reason", "bad_magic"),
            1
        );
        assert_eq!(
            snap.counter_labeled("bitonic_wire_disconnects_total", "reason", "read_stall"),
            1
        );
    }

    #[test]
    fn single_service_metrics_register_and_snapshot() {
        let cfg = ServiceConfig::new(4);
        let m = ServiceMetrics::for_single(&cfg);
        let c = m.class(0);
        c.submitted.inc();
        c.record_shed(&crate::Rejection::Closed);
        c.latency_us.observe(120);
        c.slo.record_latency(c.now(), Duration::from_micros(120));
        let snap = m.snapshot();
        assert_eq!(
            snap.counter_labeled("bitonic_requests_submitted_total", "class", "all"),
            1
        );
        assert_eq!(
            snap.counter_labeled("bitonic_requests_shed_total", "reason", "closed"),
            1
        );
        assert_eq!(snap.histogram_count("bitonic_request_latency_us"), 1);
        assert!(snap
            .gauge_labeled("bitonic_slo_p99_us", "class", "all")
            .is_some());
        assert!(m.brief().contains("class=all"));
    }

    #[test]
    fn sharded_metrics_are_labelled_per_class() {
        let cfg = ShardedConfig::banded(4, 2);
        let m = ServiceMetrics::for_sharded(&cfg);
        assert_eq!(m.classes(), 2);
        m.class(0).submitted.inc();
        m.class(1).submitted.add(2);
        m.unroutable.inc();
        let snap = m.snapshot();
        assert_eq!(
            snap.counter_labeled("bitonic_requests_submitted_total", "class", "small"),
            1
        );
        assert_eq!(
            snap.counter_labeled("bitonic_requests_submitted_total", "class", "bulk"),
            2
        );
        assert_eq!(snap.counter_total("bitonic_requests_unroutable_total"), 1);
    }

    #[test]
    fn rank_stats_fold_kernels_and_faults() {
        let cfg = ServiceConfig::new(2);
        let m = ServiceMetrics::for_single(&cfg);
        let mut stats = CommStats::new();
        stats.plan_hits = 3;
        stats.plan_misses = 1;
        stats.faults.retries = 2;
        stats.faults.drops_injected = 5;
        stats.note_kernel("radix", 4);
        m.class(0).record_rank_stats(&stats);
        let snap = m.snapshot();
        assert_eq!(snap.counter_total("bitonic_plan_cache_hits_total"), 3);
        assert_eq!(snap.counter_total("bitonic_plan_cache_misses_total"), 1);
        let rate = snap
            .gauge_labeled("bitonic_plan_cache_hit_rate", "class", "all")
            .expect("hit-rate gauge registered");
        assert!((rate - 0.75).abs() < 1e-9, "rate {rate}");
        assert_eq!(snap.counter_total("bitonic_arq_retries_total"), 2);
        assert_eq!(snap.counter_total("bitonic_faults_injected_total"), 5);
        assert_eq!(
            snap.counter_labeled("bitonic_local_kernel_invocations_total", "kernel", "radix"),
            4
        );
    }
}
