//! `--trace 1`: per-layer numbers, measured from the benchmark's side.
//!
//! The workload runs twice with the same pool: once untraced and once
//! with the service's span recording on. The traced session gives the
//! live layers: the registry's queue-wait, batch and latency series and
//! the service's own Batch/Run/Scatter spans. Layers with a public pure
//! function are then timed by replaying this workload's own requests
//! through it: frame codec, tagged batch encode/split, bulk split/merge,
//! the local kernel, and the SPMD sort on the benchmark's own warm
//! machine. End-to-end metrics never come from here.
//!
//! `offline-sort` has no service on its path; its service-layer numbers
//! come from a short closed loop of its keys, cut into admission-limit
//! requests, through an in-process `SortService`.

use crate::drive::{
    self, boot_machine, machine_sort, Kind, Load, Sample, Session, SortRecord, Warm,
};
use crate::pools::{self, Case, Keys, Pool, Rng, Workload, OFFLINE_KEYS, PROCS};
use crate::spec::PER_LAYER;
use crate::stats::{counter_delta, median, percentile, HistDelta};
use crate::{Metric, Outcome};
use bitonic_core::tagged::{sorted_independently, RecordBatch, TaggedBatch};
use local_sorts::{Direction, RadixKey, W192};
use obs::TracePhase;
use sort_service::net::LEN_PREFIX;
use sort_service::{split, RecordKeys, ReplyFrame, RequestFrame, Router, ShardedConfig};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Each replay repeats whole passes for at least this long.
const MIN_REPLAY: Duration = Duration::from_millis(100);
/// Requests replayed through the codec and batch layers.
const REPLAY_CASES: usize = 128;
/// Requests replayed through the bulk splitter.
const SPLIT_CASES: usize = 64;
/// Wall time the SPMD replay may take (after at least 8 sorts).
const SPMD_BUDGET: Duration = Duration::from_secs(1);
/// Chrome trace pid of the benchmark's own client spans.
const CLIENT_PID: usize = 1000;
/// Most client spans written to a Chrome trace.
const CHROME_SPANS: usize = 20_000;

/// Local kernels by their `CommStats` / registry name, and their metric.
const KERNELS: [(&str, &str); 4] = [
    ("radix", "sorts.calls.radix"),
    ("bitonic_net", "sorts.calls.bitonic_net"),
    ("circular_merge", "sorts.calls.circular_merge"),
    ("network_merge", "sorts.calls.network_merge"),
];

pub fn trace_run(w: Workload, seed: u64, window: Duration, chrome: Option<&str>) -> Outcome {
    let pool = Arc::new(pools::pool(w, seed));
    let warm = Warm::of(w);
    let half = window / 2;
    let warm_min = half.min(Duration::from_secs(1));
    let untraced = drive::session(w.kind(), w.load(), &pool, &warm, false, warm_min, half);
    let traced = drive::session(w.kind(), w.load(), &pool, &warm, true, warm_min, half);
    let probe = (w == Workload::OfflineSort).then(|| {
        let keys = pool.cases[0].keys_u32();
        let cases = keys
            .chunks(pools::max_request_keys())
            .map(|c| Case::plain(c.to_vec(), Direction::Ascending))
            .collect();
        let probe_pool = Arc::new(Pool::new(cases, false));
        let probe_warm = Warm::of(Workload::InprocOpen);
        drive::session(
            Kind::Inproc,
            Load::Closed(drive::CLIENTS),
            &probe_pool,
            &probe_warm,
            true,
            warm_min,
            half,
        )
    });

    let mut errors = Vec::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let live = probe.as_ref().unwrap_or(&traced);
    values.extend(service_layers(live));

    let group = if w == Workload::OfflineSort {
        1
    } else {
        let batch = values
            .iter()
            .find(|(n, _)| *n == "coalescer.requests_per_batch");
        batch.map_or(1, |(_, v)| v.round().max(1.0) as usize)
    };
    values.extend(replay_net(&pool));
    values.extend(replay_tagged(&pool, group, &mut errors));
    values.extend(replay_split(&pool, &mut errors));
    values.push(("sorts.local_sort_ns_per_key", local_sort_ns_per_key(seed)));

    if w == Workload::OfflineSort {
        let sorts: Vec<SortRecord> = traced.window_sorts().cloned().collect();
        let (hits, misses) = sorts
            .iter()
            .fold((0, 0), |(h, m), r| (h + r.hits, m + r.misses));
        values.push(("pool.plan_hit_frac", ratio(hits, hits + misses)));
        for (kernel, metric) in KERNELS {
            values.push((metric, mean(&sorts, |r| r.kernel(kernel) as f64)));
        }
        values.extend(spmd_layers(&sorts));
    } else {
        let (a, b) = traced
            .registry
            .as_ref()
            .expect("a service session reads its registry");
        let hits = counter_delta(a, b, "bitonic_plan_cache_hits_total", None);
        let misses = counter_delta(a, b, "bitonic_plan_cache_misses_total", None);
        values.push(("pool.plan_hit_frac", ratio(hits, hits + misses)));
        let batches = counter_delta(a, b, "bitonic_batches_total", None);
        for (kernel, metric) in KERNELS {
            let calls = counter_delta(
                a,
                b,
                "bitonic_local_kernel_invocations_total",
                Some(("kernel", kernel)),
            );
            values.push((metric, calls as f64 / batches.max(1) as f64));
        }
        values.extend(spmd_layers(&replay_spmd(&pool, &mut errors)));
    }

    let late: Vec<f64> = sorted_ms(&traced, |s| s.late_ns);
    values.push(("gen.late_p99_ms", percentile(&late, 99.0)));
    values.push(("trace.overhead_frac", 1.0 - rps(&traced) / rps(&untraced)));

    if let Some(path) = chrome {
        if let Err(e) = write_chrome(path, &traced) {
            errors.push(format!("writing {path}: {e}"));
        }
    }

    let sessions: Vec<&Session> = [Some(&untraced), Some(&traced), probe.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    for s in &sessions {
        errors.extend(s.errors.iter().cloned());
        let (a, f) = s.tally(w.warms_every_shape());
        attempted += a;
        failed += f;
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .1;
            Metric {
                name,
                unit,
                value,
                samples: None,
            }
        })
        .collect();
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        detail: Vec::new(),
        errors,
    }
}

/// `part / whole`, or 1 when there was nothing to count (a window
/// without plan lookups missed none).
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        return 1.0;
    }
    part as f64 / whole as f64
}

fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// A per-window field of the session's samples, in ms, ascending.
fn sorted_ms(s: &Session, field: impl Fn(&Sample) -> u64) -> Vec<f64> {
    let mut v: Vec<f64> = s.in_window().map(|x| field(x) as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn rps(s: &Session) -> f64 {
    s.in_window().filter(|x| x.ok).count() as f64 / s.window_secs()
}

/// Registry series and service spans of the window.
fn service_layers(s: &Session) -> Vec<(&'static str, f64)> {
    let (a, b) = s
        .registry
        .as_ref()
        .expect("a service session reads its registry");
    let client_p50_us = percentile(&sorted_ms(s, |x| x.latency_ns), 50.0) * 1e3;
    let served = HistDelta::between(a, b, "bitonic_request_latency_us");
    let wait = HistDelta::between(a, b, "bitonic_queue_wait_us");
    let verdicts = counter_delta(a, b, "bitonic_coalescer_verdicts_total", None);
    let waits = counter_delta(
        a,
        b,
        "bitonic_coalescer_verdicts_total",
        Some(("verdict", "wait")),
    );
    let (start, end) = s.window;
    let span_p50_us = |phase: TracePhase| {
        let us: Vec<f64> = s
            .traces
            .iter()
            .flat_map(|t| t.spans())
            .filter(|sp| sp.phase == phase && sp.t0_ns >= start && sp.t1_ns <= end)
            .map(|sp| sp.duration_ns() as f64 / 1e3)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            median(&us)
        }
    };
    vec![
        ("net.overhead_us_p50", client_p50_us - served.quantile(0.5)),
        ("server.queue_wait_us_p50", wait.quantile(0.5)),
        ("server.queue_wait_us_p99", wait.quantile(0.99)),
        ("server.encode_us_p50", span_p50_us(TracePhase::Batch)),
        ("server.run_us_p50", span_p50_us(TracePhase::Run)),
        ("server.scatter_us_p50", span_p50_us(TracePhase::Scatter)),
        (
            "coalescer.requests_per_batch",
            HistDelta::between(a, b, "bitonic_batch_requests").mean(),
        ),
        (
            "coalescer.keys_per_batch",
            HistDelta::between(a, b, "bitonic_batch_keys").mean(),
        ),
        ("coalescer.wait_frac", ratio(waits, verdicts)),
    ]
}

/// Repeat `pass`, which returns the time spent inside the measured calls,
/// until `MIN_REPLAY` of wall time has gone by; mean ns per pass.
fn per_pass(mut pass: impl FnMut() -> Duration) -> f64 {
    let start = Instant::now();
    let (mut total, mut passes) = (Duration::ZERO, 0u32);
    while passes == 0 || start.elapsed() < MIN_REPLAY {
        total += pass();
        passes += 1;
    }
    total.as_nanos() as f64 / f64::from(passes)
}

fn timed(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn replay_cases(pool: &Pool, cap: usize) -> &[Case] {
    &pool.cases[..pool.cases.len().min(cap)]
}

/// `RequestFrame::decode` and `ReplyFrame::encode` on the workload's own
/// frames and oracle replies.
fn replay_net(pool: &Pool) -> [(&'static str, f64); 3] {
    let cases = replay_cases(pool, REPLAY_CASES);
    let frames: Vec<Vec<u8>> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            pool.frames
                .get(i)
                .cloned()
                .unwrap_or_else(|| c.frame().encode())
        })
        .collect();
    let request_bytes: usize = frames.iter().map(Vec::len).sum();
    let reply_bytes: usize = cases.iter().map(|c| c.expect.encode().len()).sum();
    let decode = per_pass(|| {
        timed(|| {
            for f in &frames {
                black_box(
                    RequestFrame::decode(&f[LEN_PREFIX..]).expect("an encoded frame decodes"),
                );
            }
        })
    });
    let encode = per_pass(|| {
        timed(|| {
            for c in cases {
                black_box(c.expect.encode());
            }
        })
    });
    [
        ("net.req_decode_ns_per_byte", decode / request_bytes as f64),
        ("net.reply_encode_ns_per_byte", encode / reply_bytes as f64),
        (
            "net.bytes_per_req",
            (request_bytes + reply_bytes) as f64 / cases.len() as f64,
        ),
    ]
}

/// `TaggedBatch` and `RecordBatch<W192>` push + pad and split, with the
/// requests regrouped `group` to a batch as the coalescer grouped them.
fn replay_tagged(pool: &Pool, group: usize, errors: &mut Vec<String>) -> [(&'static str, f64); 5] {
    let cases = replay_cases(pool, REPLAY_CASES);
    let keys32: Vec<Vec<u32>> = cases.iter().map(Case::keys_u32).collect();
    let keys128: Vec<Vec<u128>> = cases.iter().map(Case::keys_u128).collect();
    let total_keys = keys32.iter().map(Vec::len).sum::<usize>() as f64;
    let groups: Vec<Range<usize>> = (0..cases.len())
        .step_by(group)
        .map(|s| s..(s + group).min(cases.len()))
        .collect();

    let plain = |r: &Range<usize>| {
        let mut b = TaggedBatch::new();
        for i in r.clone() {
            b.push(&keys32[i], cases[i].dir);
        }
        let (words, _) = b.padded_words(PROCS);
        (b, words)
    };
    let record = |r: &Range<usize>| {
        let mut b = RecordBatch::<W192>::new();
        for i in r.clone() {
            b.push(&keys128[i], cases[i].dir);
        }
        let (words, _) = b.padded_words(PROCS);
        (b, words)
    };
    let plain_built: Vec<(TaggedBatch, Vec<u64>)> =
        groups.iter().map(plain).map(sort_words).collect();
    let record_built: Vec<(RecordBatch<W192>, Vec<W192>)> =
        groups.iter().map(record).map(sort_words).collect();
    for (r, ((pb, pw), (rb, rw))) in groups.iter().zip(plain_built.iter().zip(&record_built)) {
        let replies = pb.split(pw).into_iter().zip(rb.split(rw));
        for (i, (plain_reply, seg)) in r.clone().zip(replies) {
            let ok = match (&cases[i].keys, &cases[i].expect) {
                (Keys::Plain(_), expect) => ReplyFrame::Sorted(plain_reply) == *expect,
                (Keys::Record { .. }, ReplyFrame::Record { keys, .. }) => {
                    RecordKeys::U128(seg.keys) == *keys
                }
                _ => false,
            };
            if !ok {
                errors.push(format!(
                    "tagged batch split of request {i} differs from the oracle"
                ));
            }
        }
    }
    let padded = plain_built.iter().map(|(_, w)| w.len()).sum::<usize>() as f64;

    let encode = per_pass(|| timed(|| groups.iter().for_each(|r| drop(black_box(plain(r))))));
    let split = per_pass(|| {
        timed(|| {
            plain_built
                .iter()
                .for_each(|(b, w)| drop(black_box(b.split(w))))
        })
    });
    let rec_encode = per_pass(|| timed(|| groups.iter().for_each(|r| drop(black_box(record(r))))));
    let rec_split = per_pass(|| {
        timed(|| {
            record_built
                .iter()
                .for_each(|(b, w)| drop(black_box(b.split(w))))
        })
    });
    [
        ("tagged.encode_ns_per_key", encode / total_keys),
        ("tagged.split_ns_per_key", split / total_keys),
        ("tagged.record_encode_ns_per_key", rec_encode / total_keys),
        ("tagged.record_split_ns_per_key", rec_split / total_keys),
        ("tagged.useful_frac", total_keys / padded),
    ]
}

/// A batch with its padded words sorted, as the machine returns them.
fn sort_words<B, W: Ord>((batch, mut words): (B, Vec<W>)) -> (B, Vec<W>) {
    words.sort_unstable();
    (batch, words)
}

/// `split::plan` and `split::merge_parts` on the workload's requests,
/// with the bands and `BulkConfig` of `ShardedConfig::banded_bulk`.
fn replay_split(pool: &Pool, errors: &mut Vec<String>) -> [(&'static str, f64); 4] {
    let cfg = ShardedConfig::banded_bulk(PROCS, 2);
    let bands = Router::new(&cfg).band_capacities();
    let cases = replay_cases(pool, SPLIT_CASES);
    let keys32: Vec<Vec<u32>> = cases.iter().map(Case::keys_u32).collect();
    let total_keys = keys32.iter().map(Vec::len).sum::<usize>() as f64;
    let plans: Vec<split::SplitPlan> = keys32
        .iter()
        .map(|k| split::plan(k, &bands, &cfg.bulk))
        .collect();
    let parts: Vec<Vec<Vec<u32>>> = plans
        .iter()
        .zip(cases)
        .map(|(p, c)| {
            p.parts
                .iter()
                .map(|part| sorted_independently(&part.keys, c.dir))
                .collect()
        })
        .collect();
    for (i, (p, c)) in parts.iter().zip(cases).enumerate() {
        if split::merge_parts(p, c.dir) != sorted_independently(&keys32[i], c.dir) {
            errors.push(format!(
                "bulk split + merge of request {i} differs from the oracle"
            ));
        }
    }
    let plan = per_pass(|| {
        timed(|| {
            for k in &keys32 {
                black_box(split::plan(k, &bands, &cfg.bulk));
            }
        })
    });
    let merge = per_pass(|| {
        timed(|| {
            for (p, c) in parts.iter().zip(cases) {
                black_box(split::merge_parts(p, c.dir));
            }
        })
    });
    [
        ("split.plan_ns_per_key", plan / total_keys),
        ("split.merge_ns_per_key", merge / total_keys),
        (
            "split.partitions_per_req",
            mean(&plans, |p| p.parts.len() as f64),
        ),
        ("split.max_skew", mean(&plans, split::SplitPlan::max_skew)),
    ]
}

/// `local_sorts::local_sort` on one rank's block of `offline-sort`
/// (131,072 uniform keys): median of five sorts.
fn local_sort_ns_per_key(seed: u64) -> f64 {
    let block = Rng::new(seed).u32s(OFFLINE_KEYS / PROCS);
    let ns: Vec<f64> = (0..5)
        .map(|_| {
            let mut v = block.clone();
            let t = timed(|| local_sorts::local_sort(&mut v, Direction::Ascending));
            black_box(&v);
            t.as_nanos() as f64
        })
        .collect();
    median(&ns) / block.len() as f64
}

/// Each request sorted alone, as a one-request batch, on the benchmark's
/// own warm machine: u64 tagged words, or 192-bit record words for u128
/// keys.
fn replay_spmd(pool: &Pool, errors: &mut Vec<String>) -> Vec<SortRecord> {
    let cases = replay_cases(pool, REPLAY_CASES);
    if matches!(cases[0].keys, Keys::Record { .. }) {
        let batches = cases.iter().map(|c| {
            let mut b = RecordBatch::<W192>::new();
            b.push(&c.keys_u128(), c.dir);
            b.padded_words(PROCS)
        });
        replay_machine::<W192>(batches.collect(), errors)
    } else {
        let batches = cases.iter().map(|c| {
            let mut b = TaggedBatch::new();
            b.push(&c.keys_u32(), c.dir);
            b.padded_words(PROCS)
        });
        replay_machine::<u64>(batches.collect(), errors)
    }
}

fn replay_machine<K: RadixKey>(
    batches: Vec<(Vec<K>, usize)>,
    errors: &mut Vec<String>,
) -> Vec<SortRecord> {
    let mut machine = boot_machine::<K>(false);
    let batches: Vec<(Arc<Vec<K>>, usize)> =
        batches.into_iter().map(|(w, p)| (Arc::new(w), p)).collect();
    let mut shapes = BTreeSet::new();
    for (words, per_rank) in &batches {
        if shapes.insert(*per_rank) {
            let _ = machine_sort(&mut machine, words, *per_rank);
        }
    }
    let start = Instant::now();
    let mut records = Vec::new();
    for (words, per_rank) in &batches {
        if records.len() >= 8 && start.elapsed() > SPMD_BUDGET {
            break;
        }
        match machine_sort(&mut machine, words, *per_rank) {
            Ok(ranks) => {
                let out: Vec<K> = ranks
                    .iter()
                    .flat_map(|r| r.output.iter().copied())
                    .collect();
                let mut expect = words.to_vec();
                expect.sort_unstable();
                if out != expect {
                    errors.push("SPMD replay output differs from sort_unstable".to_string());
                }
                records.push(SortRecord::of(&ranks));
            }
            Err(e) => errors.push(e),
        }
    }
    records
}

/// Mean per sort of the critical-path phase times and R/V/M.
fn spmd_layers(records: &[SortRecord]) -> Vec<(&'static str, f64)> {
    let phase = |i: usize| mean(records, |r| r.phases_ms[i]);
    vec![
        ("spmd.compute_ms", phase(0)),
        ("spmd.pack_ms", phase(1)),
        ("spmd.transfer_ms", phase(2)),
        ("spmd.unpack_ms", phase(3)),
        ("spmd.barrier_ms", phase(4)),
        ("spmd.remaps", mean(records, |r| r.remaps as f64)),
        ("spmd.elements_sent", mean(records, |r| r.sent as f64)),
        ("spmd.messages_sent", mean(records, |r| r.messages as f64)),
    ]
}

/// The system's spans plus one span per client request of the window, as
/// Chrome trace JSON. Client spans are placed against the session start;
/// the system's own clock starts a few microseconds later.
fn write_chrome(path: &str, s: &Session) -> std::io::Result<()> {
    let mut json = obs::chrome_trace_json(&s.traces);
    let tail = "\n]}\n";
    json.truncate(json.len() - tail.len());
    let mut events = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{CLIENT_PID},\"tid\":0,\
         \"args\":{{\"name\":\"benchmark clients\"}}}}"
    )];
    let window: Vec<&Sample> = s.in_window().collect();
    for x in &window[window.len().saturating_sub(CHROME_SPANS)..] {
        events.push(format!(
            "{{\"name\":\"request\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":{CLIENT_PID},\
             \"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"keys\":{},\"ok\":{}}}}}",
            x.client,
            x.due_ns as f64 / 1e3,
            x.latency_ns as f64 / 1e3,
            x.keys,
            x.ok
        ));
    }
    for e in events {
        if !json.ends_with('[') {
            json.push(',');
        }
        json.push('\n');
        json.push_str(&e);
    }
    json.push_str(tail);
    std::fs::write(path, json)
}
