//! The names this benchmark emits. `BENCHMARK.json` at the repository root
//! declares the same names (plus bounds and reasons); a test keeps the two
//! in step.

/// Which direction of an end-to-end metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the service or the sorter sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "throughput_mkeys_s",
        unit: "Mkeys/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
    },
];

/// Per-layer metrics of a traced run, `(name, unit)`, grouped by the
/// module they measure.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.req_decode_ns_per_byte", "ns/B"),
    ("net.reply_encode_ns_per_byte", "ns/B"),
    ("net.bytes_per_req", "B"),
    ("net.overhead_us_p50", "us"),
    ("server.queue_wait_us_p50", "us"),
    ("server.queue_wait_us_p99", "us"),
    ("server.encode_us_p50", "us"),
    ("server.run_us_p50", "us"),
    ("server.scatter_us_p50", "us"),
    ("coalescer.requests_per_batch", "count"),
    ("coalescer.keys_per_batch", "count"),
    ("coalescer.wait_frac", "fraction"),
    ("tagged.encode_ns_per_key", "ns/key"),
    ("tagged.split_ns_per_key", "ns/key"),
    ("tagged.record_encode_ns_per_key", "ns/key"),
    ("tagged.record_split_ns_per_key", "ns/key"),
    ("tagged.useful_frac", "fraction"),
    ("pool.plan_hit_frac", "fraction"),
    ("spmd.compute_ms", "ms"),
    ("spmd.pack_ms", "ms"),
    ("spmd.transfer_ms", "ms"),
    ("spmd.unpack_ms", "ms"),
    ("spmd.barrier_ms", "ms"),
    ("spmd.remaps", "count"),
    ("spmd.elements_sent", "count"),
    ("spmd.messages_sent", "count"),
    ("sorts.calls.radix", "count"),
    ("sorts.calls.bitonic_net", "count"),
    ("sorts.calls.circular_merge", "count"),
    ("sorts.calls.network_merge", "count"),
    ("sorts.local_sort_ns_per_key", "ns/key"),
    ("split.plan_ns_per_key", "ns/key"),
    ("split.merge_ns_per_key", "ns/key"),
    ("split.partitions_per_req", "count"),
    ("split.max_skew", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];
