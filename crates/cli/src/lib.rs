//! Library backing the `bitonic-sort` command-line tool.
//!
//! The binary is a thin wrapper over [`run`]; everything interesting —
//! argument parsing, sentinel padding for non-power-of-two inputs, the
//! dispatch over algorithms, the statistics report — lives here where it
//! can be unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baselines::{run_baseline_chaos, Baseline};
use bitonic_core::algorithms::{run_parallel_sort_chaos, Algorithm};
use bitonic_core::local::LocalStrategy;
use local_sorts::ForceKernel;
use spmd::runtime::critical_path_stats;
use spmd::{traces_of, CommStats, FaultConfig, MessageMode, RankFailure, RankTrace, TraceConfig};

/// Which sorting engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// A bitonic variant from `bitonic-core`.
    Bitonic(Algorithm),
    /// A comparison sort from `baselines`.
    Baseline(Baseline),
}

impl Engine {
    /// Parse a user-facing engine name.
    pub fn parse(name: &str) -> Result<Engine, String> {
        Ok(match name {
            "smart" => Engine::Bitonic(Algorithm::Smart),
            "smart-fused" => Engine::Bitonic(Algorithm::SmartFused),
            "cyclic-blocked" => Engine::Bitonic(Algorithm::CyclicBlocked),
            "blocked-merge" => Engine::Bitonic(Algorithm::BlockedMerge),
            "sample" => Engine::Baseline(Baseline::Sample),
            "radix" => Engine::Baseline(Baseline::Radix),
            "column" => Engine::Baseline(Baseline::Column),
            other => {
                return Err(format!(
                    "unknown algorithm '{other}' (try: smart, smart-fused, cyclic-blocked, \
                     blocked-merge, sample, radix, column)"
                ))
            }
        })
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Sorting engine (default: smart).
    pub engine: Engine,
    /// Virtual processors (default 8; any power of two).
    pub procs: usize,
    /// Short or long messages (default long).
    pub mode: MessageMode,
    /// Print communication statistics to stderr.
    pub stats: bool,
    /// Local-phase kernel policy: `auto` (calibrated dispatch, default),
    /// `radix`, or `bitonic`.
    pub local_kernel: ForceKernel,
    /// Input path (`-` or absent = stdin); binary little-endian u32 unless
    /// `text`.
    pub input: Option<String>,
    /// Output path (`-` or absent = stdout).
    pub output: Option<String>,
    /// Line-oriented decimal text instead of binary LE u32.
    pub text: bool,
    /// Generate this many random keys instead of reading input.
    pub random: Option<usize>,
    /// Record per-rank spans and write a Chrome trace JSON here (viewable
    /// in Perfetto / `chrome://tracing`).
    pub trace: Option<String>,
    /// Seed for deterministic fault injection; `Some` arms the chaos
    /// layer (combine with the rate/stall flags below).
    pub chaos_seed: Option<u64>,
    /// Per-message drop probability under chaos.
    pub drop_rate: f64,
    /// Per-message duplication probability under chaos.
    pub dup_rate: f64,
    /// Per-message reorder probability under chaos.
    pub reorder_rate: f64,
    /// Maximum injected per-message latency, microseconds.
    pub jitter_us: u64,
    /// Rank afflicted with a per-collective stall.
    pub stall_rank: Option<usize>,
    /// Stall length per collective, microseconds.
    pub stall_us: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            engine: Engine::Bitonic(Algorithm::Smart),
            procs: 8,
            mode: MessageMode::Long,
            stats: false,
            local_kernel: ForceKernel::Auto,
            input: None,
            output: None,
            text: false,
            random: None,
            trace: None,
            chaos_seed: None,
            drop_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            jitter_us: 0,
            stall_rank: None,
            stall_us: 0,
        }
    }
}

impl Options {
    /// The fault configuration these options describe.
    ///
    /// Without `--chaos-seed` this is [`FaultConfig::off`] regardless of
    /// the other chaos flags — the seed is the master switch. With it,
    /// unspecified rates default to the moderate [`FaultConfig::chaos`]
    /// preset values only when *no* class flag was given at all;
    /// otherwise exactly the requested classes are active.
    #[must_use]
    pub fn fault_config(&self) -> FaultConfig {
        let Some(seed) = self.chaos_seed else {
            return FaultConfig::off();
        };
        let any_class = self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.reorder_rate > 0.0
            || self.jitter_us > 0
            || self.stall_rank.is_some();
        if !any_class {
            return FaultConfig::chaos(seed);
        }
        FaultConfig {
            seed,
            drop_rate: self.drop_rate,
            dup_rate: self.dup_rate,
            reorder_rate: self.reorder_rate,
            jitter_us: self.jitter_us,
            stall_rank: self.stall_rank,
            stall_us: if self.stall_rank.is_some() && self.stall_us == 0 {
                // --stall-rank alone still means "stall that rank".
                200
            } else {
                self.stall_us
            },
            watchdog: Some(std::time::Duration::from_secs(30)),
            ..FaultConfig::off()
        }
    }
}

/// Parse CLI arguments (excluding `argv[0]`).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "-a" | "--algorithm" => opts.engine = Engine::parse(&value_for(arg)?)?,
            "-p" | "--procs" => {
                opts.procs = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --procs: {e}"))?;
                if !opts.procs.is_power_of_two() {
                    return Err("--procs must be a power of two".into());
                }
            }
            "--short-messages" => opts.mode = MessageMode::Short,
            "--stats" => opts.stats = true,
            "--local-kernel" => {
                opts.local_kernel = match value_for(arg)?.as_str() {
                    "auto" => ForceKernel::Auto,
                    "radix" => ForceKernel::Radix,
                    "bitonic" => ForceKernel::Bitonic,
                    other => {
                        return Err(format!(
                            "bad --local-kernel '{other}' (try: auto, radix, bitonic)"
                        ))
                    }
                }
            }
            "--text" => opts.text = true,
            "-i" | "--input" => opts.input = Some(value_for(arg)?),
            "-o" | "--output" => opts.output = Some(value_for(arg)?),
            "--random" => {
                opts.random = Some(
                    value_for(arg)?
                        .parse()
                        .map_err(|e| format!("bad --random: {e}"))?,
                )
            }
            "--trace" => opts.trace = Some(value_for(arg)?),
            "--chaos-seed" => {
                opts.chaos_seed = Some(
                    value_for(arg)?
                        .parse()
                        .map_err(|e| format!("bad --chaos-seed: {e}"))?,
                )
            }
            "--drop-rate" => {
                opts.drop_rate = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --drop-rate: {e}"))?;
                if !(0.0..1.0).contains(&opts.drop_rate) {
                    return Err("--drop-rate must be in [0, 1)".into());
                }
            }
            "--dup-rate" => {
                opts.dup_rate = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --dup-rate: {e}"))?;
                if !(0.0..1.0).contains(&opts.dup_rate) {
                    return Err("--dup-rate must be in [0, 1)".into());
                }
            }
            "--reorder-rate" => {
                opts.reorder_rate = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --reorder-rate: {e}"))?;
                if !(0.0..1.0).contains(&opts.reorder_rate) {
                    return Err("--reorder-rate must be in [0, 1)".into());
                }
            }
            "--jitter-us" => {
                opts.jitter_us = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --jitter-us: {e}"))?
            }
            "--stall-rank" => {
                opts.stall_rank = Some(
                    value_for(arg)?
                        .parse()
                        .map_err(|e| format!("bad --stall-rank: {e}"))?,
                )
            }
            "--stall-us" => {
                opts.stall_us = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --stall-us: {e}"))?
            }
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(opts)
}

/// The usage string.
#[must_use]
pub fn usage() -> String {
    "usage: bitonic-sort [-a ALGO] [-p PROCS] [--short-messages] [--stats] [--text]\n\
     \u{20}                   [-i FILE|-] [-o FILE|-] [--random N] [--trace FILE]\n\
     \u{20}                   [--local-kernel auto|radix|bitonic]\n\
     \u{20}                   [--chaos-seed N [--drop-rate P] [--dup-rate P] [--reorder-rate P]\n\
     \u{20}                    [--jitter-us U] [--stall-rank R] [--stall-us U]]\n\
     ALGO: smart | smart-fused | cyclic-blocked | blocked-merge | sample | radix | column\n\
     Input is binary little-endian u32 (or decimal lines with --text).\n\
     --local-kernel forces the local-phase kernel family (default auto: the\n\
     calibrated per-size-class dispatch table picks branch-free networks below the\n\
     crossover, radix above it for 32-bit keys and a comparison sort for wider words).\n\
     --trace writes a Chrome trace JSON (open in Perfetto / chrome://tracing).\n\
     --chaos-seed arms deterministic fault injection: the mesh drops/duplicates/\n\
     reorders/delays messages per the given rates (all derived from the seed; the\n\
     sort must still come out correct). Without class flags a moderate all-classes\n\
     preset is used.\n\
     `bitonic-sort serve` batches request lines through a warm sort service\n\
     (see `bitonic-sort serve --help`)."
        .to_string()
}

/// Pad `keys` with `u32::MAX` sentinels up to the next power-of-two
/// multiple of `procs`, returning the padded vector and the original
/// length. The sorted prefix of the original length is exactly the sorted
/// input (sentinels are maximal).
#[must_use]
pub fn pad_keys(mut keys: Vec<u32>, procs: usize) -> (Vec<u32>, usize) {
    let len = keys.len();
    let per = len.div_ceil(procs).next_power_of_two().max(2);
    keys.resize(per * procs, u32::MAX);
    (keys, len)
}

/// Sort `keys` with the chosen engine, returning the sorted keys and the
/// critical-path communication statistics.
///
/// # Panics
/// Panics if the chaos watchdog declares the machine wedged — use
/// [`sort_keys_traced`] to handle that as an error.
#[must_use]
pub fn sort_keys(keys: Vec<u32>, opts: &Options) -> (Vec<u32>, CommStats) {
    let (out, stats, _) =
        sort_keys_traced(keys, opts, TraceConfig::off()).expect("machine declared wedged");
    (out, stats)
}

/// [`sort_keys`] plus the per-rank span traces recorded under `trace`
/// (empty traces when it is [`TraceConfig::off`]). Runs under the fault
/// plan described by the options' chaos flags ([`Options::fault_config`];
/// off unless `--chaos-seed` was given).
///
/// # Errors
/// A [`RankFailure`] when the chaos watchdog declared the machine wedged.
pub fn sort_keys_traced(
    keys: Vec<u32>,
    opts: &Options,
    trace: TraceConfig,
) -> Result<(Vec<u32>, CommStats, Vec<RankTrace>), RankFailure> {
    local_sorts::dispatch::set_force(opts.local_kernel);
    let fault = opts.fault_config();
    let (padded, len) = pad_keys(keys, opts.procs);
    let (mut out, stats, traces) = match opts.engine {
        Engine::Bitonic(algo) => {
            let run = run_parallel_sort_chaos(
                &padded,
                opts.procs,
                opts.mode,
                algo,
                LocalStrategy::Merges,
                trace,
                fault,
            )?;
            (
                run.output,
                critical_path_stats(&run.ranks),
                traces_of(&run.ranks),
            )
        }
        Engine::Baseline(which) => {
            let run = run_baseline_chaos(&padded, opts.procs, opts.mode, which, trace, fault)?;
            (
                run.output,
                critical_path_stats(&run.ranks),
                traces_of(&run.ranks),
            )
        }
    };
    out.truncate(len);
    Ok((out, stats, traces))
}

/// Render the `--stats` report.
#[must_use]
pub fn stats_report(stats: &CommStats, keys: usize) -> String {
    use spmd::Phase;
    let mut s = String::new();
    s.push_str(&format!(
        "keys: {keys}\ncommunication steps (R): {}\nelements sent/proc (V): {}\nmessages sent/proc (M): {}\n",
        stats.remap_count(),
        stats.elements_sent,
        stats.messages_sent
    ));
    for (label, phase) in [
        ("compute", Phase::Compute),
        ("pack", Phase::Pack),
        ("transfer", Phase::Transfer),
        ("unpack", Phase::Unpack),
        ("barrier", Phase::Barrier),
    ] {
        s.push_str(&format!(
            "{label:>9}: {:.3} ms\n",
            stats.time(phase).as_secs_f64() * 1e3
        ));
    }
    if stats.plan_hits + stats.plan_misses > 0 {
        s.push_str(&format!(
            "plan cache: {} hits, {} misses ({:.1}% hit rate)\n",
            stats.plan_hits,
            stats.plan_misses,
            stats.plan_hits as f64 * 100.0 / (stats.plan_hits + stats.plan_misses) as f64
        ));
    }
    if !stats.local_kernels.is_empty() {
        let kernels: Vec<String> = stats
            .local_kernels
            .iter()
            .map(|(name, count)| format!("{count} {name}"))
            .collect();
        s.push_str(&format!("local kernels: {}\n", kernels.join(", ")));
    }
    let f = &stats.faults;
    if f.total_injected() > 0 || f.retries > 0 || f.nacks_sent > 0 || f.dups_suppressed > 0 {
        s.push_str(&format!(
            "faults injected: {} drops, {} dups, {} reorders, {} jittered, {} stalls\n\
             recovery: {} retries, {} nacks, {} duplicates suppressed\n",
            f.drops_injected,
            f.dups_injected,
            f.reorders_injected,
            f.jitter_events,
            f.stalls_injected,
            f.retries,
            f.nacks_sent,
            f.dups_suppressed,
        ));
    }
    s
}

/// Decode keys from bytes (binary LE u32 or decimal lines).
pub fn decode(bytes: &[u8], text: bool) -> Result<Vec<u32>, String> {
    if text {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                l.trim()
                    .parse::<u32>()
                    .map_err(|e| format!("bad key '{l}': {e}"))
            })
            .collect()
    } else {
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "binary input length {} is not a multiple of 4",
                bytes.len()
            ));
        }
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Encode keys to bytes (binary LE u32 or decimal lines).
#[must_use]
pub fn encode(keys: &[u32], text: bool) -> Vec<u8> {
    if text {
        let mut s = String::with_capacity(keys.len() * 8);
        for k in keys {
            s.push_str(&k.to_string());
            s.push('\n');
        }
        s.into_bytes()
    } else {
        keys.iter().flat_map(|k| k.to_le_bytes()).collect()
    }
}

/// What one end-to-end [`run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The encoded sorted keys.
    pub bytes: Vec<u8>,
    /// The `--stats` report, when requested.
    pub report: Option<String>,
    /// The Chrome trace JSON, when `--trace` was given.
    pub trace_json: Option<String>,
}

/// End-to-end pipeline used by `main`: produce the input keys, sort,
/// return the encoded output plus any requested reports.
pub fn run(opts: &Options, raw_input: Option<Vec<u8>>) -> Result<RunOutput, String> {
    let keys = match (opts.random, raw_input) {
        (Some(n), _) => {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xB170_41C5);
            (0..n).map(|_| rng.gen_range(0..1u32 << 31)).collect()
        }
        (None, Some(bytes)) => decode(&bytes, opts.text)?,
        (None, None) => return Err("no input: pass --input, pipe stdin, or use --random N".into()),
    };
    if keys.is_empty() {
        return Ok(RunOutput {
            bytes: Vec::new(),
            report: opts.stats.then(|| "keys: 0\n".to_string()),
            trace_json: None,
        });
    }
    let count = keys.len();
    let config = if opts.trace.is_some() {
        TraceConfig::on()
    } else {
        TraceConfig::off()
    };
    let (sorted, stats, traces) =
        sort_keys_traced(keys, opts, config).map_err(|f| format!("machine wedged: {f}"))?;
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let mut report = opts.stats.then(|| stats_report(&stats, count));
    if let (Some(r), true) = (report.as_mut(), opts.trace.is_some()) {
        // Ring-overflow accounting: spans silently displaced under the
        // drop-oldest policy would otherwise skew any timing read off the
        // trace. Zero is worth printing — it certifies the trace complete.
        let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
        r.push_str(&format!("trace events dropped: {dropped}\n"));
    }
    let trace_json = opts
        .trace
        .is_some()
        .then(|| obs::chrome_trace_json(&traces));
    Ok(RunOutput {
        bytes: encode(&sorted, opts.text),
        report,
        trace_json,
    })
}

/// Options for the `bitonic-sort serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Ranks per warm machine (default 4; any power of two).
    pub procs: usize,
    /// Size-class shards (default 1 = a single pool). With more than
    /// one, requests route by size through a [`sort_service::Router`]
    /// over [`sort_service::ShardedConfig::banded`] pools.
    pub shards: usize,
    /// Accept requests larger than every band via cross-shard bulk
    /// sorts (split/scatter/merge) instead of refusing them as too
    /// large. Implies the sharded front even at `--shards 1`.
    pub bulk: bool,
    /// Print the service statistics report to stderr.
    pub stats: bool,
    /// Print a live metrics snapshot to stderr every this many seconds
    /// (plus one final snapshot when the input drains).
    pub metrics_every: Option<u64>,
    /// Input path (`-` or absent = stdin), one request per line.
    pub input: Option<String>,
    /// Output path (`-` or absent = stdout), one sorted line per request.
    pub output: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            procs: 4,
            shards: 1,
            bulk: false,
            stats: false,
            metrics_every: None,
            input: None,
            output: None,
        }
    }
}

/// The `serve` usage string.
#[must_use]
pub fn serve_usage() -> String {
    "usage: bitonic-sort serve [-p PROCS] [--shards N] [--bulk] [--stats]\n\
     \u{20}                         [--metrics-every SECS] [-i FILE|-] [-o FILE|-]\n\
     Each input line is one sort request: an optional 'asc' or 'desc' token,\n\
     optional 'deadline=MICROS', 'width=1|2|4|8|16' (default 4) and\n\
     'payload=HEX' tokens, then decimal keys — the same grammar the TCP wire\n\
     frontend's text parser accepts. A width above 4 or a payload makes the\n\
     line a record request: the payload is carried opaquely (stride = bytes /\n\
     key count) and echoed back in key order as 'payload=HEX'. All requests are\n\
     submitted to one warm-pool sort service, which coalesces them into\n\
     tagged batches; each output line is the matching request's keys in its\n\
     requested order.\n\
     --shards N > 1 splits the service into N size-class shards, each with\n\
     its own warm pool; requests route by size and idle shards steal aged\n\
     work from busy neighbors.\n\
     --bulk accepts requests larger than every band: splitter-selection\n\
     sampling cuts the keys into per-shard sub-requests, each shard sorts\n\
     its partition in band, and a k-way merge reassembles the reply.\n\
     --metrics-every SECS prints a per-class snapshot of the live metrics\n\
     registry (queue depth, latency quantiles, shed rate, LogP drift) to\n\
     stderr every SECS seconds, plus once when the input drains."
        .to_string()
}

/// Parse `serve` subcommand arguments (excluding `argv[0]` and `serve`).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "-p" | "--procs" => {
                opts.procs = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --procs: {e}"))?;
                if !opts.procs.is_power_of_two() {
                    return Err("--procs must be a power of two".into());
                }
            }
            "--shards" => {
                opts.shards = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if opts.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--bulk" => opts.bulk = true,
            "--stats" => opts.stats = true,
            "--metrics-every" => {
                let secs: u64 = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad --metrics-every: {e}"))?;
                if secs == 0 {
                    return Err("--metrics-every must be at least 1 second".into());
                }
                opts.metrics_every = Some(secs);
            }
            "-i" | "--input" => opts.input = Some(value_for(arg)?),
            "-o" | "--output" => opts.output = Some(value_for(arg)?),
            "-h" | "--help" => return Err(serve_usage()),
            other => return Err(format!("unknown flag '{other}'\n{}", serve_usage())),
        }
    }
    Ok(opts)
}

/// Parse one request line: an optional `asc`/`desc` token, optional
/// `deadline=<µs>`, `width=<1|2|4|8|16>` and `payload=<hex>` tokens,
/// then keys. Delegates to the wire codec's text parser so the stdin
/// and TCP frontends share one validation path — every stdin request
/// round-trips through the exact `SORT_1` frame checks a socket peer's
/// request would face.
fn parse_request(line: &str) -> Result<sort_service::RequestFrame, String> {
    sort_service::net::parse_text_request(line)
}

/// Render bytes as lowercase hex (the `payload=` output token).
fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Render one record reply line: decimal keys in their sorted order,
/// then a `payload=<hex>` token when the request carried one.
fn record_reply_line(reply: &sort_service::RecordReply) -> String {
    use sort_service::RecordKeys;
    let keys: Vec<String> = match &reply.keys {
        RecordKeys::U32(k) => k.iter().map(u32::to_string).collect(),
        RecordKeys::U64(k) => k.iter().map(u64::to_string).collect(),
        RecordKeys::U128(k) => k.iter().map(u128::to_string).collect(),
    };
    let mut line = keys.join(" ");
    if reply.stride > 0 {
        line.push_str(" payload=");
        line.push_str(&to_hex(&reply.payload));
    }
    line
}

/// Render the `serve --stats` report.
#[must_use]
pub fn serve_stats_report(stats: &sort_service::ServiceStats) -> String {
    format!(
        "requests: {} submitted, {} admitted, {} shed, {} completed\n\
         batches: {} ({:.2} requests/batch, largest {} requests)\n\
         plan cache: {} hits, {} misses ({:.1}% hit rate)\n\
         failures: {} expired, {} failed, {} machines rebuilt\n",
        stats.submitted,
        stats.admitted,
        stats.shed,
        stats.completed,
        stats.batches,
        stats.requests_per_batch(),
        stats.largest_batch,
        stats.pool.plan_hits,
        stats.pool.plan_misses,
        stats.pool.plan_hit_rate() * 100.0,
        stats.expired,
        stats.failed,
        stats.pool.machines_rebuilt,
    )
}

/// Render the `serve --shards N --stats` report: one line per shard.
#[must_use]
pub fn sharded_stats_report(stats: &sort_service::ShardedStats) -> String {
    let mut out = format!(
        "shards: {}, {} requests completed, {} shed ({} unroutable), {} steals\n",
        stats.shards.len(),
        stats.completed(),
        stats.shed(),
        stats.unroutable,
        stats.steals(),
    );
    for s in &stats.shards {
        out.push_str(&format!(
            "  {}: {} submitted, {} completed, {} batches, {} stolen away, \
             {} machines ({} hits / {} misses, {:.1}% plan hit rate)\n",
            s.class,
            s.submitted,
            s.completed,
            s.batches,
            s.stolen_requests,
            s.pool.machines,
            s.pool.plan_hits,
            s.pool.plan_misses,
            s.pool.plan_hit_rate() * 100.0,
        ));
    }
    if stats.bulk_submitted > 0 {
        out.push_str(&format!(
            "bulk: {} submitted, {} completed, {} failed\n",
            stats.bulk_submitted, stats.bulk_completed, stats.bulk_failed,
        ));
    }
    out
}

/// End-to-end `serve` pipeline: parse request lines, run them through a
/// warm-pool sort service — sharded by size class when `--shards` asks
/// for more than one — and render one sorted line per request.
///
/// # Errors
/// A malformed request line, a shed request, or a failed batch.
pub fn run_serve(opts: &ServeOptions, raw_input: &[u8]) -> Result<RunOutput, String> {
    use sort_service::{
        RecordTicket, RequestFrame, ServiceConfig, ShardedConfig, ShardedService, SortService,
        Ticket,
    };
    let requests: Vec<RequestFrame> = String::from_utf8_lossy(raw_input)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_request)
        .collect::<Result<_, _>>()?;

    enum Front {
        Single(SortService),
        Sharded(ShardedService),
    }
    let front = if opts.shards > 1 || opts.bulk {
        let cfg = if opts.bulk {
            ShardedConfig::banded_bulk(opts.procs, opts.shards)
        } else {
            ShardedConfig::banded(opts.procs, opts.shards)
        };
        Front::Sharded(ShardedService::start(cfg))
    } else {
        Front::Single(SortService::start(ServiceConfig::new(opts.procs)))
    };
    let metrics = match &front {
        Front::Single(s) => s.metrics(),
        Front::Sharded(s) => s.metrics(),
    };
    // --metrics-every: a ticker thread printing live registry snapshots to
    // stderr. Parked rather than slept so shutdown doesn't wait out the
    // final period.
    let ticker = opts.metrics_every.zip(metrics.clone()).map(|(secs, m)| {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let period = std::time::Duration::from_secs(secs);
            loop {
                std::thread::park_timeout(period);
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                eprint!("{}", m.brief());
            }
        });
        (stop, handle)
    });
    enum AnyTicket {
        Plain(Ticket),
        Record(RecordTicket),
    }
    let tickets: Vec<AnyTicket> = requests
        .into_iter()
        .map(|frame| {
            if frame.is_record() {
                let request = frame
                    .into_record_request()
                    .map_err(|e| format!("invalid request: {e}"))?;
                match &front {
                    Front::Single(s) => s.submit_record(request),
                    Front::Sharded(s) => s.submit_record(request),
                }
                .map(AnyTicket::Record)
            } else {
                let request = frame
                    .into_request()
                    .map_err(|e| format!("invalid request: {e}"))?;
                match &front {
                    Front::Single(s) => s.submit(request),
                    Front::Sharded(s) => s.submit(request),
                }
                .map(AnyTicket::Plain)
            }
            .map_err(|r| format!("request shed: {r}"))
        })
        .collect::<Result<_, _>>()?;

    let mut out = String::new();
    for ticket in tickets {
        match ticket {
            AnyTicket::Plain(t) => {
                let sorted = t.wait().map_err(|e| format!("request failed: {e}"))?;
                let line: Vec<String> = sorted.iter().map(u32::to_string).collect();
                out.push_str(&line.join(" "));
            }
            AnyTicket::Record(t) => {
                let reply = t.wait().map_err(|e| format!("request failed: {e}"))?;
                out.push_str(&record_reply_line(&reply));
            }
        }
        out.push('\n');
    }
    if let Some((stop, handle)) = ticker {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handle.thread().unpark();
        let _ = handle.join();
    }
    let report = match front {
        Front::Single(s) => {
            let stats = s.shutdown().stats;
            opts.stats.then(|| serve_stats_report(&stats))
        }
        Front::Sharded(s) => {
            let stats = s.shutdown().stats;
            opts.stats.then(|| sharded_stats_report(&stats))
        }
    };
    // One final snapshot, after shutdown has joined the dispatcher, so
    // short runs (shorter than a period) still show their true totals.
    if opts.metrics_every.is_some() {
        if let Some(m) = &metrics {
            eprint!("{}", m.brief());
        }
    }
    Ok(RunOutput {
        bytes: out.into_bytes(),
        report,
        trace_json: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_typical_invocations() {
        let o = parse_args(&args("-a sample -p 4 --stats --text -i in.txt -o out.txt")).unwrap();
        assert_eq!(o.engine, Engine::Baseline(Baseline::Sample));
        assert_eq!(o.procs, 4);
        assert!(o.stats && o.text);
        assert_eq!(o.input.as_deref(), Some("in.txt"));
        let o = parse_args(&args("--random 1000")).unwrap();
        assert_eq!(o.random, Some(1000));
        assert_eq!(
            o.engine,
            Engine::Bitonic(Algorithm::Smart),
            "default engine"
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&args("--bogus")).is_err());
        assert!(parse_args(&args("-p 7")).is_err(), "non power of two");
        assert!(parse_args(&args("-a quicksort")).is_err());
        assert!(parse_args(&args("-i")).is_err(), "missing value");
    }

    #[test]
    fn padding_is_minimal_and_truncation_safe() {
        let (padded, len) = pad_keys(vec![5, 3, 1], 4);
        assert_eq!(len, 3);
        assert_eq!(padded.len(), 8, "ceil(3/4)=1 -> 2 per proc minimum");
        assert!(padded[3..].iter().all(|&k| k == u32::MAX));
        let (padded, _) = pad_keys((0..100).collect(), 8);
        assert_eq!(padded.len(), 16 * 8);
    }

    #[test]
    fn binary_and_text_round_trip() {
        let keys = vec![0u32, 1, 42, u32::MAX];
        assert_eq!(decode(&encode(&keys, false), false).unwrap(), keys);
        assert_eq!(decode(&encode(&keys, true), true).unwrap(), keys);
        assert!(decode(&[1, 2, 3], false).is_err(), "ragged binary");
        assert!(decode(b"12\nnope\n", true).is_err());
    }

    #[test]
    fn end_to_end_sorts_text() {
        let opts = parse_args(&args("--text -p 4 -a smart")).unwrap();
        let out = run(&opts, Some(b"9\n3\n7\n1\n1\n".to_vec())).unwrap();
        assert_eq!(String::from_utf8(out.bytes).unwrap(), "1\n1\n3\n7\n9\n");
        assert!(out.report.is_none());
        assert!(out.trace_json.is_none());
    }

    #[test]
    fn trace_flag_produces_chrome_json() {
        let opts = parse_args(&args("-p 4 --random 256 --trace t.json")).unwrap();
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
        let out = run(&opts, None).unwrap();
        let json = out.trace_json.expect("--trace requests a trace");
        assert!(json.contains("\"traceEvents\""));
        for rank in 0..4 {
            assert!(json.contains(&format!("\"name\":\"rank {rank}\"")));
        }
        for phase in ["compute", "pack", "transfer", "unpack", "barrier"] {
            assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{phase}");
        }
    }

    #[test]
    fn end_to_end_every_engine() {
        for engine in [
            "smart",
            "smart-fused",
            "cyclic-blocked",
            "blocked-merge",
            "sample",
            "radix",
            "column",
        ] {
            let opts =
                parse_args(&args(&format!("-a {engine} -p 4 --random 1000 --stats"))).unwrap();
            let out = run(&opts, None).unwrap();
            let keys = decode(&out.bytes, false).unwrap();
            assert_eq!(keys.len(), 1000, "{engine}");
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{engine}");
            assert!(
                out.report.unwrap().contains("communication steps"),
                "{engine}"
            );
        }
    }

    #[test]
    fn chaos_flags_parse_and_arm_the_fault_layer() {
        let o = parse_args(&args(
            "--chaos-seed 42 --drop-rate 0.05 --jitter-us 20 --stall-rank 2 --stall-us 100",
        ))
        .unwrap();
        let f = o.fault_config();
        assert_eq!(f.seed, 42);
        assert!((f.drop_rate - 0.05).abs() < 1e-12);
        assert_eq!(f.dup_rate, 0.0, "unrequested classes stay off");
        assert_eq!(f.jitter_us, 20);
        assert_eq!(f.stall_rank, Some(2));
        assert_eq!(f.stall_us, 100);
        assert!(f.enabled());

        // Seed alone: the moderate all-classes preset.
        let o = parse_args(&args("--chaos-seed 7")).unwrap();
        assert_eq!(o.fault_config(), spmd::FaultConfig::chaos(7));

        // No seed: chaos flags are inert.
        let o = parse_args(&args("--drop-rate 0.5")).unwrap();
        assert!(!o.fault_config().enabled());

        assert!(parse_args(&args("--drop-rate 1.0")).is_err(), "rate bound");
        assert!(parse_args(&args("--chaos-seed nope")).is_err());
    }

    #[test]
    fn chaos_run_still_sorts_and_reports_faults() {
        let opts = parse_args(&args(
            "-p 4 --random 512 --stats --chaos-seed 11 --drop-rate 0.1 --jitter-us 10",
        ))
        .unwrap();
        let out = run(&opts, None).unwrap();
        let keys = decode(&out.bytes, false).unwrap();
        assert_eq!(keys.len(), 512);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "sorted under chaos");
        let report = out.report.unwrap();
        assert!(
            report.contains("faults injected"),
            "fault counters surface in --stats:\n{report}"
        );
    }

    #[test]
    fn keys_containing_sentinel_values_survive() {
        let opts = parse_args(&args("-p 4")).unwrap();
        let keys = vec![u32::MAX, 0, u32::MAX, 5];
        let (sorted, _) = sort_keys(keys, &opts);
        assert_eq!(sorted, vec![0, 5, u32::MAX, u32::MAX]);
    }

    #[test]
    fn stats_report_shows_the_plan_cache_line() {
        let opts = parse_args(&args("-p 4 --random 512 --stats")).unwrap();
        let out = run(&opts, None).unwrap();
        let report = out.report.unwrap();
        assert!(
            report.contains("plan cache:"),
            "smart sorts route through the tracked plan cache:\n{report}"
        );
    }

    #[test]
    fn local_kernel_flag_parses_and_rejects() {
        assert_eq!(
            parse_args(&args("--local-kernel auto"))
                .unwrap()
                .local_kernel,
            ForceKernel::Auto
        );
        assert_eq!(
            parse_args(&args("--local-kernel radix"))
                .unwrap()
                .local_kernel,
            ForceKernel::Radix
        );
        assert_eq!(
            parse_args(&args("--local-kernel bitonic"))
                .unwrap()
                .local_kernel,
            ForceKernel::Bitonic
        );
        assert!(parse_args(&args("--local-kernel quick")).is_err());
        assert!(parse_args(&args("--local-kernel")).is_err());
    }

    #[test]
    fn stats_report_names_the_local_kernels() {
        let opts = parse_args(&args("-p 4 --random 512 --stats")).unwrap();
        let out = run(&opts, None).unwrap();
        let report = out.report.unwrap();
        assert!(
            report.contains("local kernels:"),
            "kernel tally surfaces in --stats:\n{report}"
        );
        // Forcing the seed family shows up by name in the report.
        let opts = parse_args(&args("-p 4 --random 512 --stats --local-kernel radix")).unwrap();
        let out = run(&opts, None).unwrap();
        let report = out.report.unwrap();
        assert!(report.contains("radix"), "{report}");
        local_sorts::dispatch::set_force(ForceKernel::Auto);
    }

    #[test]
    fn serve_args_parse_and_reject() {
        let o = parse_serve_args(&args("-p 2 --stats -i in.txt")).unwrap();
        assert_eq!(o.procs, 2);
        assert_eq!(o.shards, 1, "single pool unless asked");
        assert!(o.stats);
        assert_eq!(o.metrics_every, None);
        assert_eq!(o.input.as_deref(), Some("in.txt"));
        let o = parse_serve_args(&args("--shards 2 --metrics-every 5")).unwrap();
        assert_eq!(o.shards, 2);
        assert_eq!(o.metrics_every, Some(5));
        assert!(!o.bulk, "bulk is opt-in");
        let o = parse_serve_args(&args("--shards 2 --bulk")).unwrap();
        assert!(o.bulk);
        assert!(
            parse_serve_args(&args("--metrics-every 0")).is_err(),
            "zero period"
        );
        assert!(parse_serve_args(&args("--metrics-every nope")).is_err());
        assert!(parse_serve_args(&args("-p 3")).is_err(), "non power of two");
        assert!(
            parse_serve_args(&args("--shards 0")).is_err(),
            "zero shards"
        );
        assert!(parse_serve_args(&args("--bogus")).is_err());
        assert!(parse_serve_args(&args("--help")).is_err(), "usage via Err");
    }

    #[test]
    fn serve_round_trips_mixed_request_lines() {
        let opts = ServeOptions {
            procs: 2,
            stats: true,
            ..Default::default()
        };
        let input = b"9 3 7 1\ndesc 4 8 6\n\nasc 5\n2 2 2\n";
        let out = run_serve(&opts, input).unwrap();
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "1 3 7 9\n8 6 4\n5\n2 2 2\n"
        );
        let report = out.report.unwrap();
        assert!(report.contains("4 admitted"), "{report}");
        assert!(report.contains("plan cache:"), "{report}");
    }

    #[test]
    fn sharded_serve_answers_every_line_and_reports_per_shard() {
        let opts = ServeOptions {
            procs: 2,
            shards: 2,
            stats: true,
            ..Default::default()
        };
        let input = b"9 3 7 1\ndesc 4 8 6\nasc 5\n2 2 2\n";
        let out = run_serve(&opts, input).unwrap();
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "1 3 7 9\n8 6 4\n5\n2 2 2\n"
        );
        let report = out.report.unwrap();
        assert!(report.contains("shards: 2"), "{report}");
        assert!(report.contains("small:"), "{report}");
        assert!(report.contains("bulk:"), "{report}");
        assert!(report.contains("% plan hit rate"), "{report}");
    }

    #[test]
    fn bulk_serve_answers_an_over_band_request() {
        let opts = ServeOptions {
            procs: 2,
            shards: 2,
            bulk: true,
            stats: true,
            ..Default::default()
        };
        // One request beyond the widest band (16384 keys at the default
        // shape), plus a small one to show normal routing still works.
        let n = 20_000u32;
        let keys: Vec<String> = (0..n)
            .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(7).to_string())
            .collect();
        let input = format!("{}\n5 1 3\n", keys.join(" "));
        let out = run_serve(&opts, input.as_bytes()).unwrap();
        let text = String::from_utf8(out.bytes).unwrap();
        let mut lines = text.lines();
        let big: Vec<u32> = lines
            .next()
            .unwrap()
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        let mut expect: Vec<u32> = (0..n)
            .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(7))
            .collect();
        expect.sort_unstable();
        assert_eq!(big, expect, "bulk reply is oracle-identical");
        assert_eq!(lines.next().unwrap(), "1 3 5");
        let report = out.report.unwrap();
        assert!(
            report.contains("bulk: 1 submitted, 1 completed"),
            "{report}"
        );
    }

    #[test]
    fn serve_rejects_malformed_lines() {
        let opts = ServeOptions::default();
        assert!(run_serve(&opts, b"1 2 nope\n").is_err());
        // Direction tokens must lead the line — same rule as before the
        // parser was unified with the wire codec's.
        assert!(run_serve(&opts, b"1 asc 2\n").is_err());
        assert!(run_serve(&opts, b"deadline=abc 1 2\n").is_err());
    }

    /// Record lines — wide keys and/or payload tokens — ride the record
    /// path and come back with their payload permuted into key order.
    #[test]
    fn serve_answers_record_lines_with_payload_in_key_order() {
        let opts = ServeOptions {
            procs: 2,
            ..Default::default()
        };
        let input = b"width=8 payload=61626364 2 1\n\
                      desc width=16 340282366920938463463374607431768211455 7\n\
                      payload=aabb 9 3\n";
        let out = run_serve(&opts, input).unwrap();
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "1 2 payload=63646162\n\
             340282366920938463463374607431768211455 7\n\
             3 9 payload=bbaa\n"
        );
        assert!(run_serve(&opts, b"payload=abc 1 2\n").is_err(), "odd hex");
        assert!(
            run_serve(&opts, b"width=2 5 1\n").is_err(),
            "width 2 decodes but the service refuses it"
        );
    }

    /// The stdin frontend shares the wire codec's parser: the deadline
    /// token works, and ordinary lines sort exactly as they always have.
    #[test]
    fn serve_accepts_wire_grammar_deadlines() {
        let opts = ServeOptions {
            procs: 2,
            ..Default::default()
        };
        let input = b"desc deadline=10000000 4 8 6\ndeadline=10000000 3 1 2\n";
        let out = run_serve(&opts, input).unwrap();
        assert_eq!(String::from_utf8(out.bytes).unwrap(), "8 6 4\n1 2 3\n");
    }

    #[test]
    fn serve_with_metrics_ticker_still_answers_everything() {
        let opts = ServeOptions {
            procs: 2,
            metrics_every: Some(60),
            ..Default::default()
        };
        let out = run_serve(&opts, b"3 1 2\ndesc 5 9\n").unwrap();
        assert_eq!(String::from_utf8(out.bytes).unwrap(), "1 2 3\n9 5\n");
    }

    #[test]
    fn stats_with_trace_reports_ring_overflow() {
        let opts = parse_args(&args("-p 4 --random 256 --stats --trace t.json")).unwrap();
        let out = run(&opts, None).unwrap();
        let report = out.report.unwrap();
        assert!(
            report.contains("trace events dropped: 0"),
            "a healthy ring certifies the trace complete:\n{report}"
        );
        // Without --trace there is no ring to account for.
        let opts = parse_args(&args("-p 4 --random 256 --stats")).unwrap();
        let report = run(&opts, None).unwrap().report.unwrap();
        assert!(!report.contains("trace events dropped"));
    }

    proptest! {
        #[test]
        fn sorts_arbitrary_lengths(keys in proptest::collection::vec(any::<u32>(), 0..500)) {
            let opts = Options { procs: 4, ..Default::default() };
            let mut expect = keys.clone();
            expect.sort_unstable();
            if keys.is_empty() { return Ok(()); }
            let (sorted, _) = sort_keys(keys, &opts);
            prop_assert_eq!(sorted, expect);
        }
    }
}
