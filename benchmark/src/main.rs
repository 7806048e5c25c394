//! `benchmark` — the one benchmark every performance claim in this
//! repository is measured with. See `README.md` beside this file for the
//! workloads, the metrics and how to read a comparison.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--cold-starts K] [--chrome FILE]
//! benchmark run [--runs N] [--seed N] [--quick] [--out FILE]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! The first form measures one workload once and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `run` repeats that for every workload, each run in its own child
//! process, and writes a results file; `compare` judges two results files
//! against the bounds in `BENCHMARK.json`.

mod drive;
mod json;
mod layers;
mod pools;
mod spec;
mod stats;

use drive::{Load, Sample, Session, Warm};
use pools::Workload;
use spec::{Better, END_TO_END};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Duration;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the number, where it summarises several.
    pub samples: Option<usize>,
}

/// What one measurement of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra fields of the detail line, as rendered JSON values.
    pub detail: Vec<(&'static str, String)>,
    pub errors: Vec<String>,
}

impl Outcome {
    fn passed(&self) -> bool {
        self.correct && self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn result_json(&self) -> String {
        let metrics = json::object(self.metrics.iter().map(|m| {
            let v = json::object([
                ("value", json::num(m.value)),
                ("unit", json::string(m.unit)),
            ]);
            (m.name, v)
        }));
        json::object([
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", metrics),
        ])
    }

    fn detail_json(&self) -> String {
        let samples = json::object(
            self.metrics
                .iter()
                .filter_map(|m| m.samples.map(|n| (m.name, n.to_string()))),
        );
        let errors = format!(
            "[{}]",
            self.errors
                .iter()
                .take(5)
                .map(|e| json::string(e))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let fields = [("samples", samples), ("errors", errors)];
        json::object([(
            "detail",
            json::object(self.detail.iter().cloned().chain(fields)),
        )])
    }

    /// Human-readable lines on stderr, then the detail line and the result
    /// line on stdout.
    fn print(&self, label: &str) {
        eprintln!("== {label}");
        for m in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            eprintln!("  {:<32} {:>14.4} {}{n}", m.name, m.value, m.unit);
        }
        eprintln!(
            "  attempted {}  failed {}  correct {}",
            self.attempted, self.failed, self.correct
        );
        for e in self.errors.iter().take(5) {
            eprintln!("  error: {e}");
        }
        println!("{}", self.detail_json());
        println!("{}", self.result_json());
    }
}

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--cold-starts K] [--chrome FILE]
  benchmark run [--runs N] [--seed N] [--quick] [--out FILE]
  benchmark compare BASE.json NEW.json
workloads: wire-small wire-large records-wide wire-bulk inproc-open offline-sort";

/// Parsed `--flag value` pairs, `--switch`es and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parse `args`, refusing any `--flag` not in `flags` or `switches`.
    fn parse(args: &[String], flags: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                out.switches.push(a.clone());
            } else if let Some(name) = a.strip_prefix("--") {
                if !flags.contains(&name) {
                    return Err(format!("unknown flag --{name}"));
                }
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.flags.push((name.to_string(), v.clone()));
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}"))
        })
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("cold-start") => cold_start_child(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => single(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload, measured once.
fn single(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(
        args,
        &[
            "workload",
            "seed",
            "seconds",
            "trace",
            "cold-starts",
            "chrome",
        ],
        &[],
    )?;
    let w = a.workload()?;
    let seed: u64 = a.num("seed", 1)?;
    let seconds: f64 = a.num("seconds", WINDOW_S)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let window = Duration::from_secs_f64(seconds);
    let outcome = match a.get("trace").unwrap_or("0") {
        "0" => measure(w, seed, window, a.num("cold-starts", COLD_STARTS)?),
        "1" => layers::trace_run(w, seed, window, a.get("chrome")),
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    outcome.print(&format!("{} seed {seed}", w.name()));
    Ok(outcome.passed())
}

/// The hidden child of `measure`: one cold start in a fresh process.
fn cold_start_child(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &["workload", "seed"], &[])?;
    match drive::cold_start(a.workload()?, a.num("seed", 1)?) {
        Ok(s) => {
            println!("{}", json::num(s));
            Ok(true)
        }
        Err(e) => {
            eprintln!("cold start failed: {e}");
            Ok(false)
        }
    }
}

fn spawn_cold_start(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "cold-start",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(str::parse::<f64>) {
        Some(Ok(s)) if out.status.success() => Ok(s),
        _ => Err(format!(
            "cold start of {} failed: {}",
            w.name(),
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// The end-to-end measurement: `cold_starts` set-ups, each in a fresh
/// child process, then one session with the untraced window.
fn measure(w: Workload, seed: u64, window: Duration, cold_starts: usize) -> Outcome {
    let mut errors = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..cold_starts.max(1) {
        match spawn_cold_start(w, seed) {
            Ok(s) => setups.push(s),
            Err(e) => errors.push(e),
        }
    }
    let pool = Arc::new(pools::pool(w, seed));
    let warm_min = window.min(Duration::from_secs(1));
    let s = drive::session(
        w.kind(),
        w.load(),
        &pool,
        &Warm::of(w),
        false,
        warm_min,
        window,
    );
    end_to_end(w, &s, &setups, errors)
}

/// Measured window in seconds (`run_seconds` in `BENCHMARK.json`).
const WINDOW_S: f64 = 12.0;

/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 21;

/// `BENCHMARK.json` at the repository root: the bounds `compare` applies.
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Requests per slice of the window: enough to leave ten beyond the p99.
const SLICE_SAMPLES: usize = 1000;

fn end_to_end(w: Workload, s: &Session, setups: &[f64], mut errors: Vec<String>) -> Outcome {
    let (attempted, failed) = s.tally(w.warms_every_shape());
    let window: Vec<&Sample> = s.in_window().collect();
    // Rates and percentiles are medians over equal time slices of the
    // window, each at least a second long and holding at least
    // SLICE_SAMPLES requests: a short stall of the shared host moves one
    // slice, not the result.
    let count = (window.len() / SLICE_SAMPLES).clamp(1, (s.window_secs() as usize).max(1));
    let (start, end) = s.window;
    let slice_ns = (end - start) as f64 / count as f64;
    let mut slices: Vec<Vec<&Sample>> = vec![Vec::new(); count];
    for x in &window {
        let j = ((x.due_ns - start) as f64 / slice_ns) as usize;
        slices[j.min(count - 1)].push(x);
    }
    let over_slices = |f: &dyn Fn(&[&Sample]) -> f64| {
        stats::median(&slices.iter().map(|sl| f(sl)).collect::<Vec<_>>())
    };
    let latency_ms = |sl: &[&Sample]| {
        let mut v: Vec<f64> = sl.iter().map(|x| x.latency_ns as f64 / 1e6).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ok = window.iter().filter(|x| x.ok).count();
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" if setups.is_empty() => 0.0,
            "setup_s" => stats::median(setups),
            "throughput_rps" => {
                over_slices(&|sl| sl.iter().filter(|x| x.ok).count() as f64 / (slice_ns / 1e9))
            }
            "throughput_mkeys_s" => over_slices(&|sl| {
                let keys: u64 = sl.iter().filter(|x| x.ok).map(|x| u64::from(x.keys)).sum();
                keys as f64 / (slice_ns / 1e9) / 1e6
            }),
            "latency_p50_ms" => over_slices(&|sl| stats::percentile(&latency_ms(sl), 50.0)),
            "latency_p99_ms" => over_slices(&|sl| stats::percentile(&latency_ms(sl), 99.0)),
            "peak_rss_mb" => s.peak_rss_mb,
            _ => unreachable!("undeclared end-to-end metric {name}"),
        }
    };
    let samples = |name: &str| match name {
        "setup_s" => setups.len(),
        "throughput_rps" | "throughput_mkeys_s" => ok,
        "latency_p50_ms" | "latency_p99_ms" => window.len(),
        _ => 1,
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
            samples: Some(samples(m.name)),
        })
        .collect();
    let latency = latency_ms(&window);
    let mut late: Vec<f64> = window.iter().map(|x| x.late_ns as f64 / 1e6).collect();
    late.sort_by(f64::total_cmp);
    let late_p99 = stats::percentile(&late, 99.0);
    let mut detail = vec![
        ("workload", json::string(w.name())),
        ("window_s", json::num(s.window_secs())),
        ("slices", count.to_string()),
        ("beyond_p99", stats::beyond(&latency, 99.0).to_string()),
        ("plan_misses", s.plan_misses.to_string()),
        ("gen_late_p99_ms", json::num(late_p99)),
        (
            "kernel_table",
            json::string(&format!("{:?}", local_sorts::dispatch::current())),
        ),
    ];
    if let Load::Open(rate) = w.load() {
        // The generator must keep to its schedule for the latencies to mean
        // anything, and a reply rate below the offered one is a backlog.
        let valid = late_p99 <= 1.0;
        if !valid {
            eprintln!("warning: generator ran {late_p99:.3} ms late at p99 (> 1 ms): run invalid");
        }
        detail.push(("generator_valid", valid.to_string()));
        detail.push(("offered_rps", json::num(rate)));
        detail.push((
            "backlog",
            (value("throughput_rps") < 0.99 * rate).to_string(),
        ));
    }
    errors.extend(s.errors.iter().cloned());
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        detail,
        errors,
    }
}

/// Facts about the host and build, stamped into every results file.
fn host_json() -> String {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    json::object([
        ("nproc", nproc.to_string()),
        ("cpu", json::string(&cpu)),
        ("rustc", json::string(&first_line(&rustc, &["--version"]))),
        (
            "git_commit",
            json::string(&first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "os",
            json::string(&format!(
                "{} {}",
                std::env::consts::OS,
                std::env::consts::ARCH
            )),
        ),
    ])
}

/// Every workload, `--runs` times with seeds `--seed`, `--seed + 1`, …,
/// each run a child process of its own.
fn run_all(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &["runs", "seed", "out"], &["--quick"])?;
    let quick = a.has("--quick");
    let runs: u64 = a.num("runs", 1)?;
    let seed: u64 = a.num("seed", 1)?;
    let (seconds, cold_starts) = if quick {
        (1.0, 1)
    } else {
        (WINDOW_S, COLD_STARTS)
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut passed = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut results = Vec::new();
        for r in 0..runs {
            let run_seed = seed + r;
            eprintln!("-- {} seed {run_seed}", w.name());
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--cold-starts", &cold_starts.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let (Some(result), Some(detail)) = (lines.last(), lines.iter().rev().nth(1)) else {
                eprintln!("   no result from {} seed {run_seed}", w.name());
                passed = false;
                continue;
            };
            let parsed = json::parse(result)?;
            passed &=
                out.status.success() && parsed.get("correct") == Some(&json::Value::Bool(true));
            let detail = json::parse(detail)?
                .get("detail")
                .cloned()
                .unwrap_or(json::Value::Null);
            results.push((run_seed, parsed, detail, result.to_string()));
        }
        workloads.push((w, results));
    }
    let doc = results_json(
        &workloads,
        &[
            ("seconds", json::num(seconds)),
            ("runs", runs.to_string()),
            ("first_seed", seed.to_string()),
            ("cold_starts", cold_starts.to_string()),
            ("quick", quick.to_string()),
        ],
    );
    match a.get("out") {
        Some(path) => std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?,
        None => println!("{doc}"),
    }
    Ok(passed)
}

type RunResult = (u64, json::Value, json::Value, String);

/// A metric's value on a parsed result line.
fn metric_value(result: &json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The results file: host facts, settings, every run's result and detail
/// line, and per (workload, metric) the median, quartiles and spread.
fn results_json(workloads: &[(Workload, Vec<RunResult>)], settings: &[(&str, String)]) -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"host\": {},\n", host_json());
    out += &format!(
        "  \"settings\": {},\n",
        json::object(settings.iter().cloned())
    );
    out += "  \"workloads\": {\n";
    for (i, (w, results)) in workloads.iter().enumerate() {
        let runs: Vec<String> = results
            .iter()
            .map(|(seed, _, detail, line)| {
                let samples = detail.get("samples").map_or("{}".to_string(), render);
                format!("      {{\"seed\": {seed}, \"samples\": {samples}, \"result\": {line}}}")
            })
            .collect();
        let summary = json::object(END_TO_END.iter().filter_map(|m| {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|(_, r, _, _)| metric_value(r, m.name))
                .collect();
            if values.is_empty() {
                return None;
            }
            let (q1, med, q3) = stats::quartiles(&values);
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            Some((
                m.name,
                json::object([
                    ("unit", json::string(m.unit)),
                    ("median", json::num(med)),
                    ("q1", json::num(q1)),
                    ("q3", json::num(q3)),
                    ("spread", json::num(spread)),
                ]),
            ))
        }));
        out += &format!(
            "    {}: {{\n      \"summary\": {summary},\n      \"runs\": [\n{}\n      ]\n    }}{}\n",
            json::string(w.name()),
            runs.join(",\n"),
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    out += "  }\n}\n";
    out
}

/// Re-render a parsed value (for carrying a child's detail fields over).
fn render(v: &json::Value) -> String {
    match v {
        json::Value::Null => "null".into(),
        json::Value::Bool(b) => b.to_string(),
        json::Value::Num(n) => json::num(*n),
        json::Value::Str(s) => json::string(s),
        json::Value::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(", ")
        ),
        json::Value::Obj(fields) => {
            json::object(fields.iter().map(|(k, v)| (k.as_str(), render(v))))
        }
    }
}

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The run values of one metric of one workload in a results file.
fn file_values(doc: &json::Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"));
    runs.map_or(&[][..], json::Value::as_array)
        .iter()
        .filter_map(|r| metric_value(r.get("result")?, metric))
        .collect()
}

/// `compare BASE NEW`: one row per (workload, end-to-end metric).
fn compare(args: &[String]) -> Result<bool, String> {
    let a = Args::parse(args, &[], &[])?;
    let [base_path, new_path] = a.positional.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let spec = read_json(SPEC)?;
    let (base, new) = (read_json(base_path)?, read_json(new_path)?);
    let bounds = spec
        .get("end_to_end")
        .map_or(&[][..], json::Value::as_array);
    let bound_of = |name: &str| {
        bounds
            .iter()
            .find(|m| m.get("name").and_then(json::Value::as_str) == Some(name))
            .and_then(|m| m.get("bound")?.as_f64())
            .ok_or_else(|| format!("no bound for {name} in the spec"))
    };
    let mut regressed = false;
    println!(
        "{:<13} {:<19} {:>6} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "change",
        "bound"
    );
    for w in Workload::ALL {
        for m in &END_TO_END {
            let bound = bound_of(m.name)?;
            let (bv, nv) = (
                file_values(&base, w.name(), m.name),
                file_values(&new, w.name(), m.name),
            );
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let verdict = judge(&bv, &nv, bound, m.better);
            regressed |= verdict.label == "regressed";
            let quart = |v: &[f64]| {
                let (q1, med, q3) = stats::quartiles(v);
                format!("{med:.4} [{q1:.4}, {q3:.4}]")
            };
            println!(
                "{:<13} {:<19} {:>6} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {}",
                w.name(),
                m.name,
                m.better.label(),
                quart(&bv),
                quart(&nv),
                verdict.worse * 100.0,
                bound * 100.0,
                verdict.label
            );
        }
    }
    // A run with a failed request or a wrong reply fails the comparison
    // whatever its numbers: failures are not a metric of their own.
    let failing = failing_runs(&new);
    for run in &failing {
        println!("{run}: failed requests or a wrong reply");
    }
    Ok(!regressed && failing.is_empty())
}

/// The runs of a results file, as `workload seed N`, whose result line has
/// `failed` other than 0 or `correct` other than `true`.
fn failing_runs(doc: &json::Value) -> Vec<String> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        let runs = doc
            .get("workloads")
            .and_then(|d| d.get(w.name()))
            .and_then(|d| d.get("runs"));
        for run in runs.map_or(&[][..], json::Value::as_array) {
            let result = run.get("result");
            let failed = result.and_then(|r| r.get("failed")?.as_f64());
            let correct = result.and_then(|r| r.get("correct"));
            if failed != Some(0.0) || correct != Some(&json::Value::Bool(true)) {
                let seed = run.get("seed").map_or("?".to_string(), render);
                out.push(format!("{} seed {seed}", w.name()));
            }
        }
    }
    out
}

struct Verdict {
    /// How much worse the new median is, as a share of the base median
    /// (negative when better).
    worse: f64,
    label: &'static str,
}

/// `regressed` when the new median is worse by more than `bound` and the
/// runs resolve it; `unresolved` when either side's spread (interquartile
/// range over median) is wider than `bound` and the runs do not separate;
/// `ok` otherwise.
fn judge(base: &[f64], new: &[f64], bound: f64, better: Better) -> Verdict {
    let (bq1, bmed, bq3) = stats::quartiles(base);
    let (nq1, nmed, nq3) = stats::quartiles(new);
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse = if bmed == 0.0 {
        0.0
    } else {
        sign * (nmed - bmed) / bmed
    };
    let spread = |q1: f64, med: f64, q3: f64| if med == 0.0 { 0.0 } else { (q3 - q1) / med };
    let wide = spread(bq1, bmed, bq3).max(spread(nq1, nmed, nq3)) > bound;
    let key = |v: f64| sign * v;
    let all_worse = new.iter().all(|&n| base.iter().all(|&b| key(n) > key(b)));
    let all_better = new.iter().all(|&n| base.iter().all(|&b| key(n) < key(b)));
    let label = if worse > bound && (!wide || all_worse) {
        "regressed"
    } else if wide && !all_better {
        "unresolved"
    } else {
        "ok"
    };
    Verdict { worse, label }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spec() -> json::Value {
        read_json(SPEC).expect("BENCHMARK.json at the repository root")
    }

    fn names(v: &json::Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .map_or(&[][..], json::Value::as_array)
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(json::Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let spec = spec();
        let workloads: Vec<String> = names(&spec, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(&spec, "end_to_end"), e2e);
        for (m, declared) in END_TO_END
            .iter()
            .zip(spec.get("end_to_end").unwrap().as_array())
        {
            assert_eq!(
                declared.get("better").and_then(json::Value::as_str),
                Some(m.better.label())
            );
        }

        let layers: Vec<(String, String)> = spec::PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&spec, "per_layer"), layers);
    }

    #[test]
    fn compare_fails_a_results_file_with_a_failed_run() {
        let doc = |result: &str| {
            json::parse(&format!(
                r#"{{"workloads": {{"wire-small": {{"runs": [{{"seed": 4, "result": {result}}}]}}}}}}"#
            ))
            .unwrap()
        };
        let clean = r#"{"correct": true, "attempted": 9, "failed": 0, "metrics": {}}"#;
        assert!(failing_runs(&doc(clean)).is_empty());
        let failed = r#"{"correct": true, "attempted": 9, "failed": 1, "metrics": {}}"#;
        assert_eq!(failing_runs(&doc(failed)), ["wire-small seed 4"]);
        let wrong = r#"{"correct": false, "attempted": 9, "failed": 0, "metrics": {}}"#;
        assert_eq!(failing_runs(&doc(wrong)), ["wire-small seed 4"]);
    }

    #[test]
    fn judge_labels_rows() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(
                &base,
                &[100.2, 99.8, 100.1, 100.0, 99.9],
                0.1,
                Better::Lower
            )
            .label,
            "ok"
        );
        assert_eq!(
            judge(
                &base,
                &[130.0, 131.0, 129.0, 130.5, 129.5],
                0.1,
                Better::Lower
            )
            .label,
            "regressed"
        );
        assert_eq!(
            judge(
                &base,
                &[130.0, 131.0, 129.0, 130.5, 129.5],
                0.1,
                Better::Higher
            )
            .label,
            "ok"
        );
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &[105.0, 104.0, 106.0], 0.1, Better::Lower).label,
            "unresolved"
        );
    }

    /// The `--quick` settings on every workload in one process: 1 s windows,
    /// one cold start each, every reply checked against its oracle. Run
    /// with `--release`; a debug build sorts too slowly for the windows.
    #[test]
    fn quick_run_of_every_workload_passes_its_oracles() {
        let started = Instant::now();
        for w in Workload::ALL {
            let setup = drive::cold_start(w, 3).expect("cold start answers its warm-up");
            let pool = Arc::new(pools::pool(w, 3));
            let window = Duration::from_secs(1);
            let s = drive::session(
                w.kind(),
                w.load(),
                &pool,
                &Warm::of(w),
                false,
                window,
                window,
            );
            let o = end_to_end(w, &s, &[setup], Vec::new());
            assert!(o.correct, "{}: {:?}", w.name(), o.errors);
            assert!(o.attempted > 0, "{} made no requests", w.name());
            assert_eq!(o.failed, 0, "{} failed requests or missed plans", w.name());
            assert!(
                o.metrics.iter().all(|m| m.value > 0.0),
                "{}: a zero metric",
                w.name()
            );
        }
        eprintln!("quick run took {:.1} s", started.elapsed().as_secs_f64());
    }
}
