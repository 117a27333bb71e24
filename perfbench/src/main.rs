//! The repository benchmark: end-to-end serving metrics with
//! tracing off (`--trace 0`), and a per-layer replay with spans
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shader-drag --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Report lines come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. `--describe`
//! prints the metric descriptors instead.

mod check;
mod layers;
mod metrics;
mod rng;
mod serve;
mod stats;
mod trace;
mod workload;

use layers::{Replay, LANES};
use serve::{closed_loop, references, setup, start_daemon};
use stats::{mean, median, percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use workload::{serve_workload, ServeWorkload};

/// Set-up trials per run, half before the measured window and half after
/// it, so that they sample the host at two moments; `setup_s` is their
/// median.
const SETUP_TRIALS: usize = 32;
/// Untimed warm-up before a serving run's measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Stream positions replayed per layer in a serving workload's traced run.
const REPLAY_REQUESTS: u64 = 16_384;
/// Staging replays (parse, typecheck, specialize, compile) per serving
/// workload's traced run.
const STAGING_REPEATS: u64 = 10;
/// Spans written to the trace file, at most (summaries cover all of them).
const SPAN_FILE_LIMIT: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--describe") {
        return Ok(None);
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        opts.insert(key, value);
    }
    let get = |k: &str| opts.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {}",
            workload::NAMES.join(", ")
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace expects 0 or 1, got `{t}`")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Metric values of one run, in insertion order.
#[derive(Default)]
struct Results {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

impl Results {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn pct(xs: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(xs, p).map_err(|e| format!("{what}: {e}"))
}

fn serve_e2e(w: &ServeWorkload, seconds: f64) -> Result<Results, String> {
    let (mut setup_times, artifact) = setup(w, SETUP_TRIALS / 2);
    let refs = references(&artifact, &w.requests);
    let (daemon, rx) = start_daemon(&artifact, w.store_capacity, w.wal);
    let measure = Duration::from_secs_f64(seconds);
    let (run, report) = closed_loop(w, daemon, rx, WARMUP, measure, None);
    setup_times.extend(setup(w, SETUP_TRIALS / 2).0);
    let failed = run.answers.failures(&refs);
    let mut tally = layers::DaemonTally::default();
    tally.add(&run, &report);
    let mut r = Results {
        attempted: run.attempted,
        failed,
        ..Results::default()
    };
    let latency: Vec<f64> = run.latency_samples().map(|(l, _)| l).collect();
    let frames = run.frame_ns();
    r.put("setup_s", median(&setup_times));
    r.put("ops_per_s", run.ops_per_s()?);
    r.put("latency_p50_us", run.latency_p50()? / 1e3);
    r.put("latency_p99_us", pct(&latency, 99.0, "latency")? / 1e3);
    r.put("frame_p50_ms", run.frame_p50()? / 1e6);
    r.put("frame_p90_ms", pct(&frames, 90.0, "frames")? / 1e6);
    r.put("cost_per_op", run.window_cost as f64 / run.measured as f64);
    r.put("peak_rss_mib", peak_rss_mib()?);
    r.put("specialized_share", tally.specialized_share());
    r.put("failed_share", failed as f64 / run.attempted as f64);
    println!(
        "{}: {} requests, {} in the {:.1} s window, {} frames measured",
        w.name,
        run.attempted,
        run.slice_done.iter().sum::<u64>(),
        run.slice_done.len() as f64 * run.slice_secs,
        frames.len()
    );
    Ok(r)
}

fn serve_traced(w: &ServeWorkload, seconds: f64) -> Result<(Replay, f64), String> {
    let (_, artifact) = setup(w, 1);
    let refs = references(&artifact, &w.requests);
    let measure = Duration::from_secs_f64(seconds / 3.0);
    let (daemon, rx) = start_daemon(&artifact, w.store_capacity, w.wal);
    let (base, _) = closed_loop(w, daemon, rx, WARMUP, measure, None);
    let mut replay = Replay::default();
    let (daemon, rx) = start_daemon(&artifact, w.store_capacity, w.wal);
    let (traced, report) = closed_loop(w, daemon, rx, WARMUP, measure, Some(&mut replay.tracer));
    replay.daemon.add(&traced, &report);
    for run in [&base, &traced] {
        replay.attempted += run.attempted;
        replay.failed += run.answers.failures(&refs);
    }
    let mut staged = None;
    for m in 0..STAGING_REPEATS {
        let program = replay
            .parse(&w.source, m)
            .ok_or("workload source fails to parse")?;
        staged = replay.specialize(&program, w.entry, &w.partition(), m);
    }
    let (spec, compiled) = staged.ok_or("workload partition fails to specialize")?;
    let artifact = Arc::new(ds_runtime::StagedArtifact::new(&spec, &w.partition()));
    let reqs: Vec<&[ds_interp::Value]> = (0..REPLAY_REQUESTS).map(|s| w.args(s)).collect();
    let rrefs: Vec<u64> = (0..REPLAY_REQUESTS)
        .map(|s| refs[w.request_of(s)])
        .collect();
    replay.requests(&artifact, &compiled, &reqs, &rrefs, w.store_capacity, 0);
    Ok((
        replay,
        1.0 - traced.mean_ops_per_s() / base.mean_ops_per_s(),
    ))
}

fn layer_results(replay: &Replay, overhead: f64) -> Result<Results, String> {
    let nanos = replay.tracer.nanos_by_name();
    let own = replay.tracer.self_by_name();
    let med = |name: &str| -> Result<f64, String> {
        nanos
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .ok_or_else(|| format!("no `{name}` spans recorded"))
    };
    let d = &replay.daemon;
    let mut r = Results {
        attempted: replay.attempted,
        failed: replay.failed,
        ..Results::default()
    };
    r.put("lang.parse_us", med("lang.parse")? / 1e3);
    r.put("lang.typecheck_us", med("lang.typecheck")? / 1e3);
    for (metric, span) in [
        ("analysis.inline_us", "analysis.inline"),
        ("analysis.normalize_us", "analysis.normalize"),
        ("analysis.reassociate_us", "analysis.reassociate"),
        ("analysis.dependence_us", "analysis.dependence"),
        ("analysis.caching_us", "analysis.caching"),
    ] {
        r.put(metric, med(span)? / 1e3);
    }
    r.put(
        "analysis.dependence_passes",
        mean(&replay.dependence_passes),
    );
    r.put("analysis.caching_pops", mean(&replay.caching_pops));
    r.put("core.specialize_us", med("core.specialize")? / 1e3);
    r.put(
        "core.specialize_self_us",
        median(&own["core.specialize"]) / 1e3,
    );
    r.put("core.limit_us", med("core.limit")? / 1e3);
    r.put("core.layout_us", med("core.layout")? / 1e3);
    r.put("core.split_us", med("core.split")? / 1e3);
    r.put("core.cache_bytes", mean(&replay.cache_bytes));
    r.put("core.evictions", mean(&replay.evictions));
    r.put("interp.compile_us", med("interp.compile")? / 1e3);
    let reader = med("interp.reader")?;
    let original = med("interp.original")?;
    r.put("interp.reader_ns", reader);
    r.put("interp.loader_ns", med("interp.loader")?);
    r.put("interp.original_ns", original);
    r.put("interp.reader_speedup", original / reader);
    r.put(
        "interp.reader_speedup_cost",
        replay.orig_cost as f64 / replay.reader_cost as f64,
    );
    r.put(
        "interp.batch_ns_per_lane",
        med("interp.batch")? / LANES as f64,
    );
    let session = &nanos["session.run"];
    let session_p50 = pct(session, 50.0, "session.run")? / 1e3;
    r.put("session.run_us_p50", session_p50);
    r.put(
        "session.run_us_p99",
        pct(session, 99.0, "session.run")? / 1e3,
    );
    r.put(
        "session.overhead_share",
        1.0 - replay.engine_ns as f64 / replay.session_ns as f64,
    );
    r.put("session.fingerprint_ns", med("session.fingerprint")?);
    let sum = |f: fn(&ds_runtime::RunnerStats) -> u64| -> f64 {
        replay.session_stats.iter().map(f).sum::<u64>() as f64
    };
    r.put("session.loads", sum(|s| s.loads));
    r.put("session.store_hits", sum(|s| s.store_hits()));
    r.put("session.store_misses", sum(|s| s.store_misses()));
    r.put("session.fallbacks", sum(|s| s.fallbacks()));
    r.put("session.rebuilds", sum(|s| s.rebuilds()));
    r.put(
        "session.validation_failures",
        sum(|s| s.validation_failures()),
    );
    r.put("store.get_ns", med("store.get")?);
    r.put(
        "store.clone_bytes_per_op",
        replay.store_clone_bytes as f64 / replay.store_gets as f64,
    );
    r.put("store.insert_ns", med("store.insert")?);
    r.put("store.evictions", replay.store_evictions as f64);
    r.put(
        "store.hit_ratio",
        replay.store_hits as f64 / replay.store_gets as f64,
    );
    r.put("wal.append_us", med("wal.append")? / 1e3);
    r.put("wal.appends", replay.wal_appends as f64);
    r.put("wal.checkpoint_ms", med("wal.checkpoint")? / 1e6);
    r.put("daemon.submit_ns", med("daemon.submit")?);
    let queue: Vec<f64> = d.latency.iter().map(|&(_, q)| q).collect();
    r.put(
        "daemon.queue_wait_us_p50",
        pct(&queue, 50.0, "queue wait")? / 1e3,
    );
    r.put(
        "daemon.queue_wait_us_p99",
        pct(&queue, 99.0, "queue wait")? / 1e3,
    );
    let service: Vec<f64> = d.latency.iter().map(|&(l, q)| l - q).collect();
    let service_p50 = pct(&service, 50.0, "service")? / 1e3;
    r.put("daemon.service_us_p50", service_p50);
    r.put("daemon.handoff_us_p50", service_p50 - session_p50);
    r.put("daemon.unspecialized", d.unspecialized as f64);
    r.put("daemon.fallbacks", d.fallbacks as f64);
    r.put("daemon.breakeven_uses", median(&d.breakeven));
    r.put("daemon.shed", d.shed as f64);
    r.put("daemon.specialized_share", d.specialized_share());
    r.put("trace.overhead_share", overhead);
    Ok(r)
}

fn write_spans(workload: &str, replay: &Replay) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.jsonl"));
    std::fs::write(&path, replay.tracer.to_jsonl(SPAN_FILE_LIMIT))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<Results, String> {
    let w = serve_workload(&args.workload, args.seed);
    if !args.trace {
        return serve_e2e(&w, args.seconds);
    }
    let (replay, overhead) = serve_traced(&w, args.seconds)?;
    let path = write_spans(&args.workload, &replay)?;
    println!(
        "{}: {} spans recorded, summary and first {} written to {path}",
        args.workload,
        replay.tracer.spans().len(),
        SPAN_FILE_LIMIT.min(replay.tracer.spans().len())
    );
    layer_results(&replay, overhead)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", metrics::describe().pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let results = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let emitted: Vec<&metrics::Metric> = if args.trace {
        metrics::PER_LAYER.iter().collect()
    } else {
        metrics::gated().collect()
    };
    for (name, value) in &results.values {
        let m = metrics::find(name);
        let gate = if emitted.iter().any(|e| e.name == m.name) {
            ""
        } else {
            "  (reported, not gated)"
        };
        println!("{:<28} {:>16.6} {}{gate}", name, value, m.unit);
    }
    let mut out = Vec::new();
    for m in &emitted {
        let value = results
            .values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
        out.push((
            m.name.to_string(),
            ds_telemetry::Json::obj([
                ("value", ds_telemetry::Json::Num(value)),
                ("unit", ds_telemetry::Json::Str(m.unit.into())),
            ]),
        ));
    }
    let correct = results.failed == 0;
    let line = ds_telemetry::Json::obj([
        ("correct", ds_telemetry::Json::Bool(correct)),
        (
            "attempted",
            ds_telemetry::Json::Num(results.attempted as f64),
        ),
        ("failed", ds_telemetry::Json::Num(results.failed as f64)),
        ("metrics", ds_telemetry::Json::Obj(out)),
    ]);
    println!("{}", line.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
