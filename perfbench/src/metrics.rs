//! Metric descriptors: unit, better direction, whether a value is
//! deterministic (a count or abstract cost) or wall-clock, the regression
//! bound of gated end-to-end metrics, and for layer metrics the end-to-end
//! metrics and workloads they should move. `--describe` prints this table;
//! `metrics.json` is that output, and `BENCHMARK.json` must agree with it.

use ds_telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WallClock,
    Deterministic,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which a gated end-to-end metric may
    /// worsen; `None` for reported-only and layer metrics.
    pub bound: Option<f64>,
    /// End-to-end metric and the workloads on which this one should move it.
    pub moves: &'static [(&'static str, &'static [&'static str])],
    pub meaning: &'static str,
}

use Better::{Higher, Lower};
use Kind::{Deterministic, WallClock};

const SERVING: &[&str] = &["shader-drag", "kernel-steady", "kernel-churn"];
const DRAG: &[&str] = &["shader-drag"];
const STEADY: &[&str] = &["kernel-steady"];
const CHURN: &[&str] = &["kernel-churn"];
const DRAG_CHURN: &[&str] = &["shader-drag", "kernel-churn"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: Option<f64>,
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        bound,
        moves: &[],
        meaning,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static [(&'static str, &'static [&'static str])],
    meaning: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        bound: None,
        moves,
        meaning,
    }
}

/// End-to-end metrics of the untraced run. Those with a bound are gated
/// and printed in the result object; the rest are printed as report lines
/// only: the shares can be 0 on a workload, and the p99 and p90 tails swing
/// with host stalls by more than any bound a regression gate could use.
/// Sliced metrics cut the measured window into `serve::SLICES` slices and
/// read them at the quiet end (`stats::quiet`).
#[rustfmt::skip]
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, WallClock, Some(0.25), "median of 32 set-ups, half before and half after the measured window: source text to a daemon ready to serve"),
    e2e("ops_per_s", "ops/s", Higher, WallClock, Some(0.25), "completed requests per second within each of 1200 slices of the measured window (33 ms at 40 s), 99th percentile over slices"),
    e2e("latency_p50_us", "us", Lower, WallClock, Some(0.25), "median submit-to-response time within each slice, 1st percentile over slices"),
    e2e("latency_p99_us", "us", Lower, WallClock, None, "p99 submit-to-response time over the measured window; not gated: host stalls move it by over 25% between runs"),
    e2e("frame_p50_ms", "ms", Lower, WallClock, Some(0.25), "median frame time (first submit to last answer of 576 pixels on shader-drag, of 256 consecutive requests on the kernels) within each slice, 1st percentile over slices"),
    e2e("frame_p90_ms", "ms", Lower, WallClock, None, "p90 frame time over the measured window; not gated: host stalls move it by over 25% between runs"),
    e2e("cost_per_op", "cost", Lower, Deterministic, Some(0.2), "mean Outcome.cost per completed request"),
    e2e("peak_rss_mib", "MiB", Lower, WallClock, Some(0.1), "peak resident memory of the benchmark process (VmHWM)"),
    e2e("specialized_share", "fraction", Higher, Deterministic, None, "completed requests served by the loader or reader"),
    e2e("failed_share", "fraction", Lower, Deterministic, None, "shed, errored, late or not bit-exact answers over attempts"),
];

/// Staging runs only in set-up on the serving path.
const STAGING: &[(&str, &[&str])] = &[("setup_s", SERVING)];
const SESSION: &[(&str, &[&str])] = &[("ops_per_s", SERVING), ("latency_p50_us", SERVING)];
const ADMISSION: &[(&str, &[&str])] = &[
    ("specialized_share", DRAG_CHURN),
    ("cost_per_op", DRAG_CHURN),
];
const STEADY_OPS: &[(&str, &[&str])] = &[("ops_per_s", STEADY)];
const CHURN_WRITE: &[(&str, &[&str])] = &[("ops_per_s", CHURN), ("latency_p99_us", CHURN)];

/// Layer metrics of the traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    layer("lang.parse_us", "us", Lower, WallClock, STAGING, "median parse_program per program"),
    layer("lang.typecheck_us", "us", Lower, WallClock, STAGING, "median typecheck per program"),
    layer("analysis.inline_us", "us", Lower, WallClock, STAGING, "median SpecReport inline phase"),
    layer("analysis.normalize_us", "us", Lower, WallClock, STAGING, "median SpecReport normalize phase"),
    layer("analysis.reassociate_us", "us", Lower, WallClock, STAGING, "median SpecReport reassociate phase (bounded pass)"),
    layer("analysis.dependence_us", "us", Lower, WallClock, STAGING, "median SpecReport dependence phase"),
    layer("analysis.caching_us", "us", Lower, WallClock, STAGING, "median SpecReport caching phase"),
    layer("analysis.dependence_passes", "count", Lower, Deterministic, STAGING, "mean dependence fixpoint passes per specialize"),
    layer("analysis.caching_pops", "count", Lower, Deterministic, STAGING, "mean caching worklist pops per specialize"),
    layer("core.specialize_us", "us", Lower, WallClock, STAGING, "median specialize call, whole"),
    layer("core.specialize_self_us", "us", Lower, WallClock, STAGING, "median specialize self time: outside every reported phase"),
    layer("core.limit_us", "us", Lower, WallClock, STAGING, "median SpecReport limit phase (bounded pass)"),
    layer("core.layout_us", "us", Lower, WallClock, STAGING, "median SpecReport layout phase"),
    layer("core.split_us", "us", Lower, WallClock, STAGING, "median SpecReport split phase"),
    layer("core.cache_bytes", "bytes", Lower, Deterministic, &[("cost_per_op", SERVING)], "mean Specialization::cache_bytes under the 16-byte bound"),
    layer("core.evictions", "count", Lower, Deterministic, &[("cost_per_op", SERVING)], "mean section 4.3 victims under the 16-byte bound"),
    layer("interp.compile_us", "us", Lower, WallClock, STAGING, "median ds_interp::compile of the staged program"),
    layer("interp.reader_ns", "ns", Lower, WallClock, STEADY_OPS, "median Vm::run of the reader on a warmed private cache"),
    layer("interp.loader_ns", "ns", Lower, WallClock, &[("latency_p99_us", CHURN)], "median Vm::run of the loader into a fresh cache"),
    layer("interp.original_ns", "ns", Lower, WallClock, &[("frame_p50_ms", DRAG)], "median Vm::run of the unspecialized fragment"),
    layer("interp.reader_speedup", "ratio", Higher, WallClock, &[("cost_per_op", SERVING)], "interp.original_ns over interp.reader_ns (wall-clock base)"),
    layer("interp.reader_speedup_cost", "ratio", Higher, Deterministic, &[("cost_per_op", SERVING)], "original over reader Outcome.cost (abstract cost base)"),
    layer("interp.batch_ns_per_lane", "ns", Lower, WallClock, STEADY_OPS, "median run_batch_soa of the reader over 64 lanes of one context, per lane"),
    layer("session.run_us_p50", "us", Lower, WallClock, SESSION, "median Session::run over the stream, fresh store, no daemon"),
    layer("session.run_us_p99", "us", Lower, WallClock, SESSION, "p99 Session::run"),
    layer("session.overhead_share", "fraction", Lower, WallClock, STEADY_OPS, "1 - engine time / Session::run time"),
    layer("session.fingerprint_ns", "ns", Lower, WallClock, &[("ops_per_s", DRAG)], "median StagedArtifact::inputs_fingerprint"),
    layer("session.loads", "count", Lower, Deterministic, ADMISSION, "RunnerStats loads of the session replay"),
    layer("session.store_hits", "count", Higher, Deterministic, ADMISSION, "RunnerStats store hits"),
    layer("session.store_misses", "count", Lower, Deterministic, ADMISSION, "RunnerStats store misses"),
    layer("session.fallbacks", "count", Lower, Deterministic, ADMISSION, "RunnerStats fallbacks"),
    layer("session.rebuilds", "count", Lower, Deterministic, ADMISSION, "RunnerStats rebuilds"),
    layer("session.validation_failures", "count", Lower, Deterministic, ADMISSION, "RunnerStats validation failures"),
    layer("store.get_ns", "ns", Lower, WallClock, &[("ops_per_s", DRAG), ("peak_rss_mib", DRAG)], "median CacheStore::get over the stream's contexts"),
    layer("store.clone_bytes_per_op", "bytes", Lower, Deterministic, &[("ops_per_s", DRAG), ("peak_rss_mib", DRAG)], "cache bytes cloned per get, from the layout's slot widths"),
    layer("store.insert_ns", "ns", Lower, WallClock, CHURN_WRITE, "median CacheStore::insert of a sealed cache on a miss"),
    layer("store.evictions", "count", Lower, Deterministic, CHURN_WRITE, "LRU evictions of the store replay"),
    layer("store.hit_ratio", "fraction", Higher, Deterministic, CHURN_WRITE, "store replay hits over gets"),
    layer("wal.append_us", "us", Lower, WallClock, &[("latency_p99_us", CHURN), ("ops_per_s", CHURN)], "median Wal::append of an Install record"),
    layer("wal.appends", "count", Lower, Deterministic, &[("latency_p99_us", CHURN), ("ops_per_s", CHURN)], "Wal::append calls"),
    layer("wal.checkpoint_ms", "ms", Lower, WallClock, &[("latency_p99_us", CHURN), ("ops_per_s", CHURN)], "median Wal::checkpoint of the replayed store"),
    layer("daemon.submit_ns", "ns", Lower, WallClock, &[("ops_per_s", SERVING)], "median Daemon::submit"),
    layer("daemon.queue_wait_us_p50", "us", Lower, WallClock, &[("latency_p50_us", SERVING)], "median DaemonResponse.queue_nanos"),
    layer("daemon.queue_wait_us_p99", "us", Lower, WallClock, &[("latency_p99_us", SERVING)], "p99 DaemonResponse.queue_nanos"),
    layer("daemon.service_us_p50", "us", Lower, WallClock, STEADY_OPS, "median latency minus queue wait"),
    layer("daemon.handoff_us_p50", "us", Lower, WallClock, STEADY_OPS, "daemon.service_us_p50 minus session.run_us_p50: the daemon's own time"),
    layer("daemon.unspecialized", "count", Lower, Deterministic, ADMISSION, "ServeCounters unspecialized serves"),
    layer("daemon.fallbacks", "count", Lower, Deterministic, ADMISSION, "DaemonReport.stats fallbacks"),
    layer("daemon.breakeven_uses", "count", Lower, Deterministic, ADMISSION, "DaemonReport.breakeven (0: never pays or not calibrated)"),
    layer("daemon.shed", "count", Lower, Deterministic, &[("specialized_share", DRAG_CHURN), ("failed_share", DRAG_CHURN)], "ServeCounters shed"),
    layer("daemon.specialized_share", "fraction", Higher, Deterministic, ADMISSION, "specialized_share of the traced daemon run"),
    layer("trace.overhead_share", "fraction", Lower, WallClock, &[], "1 - traced ops_per_s / untraced ops_per_s, both measured in the traced run"),
];

pub fn find(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no descriptor for metric `{name}`"))
}

fn better_str(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

impl Metric {
    pub fn to_json(self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.into())),
            ("unit", Json::Str(self.unit.into())),
            ("better", Json::Str(better_str(self.better).into())),
            (
                "kind",
                Json::Str(
                    match self.kind {
                        WallClock => "wall-clock",
                        Deterministic => "deterministic",
                    }
                    .into(),
                ),
            ),
        ];
        if let Some(b) = self.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        if !self.moves.is_empty() {
            let moves = self
                .moves
                .iter()
                .map(|(m, ws)| {
                    Json::obj([
                        ("metric", Json::Str((*m).into())),
                        (
                            "workloads",
                            Json::Arr(ws.iter().map(|w| Json::Str((*w).into())).collect()),
                        ),
                    ])
                })
                .collect();
            pairs.push(("moves", Json::Arr(moves)));
        }
        pairs.push(("meaning", Json::Str(self.meaning.into())));
        Json::obj(pairs)
    }
}

/// The gated end-to-end metrics, as `BENCHMARK.json` lists them.
pub fn gated() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().filter(|m| m.bound.is_some())
}

/// Every workload with its settings and the reason it was chosen.
pub const WORKLOADS: &[(&str, &str, &str)] = &[
    (
        "shader-drag",
        "plastic shader specialized on lighty; 24x24 pixel contexts (576); store 576; 32-notch drag back and forth; frames of 576 with at most 64 outstanding and a barrier between frames",
        "the paper's interactive loop: every request switches context, exercising store probe and clone, validate, per-context admission and the noise-heavy original",
    ),
    (
        "kernel-steady",
        "W-DISP vm8 on {x, c0, c1}; 4 pinned opcode contexts; runs of 256 requests sharing a context; random varying inputs; store 16; 64 outstanding",
        "the hot path: after 4 loads every request is a warm hit, so per-request session and daemon overhead shows",
    ),
    (
        "kernel-churn",
        "W-MAT mat3vec on {x0, x1, x2}; 512 contexts drawn Zipf(1.0); store 64; in-memory WAL checkpointed only at exit; 64 outstanding",
        "the store's write side: misses drive loader runs, inserts, LRU eviction, WAL appends and admission over a long cold tail",
    ),
];

/// Shared daemon settings of the serving workloads.
pub const DAEMON_SETTINGS: &str = "one in-process closed-loop client thread; Daemon with 1 worker, engine vm, admission auto, max-queue 64, rebuild budget 8, default policy, no deadline";

pub fn describe() -> Json {
    Json::obj([
        ("daemon", Json::Str(DAEMON_SETTINGS.into())),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, settings, why)| {
                        Json::obj([
                            ("name", Json::Str((*n).into())),
                            ("settings", Json::Str((*settings).into())),
                            ("why", Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| m.to_json()).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| m.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_telemetry::parse;

    fn read(rel: &str) -> String {
        let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn names(j: &Json, key: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_the_descriptors() {
        let bench = parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(&bench, "workloads"), crate::workload::NAMES);
        let table: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(table, crate::workload::NAMES);
        let gated: Vec<&Metric> = gated().collect();
        assert_eq!(
            names(&bench, "end_to_end"),
            gated.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names(&bench, "per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        let listed = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter();
        let listed = listed.chain(bench.get("per_layer").and_then(Json::as_arr).unwrap());
        for j in listed {
            let m = find(j.get("name").and_then(Json::as_str).unwrap());
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better_str(m.better)),
                "{}",
                m.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }

    #[test]
    fn metrics_json_is_the_describe_output() {
        assert_eq!(
            read("metrics.json").trim_end(),
            describe().pretty().trim_end()
        );
    }

    #[test]
    fn every_layer_metric_says_what_it_should_move() {
        for m in PER_LAYER
            .iter()
            .filter(|m| m.name != "trace.overhead_share")
        {
            assert!(!m.moves.is_empty(), "{}", m.name);
            for (target, workloads) in m.moves {
                find(target);
                assert!(workloads.iter().all(|w| crate::workload::NAMES.contains(w)));
            }
        }
    }
}
