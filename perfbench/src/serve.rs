//! The end-to-end path: set-up from source text to a ready daemon, and a
//! single in-process closed-loop client driving `ds_runtime::Daemon`.

use crate::check::{digest, Answers, ERROR_DIGEST};
use crate::metrics::Better;
use crate::stats::{median, percentile, quiet, Reservoir};
use crate::trace::Tracer;
use crate::workload::{ServeWorkload, MAX_QUEUE, REBUILD_BUDGET};
use ds_core::{specialize, SpecializeOptions};
use ds_interp::{Engine, EvalOptions};
use ds_lang::parse_program;
use ds_runtime::{
    Admission, CacheStore, Daemon, DaemonConfig, DaemonReport, DaemonResponse, RunnerOptions,
    StagedArtifact, Wal,
};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The session settings every serve path here uses: the bytecode VM,
/// rebuild budget 8 and otherwise the defaults.
pub fn runner_options(store_capacity: usize) -> RunnerOptions {
    RunnerOptions {
        engine: Engine::Vm,
        rebuild_budget: REBUILD_BUDGET,
        store_capacity,
        ..RunnerOptions::default()
    }
}

pub fn daemon_config(store_capacity: usize) -> DaemonConfig {
    DaemonConfig {
        workers: 1,
        max_queue: MAX_QUEUE,
        deadline_ms: None,
        admission: Admission::Auto,
        runner: runner_options(store_capacity),
        tracing: false,
    }
}

/// Starts a daemon over a fresh store (and log, when the workload has one).
pub fn start_daemon(
    artifact: &Arc<StagedArtifact>,
    store_capacity: usize,
    wal: bool,
) -> (Daemon, Receiver<DaemonResponse>) {
    let store = Arc::new(CacheStore::new(store_capacity));
    let wal = wal.then(|| Arc::new(Wal::in_memory(artifact.layout_fingerprint(), None)));
    Daemon::start(
        Arc::clone(artifact),
        store,
        wal,
        daemon_config(store_capacity),
    )
}

/// Pause between set-up trials, so that they spread over the host's
/// interference phases instead of all landing in one.
pub const SETUP_GAP: Duration = Duration::from_millis(30);

/// Source text to a daemon ready to serve: parse, `specialize`,
/// `StagedArtifact::new` (which compiles) and `Daemon::start`. Runs
/// `trials` times, [`SETUP_GAP`] apart; returns each trial's seconds and
/// the last artifact.
pub fn setup(w: &ServeWorkload, trials: usize) -> (Vec<f64>, Arc<StagedArtifact>) {
    let mut times = Vec::with_capacity(trials);
    let mut artifact = None;
    for _ in 0..trials {
        std::thread::sleep(SETUP_GAP);
        let t = Instant::now();
        let program = parse_program(&w.source).expect("workload source parses");
        let spec = specialize(&program, w.entry, &w.partition(), &SpecializeOptions::new())
            .expect("workload partition specializes");
        let art = Arc::new(StagedArtifact::new(&spec, &w.partition()));
        let (daemon, _rx) = start_daemon(&art, w.store_capacity, w.wal);
        times.push(t.elapsed().as_secs_f64());
        daemon.join();
        artifact = Some(art);
    }
    (times, artifact.expect("at least one set-up trial"))
}

/// Reference digests of every distinct request, tree-walked.
pub fn references(artifact: &StagedArtifact, requests: &[Vec<ds_interp::Value>]) -> Vec<u64> {
    requests
        .iter()
        .map(|args| {
            artifact
                .reference(args, EvalOptions::default())
                .map_or(ERROR_DIGEST, |out| digest(&out))
        })
        .collect()
}

/// Everything one closed-loop run observed.
#[derive(Debug)]
pub struct LoopRun {
    /// Requests submitted (including warm-up).
    pub attempted: u64,
    /// Shed or failed submits.
    pub rejected: u64,
    /// Answer digests by distinct request (`ERROR_DIGEST` for a shed or
    /// failed request).
    pub answers: Answers,
    /// Responses whose `specialized` flag was set.
    pub specialized_flags: u64,
    /// Responses received in each slice of the measured window, and the
    /// slice length.
    pub slice_done: Vec<u64>,
    pub slice_secs: f64,
    /// Per slice, a sample of the requests answered in it: submit to
    /// response, and queue wait (ns).
    pub latency: Vec<Reservoir<(f64, f64)>>,
    /// Per slice, the measured frames whose last answer came in it: first
    /// submit to last answer (ns).
    pub frames: Vec<Vec<f64>>,
    /// Responses to requests submitted in the measured window.
    pub measured: u64,
    /// Summed `Outcome.cost` of measured responses.
    pub window_cost: u64,
}

impl LoopRun {
    /// Responses per second within each slice, read at the quiet end (see
    /// [`quiet`]).
    pub fn ops_per_s(&self) -> Result<f64, String> {
        let rates: Vec<f64> = self
            .slice_done
            .iter()
            .map(|&n| n as f64 / self.slice_secs)
            .collect();
        quiet(&rates, Better::Higher).map_err(|e| format!("ops_per_s: {e}"))
    }

    /// Responses per second over the whole measured window.
    pub fn mean_ops_per_s(&self) -> f64 {
        let done: u64 = self.slice_done.iter().sum();
        done as f64 / (self.slice_done.len() as f64 * self.slice_secs)
    }

    /// Median latency within each slice, read at the quiet end.
    pub fn latency_p50(&self) -> Result<f64, String> {
        let per_slice: Vec<f64> = self
            .latency
            .iter()
            .filter_map(|r| {
                let l: Vec<f64> = r.items().iter().map(|&(l, _)| l).collect();
                percentile(&l, 50.0).ok()
            })
            .collect();
        quiet(&per_slice, Better::Lower).map_err(|e| format!("latency p50: {e}"))
    }

    /// Median frame time within each slice that completed a frame, read at
    /// the quiet end.
    pub fn frame_p50(&self) -> Result<f64, String> {
        let per_slice: Vec<f64> = self
            .frames
            .iter()
            .filter(|f| !f.is_empty())
            .map(|f| median(f))
            .collect();
        quiet(&per_slice, Better::Lower).map_err(|e| format!("frame p50: {e}"))
    }

    /// Every measured frame time (ns).
    pub fn frame_ns(&self) -> Vec<f64> {
        self.frames.iter().flatten().copied().collect()
    }

    /// Every sampled (latency, queue wait) pair, in ns.
    pub fn latency_samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.latency.iter().flat_map(|r| r.items().iter().copied())
    }
}

const RING: usize = 1024;
const _: () = assert!(MAX_QUEUE < RING);
/// Slices the measured window is cut into, whatever its length: at the
/// quiet-end percentile this leaves a dozen slices beyond it.
pub const SLICES: usize = 1200;
/// Latency samples kept per slice (a uniform sample of its requests).
const SLICE_SAMPLES: usize = 256;

/// Drives `daemon` in a closed loop over `w`'s stream: at most
/// `w.outstanding` requests in flight, frames of `w.frame` requests, and
/// (with a frame barrier) each frame starting after the previous frame's
/// last answer. After `warmup`, `measure` is timed in [`SLICES`] slices;
/// no frame starts after it. With a tracer, each request gets a
/// `daemon.request` span (submit to response) with a `daemon.submit` child.
pub fn closed_loop(
    w: &ServeWorkload,
    daemon: Daemon,
    rx: Receiver<DaemonResponse>,
    warmup: Duration,
    measure: Duration,
    mut tracer: Option<&mut Tracer>,
) -> (LoopRun, DaemonReport) {
    assert!(
        w.outstanding <= MAX_QUEUE,
        "a closed loop never outruns the queue"
    );
    let frame = w.frame as u64;
    let begin = Instant::now();
    let window_start = begin + warmup;
    let window_end = window_start + measure;
    let slice = measure / SLICES as u32;
    let slice_of = |t: Instant| ((t - window_start).as_nanos() / slice.as_nanos()) as usize;
    let mut sent = [(begin, 0usize); RING];
    let mut frame_start: Vec<Instant> = Vec::new();
    let mut frame_left: Vec<u64> = Vec::new();
    let mut run = LoopRun {
        attempted: 0,
        rejected: 0,
        answers: Answers::new(w.requests.len()),
        specialized_flags: 0,
        slice_done: vec![0; SLICES],
        slice_secs: slice.as_secs_f64(),
        latency: (0..SLICES).map(|_| Reservoir::new(SLICE_SAMPLES)).collect(),
        frames: vec![Vec::new(); SLICES],
        measured: 0,
        window_cost: 0,
    };
    let mut seq = 0u64;
    let mut in_flight = 0usize;
    let mut stopped = false;
    loop {
        while !stopped && in_flight < w.outstanding {
            if seq.is_multiple_of(frame) {
                let now = Instant::now();
                if now >= window_end {
                    stopped = true;
                    break;
                }
                if w.frame_barrier && in_flight > 0 {
                    break;
                }
                frame_start.push(now);
                frame_left.push(frame);
            }
            let args = w.args(seq).to_vec();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open("daemon.request", None, seq));
            let t0 = Instant::now();
            let submitted = match tracer.as_deref_mut() {
                Some(t) => t.span("daemon.submit", span, seq, || {
                    daemon.submit(seq, args, None)
                }),
                None => daemon.submit(seq, args, None),
            };
            if submitted.is_err() {
                run.answers.record(w.request_of(seq), ERROR_DIGEST);
                run.rejected += 1;
                frame_left[(seq / frame) as usize] -= 1;
            } else {
                sent[seq as usize % RING] = (t0, span.unwrap_or(0));
                in_flight += 1;
            }
            seq += 1;
        }
        if in_flight == 0 {
            if stopped {
                break;
            }
            continue;
        }
        let r = poll(&rx);
        let now = Instant::now();
        in_flight -= 1;
        let (t0, span) = sent[r.seq as usize % RING];
        if let Some(t) = tracer.as_deref_mut() {
            t.close(span);
        }
        let measured = t0 >= window_start;
        let at = slice_of(now.max(window_start));
        if now >= window_start && at < SLICES {
            run.slice_done[at] += 1;
        }
        if r.specialized {
            run.specialized_flags += 1;
        }
        let request = w.request_of(r.seq);
        match &r.result {
            Ok(out) => {
                run.answers.record(request, digest(out));
                if measured {
                    run.window_cost += out.cost;
                }
            }
            Err(_) => run.answers.record(request, ERROR_DIGEST),
        }
        if measured {
            let latency = (now - t0).as_nanos() as f64;
            run.measured += 1;
            if let Some(sample) = run.latency.get_mut(at) {
                sample.push((latency, r.queue_nanos as f64));
            }
        }
        let f = (r.seq / frame) as usize;
        frame_left[f] -= 1;
        if frame_left[f] == 0 && frame_start[f] >= window_start {
            if let Some(frames) = run.frames.get_mut(at) {
                frames.push((now - frame_start[f]).as_nanos() as f64);
            }
        }
    }
    run.attempted = seq;
    drop(rx);
    (run, daemon.join())
}

/// Waits for the next response by polling, without a pause hint: a client
/// that sleeps in `recv` leaves its core idle, and on a virtual machine the
/// worker's every answer then pays a host-dependent wake-up of that core.
fn poll(rx: &Receiver<DaemonResponse>) -> DaemonResponse {
    loop {
        match rx.try_recv() {
            Ok(r) => return r,
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => panic!("daemon stopped with requests in flight"),
        }
    }
}
