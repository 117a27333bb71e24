//! The online specialize-on-demand serving daemon.
//!
//! A [`Daemon`] turns the session machinery into a long-running service: a
//! bounded request queue feeds a pool of worker threads, each owning a
//! [`Session`] over the shared artifact, store and (optionally) write-ahead
//! log. The daemon is hardened end to end:
//!
//! * **Fingerprint-affine routing.** [`Daemon::submit`] hashes a request's
//!   invariant inputs once and queues it for the one worker that owns that
//!   fingerprint. A context is therefore staged by exactly one thread and
//!   its requests are served in submission order, so no two workers ever
//!   run the same loader, and each worker's statistics depend only on the
//!   requests routed to it, not on how the workers interleave. The price
//!   is imbalance: one hot context keeps one worker busy.
//! * **Admission control (§4.3).** Under [`Admission::Auto`] the daemon
//!   calibrates the paper's cost model (original vs loader vs reader
//!   abstract cost) and specializes a fingerprint only once its
//!   exponentially-decaying arrival rate reaches the breakeven point —
//!   recent arrival density, not lifetime count, predicts future uses, so
//!   a fingerprint whose occasional repeats are spread thin across the
//!   stream never pays for a loader run. The owning worker keeps the score
//!   and decays it by submission index, so the decision is the same at any
//!   worker count. Colder fingerprints are served by the unspecialized
//!   fragment through [`Session::run_unspecialized`], on the configured
//!   engine, and traced as `unspecialized`: bit-identical by the core
//!   theorem, just not specialized.
//! * **Deadlines.** A per-request deadline is checked both at dequeue and
//!   after execution; a late request gets a typed
//!   [`RuntimeError::DeadlineExceeded`], never a partial or late answer.
//! * **Backpressure.** The queue is bounded (over all workers); a full
//!   queue sheds the request at submission with a typed
//!   [`RuntimeError::Overloaded`].
//! * **Graceful drain.** [`Daemon::drain`] closes admission (later submits
//!   get [`RuntimeError::Draining`]) while queued and in-flight requests
//!   run to completion; [`Daemon::join`] then merges every worker's stats,
//!   latency histograms and traces into one [`DaemonReport`].
//!
//! `dsc serve` drives every request through a daemon: `--listen` feeds it
//! from stdin, `--requests FILE` submits the whole parsed file under
//! [`Admission::Always`] with a queue as long as the file.
//!
//! Responses travel over an unbounded channel (workers never block on a
//! slow consumer), tagged with the submitter's sequence number; when the
//! last worker exits the channel disconnects, which is the caller's signal
//! that the drain is complete.

use crate::artifact::StagedArtifact;
use crate::error::RuntimeError;
use crate::fault::Fault;
use crate::runner::{RunnerOptions, RunnerStats};
use crate::session::Session;
use crate::store::CacheStore;
use crate::timing::{RequestOutcome, RequestTrace};
use crate::wal::Wal;
use ds_interp::{Outcome, Value};
use ds_telemetry::{ServeCounters, Timing};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// When to specialize a fingerprint (the §4.3 cost-model admission policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Specialize every fingerprint on first arrival (the file-replay
    /// behaviour).
    Always,
    /// Calibrate original/loader/reader costs on the first request and
    /// specialize a fingerprint once its exponentially-decaying arrival
    /// rate reaches the computed breakeven; serve it unspecialized before
    /// that. A back-to-back burst of k <= 10 arrivals scores exactly k.
    Auto,
    /// Specialize once a fingerprint's decayed arrival rate reaches `N`
    /// (for a back-to-back burst: on the `N`-th request).
    After(u32),
}

impl std::fmt::Display for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admission::Always => write!(f, "always"),
            Admission::Auto => write!(f, "auto"),
            Admission::After(n) => write!(f, "{n}"),
        }
    }
}

impl std::str::FromStr for Admission {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(Admission::Always),
            "auto" => Ok(Admission::Auto),
            other => match other.parse::<u32>() {
                Ok(n) if n >= 1 => Ok(Admission::After(n)),
                _ => Err(format!(
                    "unknown admission policy `{other}`; expected always, auto or a use \
                     count >= 1"
                )),
            },
        }
    }
}

/// §4.3: the number of uses at which specialization pays for itself, given
/// the abstract costs of the original fragment, the loader and the reader.
/// `None` means specialization never pays (the reader is no cheaper than
/// the original).
pub fn breakeven_uses(orig: f64, loader: f64, reader: f64) -> Option<u32> {
    if loader <= orig {
        return Some(1);
    }
    if reader >= orig {
        return None;
    }
    Some((((loader - reader) / (orig - reader)).ceil().max(1.0)) as u32)
}

/// Configuration of a [`Daemon`].
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Bounded queue capacity; a submit beyond this is shed.
    pub max_queue: usize,
    /// Per-request deadline; `None` disables deadline enforcement.
    pub deadline_ms: Option<u64>,
    /// When to specialize a fingerprint.
    pub admission: Admission,
    /// Session configuration (engine, policy, budgets, store capacity).
    pub runner: RunnerOptions,
    /// Collect a [`RequestTrace`] per request.
    pub tracing: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 1,
            max_queue: 64,
            deadline_ms: None,
            admission: Admission::Always,
            runner: RunnerOptions::default(),
            tracing: false,
        }
    }
}

/// One answered (or degraded) request, tagged with its submission sequence
/// number. `specialized` is `false` when the admission policy served the
/// request through the unspecialized fragment.
#[derive(Debug)]
pub struct DaemonResponse {
    /// The sequence number given at [`Daemon::submit`].
    pub seq: u64,
    /// The answer, or the typed error the request degraded to.
    pub result: Result<Outcome, RuntimeError>,
    /// Whether the staged (specialized) path served it.
    pub specialized: bool,
    /// Time the request spent queued before a worker picked it up.
    pub queue_nanos: u64,
}

/// Everything the daemon measured, merged across workers at [`Daemon::join`].
#[derive(Debug)]
pub struct DaemonReport {
    /// Merged session statistics (worker order; the merge is associative
    /// and commutative, so this is deterministic however requests raced).
    pub stats: RunnerStats,
    /// Merged latency histograms: per-session serving stages (including
    /// `unspec` for admission-unspecialized serves) plus the daemon-level
    /// `queue` stage.
    pub timing: Timing,
    /// Each worker's own statistics, in worker order; `stats` is their
    /// merge.
    pub worker_stats: Vec<RunnerStats>,
    /// Each worker's own latency histograms, in worker order; `timing` is
    /// their exact merge.
    pub worker_timing: Vec<Timing>,
    /// Per-request traces (only when `tracing` was enabled), sorted by
    /// submission sequence number.
    pub traces: Vec<RequestTrace>,
    /// Admission/backpressure/drain counters (shared with the live daemon).
    pub counters: Arc<ServeCounters>,
    /// The calibrated §4.3 breakeven: `None` until calibration ran,
    /// `Some(None)` when specialization never pays for this artifact.
    pub breakeven: Option<Option<u32>>,
}

struct Queued {
    seq: u64,
    /// The invariant-input fingerprint, hashed once at submission.
    fp: u64,
    /// Submission index: the admission clock.
    tick: u64,
    args: Vec<Value>,
    fault: Option<(Fault, u64)>,
    enqueued: Instant,
}

struct QueueState {
    /// One FIFO per worker; a request joins the queue of the worker that
    /// owns its fingerprint.
    queues: Vec<VecDeque<Queued>>,
    /// Requests queued over all workers (what `max_queue` bounds).
    len: usize,
    /// Requests accepted so far.
    submitted: u64,
    draining: bool,
}

struct Shared {
    artifact: Arc<StagedArtifact>,
    store: Arc<CacheStore>,
    q: Mutex<QueueState>,
    /// One wake-up per worker, all under `q`.
    ready: Vec<Condvar>,
    cfg: DaemonConfig,
    counters: Arc<ServeCounters>,
    /// The §4.3 breakeven: pinned at start under [`Admission::After`],
    /// calibrated from the first submitted request under
    /// [`Admission::Auto`], never set under [`Admission::Always`].
    breakeven: OnceLock<Option<u32>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker that owns `fp`: `⌊fp · workers / 2⁶⁴⌋`, the fingerprint's
/// high bits. FNV-1a's low bit is the parity of the low bits of every byte
/// it hashed (its prime is odd), so contexts told apart by small integral
/// floats, whose low bytes are zero, would all share `fp % 2`.
fn owner(fp: u64, workers: usize) -> usize {
    ((u128::from(fp) * workers as u128) >> 64) as usize
}

type WorkerOut = (RunnerStats, Timing, Vec<RequestTrace>);

/// The online serving daemon. See the [module docs](self).
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<WorkerOut>>>,
}

impl Daemon {
    /// Starts `cfg.workers` worker threads over the shared artifact, store
    /// and optional write-ahead log, returning the daemon handle and the
    /// response channel. The channel disconnects when the last worker
    /// exits after [`Daemon::drain`] — the caller's end-of-stream signal.
    pub fn start(
        artifact: Arc<StagedArtifact>,
        store: Arc<CacheStore>,
        wal: Option<Arc<Wal>>,
        cfg: DaemonConfig,
    ) -> (Daemon, Receiver<DaemonResponse>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let workers = cfg.workers.max(1);
        let breakeven = OnceLock::new();
        if let Admission::After(n) = cfg.admission {
            let _ = breakeven.set(Some(n));
        }
        let shared = Arc::new(Shared {
            artifact,
            store,
            q: Mutex::new(QueueState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                len: 0,
                submitted: 0,
                draining: false,
            }),
            ready: (0..workers).map(|_| Condvar::new()).collect(),
            cfg,
            counters: Arc::new(ServeCounters::new()),
            breakeven,
        });
        let workers = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let wal = wal.clone();
                let tx = tx.clone();
                std::thread::spawn(move || worker(shared, w, wal, tx))
            })
            .collect();
        (
            Daemon {
                shared,
                workers: Mutex::new(workers),
            },
            rx,
        )
    }

    /// Pins the breakeven instead of calibrating (tests only: real
    /// artifacts in this language rarely produce the `None` = never-pays
    /// verdict naturally, but the daemon must honour it). Call before the
    /// first submit.
    #[cfg(test)]
    fn preseed_breakeven(&self, breakeven: Option<u32>) {
        self.shared
            .breakeven
            .set(breakeven)
            .expect("breakeven not yet calibrated");
    }

    /// Submits one request to the worker that owns its invariant
    /// fingerprint. `fault` optionally schedules a one-shot fault on that
    /// worker's session right before this request executes. Under
    /// [`Admission::Auto`] the first submit also calibrates the cost model
    /// on its arguments.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Draining`] once [`Daemon::drain`] has been called,
    /// [`RuntimeError::Overloaded`] when the bounded queue is full. A
    /// rejected request is *not* queued and will produce no response.
    pub fn submit(
        &self,
        seq: u64,
        args: Vec<Value>,
        fault: Option<(Fault, u64)>,
    ) -> Result<(), RuntimeError> {
        let shared = &*self.shared;
        if shared.cfg.admission == Admission::Auto {
            shared.breakeven.get_or_init(|| calibrate(shared, &args));
        }
        let fp = shared.artifact.inputs_fingerprint(&args);
        let w = owner(fp, shared.ready.len());
        let mut q = lock(&shared.q);
        if q.draining {
            shared.counters.note_drain_rejected();
            return Err(RuntimeError::Draining);
        }
        if q.len >= shared.cfg.max_queue {
            shared.counters.note_shed();
            return Err(RuntimeError::Overloaded {
                max_queue: shared.cfg.max_queue,
            });
        }
        q.submitted += 1;
        let tick = q.submitted;
        q.queues[w].push_back(Queued {
            seq,
            fp,
            tick,
            args,
            fault,
            enqueued: Instant::now(),
        });
        q.len += 1;
        shared.counters.note_admitted(q.len as u64);
        drop(q);
        shared.ready[w].notify_one();
        Ok(())
    }

    /// Closes admission: every later [`Daemon::submit`] is rejected with
    /// [`RuntimeError::Draining`], while already-queued and in-flight
    /// requests run to completion, after which the workers exit and the
    /// response channel disconnects. Idempotent.
    pub fn drain(&self) {
        lock(&self.shared.q).draining = true;
        for cv in &self.shared.ready {
            cv.notify_one();
        }
    }

    /// Drains (if not already draining) and waits for every worker to
    /// finish the remaining work, then merges their statistics, latency
    /// histograms and traces (keeping the per-worker parts too). Call
    /// after consuming the response channel — workers never block on it,
    /// so join cannot deadlock either way.
    pub fn join(&self) -> DaemonReport {
        self.drain();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        let mut stats = RunnerStats::default();
        let mut timing = Timing::new();
        let mut traces = Vec::new();
        let mut worker_stats = Vec::with_capacity(handles.len());
        let mut worker_timing = Vec::with_capacity(handles.len());
        for h in handles {
            let (ws, wt, wtr) = h.join().expect("daemon worker panicked");
            stats.merge(&ws);
            timing.merge(&wt);
            traces.extend(wtr);
            worker_stats.push(ws);
            worker_timing.push(wt);
        }
        traces.sort_by_key(|t| t.seq);
        DaemonReport {
            stats,
            timing,
            worker_stats,
            worker_timing,
            traces,
            counters: Arc::clone(&self.shared.counters),
            breakeven: self.shared.breakeven.get().copied(),
        }
    }
}

/// Dequeues worker `w`'s next request, waiting until its queue is empty
/// *and* the daemon is draining; `None` ends the worker.
fn dequeue(shared: &Shared, w: usize) -> Option<Queued> {
    let mut q = lock(&shared.q);
    loop {
        if let Some(req) = q.queues[w].pop_front() {
            q.len -= 1;
            shared.counters.note_dequeued(q.len as u64);
            return Some(req);
        }
        if q.draining {
            return None;
        }
        q = shared.ready[w]
            .wait(q)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Per-tick decay of a fingerprint's arrival score. A fingerprint arriving
/// on every tick saturates at `1/(1-ADMIT_DECAY)` = 10, so the score is
/// roughly "arrivals over the last ten ticks".
const ADMIT_DECAY: f64 = 0.9;

/// The saturation ceiling of the decayed score. Breakevens beyond it are
/// clamped: a fingerprint hot enough to arrive ten ticks running pays for
/// any loader eventually.
const ADMIT_SCORE_CAP: u32 = 10;

/// Exponentially-decaying arrival rates of the fingerprints one worker
/// owns: fingerprint → (score, tick of its last arrival). The clock is the
/// daemon-wide submission index — not wall time, not the serve order — so
/// admission is deterministic for a given submission order.
#[derive(Default)]
struct RateTable(HashMap<u64, (f64, u64)>);

impl RateTable {
    /// Records the arrival of `fp` submitted at `tick` and returns its
    /// decayed score.
    fn bump(&mut self, fp: u64, tick: u64) -> f64 {
        let (score, last) = self.0.entry(fp).or_insert((0.0, tick));
        *score = *score * ADMIT_DECAY.powf((tick - *last) as f64) + 1.0;
        *last = tick;
        *score
    }
}

/// Whether a request whose fingerprint scores `score` is served
/// specialized under a calibrated or pinned `breakeven`.
fn admit(breakeven: Option<u32>, score: f64) -> bool {
    match breakeven {
        // Specialization never pays: serve unspecialized forever.
        None => false,
        // Ceiling the decayed score makes a back-to-back burst behave like
        // the old arrival count (the k-th consecutive arrival scores in
        // (k-1, k] for k <= 10), while a fingerprint whose repeats are
        // spread thin never accumulates enough recent mass to pay.
        Some(b) => score.ceil() as u32 >= b.min(ADMIT_SCORE_CAP),
    }
}

/// Calibrates the §4.3 cost model by executing the original fragment, the
/// loader and the reader once each against a scratch session over a
/// *private* store (the shared store is never polluted). Abstract costs
/// are deterministic and engine-invariant, so one calibration serves the
/// daemon's lifetime. Any execution failure degrades to "specialize on
/// first use" — the staged lifecycle handles failures with typed errors.
fn calibrate(shared: &Shared, args: &[Value]) -> Option<u32> {
    let store = Arc::new(CacheStore::new(1));
    let mut scratch = Session::new(Arc::clone(&shared.artifact), store, shared.cfg.runner);
    let mut cost = |staged: bool| {
        let out = if staged {
            scratch.run(args)
        } else {
            scratch.run_unspecialized(args)
        };
        out.ok().map(|o| o.cost as f64)
    };
    // Operands evaluate left to right: original, then loader, then reader.
    match (cost(false), cost(true), cost(true)) {
        (Some(orig), Some(loader), Some(reader)) => breakeven_uses(orig, loader, reader),
        _ => Some(1),
    }
}

fn worker(
    shared: Arc<Shared>,
    w: usize,
    wal: Option<Arc<Wal>>,
    tx: Sender<DaemonResponse>,
) -> WorkerOut {
    let mut session = Session::new(
        Arc::clone(&shared.artifact),
        Arc::clone(&shared.store),
        shared.cfg.runner,
    );
    if let Some(wal) = wal {
        session.attach_wal(wal);
    }
    session.set_tracing(shared.cfg.tracing);
    let mut rates = RateTable::default();
    // Daemon-level latency overlay: queue wait for every request.
    let mut overlay = Timing::new();
    let mut traces: Vec<RequestTrace> = Vec::new();
    let deadline = shared.cfg.deadline_ms.map(Duration::from_millis);
    while let Some(req) = dequeue(&shared, w) {
        let queue_nanos = req.enqueued.elapsed().as_nanos() as u64;
        overlay.record_stage("queue", queue_nanos);
        // Deadline check at dequeue: a request that already waited out its
        // deadline in the queue is failed without executing at all.
        if let Some(d) = deadline.filter(|&d| req.enqueued.elapsed() > d) {
            shared.counters.note_deadline_missed();
            if shared.cfg.tracing {
                traces.push(RequestTrace {
                    seq: req.seq,
                    inputs_fp: req.fp,
                    outcome: RequestOutcome::Error,
                    total_nanos: queue_nanos,
                    stages: vec![("queue", queue_nanos)],
                });
            }
            let _ = tx.send(DaemonResponse {
                seq: req.seq,
                result: Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: d.as_millis() as u64,
                }),
                specialized: false,
                queue_nanos,
            });
            continue;
        }
        if let Some((fault, seed)) = req.fault {
            // Submitters validate applicability; an inapplicable fault is
            // dropped rather than poisoning the request — injections only
            // ever *degrade* service, never answers.
            let _ = session.inject(fault, seed);
        }
        // This worker is the only one serving `req.fp`, so a staged request
        // needs no coordination: the session loads on a miss and publishes
        // the sealed cache to the store.
        let specialized = match shared.breakeven.get() {
            Some(&breakeven) => admit(breakeven, rates.bump(req.fp, req.tick)),
            None => true,
        };
        let mut result = if specialized {
            shared.counters.note_staged_serve();
            session.run(&req.args)
        } else {
            shared.counters.note_unspec_serve();
            session.run_unspecialized(&req.args)
        };
        // Deadline check after execution: a complete answer that arrives
        // past the deadline is discarded — never partial, never late.
        if let Some(d) = deadline {
            if req.enqueued.elapsed() > d && result.is_ok() {
                shared.counters.note_deadline_missed();
                result = Err(RuntimeError::DeadlineExceeded {
                    deadline_ms: d.as_millis() as u64,
                });
            }
        }
        if shared.cfg.tracing {
            // Sessions stamp a local serve order; rebase each trace onto
            // the daemon-wide submission sequence as it is drained.
            for mut t in session.take_traces() {
                t.seq = req.seq;
                traces.push(t);
            }
        }
        let _ = tx.send(DaemonResponse {
            seq: req.seq,
            result,
            specialized,
            queue_nanos,
        });
    }
    let mut timing = session.timing().clone();
    timing.merge(&overlay);
    (session.stats().clone(), timing, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Policy;
    use ds_core::{specialize_source, InputPartition, SpecializeOptions};
    use ds_interp::{value_bits, Engine};
    use ds_telemetry::LatencyHist;

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
         float x2, float y2, float z2, float scale) {
        if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
        else { return -1.0; }
    }";

    fn dotprod_parts() -> (Arc<StagedArtifact>, Arc<CacheStore>) {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec =
            specialize_source(DOTPROD, "dotprod", &part, &SpecializeOptions::new()).expect("spec");
        (
            Arc::new(StagedArtifact::new(&spec, &part)),
            Arc::new(CacheStore::new(16)),
        )
    }

    fn argv_fixed(y1: f64, z1: f64, z2: f64) -> Vec<Value> {
        [1.0, y1, z1, 4.0, 5.0, z2, 2.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    }

    fn collect(rx: &Receiver<DaemonResponse>, n: usize) -> Vec<DaemonResponse> {
        (0..n)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("response"))
            .collect()
    }

    #[test]
    fn breakeven_matches_the_cost_model() {
        assert_eq!(breakeven_uses(100.0, 90.0, 10.0), Some(1), "cheap loader");
        // loader + (n-1)·reader <= n·orig  <=>  n >= (loader-reader)/(orig-reader)
        assert_eq!(breakeven_uses(100.0, 190.0, 10.0), Some(2));
        assert_eq!(breakeven_uses(100.0, 280.0, 10.0), Some(3));
        assert_eq!(breakeven_uses(100.0, 150.0, 120.0), None, "reader loses");
        assert_eq!(breakeven_uses(10.0, 1000.0, 9.0), Some(991));
        assert_eq!(
            breakeven_uses(19.0, 21.0, 16.0),
            Some(2),
            "dotprod's own costs"
        );
    }

    #[test]
    fn admission_strings_round_trip() {
        for a in [Admission::Always, Admission::Auto, Admission::After(3)] {
            assert_eq!(a.to_string().parse::<Admission>().unwrap(), a);
        }
        assert!("never".parse::<Admission>().is_err());
        assert!("0".parse::<Admission>().is_err());
    }

    #[test]
    fn daemon_answers_are_bit_exact_vs_solo_reference() {
        for engine in [Engine::Tree, Engine::Vm] {
            let (artifact, store) = dotprod_parts();
            let cfg = DaemonConfig {
                workers: 4,
                runner: RunnerOptions {
                    engine,
                    ..RunnerOptions::default()
                },
                ..DaemonConfig::default()
            };
            let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
            let reqs: Vec<Vec<Value>> = (0..32)
                .map(|i| argv_fixed(f64::from(i % 3), f64::from(i), f64::from(i + 1)))
                .collect();
            for (i, args) in reqs.iter().enumerate() {
                daemon.submit(i as u64, args.clone(), None).expect("submit");
            }
            let responses = collect(&rx, reqs.len());
            for r in &responses {
                let want = artifact
                    .reference(&reqs[r.seq as usize], cfg.runner.eval)
                    .expect("reference")
                    .value
                    .expect("value");
                let got = r
                    .result
                    .as_ref()
                    .expect("answered")
                    .value
                    .clone()
                    .expect("value");
                assert!(got.bits_eq(&want), "{engine:?} seq {}", r.seq);
            }
            let report = daemon.join();
            assert_eq!(report.stats.requests, 32);
            assert_eq!(report.counters.admitted(), 32);
            assert_eq!(report.counters.staged_serves(), 32);
        }
    }

    /// Liveness: under `Admission::Always`, every one of N <= capacity
    /// distinct contexts is loaded exactly once and every request is served
    /// staged and bit-exact — on every engine and worker count, however
    /// long the session lives.
    #[test]
    fn every_context_the_store_holds_is_loaded_once_and_never_falls_back() {
        let (artifact, _) = dotprod_parts();
        for (contexts, capacity) in [(16usize, 16usize), (5, 8)] {
            // Four rounds, interleaved: every request switches context.
            let reqs: Vec<Vec<Value>> = (0..4 * contexts)
                .map(|i| argv_fixed((i % contexts) as f64, i as f64, 1.0))
                .collect();
            for engine in [Engine::Tree, Engine::Vm, Engine::VmBatch] {
                for workers in [1, 2, 4] {
                    let ctx = format!("{contexts}/{capacity} {engine:?} x{workers}");
                    let cfg = DaemonConfig {
                        workers,
                        max_queue: reqs.len(),
                        admission: Admission::Always,
                        runner: RunnerOptions {
                            engine,
                            store_capacity: capacity,
                            ..RunnerOptions::default()
                        },
                        ..DaemonConfig::default()
                    };
                    let store = Arc::new(CacheStore::new(capacity));
                    let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
                    for (i, args) in reqs.iter().enumerate() {
                        daemon.submit(i as u64, args.clone(), None).expect("submit");
                    }
                    for r in collect(&rx, reqs.len()) {
                        let want = artifact
                            .reference(&reqs[r.seq as usize], cfg.runner.eval)
                            .expect("reference")
                            .value
                            .expect("value");
                        let got = r.result.expect("answered").value.expect("value");
                        assert!(got.bits_eq(&want), "{ctx} seq {}", r.seq);
                        assert!(r.specialized, "{ctx} seq {}", r.seq);
                    }
                    let report = daemon.join();
                    assert_eq!(report.stats.loads, contexts as u64, "{ctx}");
                    assert_eq!(report.stats.fallbacks(), 0, "{ctx}");
                    assert_eq!(report.stats.rebuilds(), 0, "{ctx}");
                }
            }
        }
    }

    /// FNV-1a's low bit is the parity of the low bits of every byte it
    /// hashed, so contexts told apart by small integral floats (whose low
    /// bytes are all zero) share `fp % 2`; routing on the high bits still
    /// spreads them over every worker.
    #[test]
    fn routing_spreads_contexts_that_share_the_low_fingerprint_bit() {
        let (artifact, _) = dotprod_parts();
        let fps: Vec<u64> = (2..17)
            .map(|y| artifact.inputs_fingerprint(&argv_fixed(f64::from(y), 0.0, 1.0)))
            .collect();
        assert!(fps.iter().all(|fp| fp % 2 == fps[0] % 2));
        for workers in [2, 4] {
            let mut owned = vec![0; workers];
            for &fp in &fps {
                owned[owner(fp, workers)] += 1;
            }
            assert!(owned.iter().all(|&n| n > 0), "x{workers}: {owned:?}");
        }
    }

    #[test]
    fn racing_first_requests_for_one_fingerprint_stage_once() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 8,
            max_queue: 64,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        // 32 concurrent requests, all the same invariant fingerprint:
        // dealt to any worker, up to 8 workers would each run the loader.
        for i in 0..32u64 {
            daemon
                .submit(i, argv_fixed(2.0, i as f64, 1.0), None)
                .expect("submit");
        }
        let responses = collect(&rx, 32);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        let report = daemon.join();
        assert_eq!(
            report.stats.loads, 1,
            "one fingerprint, one owning worker, one load"
        );
        assert_eq!(report.stats.requests, 32);
    }

    /// A request's arguments and its optional one-shot fault.
    type Request = (Vec<Value>, Option<(Fault, u64)>);

    /// One daemon run of `reqs` (all submitted up front): the
    /// `specialized` flag of every response in submission order, and the
    /// report.
    fn serve_stream(
        artifact: &Arc<StagedArtifact>,
        reqs: &[Request],
        cfg: DaemonConfig,
        preseed: Option<u32>,
    ) -> (Vec<bool>, DaemonReport) {
        let store = Arc::new(CacheStore::new(cfg.runner.store_capacity));
        let (daemon, rx) = Daemon::start(Arc::clone(artifact), store, None, cfg);
        if preseed.is_some() {
            daemon.preseed_breakeven(preseed);
        }
        for (i, (args, fault)) in reqs.iter().enumerate() {
            daemon
                .submit(i as u64, args.clone(), *fault)
                .expect("submit");
        }
        let mut flags = vec![false; reqs.len()];
        for r in collect(&rx, reqs.len()) {
            assert!(r.result.is_ok(), "seq {}: {:?}", r.seq, r.result);
            flags[r.seq as usize] = r.specialized;
        }
        (flags, daemon.join())
    }

    /// Serving is schedule-independent: a fingerprint's requests all go to
    /// the worker that owns it, in submission order, so neither stalls nor
    /// the worker count change what is staged, what each worker counts or
    /// which requests are served specialized.
    #[test]
    fn serving_is_schedule_independent() {
        let (artifact, _) = dotprod_parts();
        let contexts = 6;
        // Bursts of one to three requests per context in a scrambled
        // order, with a short stall on every 13th request to perturb the
        // workers' interleaving.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut reqs = Vec::new();
        while reqs.len() < 72 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ctx = (x % contexts) as f64;
            for _ in 0..1 + (x >> 8) % 3 {
                let i = reqs.len();
                let fault = (i % 13 == 5).then_some((Fault::Stall(2), 0));
                reqs.push((argv_fixed(ctx, i as f64, 1.0), fault));
            }
        }
        for engine in [Engine::Tree, Engine::Vm] {
            let mut auto_flags: Option<Vec<bool>> = None;
            for workers in [1, 2, 4] {
                let at = format!("{engine:?} x{workers}");
                let runner = RunnerOptions {
                    engine,
                    store_capacity: 8,
                    ..RunnerOptions::default()
                };
                for admission in [Admission::Always, Admission::Auto] {
                    let cfg = DaemonConfig {
                        workers,
                        max_queue: reqs.len(),
                        admission,
                        runner,
                        ..DaemonConfig::default()
                    };
                    let preseed = (admission == Admission::Auto).then_some(3);
                    let (flags, report) = serve_stream(&artifact, &reqs, cfg, preseed);
                    let (flags2, report2) = serve_stream(&artifact, &reqs, cfg, preseed);
                    assert_eq!(flags, flags2, "{at} {admission}");
                    assert_eq!(
                        report.worker_stats, report2.worker_stats,
                        "{at} {admission}"
                    );
                    let c = (&report.counters, &report2.counters);
                    assert_eq!(c.0.staged_serves(), c.1.staged_serves(), "{at}");
                    assert_eq!(c.0.unspec_serves(), c.1.unspec_serves(), "{at}");
                    assert_eq!(c.0.admitted(), c.1.admitted(), "{at}");
                    assert_eq!(
                        c.0.admitted(),
                        c.0.staged_serves() + c.0.unspec_serves(),
                        "{at} {admission}: no deadline, so every admitted request is served"
                    );
                    if admission == Admission::Auto {
                        assert!(flags.contains(&true) && flags.contains(&false), "{at}");
                        match &auto_flags {
                            None => auto_flags = Some(flags),
                            Some(one_worker) => assert_eq!(&flags, one_worker, "{at}"),
                        }
                        continue;
                    }
                    // The store holds every context, so each worker's
                    // statistics are exactly a solo session's over the
                    // requests routed to it.
                    if workers > 1 {
                        let busy = report.worker_stats.iter().filter(|s| s.requests > 0);
                        assert!(busy.count() > 1, "{at}: routing spreads the contexts");
                    }
                    for (w, stats) in report.worker_stats.iter().enumerate() {
                        let store = Arc::new(CacheStore::new(runner.store_capacity));
                        let mut solo = Session::new(Arc::clone(&artifact), store, runner);
                        for (args, fault) in &reqs {
                            if owner(artifact.inputs_fingerprint(args), workers) == w {
                                if let Some((f, seed)) = fault {
                                    solo.inject(*f, *seed).expect("latency fault");
                                }
                                solo.run(args).expect("solo request");
                            }
                        }
                        assert_eq!(stats, solo.stats(), "{at} worker {w}");
                    }
                    assert_eq!(report.stats.loads, contexts, "{at}");
                }
            }
        }
    }

    #[test]
    fn auto_admission_serves_below_breakeven_unspecialized() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            admission: Admission::Auto,
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        // Same fingerprint five times: the dotprod loader costs more than
        // one original run, so breakeven is >= 2 and the first arrival
        // must be served unspecialized.
        let args = argv_fixed(2.0, 3.0, 6.0);
        for i in 0..5u64 {
            daemon.submit(i, args.clone(), None).expect("submit");
        }
        let responses = collect(&rx, 5);
        let want = artifact
            .reference(&args, cfg.runner.eval)
            .unwrap()
            .value
            .unwrap();
        for r in &responses {
            assert!(r
                .result
                .as_ref()
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .bits_eq(&want));
        }
        assert!(
            !responses.iter().find(|r| r.seq == 0).unwrap().specialized,
            "first arrival is below breakeven"
        );
        assert!(
            responses.iter().any(|r| r.specialized),
            "later arrivals cross breakeven and specialize"
        );
        let report = daemon.join();
        let b = report.breakeven.expect("calibrated").expect("pays off");
        assert!(b >= 2, "dotprod's loader must cost more than one original");
        assert_eq!(report.counters.unspec_serves() as u32, b - 1);
        assert_eq!(report.counters.staged_serves() as u32, 5 - (b - 1));
        // Unspecialized serves have a trace outcome of their own, apart
        // from degradation fallbacks.
        let unspec = report
            .traces
            .iter()
            .filter(|t| t.outcome == RequestOutcome::Unspecialized)
            .count();
        assert_eq!(unspec as u32, b - 1);
        assert!(report
            .traces
            .iter()
            .all(|t| t.outcome != RequestOutcome::Fallback));
    }

    /// A fragment whose fixed `d` can make it raise a typed
    /// `DivideByZero`, and which calls `trace` on every run.
    const MIXED: &str = "float mixed(float k, int d, float x) {
        float acc = 0.0;
        int i = 0;
        while (i < 6) { acc = acc + sin(k * itof(i)) * x; i = i + 1; }
        trace(acc);
        return acc + cos(k) * itof(12 / d);
    }";

    /// One served request, reduced to what must not depend on the engine:
    /// the `specialized` flag, then value bits, cost and `trace` bits, or
    /// the typed error with its message.
    type Served = (
        bool,
        Result<((u64, u64), u64, Vec<u64>), (RuntimeError, String)>,
    );

    /// Serves `reqs` one at a time (each waits for its answer, so the
    /// queue depth and admission order are deterministic) through a
    /// one-worker `Admission::Auto` daemon with breakeven 3 on `engine`.
    fn serve_mixed(engine: Engine, reqs: &[Vec<Value>]) -> (Vec<Served>, DaemonReport) {
        let part = InputPartition::varying(["x"]);
        let spec =
            specialize_source(MIXED, "mixed", &part, &SpecializeOptions::new()).expect("spec");
        let artifact = Arc::new(StagedArtifact::new(&spec, &part));
        let cfg = DaemonConfig {
            admission: Admission::Auto,
            runner: RunnerOptions {
                engine,
                ..RunnerOptions::default()
            },
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, Arc::new(CacheStore::new(16)), None, cfg);
        daemon.preseed_breakeven(Some(3));
        let served = reqs
            .iter()
            .enumerate()
            .map(|(i, args)| {
                daemon.submit(i as u64, args.clone(), None).expect("submit");
                let r = collect(&rx, 1).pop().expect("one response");
                assert_eq!(r.seq, i as u64);
                let result = match &r.result {
                    Ok(out) => Ok((
                        value_bits(out.value.as_ref().expect("value")),
                        out.cost,
                        out.trace.iter().map(|t| t.to_bits()).collect(),
                    )),
                    Err(e) => Err((e.clone(), e.to_string())),
                };
                (r.specialized, result)
            })
            .collect();
        (served, daemon.join())
    }

    #[test]
    fn daemon_serves_identically_on_every_engine_under_auto_admission() {
        let req = |k: f64, d: i64, x: f64| vec![Value::Float(k), Value::Int(d), Value::Float(x)];
        // Hot context A crosses breakeven on its third back-to-back
        // arrival; one-shot B never does; E divides by zero, once cold
        // and then in a burst that stages it (the loader itself fails).
        let mut reqs = Vec::new();
        for x in 0..6 {
            reqs.push(req(0.5, 3, f64::from(x)));
        }
        reqs.push(req(1.5, 4, 2.0));
        reqs.push(req(0.5, 0, 1.0));
        reqs.push(req(0.5, 3, 9.0));
        for x in 0..3 {
            reqs.push(req(0.5, 0, f64::from(x)));
        }
        let (tree, tree_report) = serve_mixed(Engine::Tree, &reqs);
        assert!(tree.iter().any(|(spec, _)| *spec) && tree.iter().any(|(spec, _)| !*spec));
        assert!(tree.iter().any(|(spec, r)| !*spec && r.is_err()));
        assert!(tree.iter().any(|(spec, r)| *spec && r.is_err()));
        let shape = |report: &DaemonReport| -> Vec<(u64, RequestOutcome, Vec<&str>)> {
            report
                .traces
                .iter()
                .map(|t| (t.seq, t.outcome, t.stages.iter().map(|s| s.0).collect()))
                .collect()
        };
        for engine in [Engine::Vm, Engine::VmBatch] {
            let (served, report) = serve_mixed(engine, &reqs);
            for (i, (want, got)) in tree.iter().zip(&served).enumerate() {
                assert_eq!(want, got, "{engine:?} seq {i}");
            }
            assert_eq!(shape(&report), shape(&tree_report), "{engine:?}");
            assert_eq!(report.stats, tree_report.stats, "{engine:?}");
            assert_eq!(
                report.counters.to_json(),
                tree_report.counters.to_json(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn one_shot_and_sparse_fingerprints_stay_unadmitted_under_auto() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            admission: Admission::Auto,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        daemon.preseed_breakeven(Some(3));
        // A cold fingerprint recurring every 8th request, padded with
        // one-shot fingerprints. Under a lifetime arrival count its third
        // arrival would specialize; its decayed rate peaks at
        // 1 + 0.9^8 + 0.9^16 + 0.9^24 < 2, so it never pays.
        let mut submitted = 0u64;
        for round in 0..4u64 {
            daemon
                .submit(submitted, argv_fixed(2.0, 1.0, 1.0), None)
                .expect("submit");
            submitted += 1;
            for k in 0..7u64 {
                let y = 10.0 + (round * 7 + k) as f64;
                daemon
                    .submit(submitted, argv_fixed(y, 1.0, 1.0), None)
                    .expect("submit");
                submitted += 1;
            }
        }
        let responses = collect(&rx, submitted as usize);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        assert!(
            responses.iter().all(|r| !r.specialized),
            "neither one-shot nor sparse fingerprints reach the decayed breakeven"
        );
        // A back-to-back burst of a fresh fingerprint still crosses it.
        for i in 0..3u64 {
            daemon
                .submit(submitted + i, argv_fixed(99.0, 1.0, 1.0), None)
                .expect("submit");
        }
        let burst = collect(&rx, 3);
        assert!(
            !burst
                .iter()
                .find(|r| r.seq == submitted)
                .unwrap()
                .specialized
        );
        assert!(
            burst
                .iter()
                .find(|r| r.seq == submitted + 2)
                .unwrap()
                .specialized,
            "the third consecutive arrival scores ceil(2.71) = 3"
        );
        let report = daemon.join();
        assert_eq!(report.stats.loads, 1, "only the burst fingerprint staged");
        assert_eq!(report.counters.unspec_serves(), submitted + 2);
        assert_eq!(report.counters.staged_serves(), 1);
    }

    #[test]
    fn never_profitable_artifacts_are_never_specialized() {
        // A `None` breakeven (reader no cheaper than the original) means
        // specialization never pays; every request — however hot the
        // fingerprint gets — must be served unspecialized, correctly.
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            admission: Admission::Auto,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(Arc::clone(&artifact), store, None, cfg);
        daemon.preseed_breakeven(None);
        let args = argv_fixed(2.0, 3.0, 6.0);
        for i in 0..4u64 {
            daemon.submit(i, args.clone(), None).expect("submit");
        }
        let responses = collect(&rx, 4);
        let want = artifact
            .reference(&args, cfg.runner.eval)
            .unwrap()
            .value
            .unwrap();
        for r in &responses {
            assert!(!r.specialized);
            assert!(r
                .result
                .as_ref()
                .unwrap()
                .value
                .as_ref()
                .unwrap()
                .bits_eq(&want));
        }
        let report = daemon.join();
        assert_eq!(report.breakeven, Some(None), "never pays");
        assert_eq!(
            report.stats,
            RunnerStats::default(),
            "unspecialized serves are neither staged requests nor fallbacks"
        );
        assert_eq!(report.counters.unspec_serves(), 4);
    }

    #[test]
    fn stalled_requests_exceed_their_deadline_with_a_typed_error() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            deadline_ms: Some(20),
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        let args = argv_fixed(2.0, 3.0, 6.0);
        daemon
            .submit(0, args.clone(), Some((Fault::Stall(80), 0)))
            .expect("submit");
        let stalled = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(stalled.seq, 0);
        assert_eq!(
            stalled.result.as_ref().unwrap_err(),
            &RuntimeError::DeadlineExceeded { deadline_ms: 20 },
            "a late answer is discarded, never returned"
        );
        // A fresh request for the same fingerprint — already staged by the
        // stalled one — beats the deadline.
        daemon.submit(1, args.clone(), None).expect("submit");
        let ok = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(ok.seq, 1);
        assert!(ok.result.is_ok(), "{:?}", ok.result);
        let report = daemon.join();
        assert_eq!(report.counters.deadline_missed(), 1);
    }

    #[test]
    fn a_full_queue_sheds_with_a_typed_overload_error() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 1,
            max_queue: 2,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        // Wedge the single worker on a long stall, then flood the queue.
        daemon
            .submit(0, argv_fixed(2.0, 0.0, 1.0), Some((Fault::Stall(150), 0)))
            .expect("submit");
        let mut accepted = 1u64;
        let mut shed = 0u64;
        for i in 1..8u64 {
            match daemon.submit(i, argv_fixed(2.0, i as f64, 1.0), None) {
                Ok(()) => accepted += 1,
                Err(RuntimeError::Overloaded { max_queue }) => {
                    assert_eq!(max_queue, 2);
                    shed += 1;
                }
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
        assert!(shed > 0, "the bounded queue must shed under the flood");
        let responses = collect(&rx, accepted as usize);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        let report = daemon.join();
        assert_eq!(report.counters.shed(), shed);
        assert_eq!(report.counters.admitted(), accepted);
        assert_eq!(report.stats.requests, accepted);
        assert!(report.counters.peak_queue_depth() <= 2);
    }

    #[test]
    fn drain_finishes_queued_work_and_rejects_new_submits() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 2,
            max_queue: 16,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        for i in 0..8u64 {
            daemon
                .submit(i, argv_fixed(2.0, i as f64, 1.0), None)
                .expect("submit");
        }
        daemon.drain();
        assert_eq!(
            daemon.submit(99, argv_fixed(2.0, 9.0, 9.0), None),
            Err(RuntimeError::Draining),
            "post-drain submits are rejected, typed"
        );
        // Every admitted request still completes...
        let responses = collect(&rx, 8);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        // ...and the channel disconnects once the workers exit.
        assert!(rx.recv_timeout(Duration::from_secs(30)).is_err());
        let report = daemon.join();
        assert_eq!(report.stats.requests, 8);
        assert_eq!(report.counters.drain_rejected(), 1);
    }

    #[test]
    fn report_merges_queue_latency_and_rebased_traces() {
        let (artifact, store) = dotprod_parts();
        let cfg = DaemonConfig {
            workers: 2,
            tracing: true,
            ..DaemonConfig::default()
        };
        let (daemon, rx) = Daemon::start(artifact, store, None, cfg);
        for i in 0..6u64 {
            daemon
                .submit(i, argv_fixed(2.0, i as f64, 1.0), None)
                .expect("submit");
        }
        let _ = collect(&rx, 6);
        let report = daemon.join();
        assert_eq!(report.worker_stats.len(), 2);
        assert_eq!(report.worker_timing.len(), 2);
        let mut refolded = (RunnerStats::default(), Timing::new());
        for (ws, wt) in report.worker_stats.iter().zip(&report.worker_timing) {
            refolded.0.merge(ws);
            refolded.1.merge(wt);
        }
        assert_eq!(refolded.0, report.stats, "stats is the merge of its parts");
        assert_eq!(
            refolded.1, report.timing,
            "timing is the merge of its parts"
        );
        assert_eq!(report.traces.len(), 6);
        let seqs: Vec<u64> = report.traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5], "traces carry global seqs");
        assert_eq!(
            report.timing.stage("queue").map(LatencyHist::count),
            Some(6)
        );
        assert!(!report.timing.total.is_empty());
        // Policies that can fail fast still produce typed errors, so the
        // daemon invariant (answer or typed error) is engine-independent.
        assert_eq!(report.stats.requests, 6);
        let _ = Policy::FailFast;
    }
}
