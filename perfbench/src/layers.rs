//! The per-layer replay: a workload's own programs and requests replayed
//! through the public functions of one layer at a time, each call inside a
//! span recorded by this benchmark. Nothing here adds spans inside the
//! program; `SpecReport` phase spans and public counters are read as the
//! program reports them.

use crate::check::digest;
use crate::serve::{runner_options, LoopRun};
use crate::trace::{SpanId, Tracer};
use crate::workload::stage_options;
use ds_core::{specialize, InputPartition, Specialization};
use ds_interp::{compile, CacheBuf, CompiledProgram, EvalOptions, Outcome, Value, Vm};
use ds_lang::{parse_program, typecheck, Program};
use ds_runtime::{CacheStore, DaemonReport, Session, StagedArtifact, StoreEntry, Wal, WalOp};
use std::collections::HashMap;
use std::sync::Arc;

/// Lanes per `run_batch_soa` group.
pub const LANES: usize = 64;
/// Contexts whose requests form batch groups, at most.
const BATCH_GROUPS: usize = 16;
/// `Wal::checkpoint` calls after each store replay.
const CHECKPOINTS: usize = 3;

/// Counters and per-request samples gathered next to the spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub dependence_passes: Vec<f64>,
    pub caching_pops: Vec<f64>,
    pub cache_bytes: Vec<f64>,
    pub evictions: Vec<f64>,
    pub orig_cost: u64,
    pub reader_cost: u64,
    /// Engine time of the stage `Session::run` executed, summed, and the
    /// `Session::run` time it sat in.
    pub engine_ns: u64,
    pub session_ns: u64,
    pub session_stats: Vec<ds_runtime::RunnerStats>,
    pub store_gets: u64,
    pub store_hits: u64,
    pub store_clone_bytes: u64,
    pub store_evictions: u64,
    pub wal_appends: u64,
    pub daemon: DaemonTally,
}

/// Daemon-side tallies of one or more closed loops.
#[derive(Debug, Default)]
pub struct DaemonTally {
    pub completed: u64,
    pub specialized: u64,
    pub fallbacks: u64,
    pub unspecialized: u64,
    pub shed: u64,
    pub breakeven: Vec<f64>,
    /// Sampled (latency, queue wait) pairs, in ns.
    pub latency: Vec<(f64, f64)>,
}

impl DaemonTally {
    pub fn add(&mut self, run: &LoopRun, report: &DaemonReport) {
        self.completed += run.attempted - run.rejected;
        self.specialized += run.specialized_flags;
        self.fallbacks += report.stats.fallbacks();
        self.unspecialized += report.counters.unspec_serves();
        self.shed += report.counters.shed();
        // Not yet calibrated, or specialization never pays: 0.
        self.breakeven
            .push(report.breakeven.flatten().map_or(0.0, f64::from));
        self.latency.extend(run.latency_samples());
    }

    /// Completed requests served by the loader or reader: the `specialized`
    /// flags minus the session fallbacks among them.
    pub fn specialized_share(&self) -> f64 {
        (self.specialized - self.fallbacks.min(self.specialized)) as f64
            / self.completed.max(1) as f64
    }
}

fn phase_span_name(phase: &str) -> &'static str {
    match phase {
        "inline" => "analysis.inline",
        "normalize" => "analysis.normalize",
        "reassociate" => "analysis.reassociate",
        "dependence" => "analysis.dependence",
        "caching" => "analysis.caching",
        "limit" => "core.limit",
        "layout" => "core.layout",
        "split" => "core.split",
        _ => "core.other_phase",
    }
}

impl Replay {
    /// `parse_program` and `typecheck` of one program's source.
    pub fn parse(&mut self, source: &str, req: u64) -> Option<Program> {
        self.attempted += 1;
        let t = &mut self.tracer;
        let program = t
            .span("lang.parse", None, req, || parse_program(source))
            .ok();
        let checked = program
            .as_ref()
            .is_some_and(|p| t.span("lang.typecheck", None, req, || typecheck(p)).is_ok());
        if !checked {
            self.failed += 1;
        }
        program.filter(|_| checked)
    }

    /// `specialize` under both staging option sets, with the
    /// `SpecReport` phases laid end to end as child spans, and `compile` of
    /// each result. Returns the default-options specialization and its
    /// compiled program.
    pub fn specialize(
        &mut self,
        program: &Program,
        entry: &str,
        partition: &InputPartition,
        req: u64,
    ) -> Option<(Specialization, CompiledProgram)> {
        let mut first = None;
        for (i, opts) in stage_options().into_iter().enumerate() {
            self.attempted += 1;
            let t = &mut self.tracer;
            let id = t.open("core.specialize", None, req);
            let spec = specialize(program, entry, partition, &opts);
            t.close(id);
            let Ok(spec) = spec else {
                self.failed += 1;
                continue;
            };
            let mut at = t.spans()[id].start;
            for ph in &spec.report.phases {
                t.record(
                    phase_span_name(ph.name),
                    at,
                    at + ph.wall_nanos,
                    Some(id),
                    req,
                );
                at += ph.wall_nanos;
                match ph.name {
                    "dependence" => self.dependence_passes.push(ph.iterations as f64),
                    "caching" => self.caching_pops.push(ph.iterations as f64),
                    _ => {}
                }
            }
            if opts.cache_bound_bytes.is_some() {
                self.cache_bytes.push(f64::from(spec.cache_bytes()));
                self.evictions.push(spec.stats.evictions.len() as f64);
            }
            let staged = spec.as_program();
            let compiled = t.span("interp.compile", None, req, || compile(&staged));
            if i == 0 {
                first = Some((spec, compiled));
            }
        }
        first
    }

    /// Replays `reqs` (with reference digests `refs`) through `Vm::run`,
    /// `run_batch_soa`, `Session::run`, `CacheStore` with `Wal`, one layer
    /// at a time. `req_base` offsets the request ids on the spans.
    #[allow(clippy::too_many_arguments)]
    pub fn requests(
        &mut self,
        artifact: &Arc<StagedArtifact>,
        compiled: &CompiledProgram,
        reqs: &[&[Value]],
        refs: &[u64],
        store_capacity: usize,
        req_base: u64,
    ) {
        let fps: Vec<u64> = reqs
            .iter()
            .map(|a| artifact.inputs_fingerprint(a))
            .collect();
        let (engine, caches) = self.interp(artifact, compiled, reqs, refs, &fps, req_base);
        self.batch(artifact, compiled, reqs, refs, &fps, &caches, req_base);
        self.session(artifact, reqs, refs, &engine, store_capacity, req_base);
        self.store(artifact, &fps, &caches, store_capacity, req_base);
    }

    /// `Vm::run` of the original, the loader (into a fresh cache) and the
    /// reader (on the first cache loaded for the request's context).
    /// Returns per request the engine time of each stage and the warm
    /// caches by context.
    fn interp(
        &mut self,
        artifact: &StagedArtifact,
        compiled: &CompiledProgram,
        reqs: &[&[Value]],
        refs: &[u64],
        fps: &[u64],
        req_base: u64,
    ) -> (Vec<[u64; 3]>, HashMap<u64, CacheBuf>) {
        let entry = artifact.entry();
        let (loader, reader) = (format!("{entry}__loader"), format!("{entry}__reader"));
        let slots = artifact.layout().slot_count();
        let opts = EvalOptions::default();
        let mut vm = Vm::new();
        let mut caches: HashMap<u64, CacheBuf> = HashMap::new();
        let mut engine = Vec::with_capacity(reqs.len());
        let root = self.tracer.open("replay.interp", None, req_base);
        for (i, args) in reqs.iter().enumerate() {
            let req = req_base + i as u64;
            let t = &mut self.tracer;
            let (o, o_ns) = timed(t, "interp.original", root, req, || {
                vm.run(compiled, entry, args, None, opts)
            });
            let mut fresh = CacheBuf::new(slots);
            let (l, l_ns) = timed(t, "interp.loader", root, req, || {
                vm.run(compiled, &loader, args, Some(&mut fresh), opts)
            });
            let warm = caches.entry(fps[i]).or_insert(fresh);
            let (r, r_ns) = timed(t, "interp.reader", root, req, || {
                vm.run(compiled, &reader, args, Some(warm), opts)
            });
            engine.push([o_ns, l_ns, r_ns]);
            self.attempted += 3;
            for out in [&o, &l, &r] {
                if !matches_ref(out, refs[i]) {
                    self.failed += 1;
                }
            }
            if let (Ok(o), Ok(r)) = (&o, &r) {
                self.orig_cost += o.cost;
                self.reader_cost += r.cost;
            }
        }
        self.tracer.close(root);
        (engine, caches)
    }

    /// `run_batch_soa` of the reader over groups of [`LANES`] requests that
    /// share a context, on that context's warm cache.
    #[allow(clippy::too_many_arguments)]
    fn batch(
        &mut self,
        artifact: &StagedArtifact,
        compiled: &CompiledProgram,
        reqs: &[&[Value]],
        refs: &[u64],
        fps: &[u64],
        caches: &HashMap<u64, CacheBuf>,
        req_base: u64,
    ) {
        let reader = format!("{}__reader", artifact.entry());
        let mut contexts: Vec<u64> = Vec::new();
        let mut members: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &fp) in fps.iter().enumerate() {
            let list = members.entry(fp).or_default();
            if list.is_empty() {
                contexts.push(fp);
            }
            list.push(i);
        }
        let root = self.tracer.open("replay.batch", None, req_base);
        for (g, fp) in contexts.iter().take(BATCH_GROUPS).enumerate() {
            let list = &members[fp];
            let lanes: Vec<usize> = (0..LANES).map(|j| list[j % list.len()]).collect();
            let inputs: Vec<Vec<Value>> = lanes.iter().map(|&i| reqs[i].to_vec()).collect();
            let mut cache = caches[fp].clone();
            let outs = self
                .tracer
                .span("interp.batch", Some(root), req_base + g as u64, || {
                    compiled.run_batch_soa(
                        &reader,
                        &inputs,
                        Some(&mut cache),
                        EvalOptions::default(),
                    )
                });
            self.attempted += LANES as u64;
            for (out, &i) in outs.iter().zip(&lanes) {
                if !matches_ref(out, refs[i]) {
                    self.failed += 1;
                }
            }
        }
        self.tracer.close(root);
    }

    /// `StagedArtifact::inputs_fingerprint` and `Session::run` over a fresh
    /// store. The engine time of the stage each request took (loader on a
    /// load, original on a fallback, reader otherwise) is summed against
    /// the session time.
    fn session(
        &mut self,
        artifact: &Arc<StagedArtifact>,
        reqs: &[&[Value]],
        refs: &[u64],
        engine: &[[u64; 3]],
        store_capacity: usize,
        req_base: u64,
    ) {
        let store = Arc::new(CacheStore::new(store_capacity));
        let mut session = Session::new(Arc::clone(artifact), store, runner_options(store_capacity));
        let root = self.tracer.open("replay.session", None, req_base);
        for (i, args) in reqs.iter().enumerate() {
            let req = req_base + i as u64;
            let t = &mut self.tracer;
            t.span("session.fingerprint", Some(root), req, || {
                artifact.inputs_fingerprint(args)
            });
            let before = (session.stats().loads, session.stats().fallbacks());
            let (out, ns) = timed(t, "session.run", root, req, || session.run(args));
            let after = (session.stats().loads, session.stats().fallbacks());
            let stage = if after.1 > before.1 {
                0
            } else if after.0 > before.0 {
                1
            } else {
                2
            };
            self.engine_ns += engine[i][stage];
            self.session_ns += ns;
            self.attempted += 1;
            if !matches_ref(&out, refs[i]) {
                self.failed += 1;
            }
        }
        self.tracer.close(root);
        self.session_stats.push(session.stats().clone());
    }

    /// `CacheStore::get` over the requests' context sequence; on a miss,
    /// `CacheStore::insert` of the sealed warm cache and `Wal::append` of
    /// its `Install` record. Ends with `Wal::checkpoint`.
    fn store(
        &mut self,
        artifact: &StagedArtifact,
        fps: &[u64],
        caches: &HashMap<u64, CacheBuf>,
        store_capacity: usize,
        req_base: u64,
    ) {
        let store = CacheStore::new(store_capacity);
        let wal = Wal::in_memory(artifact.layout_fingerprint(), None);
        let slot_bytes = u64::from(artifact.layout().size_bytes());
        let root = self.tracer.open("replay.store", None, req_base);
        for (i, &fp) in fps.iter().enumerate() {
            let req = req_base + i as u64;
            let t = &mut self.tracer;
            self.store_gets += 1;
            if t.span("store.get", Some(root), req, || store.get(fp))
                .is_some()
            {
                self.store_hits += 1;
                self.store_clone_bytes += slot_bytes;
                continue;
            }
            let cache = caches[&fp].clone();
            let entry = StoreEntry {
                seal: cache.content_hash(),
                cache: cache.clone(),
            };
            self.store_evictions +=
                t.span("store.insert", Some(root), req, || store.insert(fp, entry));
            let op = WalOp::Install {
                inputs_fp: fp,
                cache,
            };
            self.attempted += 1;
            match t.span("wal.append", Some(root), req, || wal.append(&op)) {
                Ok(_) => self.wal_appends += 1,
                Err(_) => self.failed += 1,
            }
        }
        for k in 0..CHECKPOINTS {
            self.attempted += 1;
            let t = &mut self.tracer;
            if t.span("wal.checkpoint", Some(root), req_base + k as u64, || {
                wal.checkpoint(&store)
            })
            .is_err()
            {
                self.failed += 1;
            }
        }
        self.tracer.close(root);
    }
}

fn timed<T>(
    t: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let id = t.open(name, Some(parent), req);
    let out = f();
    t.close(id);
    let ns = t.spans()[id].nanos();
    (out, ns)
}

fn matches_ref<E>(out: &Result<Outcome, E>, want: u64) -> bool {
    out.as_ref().is_ok_and(|o| digest(o) == want)
}
