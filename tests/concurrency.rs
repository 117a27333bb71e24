//! Concurrency suite: parallel serving over one shared artifact + store.
//!
//! The guarantees under test: a multi-worker [`Daemon`] serving a
//! mixed-invariant request stream — its workers' [`Session`]s sharing one
//! `Arc<StagedArtifact>` and one polyvariant [`CacheStore`] — produces
//! exactly the answers the single-threaded reference produces, loads each
//! context once, and reports merged statistics and latency that are the
//! exact merge of the per-worker parts; and fault injection in one of
//! several sessions sharing a store can damage *that session's* requests
//! into typed errors but never tears the shared cache into a silently
//! wrong value anywhere.

#[path = "common/paper.rs"]
#[allow(dead_code)]
mod paper;

use ds_core::{specialize_source, InputPartition, SpecializeOptions};
use ds_interp::{Engine, EvalOptions, Value};
use ds_runtime::{
    Admission, CacheStore, Daemon, DaemonConfig, DaemonReport, Fault, Policy, RunnerOptions,
    RunnerStats, Session, StagedArtifact,
};
use ds_telemetry::Json;
use std::sync::Arc;

const ENGINES: [Engine; 2] = [Engine::Tree, Engine::Vm];

/// Shared fixture: the dotprod artifact plus a request stream interleaving
/// `contexts` invariant contexts (fixed inputs differ per context, varying
/// inputs differ every request).
fn artifact() -> Arc<StagedArtifact> {
    let part = InputPartition::varying(["z1", "z2"]);
    let spec = specialize_source(
        paper::DOTPROD_SRC,
        "dotprod",
        &part,
        &SpecializeOptions::new(),
    )
    .expect("specialize dotprod");
    Arc::new(StagedArtifact::new(&spec, &part))
}

fn mixed_stream(requests: usize, contexts: usize) -> Vec<Vec<Value>> {
    (0..requests)
        .map(|i| {
            let ctx = (i % contexts) as f64;
            vec![
                Value::Float(1.0 + ctx),
                Value::Float(2.0 + ctx),
                Value::Float(i as f64),
                Value::Float(4.0),
                Value::Float(5.0),
                Value::Float(0.5 * i as f64 + 1.0),
                Value::Float(2.0),
            ]
        })
        .collect()
}

fn opts_for(engine: Engine, capacity: usize) -> RunnerOptions {
    RunnerOptions {
        engine,
        policy: Policy::RebuildThenFallback,
        store_capacity: capacity,
        eval: EvalOptions {
            profile: true,
            ..EvalOptions::default()
        },
        ..RunnerOptions::default()
    }
}

/// Asserts a served value is bit-exact with the reference's.
fn assert_bit_exact(got: &Option<Value>, want: &Option<Value>) {
    match (got, want) {
        (Some(g), Some(w)) => assert!(g.bits_eq(w), "SILENT WRONG VALUE: got {g}, reference {w}"),
        _ => assert_eq!(got, want, "value presence diverged"),
    }
}

/// Serves `stream` through a daemon with `workers` workers over `store`
/// (admission `always`, a queue as long as the stream), checking every
/// answer against the tree-walked reference; returns the answers in
/// request order and the daemon's report.
fn serve_parallel(
    art: &Arc<StagedArtifact>,
    store: &Arc<CacheStore>,
    stream: &[Vec<Value>],
    workers: usize,
    opts: RunnerOptions,
) -> (Vec<Option<Value>>, DaemonReport) {
    let cfg = DaemonConfig {
        workers,
        max_queue: stream.len(),
        admission: Admission::Always,
        runner: opts,
        ..DaemonConfig::default()
    };
    let (daemon, rx) = Daemon::start(Arc::clone(art), Arc::clone(store), None, cfg);
    for (seq, args) in stream.iter().enumerate() {
        daemon
            .submit(seq as u64, args.clone(), None)
            .expect("submit");
    }
    daemon.drain();
    let mut answers = vec![None; stream.len()];
    for r in rx {
        let args = &stream[r.seq as usize];
        let want = art.reference(args, opts.eval).expect("reference").value;
        let got = r.result.expect("fault-free request").value;
        assert_bit_exact(&got, &want);
        answers[r.seq as usize] = got;
    }
    (answers, daemon.join())
}

/// Asserts `merged` is the field-wise sum of `parts` for every numeric
/// field, recursing through nested objects (the profile).
fn assert_fieldwise_sum(merged: &Json, parts: &[&Json], path: &str) {
    match merged {
        Json::Num(m) => {
            let sum: f64 = parts.iter().filter_map(|p| p.as_f64()).sum();
            assert_eq!(*m, sum, "{path}: merged {m} != sum {sum}");
        }
        Json::Obj(fields) => {
            for (key, val) in fields {
                let sub: Vec<&Json> = parts
                    .iter()
                    .map(|p| p.get(key).unwrap_or_else(|| panic!("{path}.{key} missing")))
                    .collect();
                assert_fieldwise_sum(val, &sub, &format!("{path}.{key}"));
            }
        }
        _ => {}
    }
}

#[test]
fn parallel_mixed_streams_match_the_single_threaded_reference() {
    let art = artifact();
    let stream = mixed_stream(240, 5);
    for engine in ENGINES {
        let opts = opts_for(engine, 8);
        // Single-threaded reference serving (one session, same store type).
        let solo_store = Arc::new(CacheStore::new(8));
        let mut solo = Session::new(Arc::clone(&art), Arc::clone(&solo_store), opts);
        let expected: Vec<Option<Value>> = stream
            .iter()
            .map(|args| solo.run(args).expect("solo request").value)
            .collect();

        let store = Arc::new(CacheStore::new(8));
        let (answers, report) = serve_parallel(&art, &store, &stream, 4, opts);
        for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
            match (got, want) {
                (Some(g), Some(w)) => {
                    assert!(g.bits_eq(w), "{engine:?} request {i}: {g} != {w}")
                }
                _ => assert_eq!(got, want, "{engine:?} request {i} presence"),
            }
        }
        let merged = &report.stats;
        assert_eq!(merged.requests, 240, "{engine:?}");
        // Polyvariance plus routing: each context has one owning worker,
        // which loads it once; revisits are store hits or warm serves.
        assert_eq!(merged.loads, 5, "{engine:?}");
        assert_eq!(
            merged.store_evictions(),
            0,
            "{engine:?}: capacity covers all contexts"
        );
        // Merged stats are exactly the field-wise sum of per-worker stats.
        // A worker that owns no context served nothing and counts nothing
        // (its profile maps are empty, so it is left out of the sum).
        let (busy, idle): (Vec<&RunnerStats>, Vec<&RunnerStats>) =
            report.worker_stats.iter().partition(|s| s.requests > 0);
        assert!(busy.len() > 1, "{engine:?}: routing spreads the contexts");
        for s in idle {
            assert_eq!(s, &RunnerStats::default(), "{engine:?}");
        }
        let parts: Vec<Json> = busy.into_iter().map(RunnerStats::to_json).collect();
        let part_refs: Vec<&Json> = parts.iter().collect();
        assert_fieldwise_sum(&merged.to_json(), &part_refs, "stats");
    }
}

#[test]
fn eviction_pressure_at_capacity_one_stays_correct_and_counts() {
    let art = artifact();
    let stream = mixed_stream(160, 4);
    for engine in ENGINES {
        let store = Arc::new(CacheStore::new(1));
        let (answers, report) = serve_parallel(&art, &store, &stream, 4, opts_for(engine, 1));
        assert!(
            answers.iter().all(Option::is_some),
            "{engine:?}: every request answered"
        );
        let merged = &report.stats;
        // Four contexts thrash a one-entry store: the old single-entry
        // rebuild behavior, with the churn counted as evictions.
        assert!(
            merged.store_evictions() > 0,
            "{engine:?}: thrash must be counted"
        );
        assert!(store.len() <= 1, "{engine:?}: capacity bound held");
    }
}

#[test]
fn faults_in_one_worker_never_tear_the_shared_store() {
    let art = artifact();
    let stream = mixed_stream(80, 2);
    for engine in ENGINES {
        for fault in Fault::MEMORY_FAULTS {
            for policy in [Policy::FailFast, Policy::RebuildThenFallback] {
                let opts = RunnerOptions {
                    policy,
                    ..opts_for(engine, 4)
                };
                let store = Arc::new(CacheStore::new(4));
                // Four sessions share the store, each serving a contiguous
                // chunk of the stream (so two of them serve each context).
                // Session 0 carries the fault; sessions 1-3 are bystanders
                // that may pull a damaged published entry from the store —
                // validation must catch it (typed error or transparent
                // rebuild), never serve it. Every success is checked
                // against the reference oracle.
                let served: usize = std::thread::scope(|scope| {
                    let handles: Vec<_> = stream
                        .chunks(stream.len() / 4)
                        .enumerate()
                        .map(|(w, batch)| {
                            let mut session =
                                Session::new(Arc::clone(&art), Arc::clone(&store), opts);
                            if w == 0 {
                                session.inject(fault, 7).expect("memory fault");
                            }
                            scope.spawn(move || {
                                batch
                                    .iter()
                                    .filter(|args| {
                                        let want = session.reference(args).expect("oracle").value;
                                        // Typed by construction; the policy
                                        // decides whether errors are allowed.
                                        let got = session.run(args).map(|out| out.value);
                                        got.map(|got| assert_bit_exact(&got, &want)).is_ok()
                                    })
                                    .count()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker panicked"))
                        .sum()
                });
                match policy {
                    Policy::RebuildThenFallback => assert_eq!(
                        served,
                        stream.len(),
                        "{engine:?} {fault} {policy:?}: rebuild policy must heal every request"
                    ),
                    _ => assert!(
                        served >= stream.len() - 4,
                        "{engine:?} {fault} {policy:?}: at most the faulted request per worker may fail, {served}/{} served",
                        stream.len()
                    ),
                }
                // Afterwards the store only holds entries that validate: a
                // fresh session served from it must agree with the
                // reference on every context.
                let mut probe = Session::new(Arc::clone(&art), Arc::clone(&store), opts);
                for args in stream.iter().take(2) {
                    let want = probe.reference(args).expect("oracle").value;
                    let got = probe.run(args).expect("post-fault probe").value;
                    assert_bit_exact(&got, &want);
                }
            }
        }
    }
}

/// The acceptance contract of the serve envelope's `latency` section:
/// the daemon's merged `Timing` is the *exact* bucket-wise merge of the
/// per-worker histograms — independent of fold order, and reconstructible
/// from the serialized `worker_latency` parts alone.
#[test]
fn merged_latency_is_the_exact_merge_of_worker_histograms() {
    let art = artifact();
    let stream = mixed_stream(96, 4);
    let store = Arc::new(CacheStore::new(8));
    let (_, report) = serve_parallel(&art, &store, &stream, 3, opts_for(Engine::Tree, 8));
    let timings = &report.worker_timing;
    assert_eq!(timings.len(), 3);

    // Merge exactly as the daemon does (worker order)...
    let mut merged = ds_telemetry::Timing::default();
    for t in timings {
        merged.merge(t);
    }
    assert_eq!(
        merged, report.timing,
        "the report's merge is the worker merge"
    );
    // ...and in reverse order: bucket-wise addition must not care.
    let mut reversed = ds_telemetry::Timing::default();
    for t in timings.iter().rev() {
        reversed.merge(t);
    }
    assert_eq!(merged, reversed, "merge must be order-independent");

    // Every request lands in exactly one worker's end-to-end and queue
    // histograms, and the merged counts are the per-worker sums, stage by
    // stage.
    assert_eq!(merged.total.count(), stream.len() as u64);
    assert_eq!(
        merged.stage("queue").map(|h| h.count()),
        Some(stream.len() as u64)
    );
    assert_eq!(
        merged.total.count(),
        timings.iter().map(|t| t.total.count()).sum::<u64>()
    );
    for (stage, hist) in &merged.stages {
        let sum: u64 = timings
            .iter()
            .filter_map(|t| t.stage(stage))
            .map(|h| h.count())
            .sum();
        assert_eq!(
            hist.count(),
            sum,
            "stage `{stage}` count is not the worker sum"
        );
    }
    assert_eq!(
        merged.total.max(),
        timings.iter().map(|t| t.total.max()).max().unwrap_or(0)
    );

    // The envelope's `latency` section must be reconstructible from its
    // serialized `worker_latency` parts alone — the exact merge, through
    // the JSON round-trip `dsc report` consumes.
    let mut refolded = ds_telemetry::Timing::default();
    for t in timings {
        let part = ds_telemetry::Timing::from_json(&t.to_json()).expect("worker round trip");
        refolded.merge(&part);
    }
    assert_eq!(
        refolded, merged,
        "latency section is not the exact merge of the serialized worker histograms"
    );
}
