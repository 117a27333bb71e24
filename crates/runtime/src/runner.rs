//! Serving configuration and statistics: the degradation [`Policy`], the
//! [`RunnerOptions`] every [`Session`](crate::Session) is opened with, and
//! the [`RunnerStats`] it accumulates.
//!
//! A session owns everything the paper leaves implicit between "run the
//! loader once" and "run the reader per varying input": *when* the loader
//! must re-run (stale invariants, a mismatched or damaged cache), *how* a
//! damaged cache is detected before it can produce a wrong answer, and
//! *what* happens when staged execution fails at runtime. Callers build
//! the immutable [`StagedArtifact`](crate::StagedArtifact) and the
//! [`CacheStore`](crate::CacheStore) once, in [`Arc`](std::sync::Arc)s,
//! and open one session per worker over them.
//!
//! ## Lifecycle
//!
//! ```text
//!            ┌────────────────────────────────────────────────┐
//!            ▼                                                │
//!  Cold ──fetch (store hit, or loader run on each miss)──▶ Warm{inputs_fp, seal}
//!            │                                                │
//!            │ loader error → policy                          │ request
//!            ▼                                                ▼
//!        fallback / error            stale fp ──────────────▶ fetch
//!                                    validation failure ────▶ policy
//!                                    reader error ──────────▶ policy
//! ```
//!
//! A load *returns the loader's own outcome* — the loader computes the
//! result while filling the cache (the paper's protocol), so the first
//! request per invariant context costs one loader run, not loader+reader.
//! After a successful load the cache is **sealed** with its content hash
//! and published to the store keyed by the invariant-input fingerprint;
//! every warm request re-validates the seal (plus the write-fault shadow
//! and the structural length) before trusting the reader, so corruption is
//! caught as a typed [`IntegrityError`](crate::IntegrityError) — never
//! consumed silently.

use ds_interp::{Engine, EvalOptions, Profile};
use ds_telemetry::Json;
use std::fmt;
use std::str::FromStr;

/// What a session does when staged execution fails at runtime (reader
/// error, failed validation, failed loader).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Policy {
    /// Surface the typed error to the caller; never mask a failure.
    FailFast,
    /// Re-run the loader within the request — the reload serves it — and
    /// fall back to the unspecialized fragment if the reload itself fails
    /// or the session's `rebuild_budget` is spent.
    #[default]
    RebuildThenFallback,
    /// Serve the request by evaluating the unspecialized fragment directly;
    /// the damaged cache is discarded so the next request for its
    /// fingerprint reloads it through the ordinary miss path.
    FallbackToUnspecialized,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::FailFast => write!(f, "fail-fast"),
            Policy::RebuildThenFallback => write!(f, "rebuild"),
            Policy::FallbackToUnspecialized => write!(f, "fallback"),
        }
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail-fast" | "failfast" => Ok(Policy::FailFast),
            "rebuild" | "rebuild-then-fallback" => Ok(Policy::RebuildThenFallback),
            "fallback" | "unspecialized" => Ok(Policy::FallbackToUnspecialized),
            other => Err(format!(
                "unknown policy `{other}`; expected fail-fast, rebuild or fallback"
            )),
        }
    }
}

/// Configuration of a [`Session`](crate::Session).
#[derive(Debug, Clone, Copy)]
pub struct RunnerOptions {
    /// Which execution engine serves requests.
    pub engine: Engine,
    /// The degradation policy.
    pub policy: Policy,
    /// How many in-request rebuilds after damage ([`Policy::RebuildThenFallback`])
    /// a session may spend over its lifetime; loads on a miss never count.
    pub rebuild_budget: u32,
    /// Capacity callers give the polyvariant [`CacheStore`](crate::CacheStore)
    /// they build for their sessions (`dsc serve --store-capacity`). A
    /// session never reads it: the store it is opened over is already
    /// sized. One sealed cache is kept per invariant fingerprint, up to
    /// this many.
    pub store_capacity: usize,
    /// Engine options for every execution (step limit, profiling).
    pub eval: EvalOptions,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            engine: Engine::default(),
            policy: Policy::default(),
            rebuild_budget: 8,
            store_capacity: 16,
            eval: EvalOptions::default(),
        }
    }
}

/// Aggregate robustness statistics of one session.
///
/// The rebuild/fallback/validation-failure and store counters live on the
/// embedded telemetry [`Profile`] (and therefore in every metrics export);
/// this struct adds the lifecycle counters that only the runtime can
/// observe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Requests served (successfully or not).
    pub requests: u64,
    /// Loader executions, including the initial cold load.
    pub loads: u64,
    /// Fingerprint switches that missed the store and forced a reload.
    pub stale_reloads: u64,
    /// Reader executions that returned an `EvalError`.
    pub reader_failures: u64,
    /// Merged execution profile across every engine run the session issued
    /// (populated when [`EvalOptions::profile`] is on), carrying the
    /// `rebuilds` / `fallbacks` / `validation_failures` and
    /// `store_hits` / `store_misses` / `store_evictions` counters always.
    pub profile: Profile,
}

impl RunnerStats {
    /// In-request loader re-runs after damage (what `rebuild_budget` bounds).
    pub fn rebuilds(&self) -> u64 {
        self.profile.rebuilds
    }

    /// Requests served by the unspecialized fragment.
    pub fn fallbacks(&self) -> u64 {
        self.profile.fallbacks
    }

    /// Warm-cache validations that failed.
    pub fn validation_failures(&self) -> u64 {
        self.profile.validation_failures
    }

    /// Fingerprint switches served from the shared store.
    pub fn store_hits(&self) -> u64 {
        self.profile.store_hits
    }

    /// Fingerprint switches the store could not serve.
    pub fn store_misses(&self) -> u64 {
        self.profile.store_misses
    }

    /// Entries this session's publishes evicted from the store.
    pub fn store_evictions(&self) -> u64 {
        self.profile.store_evictions
    }

    /// Operations appended to the attached write-ahead log.
    pub fn wal_appends(&self) -> u64 {
        self.profile.wal_appends
    }

    /// Log records replayed during an adopted recovery.
    pub fn wal_replays(&self) -> u64 {
        self.profile.wal_replays
    }

    /// Sealed caches installed from recovery instead of a loader run.
    pub fn recovered_caches(&self) -> u64 {
        self.profile.recovered_caches
    }

    /// Accumulates `other` into `self`, field-wise; like
    /// [`Profile::merge`] this is associative and commutative, so merging
    /// per-worker stats in worker order is deterministic.
    pub fn merge(&mut self, other: &RunnerStats) {
        self.requests += other.requests;
        self.loads += other.loads;
        self.stale_reloads += other.stale_reloads;
        self.reader_failures += other.reader_failures;
        self.profile.merge(&other.profile);
    }

    /// Serializes the statistics (and embedded profile) as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("requests", Json::from(self.requests)),
            ("loads", Json::from(self.loads)),
            ("stale_reloads", Json::from(self.stale_reloads)),
            ("reader_failures", Json::from(self.reader_failures)),
            ("rebuilds", Json::from(self.rebuilds())),
            ("fallbacks", Json::from(self.fallbacks())),
            (
                "validation_failures",
                Json::from(self.validation_failures()),
            ),
            ("store_hits", Json::from(self.store_hits())),
            ("store_misses", Json::from(self.store_misses())),
            ("store_evictions", Json::from(self.store_evictions())),
            ("wal_appends", Json::from(self.wal_appends())),
            ("wal_replays", Json::from(self.wal_replays())),
            ("recovered_caches", Json::from(self.recovered_caches())),
            ("profile", self.profile.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheStore, Fault, Session, StagedArtifact};
    use ds_core::{specialize_source, InputPartition, SpecializeOptions};
    use ds_interp::Value;
    use std::sync::Arc;

    const DOTPROD: &str = "float dotprod(float x1, float y1, float z1,
                                         float x2, float y2, float z2, float scale) {
        if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
        else { return -1.0; }
    }";

    fn dotprod_runner(opts: RunnerOptions) -> Session {
        let part = InputPartition::varying(["z1", "z2"]);
        let spec = specialize_source(DOTPROD, "dotprod", &part, &SpecializeOptions::new())
            .expect("specialize");
        Session::new(
            Arc::new(StagedArtifact::new(&spec, &part)),
            Arc::new(CacheStore::new(opts.store_capacity)),
            opts,
        )
    }

    fn argv(z1: f64, z2: f64) -> Vec<Value> {
        [1.0, 2.0, z1, 4.0, 5.0, z2, 2.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    }

    fn argv_fixed(y1: f64, z1: f64, z2: f64) -> Vec<Value> {
        [1.0, y1, z1, 4.0, 5.0, z2, 2.0]
            .iter()
            .map(|&x| Value::Float(x))
            .collect()
    }

    #[test]
    fn warm_requests_use_the_reader_and_match_reference() {
        for engine in [Engine::Tree, Engine::Vm] {
            let mut r = dotprod_runner(RunnerOptions {
                engine,
                ..RunnerOptions::default()
            });
            assert!(!r.is_warm());
            for (i, z) in [3.0, 6.0, 9.0].iter().enumerate() {
                let args = argv(*z, *z + 1.0);
                let want = r.reference(&args).expect("reference").value;
                let got = r.run(&args).expect("run").value;
                assert_eq!(got, want, "{engine:?} request {i}");
            }
            assert!(r.is_warm());
            assert_eq!(r.stats().requests, 3);
            assert_eq!(r.stats().loads, 1, "one cold load, then reader hits");
            assert_eq!(r.stats().rebuilds(), 0);
        }
    }

    #[test]
    fn stale_invariants_trigger_a_transparent_rebuild() {
        let mut r = dotprod_runner(RunnerOptions {
            // One store entry: a fingerprint switch must rebuild, exactly
            // like the pre-store runner.
            store_capacity: 1,
            ..RunnerOptions::default()
        });
        r.run(&argv_fixed(2.0, 3.0, 6.0)).expect("cold");
        r.run(&argv_fixed(2.0, 4.0, 7.0)).expect("warm");
        // The fixed input y1 changes: the cache is stale.
        let args = argv_fixed(9.0, 3.0, 6.0);
        let want = r.reference(&args).unwrap().value;
        let got = r.run(&args).expect("rebuild").value;
        assert_eq!(got, want);
        assert_eq!(r.stats().stale_reloads, 1);
        assert_eq!(r.stats().rebuilds(), 0, "a miss loads; it is no rebuild");
        assert_eq!(r.stats().loads, 2);
        assert_eq!(r.stats().store_evictions(), 1, "capacity 1 evicted y1=2");
        // And the rebuilt cache serves reads again.
        let args = argv_fixed(9.0, 5.0, 5.0);
        assert_eq!(
            r.run(&args).unwrap().value,
            r.reference(&args).unwrap().value
        );
        assert_eq!(r.stats().loads, 2);
    }

    #[test]
    fn revisited_invariants_hit_the_store_instead_of_reloading() {
        let mut r = dotprod_runner(RunnerOptions::default());
        // Two invariant contexts, interleaved: y1=2 and y1=9.
        for &(y1, z) in &[(2.0, 3.0), (9.0, 4.0), (2.0, 5.0), (9.0, 6.0), (2.0, 7.0)] {
            let args = argv_fixed(y1, z, z + 1.0);
            let want = r.reference(&args).unwrap().value;
            assert_eq!(r.run(&args).expect("run").value, want);
        }
        // One load per distinct fingerprint; every revisit is a store hit.
        assert_eq!(r.stats().loads, 2);
        assert_eq!(r.stats().store_hits(), 3);
        assert_eq!(r.stats().store_misses(), 2);
        assert_eq!(r.stats().stale_reloads, 1, "only the first switch missed");
        assert_eq!(r.stats().rebuilds(), 0, "y1=9 was a miss, not a rebuild");
        assert_eq!(r.stats().store_evictions(), 0);
    }

    #[test]
    fn zero_rebuild_budget_still_loads_every_miss() {
        let mut r = dotprod_runner(RunnerOptions {
            rebuild_budget: 0,
            ..RunnerOptions::default()
        });
        // The budget never gates a miss: 20 fingerprints, 20 loads.
        for y1 in 0..20 {
            let args = argv_fixed(f64::from(y1), 1.0, 2.0);
            let got = r.run(&args).expect("load").value;
            assert_eq!(got, r.reference(&args).unwrap().value);
        }
        assert_eq!(r.stats().loads, 20);
        assert_eq!(r.stats().fallbacks(), 0);
        assert_eq!(r.stats().rebuilds(), 0);

        // It bounds only the in-request rebuild after damage: with none
        // to spend, the damaged request is served by fallback...
        r.inject(Fault::CorruptSlot, 1).unwrap();
        let args = argv_fixed(20.0, 1.0, 2.0);
        r.run(&args).expect("load writes a corrupted slot");
        let got = r.run(&args).expect("fallback").value;
        assert_eq!(got, r.reference(&args).unwrap().value);
        assert_eq!(r.stats().validation_failures(), 1);
        assert_eq!(r.stats().fallbacks(), 1);
        assert_eq!(r.stats().rebuilds(), 0);
        assert_eq!(r.stats().loads, 21);
        // ...and the next request reloads through the miss path.
        r.run(&args).expect("reload");
        assert_eq!(r.stats().loads, 22);
        assert_eq!(r.stats().fallbacks(), 1);
    }

    #[test]
    fn cache_file_round_trip_resumes_warm() {
        let mut r = dotprod_runner(RunnerOptions::default());
        let args = argv(3.0, 6.0);
        r.run(&args).expect("cold");
        let text = r.save_cache_text().expect("warm cache serializes");

        let mut fresh = dotprod_runner(RunnerOptions::default());
        fresh.load_cache_text(&text).expect("adopt");
        assert!(fresh.is_warm());
        let got = fresh.run(&args).expect("warm from file").value;
        assert_eq!(got, fresh.reference(&args).unwrap().value);
        assert_eq!(fresh.stats().loads, 0, "no loader run was needed");
    }

    #[test]
    fn store_bundle_round_trip_serves_every_fingerprint_without_loading() {
        let mut r = dotprod_runner(RunnerOptions::default());
        let contexts = [(2.0, 3.0), (9.0, 4.0), (5.0, 5.0)];
        for &(y1, z) in &contexts {
            r.run(&argv_fixed(y1, z, z + 1.0)).expect("warmup");
        }
        assert_eq!(r.stats().loads, 3);
        let text = r.save_store_text().expect("bundle");

        let mut fresh = dotprod_runner(RunnerOptions::default());
        fresh.load_cache_text(&text).expect("adopt bundle");
        for &(y1, z) in &contexts {
            let args = argv_fixed(y1, z + 2.0, z);
            let got = fresh.run(&args).expect("from store").value;
            assert_eq!(got, fresh.reference(&args).unwrap().value);
        }
        assert_eq!(fresh.stats().loads, 0, "every context came from the file");
        assert_eq!(fresh.stats().store_hits(), 3);
    }

    #[test]
    fn cold_runner_has_no_cache_text() {
        let r = dotprod_runner(RunnerOptions::default());
        assert_eq!(r.save_cache_text(), None);
        assert_eq!(r.save_store_text(), None);
    }

    #[test]
    fn profile_merges_across_stages_when_enabled() {
        let mut r = dotprod_runner(RunnerOptions {
            eval: EvalOptions {
                profile: true,
                ..EvalOptions::default()
            },
            ..RunnerOptions::default()
        });
        r.run(&argv(3.0, 6.0)).unwrap();
        r.run(&argv(4.0, 7.0)).unwrap();
        let p = &r.stats().profile;
        assert!(p.cache_writes > 0, "loader wrote slots");
        assert!(p.cache_reads > 0, "reader read slots");
        assert_eq!(p.rebuilds, 0);
        // The stats export carries the robustness counters.
        let doc = r.stats().to_json();
        assert_eq!(doc.get("requests").unwrap().as_u64(), Some(2));
        assert!(doc
            .get("profile")
            .unwrap()
            .get("validation_failures")
            .is_some());
        assert!(doc.get("store_hits").is_some());
    }

    #[test]
    fn runner_stats_merge_matches_per_field_sums() {
        let mut r1 = dotprod_runner(RunnerOptions::default());
        let mut r2 = dotprod_runner(RunnerOptions::default());
        r1.run(&argv(3.0, 6.0)).unwrap();
        r2.run(&argv_fixed(9.0, 1.0, 2.0)).unwrap();
        r2.run(&argv_fixed(8.0, 1.0, 2.0)).unwrap();
        let mut merged = r1.stats().clone();
        merged.merge(r2.stats());
        assert_eq!(merged.requests, 3);
        assert_eq!(merged.loads, 3);
        assert_eq!(
            merged.profile.store_misses,
            r1.stats().profile.store_misses + r2.stats().profile.store_misses
        );
    }

    #[test]
    fn timing_records_every_request_and_stays_out_of_stats() {
        let mut r = dotprod_runner(RunnerOptions::default());
        r.set_tracing(true);
        r.run(&argv(3.0, 6.0)).unwrap(); // cold load
        r.run(&argv(4.0, 7.0)).unwrap(); // warm read
        r.run(&argv_fixed(9.0, 3.0, 6.0)).unwrap(); // fp switch: miss + load
        let t = r.timing().clone();
        assert_eq!(t.total.count(), 3, "one end-to-end sample per request");
        assert_eq!(t.stage("load").unwrap().count(), 2);
        assert_eq!(t.stage("read").unwrap().count(), 1);
        assert_eq!(t.stage("store_probe").unwrap().count(), 2);
        assert_eq!(t.stage("validate").unwrap().count(), 1);
        // The stats export carries no timing: wall time is nondeterministic
        // and the parity suites require stats to be engine-invariant.
        let doc = r.stats().to_json().pretty();
        assert!(!doc.contains("nanos"), "timing leaked into stats: {doc}");

        let traces = r.take_traces();
        let outcomes: Vec<_> = traces.iter().map(|t| t.outcome.as_str()).collect();
        assert_eq!(outcomes, ["load", "warm", "load"]);
        assert_eq!(traces[1].seq, 1);
        assert!(traces[1].stages.iter().any(|(s, _)| *s == "read"));
        assert!(r.take_traces().is_empty(), "take drains");
        // Timing round-trips through JSON losslessly.
        let back = ds_telemetry::Timing::from_json(&t.to_json()).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn policy_round_trips_through_strings() {
        for p in [
            Policy::FailFast,
            Policy::RebuildThenFallback,
            Policy::FallbackToUnspecialized,
        ] {
            assert_eq!(p.to_string().parse::<Policy>().unwrap(), p);
        }
        assert!("yolo".parse::<Policy>().is_err());
    }
}
