//! Parallel-serving scaling — throughput vs worker count for request
//! streams mixing different numbers of invariant contexts. Every cell is
//! checked against the single-threaded reference before its throughput is
//! reported, so the table cannot trade correctness for speed.
//!
//! Alongside the tables the run writes `BENCH_serve.json` (path via
//! `--out PATH`): a `ds-telemetry` envelope bundling the scaling cells,
//! the rebuild-overhead points, and the WAL-on vs WAL-off durability
//! overhead, so CI can track serving throughput without scraping tables.
//!
//! `--dry-run` shrinks the matrix for CI smoke runs.

use ds_bench::{
    exp_rebuild_overhead, exp_scaling, exp_wal_overhead, f, table, RebuildPoint, ScalingCell,
    WalOverheadPoint,
};
use ds_telemetry::Json;

fn serve_doc(
    requests: usize,
    cells: &[ScalingCell],
    rebuild: &[RebuildPoint],
    wal: &[WalOverheadPoint],
) -> Json {
    let cells = Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("contexts", Json::from(c.distinct_contexts)),
                    ("workers", Json::from(c.workers)),
                    ("elapsed_ms", Json::from(c.elapsed_nanos as f64 / 1e6)),
                    ("throughput_rps", Json::from(c.throughput)),
                    ("loads", Json::from(c.loads)),
                    ("store_hits", Json::from(c.store_hits)),
                    ("store_evictions", Json::from(c.store_evictions)),
                    ("answers_match", Json::Bool(c.answers_match)),
                ])
            })
            .collect(),
    );
    let rebuild = Json::Arr(
        rebuild
            .iter()
            .map(|p| {
                Json::obj([
                    ("churn_interval", Json::from(p.churn_interval)),
                    ("loads", Json::from(p.loads)),
                    ("amortized_speedup", Json::from(p.amortized_speedup)),
                ])
            })
            .collect(),
    );
    let wal = Json::Arr(
        wal.iter()
            .map(|p| {
                Json::obj([
                    ("churn_interval", Json::from(p.churn_interval)),
                    ("wal_off_ms", Json::from(p.wal_off_nanos as f64 / 1e6)),
                    ("wal_on_ms", Json::from(p.wal_on_nanos as f64 / 1e6)),
                    ("overhead", Json::from(p.overhead)),
                    ("grouped_ms", Json::from(p.grouped_nanos as f64 / 1e6)),
                    ("grouped_overhead", Json::from(p.grouped_overhead)),
                    ("wal_appends", Json::from(p.wal_appends)),
                    ("answers_match", Json::Bool(p.answers_match)),
                ])
            })
            .collect(),
    );
    // Kind `bench-serve`, not `serve`: `dsc report` tells benchmark
    // trajectories apart from live `dsc serve --metrics-out` envelopes.
    ds_telemetry::envelope(
        "bench-serve",
        [
            ("requests", Json::from(requests)),
            ("scaling", cells),
            ("rebuild", rebuild),
            ("wal_overhead", wal),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dry_run = args.iter().any(|a| a == "--dry-run");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let (requests, workers, contexts, capacity): (usize, &[usize], &[usize], usize) = if dry_run {
        (128, &[1, 2], &[1, 4], 8)
    } else {
        (4096, &[1, 2, 4, 8], &[1, 4, 16], 32)
    };

    println!("=== Parallel serving: throughput vs workers x invariant churn ===");
    if dry_run {
        println!("(dry run)");
    }
    println!();

    let cells = exp_scaling(requests, workers, contexts, capacity);
    let mismatches: Vec<&ScalingCell> = cells.iter().filter(|c| !c.answers_match).collect();

    let mut rows = vec![vec![
        "contexts".to_string(),
        "workers".to_string(),
        "elapsed ms".to_string(),
        "req/s".to_string(),
        "speedup".to_string(),
        "loads".to_string(),
        "store hits".to_string(),
        "evictions".to_string(),
        "answers".to_string(),
    ]];
    for &ctx in contexts {
        let base = cells
            .iter()
            .find(|c| c.distinct_contexts == ctx && c.workers == 1)
            .map(|c| c.throughput)
            .unwrap_or(f64::NAN);
        for c in cells.iter().filter(|c| c.distinct_contexts == ctx) {
            rows.push(vec![
                c.distinct_contexts.to_string(),
                c.workers.to_string(),
                f(c.elapsed_nanos as f64 / 1e6, 2),
                f(c.throughput, 0),
                format!("{}x", f(c.throughput / base, 2)),
                c.loads.to_string(),
                c.store_hits.to_string(),
                c.store_evictions.to_string(),
                if c.answers_match { "ok" } else { "MISMATCH" }.to_string(),
            ]);
        }
    }
    println!("{}", table(&rows));
    println!(
        "\n{requests} dotprod requests per cell, store capacity {capacity}; request i \
         belongs to invariant context i mod `contexts`, its varying inputs\n\
         change every request. The stream is submitted to a daemon with that many \
         workers over the shared artifact + polyvariant store;\n\
         the daemon routes each context to one worker, so `loads` equals \
         `contexts`. `speedup` is throughput relative to the same stream\n\
         served by one worker. Every cell's answers are compared against the \
         single-threaded tree-walked reference before timing is reported."
    );

    // Durability: the same stream with the write-ahead log off vs on.
    let wal_requests = if dry_run { 128 } else { 1024 };
    let wal = exp_wal_overhead(wal_requests);
    println!("\n=== Write-ahead log: durability overhead ===\n");
    let mut wal_rows = vec![vec![
        "churn".to_string(),
        "wal off ms".to_string(),
        "wal on ms".to_string(),
        "overhead".to_string(),
        "grouped ms".to_string(),
        "grouped".to_string(),
        "appends".to_string(),
        "answers".to_string(),
    ]];
    for p in &wal {
        wal_rows.push(vec![
            p.churn_interval.to_string(),
            f(p.wal_off_nanos as f64 / 1e6, 2),
            f(p.wal_on_nanos as f64 / 1e6, 2),
            format!("{}x", f(p.overhead, 2)),
            f(p.grouped_nanos as f64 / 1e6, 2),
            format!("{}x", f(p.grouped_overhead, 2)),
            p.wal_appends.to_string(),
            if p.answers_match { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    println!("{}", table(&wal_rows));

    let rebuild = exp_rebuild_overhead(wal_requests);
    let doc = serve_doc(requests, &cells, &rebuild, &wal);
    match std::fs::write(&out, doc.pretty() + "\n") {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }

    let wal_mismatch = wal.iter().any(|p| !p.answers_match);
    if !mismatches.is_empty() || wal_mismatch {
        eprintln!(
            "error: {} scaling cell(s) and {} wal point(s) diverged from the reference",
            mismatches.len(),
            wal.iter().filter(|p| !p.answers_match).count()
        );
        std::process::exit(1);
    }
}
