//! Rebuild overhead — what invariant churn costs end to end: the staged
//! runtime (cache lifecycle included) vs direct unspecialized evaluation
//! over request streams whose invariant inputs change at different rates.
//!
//! Alongside the table the run writes a `ds-telemetry` envelope of kind
//! `bench-rebuild` (path via `--out PATH`, default `BENCH_rebuild.json`)
//! so CI can track churn amortization with `validate_metrics` and
//! `dsc report --compare`.

use ds_bench::{exp_rebuild_overhead, f, table};
use ds_telemetry::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_rebuild.json".to_string());
    println!("=== Rebuild overhead: staged runtime vs direct evaluation ===\n");
    let requests = 64;
    let pts = exp_rebuild_overhead(requests);

    let mut rows = vec![vec![
        "churn interval".to_string(),
        "loads".to_string(),
        "staged cost/req".to_string(),
        "direct cost/req".to_string(),
        "amortized speedup".to_string(),
    ]];
    for p in &pts {
        rows.push(vec![
            p.churn_interval.to_string(),
            p.loads.to_string(),
            f(p.staged_cost as f64 / p.requests as f64, 2),
            f(p.unspec_cost as f64 / p.requests as f64, 2),
            format!("{}x", f(p.amortized_speedup, 3)),
        ]);
    }
    println!("{}", table(&rows));
    println!(
        "\n{requests} dotprod requests; varying inputs change every request, \
         invariant inputs every `churn interval` requests (each change forces\n\
         a staleness reload). Once invariants survive about two requests the \
         loader pays for itself — the paper's two-use breakeven (§5.2),\n\
         lifted from a single loader/reader pair to the full cache lifecycle."
    );

    let doc = ds_telemetry::envelope(
        "bench-rebuild",
        [
            ("requests", Json::from(requests)),
            (
                "points",
                Json::Arr(
                    pts.iter()
                        .map(|p| {
                            Json::obj([
                                ("churn_interval", Json::from(p.churn_interval)),
                                ("loads", Json::from(p.loads)),
                                (
                                    "staged_cost_per_req",
                                    Json::from(p.staged_cost as f64 / p.requests as f64),
                                ),
                                (
                                    "direct_cost_per_req",
                                    Json::from(p.unspec_cost as f64 / p.requests as f64),
                                ),
                                ("amortized_speedup", Json::from(p.amortized_speedup)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    std::fs::write(&out, doc.pretty() + "\n").expect("write bench envelope");
    println!("wrote {out}");
}
