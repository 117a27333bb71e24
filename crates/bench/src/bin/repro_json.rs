//! Machine-readable export: runs the headline experiments and writes
//! `experiments.json` (path as first argument, default `experiments.json`),
//! so downstream tooling can plot Figures 7-10 without re-parsing tables.
//!
//! Alongside the experiment record it drops a *metrics sidecar* — the same
//! headline numbers wrapped in the versioned `ds-telemetry` envelope — at
//! `<path minus .json>.metrics.json`, so CI can validate the schema without
//! knowing the experiment layout.

use ds_bench::{
    breakeven_histogram, cache_size_stats, exp_all_partitions, exp_dotprod, exp_limit_sweep,
};
use ds_telemetry::Json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "experiments.json".to_string());

    let d = exp_dotprod();
    let dotprod = Json::obj([
        ("slots", Json::from(d.slots)),
        ("speedup_nonzero", Json::from(d.speedup_nonzero)),
        ("speedup_zero", Json::from(d.speedup_zero)),
        ("startup_overhead", Json::from(d.startup_overhead_nonzero)),
        ("breakeven", d.breakeven.map_or(Json::Null, Json::from)),
    ]);

    let measurements = exp_all_partitions();
    let partitions = Json::Arr(
        measurements
            .iter()
            .map(|m| {
                Json::obj([
                    ("shader", Json::from(m.shader)),
                    ("shader_index", Json::from(m.shader_index)),
                    ("param", Json::from(m.param)),
                    ("speedup", Json::from(m.speedup)),
                    ("orig_cost", Json::from(m.orig_cost)),
                    ("loader_cost", Json::from(m.loader_cost)),
                    ("reader_cost", Json::from(m.reader_cost)),
                    ("cache_bytes", Json::from(m.cache_bytes)),
                    ("slots", Json::from(m.slots)),
                    ("breakeven", m.breakeven.map_or(Json::Null, Json::from)),
                ])
            })
            .collect(),
    );

    let (mean_cache, median_cache) = cache_size_stats(&measurements);
    let hist = Json::Arr(
        breakeven_histogram(&measurements)
            .into_iter()
            .map(|(uses, count)| {
                Json::obj([
                    ("uses", Json::from(uses)),
                    ("partitions", Json::from(count)),
                ])
            })
            .collect(),
    );

    let limit = Json::Arr(
        exp_limit_sweep(5)
            .into_iter()
            .map(|p| {
                Json::obj([
                    ("param", Json::from(p.param)),
                    ("bound", Json::from(p.bound)),
                    ("bytes_used", Json::from(p.bytes_used)),
                    ("speedup", Json::from(p.speedup)),
                ])
            })
            .collect(),
    );

    let doc = Json::obj([
        (
            "paper",
            Json::from("Data Specialization, Knoblock & Ruf, PLDI 1996"),
        ),
        ("dotprod", dotprod),
        ("partitions", partitions),
        ("cache_mean_bytes", Json::from(mean_cache)),
        ("cache_median_bytes", Json::from(median_cache)),
        ("breakeven_histogram", hist),
        ("limit_sweep_shader10", limit),
    ]);

    std::fs::write(&path, doc.pretty() + "\n")?;

    let sidecar_path = format!(
        "{}.metrics.json",
        path.strip_suffix(".json").unwrap_or(&path)
    );
    let sidecar = ds_telemetry::envelope(
        "bench",
        [
            ("experiments", Json::from(path.as_str())),
            ("partitions", Json::from(measurements.len())),
            ("dotprod_speedup_nonzero", Json::from(d.speedup_nonzero)),
            ("cache_mean_bytes", Json::from(mean_cache)),
            ("cache_median_bytes", Json::from(median_cache)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    std::fs::write(&sidecar_path, sidecar.pretty() + "\n")?;

    println!(
        "wrote {path} ({} partitions, limit sweep of shader 10) and {sidecar_path}",
        measurements.len()
    );
    Ok(())
}
