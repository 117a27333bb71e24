//! Runs every experiment and prints a consolidated paper-vs-measured
//! summary — the data source for `EXPERIMENTS.md`.
//!
//! Alongside the tables the run writes the headline numbers as a
//! `ds-telemetry` envelope of kind `bench-repro` (path via `--out PATH`,
//! default `BENCH_repro.json`), so CI can track the reproduction's
//! fidelity with `validate_metrics` and `dsc report --compare` without
//! scraping tables.

use ds_bench::{
    breakeven_histogram, cache_size_stats, exp_all_partitions, exp_batch_throughput,
    exp_code_growth, exp_code_vs_data, exp_dotprod, exp_limit_sweep, exp_workloads, f,
    normalize_limit_sweep, summarize, summarize_workloads, table,
};
use ds_shaders::all_shaders;
use ds_telemetry::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_repro.json".to_string());
    println!("==================================================================");
    println!(" Data Specialization (Knoblock & Ruf, PLDI 1996) — reproduction");
    println!("==================================================================\n");

    // --- E1: dotprod -------------------------------------------------
    let d = exp_dotprod();
    println!("[E1] dotprod (paper §2)");
    println!(
        "  slots {} (paper 1) | speedup nonzero {}x (paper 1.11x) | zero {}x (paper 1.0x)",
        d.slots,
        f(d.speedup_nonzero, 2),
        f(d.speedup_zero, 2)
    );
    println!(
        "  startup overhead {}% (paper 5.5%) | breakeven {:?} (paper 2)\n",
        f(d.startup_overhead_nonzero * 100.0, 1),
        d.breakeven
    );

    // --- F7 / F8 / T-OH ----------------------------------------------
    let measurements = exp_all_partitions();
    let summaries = summarize(&measurements);
    println!(
        "[F7] speedups over {} partitions (paper: 131)",
        measurements.len()
    );
    let mut rows = vec![vec![
        "shader".to_string(),
        "min".to_string(),
        "median".to_string(),
        "max".to_string(),
    ]];
    for s in &summaries {
        rows.push(vec![
            format!("{} {}", s.index, s.name),
            format!("{}x", f(s.speedups[0], 2)),
            format!("{}x", f(s.median_speedup, 2)),
            format!("{}x", f(*s.speedups.last().expect("nonempty"), 2)),
        ]);
    }
    println!("{}", table(&rows));
    let min_speedup = measurements
        .iter()
        .map(|m| m.speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  all >= 1.0x: {} (paper: \"always at least 1.0X\")\n",
        min_speedup >= 1.0
    );

    let (mean, median) = cache_size_stats(&measurements);
    println!(
        "[F8] cache sizes: mean {} B (paper 22), median {} B (paper 20)\n",
        f(mean, 1),
        median
    );

    println!("[T-OH] breakeven histogram (paper: 127@2, 3@3, 1@17):");
    for (uses, count) in breakeven_histogram(&measurements) {
        println!("  {uses} uses: {count} partitions");
    }
    println!();

    // --- F9 / F10 ------------------------------------------------------
    println!("[F9/F10] cache limiting on shader 10 (rings)");
    let points = exp_limit_sweep(5);
    let norm = normalize_limit_sweep(&points);
    let mean_at = |bound: u32| -> f64 {
        norm.iter()
            .find(|(p, b, _)| p == "mean" && *b == bound)
            .map(|(_, _, pct)| *pct)
            .expect("mean present")
    };
    for bound in [0u32, 8, 16, 24, 32, 40] {
        println!(
            "  bound {bound:>2} B: mean retention {}%",
            f(mean_at(bound), 0)
        );
    }
    println!("  (paper: ~70% retained at 20% of cache, ~90% at 30%)\n");

    // --- T-SZ ----------------------------------------------------------
    let growth = exp_code_growth();
    let worst = growth.iter().map(|r| r.growth).fold(0.0f64, f64::max);
    let under = growth.iter().filter(|r| r.growth < 2.0).count();
    println!(
        "[T-SZ] code growth: {under}/{} partitions under 2x, worst {}x (paper: < 2x)\n",
        growth.len(),
        f(worst, 2)
    );

    // --- T-CS ----------------------------------------------------------
    println!("[T-CS] data vs code specialization (representative partitions):");
    let suite = all_shaders();
    let mut code_vs_data = Vec::new();
    for (index, param) in [(1usize, "ambient"), (3, "kd"), (10, "ringscale")] {
        let shader = suite.iter().find(|s| s.index == index).expect("exists");
        let r = exp_code_vs_data(shader, param, 3);
        println!(
            "  {}/{}: DS reader {} vs CS residual {} per use; DS breakeven {} uses, CS {}",
            r.shader,
            r.param,
            f(r.ds_reader_cost, 0),
            f(r.cs_residual_cost, 0),
            r.ds_breakeven,
            r.cs_breakeven
                .map_or("never".to_string(), |n| format!("{n} uses"))
        );
        code_vs_data.push(r);
    }
    // --- W-MAT / W-DISP ------------------------------------------------
    let workload_ms = exp_workloads();
    let workload_sums = summarize_workloads(&workload_ms);
    println!("\n[W-MAT/W-DISP] non-shader workload families (beyond the paper):");
    for s in &workload_sums {
        println!(
            "  {}/{}: {} partitions, speedup min {}x median {}x max {}x, bit-exact {}",
            s.family,
            s.kernel,
            s.partitions,
            f(s.min_speedup, 2),
            f(s.median_speedup, 2),
            f(s.max_speedup, 2),
            s.bit_exact
        );
    }

    // --- W-BATCH -------------------------------------------------------
    let batch_ms = exp_batch_throughput();
    println!("\n[W-BATCH] SoA batch executor, wall clock vs scalar VM (per lane):");
    for b in &batch_ms {
        println!(
            "  {} ({}): {} lanes, {} fused sites, {} ns -> {} ns, speedup {}x, bit-exact {}",
            b.scenario,
            b.entry,
            b.lanes,
            b.fused_sites,
            f(b.scalar_ns_per_lane, 0),
            f(b.batch_ns_per_lane, 0),
            f(b.speedup, 2),
            b.bit_exact
        );
    }

    println!(
        "\n[T-SPEC] and [T-MEM] run separately (table_speculation, table_memory);\n\
         repro_json exports everything machine-readably."
    );

    let doc = ds_telemetry::envelope(
        "bench-repro",
        [
            (
                "dotprod",
                Json::obj([
                    ("slots", Json::from(d.slots)),
                    ("speedup_nonzero", Json::from(d.speedup_nonzero)),
                    ("speedup_zero", Json::from(d.speedup_zero)),
                    ("startup_overhead", Json::from(d.startup_overhead_nonzero)),
                    ("breakeven_uses", d.breakeven.map_or(Json::Null, Json::from)),
                ]),
            ),
            (
                "partitions",
                Json::obj([
                    ("count", Json::from(measurements.len())),
                    ("min_speedup", Json::from(min_speedup)),
                    ("cache_mean_bytes", Json::from(mean)),
                    ("cache_median_bytes", Json::from(median)),
                ]),
            ),
            (
                "breakeven_histogram",
                Json::Arr(
                    breakeven_histogram(&measurements)
                        .into_iter()
                        .map(|(uses, count)| {
                            Json::obj([
                                ("uses", Json::from(uses)),
                                ("partitions", Json::from(count)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "limit_sweep",
                Json::Arr(
                    [0u32, 8, 16, 24, 32, 40]
                        .iter()
                        .map(|&bound| {
                            Json::obj([
                                ("bound_bytes", Json::from(bound)),
                                ("mean_retention_pct", Json::from(mean_at(bound))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "code_growth",
                Json::obj([
                    ("partitions", Json::from(growth.len())),
                    ("under_2x", Json::from(under)),
                    ("worst_growth", Json::from(worst)),
                ]),
            ),
            (
                "workloads",
                Json::Arr(
                    workload_sums
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("family", Json::from(s.family)),
                                ("kernel", Json::from(s.kernel)),
                                ("partitions", Json::from(s.partitions)),
                                ("min_speedup", Json::from(s.min_speedup)),
                                ("median_speedup", Json::from(s.median_speedup)),
                                ("max_speedup", Json::from(s.max_speedup)),
                                ("cache_median_bytes", Json::from(s.median_cache)),
                                ("bit_exact", Json::Bool(s.bit_exact)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "batch",
                Json::Arr(
                    batch_ms
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("scenario", Json::from(b.scenario)),
                                ("entry", Json::from(b.entry.clone())),
                                ("lanes", Json::from(b.lanes)),
                                ("fused_sites", Json::from(b.fused_sites)),
                                ("fused_dispatches", Json::from(b.fused_dispatches)),
                                ("scalar_ns_per_lane", Json::from(b.scalar_ns_per_lane)),
                                ("batch_ns_per_lane", Json::from(b.batch_ns_per_lane)),
                                ("speedup", Json::from(b.speedup)),
                                ("bit_exact", Json::Bool(b.bit_exact)),
                                ("meets_2x_floor", Json::Bool(b.speedup >= 2.0)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "code_vs_data",
                Json::Arr(
                    code_vs_data
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("shader", Json::from(r.shader)),
                                ("param", Json::from(r.param)),
                                ("ds_reader_cost", Json::from(r.ds_reader_cost)),
                                ("cs_residual_cost", Json::from(r.cs_residual_cost)),
                                ("ds_breakeven", Json::from(r.ds_breakeven)),
                                (
                                    "cs_breakeven",
                                    r.cs_breakeven.map_or(Json::Null, Json::from),
                                ),
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
    println!("\nwrote {out}\ndone; see the individual figure binaries for full detail");
}
