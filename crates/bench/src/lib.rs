//! # ds-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§2, §5):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `figure_e1_dotprod` | §2 dotprod example (Figures 1-2, speedup/overhead text) |
//! | `figure7_speedup` | Figure 7 — per-partition asymptotic speedups |
//! | `figure8_cache_size` | Figure 8 — single-pixel cache sizes |
//! | `table_overhead` | §5.2 — breakeven histogram (127/131 at two uses) |
//! | `figure9_limit_abs` | Figure 9 — speedup vs cache-size limit, shader 10 |
//! | `figure10_limit_norm` | Figure 10 — % of max speedup vs limit |
//! | `table_code_growth` | §3.3 — loader+reader < 2× fragment |
//! | `table_code_vs_data` | §6.1 — code- vs data-specialization trade-off |
//! | `table_scaling` | beyond the paper — parallel serving throughput vs workers × invariant churn |
//! | `table_workloads` | beyond the paper — non-shader families: fixed-shape matrix/sparse kernels and unrolled interpreter dispatch (W-MAT / W-DISP) |
//! | `repro_all` | everything above, plus the SoA batch-executor throughput scenarios (W-BATCH) and a consolidated summary |
//!
//! Criterion benches under `benches/` measure the same pipelines in
//! wall-clock terms (the abstract cost meter is the primary metric; the
//! wall clock confirms it tracks reality).

#![warn(missing_docs)]

pub mod batch;
pub mod experiments;
pub mod report;
pub mod workloads;

pub use batch::{
    batch_dispatch_reader, batch_matrix_reader, batch_shader_pipeline, exp_batch_throughput,
    BatchThroughput,
};
pub use experiments::*;
pub use report::{f, log_scatter, table};
pub use workloads::{
    exp_workloads, measure_workload, summarize_workloads, Kernel, WorkloadMeasurement,
    WorkloadSummary, KERNELS,
};
