//! The workloads and their seeded request generators. The program under
//! test sees only the generated inputs.

use crate::rng::{Rng, Zipf};
use ds_core::{InputPartition, SpecializeOptions};
use ds_interp::Value;
use ds_shaders::{all_shaders, pixel_inputs, Shader};

/// The workload names accepted by `--workload`, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &["shader-drag", "kernel-steady", "kernel-churn"];

/// Daemon settings shared by every serving workload: the `dsc serve
/// --listen` defaults (admission `auto`, max-queue 64, rebuild budget 8),
/// one worker, and the bytecode VM engine.
pub const MAX_QUEUE: usize = 64;
pub const REBUILD_BUDGET: u32 = 8;

/// One serving workload: a staged program plus a request stream that the
/// client replays in a loop.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub source: String,
    pub entry: &'static str,
    pub varying: Vec<&'static str>,
    pub store_capacity: usize,
    /// Attach an in-memory write-ahead log (checkpointing only at exit, the
    /// CLI default).
    pub wal: bool,
    /// Requests in flight at most (closed loop).
    pub outstanding: usize,
    /// Requests per frame: the group whose answers the client needs
    /// together.
    pub frame: usize,
    /// Whether the next frame waits for the previous frame's last answer.
    pub frame_barrier: bool,
    /// The distinct requests.
    pub requests: Vec<Vec<Value>>,
    /// The stream, as indices into `requests`; the client cycles through it.
    pub order: Vec<u32>,
}

impl ServeWorkload {
    pub fn partition(&self) -> InputPartition {
        InputPartition::varying(self.varying.iter().copied())
    }

    /// The arguments of stream position `seq` (cycling).
    pub fn args(&self, seq: u64) -> &[Value] {
        &self.requests[self.request_of(seq)]
    }

    pub fn request_of(&self, seq: u64) -> usize {
        self.order[(seq % self.order.len() as u64) as usize] as usize
    }
}

fn floats(xs: &[f64]) -> Vec<Value> {
    xs.iter().map(|&x| Value::Float(x)).collect()
}

fn plastic() -> Shader {
    all_shaders()
        .into_iter()
        .find(|s| s.name == "plastic")
        .expect("the catalog has the plastic shader")
}

/// Viewport side of shader-drag: 24 x 24 = 576 pixel contexts.
pub const DRAG_SIDE: u32 = 24;
/// Slider notches of one drag.
pub const DRAG_NOTCHES: usize = 32;

/// The paper's interactive loop (§5): the plastic shader specialized on
/// `lighty`; each frame renders all 576 pixels at one slider notch, and
/// the drag sweeps 32 notches back and forth.
pub fn shader_drag(seed: u64) -> ServeWorkload {
    let mut rng = Rng::new(seed);
    let shader = plastic();
    let lighty = shader
        .controls
        .iter()
        .position(|c| c.name == "lighty")
        .expect("plastic has a lighty control");
    let base = rng.range(0.3, 0.9);
    let step = rng.range(0.01, 0.03);
    let pixels = (DRAG_SIDE * DRAG_SIDE) as usize;
    let mut requests = Vec::with_capacity(DRAG_NOTCHES * pixels);
    for notch in 0..DRAG_NOTCHES {
        for iy in 0..DRAG_SIDE {
            for ix in 0..DRAG_SIDE {
                let mut args = pixel_inputs(ix, iy, DRAG_SIDE, DRAG_SIDE).to_args();
                args.extend(shader.controls.iter().enumerate().map(|(i, c)| {
                    Value::Float(if i == lighty {
                        base + step * notch as f64
                    } else {
                        c.default
                    })
                }));
                requests.push(args);
            }
        }
    }
    // Forward 0..=31, then back 30..=1: one full drag cycle of 62 frames.
    let notches = (0..DRAG_NOTCHES).chain((1..DRAG_NOTCHES - 1).rev());
    let order = notches
        .flat_map(|n| (0..pixels).map(move |p| (n * pixels + p) as u32))
        .collect();
    ServeWorkload {
        name: "shader-drag",
        source: shader.source,
        entry: "shade",
        varying: vec!["lighty"],
        store_capacity: pixels,
        wal: false,
        outstanding: 64,
        frame: pixels,
        frame_barrier: true,
        requests,
        order,
    }
}

/// The four pinned opcode contexts `(op0, op1, op2, op3)` of kernel-steady.
pub const STEADY_CONTEXTS: [[i64; 4]; 4] =
    [[1, 2, 3, 4], [5, 11, 2, 7], [9, 4, 13, 6], [3, 8, 5, 10]];
/// Requests per same-context run in kernel-steady.
pub const STEADY_RUN: usize = 256;
const STEADY_RUNS: usize = 128;

/// The hot path: the W-DISP `vm8` kernel on `{x, c0, c1}`, in runs of 256
/// requests that share one of four pinned opcode contexts.
pub fn kernel_steady(seed: u64) -> ServeWorkload {
    let mut rng = Rng::new(seed);
    let mut requests = Vec::with_capacity(STEADY_RUNS * STEADY_RUN);
    for _ in 0..STEADY_RUNS {
        let ops = STEADY_CONTEXTS[rng.below(4) as usize];
        for _ in 0..STEADY_RUN {
            let mut args: Vec<Value> = ops.iter().map(|&o| Value::Int(o)).collect();
            args.extend(floats(&[
                rng.range(-4.0, 4.0),
                rng.range(-4.0, 4.0),
                rng.range(-4.0, 4.0),
            ]));
            requests.push(args);
        }
    }
    let order = (0..requests.len() as u32).collect();
    ServeWorkload {
        name: "kernel-steady",
        source: kernel_source("vm8").to_string(),
        entry: "vm8",
        varying: vec!["x", "c0", "c1"],
        store_capacity: 16,
        wal: false,
        outstanding: 64,
        frame: STEADY_RUN,
        frame_barrier: false,
        requests,
        order,
    }
}

/// Contexts of kernel-churn, drawn Zipf(1.0).
pub const CHURN_CONTEXTS: usize = 512;
const CHURN_REQUESTS: usize = 65_536;

/// The store's write side: the W-MAT `mat3vec` kernel on `{x0, x1, x2}`,
/// 512 contexts under Zipf(1.0) against a 64-entry store with a
/// write-ahead log attached.
pub fn kernel_churn(seed: u64) -> ServeWorkload {
    let mut rng = Rng::new(seed);
    let contexts: Vec<[f64; 3]> = (0..CHURN_CONTEXTS)
        .map(|_| {
            [
                rng.range(-4.0, 4.0),
                rng.range(-4.0, 4.0),
                rng.range(-4.0, 4.0),
            ]
        })
        .collect();
    let zipf = Zipf::new(CHURN_CONTEXTS, 1.0);
    let requests: Vec<Vec<Value>> = (0..CHURN_REQUESTS)
        .map(|_| {
            let [a, b, c] = contexts[zipf.sample(&mut rng)];
            floats(&[
                a,
                b,
                c,
                rng.range(-4.0, 4.0),
                rng.range(-4.0, 4.0),
                rng.range(-4.0, 4.0),
            ])
        })
        .collect();
    let order = (0..requests.len() as u32).collect();
    ServeWorkload {
        name: "kernel-churn",
        source: kernel_source("mat3vec").to_string(),
        entry: "mat3vec",
        varying: vec!["x0", "x1", "x2"],
        store_capacity: 64,
        wal: true,
        outstanding: 64,
        frame: STEADY_RUN,
        frame_barrier: false,
        requests,
        order,
    }
}

/// The workload `name` (one of [`NAMES`]) with its stream drawn from `seed`.
pub fn serve_workload(name: &str, seed: u64) -> ServeWorkload {
    match name {
        "shader-drag" => shader_drag(seed),
        "kernel-steady" => kernel_steady(seed),
        "kernel-churn" => kernel_churn(seed),
        _ => panic!("unknown workload `{name}`"),
    }
}

fn kernel_source(name: &str) -> &'static str {
    ds_bench::KERNELS
        .iter()
        .find(|k| k.name == name)
        .expect("known kernel")
        .src
}

/// The two option sets the staging replay specializes with: the defaults,
/// and §4.2 reassociation plus a 16-byte §4.3 cache bound.
pub fn stage_options() -> [SpecializeOptions; 2] {
    [
        SpecializeOptions::new(),
        SpecializeOptions::new()
            .with_reassociation()
            .with_cache_bound(16),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(w: &ServeWorkload) -> Vec<u64> {
        (0..w.order.len() as u64)
            .map(|s| {
                w.args(s)
                    .iter()
                    .fold(0u64, |h, v| h.rotate_left(5) ^ ds_interp::value_bits(v).1)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for &name in NAMES {
            let a = fingerprint(&serve_workload(name, 1));
            assert_eq!(a, fingerprint(&serve_workload(name, 1)), "{name}");
            assert_ne!(a, fingerprint(&serve_workload(name, 2)), "{name}");
        }
    }

    #[test]
    fn streams_have_the_declared_shape() {
        let drag = shader_drag(3);
        assert_eq!(drag.order.len(), 62 * 576);
        assert_eq!(drag.requests.len(), 32 * 576);
        let steady = kernel_steady(3);
        for run in steady.requests.chunks(STEADY_RUN) {
            assert!(
                run.iter().all(|r| r[..4] == run[0][..4]),
                "a run shares a context"
            );
        }
        let churn = kernel_churn(3);
        let distinct: std::collections::BTreeSet<u64> = churn
            .requests
            .iter()
            .map(|r| ds_interp::value_bits(&r[0]).1)
            .collect();
        assert!(distinct.len() > 300 && distinct.len() <= CHURN_CONTEXTS);
    }
}
