//! The `alexnet-b1` and `googlenet-b4` workloads: a full-scale zoo network
//! through the batched functional engine (`NetworkEngine::run_batch_cached`)
//! with prepacked weights and dynamic precision, driven by one closed-loop
//! caller.

use crate::common::{
    digest, images, precision, store_metrics, sub_seed, trace_bytes, Expected, KernelPeak,
    WEIGHT_BITS,
};
use crate::stats::{mean, median, Outcome};
use crate::trace::Tracer;
use loom_core::loom_model::fixed::required_precision;
use loom_core::loom_model::graph::{GraphCompute, LayerGraph};
use loom_core::loom_model::inference::{InferenceOptions, NetworkParams};
use loom_core::loom_model::layer::{ConvSpec, FcSpec};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_sim::loom::network::FC_PREPACK_MAX_WEIGHTS;
use loom_core::loom_sim::loom::{FunctionalLoom, NetworkEngine, PackedModel};
use loom_core::loom_sim::pool;
use loom_serve::model::serving_geometry;
use std::collections::BTreeMap;
use std::time::Instant;

/// One engine workload: which zoo graph, how many images per lock-step
/// call, how many distinct images the calls cycle through (each needs a
/// golden reference, which costs seconds per image at full scale), and
/// whether the traced run reports `layer.<node>.*` for every compute node.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    pub graph: &'static str,
    pub batch: usize,
    pub distinct: usize,
    pub node_metrics: bool,
}

pub const ALEXNET_B1: EngineWorkload = EngineWorkload {
    graph: "AlexNet",
    batch: 1,
    distinct: 2,
    node_metrics: true,
};

/// GoogLeNet's 57 compute nodes are reported grouped by kernel size.
pub const GOOGLENET_B4: EngineWorkload = EngineWorkload {
    graph: "GoogLeNet",
    batch: 4,
    distinct: 2,
    node_metrics: false,
};

/// What set-up builds: the graph, its synthetic weights, the engine at the
/// run's thread budget and the prepacked weight cache.
pub struct Prepared {
    pub graph: LayerGraph,
    pub params: NetworkParams,
    pub engine: NetworkEngine,
    pub cache: PackedModel,
}

/// Graph lookup + synthetic weights + prepack: the workload's set-up.
pub fn setup(w: &EngineWorkload, seed: u64, threads: usize) -> Prepared {
    let graph = graphs::lookup(w.graph).expect("engine workloads name zoo graphs");
    let params = NetworkParams::synthetic_for_graph(
        &graph,
        &[precision(WEIGHT_BITS)],
        sub_seed(seed, "weights"),
    );
    let engine = NetworkEngine::new(serving_geometry()).with_threads(threads);
    let cache = engine.prepack(&graph, &params);
    Prepared {
        graph,
        params,
        engine,
        cache,
    }
}

/// The generated images and the lock-step calls the caller cycles through:
/// call `b` holds distinct images `(b·batch + j) mod distinct`.
pub struct Calls {
    pub distinct: Vec<Tensor3>,
    pub batches: Vec<Vec<Tensor3>>,
    pub members: Vec<Vec<usize>>,
}

pub fn calls(w: &EngineWorkload, prep: &Prepared, seed: u64) -> Calls {
    let shape = prep
        .graph
        .input_shape()
        .expect("engine workloads start with a convolution");
    let distinct = images(shape, w.distinct, sub_seed(seed, "images"));
    let count = w.distinct.div_ceil(w.batch);
    let members: Vec<Vec<usize>> = (0..count)
        .map(|b| {
            (0..w.batch)
                .map(|j| (b * w.batch + j) % w.distinct)
                .collect()
        })
        .collect();
    let batches = members
        .iter()
        .map(|m| m.iter().map(|&i| distinct[i].clone()).collect())
        .collect();
    Calls {
        distinct,
        batches,
        members,
    }
}

/// References computed before timing: the golden executor's trace digest per
/// distinct image (in parallel, one image per thread), and cycles and reduced
/// groups from the direct uncached engine, whose traces are checked against
/// golden too (each check counts as attempted).
pub fn references(prep: &Prepared, calls: &Calls, out: &mut Outcome) -> Vec<Expected> {
    let distinct = &calls.distinct;
    let options = InferenceOptions::default();
    let golden = pool::ordered_map(prep.engine.threads(), distinct.len(), |i| {
        digest(
            &prep
                .graph
                .run(&prep.params, &distinct[i], options)
                .expect("zoo graphs chain by construction"),
        )
    });
    let direct = prep
        .engine
        .run_batch(&prep.graph, &prep.params, distinct, options)
        .expect("zoo graphs chain by construction");
    golden
        .iter()
        .zip(&direct)
        .map(|(&g, run)| {
            out.check(digest(&run.trace) == g);
            Expected {
                digest: g,
                cycles: run.cycles,
                reduced_groups: run.reduced_groups,
            }
        })
        .collect()
}

/// What the untraced timing loop measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds per call.
    pub latencies: Vec<f64>,
    pub images: usize,
    pub engine_seconds: f64,
}

/// Calls `run_batch_cached` in a closed loop for `seconds` (at least once),
/// checking every item's trace digest, cycles and reduced groups.
pub fn measure(
    prep: &Prepared,
    calls: &Calls,
    expected: &[Expected],
    seconds: f64,
    out: &mut Outcome,
) -> Timed {
    let options = InferenceOptions::default();
    let mut timed = Timed::default();
    let started = Instant::now();
    let mut n = 0usize;
    while n == 0 || started.elapsed().as_secs_f64() < seconds {
        let b = n % calls.batches.len();
        let t = Instant::now();
        let runs = prep.engine.run_batch_cached(
            &prep.graph,
            &prep.params,
            &calls.batches[b],
            options,
            Some(&prep.cache),
        );
        let dt = t.elapsed().as_secs_f64();
        match runs {
            Ok(runs) => {
                for (run, &i) in runs.iter().zip(&calls.members[b]) {
                    let want = expected[i];
                    out.check(
                        digest(&run.trace) == want.digest
                            && run.cycles == want.cycles
                            && run.reduced_groups == want.reduced_groups,
                    );
                }
            }
            Err(_) => calls.members[b].iter().for_each(|_| out.check(false)),
        }
        timed.latencies.push(dt);
        timed.images += calls.batches[b].len();
        timed.engine_seconds += dt;
        n += 1;
    }
    timed
}

/// The end-to-end metrics of an untraced run (set-up time and peak RSS are
/// added by the caller).
pub fn end_to_end(w: &EngineWorkload, timed: &Timed, out: &mut Outcome) {
    let calls = timed.latencies.len() as f64;
    out.metric(
        "images_per_s",
        timed.images as f64 / timed.engine_seconds,
        "1/s",
    );
    let ms: Vec<f64> = timed.latencies.iter().map(|s| s * 1e3).collect();
    out.latency_metrics(&format!("batch-of-{} call", w.batch), &ms);
    out.metric("max_rate_rps", calls / timed.engine_seconds, "1/s");
    out.note(
        "max_rate_rps",
        format!(
            "closed loop: calls (batch of {}) completed per second by the one saturated caller",
            w.batch
        ),
    );
}

/// How a traced node is classified for the grouped metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Conv { kernel: usize },
    Fc { streamed: bool },
}

/// Per-node totals over the traced images.
#[derive(Debug, Clone)]
struct NodeStats {
    kind: NodeKind,
    macs: u64,
    pa: u8,
    pw: u8,
    /// Cycles of the node on distinct image 0 (exact).
    cycles: u64,
    ns: u64,
}

impl NodeStats {
    fn new(kind: NodeKind, macs: u64, pa: u8, pw: u8) -> Self {
        NodeStats {
            kind,
            macs,
            pa,
            pw,
            cycles: 0,
            ns: 0,
        }
    }
}

/// The benchmark's own [`GraphCompute`]: drives `LayerGraph::run_with` and
/// times each call into the public `FunctionalLoom::run_conv`/`run_fc`,
/// recording a span per node under the image's span.
struct TracedCompute<'a> {
    engine: FunctionalLoom,
    tracer: &'a Tracer,
    parent: usize,
    id: u64,
    first_image: bool,
    cycles: u64,
    reduced_groups: u64,
    nodes: &'a mut BTreeMap<String, NodeStats>,
}

impl TracedCompute<'_> {
    /// Closes the node's span (opened at `started`) and adds the call to
    /// the node's totals; `call` carries the node's shape and precisions.
    fn finish(
        &mut self,
        layer: &str,
        call: NodeStats,
        started: Instant,
        run: loom_core::loom_sim::loom::FunctionalRun,
    ) -> Vec<i64> {
        let ended = Instant::now();
        self.tracer
            .record(layer, Some(self.parent), self.id, started, ended);
        self.cycles += run.cycles;
        self.reduced_groups += run.reduced_groups;
        let pa = call.pa;
        let node = self.nodes.entry(layer.to_string()).or_insert(call);
        if self.first_image {
            node.cycles = run.cycles;
            node.pa = pa;
        }
        node.ns += (ended - started).as_nanos() as u64;
        run.outputs
    }
}

impl GraphCompute for TracedCompute<'_> {
    fn conv(
        &mut self,
        layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64> {
        let started = Instant::now();
        let pa = required_precision(input.as_slice());
        let pw = required_precision(weights.as_slice());
        let run = self.engine.run_conv(spec, input, weights, pa, pw);
        let call = NodeStats::new(
            NodeKind::Conv {
                kernel: spec.kernel_h,
            },
            spec.macs(),
            pa.bits(),
            pw.bits(),
        );
        self.finish(layer, call, started, run)
    }

    fn fc(&mut self, layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
        let started = Instant::now();
        let pa = required_precision(input);
        let pw = required_precision(weights);
        let run = self.engine.run_fc(spec, input, weights, pw);
        let call = NodeStats::new(
            NodeKind::Fc {
                streamed: weights.len() > FC_PREPACK_MAX_WEIGHTS,
            },
            spec.macs(),
            pa.bits(),
            pw.bits(),
        );
        self.finish(layer, call, started, run)
    }
}

/// The traced run: an untraced half for the end-to-end baseline, a traced
/// half one image at a time through [`TracedCompute`], one single-thread
/// call for the pool speed-up, then the per-layer metrics.
pub fn traced(
    w: &EngineWorkload,
    prep: &Prepared,
    calls: &Calls,
    expected: &[Expected],
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let distinct = &calls.distinct;
    let threads = prep.engine.threads();
    let untraced = measure(prep, calls, expected, seconds / 2.0, out);
    let untraced_image_s = untraced.engine_seconds / untraced.images as f64;

    let options = InferenceOptions::default();
    let layer_engine = prep.engine.layer_engine().with_threads(threads);
    let mut nodes: BTreeMap<String, NodeStats> = BTreeMap::new();
    let mut image_s = Vec::new();
    let mut exec_s = Vec::new();
    let mut trace_mb = 0.0;
    let started = Instant::now();
    let mut k = 0usize;
    while k < distinct.len() || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let i = k % distinct.len();
        let span = tracer.open("image", None, k as u64);
        let t = Instant::now();
        let node_ns_before: u64 = nodes.values().map(|n| n.ns).sum();
        let mut backend = TracedCompute {
            engine: layer_engine,
            tracer,
            parent: span,
            id: k as u64,
            first_image: i == 0,
            cycles: 0,
            reduced_groups: 0,
            nodes: &mut nodes,
        };
        let result = prep
            .graph
            .run_with(&prep.params, &distinct[i], options, &[], &mut backend);
        let (cycles, reduced) = (backend.cycles, backend.reduced_groups);
        let dt = t.elapsed().as_secs_f64();
        tracer.close(span);
        let node_ns: u64 = nodes.values().map(|n| n.ns).sum::<u64>() - node_ns_before;
        match result {
            Ok(trace) => {
                let want = expected[i];
                out.check(
                    digest(&trace) == want.digest
                        && cycles == want.cycles
                        && reduced == want.reduced_groups,
                );
                trace_mb = trace_bytes(&trace) as f64 * w.batch as f64 / 1e6;
            }
            Err(_) => out.check(false),
        }
        image_s.push(dt);
        exec_s.push(dt - node_ns as f64 / 1e9);
        k += 1;
    }

    // Pool speed-up: the same first call on one thread.
    let t = Instant::now();
    let single = prep.engine.with_threads(1).run_batch_cached(
        &prep.graph,
        &prep.params,
        &calls.batches[0],
        options,
        Some(&prep.cache),
    );
    let single_s = t.elapsed().as_secs_f64();
    match single {
        Ok(runs) => {
            for (run, &i) in runs.iter().zip(&calls.members[0]) {
                out.check(
                    digest(&run.trace) == expected[i].digest && run.cycles == expected[i].cycles,
                );
            }
        }
        Err(_) => out.check(false),
    }

    let images = k as f64;
    let per_image_ms = |ns: u64| ns as f64 / 1e6 / images;
    let mut peak = KernelPeak::default();
    let node_peak_s = |n: &NodeStats, peak: &mut KernelPeak| {
        let plane_pairs = n.macs as f64 / 256.0 * f64::from(n.pa) * f64::from(n.pw);
        plane_pairs / (peak.rate(n.pa, n.pw) * threads as f64)
    };
    let layer_sum_ms: f64 = nodes.values().map(|n| per_image_ms(n.ns)).sum();
    for (name, n) in nodes.iter().filter(|_| w.node_metrics) {
        let ms = per_image_ms(n.ns);
        out.metric(format!("layer.{name}.ms"), ms, "ms");
        out.metric(format!("layer.{name}.pa"), f64::from(n.pa), "bits");
        out.metric(format!("layer.{name}.pw"), f64::from(n.pw), "bits");
        out.metric(format!("layer.{name}.cycles"), n.cycles as f64, "cycles");
        let frac = node_peak_s(n, &mut peak) * 1e3 / ms;
        out.metric(format!("layer.{name}.roofline_frac"), frac, "ratio");
    }
    for k in [1, 3, 5, 7] {
        let ns: u64 = nodes
            .values()
            .filter(|n| n.kind == NodeKind::Conv { kernel: k })
            .map(|n| n.ns)
            .sum();
        out.metric(format!("conv{k}x{k}.ms"), per_image_ms(ns), "ms");
    }
    let fc_ns: u64 = nodes
        .values()
        .filter(|n| matches!(n.kind, NodeKind::Fc { .. }))
        .map(|n| n.ns)
        .sum();
    out.metric("fc.ms", per_image_ms(fc_ns), "ms");
    let (conv_peak_s, conv_ns) = nodes
        .values()
        .filter(|n| matches!(n.kind, NodeKind::Conv { .. }))
        .fold((0.0, 0u64), |(p, t), n| {
            (p + node_peak_s(n, &mut peak), t + n.ns)
        });
    out.metric(
        "conv.roofline_frac",
        conv_peak_s * images / (conv_ns as f64 / 1e9),
        "ratio",
    );
    let stream_ns: u64 = nodes
        .values()
        .filter(|n| n.kind == NodeKind::Fc { streamed: true })
        .map(|n| n.ns)
        .sum();
    let traced_image_ms = mean(&image_s) * 1e3;
    out.metric("fc.stream_ms", per_image_ms(stream_ns), "ms");
    out.metric(
        "fc.stream_share",
        per_image_ms(stream_ns) / traced_image_ms,
        "ratio",
    );
    out.metric("graph.exec_ms", mean(&exec_s) * 1e3, "ms");
    out.metric("graph.trace_mb", trace_mb, "MB");
    out.metric(
        "pool.speedup",
        single_s / median(&untraced.latencies),
        "ratio",
    );
    store_metrics(out);
    out.metric(
        "trace.overhead_frac",
        (traced_image_ms - untraced_image_s * 1e3) / (untraced_image_s * 1e3),
        "ratio",
    );
    crate::reconcile(out, layer_sum_ms / (untraced_image_s * 1e3), RECON_BAND);
    out.note(
        "reconciliation",
        format!(
            "sum of per-node compute spans per image ({layer_sum_ms:.2} ms, traced, one image per call) over untraced run_batch_cached time per image ({:.2} ms, batch of {})",
            untraced_image_s * 1e3,
            w.batch
        ),
    );
    out.note("traced_images", k);
    out.note(
        "roofline",
        "nominal plane pairs (MACs/256 x pa x pw) per second over the single-thread wide_inner_product rate at that pa x pw times the thread budget",
    );
}

/// Band the per-node sum must fall in relative to the untraced time per
/// image. The traced path calls `run_conv`/`run_fc` uncached (store lookups
/// by content hash, FC transposes every call) and one image at a time, so it
/// may exceed the cached lock-step engine; it cannot be far below it.
pub const RECON_BAND: (f64, f64) = (0.8, 1.6);
