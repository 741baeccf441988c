//! The `datapaths` workload: full-scale AlexNet, two images, through
//! `datapath::run_network_batch` on every backend of
//! `Registry::with_defaults(EquivalentConfig::BASELINE_128)`.

use crate::common::{digest, precision, store_metrics, sub_seed, WEIGHT_BITS};
use crate::stats::Outcome;
use crate::trace::Tracer;
use loom_core::loom_model::fixed::required_precision;
use loom_core::loom_model::graph::{LayerGraph, NodeOp};
use loom_core::loom_model::inference::{InferenceOptions, InferenceTrace, NetworkParams};
use loom_core::loom_model::layer::{ConvSpec, FcSpec, LayerKind};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_precision::trace::LayerPrecisionSpec;
use loom_core::loom_sim::datapath::{self, FunctionalDStripes, FunctionalDatapath};
use loom_core::loom_sim::loom::{FunctionalRun, NetworkEngine};
use loom_core::loom_sim::{pool, Accelerator, AcceleratorKind, EquivalentConfig, Registry};
use std::time::Instant;

pub const GRAPH: &str = "AlexNet";
pub const IMAGES: usize = 2;
const CONFIG: EquivalentConfig = EquivalentConfig::BASELINE_128;

/// One registered backend with a functional datapath.
pub struct Backend {
    pub name: String,
    pub kind: AcceleratorKind,
    pub datapath: Box<dyn FunctionalDatapath>,
}

pub struct Prepared {
    pub graph: LayerGraph,
    pub params: NetworkParams,
    pub registry: Registry,
    pub backends: Vec<Backend>,
    pub threads: usize,
}

/// Graph lookup + synthetic weights + the registry's functional datapaths.
pub fn setup(graph_name: &str, seed: u64, threads: usize) -> Prepared {
    let graph = graphs::lookup(graph_name).expect("the datapaths workload names a zoo graph");
    let params = NetworkParams::synthetic_for_graph(
        &graph,
        &[precision(WEIGHT_BITS)],
        sub_seed(seed, "weights"),
    );
    let registry = Registry::with_defaults(CONFIG);
    let backends = registry
        .iter()
        .filter_map(|acc| {
            acc.functional_datapath(threads).map(|datapath| Backend {
                name: acc.name().replace(' ', "-"),
                kind: acc.kind(),
                datapath,
            })
        })
        .collect();
    Prepared {
        graph,
        params,
        registry,
        backends,
        threads,
    }
}

/// Expected per-image trace digests and per-backend, per-image cycles.
pub struct References {
    pub digests: Vec<u64>,
    pub cycles: Vec<Vec<u64>>,
}

fn acc(prep: &Prepared, kind: AcceleratorKind) -> &dyn Accelerator {
    prep.registry
        .get(kind)
        .expect("every backend came from the registry")
}

/// Cycles of one image on one comparator from its analytic model, using the
/// golden trace's layer inputs for the precisions. DStripes' per-group
/// precisions are measured by running its functional convolution on the
/// golden layer input, then replayed through the analytic model, as the
/// conformance suite does; that replay is itself checked.
fn analytic_cycles(
    prep: &Prepared,
    kind: AcceleratorKind,
    trace: &InferenceTrace,
    out_ok: &mut bool,
) -> u64 {
    let model = acc(prep, kind);
    let mut total = 0u64;
    for node in prep.graph.nodes() {
        let NodeOp::Layer(layer) = &node.op else {
            continue;
        };
        let layer_trace = trace
            .for_layer(&node.name)
            .expect("the golden trace covers every node");
        let weights = prep.params.for_layer(&node.name).map(|w| &w.values);
        match layer {
            LayerKind::Conv(spec) => {
                let weights = weights.expect("conv nodes have weights");
                let pa = required_precision(&layer_trace.inputs);
                let pw = required_precision(weights);
                let static_spec = LayerPrecisionSpec::static_profile(pa, pw);
                total += if kind == AcceleratorKind::DStripes {
                    let input = Tensor3::from_vec(spec.input_shape(), layer_trace.inputs.clone())
                        .expect("golden layer inputs match the spec");
                    let weights = Tensor4::from_vec(spec.weight_shape(), weights.clone())
                        .expect("weights match the spec");
                    let ds =
                        FunctionalDStripes::new(CONFIG.dpnn()).run_conv(spec, &input, &weights);
                    let dynamic = LayerPrecisionSpec {
                        dynamic_activation: ds.explicit_source(),
                        ..static_spec
                    };
                    let replayed = model.conv_cycles(spec, &dynamic).0;
                    *out_ok &=
                        replayed == ds.run.cycles && ds.run.outputs == layer_trace.accumulators;
                    replayed
                } else {
                    model.conv_cycles(spec, &static_spec).0
                };
            }
            LayerKind::FullyConnected(spec) => {
                total += model
                    .fc_cycles(spec, LayerPrecisionSpec::full_precision_static())
                    .0;
            }
            LayerKind::MaxPool(_) => {}
        }
    }
    total
}

/// References computed before timing: golden traces (one image per thread);
/// DPNN, Stripes and DStripes cycles from their analytic models; Loom
/// cycles from the batched `NetworkEngine` at the variant's geometry, a
/// second code path over the same datapath (the repository has no exact
/// analytic model of dynamic-precision Loom cycles), whose traces are
/// checked against golden.
pub fn references(prep: &Prepared, inputs: &[Tensor3], out: &mut Outcome) -> References {
    let options = InferenceOptions::default();
    let golden: Vec<InferenceTrace> = pool::ordered_map(prep.threads, inputs.len(), |i| {
        prep.graph
            .run(&prep.params, &inputs[i], options)
            .expect("zoo graphs chain by construction")
    });
    let digests: Vec<u64> = golden.iter().map(digest).collect();
    let cycles = prep
        .backends
        .iter()
        .map(|b| match b.kind {
            AcceleratorKind::Loom(variant) => {
                let runs = NetworkEngine::new(CONFIG.loom(variant))
                    .with_threads(prep.threads)
                    .run_batch(&prep.graph, &prep.params, inputs, options)
                    .expect("zoo graphs chain by construction");
                runs.iter()
                    .zip(&digests)
                    .map(|(run, &d)| {
                        out.check(digest(&run.trace) == d);
                        run.cycles
                    })
                    .collect()
            }
            kind => {
                let per_image = pool::ordered_map(prep.threads, golden.len(), |i| {
                    let mut ok = true;
                    (analytic_cycles(prep, kind, &golden[i], &mut ok), ok)
                });
                per_image
                    .into_iter()
                    .map(|(c, ok)| {
                        out.check(ok);
                        c
                    })
                    .collect()
            }
        })
        .collect();
    References { digests, cycles }
}

/// Per-backend call time (seconds) and cycles of one round.
pub struct Timed {
    pub seconds: Vec<f64>,
    pub measured_cycles: Vec<u64>,
}

/// Runs one round: every backend once, both images in one lock-step call,
/// checking every item's digest and cycles.
pub fn measure(
    prep: &Prepared,
    inputs: &[Tensor3],
    refs: &References,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Timed {
    let options = InferenceOptions::default();
    let mut timed = Timed {
        seconds: vec![0.0; prep.backends.len()],
        measured_cycles: vec![0; prep.backends.len()],
    };
    for (bi, b) in prep.backends.iter().enumerate() {
        let id = bi as u64;
        let span = tracer.map(|t| t.open(&b.name, None, id));
        let traced = tracer.zip(span).map(|(tracer, parent)| TimedDatapath {
            inner: b.datapath.as_ref(),
            tracer,
            parent,
            id,
        });
        let backend: &dyn FunctionalDatapath = match &traced {
            Some(t) => t,
            None => b.datapath.as_ref(),
        };
        let t = Instant::now();
        let runs = datapath::run_network_batch(backend, &prep.graph, &prep.params, inputs, options);
        let dt = t.elapsed().as_secs_f64();
        if let (Some(tracer), Some(span)) = (tracer, span) {
            tracer.close(span);
        }
        match runs {
            Ok(runs) => {
                timed.measured_cycles[bi] = runs.iter().map(|r| r.cycles).sum();
                for (i, run) in runs.iter().enumerate() {
                    out.check(
                        digest(&run.trace) == refs.digests[i] && run.cycles == refs.cycles[bi][i],
                    );
                }
            }
            Err(_) => inputs.iter().for_each(|_| out.check(false)),
        }
        timed.seconds[bi] = dt;
    }
    timed
}

/// Runs whole rounds for about `seconds`: rounds follow one another while
/// the time spent plus half a round stays under `seconds`, and at least one
/// runs. A round (about 10 s on a 2-core box) is the workload's unit of work.
pub fn rounds(
    prep: &Prepared,
    inputs: &[Tensor3],
    refs: &References,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Timed> {
    let mut rounds: Vec<Timed> = Vec::new();
    let mut spent = 0.0;
    while rounds.is_empty() || spent + 0.5 * spent / (rounds.len() as f64) < seconds {
        let round = measure(prep, inputs, refs, None, out);
        spent += round.seconds.iter().sum::<f64>();
        rounds.push(round);
    }
    rounds
}

pub fn end_to_end(prep: &Prepared, rounds: &[Timed], out: &mut Outcome) {
    let backends = prep.backends.len() as f64;
    let round_s: Vec<f64> = rounds.iter().map(|r| r.seconds.iter().sum()).collect();
    let total: f64 = round_s.iter().sum();
    let n = rounds.len() as f64;
    out.metric("images_per_s", n * backends * IMAGES as f64 / total, "1/s");
    // A latency sample is a whole round: the batch of two images through
    // every backend. The six backend calls differ in kind, so their times
    // are not samples of one distribution (the per-backend times are the
    // traced run's `dp.<backend>.s`).
    let round_ms: Vec<f64> = round_s.iter().map(|s| s * 1e3).collect();
    out.latency_metrics(
        "round (every backend once, both images per call)",
        &round_ms,
    );
    out.metric("max_rate_rps", n * backends / total, "1/s");
    out.note(
        "images_per_s",
        format!("images over the time of {n} round(s) (every backend once, both images per call)"),
    );
    out.note(
        "max_rate_rps",
        "closed loop: run_network_batch calls per second over the rounds",
    );
}

/// Wraps a backend so every layer call into it is a span under the backend
/// call's span.
struct TimedDatapath<'a> {
    inner: &'a dyn FunctionalDatapath,
    tracer: &'a Tracer,
    parent: usize,
    id: u64,
}

impl FunctionalDatapath for TimedDatapath<'_> {
    fn conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        let t = Instant::now();
        let run = self.inner.conv(spec, input, weights);
        self.tracer
            .record("conv", Some(self.parent), self.id, t, Instant::now());
        run
    }

    fn fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        let t = Instant::now();
        let run = self.inner.fc(spec, input, weights);
        self.tracer
            .record("fc", Some(self.parent), self.id, t, Instant::now());
        run
    }
}

/// The traced run: an untraced round, a traced round with a span per layer
/// call, then the per-backend and reconciliation metrics.
pub fn traced(
    prep: &Prepared,
    inputs: &[Tensor3],
    refs: &References,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let untraced = measure(prep, inputs, refs, None, out);
    let spans_before = tracer.spans().len();
    let traced = measure(prep, inputs, refs, Some(tracer), out);
    let spans = tracer.spans();
    let spans = &spans[spans_before..];
    let call_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let layer_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.duration_ns())
        .sum();
    let calls = prep.backends.len() as f64;

    let macs = prep.graph.total_macs() as f64 * IMAGES as f64;
    let dpnn = prep
        .backends
        .iter()
        .position(|b| b.kind == AcceleratorKind::Dpnn)
        .expect("the default registry holds DPNN");
    let dpnn_s = untraced.seconds[dpnn];
    let dpnn_cycles = untraced.measured_cycles[dpnn] as f64;
    for (bi, b) in prep.backends.iter().enumerate() {
        let s = untraced.seconds[bi];
        let cycles = untraced.measured_cycles[bi] as f64;
        out.metric(format!("dp.{}.s", b.name), s, "s");
        out.metric(format!("dp.{}.ns_per_mac", b.name), s * 1e9 / macs, "ns");
        out.metric(format!("dp.{}.cycles", b.name), cycles, "cycles");
        out.metric(
            format!("dp.{}.modeled_speedup", b.name),
            dpnn_cycles / cycles,
            "ratio",
        );
        out.metric(format!("dp.{}.host_speedup", b.name), dpnn_s / s, "ratio");
    }
    let untraced_round: f64 = untraced.seconds.iter().sum();
    let traced_round: f64 = traced.seconds.iter().sum();
    out.metric(
        "graph.exec_ms",
        (call_ns - layer_ns) as f64 / 1e6 / (calls * IMAGES as f64),
        "ms",
    );
    store_metrics(out);
    out.metric(
        "trace.overhead_frac",
        (traced_round - untraced_round) / untraced_round,
        "ratio",
    );
    crate::reconcile(out, layer_ns as f64 / 1e9 / untraced_round, RECON_BAND);
    out.note(
        "reconciliation",
        "sum of per-layer datapath spans per round (traced) over the untraced round time",
    );
    out.note(
        "modeled_speedup",
        "modelled cycles on synthetic data, unvalidated against the paper; no error figure",
    );
}

/// The layer calls are the whole backend call apart from the shared
/// executor's re-quantization, pooling and buffers.
pub const RECON_BAND: (f64, f64) = (0.8, 1.1);
