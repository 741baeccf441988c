//! Functional comparator datapaths behind one seam.
//!
//! Every accelerator in the [`Registry`](crate::accelerator::Registry) — not
//! just Loom — can execute real networks and produce real numbers. This
//! module defines the [`FunctionalDatapath`] trait those value-computing
//! engines implement (activation-serial Stripes, dual-detection DStripes,
//! bit-parallel DPNN, and the bit-serial Loom engine itself), plus the
//! adapter that plugs any of them into the shared golden graph executor
//! ([`LayerGraph::run_batch_with`]) so scheduling, re-quantization, ReLU,
//! pooling and concatenation are literally the same code on every backend.
//!
//! There is one arithmetic core. DPNN, Stripes and DStripes compute the same
//! exact dot products as Loom, so all three take their values from Loom's
//! wide compressed-bitplane engine ([`FunctionalLoom`], through the pack-once
//! weight store) at their own thread budget, and add only their cycle and
//! detection models. A mis-measuring DStripes detector therefore no longer
//! shows up as a wrong value; the conformance suite recomputes its measured
//! precisions by brute force instead.
//!
//! The payoff is differential testing: [`crate::validate::cross_validate`]
//! runs every registered accelerator over the same network and asserts all of
//! them land bit-exactly on the golden model — and therefore on each other.
//! Adding a backend stays one `Accelerator` impl plus one registry entry;
//! overriding [`Accelerator::functional_datapath`](crate::accelerator::Accelerator::functional_datapath)
//! buys it conformance coverage for free.
//!
//! # Examples
//!
//! Run a network on the functional Stripes datapath and check it against the
//! golden model:
//!
//! ```
//! use loom_model::graph::LayerGraph;
//! use loom_model::inference::{InferenceOptions, NetworkParams};
//! use loom_model::layer::{ConvSpec, FcSpec};
//! use loom_model::network::NetworkBuilder;
//! use loom_model::tensor::{Shape3, Tensor3};
//! use loom_model::Precision;
//! use loom_sim::config::EquivalentConfig;
//! use loom_sim::datapath::{run_network, FunctionalStripes};
//!
//! let graph = LayerGraph::from_network(
//!     &NetworkBuilder::new("tiny")
//!         .conv("conv1", ConvSpec::simple(1, 6, 6, 2, 3))
//!         .fully_connected("fc1", FcSpec::new(2 * 4 * 4, 4))
//!         .build()
//!         .unwrap(),
//! );
//! let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(4).unwrap()], 1);
//! let input = Tensor3::from_vec(Shape3::new(1, 6, 6), (0..36).collect()).unwrap();
//! let options = InferenceOptions::default();
//!
//! let stripes = FunctionalStripes::new(EquivalentConfig::BASELINE_128.dpnn());
//! let run = run_network(&stripes, &graph, &params, &input, options).unwrap();
//! let golden = graph.run(&params, &input, options).unwrap();
//! assert_eq!(run.trace, golden);
//! assert!(run.cycles > 0);
//! ```

use crate::config::{EquivalentConfig, LoomGeometry, LoomVariant};
use crate::loom::functional::{FunctionalLoom, FunctionalRun};
use crate::loom::NetworkRun;
use loom_model::fixed::required_precision;
use loom_model::graph::{GraphCompute, LayerGraph};
use loom_model::inference::{InferenceError, InferenceOptions, NetworkParams};
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::{Tensor3, Tensor4};

pub mod dpnn;
pub mod dstripes;
pub mod stripes;

pub use dpnn::FunctionalDpnn;
pub use dstripes::FunctionalDStripes;
pub use stripes::{serial_activation_inner_product, FunctionalStripes, StripesConvRun};

/// A functional (value-computing) image of an accelerator's datapath.
///
/// Implementations compute real layer outputs — bit-exact against the golden
/// i64 reference — while accounting cycles the way the accelerator's
/// analytic model does. Per-layer precisions are derived from the data itself
/// ([`required_precision`] of the inputs and weights), so a run is
/// self-contained and deterministic.
pub trait FunctionalDatapath: Send + Sync {
    /// Computes one convolutional layer's accumulators (golden filter-major
    /// layout) plus the cycles and reduced-group count the datapath spent.
    fn conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun;

    /// Computes one fully-connected layer's accumulators (output order) plus
    /// cycle accounting.
    fn fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun;
}

/// The Loom engine as a [`FunctionalDatapath`]: the existing bit-serial SIP
/// grid ([`FunctionalLoom`]), with per-layer precisions derived from the data
/// exactly like [`crate::loom::NetworkEngine`] derives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoomDatapath {
    engine: FunctionalLoom,
}

impl LoomDatapath {
    /// Wraps the functional Loom engine at the given geometry, fanning each
    /// layer across `threads` workers.
    pub fn new(geometry: LoomGeometry, threads: usize) -> Self {
        LoomDatapath {
            engine: FunctionalLoom::new(geometry).with_threads(threads),
        }
    }

    /// The value engine the comparators share: the wide datapath with
    /// detection off, since only its outputs are read. The geometry shapes
    /// the task decomposition and the (discarded) cycle count, never a value.
    pub(crate) fn values(threads: usize) -> Self {
        let geometry = EquivalentConfig::BASELINE_128.loom(LoomVariant::Lm1b);
        LoomDatapath {
            engine: FunctionalLoom::new(geometry)
                .with_threads(threads)
                .without_dynamic_precision(),
        }
    }
}

impl FunctionalDatapath for LoomDatapath {
    fn conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        let pa = required_precision(input.as_slice());
        let pw = required_precision(weights.as_slice());
        self.engine.run_conv(spec, input, weights, pa, pw)
    }

    fn fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        let pw = required_precision(weights);
        self.engine.run_fc(spec, input, weights, pw)
    }
}

/// Any [`FunctionalDatapath`] as a [`GraphCompute`] backend with per-item
/// cycle and reduced-group accounting, mirroring the Loom engine's private
/// adapter. The batch entry points are overridden so each item's cycles land
/// on that item, not on item zero.
struct DatapathCompute<'a> {
    backend: &'a dyn FunctionalDatapath,
    cycles: Vec<u64>,
    reduced_groups: Vec<u64>,
}

impl DatapathCompute<'_> {
    fn ensure_items(&mut self, items: usize) {
        if self.cycles.len() < items {
            self.cycles.resize(items, 0);
            self.reduced_groups.resize(items, 0);
        }
    }

    fn record(&mut self, item: usize, run: FunctionalRun) -> Vec<i64> {
        self.cycles[item] += run.cycles;
        self.reduced_groups[item] += run.reduced_groups;
        run.outputs
    }
}

impl GraphCompute for DatapathCompute<'_> {
    fn conv(
        &mut self,
        _layer: &str,
        spec: &ConvSpec,
        input: &Tensor3,
        weights: &Tensor4,
    ) -> Vec<i64> {
        self.ensure_items(1);
        let run = self.backend.conv(spec, input, weights);
        self.record(0, run)
    }

    fn fc(&mut self, _layer: &str, spec: &FcSpec, input: &[i32], weights: &[i32]) -> Vec<i64> {
        self.ensure_items(1);
        let run = self.backend.fc(spec, input, weights);
        self.record(0, run)
    }

    fn conv_batch(
        &mut self,
        _layer: &str,
        spec: &ConvSpec,
        inputs: &[Tensor3],
        weights: &Tensor4,
    ) -> Vec<Vec<i64>> {
        self.ensure_items(inputs.len());
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let run = self.backend.conv(spec, input, weights);
                self.record(i, run)
            })
            .collect()
    }

    fn fc_batch(
        &mut self,
        _layer: &str,
        spec: &FcSpec,
        inputs: &[Vec<i32>],
        weights: &[i32],
    ) -> Vec<Vec<i64>> {
        self.ensure_items(inputs.len());
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let run = self.backend.fc(spec, input, weights);
                self.record(i, run)
            })
            .collect()
    }
}

/// Runs one input through a graph on any functional datapath, sharing the
/// golden executor for everything that is not an inner product. Exactly
/// [`run_network_batch`] with a batch of one.
///
/// # Errors
///
/// As [`LayerGraph::run`]: shape mismatches, empty graphs, or malformed
/// concatenations.
pub fn run_network(
    backend: &dyn FunctionalDatapath,
    graph: &LayerGraph,
    params: &NetworkParams,
    input: &Tensor3,
    options: InferenceOptions,
) -> Result<NetworkRun, InferenceError> {
    Ok(
        run_network_batch(backend, graph, params, std::slice::from_ref(input), options)?
            .pop()
            .expect("one run per input"),
    )
}

/// Runs every input through a graph on any functional datapath, with
/// per-item cycle and reduced-group attribution.
///
/// # Errors
///
/// As [`LayerGraph::run_batch`].
pub fn run_network_batch(
    backend: &dyn FunctionalDatapath,
    graph: &LayerGraph,
    params: &NetworkParams,
    inputs: &[Tensor3],
    options: InferenceOptions,
) -> Result<Vec<NetworkRun>, InferenceError> {
    let mut compute = DatapathCompute {
        backend,
        cycles: vec![0; inputs.len()],
        reduced_groups: vec![0; inputs.len()],
    };
    let traces = graph.run_batch_with(params, inputs, options, &[], &mut compute)?;
    Ok(traces
        .into_iter()
        .zip(compute.cycles)
        .zip(compute.reduced_groups)
        .map(|((trace, cycles), reduced_groups)| NetworkRun {
            trace,
            cycles,
            reduced_groups,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;

    use loom_model::graph::{GraphBuilder, GRAPH_INPUT};
    use loom_model::synthetic::{synthetic_activations, ValueDistribution};
    use loom_model::tensor::Shape3;
    use loom_model::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn branching_graph() -> LayerGraph {
        let b3 = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(4, 6, 6, 3, 3)
        };
        GraphBuilder::new("fork")
            .conv("stem", GRAPH_INPUT, ConvSpec::simple(2, 8, 8, 4, 3))
            .conv("b1", "stem", ConvSpec::simple(4, 6, 6, 2, 1))
            .conv("b3", "stem", b3)
            .concat("merge", &["b1", "b3"])
            .fully_connected("fc", "merge", FcSpec::new((2 + 3) * 36, 6))
            .build()
            .unwrap()
    }

    fn input(seed: u64) -> Tensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor3::from_vec(
            Shape3::new(2, 8, 8),
            synthetic_activations(
                &mut rng,
                2 * 8 * 8,
                Precision::new(8).unwrap(),
                ValueDistribution::activations(),
            ),
        )
        .unwrap()
    }

    #[test]
    fn every_builtin_datapath_matches_golden_on_a_branching_graph() {
        let graph = branching_graph();
        let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(7).unwrap()], 3);
        let options = InferenceOptions::default();
        let inputs = [input(1), input(2)];
        let golden = graph.run_batch(&params, &inputs, options).unwrap();

        let geo = EquivalentConfig::BASELINE_128;
        let backends: Vec<(&str, Box<dyn FunctionalDatapath>)> = vec![
            ("dpnn", Box::new(FunctionalDpnn::new(geo.dpnn()))),
            ("stripes", Box::new(FunctionalStripes::new(geo.dpnn()))),
            ("dstripes", Box::new(FunctionalDStripes::new(geo.dpnn()))),
            (
                "loom",
                Box::new(LoomDatapath::new(
                    geo.loom(crate::config::LoomVariant::Lm1b),
                    2,
                )),
            ),
        ];
        for (name, backend) in &backends {
            let runs =
                run_network_batch(backend.as_ref(), &graph, &params, &inputs, options).unwrap();
            assert_eq!(runs.len(), 2, "{name}");
            for (run, golden) in runs.iter().zip(golden.iter()) {
                assert_eq!(&run.trace, golden, "{name} diverged from golden");
                assert!(run.cycles > 0, "{name}");
            }
            // Batch of N equals N batches of one.
            for (i, one) in inputs.iter().enumerate() {
                let single = run_network(backend.as_ref(), &graph, &params, one, options).unwrap();
                assert_eq!(&single, &runs[i], "{name} batch/single divergence");
            }
        }
    }
}
