//! Functional Stripes datapath: bit-serial activations, bit-parallel weights.
//!
//! A Stripes tile compensates for serial activations with window parallelism:
//! every step broadcasts one 16-long weight chunk to
//! [`STRIPES_WINDOW_PARALLELISM`] windows at once and feeds the matching
//! activations one bit per cycle, so a step costs `Pa` cycles (the layer's
//! activation precision) per group of `k` filters. The per-bit recipe lives
//! in [`serial_activation_inner_product`], the bit-serial oracle the tests
//! hold the shared value engine to.
//!
//! The values come from the shared wide engine (see [`crate::datapath`]).
//! What this module adds is the Stripes-family cycle model: one effective
//! activation precision per (window group × weight chunk) step, in exactly
//! the order of the analytic model ([`crate::stripes::conv_cycles_dynamic`]).
//! Stripes runs every step at the layer's static precision and needs no
//! patch extraction; DStripes measures each step's precision from the
//! activation block it consumes. Either way the functional count reproduces
//! the analytic one by construction — a property the conformance suite
//! asserts on the zoo.

use crate::config::DpnnGeometry;
use crate::datapath::{FunctionalDatapath, FunctionalDpnn, LoomDatapath};
use crate::loom::functional::FunctionalRun;
use crate::pool;
use crate::stripes::STRIPES_WINDOW_PARALLELISM;
use loom_model::fixed::{bit_of, required_precision, signed_bits};
use loom_model::im2col::window_patch_into;
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::{Tensor3, Tensor4};
use loom_model::Precision;
use loom_precision::trace::GroupPrecisionSource;

/// The functional Stripes datapath: activation-serial convolutions at the
/// layer's *static* activation precision, bit-parallel (DPNN-identical)
/// fully-connected layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalStripes {
    geometry: DpnnGeometry,
    threads: usize,
}

impl FunctionalStripes {
    /// Creates a Stripes datapath over the bit-parallel tile geometry,
    /// computing on one worker thread.
    pub fn new(geometry: DpnnGeometry) -> Self {
        FunctionalStripes {
            geometry,
            threads: 1,
        }
    }

    /// Fans each layer's value computation across `threads` pool workers
    /// (clamped to at least 1). Results are identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs a convolutional layer with the static per-layer activation
    /// precision derived from the input data itself.
    pub fn run_conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> StripesConvRun {
        conv_serial_activations(&self.geometry, spec, input, weights, false, self.threads)
    }

    /// Runs a fully-connected layer. Without weight reuse there is no time to
    /// feed activations bit-serially, so FCLs execute exactly like DPNN.
    pub fn run_fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        FunctionalDpnn::new(self.geometry)
            .with_threads(self.threads)
            .run_fc(spec, input, weights)
    }
}

impl FunctionalDatapath for FunctionalStripes {
    fn conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        self.run_conv(spec, input, weights).run
    }

    fn fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        self.run_fc(spec, input, weights)
    }
}

/// A Stripes-family convolution run, with the per-step activation precisions
/// the datapath actually fed — the hook that lets tests close the loop
/// against the analytic model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripesConvRun {
    /// Outputs (golden layout), cycles, and reduced-group count.
    pub run: FunctionalRun,
    /// The layer's nominal activation precision (from the input data).
    pub nominal_activation: Precision,
    /// Effective activation precision of every (window group × weight chunk)
    /// step, in the analytic model's group order.
    pub group_precisions: Vec<Precision>,
}

impl StripesConvRun {
    /// The measured per-group precisions as an analytic-model source: feeding
    /// this to [`crate::stripes::conv_cycles_dynamic`] with
    /// [`StripesConvRun::nominal_activation`] reproduces
    /// [`FunctionalRun::cycles`] exactly.
    pub fn explicit_source(&self) -> GroupPrecisionSource {
        GroupPrecisionSource::Explicit(self.group_precisions.clone())
    }
}

/// The shared Stripes/DStripes convolution: values from the shared engine,
/// cycles from one effective precision per step. `dynamic` enables runtime
/// per-step activation precision detection (DStripes); without it every step
/// runs at the layer's nominal precision (Stripes).
///
/// Steps iterate window groups (outer) then weight chunks (inner) — the same
/// group order as [`crate::stripes::conv_cycles_dynamic`] — and each step
/// costs its effective precision times the number of filter groups.
/// Detection shares one step across every conv group's lanes, so (like the
/// Loom engine) grouped convolutions conservatively fall back to the layer
/// precision.
pub(crate) fn conv_serial_activations(
    geometry: &DpnnGeometry,
    spec: &ConvSpec,
    input: &Tensor3,
    weights: &Tensor4,
    dynamic: bool,
    threads: usize,
) -> StripesConvRun {
    let outputs = LoomDatapath::values(threads)
        .conv(spec, input, weights)
        .outputs;
    let pa = required_precision(input.as_slice());
    let group_precisions = if dynamic && spec.groups == 1 {
        detect_group_precisions(geometry, spec, input, pa, threads)
    } else {
        let window_groups = spec.windows().div_ceil(STRIPES_WINDOW_PARALLELISM as usize);
        let chunks = spec.weights_per_filter().div_ceil(geometry.lanes);
        vec![pa; window_groups * chunks]
    };
    let filter_groups = (spec.filters as u64).div_ceil(geometry.filters as u64);
    let cycles = group_precisions.iter().map(|p| p.bits_u64()).sum::<u64>() * filter_groups;
    let reduced_groups = group_precisions.iter().filter(|&&p| p < pa).count() as u64;
    StripesConvRun {
        run: FunctionalRun {
            outputs,
            cycles,
            reduced_groups,
        },
        nominal_activation: pa,
        group_precisions,
    }
}

/// Per-worker scratch of the DStripes detector: one window's im2col patch.
#[derive(Default)]
struct DetectArena(Vec<i32>);

/// DStripes' detector, window groups fanned across `threads` pool workers:
/// for every step, the widest signed value in the 16 windows × 16 lanes
/// activation block it consumes (the hardware's OR tree), capped at the layer
/// precision `pa`. Only ungrouped convolutions detect.
fn detect_group_precisions(
    geometry: &DpnnGeometry,
    spec: &ConvSpec,
    input: &Tensor3,
    pa: Precision,
    threads: usize,
) -> Vec<Precision> {
    let windows = spec.windows();
    let out_w = spec.out_width();
    let lanes = geometry.lanes;
    let chunks = spec.weights_per_filter().div_ceil(lanes);
    let parallelism = STRIPES_WINDOW_PARALLELISM as usize;
    let per_group = pool::ordered_map_with(
        threads,
        windows.div_ceil(parallelism),
        DetectArena::default,
        |DetectArena(patch), group| {
            let mut need = vec![1u8; chunks];
            let first = group * parallelism;
            for w in first..windows.min(first + parallelism) {
                patch.clear();
                let (oy, ox) = (w / out_w, w % out_w);
                window_patch_into(spec, input, oy, ox, 0, spec.in_channels, patch);
                for (need, block) in need.iter_mut().zip(patch.chunks(lanes)) {
                    *need = block.iter().fold(*need, |n, &a| n.max(signed_bits(a)));
                }
            }
            need.into_iter()
                .map(|n| Precision::saturating(n).min(pa))
                .collect::<Vec<_>>()
        },
    );
    per_group.concat()
}

/// One Stripes lane group exactly as the hardware executes it: weights stay
/// bit-parallel while activations stream in one bit per cycle, LSB first;
/// each cycle's partial sum is shifted into the accumulator, and — for signed
/// activations — the MSB cycle's contribution is negated (two's complement).
///
/// This is the bit-serial oracle the shared value engine is proven
/// bit-identical to (see the proptests below), mirroring how
/// [`crate::loom::sip::serial_inner_product`] anchors the Loom kernels.
pub fn serial_activation_inner_product(
    weights: &[i32],
    activations: &[i32],
    pa: Precision,
    activations_signed: bool,
) -> i64 {
    assert_eq!(weights.len(), activations.len(), "lane count mismatch");
    let mut acc = 0i64;
    for ab in 0..pa.bits() {
        let mut partial = 0i64;
        for (&w, &a) in weights.iter().zip(activations.iter()) {
            partial += i64::from(w) * i64::from(bit_of(a, ab));
        }
        if activations_signed && ab == pa.bits() - 1 {
            partial = -partial;
        }
        acc += partial << ab;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;
    use crate::stripes;
    use loom_model::reference::conv_forward;
    use loom_model::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    fn conv_case(spec: &ConvSpec, seed: u64, pa: Precision, pw: Precision) -> (Tensor3, Tensor4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                pa,
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                pw,
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        (input, weights)
    }

    #[test]
    fn static_conv_matches_golden_and_analytic_model() {
        let spec = ConvSpec {
            padding: 1,
            ..ConvSpec::simple(5, 9, 9, 7, 3)
        };
        let (input, weights) = conv_case(&spec, 11, Precision::new(7).unwrap(), Precision::FULL);
        let run = FunctionalStripes::new(geo()).run_conv(&spec, &input, &weights);
        let golden = conv_forward(&spec, &input, &weights);
        assert_eq!(run.run.outputs, golden);
        let pa = required_precision(input.as_slice());
        assert_eq!(
            run.run.cycles,
            stripes::conv_cycles_static(&geo(), &spec, pa)
        );
        assert_eq!(run.run.reduced_groups, 0);
        assert!(run.group_precisions.iter().all(|&p| p == pa));
    }

    #[test]
    fn grouped_conv_disables_detection_but_stays_exact() {
        let spec = ConvSpec {
            groups: 2,
            ..ConvSpec::simple(6, 8, 8, 4, 3)
        };
        let (input, weights) = conv_case(&spec, 3, Precision::new(6).unwrap(), Precision::FULL);
        for dynamic in [false, true] {
            let run = conv_serial_activations(&geo(), &spec, &input, &weights, dynamic, 2);
            assert_eq!(run.run.outputs, conv_forward(&spec, &input, &weights));
            assert_eq!(run.run.reduced_groups, 0, "grouped convs stay nominal");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bit-serial activation recipe, the shared value engine (the
        /// lanes as one fully-connected output), and the plain i64 reference
        /// all agree — over ragged lane counts, every signedness combination,
        /// and zero blocks.
        #[test]
        fn serial_recipe_matches_fast_path(
            lanes in 1usize..=256,
            // 15 magnitude bits at most: a P-magnitude-bit unsigned draw
            // needs P+1 signed bits, and 16 is the datapath operand width.
            pa_bits in 1u8..=15,
            negate_w in any::<bool>(),
            negate_a in any::<bool>(),
            zero_block in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pa = Precision::new(pa_bits).unwrap();
            // The generator draws unsigned activations (post-ReLU); flip
            // alternating lanes to cover signed serial feeds too.
            let mut activations = synthetic_activations(
                &mut rng, lanes, pa, ValueDistribution::activations());
            let mut weights = synthetic_weights(
                &mut rng, lanes, Precision::FULL, ValueDistribution::weights());
            if negate_a {
                for a in activations.iter_mut().step_by(2) {
                    *a = -*a;
                }
            }
            if !negate_w {
                // The planted -32768 has no positive 16-bit counterpart.
                for w in &mut weights {
                    *w = w.abs().min(i32::from(i16::MAX));
                }
            }
            if zero_block {
                let half = lanes / 2;
                activations[..half].fill(0);
            }
            // The precisions the engine would derive from this data.
            let eff = required_precision(&activations);
            let signed = activations.iter().any(|&a| a < 0);
            let reference: i64 = weights
                .iter()
                .zip(activations.iter())
                .map(|(&w, &a)| i64::from(w) * i64::from(a))
                .sum();
            let serial = serial_activation_inner_product(&weights, &activations, eff, signed);
            let shared = FunctionalStripes::new(geo())
                .run_fc(&FcSpec::new(lanes, 1), &activations, &weights)
                .outputs;
            prop_assert_eq!(serial, reference);
            prop_assert_eq!(shared, vec![reference]);
        }
    }
}
