//! Functional DPNN datapath: the fixed-precision bit-parallel baseline.
//!
//! DPNN (the DaDianNao-style tile of §3.1) multiplies 16-bit operands in
//! parallel: each cycle broadcasts one 16-long activation chunk to `k`
//! inner-product units, one filter each. Precision never changes its
//! schedule, so its cycle count is exactly the analytic
//! [`crate::dpnn::conv_cycles`] / [`crate::dpnn::fc_cycles`] tile-loop count.
//! The values come from the shared wide engine (see [`crate::datapath`]);
//! the datapath contributes only that cycle model.

use crate::config::DpnnGeometry;
use crate::datapath::{FunctionalDatapath, LoomDatapath};
use crate::dpnn;
use crate::loom::functional::FunctionalRun;
use loom_model::layer::{ConvSpec, FcSpec};
use loom_model::tensor::{Tensor3, Tensor4};

/// The functional DPNN datapath: bit-parallel 16-lane chunks, `k` filters per
/// cycle, precision-independent scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalDpnn {
    geometry: DpnnGeometry,
    threads: usize,
}

impl FunctionalDpnn {
    /// Creates a DPNN datapath over the bit-parallel tile geometry, computing
    /// on one worker thread.
    pub fn new(geometry: DpnnGeometry) -> Self {
        FunctionalDpnn {
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

    /// Runs a convolutional layer: exact values, and the tile-loop cycles of
    /// streaming every window's patch through 16-lane chunks, `k` filters at a
    /// time.
    pub fn run_conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        FunctionalRun {
            outputs: LoomDatapath::values(self.threads)
                .conv(spec, input, weights)
                .outputs,
            cycles: dpnn::conv_cycles(&self.geometry, spec),
            reduced_groups: 0,
        }
    }

    /// Runs a fully-connected layer through the same bit-parallel tiles.
    /// Stripes and DStripes run their FCLs this way too: without weight reuse
    /// the serial datapaths gain nothing and fall back to this schedule.
    pub fn run_fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        FunctionalRun {
            outputs: LoomDatapath::values(self.threads)
                .fc(spec, input, weights)
                .outputs,
            cycles: dpnn::fc_cycles(&self.geometry, spec),
            reduced_groups: 0,
        }
    }
}

impl FunctionalDatapath for FunctionalDpnn {
    fn conv(&self, spec: &ConvSpec, input: &Tensor3, weights: &Tensor4) -> FunctionalRun {
        self.run_conv(spec, input, weights)
    }

    fn fc(&self, spec: &FcSpec, input: &[i32], weights: &[i32]) -> FunctionalRun {
        self.run_fc(spec, input, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;
    use loom_model::reference::{conv_forward, fc_forward};
    use loom_model::synthetic::{synthetic_activations, synthetic_weights, ValueDistribution};
    use loom_model::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    #[test]
    fn conv_matches_golden_with_grouped_filters_and_ragged_chunks() {
        // 2 groups and a weights-per-filter count that is not a multiple of
        // 16, so the last chunk is ragged.
        let spec = ConvSpec {
            groups: 2,
            padding: 1,
            ..ConvSpec::simple(6, 7, 7, 4, 3)
        };
        let mut rng = StdRng::seed_from_u64(9);
        let input = Tensor3::from_vec(
            spec.input_shape(),
            synthetic_activations(
                &mut rng,
                spec.input_shape().len(),
                Precision::new(8).unwrap(),
                ValueDistribution::activations(),
            ),
        )
        .unwrap();
        let weights = Tensor4::from_vec(
            spec.weight_shape(),
            synthetic_weights(
                &mut rng,
                spec.weight_shape().len(),
                Precision::new(8).unwrap(),
                ValueDistribution::weights(),
            ),
        )
        .unwrap();
        let run = FunctionalDpnn::new(geo()).run_conv(&spec, &input, &weights);
        assert_eq!(run.outputs, conv_forward(&spec, &input, &weights));
        assert_eq!(run.cycles, dpnn::conv_cycles(&geo(), &spec));
        assert_eq!(run.reduced_groups, 0);
    }

    #[test]
    fn fc_matches_golden() {
        let spec = FcSpec::new(37, 5);
        let mut rng = StdRng::seed_from_u64(4);
        let input = synthetic_activations(
            &mut rng,
            spec.in_features,
            Precision::new(9).unwrap(),
            ValueDistribution::activations(),
        );
        let weights = synthetic_weights(
            &mut rng,
            spec.in_features * spec.out_features,
            Precision::new(9).unwrap(),
            ValueDistribution::weights(),
        );
        let run = FunctionalDpnn::new(geo()).run_fc(&spec, &input, &weights);
        assert_eq!(run.outputs, fc_forward(&spec, &input, &weights));
        assert_eq!(run.cycles, dpnn::fc_cycles(&geo(), &spec));
    }
}
