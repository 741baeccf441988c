//! DPNN: the bit-parallel, fixed-precision baseline (§3.1), a DaDianNao-style
//! tile with `N = 16` activation lanes broadcast to `k` inner-product units.
//!
//! Every cycle the tile consumes 16 activations and 16 weights per filter for
//! `k` filters. The cycle count of a layer therefore follows directly from the
//! tiling:
//!
//! * **CVL** — `windows × ceil(filters / k) × ceil(weights_per_filter / 16)`
//! * **FCL** — `ceil(outputs / k) × ceil(inputs / 16)`
//!
//! Pooling and activation functions are handled by dedicated units off the
//! critical path (as in DaDianNao) and contribute no datapath cycles.
//!
//! These are the *analytic* cycle models; the value-computing counterpart
//! ([`crate::datapath::FunctionalDpnn`]) computes real tensors on the shared
//! wide engine, bit-exact against the golden reference, and reports these
//! formulas' cycle counts.

use crate::config::DpnnGeometry;
use loom_model::layer::{ConvSpec, FcSpec};

/// Compute cycles DPNN spends on a convolutional layer.
pub fn conv_cycles(geometry: &DpnnGeometry, spec: &ConvSpec) -> u64 {
    let windows = spec.windows() as u64;
    let filter_groups = (spec.filters as u64).div_ceil(geometry.filters as u64);
    let weight_chunks = (spec.weights_per_filter() as u64).div_ceil(geometry.lanes as u64);
    windows * filter_groups * weight_chunks
}

/// Compute cycles DPNN spends on a fully-connected layer.
pub fn fc_cycles(geometry: &DpnnGeometry, spec: &FcSpec) -> u64 {
    let output_groups = (spec.out_features as u64).div_ceil(geometry.filters as u64);
    let input_chunks = (spec.in_features as u64).div_ceil(geometry.lanes as u64);
    output_groups * input_chunks
}

/// Datapath utilisation of a convolutional layer: the fraction of the
/// `lanes × filters` MAC slots that perform useful work.
pub fn conv_utilization(geometry: &DpnnGeometry, spec: &ConvSpec) -> f64 {
    let ideal = spec.macs() as f64;
    let actual = conv_cycles(geometry, spec) as f64 * geometry.macs_per_cycle() as f64;
    (ideal / actual).min(1.0)
}

/// Datapath utilisation of a fully-connected layer.
pub fn fc_utilization(geometry: &DpnnGeometry, spec: &FcSpec) -> f64 {
    let ideal = spec.macs() as f64;
    let actual = fc_cycles(geometry, spec) as f64 * geometry.macs_per_cycle() as f64;
    (ideal / actual).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquivalentConfig;

    fn geo() -> DpnnGeometry {
        EquivalentConfig::BASELINE_128.dpnn()
    }

    #[test]
    fn paper_quantum_takes_256_cycles() {
        // "DPNN would process 16 sets of 16 activations and 128 filters over
        // 256 cycles": a layer slice with 16 windows, 128 filters and 16-long
        // inner products.
        let spec = ConvSpec {
            in_channels: 16,
            in_height: 4,
            in_width: 4,
            filters: 128,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
            groups: 1,
        };
        assert_eq!(spec.windows(), 16);
        assert_eq!(spec.weights_per_filter(), 16);
        assert_eq!(conv_cycles(&geo(), &spec), 256);
        assert_eq!(conv_utilization(&geo(), &spec), 1.0);
    }

    #[test]
    fn fc_quantum_matches_paper() {
        // 256 inputs × 128 outputs = 32768 MACs = 256 DPNN cycles.
        let spec = FcSpec::new(256, 128);
        assert_eq!(fc_cycles(&geo(), &spec), 256);
        assert_eq!(fc_utilization(&geo(), &spec), 1.0);
    }

    #[test]
    fn ragged_layers_round_up() {
        // 9 filters need two filter groups of 8; 17-long inner products need
        // two 16-wide chunks.
        let spec = ConvSpec {
            in_channels: 17,
            in_height: 3,
            in_width: 3,
            filters: 9,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
            groups: 1,
        };
        assert_eq!(conv_cycles(&geo(), &spec), 9 * 2 * 2);
        assert!(conv_utilization(&geo(), &spec) < 0.5);
    }

    #[test]
    fn cycles_scale_inversely_with_filter_count_of_the_tile() {
        let spec = FcSpec::new(4096, 4096);
        let small = EquivalentConfig::new(32).unwrap().dpnn();
        let large = EquivalentConfig::new(256).unwrap().dpnn();
        assert_eq!(fc_cycles(&small, &spec), 8 * fc_cycles(&large, &spec));
    }

    #[test]
    fn alexnet_conv_cycles_track_macs() {
        // A perfectly tiled approximation: cycles*128 should be within 2x of
        // the MAC count for real layers (under-utilisation only from rounding).
        let net = loom_model::zoo::alexnet();
        for (layer, spec) in net.conv_layers() {
            let cycles = conv_cycles(&geo(), spec);
            let ideal = layer.macs().div_ceil(128);
            assert!(cycles >= ideal, "{}", layer.name);
            assert!(
                cycles <= ideal * 2,
                "{}: {cycles} vs ideal {ideal}",
                layer.name
            );
        }
    }
}
