//! Inputs, reference digests and counters shared by the workloads.

use crate::stats::Outcome;
use loom_core::loom_model::inference::InferenceTrace;
use loom_core::loom_model::synthetic::{
    synthetic_activations, synthetic_weights, ValueDistribution,
};
use loom_core::loom_model::tensor::{Shape3, Tensor3};
use loom_core::loom_model::Precision;
use loom_core::loom_sim::loom::{weight_store_stats, wide_inner_product, WideBitplaneBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Bit widths of synthetic weights and input images (the functional
/// benchmark's setting).
pub const WEIGHT_BITS: u8 = 8;
pub const INPUT_BITS: u8 = 8;

pub fn precision(bits: u8) -> Precision {
    Precision::new(bits).expect("benchmark precisions are between 1 and 16 bits")
}

/// A seed for one purpose, derived from the run's seed, so weights, images
/// and request streams are independent streams of the same `--seed`.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// `count` synthetic 8-bit images of `shape` from one seed.
pub fn images(shape: Shape3, count: usize, seed: u64) -> Vec<Tensor3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            Tensor3::from_vec(
                shape,
                synthetic_activations(
                    &mut rng,
                    shape.len(),
                    precision(INPUT_BITS),
                    ValueDistribution::activations(),
                ),
            )
            .expect("shape and length agree by construction")
        })
        .collect()
}

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0100_0000_01B3).rotate_left(29)
}

/// A 64-bit digest of a whole forward-pass trace: every layer's name,
/// inputs, accumulators, outputs and re-quantization shift. Two traces with
/// equal digests are taken as equal; any changed value changes the digest
/// with overwhelming probability.
pub fn digest(trace: &InferenceTrace) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for layer in &trace.layers {
        for b in layer.layer_name.bytes() {
            h = mix(h, u64::from(b));
        }
        h = mix(h, layer.inputs.len() as u64);
        for &v in &layer.inputs {
            h = mix(h, v as u32 as u64);
        }
        h = mix(h, layer.accumulators.len() as u64);
        for &v in &layer.accumulators {
            h = mix(h, v as u64);
        }
        h = mix(h, layer.outputs.len() as u64);
        for &v in &layer.outputs {
            h = mix(h, v as u32 as u64);
        }
        h = mix(h, u64::from(layer.requant_shift));
    }
    h
}

/// Bytes a trace holds in its tensors (i32 inputs and outputs, i64
/// accumulators).
pub fn trace_bytes(trace: &InferenceTrace) -> usize {
    trace
        .layers
        .iter()
        .map(|l| 4 * l.inputs.len() + 8 * l.accumulators.len() + 4 * l.outputs.len())
        .sum()
}

/// What a checked run must reproduce for one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub digest: u64,
    pub cycles: u64,
    pub reduced_groups: u64,
}

/// Single-thread plane-pair rate of the wide kernel at `pa × pw`, measured
/// once per precision pair: one `wide_inner_product` call on a 256-lane
/// block does `pa × pw` plane-pair AND+popcounts.
#[derive(Default)]
pub struct KernelPeak {
    rates: BTreeMap<(u8, u8), f64>,
}

impl KernelPeak {
    /// Plane pairs per second on one thread.
    pub fn rate(&mut self, pa: u8, pw: u8) -> f64 {
        *self.rates.entry((pa, pw)).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(u64::from(pa) << 8 | u64::from(pw));
            let w = synthetic_weights(&mut rng, 256, precision(pw), ValueDistribution::weights());
            let a = synthetic_activations(
                &mut rng,
                256,
                precision(pa),
                ValueDistribution::activations(),
            );
            let (w, a) = (WideBitplaneBlock::pack(&w), WideBitplaneBlock::pack(&a));
            let (ppa, ppw) = (precision(pa), precision(pw));
            let mut calls = 0u64;
            let started = Instant::now();
            while started.elapsed().as_millis() < 20 {
                for _ in 0..1000 {
                    black_box(wide_inner_product(
                        black_box(&w),
                        black_box(&a),
                        ppw,
                        ppa,
                        true,
                        false,
                    ));
                }
                calls += 1000;
            }
            calls as f64 * f64::from(pa) * f64::from(pw) / started.elapsed().as_secs_f64()
        })
    }
}

/// The process-wide weight store's counters as per-layer metrics.
pub fn store_metrics(out: &mut Outcome) {
    let s = weight_store_stats();
    let lookups = s.packs() + s.hits();
    out.metric("store.packs", s.packs() as f64, "count");
    out.metric("store.hits", s.hits() as f64, "count");
    out.metric(
        "store.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            s.hits() as f64 / lookups as f64
        },
        "ratio",
    );
    out.metric("store.pack_s", s.pack.pack_nanos as f64 / 1e9, "s");
    out.metric("store.resident_mb", s.resident_bytes as f64 / 1e6, "MB");
    out.metric("store.compression_ratio", s.pack.ratio(), "ratio");
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so the reference work done before timing does not set the peak.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
