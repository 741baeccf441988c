//! Thread-count invariance of the work-stealing pool and the cost-model
//! layer decomposition: any thread budget, any task plan, bit-identical
//! results.
//!
//! The pool's determinism argument is structural — tasks cover disjoint
//! output ranges and merge in task order — so these suites hammer the
//! schedule-dependent paths: skewed job costs that force stealing, layers
//! whose cost model picks different plans at different budgets (window
//! chunks, filter tiles, FC row groups), and whole-network batch-of-1 runs
//! where *intra-layer* tasks are the only parallelism available. The
//! DPNN/Stripes/DStripes comparators compute on the same engine at their own
//! thread budget and are held to the same invariance.

use loom_core::loom_model::graph::LayerGraph;
use loom_core::loom_model::inference::{InferenceOptions, NetworkParams};
use loom_core::loom_model::layer::{ConvSpec, FcSpec};
use loom_core::loom_model::network::NetworkBuilder;
use loom_core::loom_model::synthetic::{
    synthetic_activations, synthetic_weights, ValueDistribution,
};
use loom_core::loom_model::tensor::{Tensor3, Tensor4};
use loom_core::loom_model::zoo::graphs;
use loom_core::loom_model::Precision;
use loom_core::loom_sim::config::{EquivalentConfig, LoomGeometry};
use loom_core::loom_sim::datapath::{
    run_network_batch, FunctionalDStripes, FunctionalDatapath, FunctionalDpnn, FunctionalStripes,
};
use loom_core::loom_sim::loom::{FunctionalLoom, NetworkEngine};
use loom_core::loom_sim::pool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread budgets every suite sweeps: inline, even splits, and more workers
/// than most job counts (so some deques start empty and must steal).
const THREAD_CURVE: [usize; 4] = [1, 2, 4, 8];

/// Deterministic spin: repeated multiply-add so job cost scales with `rounds`
/// but the result depends only on the job seed.
fn spin(seed: u64, rounds: u64) -> u64 {
    let mut acc = seed;
    for _ in 0..rounds {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ordered_map` returns bit-identical, order-preserving results at every
    /// thread count for random job counts and heavily skewed per-job costs.
    /// The costs are front-loaded (early jobs up to ~100x heavier), which
    /// overloads worker 0's deque and forces the other participants to steal.
    #[test]
    fn ordered_map_is_thread_invariant_under_skew(
        jobs in 1usize..180,
        seed in any::<u64>(),
    ) {
        let job = |i: usize| {
            let heavy = if i < 8 { 4096 } else { 64 };
            spin(seed ^ i as u64, heavy) ^ (i as u64)
        };
        let baseline: Vec<u64> = (0..jobs).map(job).collect();
        for threads in THREAD_CURVE {
            let pooled = pool::ordered_map(threads, jobs, job);
            prop_assert_eq!(&baseline, &pooled);
        }
    }

    /// `ordered_map_with` (the arena-reusing form the layer engines drive)
    /// is equally invariant: worker-local state persists across jobs without
    /// leaking into results.
    #[test]
    fn ordered_map_with_is_thread_invariant(
        jobs in 1usize..120,
        seed in any::<u64>(),
    ) {
        #[derive(Default)]
        struct Arena(Vec<u64>);
        let run = |threads: usize| {
            pool::ordered_map_with(threads, jobs, Arena::default, |arena, i| {
                // The arena grows monotonically per worker; results must not
                // depend on how much history this worker has accumulated.
                arena.0.push(i as u64);
                spin(seed ^ i as u64, 32 + (i as u64 % 7) * 128)
            })
        };
        let baseline = run(1);
        for threads in &THREAD_CURVE[1..] {
            prop_assert_eq!(&baseline, &run(*threads));
        }
    }
}

fn conv_operands(spec: &ConvSpec, seed: u64) -> (Tensor3, Tensor4) {
    let p8 = Precision::new(8).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let input = Tensor3::from_vec(
        spec.input_shape(),
        synthetic_activations(
            &mut rng,
            spec.input_shape().len(),
            p8,
            ValueDistribution::activations(),
        ),
    )
    .unwrap();
    let weights = Tensor4::from_vec(
        spec.weight_shape(),
        synthetic_weights(
            &mut rng,
            spec.weight_shape().len(),
            p8,
            ValueDistribution::weights(),
        ),
    )
    .unwrap();
    (input, weights)
}

fn wide_geometry() -> LoomGeometry {
    LoomGeometry {
        filter_rows: 16,
        window_columns: 8,
        sip_lanes: 16,
        act_bits_per_cycle: 1,
    }
}

/// A conv layer large enough that the cost model splits it into window-chunk
/// tasks is bit-identical — outputs, cycles, and reduced-group counts — at
/// every thread budget.
#[test]
fn window_chunked_conv_is_thread_invariant() {
    let spec = ConvSpec::simple(32, 16, 16, 32, 3);
    let (input, weights) = conv_operands(&spec, 11);
    let p8 = Precision::new(8).unwrap();
    let baseline = FunctionalLoom::new(wide_geometry()).run_conv(&spec, &input, &weights, p8, p8);
    for threads in THREAD_CURVE {
        let run = FunctionalLoom::new(wide_geometry())
            .with_threads(threads)
            .run_conv(&spec, &input, &weights, p8, p8);
        assert_eq!(baseline, run, "threads={threads}");
    }
}

/// A conv layer with few window groups but many filters — the shape that
/// engages *filter tiles* (the batch-of-1 latency decomposition, where
/// detection folds run per window group and only tile 0 accounts cycles) —
/// is bit-identical at every thread budget.
#[test]
fn filter_tiled_conv_is_thread_invariant() {
    // 6x6 input, 3x3 kernel: 16 windows = 2 window groups at 8 columns, so
    // any budget beyond 2 tasks must come from filter tiling.
    let spec = ConvSpec::simple(96, 6, 6, 128, 3);
    let (input, weights) = conv_operands(&spec, 23);
    let p8 = Precision::new(8).unwrap();
    let baseline = FunctionalLoom::new(wide_geometry()).run_conv(&spec, &input, &weights, p8, p8);
    for threads in THREAD_CURVE {
        let run = FunctionalLoom::new(wide_geometry())
            .with_threads(threads)
            .run_conv(&spec, &input, &weights, p8, p8);
        assert_eq!(baseline, run, "threads={threads}");
    }
}

fn zoo_input(graph: &LayerGraph, seed: u64) -> Tensor3 {
    let shape = graph.input_shape().expect("zoo graphs start with a conv");
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor3::from_vec(
        shape,
        synthetic_activations(
            &mut rng,
            shape.len(),
            Precision::new(8).unwrap(),
            ValueDistribution::activations(),
        ),
    )
    .unwrap()
}

/// Whole-network batch-of-1 inference: with a single input, every drop of
/// parallelism comes from intra-layer tasks. The runs — traces, cycles,
/// reduced groups — must be bit-identical to the serial engine at every
/// thread count, and to the golden graph executor.
#[test]
fn batch_of_one_network_matches_the_serial_engine() {
    let graph = graphs::reduced_by_name("MiniAlexNet").expect("reduced zoo has MiniAlexNet");
    let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 2018);
    let inputs = [zoo_input(&graph, 77)];
    let options = InferenceOptions::default();
    let golden = graph
        .run_batch(&params, &inputs, options)
        .expect("zoo graphs chain by construction");
    let serial = NetworkEngine::new(wide_geometry())
        .with_threads(1)
        .run_batch(&graph, &params, &inputs, options)
        .expect("zoo graphs chain by construction");
    assert!(
        serial.iter().map(|r| &r.trace).eq(golden.iter()),
        "serial engine diverged from the golden executor"
    );
    for threads in &THREAD_CURVE[1..] {
        let parallel = NetworkEngine::new(wide_geometry())
            .with_threads(*threads)
            .run_batch(&graph, &params, &inputs, options)
            .expect("zoo graphs chain by construction");
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

/// Batch items whose activation precisions differ get *different* cost-model
/// plans: an almost-binary input is cheap enough to stay a single task while
/// an 8-bit sibling splits into several. The batched conv fan must follow
/// each item's own task count — the old code assumed item 0's count for
/// everyone, which either silently zeroed the larger item's extra output
/// rectangles or ran the smaller item with out-of-range task indices.
#[test]
fn mixed_precision_batch_with_divergent_plans_is_thread_invariant() {
    // 196 windows x 288 weights/filter x 32 filters ~ 1.8M MACs: at 8-bit
    // activations the modeled cost crosses the task grain (multi-task plan),
    // at 2-bit it stays under it (single-task plan).
    let spec = ConvSpec::simple(32, 16, 16, 32, 3);
    let graph = LayerGraph::from_network(
        &NetworkBuilder::new("mixed")
            .conv("conv1", spec)
            .build()
            .expect("single-conv network builds"),
    );
    let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 2018);
    let shape = graph.input_shape().expect("graph starts with a conv");
    let wide = zoo_input(&graph, 99);
    let narrow = Tensor3::from_vec(shape, (0..shape.len()).map(|i| (i % 2) as i32).collect())
        .expect("shape-sized data");
    let options = InferenceOptions::default();
    for inputs in [[wide.clone(), narrow.clone()], [narrow, wide]] {
        let serial = NetworkEngine::new(wide_geometry())
            .with_threads(1)
            .run_batch(&graph, &params, &inputs, options)
            .expect("zoo graphs chain by construction");
        for threads in &THREAD_CURVE[1..] {
            let parallel = NetworkEngine::new(wide_geometry())
                .with_threads(*threads)
                .run_batch(&graph, &params, &inputs, options)
                .expect("zoo graphs chain by construction");
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }
}

/// Batched inference fans (item x intra-layer task) jobs; the fan must be
/// invariant across budgets that divide the batch evenly, unevenly, and
/// exceed it.
#[test]
fn batched_network_is_thread_invariant() {
    let graph = graphs::reduced_by_name("MiniNiN").expect("reduced zoo has MiniNiN");
    let params = NetworkParams::synthetic_for_graph(&graph, &[Precision::new(8).unwrap()], 2018);
    let inputs: Vec<Tensor3> = (0..3).map(|i| zoo_input(&graph, 500 + i)).collect();
    let options = InferenceOptions::default();
    let serial = NetworkEngine::new(wide_geometry())
        .with_threads(1)
        .run_batch(&graph, &params, &inputs, options)
        .expect("zoo graphs chain by construction");
    for threads in &THREAD_CURVE[1..] {
        let parallel = NetworkEngine::new(wide_geometry())
            .with_threads(*threads)
            .run_batch(&graph, &params, &inputs, options)
            .expect("zoo graphs chain by construction");
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

/// The comparator datapaths — DPNN, Stripes and DStripes — on one conv layer
/// that splits into several tasks, one FC layer and a whole MiniAlexNet
/// batch: outputs, cycles, reduced groups and DStripes' measured per-step
/// precisions are identical at 1, 2 and 4 threads.
#[test]
fn comparator_datapaths_are_thread_invariant() {
    let geo = EquivalentConfig::BASELINE_128.dpnn();
    let spec = ConvSpec::simple(32, 16, 16, 32, 3);
    let (input, weights) = conv_operands(&spec, 31);
    let fc = FcSpec::new(600, 70);
    let mut rng = StdRng::seed_from_u64(37);
    let p8 = Precision::new(8).unwrap();
    let fc_input = synthetic_activations(&mut rng, 600, p8, ValueDistribution::activations());
    let fc_weights = synthetic_weights(&mut rng, 600 * 70, p8, ValueDistribution::weights());
    let graph = graphs::reduced_by_name("MiniAlexNet").expect("reduced zoo has MiniAlexNet");
    let params = NetworkParams::synthetic_for_graph(&graph, &[p8], 2018);
    let inputs = [zoo_input(&graph, 41), zoo_input(&graph, 42)];
    let options = InferenceOptions::default();

    let run_at = |threads: usize| {
        let dpnn = FunctionalDpnn::new(geo).with_threads(threads);
        let stripes = FunctionalStripes::new(geo).with_threads(threads);
        let dstripes = FunctionalDStripes::new(geo).with_threads(threads);
        let convs = (
            dpnn.run_conv(&spec, &input, &weights),
            stripes.run_conv(&spec, &input, &weights),
            dstripes.run_conv(&spec, &input, &weights),
        );
        let backends: [&dyn FunctionalDatapath; 3] = [&dpnn, &stripes, &dstripes];
        let fcs: Vec<_> = backends
            .iter()
            .map(|b| b.fc(&fc, &fc_input, &fc_weights))
            .collect();
        let networks: Vec<_> = backends
            .iter()
            .map(|b| {
                run_network_batch(*b, &graph, &params, &inputs, options)
                    .expect("zoo graphs chain by construction")
            })
            .collect();
        (convs, fcs, networks)
    };
    let baseline = run_at(1);
    assert!(
        baseline.0 .2.run.reduced_groups > 0,
        "the conv case must exercise DStripes detection"
    );
    for threads in [2, 4] {
        assert_eq!(baseline, run_at(threads), "threads={threads}");
    }
}
