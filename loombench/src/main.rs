//! The repository's benchmark: four workloads over the functional engine,
//! the comparator datapaths and `loom-serve`, each checked against an
//! independent reference, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `README.md` in this directory.
//!
//! ```text
//! loombench --workload <alexnet-b1|googlenet-b4|datapaths|serve-mix>
//!           [--seed N] [--seconds S] [--trace 0|1] [--threads N]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a detailed report (provenance, which
//! percentile each tail is, sample counts, reconciliation bands) is written to
//! `out/` beside this package, and the traced run's spans next to it.

mod common;
mod datapaths;
mod engine;
mod serve;
mod stats;
mod trace;

use stats::{json_number, json_string, median, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads this program runs, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["alexnet-b1", "googlenet-b4", "datapaths", "serve-mix"];

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Fresh processes that repeat the set-up; `setup_s` is the median of their
/// times and the main process's own. At least `SETUP_PROBES.0` run, and more,
/// up to `SETUP_PROBES.1`, until the probes have taken `SETUP_PROBE_SECONDS`,
/// so a cheap set-up is repeated more often than an expensive one.
const SETUP_PROBES: (usize, usize) = (2, 8);
const SETUP_PROBE_SECONDS: f64 = 3.0;

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, &str); 7] = [
    ("images_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

const ALEXNET_NODES: [&str; 8] = [
    "conv1", "conv2", "conv3", "conv4", "conv5", "fc6", "fc7", "fc8",
];
const BACKENDS: [&str; 6] = [
    "DPNN",
    "Stripes",
    "DStripes",
    "Loom-1-bit",
    "Loom-2-bit",
    "Loom-4-bit",
];

/// The models of `ModelCatalog::reduced()`, in catalog order.
const SERVED_MODELS: [&str; 6] = [
    "MiniAlexNet",
    "MiniNiN",
    "MiniVGG",
    "MiniGoogLeNet",
    "MiniMLP",
    "MLP",
];

/// The per-layer metrics every traced run reports on its result line (0
/// where a layer does not take part in the workload).
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for node in ALEXNET_NODES {
        for (field, unit) in [
            ("ms", "ms"),
            ("pa", "bits"),
            ("pw", "bits"),
            ("cycles", "cycles"),
            ("roofline_frac", "ratio"),
        ] {
            names.push((format!("layer.{node}.{field}"), unit));
        }
    }
    for k in [1, 3, 5, 7] {
        names.push((format!("conv{k}x{k}.ms"), "ms"));
    }
    let fixed: [(&str, &'static str); 14] = [
        ("fc.ms", "ms"),
        ("conv.roofline_frac", "ratio"),
        ("fc.stream_ms", "ms"),
        ("fc.stream_share", "ratio"),
        ("graph.exec_ms", "ms"),
        ("graph.trace_mb", "MB"),
        ("pool.speedup", "ratio"),
        ("store.packs", "count"),
        ("store.hits", "count"),
        ("store.hit_ratio", "ratio"),
        ("store.pack_s", "s"),
        ("store.resident_mb", "MB"),
        ("store.compression_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ];
    names.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for b in BACKENDS {
        for (field, unit) in [
            ("s", "s"),
            ("ns_per_mac", "ns"),
            ("cycles", "cycles"),
            ("modeled_speedup", "ratio"),
            ("host_speedup", "ratio"),
        ] {
            names.push((format!("dp.{b}.{field}"), unit));
        }
    }
    for (name, unit) in [("json.decode_us", "us"), ("json.encode_us", "us")] {
        names.push((name.to_string(), unit));
    }
    for model in SERVED_MODELS {
        names.push((format!("engine.direct_ms.{model}"), "ms"));
    }
    let serving: [(&str, &'static str); 7] = [
        ("batch.wait_ms", "ms"),
        ("batch.items_mean", "count"),
        ("batch.queue_depth_p50", "count"),
        ("http.overhead_ms", "ms"),
        ("server.overloaded", "count"),
        ("server.rejected", "count"),
        ("gen.late_ms", "ms"),
    ];
    names.extend(serving.iter().map(|&(n, u)| (n.to_string(), u)));
    names.push(("recon.sum_over_e2e".to_string(), "ratio"));
    names.push(("recon.in_band".to_string(), "count"));
    names
}

/// Records the `sum_of_layers / end_to_end` reconciliation row and whether it
/// falls in the workload's stated band.
pub fn reconcile(out: &mut Outcome, ratio: f64, band: (f64, f64)) {
    let in_band = ratio >= band.0 && ratio <= band.1;
    out.metric("recon.sum_over_e2e", ratio, "ratio");
    out.metric("recon.in_band", f64::from(u8::from(in_band)), "count");
    out.note(
        "reconciliation_band",
        format!(
            "[{}, {}]: {}",
            band.0,
            band.1,
            if in_band { "in band" } else { "OUT OF BAND" }
        ),
    );
}

/// Drops the references' share of the peak resident set size before timing;
/// where the kernel refuses, `peak_rss_mb` includes it and the report says so.
fn reset_peak_rss(out: &mut Outcome) {
    let note = match common::reset_peak_rss() {
        Ok(()) => {
            "VmHWM at the end of the run, reset after the references were computed".to_string()
        }
        Err(e) => {
            format!("VmHWM at the end of the run, including the references (reset refused: {e})")
        }
    };
    out.note("peak_rss_mb", note);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        threads: None,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be positive".to_string());
                }
                args.threads = Some(n);
            }
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// This package's directory; reports go under `out/` there.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository's git revision, read from `.git` without running git;
/// "unknown" in a checkout that is not a git repository.
fn git_revision() -> String {
    let git = package_dir().join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&git.join(reference)).unwrap_or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|refs| {
                        refs.lines()
                            .find(|l| l.ends_with(reference))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".to_string())
            }),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Runs the workload's set-up once and returns its wall time, taken before
/// the set-up's products are dropped (a probe process exits right after).
fn setup_once(args: &Args, threads: usize) -> f64 {
    let t = Instant::now();
    match args.workload.as_str() {
        "alexnet-b1" => {
            let _prep = engine::setup(&engine::ALEXNET_B1, args.seed, threads);
            t.elapsed().as_secs_f64()
        }
        "googlenet-b4" => {
            let _prep = engine::setup(&engine::GOOGLENET_B4, args.seed, threads);
            t.elapsed().as_secs_f64()
        }
        "datapaths" => {
            let _prep = datapaths::setup(datapaths::GRAPH, args.seed, threads);
            t.elapsed().as_secs_f64()
        }
        _ => {
            let prep = serve::setup(threads);
            let s = t.elapsed().as_secs_f64();
            serve::shutdown(prep);
            s
        }
    }
}

/// Repeats the set-up in fresh processes, so each sees a cold weight store
/// and allocator, and collects their times.
fn setup_probes(args: &Args, threads: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUP_PROBES.0
        || (times.len() < SETUP_PROBES.1 && started.elapsed().as_secs_f64() < SETUP_PROBE_SECONDS)
    {
        let output = std::process::Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
                "--threads",
                &threads.to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("running a set-up probe: {e}"))?;
        if !output.status.success() {
            return Err(format!("set-up probe failed: {}", output.status));
        }
        let time = String::from_utf8_lossy(&output.stdout)
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| "set-up probe printed no time".to_string())?;
        times.push(time);
    }
    Ok(times)
}

fn run(args: &Args, threads: usize, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = if args.trace {
        Vec::new()
    } else {
        setup_probes(args, threads)?
    };
    let seconds = args.seconds;
    let t = Instant::now();
    match args.workload.as_str() {
        "alexnet-b1" | "googlenet-b4" => {
            let w = if args.workload == "alexnet-b1" {
                engine::ALEXNET_B1
            } else {
                engine::GOOGLENET_B4
            };
            let prep = engine::setup(&w, args.seed, threads);
            setups.push(t.elapsed().as_secs_f64());
            let calls = engine::calls(&w, &prep, args.seed);
            let expected = engine::references(&prep, &calls, &mut out);
            reset_peak_rss(&mut out);
            out.note(
                "modeled_totals",
                format!(
                    "Loom cycles and reduced groups per distinct image: {}",
                    expected
                        .iter()
                        .map(|e| format!("{}/{}", e.cycles, e.reduced_groups))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            );
            if args.trace {
                engine::traced(&w, &prep, &calls, &expected, seconds, tracer, &mut out);
            } else {
                let timed = engine::measure(&prep, &calls, &expected, seconds, &mut out);
                engine::end_to_end(&w, &timed, &mut out);
            }
        }
        "datapaths" => {
            let prep = datapaths::setup(datapaths::GRAPH, args.seed, threads);
            setups.push(t.elapsed().as_secs_f64());
            let shape = prep
                .graph
                .input_shape()
                .expect("AlexNet starts with a convolution");
            let inputs = common::images(
                shape,
                datapaths::IMAGES,
                common::sub_seed(args.seed, "images"),
            );
            let refs = datapaths::references(&prep, &inputs, &mut out);
            reset_peak_rss(&mut out);
            if args.trace {
                datapaths::traced(&prep, &inputs, &refs, tracer, &mut out);
            } else {
                let rounds = datapaths::rounds(&prep, &inputs, &refs, seconds, &mut out);
                datapaths::end_to_end(&prep, &rounds, &mut out);
            }
            out.note(
                "modeled_totals",
                format!(
                    "cycles per backend over both images: {}",
                    prep.backends
                        .iter()
                        .zip(&refs.cycles)
                        .map(|(b, c)| format!("{}={}", b.name, c.iter().sum::<u64>()))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            );
        }
        _ => {
            let prep = serve::setup(threads);
            setups.push(t.elapsed().as_secs_f64());
            let wl = serve::workload(&prep, args.seed, 4096);
            reset_peak_rss(&mut out);
            if args.trace {
                serve::traced(&prep, &wl, seconds, tracer, &mut out);
            } else {
                serve::end_to_end(&prep, &wl, seconds, &mut out);
            }
            serve::shutdown(prep);
        }
    }
    if !args.trace {
        out.metric("ok_share", out.ok_share(), "ratio");
        out.metric("setup_s", median(&setups), "s");
        out.note(
            "setup_s",
            format!(
                "median of {} cold set-ups (this process and {} fresh ones): {:?}",
                setups.len(),
                setups.len() - 1,
                setups
            ),
        );
        out.metric("peak_rss_mb", common::peak_rss_mib(), "MiB");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loombench: {e}");
            return ExitCode::from(2);
        }
    };
    // The thread budget policy of the repository's benches: flag beats
    // LOOM_THREADS beats available parallelism, and a budget above the
    // available parallelism is refused rather than measured oversubscribed.
    let available = loom_core::threads::available();
    let threads = loom_core::threads::resolve(args.threads);
    if threads > available {
        eprintln!(
            "loombench: a thread budget of {threads} exceeds the available parallelism {available}"
        );
        return ExitCode::from(2);
    }
    if args.setup_probe {
        println!("setup_s {}", setup_once(&args, threads));
        return ExitCode::SUCCESS;
    }

    let tracer = Tracer::default();
    let out = match run(&args, threads, &tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("loombench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let provenance = [
        ("git_revision", git_revision()),
        ("nproc", available.to_string()),
        (
            "physical_cores",
            loom_core::threads::physical_cores().to_string(),
        ),
        (
            "kernel_tier",
            loom_core::loom_sim::loom::active_kernel_tier()
                .name()
                .to_string(),
        ),
        ("threads", threads.to_string()),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", json_number(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
    ];
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let reported: Vec<(String, f64, &str)> = catalog
        .into_iter()
        .map(|(name, unit)| {
            let value = out.get(&name).unwrap_or(0.0);
            (name, value, unit)
        })
        .collect();

    if let Err(e) = write_report(&args, &provenance, &out, &tracer) {
        eprintln!("loombench: writing the report: {e}");
        return ExitCode::FAILURE;
    }
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }
    for (k, v) in &out.notes {
        println!("# {k}: {v}");
    }
    for (name, value, unit) in &reported {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Writes the detailed report, and in a traced run the spans, under `out/`.
fn write_report(
    args: &Args,
    provenance: &[(&str, String)],
    out: &Outcome,
    tracer: &Tracer,
) -> std::io::Result<()> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let pairs = |items: Vec<(String, String)>| {
        items
            .iter()
            .map(|(k, v)| format!("    {}: {}", json_string(k), v))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let provenance = pairs(
        provenance
            .iter()
            .map(|(k, v)| (k.to_string(), json_string(v)))
            .collect(),
    );
    let notes = pairs(
        out.notes
            .iter()
            .map(|(k, v)| (k.clone(), json_string(v)))
            .collect(),
    );
    let metrics = pairs(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    format!(
                        "{{\"value\": {}, \"unit\": {}}}",
                        json_number(m.value),
                        json_string(m.unit)
                    ),
                )
            })
            .collect(),
    );
    let report = format!(
        "{{\n  \"provenance\": {{\n{provenance}\n  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"notes\": {{\n{notes}\n  }},\n  \"metrics\": {{\n{metrics}\n  }}\n}}\n",
        out.attempted, out.failed
    );
    std::fs::write(dir.join(format!("{stem}.json")), report)?;
    if args.trace {
        tracer.write(&dir.join(format!("{stem}-spans.json")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loom_serve::json::Json;

    /// The metric names and units in `BENCHMARK.json` are exactly the ones
    /// this program reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json is valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("metric lists are arrays")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = per_layer_catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        assert!(per_layer.len() <= 128);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// The served model names of the per-layer catalog are the reduced
    /// catalog's, in its order.
    #[test]
    fn served_models_are_the_reduced_catalog() {
        use loom_core::loom_model::zoo::graphs;
        let names: Vec<&str> = graphs::REDUCED_NAMES
            .iter()
            .chain(graphs::MLP_NAMES.iter())
            .copied()
            .collect();
        assert_eq!(names, SERVED_MODELS);
    }

    /// The engine workload's check is live: a corrupted expected cycle count
    /// turns into failures, and the true references give none.
    #[test]
    fn corrupted_engine_reference_is_counted_as_failed() {
        let w = engine::EngineWorkload {
            graph: "MiniAlexNet",
            ..engine::ALEXNET_B1
        };
        let prep = engine::setup(&w, 5, 1);
        let calls = engine::calls(&w, &prep, 5);
        let mut out = Outcome::default();
        let mut expected = engine::references(&prep, &calls, &mut out);
        engine::measure(&prep, &calls, &expected, 0.05, &mut out);
        assert!(out.attempted >= 3);
        assert_eq!(out.failed, 0);
        assert_eq!(out.ok_share(), 1.0);

        expected[0].cycles += 1;
        let mut corrupted = Outcome::default();
        engine::measure(&prep, &calls, &expected, 0.05, &mut corrupted);
        assert!(corrupted.failed > 0);
        assert!(corrupted.ok_share() < 1.0);
    }

    /// Same for the serving workload: one corrupted reference cycle count
    /// fails the responses to that request, over HTTP.
    #[test]
    fn corrupted_serving_reference_is_counted_as_failed() {
        let prep = serve::setup(1);
        let mut wl = serve::workload(&prep, 5, 64);
        let mut out = Outcome::default();
        serve::end_to_end(&prep, &wl, 0.3, &mut out);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);

        let first = wl.stream[0];
        wl.expected.get_mut(&first).unwrap().1 += 1;
        let mut corrupted = Outcome::default();
        serve::end_to_end(&prep, &wl, 0.3, &mut corrupted);
        assert!(corrupted.failed > 0);
        assert!(corrupted.ok_share() < 1.0);
        serve::shutdown(prep);
    }

    /// Same for the datapaths workload, with a corrupted golden digest.
    #[test]
    fn corrupted_golden_digest_fails_every_backend() {
        let prep = datapaths::setup("MiniAlexNet", 5, 1);
        let shape = prep.graph.input_shape().unwrap();
        let inputs = common::images(shape, datapaths::IMAGES, 9);
        let mut out = Outcome::default();
        let mut refs = datapaths::references(&prep, &inputs, &mut out);
        datapaths::measure(&prep, &inputs, &refs, None, &mut out);
        assert_eq!(out.failed, 0);
        assert!(out.attempted as usize >= prep.backends.len() * datapaths::IMAGES);

        refs.digests[1] ^= 1;
        let mut corrupted = Outcome::default();
        datapaths::measure(&prep, &inputs, &refs, None, &mut corrupted);
        assert_eq!(corrupted.failed as usize, prep.backends.len());
    }
}
