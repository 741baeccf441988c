//! The `serve-mix` workload: HTTP against an in-process `loom_serve::Server`
//! over `ModelCatalog::reduced()`, with serve_bench's serving-weighted model
//! mix (one request in five on the static tier).
//!
//! The end-to-end run is closed loop: one client on one keep-alive
//! connection sends its next request as soon as the previous reply arrives,
//! so the server always has a request in flight, and each latency is timed
//! from the send. The traced run adds an open-loop phase from `threads`
//! generator threads, one connection each, where requests are due on a fixed
//! schedule and a free thread sends the next one at its due time, to see how
//! late the generator sends.

use crate::common::{images, store_metrics, sub_seed};
use crate::stats::{mean, median, tail, Outcome};
use crate::trace::Tracer;
use loom_core::loom_model::inference::InferenceOptions;
use loom_core::loom_model::tensor::{Shape3, Tensor3};
use loom_core::loom_sim::loom::NetworkEngine;
use loom_serve::batch::{BatchConfig, MicroBatcher, Tier};
use loom_serve::client::Client;
use loom_serve::json::Json;
use loom_serve::metrics::Counters;
use loom_serve::model::{serving_geometry, ModelCatalog, ServedModel};
use loom_serve::server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// serve_bench's serving-weighted mix: cheap classifier heads take most of
/// the traffic and every reduced conv network appears in each cycle.
const MIX: [&str; 10] = [
    "MiniMLP",
    "MLP",
    "MiniMLP",
    "MiniAlexNet",
    "MiniMLP",
    "MLP",
    "MiniNiN",
    "MiniMLP",
    "MiniVGG",
    "MiniGoogLeNet",
];

/// Distinct generated inputs per model.
const VARIANTS: usize = 4;

/// Requests of the served mix the JSON codec is timed on.
const CODEC_SAMPLES: usize = 500;

/// Closed-loop clients. One: two clients' heavy requests queue behind each
/// other, which amplifies slow periods of the host. On a 2-vCPU host, six
/// alternating runs each gave a tail latency spread (interquartile range
/// over median) of 0.37 with two clients and 0.13 with one; with the zero
/// batch window, six interleaved 10-second runs each gave 383 to 415
/// requests/s with one client and 414 to 490 with two.
const CLIENTS: usize = 1;

/// Offered rate of the traced run's open-loop phase, well under capacity.
const OPEN_LOOP_RPS: f64 = 50.0;

/// The micro-batcher's settings. The window is zero: the one closed-loop
/// client never has a second request queued behind its first, so a window
/// could coalesce nothing and would only add a timed sleep to every request,
/// which on a 2-vCPU host nearly halved throughput and doubled its spread
/// over interleaved runs (164 to 199 requests/s with a 2 ms window, 330 to
/// 345 without). Every request still goes through the batcher's queue,
/// dispatcher and pool hand-off.
fn batch_config(threads: usize) -> BatchConfig {
    BatchConfig {
        window: Duration::ZERO,
        max_batch: 8,
        max_queue: 256,
        threads,
    }
}

pub struct Prepared {
    pub models: Vec<Arc<ServedModel>>,
    pub server: Server,
    pub threads: usize,
}

/// Catalog build (graph lookup, synthetic weights, prepack per model) and
/// server start: the workload's set-up.
pub fn setup(threads: usize) -> Prepared {
    let catalog = ModelCatalog::reduced();
    let models = catalog.models().to_vec();
    let server = Server::start(
        catalog,
        ServerConfig {
            port: 0,
            batch: batch_config(threads),
            max_connections: threads + 8,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral loopback port");
    Prepared {
        models,
        server,
        threads,
    }
}

/// One request of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    pub model: usize,
    pub variant: usize,
    pub tier: Tier,
}

/// The generated workload: inputs, request bodies, and the reference answer
/// of every `(model, variant, tier)`.
pub struct Workload {
    pub inputs: Vec<Vec<Tensor3>>,
    pub bodies: HashMap<Req, String>,
    pub expected: HashMap<Req, (Vec<i32>, u64)>,
    pub stream: Vec<Req>,
}

fn request_json(model: &ServedModel, input: &Tensor3, tier: Tier) -> Json {
    let values = Json::Array(
        input
            .as_slice()
            .iter()
            .map(|&x| Json::from(i64::from(x)))
            .collect(),
    );
    Json::Object(vec![
        ("model".to_string(), Json::from(model.name)),
        ("tier".to_string(), Json::from(tier.name())),
        ("inputs".to_string(), Json::Array(vec![values])),
    ])
}

/// Generates inputs and the request stream from the seed, and computes the
/// references with the direct, uncached `NetworkEngine` before timing.
pub fn workload(prep: &Prepared, seed: u64, requests: usize) -> Workload {
    let inputs: Vec<Vec<Tensor3>> = prep
        .models
        .iter()
        .map(|m| {
            let flat = images(
                Shape3::new(1, 1, m.input_len),
                VARIANTS,
                sub_seed(seed, &format!("serve-inputs-{}", m.name)),
            );
            flat.into_iter()
                .map(|t| m.input_tensor(t.as_slice().to_vec()))
                .collect()
        })
        .collect();
    let dynamic = NetworkEngine::new(serving_geometry()).with_threads(prep.threads);
    let mut bodies = HashMap::new();
    let mut expected = HashMap::new();
    for (mi, model) in prep.models.iter().enumerate() {
        for tier in [Tier::Dynamic, Tier::Static] {
            let engine = match tier {
                Tier::Dynamic => dynamic,
                Tier::Static => dynamic.without_dynamic_precision(),
            };
            let runs = engine
                .run_batch(
                    &model.graph,
                    &model.params,
                    &inputs[mi],
                    InferenceOptions::default(),
                )
                .expect("generated inputs fit their graphs");
            for (variant, run) in runs.into_iter().enumerate() {
                let req = Req {
                    model: mi,
                    variant,
                    tier,
                };
                bodies.insert(
                    req,
                    request_json(model, &inputs[mi][variant], tier).to_string(),
                );
                expected.insert(req, (run.trace.final_outputs().to_vec(), run.cycles));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "serve-stream"));
    let stream = (0..requests)
        .map(|i| Req {
            model: prep
                .models
                .iter()
                .position(|m| m.name == MIX[i % MIX.len()])
                .expect("mix names are in the reduced catalog"),
            variant: rng.random_range(0..VARIANTS),
            tier: if i % 5 == 4 {
                Tier::Static
            } else {
                Tier::Dynamic
            },
        })
        .collect();
    Workload {
        inputs,
        bodies,
        expected,
        stream,
    }
}

/// One request as the generator saw it; times in seconds from the phase
/// start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub req: Req,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// The response body, kept for the first `CODEC_SAMPLES` requests only.
    pub body: String,
    /// The response's envelope fields when it matched the reference.
    pub verified: Option<Verified>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    fn service_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
}

/// Where the generator sends: the server over HTTP, or the micro-batcher
/// directly (the same schedule without HTTP and JSON).
#[derive(Clone, Copy)]
enum Target<'a> {
    Http(SocketAddr),
    Batcher(&'a MicroBatcher, &'a [Arc<ServedModel>]),
}

/// Sends one request to the micro-batcher and checks the reply against the
/// reference: status 200 when it matches, 500 otherwise.
fn submit(
    batcher: &MicroBatcher,
    models: &[Arc<ServedModel>],
    wl: &Workload,
    req: Req,
) -> (u16, Option<(f64, f64)>) {
    let reply = batcher
        .submit(
            Arc::clone(&models[req.model]),
            req.tier,
            vec![wl.inputs[req.model][req.variant].clone()],
        )
        .ok()
        .and_then(|rx| rx.recv().ok())
        .and_then(Result::ok);
    let want = &wl.expected[&req];
    match reply {
        Some(r) if r.outputs[0] == want.0 && r.cycles[0] == want.1 => {
            (200, Some((r.batch_items as f64, r.queue_depth as f64)))
        }
        _ => (500, None),
    }
}

/// How the generator offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Each thread sends its next request as soon as the previous reply
    /// arrives, until `seconds` have passed; a request is due when sent.
    Closed { seconds: f64 },
    /// `count` requests due at `rate` per second.
    Open { count: usize, rate: f64 },
}

/// Offers `load` from `threads` generator threads (over one keep-alive
/// connection each for HTTP), starting at `first` in the stream. Spans go
/// to `tracer` when given.
fn drive(
    target: Target<'_>,
    wl: &Workload,
    first: usize,
    load: Load,
    threads: usize,
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let connect = || match target {
        Target::Http(addr) => Client::connect(addr, Duration::from_secs(30)).ok(),
        Target::Batcher(..) => None,
    };
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = connect();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match load {
                            Load::Open { count, .. } if i >= count => return mine,
                            Load::Open { rate, .. } => {
                                start + Duration::from_secs_f64(i as f64 / rate)
                            }
                            Load::Closed { seconds } => {
                                let now = Instant::now().max(start);
                                if now >= start + Duration::from_secs_f64(seconds) {
                                    return mine;
                                }
                                now
                            }
                        };
                        let id = (first + i) as u64;
                        let req = wl.stream[(first + i) % wl.stream.len()];
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, body, envelope) = match target {
                            Target::Http(_) => {
                                let response = client
                                    .as_mut()
                                    .map(|c| c.infer(&wl.bodies[&req]))
                                    .and_then(Result::ok);
                                if response.is_none() {
                                    // This request failed; reconnect for the next.
                                    client = connect();
                                }
                                let (status, body) =
                                    response.map_or((0, String::new()), |r| (r.status, r.body));
                                (status, body, None)
                            }
                            Target::Batcher(batcher, models) => {
                                let (status, envelope) = submit(batcher, models, wl, req);
                                (status, String::new(), envelope)
                            }
                        };
                        let done = Instant::now();
                        if let Some(t) = tracer {
                            let decode = Instant::now();
                            std::hint::black_box(Json::parse(&body).is_ok());
                            let decoded = Instant::now();
                            let span = t.record("request", None, id, sent, decoded);
                            t.record("http", Some(span), id, sent, done);
                            t.record("json.decode", Some(span), id, decode, decoded);
                        }
                        let verified = verify(req, status, &body, envelope, wl);
                        // Keeping every body would make peak_rss_mb grow
                        // with the number of requests served.
                        let body = if i < CODEC_SAMPLES {
                            body
                        } else {
                            String::new()
                        };
                        let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                        mine.push(Sample {
                            req,
                            due: secs(due),
                            sent: secs(sent),
                            done: secs(done),
                            body,
                            verified,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    samples
}

/// Envelope fields of a verified response.
#[derive(Debug, Clone, Copy)]
pub struct Verified {
    batch_items: f64,
    queue_depth: f64,
}

/// Checks one response as it arrives against the reference: status 200, the
/// outputs and the cycle count. Batcher replies were checked on arrival
/// and carry their envelope fields in `envelope`.
fn verify(
    req: Req,
    status: u16,
    body: &str,
    envelope: Option<(f64, f64)>,
    wl: &Workload,
) -> Option<Verified> {
    if status != 200 {
        return None;
    }
    if let Some((batch_items, queue_depth)) = envelope {
        return Some(Verified {
            batch_items,
            queue_depth,
        });
    }
    let json = Json::parse(body).ok()?;
    let (want_outputs, want_cycles) = &wl.expected[&req];
    let outputs: Vec<i64> = json
        .get("outputs")?
        .as_array()?
        .first()?
        .as_array()?
        .iter()
        .map(|v| v.as_i64())
        .collect::<Option<_>>()?;
    let cycles = json.get("cycles")?.as_array()?.first()?.as_i64()?;
    let ok = outputs.len() == want_outputs.len()
        && outputs
            .iter()
            .zip(want_outputs)
            .all(|(&got, &want)| got == i64::from(want))
        && cycles == *want_cycles as i64;
    ok.then(|| Verified {
        batch_items: json.get("batch_items").and_then(Json::as_i64).unwrap_or(0) as f64,
        queue_depth: json.get("queue_depth").and_then(Json::as_i64).unwrap_or(0) as f64,
    })
}

/// A phase's checked results.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub ok: Vec<bool>,
    pub batch_items: Vec<f64>,
    pub queue_depth: Vec<f64>,
}

fn phase(samples: Vec<Sample>, out: &mut Outcome) -> Phase {
    let mut p = Phase {
        ok: Vec::with_capacity(samples.len()),
        batch_items: Vec::new(),
        queue_depth: Vec::new(),
        samples: Vec::new(),
    };
    for s in &samples {
        let v = s.verified;
        out.check(v.is_some());
        p.ok.push(v.is_some());
        if let Some(v) = v {
            p.batch_items.push(v.batch_items);
            p.queue_depth.push(v.queue_depth);
        }
    }
    p.samples = samples;
    p
}

/// `seconds` of closed-loop load against `target`, checked.
fn closed_loop(
    target: Target<'_>,
    wl: &Workload,
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Phase {
    let samples = drive(target, wl, 0, Load::Closed { seconds }, CLIENTS, tracer);
    phase(samples, out)
}

/// Requests per block of the end-to-end run: a multiple of the mix's
/// length, so every block holds the same requests in the same proportions.
const BLOCK: usize = 1000;

pub fn end_to_end(prep: &Prepared, wl: &Workload, seconds: f64, out: &mut Outcome) {
    let http = Target::Http(prep.server.addr());
    let run = closed_loop(http, wl, seconds, None, out);
    // Every metric is a median over consecutive blocks of BLOCK requests
    // (the partial last block is dropped when a full one exists), so a few
    // seconds of a slow host move at most a minority of the blocks.
    let per_block = BLOCK.min(run.samples.len()).max(1);
    let len = run.samples.len() / per_block * per_block;
    let mut begin = 0.0;
    let (mut images_rate, mut request_rate, mut p50, mut tails) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (samples, ok) in run.samples[..len]
        .chunks(per_block)
        .zip(run.ok[..len].chunks(per_block))
    {
        let end = samples.iter().map(|s| s.done).fold(begin, f64::max);
        let span = end - begin;
        begin = end;
        let items = ok.iter().filter(|&&ok| ok).count() as f64;
        images_rate.push(items / span);
        request_rate.push(samples.len() as f64 / span);
        let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        p50.push(median(&latencies));
        tails.push(tail(&latencies));
    }
    let tail_ms: Vec<f64> = tails.iter().map(|t| t.value).collect();
    out.metric("images_per_s", median(&images_rate), "1/s");
    out.metric("latency_p50_ms", median(&p50), "ms");
    out.metric("latency_tail_ms", median(&tail_ms), "ms");
    out.metric("max_rate_rps", median(&request_rate), "1/s");
    out.note(
        "blocks",
        format!(
            "{} blocks of {} requests ({} requests in the run); every end-to-end timing is the median over the blocks",
            tails.len(),
            per_block,
            run.samples.len()
        ),
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.note("block_images_per_s", list(&images_rate));
    out.note("block_latency_p50_ms", list(&p50));
    out.note("block_latency_tail_ms", list(&tail_ms));
    if let Some(t) = tails.first() {
        out.note(
            "latency_tail",
            format!(
                "median over the blocks of each block's p{:.1} of {} request latencies (highest percentile with at least 10 samples beyond it), timed from send",
                t.percentile, t.samples
            ),
        );
    }
    let per_model: Vec<String> = prep
        .models
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let ms: Vec<f64> = run
                .samples
                .iter()
                .filter(|s| s.req.model == mi)
                .map(Sample::latency_ms)
                .collect();
            format!("{}={:.3}", m.name, median(&ms))
        })
        .collect();
    out.note("latency_p50_ms_per_model", per_model.join(" "));
    out.note(
        "max_rate_rps",
        "closed loop: requests completed per second by the one client, which always has a request in flight (one image per request, so images_per_s is the same count restricted to checked responses)",
    );
    out.note(
        "load",
        format!("closed loop, {CLIENTS} client on one keep-alive connection"),
    );
}

/// Per-layer measurements of the serving path.
pub fn traced(prep: &Prepared, wl: &Workload, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let http = Target::Http(prep.server.addr());
    let untraced = closed_loop(http, wl, seconds * 0.25, None, out);
    let traced = closed_loop(http, wl, seconds * 0.25, Some(tracer), out);
    let service_ms = |p: &Phase| -> Vec<f64> { p.samples.iter().map(Sample::service_ms).collect() };
    let untraced_ms = service_ms(&untraced);

    // Each catalog model directly through run_batch_cached, batch of one.
    let engine = NetworkEngine::new(serving_geometry()).with_threads(prep.threads);
    let mut direct_ms = Vec::new();
    for (mi, model) in prep.models.iter().enumerate() {
        let mut times = Vec::new();
        for rep in 0..10 {
            let input = std::slice::from_ref(&wl.inputs[mi][rep % VARIANTS]);
            let t = Instant::now();
            let runs = engine.run_batch_cached(
                &model.graph,
                &model.params,
                input,
                InferenceOptions::default(),
                Some(&model.cache),
            );
            times.push(t.elapsed().as_secs_f64() * 1e3);
            let want = &wl.expected[&Req {
                model: mi,
                variant: rep % VARIANTS,
                tier: Tier::Dynamic,
            }];
            out.check(runs.is_ok_and(|r| {
                r[0].trace.final_outputs() == want.0.as_slice() && r[0].cycles == want.1
            }));
        }
        let ms = mean(&times);
        out.metric(format!("engine.direct_ms.{}", model.name), ms, "ms");
        direct_ms.push(ms);
    }

    // The micro-batcher without HTTP, under the same closed-loop load.
    let batcher = MicroBatcher::start(batch_config(prep.threads));
    let direct = closed_loop(
        Target::Batcher(&batcher, &prep.models),
        wl,
        seconds * 0.25,
        None,
        out,
    );
    drop(batcher);
    let batcher_ms = service_ms(&direct);
    let waits: Vec<f64> = direct
        .samples
        .iter()
        .map(|s| s.service_ms() - direct_ms[s.req.model])
        .collect();
    out.metric("batch.wait_ms", median(&waits), "ms");
    out.metric("batch.items_mean", mean(&untraced.batch_items), "count");
    out.metric(
        "batch.queue_depth_p50",
        median(&untraced.queue_depth),
        "count",
    );
    out.metric(
        "http.overhead_ms",
        median(&untraced_ms) - median(&batcher_ms),
        "ms",
    );

    // The JSON codec on the server's side of the served mix: parsing the
    // request bodies and serialising the responses.
    let mix = &untraced.samples[..untraced.samples.len().min(CODEC_SAMPLES)];
    let requests: Vec<&str> = mix.iter().map(|s| wl.bodies[&s.req].as_str()).collect();
    let t = Instant::now();
    let parsed = requests.iter().filter(|b| Json::parse(b).is_ok()).count();
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / requests.len().max(1) as f64;
    let responses: Vec<Json> = mix
        .iter()
        .filter_map(|s| Json::parse(&s.body).ok())
        .collect();
    let t = Instant::now();
    let encoded: usize = responses.iter().map(|j| j.to_string().len()).sum();
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / responses.len().max(1) as f64;
    std::hint::black_box((encoded, parsed));
    out.metric("json.encode_us", encode_us, "us");
    out.metric("json.decode_us", decode_us, "us");

    // Open loop at a fixed rate: how late the generator sends.
    let count = (OPEN_LOOP_RPS * seconds * 0.15).round().max(1.0) as usize;
    let open = drive(
        http,
        wl,
        0,
        Load::Open {
            count,
            rate: OPEN_LOOP_RPS,
        },
        prep.threads,
        None,
    );
    let open = phase(open, out);
    let late: Vec<f64> = open.samples.iter().map(Sample::late_ms).collect();
    out.metric("gen.late_ms", tail(&late).value, "ms");

    let counters = prep.server.counters();
    out.metric(
        "server.overloaded",
        Counters::read(&counters.overloaded) as f64,
        "count",
    );
    out.metric(
        "server.rejected",
        Counters::read(&counters.rejected) as f64,
        "count",
    );
    store_metrics(out);

    let traced_ms = service_ms(&traced);
    out.metric(
        "trace.overhead_frac",
        (mean(&traced_ms) - mean(&untraced_ms)) / mean(&untraced_ms),
        "ratio",
    );
    let engine_share = mean(
        &untraced
            .samples
            .iter()
            .map(|s| direct_ms[s.req.model])
            .collect::<Vec<_>>(),
    );
    let layers_ms = engine_share + median(&waits) + (encode_us + decode_us) / 1e3;
    crate::reconcile(out, layers_ms / mean(&untraced_ms), RECON_BAND);
    out.note(
        "reconciliation",
        "mean direct engine time over the mix + median batcher wait + server-side JSON decode and encode, over the mean served latency (closed loop, from send)",
    );
    out.note(
        "gen.late_ms",
        format!("tail of how late the generator sent in the open-loop phase at {OPEN_LOOP_RPS} rps offered"),
    );
}

/// HTTP parsing and socket time are not in the sum, and the batch window
/// is taken at its median, so the sum may fall short of the served latency.
pub const RECON_BAND: (f64, f64) = (0.5, 1.2);

/// Stops the server and waits for its acceptor.
pub fn shutdown(mut prep: Prepared) {
    prep.server.stop();
}
