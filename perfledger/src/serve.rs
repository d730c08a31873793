//! The `serve-asm` and `serve-acfg` workloads: an open-loop load
//! generator against `magic_serve::start` over loopback HTTP.
//!
//! Set-up renders a seeded corpus of request bodies, computes every
//! body's offline reference prediction with the same pipeline, starts
//! the server and warms it. The measured part offers load on a seeded
//! jittered schedule in five passes: each is a nominal-rate phase
//! (`p50_ms`, `p99_ms`), and the first three then climb a fixed ladder
//! of higher rates until two rungs in a row miss the latency limit
//! (`goodput_per_s`). Every response is checked against its reference.

use crate::replay;
use crate::stats::{
    calm, calm_median, cpu_ticks, median, nproc, peak_rss_mb, quantile, reset_peak_rss,
    steal_share_since, SplitMix64,
};
use crate::{Args, Report};
use magic::tuning::{HeadKind, HyperParams};
use magic::MagicPipeline;
use magic_data::{encode_record, ShardRecord};
use magic_graph::ReduceStrategy;
use magic_model::Dgcnn;
use magic_obs::Event;
use magic_serve::protocol::{encode_prediction, ACFG_CONTENT_TYPE};
use magic_serve::{ServeConfig, ServerHandle};
use magic_synth::{FamilyProfile, MskcfgGenerator, MSKCFG_FAMILIES};
use magic_tensor::Rng64;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator scale of the request corpus: 334 listings, all nine
/// families in the generator's Fig. 7 proportions.
const BODY_SCALE: f64 = 0.03;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Requests in each of the two closed-loop warm-up passes per set-up.
const WARMUP_REQUESTS: usize = 100;
/// Measurement passes per run. Each pass is one nominal-rate phase; the
/// first `LADDER_PASSES` are each followed by one ascending ladder. The
/// reported figures combine the passes (pooled, best or median), so
/// host interference that hits a minority of them does not move the
/// result.
const PASSES: usize = 5;
const LADDER_PASSES: usize = 3;
/// Ladder rungs above the nominal rate, as multiples of it. The nominal
/// rate is about half of a 2-CPU host's capacity, so the knee usually
/// sits between 2x and 3x. The same host has been measured about 1.5
/// times faster, with the knee near 3.8x, so the rungs go on to 6.4x;
/// a ladder stops after two misses, so unused rungs cost nothing.
const LADDER: [f64; 13] = [
    2.0, 2.25, 2.5, 2.75, 3.0, 3.3, 3.6, 4.0, 4.4, 4.8, 5.3, 5.8, 6.4,
];
/// Share of `--seconds` for each nominal phase, and the fewest requests
/// one may hold: its p99 must have at least ten samples beyond it.
const NOMINAL_SHARE: f64 = 0.15;
const MIN_NOMINAL_REQUESTS: f64 = 1000.0;
/// Share of `--seconds` for each ladder rung, and its fewest requests.
const RUNG_SHARE: f64 = 0.033;
const MIN_RUNG_REQUESTS: f64 = 300.0;

/// What distinguishes the two serve workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Raw `.asm` listings to a `coarsen:2` model.
    Asm,
    /// Pre-extracted `magic-acfg/1` records to a `none` model.
    Acfg,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Asm => "serve-asm",
            Kind::Acfg => "serve-acfg",
        }
    }

    fn reduce(self) -> ReduceStrategy {
        match self {
            Kind::Asm => ReduceStrategy::parse("coarsen:2").expect("valid strategy"),
            Kind::Acfg => ReduceStrategy::None,
        }
    }

    /// The fixed p99 latency limit behind `goodput_per_s`, ms.
    fn limit_ms(self) -> f64 {
        match self {
            Kind::Asm => 50.0,
            Kind::Acfg => 100.0,
        }
    }
}

/// One request body with its offline reference.
pub struct Body {
    /// The full HTTP request, ready to write.
    pub request: Vec<u8>,
    /// Where the payload starts in `request`.
    pub payload_at: usize,
    /// Offline reference probabilities.
    pub probs: Vec<f32>,
    /// `"scores":{...}` as the server must encode `probs`.
    pub scores: String,
}

impl Body {
    /// The request payload: the listing text or the binary record.
    pub fn payload(&self) -> &[u8] {
        &self.request[self.payload_at..]
    }
}

/// The Table II best mskcfg architecture (adaptive head, ratio 0.64,
/// graph convolutions 128-64-32-32), as `magic train --corpus mskcfg`
/// builds it, with seeded-init weights.
pub fn table2_mskcfg_model(seed: u64, graph_sizes: &[usize]) -> (HyperParams, Dgcnn) {
    let mut params = HyperParams::paper_default();
    params.head = HeadKind::Adaptive;
    params.pooling_ratio = 0.64;
    params.conv_sizes = vec![128, 64, 32, 32];
    let config = params.to_model_config(MSKCFG_FAMILIES.len(), graph_sizes);
    let model = Dgcnn::new(&config, seed);
    (params, model)
}

fn families() -> Vec<String> {
    MSKCFG_FAMILIES.iter().map(|s| s.to_string()).collect()
}

fn pipeline(kind: Kind, seed: u64) -> MagicPipeline {
    let (_, model) = table2_mskcfg_model(seed, &[]);
    MagicPipeline::with_reduce(model, families(), kind.reduce())
}

/// The `"scores":{...}` object of a predict response body.
fn scores_fragment(body: &str) -> Option<&str> {
    let start = body.find("\"scores\":{")?;
    let end = start + body[start..].find('}')?;
    Some(&body[start..=end])
}

/// Renders one planned sample into a request body with its reference.
fn render_body(
    kind: Kind,
    pipeline: &MagicPipeline,
    profiles: &[FamilyProfile],
    (label, mut rng): (usize, Rng64),
) -> Result<Body, String> {
    let listing = MskcfgGenerator::render(profiles, label, &mut rng).listing;
    let acfg = magic::extract_acfg(&listing).map_err(|e| e.to_string())?;
    let input = pipeline.input_for(&acfg);
    // A fresh tape per body, so set-up keeps no pool sized for the
    // largest graph; the served path is bitwise identical to `predict`.
    let probs = pipeline.model().predict(&input);
    let (content_type, payload) = match kind {
        Kind::Asm => ("text/plain", listing.into_bytes()),
        Kind::Acfg => (
            ACFG_CONTENT_TYPE,
            encode_record(&ShardRecord { label, acfg }),
        ),
    };
    let mut request = format!(
        "POST /v1/predict HTTP/1.1\r\nhost: perfledger\r\n\
         content-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    let payload_at = request.len();
    request.extend_from_slice(&payload);
    let encoded = encode_prediction(pipeline.family_names(), &probs, 1, 0, 0);
    let scores = scores_fragment(&encoded)
        .ok_or("reference has no scores object")?
        .to_string();
    Ok(Body {
        request,
        payload_at,
        probs,
        scores,
    })
}

/// Renders the seeded request corpus and its offline references across
/// nproc threads, in the generator's sample order.
fn build_bodies(kind: Kind, seed: u64, pipeline: &MagicPipeline) -> Result<Vec<Body>, String> {
    let mut generator = MskcfgGenerator::new(seed, BODY_SCALE);
    let plan = generator.plan();
    let profiles = generator.profiles();
    let next = AtomicUsize::new(0);
    let mut rendered: Vec<(usize, Result<Body, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(planned) = plan.get(i) else {
                            return mine;
                        };
                        let body = render_body(kind, pipeline, profiles, planned.clone());
                        mine.push((i, body.map_err(|e| format!("body {i}: {e}"))));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("render thread"))
            .collect()
    });
    rendered.sort_by_key(|(i, _)| *i);
    rendered.into_iter().map(|(_, body)| body).collect()
}

/// The server's IO and model pools match the load generator's in-flight
/// cap: nproc each.
fn server_config(access_log: Option<String>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        io_threads: nproc(),
        workers: nproc(),
        batch_window_us: 0,
        access_log,
        ..ServeConfig::default()
    }
}

/// Outcome of one request as the load generator saw it.
#[derive(Clone, Copy)]
struct Sample {
    /// Scheduled send time → full response, µs.
    latency_us: f64,
    /// Actual send − scheduled send, µs.
    late_us: f64,
    ok: bool,
}

/// Sends one request and checks the response against the reference.
fn exchange(addr: SocketAddr, body: &Body) -> bool {
    let attempt = || -> std::io::Result<bool> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&body.request)?;
        let mut response = Vec::with_capacity(1024);
        stream.read_to_end(&mut response)?;
        let text = String::from_utf8_lossy(&response);
        let Some((head, payload)) = text.split_once("\r\n\r\n") else {
            return Ok(false);
        };
        Ok(head.starts_with("HTTP/1.1 200 ") && scores_fragment(payload) == Some(&body.scores))
    };
    attempt().unwrap_or(false)
}

/// A phase's seeded arrival schedule: `(offset s, body index)` pairs.
/// Gaps are uniform in `[0.75, 1.25] / rate`: jittered arrivals with
/// bounded burstiness, so queueing builds only as the offered rate
/// nears capacity and the latency knee is sharp. Bodies are drawn in
/// seeded shuffled rounds, each body once per round, so every phase
/// sends the corpus's own mix: the few largest bodies, which set the
/// tail, are not over- or under-drawn by chance.
fn schedule(seed: u64, rate: f64, seconds: f64, bodies: usize) -> Vec<(f64, usize)> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    let mut round: Vec<usize> = Vec::new();
    loop {
        t += (0.75 + 0.5 * rng.unit()) / rate;
        if t >= seconds {
            return out;
        }
        if round.is_empty() {
            round = (0..bodies).collect();
            for i in (1..bodies).rev() {
                round.swap(i, rng.below(i + 1));
            }
        }
        out.push((t, round.pop().expect("the corpus is not empty")));
    }
}

/// One load phase at a fixed offered rate.
struct Phase {
    rate: f64,
    samples: Vec<Sample>,
    max_inflight: usize,
}

impl Phase {
    fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    fn latency_q_ms(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.latency_us).collect();
        quantile(&v, q) / 1e3
    }

    fn late_q_ms(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.late_us).collect();
        quantile(&v, q) / 1e3
    }
}

/// Offers `plan` open-loop from nproc threads, each holding at most one
/// connection, so at most nproc are in flight. Requests are taken in
/// schedule order; a thread that is still busy when the next request
/// falls due sends it late, and the lateness counts in that request's
/// latency.
fn offer(addr: SocketAddr, bodies: &[Body], plan: &[(f64, usize)], rate: f64) -> Phase {
    let next = AtomicUsize::new(0);
    let inflight = AtomicUsize::new(0);
    let max_inflight = AtomicUsize::new(0);
    let mut samples = vec![
        Sample {
            latency_us: 0.0,
            late_us: 0.0,
            ok: false
        };
        plan.len()
    ];
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, body)) = plan.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let now_inflight = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                        max_inflight.fetch_max(now_inflight, Ordering::Relaxed);
                        let ok = exchange(addr, &bodies[body]);
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        let done = Instant::now();
                        mine.push((
                            i,
                            Sample {
                                latency_us: (done - due).as_secs_f64() * 1e6,
                                late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                                ok,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    for (i, sample) in results.into_iter().flatten() {
        samples[i] = sample;
    }
    Phase {
        rate,
        samples,
        max_inflight: max_inflight.load(Ordering::Relaxed),
    }
}

/// Closed-loop warm-up: the largest bodies first, so the model tapes'
/// pools reach their biggest size classes, then a mixed sample.
/// Returns the mixed sample's mean service time per connection, ms.
fn warm_up(addr: SocketAddr, bodies: &[Body]) -> Result<f64, String> {
    let mut by_size: Vec<usize> = (0..bodies.len()).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse(bodies[i].request.len()));
    let largest: Vec<(f64, usize)> = by_size
        .iter()
        .take(WARMUP_REQUESTS)
        .map(|&i| (0.0, i))
        .collect();
    let mixed: Vec<(f64, usize)> = (0..WARMUP_REQUESTS)
        .map(|i| (0.0, i % bodies.len()))
        .collect();
    let mut service_ms = 0.0;
    for plan in [largest, mixed] {
        // Everything due at once from nproc threads: a closed loop.
        let phase = offer(addr, bodies, &plan, 0.0);
        if phase.failed() > 0 {
            return Err(format!(
                "{} of {} warm-up requests failed",
                phase.failed(),
                plan.len()
            ));
        }
        let span_s = phase
            .samples
            .iter()
            .map(|s| s.latency_us)
            .fold(0.0, f64::max)
            / 1e6;
        service_ms = span_s * 1e3 * nproc() as f64 / plan.len() as f64;
    }
    Ok(service_ms)
}

/// A started, warmed server with its bodies.
struct Setup {
    bodies: Vec<Body>,
    server: ServerHandle,
    /// Mean closed-loop service time per connection, ms: the ladder's
    /// rate-0 anchor.
    unloaded_ms: f64,
}

fn set_up(kind: Kind, seed: u64, access_log: Option<String>) -> Result<Setup, String> {
    let offline = pipeline(kind, seed);
    let bodies = build_bodies(kind, seed, &offline)?;
    let server = magic_serve::start(pipeline(kind, seed), server_config(access_log))
        .map_err(|e| format!("server start: {e}"))?;
    let unloaded_ms = warm_up(server.addr(), &bodies)?;
    Ok(Setup {
        bodies,
        server,
        unloaded_ms,
    })
}

/// Set-up repeated [`SETUPS`] times; keeps the last, returns the median
/// set-up time.
fn timed_setups(kind: Kind, seed: u64) -> Result<(Setup, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            old.server.shutdown();
        }
        let t0 = Instant::now();
        kept = Some(set_up(kind, seed, None)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// One phase: `rate` req/s for `share` of `--seconds`, at least `min`
/// requests, on the schedule seeded by `(seed, tag)`.
fn run_phase(setup: &Setup, args: &Args, tag: u64, rate: f64, share: f64, min: f64) -> Phase {
    let seconds = (share * args.seconds).max(min / rate);
    let seed = args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag;
    let plan = schedule(seed, rate, seconds, setup.bodies.len());
    offer(setup.server.addr(), &setup.bodies, &plan, rate)
}

/// The rate at which the ladder's p99 crosses the limit.
///
/// Between the highest passing rung `(r0, p0)` and the rung above it
/// `(r1, p1)` the crossing is interpolated linearly in reciprocal
/// latency, the coordinate in which queueing delay is close to linear
/// in offered load (`1/T ∝ 1 − ρ`). A failing rung's latency is taken as
/// at least the limit, so a rung that fails on correctness still bounds
/// the crossing from above.
fn interpolate_goodput(r0: f64, p0: f64, r1: f64, p1: f64, limit: f64) -> f64 {
    let p1 = p1.max(limit);
    let (a, b, l) = (1.0 / p0, 1.0 / p1, 1.0 / limit);
    if a <= b {
        return r0;
    }
    r0 + (a - l) / (a - b) * (r1 - r0)
}

/// Everything the load generator measured in a run.
#[derive(Default)]
struct Load {
    /// The nominal-rate phase of each pass, with the host steal share
    /// while it ran.
    nominal: Vec<(Phase, f64)>,
    /// The goodput crossing of each ladder, with its host steal share.
    goodputs: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    late_p99_ms: f64,
    max_inflight: usize,
    ladder_top_reached: bool,
}

impl Load {
    /// Folds one phase into the tallies. Returns its p99 (ms) and
    /// whether it met the limit with every response correct.
    ///
    /// The p99 also stands in for "generator lateness does not grow": a
    /// backlog whose lateness grows past the limit during a rung puts
    /// the rung's later requests over the limit, far more than the 1%
    /// its p99 allows.
    fn tally(&mut self, phase: &Phase, limit: f64, label: &str) -> (f64, bool) {
        let p99 = phase.latency_q_ms(0.99);
        self.attempted += phase.samples.len() as u64;
        self.failed += phase.failed() as u64;
        self.late_p99_ms = self.late_p99_ms.max(phase.late_q_ms(0.99));
        self.max_inflight = self.max_inflight.max(phase.max_inflight);
        let pass = p99 <= limit && phase.failed() == 0;
        eprintln!(
            "  {label:<8} {:>5.0} req/s  n={:<5} p50 {:>7.3} ms  p99 {:>8.3} ms  \
             late p99 {:>7.3} ms  {}",
            phase.rate,
            phase.samples.len(),
            phase.latency_q_ms(0.5),
            p99,
            phase.late_q_ms(0.99),
            if pass { "pass" } else { "MISS" }
        );
        (p99, pass)
    }

    /// Median latency of the calm passes' nominal phases pooled, ms.
    fn nominal_p50_ms(&self) -> f64 {
        let latencies: Vec<f64> = calm(&self.nominal)
            .into_iter()
            .flat_map(|phase| phase.samples.iter().map(|s| s.latency_us))
            .collect();
        quantile(&latencies, 0.5) / 1e3
    }

    /// The lowest nominal-phase p99 of the passes, ms. Interference
    /// from the host only ever adds latency, and it moves a tail
    /// quantile far more than the median: the best pass is the one
    /// nearest the program's own tail.
    fn nominal_p99_ms(&self) -> f64 {
        self.nominal
            .iter()
            .map(|(phase, _)| phase.latency_q_ms(0.99))
            .fold(f64::INFINITY, f64::min)
    }

    /// Median over the calm ladders of the goodput crossings, req/s.
    fn goodput(&self) -> f64 {
        calm_median(&self.goodputs)
    }
}

fn nominal_rate(args: &Args, kind: Kind) -> Result<f64, String> {
    args.nominal_rps
        .iter()
        .find(|(name, _)| name == kind.name())
        .map(|&(_, rps)| rps)
        .filter(|rps| *rps > 0.0)
        .ok_or_else(|| format!("--nominal-rps has no positive rate for {}", kind.name()))
}

/// Runs `passes` passes of the nominal phase, the first `ladders` of
/// them each followed by a ladder.
fn run_load(kind: Kind, args: &Args, setup: &Setup, passes: usize, ladders: usize) -> Load {
    let nominal_rps = nominal_rate(args, kind).expect("checked before set-up");
    let limit = kind.limit_ms();
    let mut load = Load::default();
    for pass in 0..passes {
        let ticks = cpu_ticks();
        let tag = 1000 * pass as u64;
        let phase = run_phase(
            setup,
            args,
            tag,
            nominal_rps,
            NOMINAL_SHARE,
            MIN_NOMINAL_REQUESTS,
        );
        let steal = steal_share_since(ticks);
        let (nominal_ms, nominal_pass) = load.tally(&phase, limit, &format!("pass {pass}"));
        // `(rate, p99, pass)` per rung; the rate-0 anchor
        // is the unloaded service time.
        let mut rungs = vec![
            (0.0, setup.unloaded_ms, true),
            (nominal_rps, nominal_ms, nominal_pass),
        ];
        load.nominal.push((phase, steal));
        eprintln!(
            "  pass {pass}: nominal phase host steal {:.1}%",
            100.0 * steal
        );
        if pass >= ladders {
            continue;
        }
        let ticks = cpu_ticks();
        for (step, &factor) in LADDER.iter().enumerate() {
            // Two misses in a row: the knee is behind us.
            if rungs.iter().rev().take(2).all(|r| !r.2) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            let rate = nominal_rps * factor;
            let phase = run_phase(
                setup,
                args,
                tag + 1 + step as u64,
                rate,
                RUNG_SHARE,
                MIN_RUNG_REQUESTS,
            );
            let (p99, pass) = load.tally(&phase, limit, "");
            rungs.push((rate, p99, pass));
        }
        // The highest passing rung and the rung above it: an isolated
        // miss below a higher pass (a stall, not saturation) does not
        // end the ladder.
        let top = rungs
            .iter()
            .rposition(|r| r.2)
            .expect("the rate-0 anchor passes");
        let goodput = match rungs.get(top + 1) {
            Some(&(r1, p1, _)) => interpolate_goodput(rungs[top].0, rungs[top].1, r1, p1, limit),
            None => {
                load.ladder_top_reached = true;
                rungs[top].0
            }
        };
        let steal = steal_share_since(ticks);
        eprintln!(
            "  pass {pass}: goodput {goodput:.1} req/s, ladder host steal {:.1}%",
            100.0 * steal
        );
        load.goodputs.push((goodput, steal));
    }
    load
}

pub fn run(args: &Args) -> Result<Report, String> {
    let kind = match args.workload.as_str() {
        "serve-asm" => Kind::Asm,
        _ => Kind::Acfg,
    };
    nominal_rate(args, kind)?;
    if args.trace {
        return run_traced(kind, args);
    }
    let (setup, setup_s) = timed_setups(kind, args.seed)?;
    eprintln!(
        "{}: {} bodies, set-up {:.3} s (median of {SETUPS}), unloaded {:.3} ms, limit {} ms, \
         peak RSS after set-up {:.1} MB",
        kind.name(),
        setup.bodies.len(),
        setup_s,
        setup.unloaded_ms,
        kind.limit_ms(),
        peak_rss_mb()
    );
    // From here `peak_rss_mb` covers serving only, not the set-ups'
    // corpus render and offline references.
    reset_peak_rss()?;
    let load = run_load(kind, args, &setup, PASSES, LADDER_PASSES);
    setup.server.shutdown();

    let mut report = Report {
        attempted: load.attempted,
        failed: load.failed,
        ..Report::default()
    };
    if load.ladder_top_reached {
        report.invalid.push(format!(
            "every ladder rung met the {} ms limit; raise the nominal rate",
            kind.limit_ms()
        ));
    }
    eprintln!(
        "{}: sent {}, succeeded {}, failed {}; goodput {:.1} req/s; max in-flight {}",
        kind.name(),
        load.attempted,
        load.attempted - load.failed,
        load.failed,
        load.goodput(),
        load.max_inflight
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("p50_ms", load.nominal_p50_ms(), "ms");
    report.metric("p99_ms", load.nominal_p99_ms(), "ms");
    report.metric("goodput_per_s", load.goodput(), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(report)
}

/// Per-request stage fields of the server's access log.
struct Access {
    parse_us: f64,
    extract_us: f64,
    queue_us: f64,
    execute_us: f64,
    write_us: f64,
    total_us: f64,
    batch: f64,
}

fn read_access_log(path: &str) -> Result<Vec<Access>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(Event::ServeAccess {
            status: 200,
            path,
            parse_us,
            extract_us,
            queue_us,
            execute_us,
            write_us,
            total_us,
            batch,
            ..
        }) = Event::from_jsonl_line(line)
        {
            if path == "/v1/predict" {
                out.push(Access {
                    parse_us: parse_us as f64,
                    extract_us: extract_us as f64,
                    queue_us: queue_us as f64,
                    execute_us: execute_us as f64,
                    write_us: write_us as f64,
                    total_us: total_us as f64,
                    batch: batch as f64,
                });
            }
        }
    }
    Ok(out)
}

/// The traced run: the nominal phase untraced and again with the access
/// log on, then the single-threaded per-layer replay.
fn run_traced(kind: Kind, args: &Args) -> Result<Report, String> {
    let work = crate::WorkDir::create(kind.name())?;
    let mut report = Report::default();

    let setup = set_up(kind, args.seed, None)?;
    let untraced = run_load(kind, args, &setup, 1, 0);
    setup.server.shutdown();

    let log_path = work
        .path()
        .join("access.jsonl")
        .to_string_lossy()
        .into_owned();
    let setup = set_up(kind, args.seed, Some(log_path.clone()))?;
    let traced = run_load(kind, args, &setup, 1, 0);
    let bodies = setup.bodies;
    setup.server.shutdown();
    report.attempted = untraced.attempted + traced.attempted;
    report.failed = untraced.failed + traced.failed;

    let mut log = read_access_log(&log_path)?;
    // Drop the warm-up requests: keep the traced phase's own entries.
    let phase_n = traced.nominal[0].0.samples.len();
    if log.len() < phase_n {
        report.invalid.push(format!(
            "access log holds {} of {phase_n} requests",
            log.len()
        ));
    }
    log.drain(..log.len().saturating_sub(phase_n));
    let col = |f: fn(&Access) -> f64| median(&log.iter().map(f).collect::<Vec<_>>());
    let client_p50_us = traced.nominal_p50_ms() * 1e3;
    let server_p50_us = col(|a| a.total_us);
    let stages_us = [
        ("serve.parse_us", col(|a| a.parse_us)),
        ("serve.extract_us", col(|a| a.extract_us)),
        ("serve.queue_us", col(|a| a.queue_us)),
        ("serve.execute_us", col(|a| a.execute_us)),
        ("serve.write_us", col(|a| a.write_us)),
    ];
    let transport_us = client_p50_us - server_p50_us;
    for (name, us) in stages_us {
        report.metric(name, us, "us");
    }
    report.metric("serve.batch_size", col(|a| a.batch), "count");
    report.metric("serve.transport_us", transport_us, "us");
    report.metric(
        "client.late_p99_ms",
        traced.late_p99_ms.max(untraced.late_p99_ms),
        "ms",
    );
    report.metric(
        "client.max_inflight",
        traced.max_inflight.max(untraced.max_inflight) as f64,
        "count",
    );
    report.metric(
        "obs.overhead_share",
        traced.nominal_p50_ms() / untraced.nominal_p50_ms() - 1.0,
        "share",
    );
    eprintln!(
        "{}: client p50 {client_p50_us:.1} us = server total p50 {server_p50_us:.1} us \
         + transport {transport_us:.1} us",
        kind.name(),
    );
    replay::run(kind, &pipeline(kind, args.seed), &bodies, &mut report);
    // The access-log stages leave the protocol decode and the response
    // encode unstamped; the replay times both.
    let attributed = stages_us.iter().map(|(_, us)| us).sum::<f64>()
        + transport_us
        + report.value("serve.protocol_us")
        + report.value("json.encode_us");
    report.metric(
        "serve.unattributed_share",
        1.0 - attributed / client_p50_us,
        "share",
    );
    drop(work);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_sends_every_body_once_per_round() {
        let plan = schedule(7, 1000.0, 1.0, 30);
        assert_eq!(plan, schedule(7, 1000.0, 1.0, 30));
        assert_ne!(plan, schedule(8, 1000.0, 1.0, 30));
        for round in plan.chunks_exact(30) {
            let mut bodies: Vec<usize> = round.iter().map(|&(_, b)| b).collect();
            bodies.sort_unstable();
            assert_eq!(bodies, (0..30).collect::<Vec<_>>());
        }
        assert!(plan.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
