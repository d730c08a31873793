//! The `train-mskcfg` workload: build a `reduce none` mskcfg shard
//! cache at set-up, then time open → `Trainer::train_streamed` →
//! checkpoint write, repeated for `--seconds`. After each training run
//! the written checkpoint is read back and classifies the corpus, one
//! timed prediction per sample.

use crate::replay::GEMM_KINDS;
use crate::serve::table2_mskcfg_model;
use crate::stats::{
    calm, calm_median, cpu_ticks, median, nproc, peak_rss_mb, quantile, steal_share_since,
};
use crate::{Args, Report, WorkDir};
use magic::checkpoint::{load_weights, save_weights};
use magic::{build_cache, open_streaming, CacheSpec, CorpusKind, TrainConfig, Trainer};
use magic_autograd::Tape;
use magic_data::{stratified_kfold, StreamedCorpus};
use magic_graph::ReduceStrategy;
use magic_model::GraphInput;
use magic_obs::{stage, Event, Recorder};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Generator scale of the training corpus (552 samples, 441 train).
const TRAIN_SCALE: f64 = 0.05;
/// Epochs per timed training run.
const EPOCHS: usize = 3;
/// Set-up (corpus render + extract + shard write) repeats per run.
const SETUPS: usize = 3;
/// `--seconds` per timed training run: a run makes
/// `round(seconds / SECONDS_PER_REPEAT)` of them (at least one), a
/// count fixed by the arguments rather than by the machine's speed.
const SECONDS_PER_REPEAT: f64 = 15.0;
/// Untimed predictions that warm the tape before a prediction pass.
const WARM_PREDICTIONS: usize = 50;
/// Prediction passes after each timed training run. `p99_ms` is the
/// best pass, so more passes keep a stall out of it; each costs about
/// 3 s on a 2-CPU host.
const PREDICT_PASSES: usize = 2;

fn spec(seed: u64) -> CacheSpec {
    CacheSpec {
        corpus: CorpusKind::Mskcfg,
        seed,
        scale: TRAIN_SCALE,
        reduce: ReduceStrategy::None,
        shards: magic::DEFAULT_SHARDS,
    }
}

/// One timed training run.
struct TrainRun {
    wall_s: f64,
    open_s: f64,
    checkpoint_s: f64,
    /// Training samples × epochs.
    samples: usize,
    val_accuracy: f64,
    finite: bool,
    checkpoint: String,
    validation: Vec<usize>,
}

impl TrainRun {
    fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall_s
    }
}

fn train_once(dir: &Path, spec: &CacheSpec, ckpt: &Path) -> Result<TrainRun, String> {
    let start = Instant::now();
    let corpus = open_streaming(dir, Some(spec.fingerprint())).map_err(|e| e.to_string())?;
    let open_s = start.elapsed().as_secs_f64();
    let labels = corpus.labels().to_vec();
    let (params, mut model) = table2_mskcfg_model(spec.seed, corpus.vertex_counts());
    let fold = stratified_kfold(&labels, 5, spec.seed).swap_remove(0);
    // `magic train --corpus mskcfg` settings, per-sample mode.
    let trainer = Trainer::new(TrainConfig {
        train_workers: nproc(),
        batched: false,
        ..params.to_train_config(EPOCHS, spec.seed)
    });
    let outcome =
        trainer.train_streamed(&mut model, &corpus, &labels, &fold.train, &fold.validation);
    let save_start = Instant::now();
    let checkpoint = save_weights(&model);
    std::fs::write(ckpt, &checkpoint).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let checkpoint_s = save_start.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();
    let finite = outcome
        .history
        .iter()
        .all(|h| h.train_loss.is_finite() && h.val_loss.is_finite());
    let last = outcome.history.last().ok_or("no epoch ran")?;
    Ok(TrainRun {
        wall_s,
        open_s,
        checkpoint_s,
        samples: fold.train.len() * EPOCHS,
        val_accuracy: last.val_accuracy,
        finite,
        checkpoint,
        validation: fold.validation,
    })
}

/// One pass of the trained checkpoint over the corpus.
struct PredictPass {
    /// Latency of each prediction, µs.
    latencies_us: Vec<f64>,
    /// Whether the reloaded checkpoint predicts exactly what training
    /// validated: the same weights on a save round trip, every
    /// probability finite, and the validation split's accuracy equal to
    /// the trainer's last-epoch figure.
    faithful: bool,
}

/// Reads the checkpoint file back into a fresh model, as a deployment
/// of the trained model would, and classifies every corpus sample one
/// at a time on a warm tape, timing each prediction.
fn predict_pass(
    corpus: &StreamedCorpus,
    inputs: &[GraphInput],
    spec: &CacheSpec,
    ckpt: &Path,
    run: &TrainRun,
) -> Result<PredictPass, String> {
    let text = std::fs::read_to_string(ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let (_, mut model) = table2_mskcfg_model(spec.seed, corpus.vertex_counts());
    load_weights(&mut model, &text).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let mut tape = Tape::new();
    for input in inputs.iter().take(WARM_PREDICTIONS) {
        std::hint::black_box(model.predict_with(&mut tape, input));
    }
    let mut latencies_us = Vec::with_capacity(inputs.len());
    let mut predicted = Vec::with_capacity(inputs.len());
    let mut finite = true;
    for input in inputs {
        let start = Instant::now();
        let probs = model.predict_with(&mut tape, input);
        latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        finite &= probs.iter().all(|p| p.is_finite());
        // The trainer's own argmax: the last of equal maxima.
        let class = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(c, _)| c);
        predicted.push(class);
    }
    let labels = corpus.labels();
    let correct = run
        .validation
        .iter()
        .filter(|&&i| predicted[i] == labels[i])
        .count();
    let accuracy = correct as f64 / run.validation.len() as f64;
    Ok(PredictPass {
        latencies_us,
        faithful: finite && accuracy == run.val_accuracy && save_weights(&model) == text,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::create("train-mskcfg")?;
    let cache = work.path().join("cache");
    let ckpt = work.path().join("model.ckpt");
    let spec = spec(args.seed);

    let mut setup_times = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        build_cache(&cache, &spec, nproc(), true).map_err(|e| e.to_string())?;
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    if args.trace {
        return run_traced(&cache, &spec, &ckpt);
    }

    let repeats = ((args.seconds / SECONDS_PER_REPEAT).round() as usize).max(1);
    let corpus = open_streaming(&cache, Some(spec.fingerprint())).map_err(|e| e.to_string())?;
    let all: Vec<usize> = (0..corpus.len()).collect();
    let inputs = corpus.fetch(&all).map_err(|e| e.to_string())?;
    let mut runs: Vec<TrainRun> = Vec::new();
    let mut passes: Vec<PredictPass> = Vec::new();
    // Whether each run's checkpoint predicted faithfully in every pass.
    let mut faithful = Vec::new();
    // The peak of set-up plus one training, as one `magic train` run
    // would see it; later runs reuse a heap the first one fragmented.
    let mut peak_rss = 0.0;
    // `(samples/s, host steal share)` per training run, and
    // `(pass index, host steal share)` per prediction pass.
    let mut sps = Vec::new();
    let mut pass_steal = Vec::new();
    for _ in 0..repeats {
        let ticks = cpu_ticks();
        let run = train_once(&cache, &spec, &ckpt)?;
        let steal = steal_share_since(ticks);
        if runs.is_empty() {
            peak_rss = peak_rss_mb();
        }
        eprintln!(
            "train-mskcfg: {:.1} samples/s ({} samples in {:.3} s), val accuracy {:.4}, \
             host steal {:.1}%",
            run.samples_per_s(),
            run.samples,
            run.wall_s,
            run.val_accuracy,
            100.0 * steal,
        );
        let mut run_faithful = true;
        for _ in 0..PREDICT_PASSES {
            let ticks = cpu_ticks();
            let pass = predict_pass(&corpus, &inputs, &spec, &ckpt, &run)?;
            let steal = steal_share_since(ticks);
            eprintln!(
                "  predict pass: p50 {:.1} us, p99 {:.1} us, host steal {:.1}%",
                quantile(&pass.latencies_us, 0.5),
                quantile(&pass.latencies_us, 0.99),
                100.0 * steal
            );
            pass_steal.push((passes.len(), steal));
            run_faithful &= pass.faithful;
            passes.push(pass);
        }
        faithful.push(run_faithful);
        sps.push((run.samples_per_s(), steal));
        runs.push(run);
    }
    // Every run trains the same model from the same seed: a run that
    // diverged (non-finite loss), whose checkpoint differs from the
    // first run's, or whose checkpoint does not predict what training
    // validated fails.
    let failed = runs
        .iter()
        .zip(&faithful)
        .filter(|&(r, &ok)| !r.finite || r.checkpoint != runs[0].checkpoint || !ok)
        .count() as u64;
    let mut report = Report {
        attempted: runs.len() as u64,
        failed,
        ..Report::default()
    };
    // As on serve: p50 pools the calm passes, p99 is the best pass.
    let pooled: Vec<f64> = calm(&pass_steal)
        .into_iter()
        .flat_map(|&i| passes[i].latencies_us.iter().copied())
        .collect();
    let best_p99_us = passes
        .iter()
        .map(|p| quantile(&p.latencies_us, 0.99))
        .fold(f64::INFINITY, f64::min);
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("p50_ms", quantile(&pooled, 0.5) / 1e3, "ms");
    report.metric("p99_ms", best_p99_us / 1e3, "ms");
    report.metric("goodput_per_s", calm_median(&sps), "1/s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    Ok(report)
}

/// Keeps every event in memory until the run ends.
#[derive(Default)]
struct MemoryRecorder(Mutex<Vec<Event>>);

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        self.0.lock().expect("recorder lock").push(event.clone());
    }
}

/// The traced run: a training run with the program's recorder installed
/// (op/host rows, histograms, counters) between two untraced ones, then
/// a timed streaming read of the whole corpus in batches.
fn run_traced(cache: &Path, spec: &CacheSpec, ckpt: &Path) -> Result<Report, String> {
    // Untraced runs before and after the traced one, so drift over the
    // run does not read as tracing overhead.
    let before = train_once(cache, spec, ckpt)?;

    let recorder = Arc::new(MemoryRecorder::default());
    magic_obs::install(recorder.clone());
    magic_tensor::mem::enable();
    let traced = train_once(cache, spec, ckpt);
    magic_obs::uninstall();
    magic_tensor::mem::disable();
    let traced = traced?;
    let after = train_once(cache, spec, ckpt)?;
    let untraced_sps = (before.samples_per_s() + after.samples_per_s()) / 2.0;
    let events = std::mem::take(&mut *recorder.0.lock().expect("recorder lock"));

    let mut report = Report {
        attempted: 3,
        failed: [&before, &traced, &after]
            .iter()
            .filter(|r| !r.finite)
            .count() as u64,
        ..Report::default()
    };
    if traced.checkpoint != before.checkpoint || after.checkpoint != before.checkpoint {
        report
            .invalid
            .push("tracing changed the trained checkpoint".into());
    }

    // Fold the op/host rows the way `magic profile` reads them.
    let mut op_s: std::collections::BTreeMap<&'static str, f64> = [
        "autograd.fwd_s",
        "autograd.bwd_s",
        "tensor.gemm_s",
        "autograd.im2col_s",
        "autograd.adaptive_pool_s",
        "nn.optimizer_step_s",
        "core.grad_reduce_s",
        "core.evaluate_s",
        "core.sample_overhead_s",
    ]
    .into_iter()
    .map(|key| (key, 0.0))
    .collect();
    let mut add = |key: &'static str, ns: u64| *op_s.entry(key).or_default() += ns as f64 / 1e9;
    let mut fanout_us = 0.0;
    // Host rows timed on the training thread itself (the update after
    // each fan-out, and evaluation); `grad.accumulate` runs in the lanes.
    let mut main_thread_ns = 0u64;
    let mut pool_misses = Vec::new();
    let mut allocs = 0.0;
    let mut bytes_read = 0.0;
    for event in &events {
        match event {
            Event::OpProfile {
                kind,
                phase,
                self_ns,
                ..
            } => {
                if matches!(
                    kind.as_str(),
                    stage::OP_HOST_REDUCE
                        | stage::OP_HOST_CLIP
                        | stage::OP_HOST_STEP
                        | stage::OP_HOST_EVALUATE
                ) {
                    main_thread_ns += self_ns;
                }
                let key = match (kind.as_str(), phase.as_str()) {
                    (k, _) if GEMM_KINDS.contains(&k) => "tensor.gemm_s",
                    ("im2col", _) => "autograd.im2col_s",
                    (k, _) if k.starts_with("adaptive_max_pool2d") => "autograd.adaptive_pool_s",
                    (stage::OP_HOST_STEP, _) => "nn.optimizer_step_s",
                    (
                        stage::OP_HOST_REDUCE | stage::OP_HOST_ACCUMULATE | stage::OP_HOST_CLIP,
                        _,
                    ) => "core.grad_reduce_s",
                    (stage::OP_HOST_EVALUATE, _) => "core.evaluate_s",
                    (_, "host") => "core.sample_overhead_s",
                    (_, "bwd") => "autograd.bwd_s",
                    _ => "autograd.fwd_s",
                };
                add(key, *self_ns);
            }
            Event::Histogram { name, value, .. } => match name.as_str() {
                stage::H_EPOCH_FANOUT_US => fanout_us += value,
                stage::H_POOL_MISSES => pool_misses.push(*value),
                stage::H_ALLOC_COUNT => allocs += value,
                _ => {}
            },
            Event::Counter { name, delta, .. } if name == stage::C_CACHE_BYTES_READ => {
                bytes_read += delta
            }
            _ => {}
        }
    }

    // Streaming read cost of the corpus in training-sized batches.
    let corpus = open_streaming(cache, Some(spec.fingerprint())).map_err(|e| e.to_string())?;
    let order: Vec<usize> = (0..corpus.len()).collect();
    let read_start = Instant::now();
    for batch in order.chunks(10) {
        std::hint::black_box(corpus.fetch(batch).map_err(|e| e.to_string())?);
    }
    let read_s = read_start.elapsed().as_secs_f64();

    for (name, seconds) in &op_s {
        report.metric(name, *seconds, "s");
    }
    report.metric("tensor.alloc_count", allocs, "count");
    report.metric(
        "tensor.pool_misses_steady",
        pool_misses.iter().copied().fold(f64::INFINITY, f64::min),
        "count",
    );
    report.metric("data.open_s", traced.open_s, "s");
    report.metric("data.read_s", read_s, "s");
    report.metric("data.bytes_read", bytes_read, "bytes");
    report.metric("core.checkpoint_save_s", traced.checkpoint_s, "s");
    report.metric("core.val_accuracy", traced.val_accuracy, "share");
    report.metric(
        "obs.overhead_share",
        untraced_sps / traced.samples_per_s() - 1.0,
        "share",
    );

    // Wall-clock attribution on the training thread: fan-out regions
    // (whose lane time the op rows split), the update/evaluate host rows
    // timed on the same thread, and the benchmark's own open and
    // checkpoint spans.
    let main_thread_s = main_thread_ns as f64 / 1e9;
    let attributed = fanout_us / 1e6 + main_thread_s + traced.open_s + traced.checkpoint_s;
    report.metric(
        "train.unattributed_share",
        1.0 - attributed / traced.wall_s,
        "share",
    );
    eprintln!(
        "train-mskcfg traced: wall {:.3} s, fan-out {:.3} s, update+evaluate {:.3} s, \
         open {:.4} s, checkpoint {:.4} s",
        traced.wall_s,
        fanout_us / 1e6,
        main_thread_s,
        traced.open_s,
        traced.checkpoint_s
    );
    Ok(report)
}
