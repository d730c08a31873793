//! `perfledger` — the MAGIC end-to-end benchmark.
//!
//! ```text
//! perfledger --workload <serve-asm|serve-acfg|train-mskcfg> --seed N --seconds S
//!            --trace <0|1> --nominal-rps serve-asm=R,serve-acfg=R
//! ```
//!
//! Drives the system only through its public functions: the serving
//! daemon over loopback HTTP (`magic_serve::start`), the streamed
//! trainer (`magic::open_streaming` + `Trainer::train_streamed`) and the
//! checkpoint writer. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; progress and the
//! human-readable breakdown go to stderr. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ledger. See
//! `perfledger/README.md` for every metric and workload.

mod replay;
mod serve;
mod stats;
mod train;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The end-to-end metrics of `--trace 0`, with their units, as
/// `BENCHMARK.json` lists them. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer ledger of `--trace 1`, with units, as `BENCHMARK.json`
/// lists it. A workload whose path never enters a layer reports that
/// layer's metrics as 0 (see `README.md`).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("serve.parse_us", "us"),
    ("serve.extract_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.execute_us", "us"),
    ("serve.write_us", "us"),
    ("serve.batch_size", "count"),
    ("serve.transport_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.unattributed_share", "share"),
    ("client.late_p99_ms", "ms"),
    ("client.max_inflight", "count"),
    ("obs.overhead_share", "share"),
    ("asm.parse_us", "us"),
    ("asm.cfg_build_us", "us"),
    ("asm.instructions", "count"),
    ("cfg.blocks", "count"),
    ("cfg.edges", "count"),
    ("graph.acfg_us", "us"),
    ("graph.reduce_us", "us"),
    ("graph.reduce_node_share", "share"),
    ("data.decode_record_us", "us"),
    ("data.open_s", "s"),
    ("data.read_s", "s"),
    ("data.bytes_read", "bytes"),
    ("model.input_us", "us"),
    ("model.forward_b1_us", "us"),
    ("model.forward_b2_us", "us"),
    ("model.vertices", "count"),
    ("autograd.fwd_s", "s"),
    ("autograd.bwd_s", "s"),
    ("tensor.gemm_s", "s"),
    ("autograd.im2col_s", "s"),
    ("autograd.adaptive_pool_s", "s"),
    ("tensor.alloc_count", "count"),
    ("tensor.pool_misses_steady", "count"),
    ("nn.optimizer_step_s", "s"),
    ("core.grad_reduce_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.sample_overhead_s", "s"),
    ("core.checkpoint_save_s", "s"),
    ("core.val_accuracy", "share"),
    ("json.encode_us", "us"),
    ("split.asm_graph_share", "share"),
    ("split.forward_share", "share"),
    ("train.unattributed_share", "share"),
];

/// Metrics of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks beyond per-operation failures (for example
    /// a goodput ladder that never found its knee).
    pub invalid: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A metric already recorded in this report (0 if absent).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |m| m.1)
    }

    /// The result line: every metric of `table` in its order. A metric
    /// the run did not record is 0 on the per-layer ledger (the layer is
    /// not on the workload's path) and an error on the end-to-end table;
    /// so is a recorded metric the table does not hold, or one in
    /// another unit.
    fn to_json(&self, table: &[(&str, &str)], fill_absent: bool) -> Result<String, String> {
        for (name, _, unit) in &self.metrics {
            match table.iter().find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                Some((_, u)) => return Err(format!("metric {name} recorded in {unit}, not {u}")),
                None => return Err(format!("metric {name} is not in this run's table")),
            }
        }
        let mut fields = Vec::new();
        for (name, unit) in table {
            let value = match self.metrics.iter().find(|(n, ..)| n == name) {
                Some(m) => m.1,
                None if fill_absent => 0.0,
                None => return Err(format!("the run measured no {name}")),
            };
            // Non-finite values have no JSON form; they only arise from
            // a broken run, which `correct: false` already reports.
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        let correct = self.failed == 0 && self.invalid.is_empty() && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A scratch directory under `.bench_work/` in the working directory
/// (the checkout root), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<Self, String> {
        let path = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Nominal offered rate of each serve workload, req/s.
    pub nominal_rps: Vec<(String, f64)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut nominal_rps = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--nominal-rps" => {
                for pair in value.split(',') {
                    let (name, rps) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad --nominal-rps {pair:?}"))?;
                    let rps: f64 = rps.parse().map_err(|_| format!("bad rate in {pair:?}"))?;
                    nominal_rps.push((name.to_string(), rps));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        nominal_rps,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve-asm" | "serve-acfg" => serve::run(args),
        "train-mskcfg" => train::run(args),
        other => Err(format!(
            "unknown workload {other:?} (serve-asm|serve-acfg|train-mskcfg)"
        )),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    let line = run(&args).and_then(|report| {
        for why in &report.invalid {
            eprintln!("perfledger: check failed: {why}");
        }
        if args.trace {
            report.to_json(&PER_LAYER, true)
        } else {
            report.to_json(&END_TO_END, false)
        }
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables name exactly the manifest's metrics, in its
    /// units and order.
    #[test]
    fn tables_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = manifest.find(&format!("\"{key}\"")).expect("section present");
            let end = start + manifest[start..].find(']').expect("section closes");
            manifest[start..end]
                .match_indices("\"name\": \"")
                .map(|(at, m)| {
                    let rest = &manifest[start + at + m.len()..];
                    let name = &rest[..rest.find('"').unwrap()];
                    let unit_at = rest.find("\"unit\": \"").unwrap() + 9;
                    let unit = &rest[unit_at..unit_at + rest[unit_at..].find('"').unwrap()];
                    (name.to_string(), unit.to_string())
                })
                .collect::<Vec<_>>()
        };
        let own = |table: &[(&str, &str)]| {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_holds_every_metric_of_its_table() {
        let mut report = Report {
            attempted: 1,
            ..Report::default()
        };
        report.metric("asm.parse_us", 12.5, "us");
        let line = report.to_json(&PER_LAYER, true).unwrap();
        assert!(line.contains("\"asm.parse_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
        assert!(line.contains("\"data.open_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
        // An end-to-end metric the run did not measure, or one outside
        // the table, is an error rather than a line.
        assert!(report.to_json(&END_TO_END, false).is_err());
        report.metric("made_up", 1.0, "s");
        assert!(report.to_json(&PER_LAYER, true).is_err());
    }
}
