//! Single-threaded replay of the serve bodies through the public
//! functions of each layer, timed by the benchmark itself: the `asm`,
//! `graph`, `data`, `model`, `tensor` and `json` rows of the traced
//! serve ledger.

use crate::serve::{Body, Kind};
use crate::stats::median;
use crate::Report;
use magic::MagicPipeline;
use magic_asm::{parse_listing, CfgBuilder};
use magic_autograd::Tape;
use magic_data::decode_record;
use magic_graph::Acfg;
use magic_model::GraphInput;
use magic_serve::protocol::{
    encode_prediction, parse_predict_request, RequestInput, ACFG_CONTENT_TYPE,
};
use std::hint::black_box;
use std::time::Instant;

/// Bodies replayed untimed first, so the tape's pools are warm.
const WARM: usize = 50;

/// Op kinds lowered onto the blocked GEMM kernel.
pub const GEMM_KINDS: [&str; 6] = [
    "matmul",
    "conv1d.gemm",
    "conv2d.gemm",
    "gemm.batched",
    "conv1d.batched",
    "conv2d.batched",
];

/// Times `f`, returning its result and the elapsed microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Per-request stage times (µs) and counts of one replayed body.
#[derive(Default)]
struct Row {
    protocol: f64,
    asm_parse: f64,
    cfg_build: f64,
    acfg: f64,
    reduce: f64,
    decode: f64,
    input: f64,
    forward: f64,
    encode: f64,
    instructions: f64,
    blocks: f64,
    edges: f64,
    vertices_in: f64,
    vertices: f64,
}

impl Row {
    fn total(&self) -> f64 {
        self.protocol
            + self.asm_parse
            + self.cfg_build
            + self.acfg
            + self.reduce
            + self.input
            + self.forward
            + self.encode
    }
}

/// The ACFG a request carries, as the server's front half would see it.
fn front_half(kind: Kind, body: &Body, row: &mut Row) -> Acfg {
    let content_type = match kind {
        Kind::Asm => "text/plain",
        Kind::Acfg => ACFG_CONTENT_TYPE,
    };
    let (input, us) = timed(|| parse_predict_request(Some(content_type), body.payload()));
    row.protocol = us;
    match input.expect("reference body decodes") {
        RequestInput::Listing(listing) => {
            let (program, us) = timed(|| parse_listing(&listing).expect("reference parsed"));
            row.asm_parse = us;
            row.instructions = program.len() as f64;
            let (cfg, us) = timed(|| CfgBuilder::new(&program).build());
            row.cfg_build = us;
            row.blocks = cfg.block_count() as f64;
            row.edges = cfg.edge_count() as f64;
            let (acfg, us) = timed(|| Acfg::from_cfg(&cfg));
            row.acfg = us;
            acfg
        }
        RequestInput::Acfg(acfg) => {
            // The record decode inside the protocol step, timed alone.
            let (_, us) = timed(|| decode_record(body.payload()).expect("reference decoded"));
            row.decode = us;
            acfg
        }
    }
}

fn replay_one(kind: Kind, pipeline: &MagicPipeline, tape: &mut Tape, body: &Body) -> Row {
    let mut row = Row::default();
    let acfg = front_half(kind, body, &mut row);
    row.vertices_in = acfg.vertex_count() as f64;
    let reduce = pipeline.reduce();
    let reduced = if reduce.is_none() {
        acfg
    } else {
        let (reduced, us) = timed(|| reduce.apply(&acfg));
        row.reduce = us;
        reduced
    };
    row.vertices = reduced.vertex_count() as f64;
    let (input, us) = timed(|| GraphInput::from_acfg(&reduced));
    row.input = us;
    let (mut probs, us) = timed(|| pipeline.model().predict_batch_sorted(tape, &[&input]));
    row.forward = us;
    let probs = probs.pop().expect("one prediction");
    assert!(
        probs
            .iter()
            .zip(&body.probs)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "replayed prediction differs from the offline reference"
    );
    let (_, us) = timed(|| encode_prediction(pipeline.family_names(), &probs, 1, 0, 0));
    row.encode = us;
    row
}

/// Replays every body and adds the per-layer rows to `report`.
pub fn run(kind: Kind, pipeline: &MagicPipeline, bodies: &[Body], report: &mut Report) {
    let mut tape = Tape::new();
    for body in bodies.iter().take(WARM) {
        replay_one(kind, pipeline, &mut tape, body);
    }
    let rows: Vec<Row> = bodies
        .iter()
        .map(|b| replay_one(kind, pipeline, &mut tape, b))
        .collect();
    let col = |f: fn(&Row) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>();

    // Batches of two, as the server fuses concurrent requests.
    let inputs: Vec<GraphInput> = bodies
        .iter()
        .map(|b| pipeline.input_for(&front_half(kind, b, &mut Row::default())))
        .collect();
    let pairs: Vec<f64> = inputs
        .chunks_exact(2)
        .map(|pair| {
            timed(|| {
                pipeline
                    .model()
                    .predict_batch_sorted(&mut tape, &[&pair[0], &pair[1]])
            })
            .1
        })
        .collect();

    // GEMM share of the forward pass, from the tape's op profiler.
    tape.set_profiling(true);
    for input in &inputs {
        black_box(pipeline.model().predict_batch_sorted(&mut tape, &[input]));
    }
    tape.set_profiling(false);
    let profile = tape.take_profile();
    let gemm_ns: u64 = profile
        .sorted_rows()
        .iter()
        .filter(|(key, _)| GEMM_KINDS.contains(&key.kind))
        .map(|(_, stat)| stat.self_ns)
        .sum();

    report.metric("serve.protocol_us", col(|r| r.protocol), "us");
    if kind == Kind::Asm {
        report.metric("asm.parse_us", col(|r| r.asm_parse), "us");
        report.metric("asm.cfg_build_us", col(|r| r.cfg_build), "us");
        report.metric("asm.instructions", col(|r| r.instructions), "count");
        report.metric("cfg.blocks", col(|r| r.blocks), "count");
        report.metric("cfg.edges", col(|r| r.edges), "count");
        report.metric("graph.acfg_us", col(|r| r.acfg), "us");
        report.metric("graph.reduce_us", col(|r| r.reduce), "us");
        report.metric(
            "graph.reduce_node_share",
            1.0 - sum(|r| r.vertices) / sum(|r| r.vertices_in),
            "share",
        );
    } else {
        report.metric("data.decode_record_us", col(|r| r.decode), "us");
    }
    report.metric("model.input_us", col(|r| r.input), "us");
    report.metric("model.forward_b1_us", col(|r| r.forward), "us");
    report.metric("model.forward_b2_us", median(&pairs), "us");
    report.metric("model.vertices", col(|r| r.vertices), "count");
    report.metric("tensor.gemm_s", gemm_ns as f64 / 1e9, "s");
    report.metric("json.encode_us", col(|r| r.encode), "us");

    // Where a request's single-threaded CPU time goes.
    let total = sum(Row::total);
    let asm_graph = sum(|r| r.asm_parse + r.cfg_build + r.acfg + r.reduce);
    report.metric("split.asm_graph_share", asm_graph / total, "share");
    report.metric("split.forward_share", sum(|r| r.forward) / total, "share");
    eprintln!(
        "replay: {} bodies, per-request CPU {:.1} us mean: asm+graph {:.1}%, forward {:.1}%, \
         other {:.1}%",
        rows.len(),
        total / rows.len() as f64,
        100.0 * asm_graph / total,
        100.0 * sum(|r| r.forward) / total,
        100.0 * (1.0 - (asm_graph + sum(|r| r.forward)) / total)
    );
}
