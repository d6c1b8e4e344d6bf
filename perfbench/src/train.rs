//! `train-full`: the Table II protocol on the DBLP-full world. Train
//! CATE-HGN for a fixed number of Algorithm 1 rounds with `train_with`,
//! predict the test split once (test RMSE against the mean predictor),
//! then answer one impact query per test paper.
//!
//! The traced run replays Algorithm 1's steps from the public functions
//! instead (see [`replay`]) so that each stage gets its own span.

use crate::api::{self, CateHgn, Dataset, ForwardOut, Graph, ModelConfig, Tensor};
use crate::clock::Stopwatch;
use crate::stats::{self, Latencies};
use crate::trace::Tracer;
use crate::{churn, serve, timed_setup, Ctx, Part, Scale};

/// Outer rounds of Algorithm 1 per run. After one round best-on-validation
/// selection can still hold the warm-started mean-predictor head, which
/// would make the RMSE check vacuous; two rounds beat the floor on every
/// world seed tried.
const ROUNDS: usize = 2;

/// Trainings per run.
const TRAININGS: usize = 3;

/// Passes over the test papers' impact queries. A paper's latency is the
/// median of its passes, so a burst of host slowness shorter than the time
/// between two speed measurements lands in one pass, not in the tail.
const QUERY_PASSES: usize = 3;

/// Every this many impact queries, the tape-free answer is compared
/// bitwise with `predict_taped`.
const ORACLE_EVERY: usize = 64;

/// Replayed HGN steps when the replay is another workload's probe.
const PROBE_STEPS: usize = 4;

/// Test papers predicted by a probe replay (the full split on the 20k-paper
/// world would take longer than the rest of the probe together).
const PROBE_PREDICT_PAPERS: usize = 256;

/// The model every workload builds: the Table II configuration with its
/// own seed. The run's seed varies prediction draws, queries and serving
/// traffic, not the trained model, so the RMSE check is one fixed gate.
pub fn model_config(scale: Scale) -> ModelConfig {
    match scale {
        Scale::Bench => api::table2_config(ROUNDS),
        Scale::Smoke => api::smoke_config(),
    }
}

pub fn workload(ctx: &mut Ctx) -> Result<(), String> {
    let (world, build) = match ctx.scale {
        Scale::Bench => (api::full_world(), api::full_dataset as crate::Builder),
        Scale::Smoke => (api::tiny_world(), api::tiny_dataset as crate::Builder),
    };
    let cfg = model_config(ctx.scale);
    let (ds, model) = timed_setup(ctx, |_| {
        let ds = build(&world)?;
        let model = api::new_model(cfg.clone(), &ds);
        Ok((ds, model))
    })?;
    if ctx.traced() {
        crate::data_layers(ctx, &world, build, &ds)?;
        replay(ctx, &ds, Part::Main)?;
        serve::phase(ctx, &model, &ds, Part::Probe)?;
        return churn::phase(ctx, &model, &ds, Part::Probe);
    }

    // Identical trainings; `ready_s` is their median, which one slow
    // stretch of host time cannot move, and each must reproduce the first.
    let mut train_s = Vec::with_capacity(TRAININGS);
    let mut first = None;
    for _ in 0..TRAININGS {
        let (mut d, mut m) = (ds.clone(), model.clone());
        let t = Stopwatch::model();
        let report = ctx.attempt("train_with", 1, api::train(&mut m, &mut d));
        train_s.push(t.secs());
        let Some(report) = report else {
            return Ok(());
        };
        match &first {
            None => first = Some((report, m, d)),
            Some((r0, _, _)) => {
                ctx.checks
                    .require("retraining reproduces the report", &report == r0, || {
                        format!("{:?} vs {:?}", report.val_rmse, r0.val_rmse)
                    })
            }
        }
    }
    ctx.e2e.insert("ready_s", stats::median(&train_s));
    ctx.note("train_s", format!("{train_s:?}"));
    let (report, model, ds) = first.ok_or("no training ran")?;
    ctx.checks
        .require("no skipped batches", report.skipped == 0, || {
            format!("{} batches skipped", report.skipped)
        });
    ctx.checks
        .require("no rollbacks", report.rollbacks == 0, || {
            format!("{} rollbacks", report.rollbacks)
        });
    ctx.note("val_rmse", format!("{:?}", report.val_rmse));

    let predict_seed = ctx.stream_seed(6);
    let test = api::test_papers(&ds);
    table2_eval(ctx, &model, &ds, &test, predict_seed);

    // One closed-loop client asking for one paper's impact at a time, in
    // several passes over the test papers.
    let passes = match ctx.scale {
        Scale::Bench => QUERY_PASSES,
        Scale::Smoke => 2,
    };
    let mut per_paper = vec![Vec::with_capacity(passes); test.len()];
    let mut answers = Vec::with_capacity(test.len());
    let mut busy_ms = 0.0;
    for pass in 0..passes {
        for (i, &p) in test.iter().enumerate() {
            let t = Stopwatch::model();
            let y = api::predict(&model, &ds, &[p], predict_seed);
            let ms = t.ms();
            per_paper[i].push(ms);
            busy_ms += ms;
            if pass == 0 {
                answers.push(y);
            } else {
                let same = y.len() == answers[i].len()
                    && y.iter()
                        .zip(&answers[i])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    ctx.failed += 1;
                }
                ctx.checks.require(
                    "a repeated impact query gives the same answer",
                    same,
                    || format!("paper {}: {y:?} vs {:?}", p.0, answers[i]),
                );
            }
        }
    }
    let lat = Latencies(per_paper.iter().map(|v| stats::median(v)).collect());
    ctx.attempted += ((passes - 1) * test.len()) as u64;
    ctx.attempted += test.len() as u64;
    for (i, (&p, y)) in test.iter().zip(&answers).enumerate() {
        let finite = y.len() == 1 && y[0].is_finite();
        if !finite {
            ctx.failed += 1;
        }
        ctx.checks
            .require("impact answer", finite, || format!("paper {}: {y:?}", p.0));
        if i.is_multiple_of(ORACLE_EVERY) {
            let taped = api::predict_taped(&model, &ds, &[p], predict_seed);
            let same = taped.len() == y.len()
                && taped.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits());
            ctx.checks
                .require("impact answer matches the taped path", same, || {
                    format!("paper {}: {y:?} vs taped {taped:?}", p.0)
                });
        }
    }
    ctx.e2e.insert("p50_ms", lat.median());
    let (p, tail) = lat.tail();
    ctx.e2e.insert("p99_ms", tail);
    ctx.e2e
        .insert("qps", 1e3 * (passes * test.len()) as f64 / busy_ms);
    ctx.note("latency_samples", lat.len());
    ctx.note("query_passes", passes);
    ctx.note("tail_percentile", p);
    Ok(())
}

/// Table II: one prediction over the test split, whose RMSE must beat the
/// mean predictor.
fn table2_eval(ctx: &mut Ctx, model: &CateHgn, ds: &Dataset, test: &[api::NodeId], seed: u64) {
    let t = Stopwatch::model();
    let preds = api::predict(model, ds, test, seed);
    ctx.attempted += 1;
    let eval_s = t.secs();
    let test_rmse = api::rmse(&preds, &api::test_labels(ds));
    let floor = api::mean_predictor_rmse(ds);
    ctx.checks.require(
        "test RMSE beats the mean predictor",
        test_rmse.is_finite() && test_rmse < floor,
        || format!("test RMSE {test_rmse} vs mean predictor {floor}"),
    );
    ctx.note("eval_s", eval_s);
    ctx.note("test_rmse", test_rmse);
    ctx.note("mean_predictor_rmse", floor);
}

/// Replays Algorithm 1 from the public functions on a copy of `ds`: TE
/// initialisation, HGN steps run twice from identical state (untraced, then
/// traced, which gives the tracing overhead), one CA round, one TE round,
/// then a prediction pass repeated to exercise the sampling cache.
pub fn replay(ctx: &mut Ctx, ds0: &Dataset, part: Part) -> Result<(), String> {
    let cfg = model_config(ctx.scale);
    let steps = match part {
        Part::Main => cfg.mini_iters,
        Part::Probe => PROBE_STEPS.min(cfg.mini_iters),
    };
    let mut ds = ds0.clone();
    let model0 = api::new_model(cfg.clone(), &ds);
    // `train_with`: TE initialisation (Algorithm 1, line 1).
    let mut te = ctx
        .tracer
        .span("core.te.init", 0, || api::te_init(&model0, &mut ds));
    let step_seed = ctx.stream_seed(11);

    let mut model = model0.clone();
    let untraced = hgn_steps(&mut Tracer::new(false), &mut model, &ds, steps, step_seed)?;
    let mut model = model0.clone();
    let traced = hgn_steps(&mut ctx.tracer, &mut model, &ds, steps, step_seed)?;
    ctx.attempted += 2 * steps as u64;
    ctx.checks.require(
        "replayed steps do not depend on tracing",
        untraced
            .losses
            .iter()
            .map(|v| v.to_bits())
            .eq(traced.losses.iter().map(|v| v.to_bits())),
        || format!("{:?} vs {:?}", untraced.losses, traced.losses),
    );
    ctx.checks.require(
        "replayed step matches the program's loss",
        traced.reference_loss.to_bits() == traced.losses[0].to_bits(),
        || {
            format!(
                "replay {} vs program {}",
                traced.losses[0], traced.reference_loss
            )
        },
    );
    ctx.layers.insert(
        "bench.trace_overhead_frac",
        (traced.cpu_ms - untraced.cpu_ms) / untraced.cpu_ms,
    );
    step_layers(ctx);

    // `train_with`: CA center updates (Algorithm 1, line 10).
    let mut rng = api::rng(ctx.stream_seed(12));
    let mut g = Graph::new();
    let mut ca_opt = api::adam(&model);
    let open = ctx.tracer.begin("core.ca", 0);
    let mut landed = 0;
    for _ in 0..cfg.ca_iters {
        landed += usize::from(api::ca_iteration(
            &mut g,
            &mut model,
            &mut ca_opt,
            &ds,
            &mut rng,
        ));
    }
    ctx.tracer.end(open);
    ctx.attempted += cfg.ca_iters as u64;
    ctx.checks
        .require("CA steps land", landed == cfg.ca_iters, || {
            format!("{landed} of {} CA steps landed", cfg.ca_iters)
        });
    ctx.layers
        .insert("core.ca.ms_per_round", last_ms(&ctx.tracer, "core.ca"));

    // `train_with`: TE refinement (Algorithm 1, line 11).
    let active = ctx
        .tracer
        .span("core.te", 0, || api::te_round(&model, &mut ds, &mut te));
    ctx.attempted += 1;
    ctx.checks.require("TE has active terms", active > 0, || {
        "no active terms".into()
    });
    ctx.layers
        .insert("core.te.ms_per_round", last_ms(&ctx.tracer, "core.te"));

    // Prediction, twice: the second pass replays cached neighbourhoods.
    let mut papers = api::test_papers(&ds);
    if part == Part::Probe {
        papers.truncate(PROBE_PREDICT_PAPERS);
    }
    let predict_seed = ctx.stream_seed(6);
    let (h0, m0) = api::blockcache_stats(&model);
    let first = ctx.tracer.span("core.predict", 0, || {
        api::predict(&model, &ds, &papers, predict_seed)
    });
    let again = api::predict(&model, &ds, &papers, predict_seed);
    let (h1, m1) = api::blockcache_stats(&model);
    ctx.attempted += 2;
    ctx.checks.require(
        "cached prediction is bitwise stable",
        first
            .iter()
            .map(|v| v.to_bits())
            .eq(again.iter().map(|v| v.to_bits()))
            && first.iter().all(|v| v.is_finite()),
        || "second prediction pass differs or is not finite".into(),
    );
    ctx.layers.insert(
        "core.predict.ms_per_paper",
        last_ms(&ctx.tracer, "core.predict") / papers.len() as f64,
    );
    let (hits, misses) = (h1 - h0, m1 - m0);
    ctx.layers.insert(
        "hetgraph.blockcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    kernel_layers(ctx, &cfg, traced.edges, traced.frontier);
    Ok(())
}

fn last_ms(tr: &Tracer, name: &str) -> f64 {
    tr.durations(name).last().copied().unwrap_or(0.0)
}

struct StepRun {
    cpu_ms: f64,
    losses: Vec<f32>,
    /// The program's own loss for the first batch.
    reference_loss: f32,
    /// Sampled edges and deepest frontier of the last step (kernel shapes).
    edges: usize,
    frontier: usize,
}

/// `steps` serial HGN steps, each stage in its own span under one
/// `train.step` span per step.
fn hgn_steps(
    tr: &mut Tracer,
    model: &mut CateHgn,
    ds: &Dataset,
    steps: usize,
    seed: u64,
) -> Result<StepRun, String> {
    let cfg = model.cfg.clone();
    let mut rng = api::rng(seed);
    let mut opt = api::adam(model);
    let mut g = Graph::new();
    let mut run = StepRun {
        cpu_ms: 0.0,
        losses: Vec::with_capacity(steps),
        reference_loss: f32::NAN,
        edges: 0,
        frontier: 0,
    };
    let t = Stopwatch::start();
    for step in 0..steps {
        let req = step as u64;
        let root = tr.begin("train.step", req);
        let (seeds, labels) = api::draw_batch(ds, cfg.batch_size, &mut rng);
        let blocks = tr.span("hetgraph.sample_blocks", req, || {
            api::sample_blocks(ds, &seeds, &cfg, &mut rng)
        });
        let labels = api::dedup_labels(&seeds, &blocks, &labels);
        if step == 0 {
            // Untimed reference: the program's own forward and loss on the
            // same batch and the same MI draws.
            let pause = Stopwatch::start();
            run.reference_loss = api::program_loss(model, ds, &blocks, &labels, rng.clone());
            run.cpu_ms -= pause.ms();
        }
        g.reset();
        let fw = forward(tr, &mut g, model, ds, &blocks, req);
        let sup = tr.span("core.loss", req, || {
            api::supervised_loss(&mut g, model, &fw, &labels)
        });
        let loss = tr.span("core.mi", req, || {
            api::mi_loss(&mut g, model, &fw, &blocks, sup, &mut rng)
        });
        let value = api::loss_value(&g, loss);
        if !value.is_finite() {
            return Err(format!("replayed step {step}: loss {value}"));
        }
        tr.span("tensor.backward", req, || api::backward(&mut g, loss));
        let landed = tr.span("tensor.optim", req, || {
            api::optim_step(&mut opt, model, &mut g)
        });
        tr.end(root);
        if !landed {
            return Err(format!("replayed step {step}: non-finite gradient"));
        }
        run.losses.push(value);
        run.edges = blocks.iter().map(|b| b.num_edges()).sum();
        run.frontier = blocks.last().map_or(0, |b| b.src_nodes.len());
    }
    run.cpu_ms += t.ms();
    Ok(run)
}

/// `CateHgn::forward` with the HGN-phase centers bound as constants,
/// replayed stage by stage.
fn forward(
    tr: &mut Tracer,
    g: &mut Graph,
    model: &CateHgn,
    ds: &Dataset,
    blocks: &[api::Block],
    req: u64,
) -> ForwardOut {
    let (h0, mut h_edges) = tr.span("core.encoder", req, || api::encode(g, model, ds, blocks));
    let n_layers = blocks.len();
    let mut out = ForwardOut {
        h0,
        h_layers: Vec::with_capacity(n_layers),
        h_masked: Vec::with_capacity(n_layers),
        q_layers: Vec::new(),
        transitions: Vec::with_capacity(n_layers),
    };
    let (mut h_cur, mut src_for_mi) = (h0, h0);
    for l in 1..=n_layers {
        let (h_next, e_next) = tr.span("core.layer", req, || {
            api::layer(g, model, blocks, l, h_cur, &h_edges)
        });
        out.transitions.push((n_layers - l, src_for_mi));
        h_edges = e_next;
        let (hm, q) = tr.span("core.ca.mask", req, || {
            api::cluster_mask(g, model, l, h_next)
        });
        out.q_layers.extend(q);
        out.h_layers.push(h_next);
        out.h_masked.push(hm);
        h_cur = h_next;
        src_for_mi = hm;
    }
    out
}

/// Per-step self times of the step's stages (median over steps) and the
/// share of step time outside every stage span.
fn step_layers(ctx: &mut Ctx) {
    let tr = &ctx.tracer;
    let own = tr.self_ms();
    let roots = tr.named("train.step");
    let stages = [
        ("hetgraph.sample_blocks", "hetgraph.sample_blocks.ms"),
        ("core.encoder", "core.encoder.ms"),
        ("core.layer", "core.layer.ms"),
        ("core.mi", "core.mi.ms"),
        ("tensor.backward", "tensor.backward.ms"),
        ("tensor.optim", "tensor.optim.ms"),
    ];
    for (span, metric) in stages {
        let per_step: Vec<f64> = roots
            .iter()
            .map(|&r| tr.self_ms_under(&own, r, span))
            .collect();
        ctx.layers.insert(metric, stats::median(&per_step));
    }
    let outside: f64 = roots.iter().map(|&r| own[r]).sum();
    let total: f64 = roots.iter().map(|&r| tr.spans()[r].ms()).sum();
    ctx.layers
        .insert("train.unattributed_frac", outside / total);
}

/// GFLOP/s of circular correlation and matmul at the replayed step's
/// shapes. Operation counts are computed from the shapes (2 flops per
/// multiply-add: `2 d^2` per correlated pair, `2 m k n` per product), not
/// counted by the kernels.
fn kernel_layers(ctx: &mut Ctx, cfg: &ModelConfig, edges: usize, frontier: usize) {
    let d = cfg.dim;
    let mut rng = api::rng(ctx.stream_seed(13));
    let mut fill = |n: usize| -> Vec<f32> {
        use rand::Rng;
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    };
    let pairs = edges.max(1);
    let (a, b) = (fill(pairs * d), fill(pairs * d));
    let mut out = vec![0.0f32; d];
    let mut win = vec![0.0f32; 2 * d - 1];
    let mut sink = 0.0f32;
    let corr = time_kernel(&mut ctx.tracer, "tensor.circcorr", || {
        for (x, y) in a.chunks_exact(d).zip(b.chunks_exact(d)) {
            api::circular_correlation(x, y, &mut win, &mut out);
            sink += out[0];
        }
    });
    let flops = 2.0 * (d * d * pairs) as f64;
    ctx.layers
        .insert("tensor.circcorr.gflops", flops / corr / 1e6);

    let m = frontier.max(1);
    let x = Tensor::from_vec(m, d, fill(m * d));
    let w = Tensor::from_vec(d, d, fill(d * d));
    let mm = time_kernel(&mut ctx.tracer, "tensor.matmul", || {
        let y = api::matmul(&x, &w);
        sink += y.as_slice()[0];
    });
    let flops = 2.0 * (m * d * d) as f64;
    ctx.layers.insert("tensor.matmul.gflops", flops / mm / 1e6);
    ctx.note(
        "kernel_shapes",
        format!("circcorr {pairs} pairs x d={d}; matmul {m}x{d} * {d}x{d}"),
    );
    std::hint::black_box(sink);
}

/// Median milliseconds of one call of `f`, over rounds sized to about
/// 2 ms each.
fn time_kernel(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let t = Stopwatch::start();
    f();
    let once = t.secs().max(1e-7);
    let reps = ((2e-3 / once) as usize).clamp(1, 100_000);
    let mut per_call = Vec::with_capacity(15);
    for _ in 0..15 {
        let open = tr.begin(name, 0);
        let t = Stopwatch::start();
        for _ in 0..reps {
            f();
        }
        per_call.push(t.ms() / reps as f64);
        tr.end(open);
    }
    stats::median(&per_call)
}
