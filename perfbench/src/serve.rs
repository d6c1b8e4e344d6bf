//! `serve-warm`: top-K recommendation over a resident ~20k-paper graph
//! with an untrained model (serving cost does not depend on the weights).
//!
//! After the cold cache build, an open loop submits seeded Poisson
//! arrivals at one fixed rate through the bounded admission queue
//! (`submit` / `drain`); about one request in eight is an inductive
//! `cold_start`. A closed loop of fixed-size `recommend_batch_resident`
//! calls then measures throughput. Training does not run and the cache is
//! built once.

use crate::api::{self, CateHgn, Dataset, NodeId, Ranking, Tensor};
use crate::check::{self, Oracle};
use crate::clock::Stopwatch;
use crate::stats::{self, Latencies};
use crate::{churn, timed_setup, train, Ctx, Part, Scale};
use rand::Rng;
use std::collections::BTreeSet;

/// Papers in the serve-warm world; every paper is a candidate. (At 20k
/// papers the cold build and its oracle alone cost 21 CPU-seconds per run
/// on one tensor thread.)
const PAPERS: usize = 10_000;
const SMOKE_PAPERS: usize = 400;

/// Recommendations per request.
pub const K: usize = 10;

/// Admission queue bound; the offered rate keeps the queue far below it.
const CAPACITY: usize = 256;

/// Open-loop arrival rate (requests per second), fixed for every run: about
/// half of what one engine sustains with single-query drains, so queues
/// stay short and the tail reflects service time, not a growing backlog.
const RATE: f64 = 60.0;

/// Share of the measured time given to the open loop; the closed loop
/// gets the rest.
const OPEN_SHARE: f64 = 0.75;

/// Open-loop requests at least: enough for ten samples beyond the 99th
/// percentile.
const MIN_OPEN: usize = 1000;

/// One request in this many is an inductive cold start.
const COLD_EVERY: u32 = 8;

/// Alternating open-/closed-loop segments of the measured phase.
const SEGMENTS: usize = 4;

/// Cold cache builds per run, after one unmeasured build that also pays
/// the allocator's first page faults (it took 10% to 20% longer than the
/// builds after it).
const COLD_BUILDS: usize = 3;

/// Queries per closed-loop batch.
const BATCH: usize = 16;

/// Every this many open-loop requests, the answer is checked bitwise
/// against the oracle.
const ORACLE_EVERY: usize = 16;

/// Probe sizes, used when another workload's traced run reports this
/// phase's layers on its own data.
const PROBE_OPEN: usize = 200;
const PROBE_BATCHES: usize = 20;

/// Stage replays of a warm request in the traced run.
const STAGE_REPS: usize = 40;
const PROBE_STAGE_REPS: usize = 10;

pub fn workload(ctx: &mut Ctx) -> Result<(), String> {
    let papers = match ctx.scale {
        Scale::Bench => PAPERS,
        Scale::Smoke => SMOKE_PAPERS,
    };
    let world = api::scale_world(papers);
    let cfg = train::model_config(ctx.scale);
    let engine_seed = ctx.stream_seed(21);
    let (ds, model) = timed_setup(ctx, |_| {
        let ds = api::scale_dataset(&world)?;
        let model = api::new_model(cfg.clone(), &ds);
        let mut eng = api::engine(&model, engine_seed, CAPACITY);
        api::install(&mut eng, ds.graph.clone(), ds.features.clone())?;
        drop(eng);
        Ok((ds, model))
    })?;
    if ctx.traced() {
        crate::data_layers(ctx, &world, api::scale_dataset, &ds)?;
        phase(ctx, &model, &ds, Part::Main)?;
        train::replay(ctx, &ds, Part::Probe)?;
        return churn::phase(ctx, &model, &ds, Part::Probe);
    }
    phase(ctx, &model, &ds, Part::Main)
}

enum Kind {
    Transductive(NodeId),
    Cold { paper: NodeId, row: Vec<f32> },
}

struct Request {
    due_s: f64,
    kind: Kind,
}

/// The seeded open-loop schedule: Poisson arrivals, random candidate
/// queries, and cold starts described by a perturbed copy of a paper's
/// feature row (a paper the graph has not seen).
fn schedule(
    n: usize,
    candidates: &[NodeId],
    ds: &Dataset,
    rng: &mut api::ChaCha8Rng,
) -> Vec<Request> {
    let arrivals = stats::poisson_arrivals(n, RATE, rng);
    arrivals
        .into_iter()
        .map(|due_s| {
            let node = candidates[rng.gen_range(0..candidates.len())];
            let kind = if rng.gen_range(0..COLD_EVERY) == 0 {
                let row = ds
                    .features
                    .row(node.index())
                    .iter()
                    .map(|&x| x * rng.gen_range(0.9f32..1.1))
                    .collect();
                Kind::Cold { paper: node, row }
            } else {
                Kind::Transductive(node)
            };
            Request { due_s, kind }
        })
        .collect()
}

/// What the benchmark saw, to reconcile with `ServeStats`.
#[derive(Default)]
struct Seen {
    answered: u64,
    shed: u64,
    errors: u64,
}

/// Runs the serving phase on `ds` with `model`: cold build, open loop,
/// closed loop, oracle and stats checks; in a traced run also the stage
/// replay of a warm request.
pub fn phase(ctx: &mut Ctx, model: &CateHgn, ds: &Dataset, part: Part) -> Result<(), String> {
    let candidates: Vec<NodeId> = ds.paper_nodes.clone();
    let cand_set: BTreeSet<NodeId> = candidates.iter().copied().collect();
    let engine_seed = ctx.stream_seed(21);
    let mut rng = api::rng(ctx.stream_seed(22));
    let mut sampled: Vec<(Kind, Ranking)> = Vec::new();

    // Cold: on a fresh engine the first request builds the embedding
    // cache. Measured on several engines after the warm-up ones; `ready_s`
    // is the median, and the last engine serves the rest of the phase.
    let (warmups, builds) = if (part, ctx.scale) == (Part::Main, Scale::Bench) {
        (1, 1 + COLD_BUILDS)
    } else {
        (0, 1)
    };
    let mut cold_s = Vec::with_capacity(builds);
    let mut last = None;
    for b in 0..builds {
        let mut eng = api::engine(model, engine_seed, CAPACITY);
        api::install(&mut eng, ds.graph.clone(), ds.features.clone())?;
        let q0 = candidates[rng.gen_range(0..candidates.len())];
        let t = Stopwatch::model();
        let open = ctx.tracer.begin("core.serve.cold_build", b as u64);
        let first = api::recommend_resident(&mut eng, &candidates, &[q0], K);
        ctx.tracer.end(open);
        cold_s.push(t.secs());
        let mut r = ctx
            .attempt("cold request", 1, first)
            .ok_or("cold request failed")?;
        sampled.push((Kind::Transductive(q0), r.remove(0)));
        last = Some(eng);
    }
    let mut eng = last.ok_or("no engine was built")?;
    let mut seen = Seen {
        answered: 1,
        ..Seen::default()
    };

    // Open loop.
    let n_open = match (part, ctx.scale) {
        (Part::Main, Scale::Bench) => {
            ((RATE * ctx.seconds * OPEN_SHARE).round() as usize).max(MIN_OPEN)
        }
        _ => PROBE_OPEN,
    };
    let reqs = schedule(n_open, &candidates, ds, &mut rng);
    let mut lat = Latencies::default();
    let mut queue_wait = Latencies::default();
    let mut gen_late = Latencies::default();
    let mut batch_sizes = Latencies::default();
    let mut cold_ms = Latencies::default();
    let mut batch_ms = Latencies::default();
    let mut closed_answered = 0u64;
    let mut closed_s = 0.0;
    let mut batches = 0usize;
    // The measured phase alternates open- and closed-loop segments, so
    // both sample the same stretches of host time.
    let (segments, closed_budget, min_batches) = match (part, ctx.scale) {
        (Part::Main, Scale::Bench) => (
            SEGMENTS,
            ctx.seconds * (1.0 - OPEN_SHARE) / SEGMENTS as f64,
            1,
        ),
        _ => (1, 0.0, PROBE_BATCHES),
    };
    'segments: for seg in 0..segments {
        let (lo, hi) = (
            seg * reqs.len() / segments,
            (seg + 1) * reqs.len() / segments,
        );
        // The open loop runs on a virtual clock: it jumps to the next due
        // time when the server is idle and advances by the measured CPU
        // time of every engine call, so waiting in the queue is exactly the
        // service time of the requests ahead.
        let mut now = reqs.get(lo).map_or(0.0, |r| r.due_s);
        let mut next = lo;
        while next < hi {
            now = now.max(reqs[next].due_s);
            // Admit everything that is due.
            let mut admitted = Vec::new();
            let mut colds = Vec::new();
            while next < hi && reqs[next].due_s <= now {
                gen_late.push((now - reqs[next].due_s) * 1e3);
                match &reqs[next].kind {
                    Kind::Transductive(q) => {
                        let t = Stopwatch::start();
                        let open = ctx.tracer.begin("core.serve.submit", next as u64);
                        let res = api::submit(&mut eng, *q);
                        ctx.tracer.end(open);
                        now += t.secs();
                        if ctx.attempt("submit", 1, res).is_some() {
                            admitted.push(next);
                        } else {
                            seen.shed += 1;
                            seen.errors += 1;
                        }
                    }
                    Kind::Cold { .. } => colds.push(next),
                }
                next += 1;
            }
            if !admitted.is_empty() {
                let begin = now;
                let t = Stopwatch::start();
                let open = ctx.tracer.begin("core.serve.drain", admitted[0] as u64);
                let res = api::drain(&mut eng, ds, &candidates, K);
                ctx.tracer.end(open);
                now += t.secs();
                batch_sizes.push(admitted.len() as f64);
                match res {
                    Ok(answers) => {
                        for (&i, (q, rec)) in admitted.iter().zip(answers) {
                            lat.push((now - reqs[i].due_s) * 1e3);
                            queue_wait.push((begin - reqs[i].due_s) * 1e3);
                            seen.answered += 1;
                            ctx.checks
                                .record("ranking", check::ranking(&rec, Some(q), &cand_set, K));
                            if i.is_multiple_of(ORACLE_EVERY) {
                                sampled.push((Kind::Transductive(q), rec));
                            }
                        }
                    }
                    Err(e) => {
                        // A drain failure leaves the batch queued: every
                        // admitted request failed, and the run is already
                        // incorrect, so stop.
                        ctx.failed += admitted.len() as u64;
                        seen.errors += 1;
                        ctx.checks.record("drain", Err(e));
                        break 'segments;
                    }
                }
            }
            for i in colds {
                let Kind::Cold { paper, row } = &reqs[i].kind else {
                    continue;
                };
                let node_type = api::node_type(&ds.graph, *paper);
                let begin = now;
                let t = Stopwatch::start();
                let open = ctx.tracer.begin("core.serve.cold_start", i as u64);
                let res = api::cold_start(&mut eng, ds, &candidates, node_type, row, K);
                ctx.tracer.end(open);
                now += t.secs();
                if let Some(rec) = ctx.attempt("cold_start", 1, res) {
                    lat.push((now - reqs[i].due_s) * 1e3);
                    queue_wait.push((begin - reqs[i].due_s) * 1e3);
                    cold_ms.push((now - begin) * 1e3);
                    seen.answered += 1;
                    ctx.checks
                        .record("ranking", check::ranking(&rec, None, &cand_set, K));
                    if i.is_multiple_of(ORACLE_EVERY) {
                        sampled.push((
                            Kind::Cold {
                                paper: *paper,
                                row: row.clone(),
                            },
                            rec,
                        ));
                    }
                } else {
                    seen.errors += 1;
                }
            }
        }

        // Closed loop: one client, fixed-size batches back to back.
        let t_closed = Stopwatch::start();
        let mut seg_batches = 0usize;
        while seg_batches < min_batches || t_closed.secs() < closed_budget {
            let queries: Vec<NodeId> = (0..BATCH)
                .map(|_| candidates[rng.gen_range(0..candidates.len())])
                .collect();
            let t = Stopwatch::start();
            let open = ctx.tracer.begin("core.serve.batch", batches as u64);
            let res = api::recommend_resident(&mut eng, &candidates, &queries, K);
            ctx.tracer.end(open);
            batch_ms.push(t.ms());
            closed_s += t.secs();
            let Some(recs) = ctx.attempt("recommend batch", BATCH as u64, res) else {
                seen.errors += 1;
                break 'segments;
            };
            closed_answered += queries.len() as u64;
            for (i, (q, rec)) in queries.iter().zip(recs).enumerate() {
                ctx.checks
                    .record("ranking", check::ranking(&rec, Some(*q), &cand_set, K));
                if batches == 0 && i == 0 {
                    sampled.push((Kind::Transductive(*q), rec));
                }
            }
            batches += 1;
            seg_batches += 1;
        }
    }
    seen.answered += closed_answered;

    // Oracle: a fresh `CateHgn::embed` with the engine seed.
    let open = ctx.tracer.begin("core.serve.embed", 0);
    let t = Stopwatch::start();
    let emb = api::embed_last(model, &ds.graph, &ds.features, &candidates, engine_seed);
    let embed_ms = t.ms();
    ctx.tracer.end(open);
    let oracle = Oracle { candidates, emb };
    for (kind, got) in &sampled {
        let want = match kind {
            Kind::Transductive(q) => oracle.transductive(*q, K),
            Kind::Cold { paper, row } => {
                let h0 = api::cold_embed(model, api::node_type(&ds.graph, *paper), row);
                Ok(oracle.cold(&h0, K))
            }
        };
        ctx.checks
            .record("oracle", want.and_then(|w| check::same_bits(got, &w)));
    }
    ctx.note("serve_oracle_checked", sampled.len());

    // The engine's counters against the benchmark's own.
    let s = api::serve_stats(&eng);
    let stats_ok = s.queries == seen.answered
        && s.cache_rebuilds == 1
        && s.cache_hits == seen.answered.saturating_sub(1)
        && s.shed == seen.shed
        && s.errors == seen.errors
        && s.reload_failures == 0
        && s.degraded_queries == 0;
    ctx.checks.require("serve stats reconcile", stats_ok, || {
        format!(
            "{s:?} vs answered {}, shed {}, errors {}",
            seen.answered, seen.shed, seen.errors
        )
    });

    if part == Part::Main {
        ctx.e2e.insert("ready_s", stats::median(&cold_s[warmups..]));
        ctx.note("cold_s", format!("{cold_s:?}"));
        ctx.e2e.insert("p50_ms", lat.median());
        let (p, tail) = lat.tail();
        ctx.e2e.insert("p99_ms", tail);
        ctx.e2e.insert("qps", closed_answered as f64 / closed_s);
        ctx.note("open_loop_samples", lat.len());
        ctx.note("open_loop_tail_percentile", p);
        ctx.note("open_loop_rate", RATE);
        ctx.note("closed_batches", batches);
        ctx.note("candidates", oracle.candidates.len());
    }
    if ctx.traced() {
        let reps = if part == Part::Main {
            STAGE_REPS
        } else {
            PROBE_STAGE_REPS
        };
        stage_replay(ctx, &mut eng, &oracle, ds, reps);
        ctx.layers
            .insert("core.serve.batch_size.p50", batch_sizes.at(50.0));
        ctx.layers
            .insert("core.serve.batch_size.p99", batch_sizes.at(99.0));
        ctx.layers
            .insert("core.serve.queue_wait.ms.p99", queue_wait.at(99.0));
        ctx.layers
            .insert("core.serve.cold_start.ms", cold_ms.median());
        ctx.layers
            .insert("bench.gen_late.ms.p99", gen_late.at(99.0));
        ctx.layers.insert(
            "core.serve.embed.us_per_candidate",
            embed_ms * 1e3 / oracle.candidates.len() as f64,
        );
        ctx.note("serve_batch_ms_p50", batch_ms.median());
    }
    Ok(())
}

/// Replays the stages of a warm batch of `BATCH` queries from the public
/// functions it is built on, next to the engine's own call for the same
/// queries: the cache-hit check (FNV-1a over the features, finiteness,
/// stamp), the score scan (`matmul_tb`), and top-K selection (a full sort
/// under `rank_desc`). What the engine spends beyond the three is
/// reported as unattributed (the `contains` / `position` scans).
fn stage_replay(
    ctx: &mut Ctx,
    eng: &mut api::ServeEngine<'_>,
    oracle: &Oracle,
    ds: &Dataset,
    reps: usize,
) {
    let mut rng = api::rng(ctx.stream_seed(23));
    let n = oracle.candidates.len();
    let d = oracle.emb.cols();
    let (mut validate, mut scan, mut select, mut request) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..reps {
        let rows: Vec<usize> = (0..BATCH).map(|_| rng.gen_range(0..n)).collect();
        let queries: Vec<NodeId> = rows.iter().map(|&i| oracle.candidates[i]).collect();

        let t = Stopwatch::start();
        let res = ctx.tracer.span("core.serve.request", r as u64, || {
            api::recommend_resident(eng, &oracle.candidates, &queries, K)
        });
        request.push(t.ms());
        ctx.attempt("recommend batch", BATCH as u64, res);

        let t = Stopwatch::start();
        let v = ctx.tracer.span("core.serve.validate", r as u64, || {
            api::validate_replay(&ds.graph, &ds.features)
        });
        validate.push(t.ms());
        std::hint::black_box(v);

        let mut qm = Tensor::zeros(BATCH, d);
        for (i, &row) in rows.iter().enumerate() {
            qm.set_row(i, oracle.emb.row(row));
        }
        let t = Stopwatch::start();
        let scores = ctx.tracer.span("tensor.matmul_tb.scan", r as u64, || {
            api::matmul_tb(&qm, &oracle.emb)
        });
        scan.push(t.ms());

        let t = Stopwatch::start();
        let top = ctx.tracer.span("core.serve.select", r as u64, || {
            queries
                .iter()
                .enumerate()
                .map(|(i, &q)| {
                    let mut all: Ranking = scores
                        .row(i)
                        .iter()
                        .zip(&oracle.candidates)
                        .filter(|(_, &c)| c != q)
                        .map(|(&score, &node)| api::Recommendation { node, score })
                        .collect();
                    all.sort_by(api::rank_desc);
                    all.truncate(K);
                    all
                })
                .collect::<Vec<_>>()
        });
        select.push(t.ms());
        std::hint::black_box(top);
    }
    let (v, s, p, q) = (
        stats::median(&validate),
        stats::median(&scan),
        stats::median(&select),
        stats::median(&request),
    );
    ctx.layers.insert("core.serve.validate.ms", v);
    ctx.layers.insert("tensor.matmul_tb.scan.ms", s);
    ctx.layers.insert("core.serve.select.ms", p);
    ctx.layers
        .insert("core.serve.request_unattributed.ms", q - v - s - p);
    ctx.note("stage_replay_batch", BATCH);
}
