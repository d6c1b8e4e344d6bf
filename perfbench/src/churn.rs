//! `serve-churn`: the serving layer under writes. The DBLP-full graph is
//! stored as several shard generations that differ by TE-style paper-term
//! relinks; one closed-loop client cycles through them, swapping the
//! resident graph (`reload_resident`, which invalidates the embedding
//! cache) and then sending a fixed number of query batches.

use crate::api::{self, CateHgn, Dataset, NodeId, ShardStore};
use crate::check::{self, Oracle};
use crate::clock::Stopwatch;
use crate::serve::K;
use crate::stats::{self, Latencies};
use crate::{serve, timed_setup, train, Ctx, Part, Scale};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Shard generations written at set-up.
const GENERATIONS: usize = 4;

/// Query batches after each generation swap. With this many, the batches
/// that pay for a cache rebuild stay under 1% of the samples, so the tail
/// percentile reports warm-batch latency and `ready_s` the rebuilds.
const BATCHES_PER_GEN: usize = 200;

/// Queries per batch.
const BATCH: usize = 8;

/// Admission bound; batches never come near it.
const CAPACITY: usize = 64;

/// Probe sizes, and the candidate cap that keeps a probe's cache rebuilds
/// cheap on the 20k-paper world.
const PROBE_GENERATIONS: usize = 2;
const PROBE_RELOADS: usize = 2;
const PROBE_BATCHES: usize = 10;
const PROBE_CANDIDATES: usize = 2000;

/// The queries of one batch and their rankings.
type Answered = (Vec<NodeId>, Vec<api::Ranking>);

/// One stored generation of the graph.
pub struct Generation {
    pub dir: PathBuf,
    pub store: ShardStore,
    pub fingerprint: u64,
}

pub fn workload(ctx: &mut Ctx) -> Result<(), String> {
    let (world, build) = match ctx.scale {
        Scale::Bench => (api::full_world(), api::full_dataset as crate::Builder),
        Scale::Smoke => (api::tiny_world(), api::tiny_dataset as crate::Builder),
    };
    let cfg = train::model_config(ctx.scale);
    let engine_seed = ctx.stream_seed(31);
    let (ds, model, gens) = timed_setup(ctx, |ctx| {
        let ds = build(&world)?;
        let gens = write_generations(ctx, &ds, GENERATIONS)?;
        let model = api::new_model(cfg.clone(), &ds);
        let mut eng = api::engine(&model, engine_seed, CAPACITY);
        api::install(&mut eng, ds.graph.clone(), ds.features.clone())?;
        drop(eng);
        Ok((ds, model, gens))
    })?;
    if ctx.traced() {
        crate::data_layers(ctx, &world, build, &ds)?;
        run_loop(ctx, &model, &ds, &gens, Part::Main)?;
        train::replay(ctx, &ds, Part::Probe)?;
        return serve::phase(ctx, &model, &ds, Part::Probe);
    }
    run_loop(ctx, &model, &ds, &gens, Part::Main)
}

/// Generation 0 is `ds`'s graph; generation `g > 0` rewires every paper's
/// term links from a seeded stream, as a TE refinement round would.
fn write_generations(ctx: &mut Ctx, ds: &Dataset, n: usize) -> Result<Vec<Generation>, String> {
    (0..n)
        .map(|g| {
            let dir = ctx.work_dir.join(format!("gen-{g}"));
            let _ = std::fs::remove_dir_all(&dir);
            let mut gen_ds;
            let graph = if g == 0 {
                &ds.graph
            } else {
                gen_ds = ds.clone();
                api::randomize_term_links(&mut gen_ds, ctx.stream_seed(40 + g as u64));
                &gen_ds.graph
            };
            let write = ctx.tracer.begin("hetgraph.shard.write", g as u64);
            let res = api::shard_write(&dir, graph);
            ctx.tracer.end(write);
            res?;
            let store = api::shard_open(&dir)?;
            Ok(Generation {
                dir,
                store,
                fingerprint: api::content_fingerprint(graph),
            })
        })
        .collect()
}

/// The churn phase as another workload's probe: writes its own
/// generations of `ds`, then runs a short loop over them.
pub fn phase(ctx: &mut Ctx, model: &CateHgn, ds: &Dataset, part: Part) -> Result<(), String> {
    let gens = write_generations(ctx, ds, PROBE_GENERATIONS)?;
    let res = run_loop(ctx, model, ds, &gens, part);
    for g in &gens {
        let _ = std::fs::remove_dir_all(&g.dir);
    }
    res
}

fn run_loop(
    ctx: &mut Ctx,
    model: &CateHgn,
    ds: &Dataset,
    gens: &[Generation],
    part: Part,
) -> Result<(), String> {
    let mut candidates: Vec<NodeId> = ds.paper_nodes.clone();
    if part == Part::Probe {
        candidates.truncate(PROBE_CANDIDATES);
    }
    let cand_set: BTreeSet<NodeId> = candidates.iter().copied().collect();
    let engine_seed = ctx.stream_seed(31);
    let mut eng = api::engine(model, engine_seed, CAPACITY);
    api::install(&mut eng, ds.graph.clone(), ds.features.clone())?;
    let mut rng = api::rng(ctx.stream_seed(32));
    let draw = |rng: &mut api::ChaCha8Rng| -> Vec<NodeId> {
        (0..BATCH)
            .map(|_| candidates[rng.gen_range(0..candidates.len())])
            .collect()
    };
    let mut answered = 0u64;

    // Warm generation 0 before the clock starts.
    let queries = draw(&mut rng);
    let warm = api::recommend_resident(&mut eng, &candidates, &queries, K);
    if ctx.attempt("warm-up batch", BATCH as u64, warm).is_some() {
        answered += BATCH as u64;
    }

    // The measured loop swaps until the time is up (at least twice); smoke
    // runs and probes make a fixed number of swaps.
    let (batches_per_gen, budget, fixed_reloads) = match (part, ctx.scale) {
        (Part::Main, Scale::Bench) => (BATCHES_PER_GEN, ctx.seconds, None),
        (Part::Main, Scale::Smoke) => (PROBE_BATCHES, 0.0, Some(3)),
        (Part::Probe, _) => (PROBE_BATCHES, 0.0, Some(PROBE_RELOADS)),
    };
    let more = |reloads: usize, elapsed_s: f64| match fixed_reloads {
        Some(n) => reloads < n,
        None => reloads < 2 || elapsed_s < budget,
    };
    let mut lat = Latencies::default();
    let mut stale = Vec::new();
    let mut reload_ms = Vec::new();
    let mut first_batches_ms = 0.0;
    // Per generation: the queries and rankings of each first batch after a
    // swap to it, checked against the oracle at the end.
    let mut firsts: BTreeMap<usize, Vec<Answered>> = BTreeMap::new();
    let mut cur = 0usize;
    let mut reloads = 0usize;
    // Time the client spent in engine calls; the checks between calls are
    // not part of it.
    let mut busy_ms = 0.0;
    while more(reloads, busy_ms / 1e3) {
        let next = (cur + 1) % gens.len();
        let t = Stopwatch::model();
        let open = ctx.tracer.begin("core.serve.reload", reloads as u64);
        let res = api::reload(&mut eng, &gens[next].store);
        ctx.tracer.end(open);
        let reload = t.ms();
        reload_ms.push(reload);
        busy_ms += reload;
        ctx.attempt("reload", 1, res).ok_or("reload failed")?;
        reloads += 1;
        cur = next;
        for b in 0..batches_per_gen {
            let queries = draw(&mut rng);
            // The first batch after a swap rebuilds the cache: model work.
            let t = if b == 0 {
                Stopwatch::model()
            } else {
                Stopwatch::start()
            };
            let open = ctx.tracer.begin("core.serve.churn_batch", reloads as u64);
            let res = api::recommend_resident(&mut eng, &candidates, &queries, K);
            ctx.tracer.end(open);
            let ms = t.ms();
            lat.push(ms);
            busy_ms += ms;
            if b == 0 {
                stale.push((reload + ms) / 1e3);
                first_batches_ms += ms;
            }
            let Some(recs) = ctx.attempt("recommend batch", BATCH as u64, res) else {
                continue;
            };
            answered += BATCH as u64;
            for (q, rec) in queries.iter().zip(&recs) {
                ctx.checks
                    .record("ranking", check::ranking(rec, Some(*q), &cand_set, K));
            }
            if b == 0 {
                firsts.entry(cur).or_default().push((queries, recs));
            }
        }
    }
    let loop_s = busy_ms / 1e3;

    // Oracle: every first answer after a swap, against a fresh
    // `CateHgn::embed` over that generation loaded from its shards.
    for (&g, batches) in &firsts {
        let loaded = api::shard_load(&gens[g].store)?;
        ctx.checks.require(
            "reloaded generation matches what was written",
            api::content_fingerprint(&loaded) == gens[g].fingerprint,
            || format!("generation {g} fingerprint differs"),
        );
        let emb = api::embed_last(model, &loaded, &ds.features, &candidates, engine_seed);
        let oracle = Oracle {
            candidates: candidates.clone(),
            emb,
        };
        for (queries, recs) in batches {
            for (q, got) in queries.iter().zip(recs) {
                ctx.checks.record(
                    "oracle after swap",
                    oracle
                        .transductive(*q, K)
                        .and_then(|want| check::same_bits(got, &want)),
                );
            }
        }
    }

    // Every swap changes the graph's content, so every swap rebuilds.
    let s = api::serve_stats(&eng);
    let rebuilds = 1 + reloads as u64;
    let stats_ok = s.queries == answered
        && s.cache_rebuilds == rebuilds
        && s.cache_hits == answered - BATCH as u64 * rebuilds
        && s.errors == 0
        && s.shed == 0
        && s.reload_failures == 0
        && s.degraded_queries == 0;
    ctx.checks.require("churn stats reconcile", stats_ok, || {
        format!("{s:?} vs answered {answered}, reloads {reloads}")
    });

    if part == Part::Main {
        ctx.e2e.insert("ready_s", stats::median(&stale));
        ctx.note("stale_s", format!("{stale:?}"));
        ctx.e2e.insert("p50_ms", lat.median());
        let (p, tail) = lat.tail();
        ctx.e2e.insert("p99_ms", tail);
        ctx.e2e
            .insert("qps", (answered - BATCH as u64) as f64 / loop_s);
        ctx.note("churn_reloads", reloads);
        ctx.note("churn_batch_samples", lat.len());
        ctx.note("churn_tail_percentile", p);
    }
    if ctx.traced() {
        let (mut open_ms, mut load_ms) = (Vec::new(), Vec::new());
        for (i, g) in gens.iter().enumerate() {
            let t = Stopwatch::start();
            let open = ctx.tracer.begin("hetgraph.shard.open", i as u64);
            let store = api::shard_open(&g.dir);
            ctx.tracer.end(open);
            open_ms.push(t.ms());
            let store = store?;
            let t = Stopwatch::start();
            let open = ctx.tracer.begin("hetgraph.shard.load", i as u64);
            let loaded = api::shard_load(&store);
            ctx.tracer.end(open);
            load_ms.push(t.ms());
            loaded?;
        }
        ctx.layers
            .insert("hetgraph.shard.open.ms", stats::median(&open_ms));
        ctx.layers
            .insert("hetgraph.shard.load.ms", stats::median(&load_ms));
        ctx.layers
            .insert("core.serve.reload.ms", stats::median(&reload_ms));
        ctx.layers
            .insert("core.serve.rebuild_frac", first_batches_ms / 1e3 / loop_s);
        ctx.layers.insert(
            "core.serve.cache_hit_ratio",
            s.cache_hits as f64 / s.queries.max(1) as f64,
        );
        ctx.layers
            .insert("core.serve.cache_rebuilds", s.cache_rebuilds as f64);
    }
    Ok(())
}
