//! The one adapter between the benchmark and the program under test.
//!
//! Every call into the repository's crates goes through this file, so an
//! API change (for example a resident-only serving API) edits only here.
//! Types are re-exported for the rest of the benchmark; functions wrap the
//! calls the workloads make.

use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;

pub use catehgn::{CateHgn, ForwardOut, ModelConfig, Recommendation, ServeEngine, ServeStats};
pub use catehgn::{TextEnhancer, TrainOptions, TrainReport};
pub use dblp_sim::{Dataset, WorldConfig};
pub use hetgraph::{Block, HetGraph, NodeId, NodeTypeId, ShardStore};
pub use rand_chacha::ChaCha8Rng;
pub use tensor::{Graph, Optimizer, ParamId, Tensor, Var};

use rand::SeedableRng;
use tensor::ForwardCtx;

/// Feature width requested from the dataset builders (Table II setting).
pub const FEAT_DIM: usize = 32;

pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

// ----- host and runtime ------------------------------------------------

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn set_tensor_threads(n: usize) {
    tensor::par::set_num_threads(n);
}

pub fn tensor_threads() -> usize {
    tensor::par::num_threads()
}

// ----- datasets ----------------------------------------------------------

/// The DBLP-full world (3000 papers) of Table II.
pub fn full_world() -> WorldConfig {
    WorldConfig::full()
}

/// A world of `n_papers` with entity counts grown as in the scale path.
pub fn scale_world(n_papers: usize) -> WorldConfig {
    WorldConfig::at_scale(n_papers)
}

/// The unit-test world, for the benchmark's smoke runs.
pub fn tiny_world() -> WorldConfig {
    WorldConfig::tiny()
}

pub fn full_dataset(world: &WorldConfig) -> Result<Dataset, String> {
    Dataset::try_full(world, FEAT_DIM).map_err(|e| e.to_string())
}

/// The tiny world at the feature width of the repository's end-to-end test.
pub fn tiny_dataset(world: &WorldConfig) -> Result<Dataset, String> {
    Dataset::try_full(world, 16).map_err(|e| e.to_string())
}

pub fn scale_dataset(world: &WorldConfig) -> Result<Dataset, String> {
    Dataset::try_streamed(world, FEAT_DIM, &dblp_sim::ScaleOptions::at_scale())
        .map_err(|e| e.to_string())
}

/// Streams every paper of `world` through the windowed generator the
/// scale path uses and returns how many came out.
pub fn stream_papers(world: &WorldConfig) -> usize {
    let latent = dblp_sim::LatentWorld::generate(world);
    let window = dblp_sim::ScaleOptions::at_scale()
        .cite_window
        .unwrap_or(4096);
    dblp_sim::PaperStream::windowed(&latent, window).count()
}

pub fn randomize_term_links(ds: &mut Dataset, seed: u64) {
    ds.randomize_term_links(seed);
}

pub fn test_papers(ds: &Dataset) -> Vec<NodeId> {
    ds.paper_nodes_of(&ds.split.test)
}

pub fn test_labels(ds: &Dataset) -> Vec<f32> {
    ds.labels_of(&ds.split.test)
}

pub fn mean_predictor_rmse(ds: &Dataset) -> f32 {
    baselines::mean_predictor_rmse(ds, &ds.split.test)
}

pub fn rmse(pred: &[f32], truth: &[f32]) -> f32 {
    catehgn::rmse(pred, truth)
}

// ----- model and training ------------------------------------------------

/// The Table II CATE-HGN configuration, limited to `rounds` outer rounds.
pub fn table2_config(rounds: usize) -> ModelConfig {
    ModelConfig {
        outer_iters: rounds,
        ..ModelConfig::cate_hgn()
    }
}

/// The configuration the repository's end-to-end test trains on the tiny
/// world (and shows beating the mean predictor), for the benchmark's smoke
/// runs.
pub fn smoke_config() -> ModelConfig {
    ModelConfig {
        dim: 16,
        n_clusters: WorldConfig::tiny().n_domains + 1,
        batch_size: 64,
        mini_iters: 10,
        outer_iters: 5,
        heads_node: 2,
        heads_link: 2,
        kappa: 15,
        ..ModelConfig::default()
    }
}

pub fn new_model(cfg: ModelConfig, ds: &Dataset) -> CateHgn {
    let schema = ds.graph.schema();
    CateHgn::new(
        cfg,
        ds.features.cols(),
        schema.num_node_types(),
        schema.num_link_types(),
    )
}

pub fn train(model: &mut CateHgn, ds: &mut Dataset) -> Result<TrainReport, String> {
    catehgn::train_with(model, ds, &mut TrainOptions::default()).map_err(|e| e.to_string())
}

pub fn predict(model: &CateHgn, ds: &Dataset, seeds: &[NodeId], seed: u64) -> Vec<f32> {
    model.predict(&ds.graph, &ds.features, seeds, seed)
}

pub fn predict_taped(model: &CateHgn, ds: &Dataset, seeds: &[NodeId], seed: u64) -> Vec<f32> {
    model.predict_taped(&ds.graph, &ds.features, seeds, seed)
}

/// `(hits, misses)` of the model's neighbourhood-sampling cache.
pub fn blockcache_stats(model: &CateHgn) -> (u64, u64) {
    model.sampling_cache_stats()
}

// ----- Algorithm 1 replay pieces -----------------------------------------
//
// Each function below is one stage of the serial HGN step, CA update or TE
// refinement in `crates/core/src/train.rs::train_with`; the comment names
// the line of that loop it mirrors.

/// One mini-batch draw (`train_with`: `batch = (0..cfg.batch_size).map(..)`).
pub fn draw_batch(ds: &Dataset, batch_size: usize, rng: &mut ChaCha8Rng) -> (Vec<NodeId>, Tensor) {
    let train = &ds.split.train;
    let batch: Vec<usize> = (0..batch_size)
        .map(|_| train[rng.gen_range(0..train.len())])
        .collect();
    (
        ds.paper_nodes_of(&batch),
        Tensor::col_vec(ds.labels_of(&batch)),
    )
}

/// A CA batch over all nodes (`train_with` CA loop: `batch = all_nodes[..]`).
pub fn draw_node_batch(ds: &Dataset, batch_size: usize, rng: &mut ChaCha8Rng) -> Vec<NodeId> {
    let n = ds.graph.num_nodes() as u32;
    (0..batch_size)
        .map(|_| NodeId(rng.gen_range(0..n)))
        .collect()
}

/// `sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng)`.
pub fn sample_blocks(
    ds: &Dataset,
    seeds: &[NodeId],
    cfg: &ModelConfig,
    rng: &mut ChaCha8Rng,
) -> Vec<Block> {
    hetgraph::sample_blocks(&ds.graph, seeds, cfg.layers, cfg.fanout, rng)
}

/// `dedup_labels`: the sampler dedups seeds, so the label column follows
/// the deduplicated frontier order (first label of each node wins).
pub fn dedup_labels(seeds: &[NodeId], blocks: &[Block], labels: &Tensor) -> Tensor {
    let deduped = &blocks[0].dst_nodes;
    if seeds.len() == deduped.len() {
        return labels.clone();
    }
    let first: BTreeMap<NodeId, f32> = seeds
        .iter()
        .zip(labels.as_slice())
        .map(|(&n, &l)| (n, l))
        .rev()
        .collect();
    Tensor::col_vec(deduped.iter().map(|n| first[n]).collect())
}

/// `CateHgn::forward`, first half: `encode_nodes` + `encode_links`.
pub fn encode(g: &mut Graph, model: &CateHgn, ds: &Dataset, blocks: &[Block]) -> (Var, Vec<Var>) {
    let deep = &blocks[blocks.len() - 1].src_nodes;
    let h0 =
        catehgn::encoder::encode_nodes(g, &model.params, &model.enc, &ds.graph, &ds.features, deep);
    let edges = catehgn::encoder::encode_links(g, &model.params, &model.enc);
    (h0, edges)
}

/// `CateHgn::forward`, one iteration of the layer loop: `layer_forward`.
pub fn layer(
    g: &mut Graph,
    model: &CateHgn,
    blocks: &[Block],
    l: usize,
    h_cur: Var,
    h_edges: &[Var],
) -> (Var, Vec<Var>) {
    let block_idx = blocks.len() - l;
    let out = catehgn::layer::layer_forward(
        g,
        &model.params,
        &model.layers[l - 1],
        &model.cfg,
        &blocks[block_idx],
        h_cur,
        h_edges,
    );
    (out.h_next, out.h_edge_next)
}

/// `CateHgn::forward`, the CA branch of the layer loop (centers bound as
/// constants in the HGN phase): `soft_assign` + `masked_embedding`.
pub fn cluster_mask(g: &mut Graph, model: &CateHgn, l: usize, h_next: Var) -> (Var, Option<Var>) {
    if !model.cfg.ablation.ca {
        return (h_next, None);
    }
    let centers = g.input_from(model.params.value(model.ca.centers[l - 1]));
    let q = catehgn::ca::soft_assign(g, h_next, centers);
    g.free(centers);
    let hm = catehgn::ca::masked_embedding(g, &model.params, h_next, q, &model.ca.masks[l - 1]);
    (hm, Some(q))
}

/// `CateHgn::hgn_loss_planned`, supervised part (Eq. 6 over all layers).
pub fn supervised_loss(g: &mut Graph, model: &CateHgn, fw: &ForwardOut, labels: &Tensor) -> Var {
    let b = labels.rows();
    let labels_id = g.constant_from(labels);
    let pred1 = model.predict_rows(g, fw, 1, b);
    let first = g.mse_id(pred1, labels_id);
    (2..=model.cfg.layers).fold(first, |prev, l| {
        let pred = model.predict_rows(g, fw, l, b);
        let m = g.mse_id(pred, labels_id);
        g.add(prev, m)
    })
}

/// `CateHgn::hgn_loss_planned`, unsupervised part: `plan_mi` (the RNG draw
/// `hgn_loss` makes) then `mi_loss_planned` per transition, weighted and
/// added to `total` (Eq. 2).
pub fn mi_loss(
    g: &mut Graph,
    model: &CateHgn,
    fw: &ForwardOut,
    blocks: &[Block],
    total: Var,
    rng: &mut ChaCha8Rng,
) -> Var {
    let cfg = &model.cfg;
    let plan = catehgn::mi::plan_mi(blocks, cfg.ablation.mi, cfg.mi_max_edges, rng);
    if !cfg.ablation.mi {
        return total;
    }
    let mut acc: Option<Var> = None;
    for ((l, &(block_idx, src)), draw) in fw.transitions.iter().enumerate().zip(&plan.draws) {
        let Some(draw) = draw else { continue };
        let m = catehgn::mi::mi_loss_planned(
            g,
            &model.params,
            model.layers[l].w_d,
            &blocks[block_idx],
            src,
            fw.h_masked[l],
            draw,
        );
        acc = Some(match acc {
            Some(prev) => g.add(prev, m),
            None => m,
        });
    }
    match acc {
        Some(m) => {
            let weighted = g.scale(m, cfg.lambda_mi);
            g.add(total, weighted)
        }
        None => total,
    }
}

/// The program's own HGN loss for one batch (`CateHgn::forward` then
/// `CateHgn::hgn_loss`, as `train_with` calls them): the reference the
/// replayed step must match bitwise.
pub fn program_loss(
    model: &CateHgn,
    ds: &Dataset,
    blocks: &[Block],
    labels: &Tensor,
    mut rng: ChaCha8Rng,
) -> f32 {
    let mut g = Graph::new();
    let fw = model.forward(&mut g, &ds.graph, &ds.features, blocks, false);
    let (loss, _, _) = model.hgn_loss(&mut g, &fw, blocks, labels, &mut rng);
    loss_value(&g, loss)
}

pub fn loss_value(g: &Graph, v: Var) -> f32 {
    g.value(v).as_slice()[0]
}

/// `g.backward(loss)`.
pub fn backward(g: &mut Graph, loss: Var) {
    g.backward(loss);
}

/// `opt.step_clipped_guarded(&mut model.params, &mut g, Some(cfg.clip))`;
/// `false` when the guard rejected a non-finite gradient.
pub fn optim_step(opt: &mut Optimizer, model: &mut CateHgn, g: &mut Graph) -> bool {
    let clip = model.cfg.clip;
    opt.step_clipped_guarded(&mut model.params, g, Some(clip))
        .is_ok()
}

pub fn adam(model: &CateHgn) -> Optimizer {
    Optimizer::adam(model.cfg.lr)
}

/// One CA center-update iteration (`train_with` CA loop body): forward with
/// bound centers, `ca_loss`, backward, filtered guarded step. Returns
/// whether the step landed.
pub fn ca_iteration(
    g: &mut Graph,
    model: &mut CateHgn,
    opt: &mut Optimizer,
    ds: &Dataset,
    rng: &mut ChaCha8Rng,
) -> bool {
    let cfg = model.cfg.clone();
    let batch = draw_node_batch(ds, cfg.batch_size, rng);
    let blocks = sample_blocks(ds, &batch, &cfg, rng);
    g.reset();
    let fw = model.forward(g, &ds.graph, &ds.features, &blocks, true);
    let Some(loss) = model.ca_loss(g, &fw) else {
        return true;
    };
    if !loss_value(g, loss).is_finite() {
        return false;
    }
    g.backward(loss);
    let centers: std::collections::BTreeSet<ParamId> = model.ca.centers.iter().copied().collect();
    opt.step_filtered_guarded(&mut model.params, g, Some(cfg.clip), &centers)
        .is_ok()
}

/// TE initialisation (`train_with`, Algorithm 1 line 1).
pub fn te_init(model: &CateHgn, ds: &mut Dataset) -> TextEnhancer {
    let cfg = &model.cfg;
    let mut te = TextEnhancer::new(ds, cfg.n_clusters, cfg.dim.max(16), cfg.seed);
    te.bootstrap(cfg.kappa);
    te.relink(ds, cfg.ablation.te_tfidf);
    te
}

/// One TE refinement (`refine_terms`): impact readout of the active terms,
/// impact-based voting, then relinking. Returns the number of active terms.
pub fn te_round(model: &CateHgn, ds: &mut Dataset, te: &mut TextEnhancer) -> usize {
    let cfg = &model.cfg;
    let active: Vec<_> = te.active_terms().into_iter().collect();
    let nodes: Vec<NodeId> = active.iter().map(|t| ds.term_nodes[t.index()]).collect();
    let readout = model.impact_and_cluster(&ds.graph, &ds.features, &nodes, cfg.seed);
    let mut impact = BTreeMap::new();
    let mut cluster = BTreeMap::new();
    for (t, (y, c)) in active.iter().zip(readout) {
        impact.insert(*t, y);
        cluster.insert(*t, c);
    }
    te.refine(&impact, &cluster, cfg.kappa);
    te.relink(ds, cfg.ablation.te_tfidf);
    active.len()
}

// ----- kernels -----------------------------------------------------------

/// One row of the circular-correlation composition as the forward kernel
/// runs it: `b` doubled into `win` (length `2d - 1`), then the windowed
/// correlation of `a` against it.
pub fn circular_correlation(a: &[f32], b: &[f32], win: &mut [f32], out: &mut [f32]) {
    tensor::tensor::fill_corr_window(b, win);
    tensor::tensor::circular_correlation_windowed(a, win, out);
}

pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    a.matmul(b)
}

pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Tensor {
    a.matmul_tb(b)
}

// ----- serving -----------------------------------------------------------

pub fn engine(model: &CateHgn, seed: u64, capacity: usize) -> ServeEngine<'_> {
    ServeEngine::with_capacity(model, seed, capacity)
}

pub fn install(eng: &mut ServeEngine<'_>, graph: HetGraph, features: Tensor) -> Result<(), String> {
    eng.install_resident(graph, features)
        .map_err(|e| e.to_string())
}

pub fn submit(eng: &mut ServeEngine<'_>, q: NodeId) -> Result<(), String> {
    eng.submit(q).map_err(|e| e.to_string())
}

pub type Ranking = Vec<Recommendation>;

pub fn drain(
    eng: &mut ServeEngine<'_>,
    ds: &Dataset,
    candidates: &[NodeId],
    k: usize,
) -> Result<Vec<(NodeId, Ranking)>, String> {
    eng.drain(&ds.graph, &ds.features, candidates, k)
        .map_err(|e| e.to_string())
}

pub fn cold_start(
    eng: &mut ServeEngine<'_>,
    ds: &Dataset,
    candidates: &[NodeId],
    node_type: NodeTypeId,
    row: &[f32],
    k: usize,
) -> Result<Ranking, String> {
    eng.cold_start(&ds.graph, &ds.features, candidates, node_type, row, k)
        .map_err(|e| e.to_string())
}

pub fn recommend_resident(
    eng: &mut ServeEngine<'_>,
    candidates: &[NodeId],
    queries: &[NodeId],
    k: usize,
) -> Result<Vec<Ranking>, String> {
    eng.recommend_batch_resident(candidates, queries, k)
        .map_err(|e| e.to_string())
}

pub fn reload(eng: &mut ServeEngine<'_>, store: &ShardStore) -> Result<(), String> {
    eng.reload_resident(store).map_err(|e| e.to_string())
}

pub fn serve_stats(eng: &ServeEngine<'_>) -> ServeStats {
    eng.stats()
}

pub fn rank_desc(a: &Recommendation, b: &Recommendation) -> std::cmp::Ordering {
    catehgn::serve::rank_desc(a, b)
}

/// Last-layer embeddings of `candidates` as a fresh engine would cache
/// them (`CateHgn::embed` with the engine seed).
pub fn embed_last(
    model: &CateHgn,
    graph: &HetGraph,
    features: &Tensor,
    candidates: &[NodeId],
    seed: u64,
) -> Tensor {
    let mut layers = model.embed(graph, features, candidates, seed);
    layers.pop().expect("the model has at least one layer")
}

/// The frozen layer-0 encoder of `node_type`: `relu(x W + b)` as a `1 x d`
/// row.
pub fn cold_embed(model: &CateHgn, node_type: NodeTypeId, row: &[f32]) -> Tensor {
    let t = node_type.0 as usize;
    let w = model.params.value(model.enc.node_w[t]);
    let b = model.params.value(model.enc.node_b[t]);
    let x = Tensor::from_vec(1, row.len(), row.to_vec());
    let mut h = x.matmul(w);
    for (v, &bv) in h.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *v = (*v + bv).max(0.0);
    }
    h
}

/// The engine's cache-hit check, replayed: FNV-1a over the feature bytes,
/// the finiteness scan, and the graph's sampling stamp.
pub fn validate_replay(graph: &HetGraph, features: &Tensor) -> (u64, bool, u64) {
    (
        catehgn::resilience::fnv1a_f32(features.as_slice()),
        tensor::is_all_finite(features.as_slice()),
        graph.sampling_stamp(),
    )
}

pub fn node_type(graph: &HetGraph, v: NodeId) -> NodeTypeId {
    graph.node_type(v)
}

// ----- shard storage -----------------------------------------------------

pub fn shard_write(dir: &Path, graph: &HetGraph) -> Result<(), String> {
    ShardStore::write(dir, graph).map_err(|e| e.to_string())
}

pub fn shard_open(dir: &Path) -> Result<ShardStore, String> {
    ShardStore::open(dir).map_err(|e| e.to_string())
}

pub fn shard_load(store: &ShardStore) -> Result<HetGraph, String> {
    store.load_graph().map_err(|e| e.to_string())
}

pub fn content_fingerprint(graph: &HetGraph) -> u64 {
    graph.content_fingerprint()
}
