//! Algorithm 1: iterative training of HGN mini-iterations, CA center
//! updates, and TE term refreshes.
//!
//! The loop is **resumable**: [`train_with`] can capture its full state at
//! any HGN mini-iteration boundary into an atomic checkpoint (see
//! `crate::resilience`) and later continue from it bitwise — a resumed run
//! reproduces the losses and parameters of an uninterrupted one exactly.
//! Every optimizer step is guarded against non-finite losses/gradients,
//! with the reaction chosen by a [`RecoveryPolicy`]. [`train`] is the
//! historical entry point and runs with all of this disabled (plain abort
//! on non-finite, no checkpoints), which makes it byte-for-byte the old
//! behavior on clean runs.

use crate::config::ModelConfig;
use crate::model::CateHgn;
use crate::resilience::{
    restore_params, restore_values, snapshot_params, snapshot_values, CheckpointError,
    CheckpointManager, NonFiniteSource, RecoveryPolicy, TrainError, TrainOptions, TrainState,
};
use crate::te::TextEnhancer;
use hetgraph::{sample_blocks, Block, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use tensor::{Graph, Optimizer, Tensor};

/// Snapshot of the TE term sets after one refinement round (Fig. 5 data).
#[derive(Clone, Debug, PartialEq)]
pub struct TeRound {
    pub round: usize,
    /// Per-cluster precision against the generator's quality terms.
    pub precision: Vec<f32>,
    /// Per-cluster mined term strings (first few, for case studies).
    pub sample_terms: Vec<Vec<String>>,
}

/// Training trace returned by [`train`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// Mean total HGN loss per outer round.
    pub hgn_losses: Vec<f32>,
    /// Mean supervised loss per outer round.
    pub sup_losses: Vec<f32>,
    /// Validation RMSE per outer round (empty if no validation split).
    pub val_rmse: Vec<f32>,
    /// TE refinement trace (empty when TE is off).
    pub te_rounds: Vec<TeRound>,
    /// Batches dropped by [`RecoveryPolicy::SkipBatch`].
    pub skipped: usize,
    /// Rollbacks performed by [`RecoveryPolicy::Rollback`].
    pub rollbacks: usize,
}

/// Trains `model` on `ds` per Algorithm 1. `ds` is mutable because the TE
/// module rebuilds its paper-term links; callers wanting to reuse a dataset
/// across models should pass a clone.
///
/// Equivalent to [`train_with`] under [`TrainOptions::default`]; panics on
/// the (abort-policy) error path.
pub fn train(model: &mut CateHgn, ds: &mut dblp_sim::Dataset) -> TrainReport {
    let mut opts = TrainOptions::default();
    train_with(model, ds, &mut opts).unwrap_or_else(|e| panic!("training failed: {e}"))
}

/// What the recovery policy decided to do about one non-finite step.
enum Recovery {
    Skip,
    Rollback,
}

fn decide(
    policy: RecoveryPolicy,
    skips_in_row: usize,
    rolls_in_row: usize,
    source: &NonFiniteSource,
    outer: usize,
    step: usize,
) -> Result<Recovery, TrainError> {
    let fail = |exhausted: &'static str| TrainError::NonFinite {
        source: source.clone(),
        outer,
        step,
        exhausted,
    };
    match policy {
        RecoveryPolicy::Abort => Err(fail("policy is abort")),
        RecoveryPolicy::SkipBatch { max_consecutive } => {
            if skips_in_row > max_consecutive {
                Err(fail("skip-batch limit reached"))
            } else {
                Ok(Recovery::Skip)
            }
        }
        RecoveryPolicy::Rollback { max_retries, .. } => {
            if rolls_in_row > max_retries {
                Err(fail("rollback retries exhausted"))
            } else {
                Ok(Recovery::Rollback)
            }
        }
    }
}

/// Per-lane state for the batch-parallel HGN path
/// ([`TrainOptions::data_lanes`] > 1): a private tape — with its own
/// `BufferPool` scratch, the PR-3 pattern — plus the coordinator-drawn
/// batch payload the lane evaluates.
struct Lane {
    /// Long-lived private tape; reset per group, so steady-state lane
    /// steps run allocation-free exactly like the serial loop.
    g: Graph,
    /// Lane-local RNG for the loss's stochastic draws, reseeded from the
    /// main stream each step so consumption never depends on the thread
    /// count.
    rng: ChaCha8Rng,
    /// Global step position this lane evaluates (the fault-injection key).
    step: u64,
    labels: Tensor,
    blocks: Vec<Block>,
    loss_val: f32,
    sup: f32,
}

impl Lane {
    fn new() -> Self {
        Lane {
            g: Graph::new(),
            rng: ChaCha8Rng::seed_from_u64(0),
            step: 0,
            labels: Tensor::col_vec(vec![0.0]),
            blocks: Vec::new(),
            loss_val: 0.0,
            sup: 0.0,
        }
    }
}

/// A step boundary inside round [`Run::cur_outer`].
#[derive(Clone, Copy)]
enum Phase {
    /// The HGN mini-loop, at [`Run::cur_mini`].
    Hgn,
    /// The CA refinement loop, after `done` iterations (completed ones
    /// when a step lands, the failed one's index when it does not).
    Ca { done: usize },
}

/// The loop state of [`train_with`] that a checkpoint captures, plus the
/// checkpoint manager and failure counters. Every step arm — lanes-HGN,
/// serial-HGN and serial-CA — ends in [`Run::landed`] or [`Run::failed`],
/// so the save and recovery sequences exist once.
struct Run {
    cfg: ModelConfig,
    cfg_json: String,
    /// Normalized lane count: 1 is the serial historical loop.
    lanes: usize,
    manager: CheckpointManager,
    cur_outer: usize,
    cur_mini: usize,
    /// Partial-round loss accumulators of the HGN mini-loop.
    tot: f32,
    sup_tot: f32,
    opt: Optimizer,
    ca_opt: Optimizer,
    rng: ChaCha8Rng,
    report: TrainReport,
    best_val: f32,
    best_params: Option<tensor::Params>,
    te: Option<TextEnhancer>,
    /// `Some(ca_done)` when the next round entry must skip the (already
    /// completed) HGN minis and epilogue and continue the CA loop mid-way.
    entering_ca: Option<usize>,
    /// Consecutive-failure counters; both reset on any landed step.
    skips_in_row: usize,
    rolls_in_row: usize,
}

impl Run {
    /// Captures the full training state at `phase`.
    fn capture(&self, model: &CateHgn, ds: &dblp_sim::Dataset, phase: Phase) -> TrainState {
        let (phase, ca_done) = match phase {
            Phase::Hgn => (0, 0),
            Phase::Ca { done } => (1, done as u64),
        };
        TrainState {
            config_json: self.cfg_json.clone(),
            outer: self.cur_outer as u64,
            mini: self.cur_mini as u64,
            tot: self.tot,
            sup_tot: self.sup_tot,
            best_val: self.best_val,
            opt_lr: self.opt.lr(),
            opt_steps: self.opt.steps(),
            ca_lr: self.ca_opt.lr(),
            ca_steps: self.ca_opt.steps(),
            rng_words: self.rng.state_words(),
            params: snapshot_params(&model.params),
            best_params: self.best_params.as_ref().map(snapshot_values),
            te_term_sets: self.te.as_ref().map(|te| {
                te.term_sets
                    .iter()
                    .map(|s| s.iter().map(|t| t.0).collect())
                    .collect()
            }),
            report: self.report.clone(),
            graph_fingerprint: ds.graph.content_fingerprint(),
            cache_stamp: ds.graph.sampling_stamp(),
            data_lanes: self.lanes as u64,
            phase,
            ca_done,
        }
    }

    /// Restores a captured state into the live loop, position included: a
    /// CA-phase snapshot (the HGN minis and epilogue of its round already
    /// complete) re-enters the CA loop at its `ca_done`.
    fn restore(
        &mut self,
        state: &TrainState,
        model: &mut CateHgn,
        ds: &mut dblp_sim::Dataset,
    ) -> Result<(), TrainError> {
        restore_params(&mut model.params, &state.params)?;
        // The snapshot carries the best model's *values* only; the moments in
        // this reconstructed store are the live optimizer's and are never
        // read — model selection installs values, not optimizer state.
        self.best_params = match &state.best_params {
            Some(snaps) => {
                let mut p = model.params.clone();
                restore_values(&mut p, snaps)?;
                Some(p)
            }
            None => None,
        };
        self.opt.set_lr(state.opt_lr);
        self.opt.set_steps(state.opt_steps);
        self.ca_opt.set_lr(state.ca_lr);
        self.ca_opt.set_steps(state.ca_steps);
        self.rng = ChaCha8Rng::from_state_words(&state.rng_words);
        self.report = state.report.clone();
        self.best_val = state.best_val;
        match (self.te.as_mut(), &state.te_term_sets) {
            (Some(te), Some(sets)) => {
                te.term_sets = sets
                    .iter()
                    .map(|s| s.iter().map(|&x| textmine::TokenId(x)).collect())
                    .collect();
                // Replaying the persisted term sets through relink reproduces
                // the snapshot-time paper-term links on the freshly built graph.
                te.relink(ds, self.cfg.ablation.te_tfidf);
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(CheckpointError::Mismatch(
                    "snapshot has no TE state but TE is enabled".into(),
                )
                .into());
            }
            (None, Some(_)) => {
                return Err(CheckpointError::Mismatch(
                    "snapshot carries TE state but TE is disabled".into(),
                )
                .into());
            }
        }
        let fp = ds.graph.content_fingerprint();
        if fp != state.graph_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "graph content fingerprint {fp:#018x} != snapshot {:#018x}",
                state.graph_fingerprint
            ))
            .into());
        }
        self.tot = state.tot;
        self.sup_tot = state.sup_tot;
        self.cur_outer = state.outer as usize;
        self.cur_mini = state.mini as usize;
        self.entering_ca = (state.phase == 1).then_some(state.ca_done as usize);
        Ok(())
    }

    /// Tail of a step that landed `stride` positions past the previous
    /// one: saves a checkpoint when one is due or the run is halting, and
    /// returns whether it is halting (the snapshot just saved is then the
    /// resume point).
    fn landed(
        &mut self,
        model: &CateHgn,
        ds: &dblp_sim::Dataset,
        opts: &mut TrainOptions,
        phase: Phase,
        stride: usize,
    ) -> Result<bool, TrainError> {
        self.skips_in_row = 0;
        self.rolls_in_row = 0;
        let (pos, halt_after) = match phase {
            Phase::Hgn => (
                self.cur_outer * self.cfg.mini_iters + self.cur_mini,
                opts.halt_after_steps,
            ),
            Phase::Ca { done } => (
                self.cur_outer * self.cfg.ca_iters + done,
                opts.halt_after_ca,
            ),
        };
        let (pos, prev) = (pos as u64, (pos - stride) as u64);
        // "Crossed a multiple of n": `pos % n == 0` for single steps, and
        // on group-sized lane strides it lands checkpoints on group
        // boundaries, so resume always restarts on the same lane schedule.
        let due = opts
            .checkpoint_every
            .is_some_and(|n| n > 0 && pos / n as u64 > prev / n as u64);
        let halting = halt_after.is_some_and(|n| pos >= n)
            || opts.shutdown.as_ref().is_some_and(|t| t.requested());
        if due || halting {
            let state = self.capture(model, ds, phase);
            self.manager.save(&state, &mut opts.faults)?;
        }
        Ok(halting)
    }

    /// Tail of a non-finite step, before any parameter or optimizer state
    /// moved: applies the recovery policy. On Skip the caller redraws (HGN)
    /// or consumes (CA) the slot; on Rollback the loop state is back at the
    /// last snapshot and the caller re-enters the round loop.
    fn failed(
        &mut self,
        model: &mut CateHgn,
        ds: &mut dblp_sim::Dataset,
        opts: &TrainOptions,
        phase: Phase,
        source: NonFiniteSource,
    ) -> Result<Recovery, TrainError> {
        self.skips_in_row += 1;
        self.rolls_in_row += 1;
        let step = match phase {
            Phase::Hgn => self.cur_mini,
            Phase::Ca { done } => done,
        };
        let action = decide(
            opts.policy,
            self.skips_in_row,
            self.rolls_in_row,
            &source,
            self.cur_outer,
            step,
        )?;
        match action {
            Recovery::Skip => self.report.skipped += 1,
            Recovery::Rollback => {
                let state = self.manager.last_state()?;
                self.restore(&state, model, ds)?;
                self.report.rollbacks += 1;
                if let RecoveryPolicy::Rollback { lr_backoff, .. } = opts.policy {
                    // Backoff compounds over consecutive retries of the
                    // same snapshot.
                    let scale = lr_backoff.powi(self.rolls_in_row as i32);
                    self.opt.set_lr(state.opt_lr * scale);
                    self.ca_opt.set_lr(state.ca_lr * scale);
                }
            }
        }
        Ok(action)
    }
}

/// [`train`] with checkpoint/resume, non-finite recovery, and fault
/// injection. See `crate::resilience` for the option types.
///
/// Determinism contract: on a clean run (no faults, no non-finite values)
/// this performs arithmetic bitwise-identical to the historical loop
/// regardless of checkpoint options, and a run resumed from a checkpoint
/// continues bitwise-identical to the uninterrupted run.
pub fn train_with(
    model: &mut CateHgn,
    ds: &mut dblp_sim::Dataset,
    opts: &mut TrainOptions,
) -> Result<TrainReport, TrainError> {
    let cfg = model.cfg.clone();
    let cfg_json = serde_json::to_string(&cfg)
        .map_err(|e| CheckpointError::Corrupt(format!("model config serialization: {e}")))
        .map_err(TrainError::Checkpoint)?;
    // Normalized lane count: 0 and 1 both mean the serial historical loop.
    let lanes = opts.data_lanes.max(1);
    let mut run = Run {
        cfg: cfg.clone(),
        cfg_json,
        lanes,
        manager: CheckpointManager::new(opts.checkpoint_path.clone()),
        cur_outer: 0,
        cur_mini: 0,
        tot: 0.0,
        sup_tot: 0.0,
        opt: Optimizer::adam(cfg.lr),
        ca_opt: Optimizer::adam(cfg.lr),
        rng: ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0x7EA1)),
        report: TrainReport::default(),
        best_val: f32::INFINITY,
        best_params: None,
        te: None,
        entering_ca: None,
        skips_in_row: 0,
        rolls_in_row: 0,
    };
    let center_ids: BTreeSet<tensor::ParamId> = model.ca.centers.iter().copied().collect();

    let train_idx = ds.split.train.clone();
    assert!(!train_idx.is_empty(), "empty training split");

    if opts.resume {
        let state = run.manager.load_latest()?;
        if state.config_json != run.cfg_json {
            return Err(CheckpointError::Mismatch(
                "checkpoint was produced by a different model config".into(),
            )
            .into());
        }
        // The RNG stream and step grouping are functions of the lane
        // schedule: resuming under a different one would silently diverge.
        if state.data_lanes != lanes as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was captured with data_lanes={}, run configured with {lanes}",
                state.data_lanes
            ))
            .into());
        }
        // The enhancer itself is a pure deterministic function of the
        // dataset and config; only its mined term sets evolve, and those
        // come back from the snapshot inside `restore`.
        run.te = cfg
            .ablation
            .te
            .then(|| TextEnhancer::new(ds, cfg.n_clusters, cfg.dim.max(16), cfg.seed));
        run.restore(&state, model, ds)?;
    } else {
        // ---- TE initialisation (Algorithm 1, line 1) ------------------
        if cfg.ablation.te {
            let mut te = TextEnhancer::new(ds, cfg.n_clusters, cfg.dim.max(16), cfg.seed);
            if cfg.ablation.te_init {
                te.bootstrap(cfg.kappa);
            } else {
                te.bootstrap_from_keywords(ds);
            }
            te.relink(ds, cfg.ablation.te_tfidf);
            run.report.te_rounds.push(snapshot(0, &te, ds));
            run.te = Some(te);
        }

        // Term-enhanced cluster-center initialisation (Sec. III-E1):
        // centers start at the mean embedding of each bootstrapped term
        // set. Without TE, the centers are re-seeded from actual node
        // embeddings (k-means++-style spread) after the first warm-up
        // round, once the embeddings carry signal.
        if cfg.ablation.ca {
            if let Some(te) = &run.te {
                init_centers_from_terms(model, ds, te);
            }
        }

        // Output-bias warm start: every layer's prediction head opens at
        // the train-label mean, so round one already matches the mean
        // predictor and gradient steps refine from there instead of
        // climbing to it.
        let label_mean = {
            let labels = ds.labels_of(&train_idx);
            labels.iter().sum::<f32>() / labels.len() as f32
        };
        for layer in &model.layers {
            model.params.value_mut(layer.b_y).fill(label_mean);
        }

        // Best-on-validation model selection: the 2014 validation split
        // exists for exactly this (Sec. IV-A1); heavy-tailed labels make
        // late epochs drift, so we keep the parameters of the best
        // validation round. The initial (warm-started) parameters seed the
        // selection, so a run whose every round validates worse keeps the
        // mean-predictor head.
        if !ds.split.val.is_empty() {
            let seeds = ds.paper_nodes_of(&ds.split.val);
            let preds = model.predict(&ds.graph, &ds.features, &seeds, 0xE7A1);
            run.best_val = rmse(&preds, &ds.labels_of(&ds.split.val));
            run.best_params = Some(model.params.clone());
        }
    }

    // Rollback needs a restore target even before the first periodic
    // checkpoint: capture a run-entry baseline (memory only).
    if matches!(opts.policy, RecoveryPolicy::Rollback { .. }) && !run.manager.has_snapshot() {
        let phase = run
            .entering_ca
            .map_or(Phase::Hgn, |done| Phase::Ca { done });
        let state = run.capture(model, ds, phase);
        run.manager.set_baseline(&state);
    }

    // One long-lived tape for the whole run: reset between batches recycles
    // every node buffer through the graph's pool, so steady-state training
    // steps run allocation-free (see DESIGN.md, "Memory model").
    let mut g = Graph::new();
    // Lane tapes for the batch-parallel path (empty when serial). They
    // live as long as the run so their buffer pools stay warm.
    let mut lane_states: Vec<Lane> = if lanes > 1 {
        (0..lanes).map(|_| Lane::new()).collect()
    } else {
        Vec::new()
    };

    'outer_loop: while run.cur_outer < cfg.outer_iters {
        // A CA-phase snapshot re-enters here with `cur_mini` already at
        // `mini_iters` (skipping the HGN loop below) and the round's
        // epilogue guarded off; the CA loop then starts at `ca_done`.
        let resume_ca_at = run.entering_ca.take();
        // ---- HGN mini-iterations (lines 3-9) --------------------------
        while run.cur_mini < cfg.mini_iters {
            if lanes > 1 {
                // ---- Batch-parallel group (ROADMAP item 2) ------------
                // `group` independent batches share one optimizer step:
                // the coordinator draws every lane's inputs sequentially
                // in lane order (main-RNG consumption is a pure function
                // of the lane schedule, never of the thread count), the
                // lanes evaluate concurrently on the tensor worker pool,
                // and their gradients fold back in fixed lane order.
                let group = lanes.min(cfg.mini_iters - run.cur_mini);
                // `group <= lanes == lane_states.len()` by construction.
                let (lane_group, _) = lane_states.split_at_mut(group);
                for (k, lane) in lane_group.iter_mut().enumerate() {
                    let step = (run.cur_outer * cfg.mini_iters + run.cur_mini + k) as u64;
                    let batch: Vec<usize> = (0..cfg.batch_size)
                        .map(|_| train_idx[run.rng.gen_range(0..train_idx.len())])
                        .collect();
                    let seeds = ds.paper_nodes_of(&batch);
                    let mut labels = Tensor::col_vec(ds.labels_of(&batch));
                    opts.faults.poison_batch(step, labels.as_mut_slice());
                    let blocks =
                        sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut run.rng);
                    lane.labels = dedup_labels(&seeds, &blocks[0].dst_nodes, &labels);
                    lane.blocks = blocks;
                    lane.step = step;
                    lane.rng = ChaCha8Rng::seed_from_u64(run.rng.gen());
                }
                // Each lane touches only its own tape, and every kernel
                // inside a lane runs serially (pool jobs carry the nested
                // guard), so a lane's numbers match a one-at-a-time
                // evaluation bitwise at any `TENSOR_NUM_THREADS`.
                let model_ref: &CateHgn = model;
                let ds_ref: &dblp_sim::Dataset = ds;
                tensor::par::par_for_each_mut(lane_group, |_, lane| {
                    lane.g.reset();
                    let fw = model_ref.forward(
                        &mut lane.g,
                        &ds_ref.graph,
                        &ds_ref.features,
                        &lane.blocks,
                        false,
                    );
                    let (loss, sup, _mi) = model_ref.hgn_loss(
                        &mut lane.g,
                        &fw,
                        &lane.blocks,
                        &lane.labels,
                        &mut lane.rng,
                    );
                    lane.sup = sup;
                    lane.loss_val = lane.g.value(loss).as_slice()[0];
                    if lane.loss_val.is_finite() {
                        lane.g.backward(loss);
                    }
                });

                let failure: Option<NonFiniteSource> =
                    if lane_group.iter().any(|l| !l.loss_val.is_finite()) {
                        Some(NonFiniteSource::Loss)
                    } else {
                        // Fold per-lane gradient sums in fixed lane order;
                        // the BTreeMap then yields an id-sorted list
                        // exactly like `collect_param_grads`, so the clip
                        // norm and Adam arithmetic see a canonical order.
                        let mut folded: BTreeMap<tensor::ParamId, Tensor> = BTreeMap::new();
                        for lane in lane_group.iter_mut() {
                            opts.faults.corrupt_gradients(lane.step, &mut lane.g);
                            for (pid, grad) in lane.g.collect_param_grads() {
                                match folded.get_mut(&pid) {
                                    Some(sum) => {
                                        sum.add_assign(&grad);
                                        lane.g.recycle(grad);
                                    }
                                    None => {
                                        folded.insert(pid, grad);
                                    }
                                }
                            }
                        }
                        let inv = 1.0 / group as f32;
                        let grads: Vec<(tensor::ParamId, Tensor)> = folded
                            .into_iter()
                            .map(|(pid, mut sum)| {
                                sum.scale_assign(inv);
                                (pid, sum)
                            })
                            .collect();
                        match run.opt.step_grads_clipped_guarded(
                            &mut model.params,
                            grads,
                            Some(cfg.clip),
                            &mut g,
                        ) {
                            Ok(_norm) => None,
                            Err(pid) => Some(NonFiniteSource::Gradient {
                                param: model.params.name(pid).to_string(),
                            }),
                        }
                    };

                let Some(source) = failure else {
                    // Account lane losses in lane order — the same f32
                    // accumulation a serial walk of the group would do.
                    for lane in lane_group.iter() {
                        run.tot += lane.loss_val;
                        run.sup_tot += lane.sup;
                    }
                    run.cur_mini += group;
                    if run.landed(model, ds, opts, Phase::Hgn, group)? {
                        return Ok(run.report);
                    }
                    continue;
                };
                // A bad lane abandons the whole group before any state
                // moved (parameters, moments, and the Adam counter are
                // untouched): Skip redraws the group, Rollback behaves
                // exactly as in the serial loop.
                if matches!(
                    run.failed(model, ds, opts, Phase::Hgn, source)?,
                    Recovery::Rollback
                ) {
                    continue 'outer_loop;
                }
                continue;
            }
            // Global step position; stable across resume and rollback
            // replays, which is what makes fault injection deterministic.
            let step = (run.cur_outer * cfg.mini_iters + run.cur_mini) as u64;
            let batch: Vec<usize> = (0..cfg.batch_size)
                .map(|_| train_idx[run.rng.gen_range(0..train_idx.len())])
                .collect();
            let seeds = ds.paper_nodes_of(&batch);
            let mut labels = Tensor::col_vec(ds.labels_of(&batch));
            opts.faults.poison_batch(step, labels.as_mut_slice());
            let blocks = sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut run.rng);
            // Seed dedup can shrink the frontier prefix; relabel to match.
            let labels = dedup_labels(&seeds, &blocks[0].dst_nodes, &labels);
            g.reset();
            let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, false);
            let (loss, sup, _mi) = model.hgn_loss(&mut g, &fw, &blocks, &labels, &mut run.rng);
            let loss_val = g.value(loss).as_slice()[0];

            let failure: Option<NonFiniteSource> = if !loss_val.is_finite() {
                Some(NonFiniteSource::Loss)
            } else {
                g.backward(loss);
                opts.faults.corrupt_gradients(step, &mut g);
                match run
                    .opt
                    .step_clipped_guarded(&mut model.params, &mut g, Some(cfg.clip))
                {
                    Ok(_norm) => None,
                    Err(pid) => Some(NonFiniteSource::Gradient {
                        param: model.params.name(pid).to_string(),
                    }),
                }
            };

            let Some(source) = failure else {
                // The step landed: account it exactly as the historical
                // loop did (same values, same f32 accumulation order).
                run.tot += loss_val;
                run.sup_tot += sup;
                run.cur_mini += 1;
                if run.landed(model, ds, opts, Phase::Hgn, 1)? {
                    return Ok(run.report);
                }
                continue;
            };
            // Skip drops the poisoned batch and redraws the same mini slot;
            // the RNG has advanced past the bad draws.
            if matches!(
                run.failed(model, ds, opts, Phase::Hgn, source)?,
                Recovery::Rollback
            ) {
                continue 'outer_loop;
            }
        }
        if resume_ca_at.is_none() {
            run.report.hgn_losses.push(run.tot / cfg.mini_iters as f32);
            run.report
                .sup_losses
                .push(run.sup_tot / cfg.mini_iters as f32);

            // Warm-start the cluster centers from real node embeddings once
            // the trunk has seen one round of supervision (CA without TE
            // only).
            if run.cur_outer == 0 && cfg.ablation.ca && run.te.is_none() {
                init_centers_from_nodes(model, ds, &mut run.rng);
            }
        }

        // ---- CA center updates (line 10) ------------------------------
        if cfg.ablation.ca {
            let all_nodes: Vec<NodeId> = (0..ds.graph.num_nodes() as u32).map(NodeId).collect();
            let mut ca_i = resume_ca_at.unwrap_or(0);
            while ca_i < cfg.ca_iters {
                let batch: Vec<NodeId> = (0..cfg.batch_size)
                    .map(|_| all_nodes[run.rng.gen_range(0..all_nodes.len())])
                    .collect();
                let blocks = sample_blocks(&ds.graph, &batch, cfg.layers, cfg.fanout, &mut run.rng);
                g.reset();
                let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, true);
                let failure: Option<NonFiniteSource> =
                    if let Some(loss) = model.ca_loss(&mut g, &fw) {
                        if !g.value(loss).as_slice()[0].is_finite() {
                            Some(NonFiniteSource::Loss)
                        } else {
                            g.backward(loss);
                            match run.ca_opt.step_filtered_guarded(
                                &mut model.params,
                                &mut g,
                                Some(cfg.clip),
                                &center_ids,
                            ) {
                                Ok(_) => None,
                                Err(pid) => Some(NonFiniteSource::Gradient {
                                    param: model.params.name(pid).to_string(),
                                }),
                            }
                        }
                    } else {
                        None
                    };
                let Some(source) = failure else {
                    ca_i += 1;
                    if run.landed(model, ds, opts, Phase::Ca { done: ca_i }, 1)? {
                        return Ok(run.report);
                    }
                    continue;
                };
                match run.failed(model, ds, opts, Phase::Ca { done: ca_i }, source)? {
                    // CA iterations carry no loss accounting; a skip
                    // consumes the iteration.
                    Recovery::Skip => ca_i += 1,
                    Recovery::Rollback => continue 'outer_loop,
                }
            }
        }

        // ---- TE refinement (line 11) ----------------------------------
        if let Some(te) = run.te.as_mut() {
            if cfg.ablation.te_iterative {
                refine_terms(model, ds, te, &cfg);
                run.report
                    .te_rounds
                    .push(snapshot(run.cur_outer + 1, te, ds));
            }
        }

        // ---- Validation trace & model selection -----------------------
        if !ds.split.val.is_empty() {
            let seeds = ds.paper_nodes_of(&ds.split.val);
            let preds = model.predict(&ds.graph, &ds.features, &seeds, 0xE7A1);
            let truth = ds.labels_of(&ds.split.val);
            let val = rmse(&preds, &truth);
            run.report.val_rmse.push(val);
            if val < run.best_val {
                run.best_val = val;
                run.best_params = Some(model.params.clone());
            }
        }

        run.cur_outer += 1;
        run.cur_mini = 0;
        run.tot = 0.0;
        run.sup_tot = 0.0;
    }
    if let Some(best) = run.best_params {
        // Install the selected model's values over the live optimizer
        // moments. The moments belong to the optimizer's trajectory, not
        // the selected model, and nothing downstream reads them — which
        // is what lets checkpoints persist the best model values-only.
        let ids: Vec<tensor::ParamId> = model.params.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            model
                .params
                .value_mut(id)
                .as_mut_slice()
                .copy_from_slice(best.value(id).as_slice());
        }
    }
    Ok(run.report)
}

/// Root mean squared error.
pub fn rmse(pred: &[f32], truth: &[f32]) -> f32 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    let s: f32 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum();
    (s / pred.len() as f32).sqrt()
}

/// The sampler dedups seeds; align the label column with the deduped order.
fn dedup_labels(seeds: &[NodeId], deduped: &[NodeId], labels: &Tensor) -> Tensor {
    if seeds.len() == deduped.len() {
        return labels.clone();
    }
    let first_label: BTreeMap<NodeId, f32> = seeds
        .iter()
        .zip(labels.as_slice())
        .map(|(&n, &l)| (n, l))
        .rev()
        .collect();
    Tensor::col_vec(deduped.iter().map(|n| first_label[n]).collect())
}

fn init_centers_from_terms(model: &mut CateHgn, ds: &dblp_sim::Dataset, te: &TextEnhancer) {
    // Collect the union of term nodes, embed them once per layer, then
    // average per cluster.
    let mut all_tokens: Vec<textmine::TokenId> = te.term_sets.iter().flatten().copied().collect();
    all_tokens.sort();
    all_tokens.dedup();
    if all_tokens.is_empty() {
        return;
    }
    let nodes: Vec<NodeId> = all_tokens
        .iter()
        .map(|t| ds.term_nodes[t.index()])
        .collect();
    let embs = model.embed(&ds.graph, &ds.features, &nodes, model.cfg.seed);
    let pos_of: BTreeMap<textmine::TokenId, usize> = all_tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    for (l, emb) in embs.iter().enumerate() {
        let centers = model.params.value_mut(model.ca.centers[l]);
        for (k, set) in te.term_sets.iter().enumerate() {
            if set.is_empty() {
                continue; // keep the random init for empty clusters
            }
            let mut mean = vec![0.0f32; emb.cols()];
            for t in set {
                for (m, &x) in mean.iter_mut().zip(emb.row(pos_of[t])) {
                    *m += x;
                }
            }
            mean.iter_mut().for_each(|m| *m /= set.len() as f32);
            centers.set_row(k, &mean);
        }
    }
}

/// Seeds cluster centers with a k-means++-style selection over the
/// embeddings of a random node sample (all types).
fn init_centers_from_nodes<R: Rng>(model: &mut CateHgn, ds: &dblp_sim::Dataset, rng: &mut R) {
    let k = model.cfg.n_clusters;
    let n = ds.graph.num_nodes();
    let sample: Vec<NodeId> = (0..(8 * k).min(n))
        .map(|_| NodeId(rng.gen_range(0..n as u32)))
        .collect();
    let embs = model.embed(&ds.graph, &ds.features, &sample, model.cfg.seed ^ 0xCE);
    for (l, emb) in embs.iter().enumerate() {
        let mut chosen: Vec<usize> = vec![rng.gen_range(0..sample.len())];
        while chosen.len() < k {
            // Pick the sample point farthest from its nearest chosen center.
            let mut best = (0usize, -1.0f32);
            for i in 0..sample.len() {
                let d = chosen
                    .iter()
                    .map(|&c| {
                        emb.row(i)
                            .iter()
                            .zip(emb.row(c))
                            .map(|(&a, &b)| (a - b) * (a - b))
                            .sum::<f32>()
                    })
                    .fold(f32::INFINITY, f32::min);
                if d > best.1 {
                    best = (i, d);
                }
            }
            chosen.push(best.0);
        }
        let centers = model.params.value_mut(model.ca.centers[l]);
        for (slot, &i) in chosen.iter().enumerate() {
            let row: Vec<f32> = emb.row(i).to_vec();
            centers.set_row(slot, &row);
        }
    }
}

fn refine_terms(
    model: &CateHgn,
    ds: &mut dblp_sim::Dataset,
    te: &mut TextEnhancer,
    cfg: &ModelConfig,
) {
    let active: Vec<textmine::TokenId> = {
        let mut v: Vec<_> = te.active_terms().into_iter().collect();
        v.sort();
        v
    };
    if active.is_empty() {
        return;
    }
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
}

fn snapshot(round: usize, te: &TextEnhancer, ds: &dblp_sim::Dataset) -> TeRound {
    let precision = te.term_precision(ds);
    let sample_terms = te
        .term_sets
        .iter()
        .map(|set| {
            set.iter()
                .take(8)
                .map(|t| ds.vocab.token(*t).to_string())
                .collect()
        })
        .collect();
    TeRound {
        round,
        precision,
        sample_terms,
    }
}

/// Fisher-Yates helper re-exported for harness reproducibility.
pub fn shuffled_indices<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    v.shuffle(rng);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dblp_sim::{Dataset, WorldConfig};

    fn train_variant_on(cfg: ModelConfig, world: &WorldConfig) -> (TrainReport, CateHgn, Dataset) {
        let mut ds = Dataset::full(world, 8);
        let mut model = CateHgn::new(
            cfg,
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let report = train(&mut model, &mut ds);
        (report, model, ds)
    }

    fn train_variant(cfg: ModelConfig) -> (TrainReport, CateHgn, Dataset) {
        train_variant_on(cfg, &WorldConfig::tiny())
    }

    #[test]
    fn training_decreases_loss_hgn() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.ablation = crate::config::Ablation::hgn_only();
        cfg.outer_iters = 3;
        cfg.mini_iters = 10;
        let (report, model, _) = train_variant(cfg);
        assert_eq!(report.hgn_losses.len(), 3);
        assert!(
            report.hgn_losses.last().unwrap() < report.hgn_losses.first().unwrap(),
            "loss should fall: {:?}",
            report.hgn_losses
        );
        assert!(model.params.all_finite(), "training must stay finite");
    }

    #[test]
    fn full_cate_hgn_trains_and_tracks_te() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.outer_iters = 2;
        cfg.mini_iters = 6;
        let (report, model, ds) = train_variant(cfg);
        assert!(!report.te_rounds.is_empty(), "TE rounds recorded");
        assert_eq!(report.te_rounds[0].round, 0);
        assert!(model.params.all_finite());
        // TE must have rebuilt term links.
        assert!(ds.graph.num_links_of(ds.link_types.contains) > 0);
        // Validation RMSE tracked per outer round.
        assert_eq!(report.val_rmse.len(), 2);
        assert!(report.val_rmse.iter().all(|r| r.is_finite()));
        // No recovery machinery fired on a clean run.
        assert_eq!((report.skipped, report.rollbacks), (0, 0));
    }

    #[test]
    fn rmse_known_values() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn dedup_labels_keeps_first_occurrence() {
        let seeds = vec![NodeId(3), NodeId(5), NodeId(3)];
        let deduped = vec![NodeId(3), NodeId(5)];
        let labels = Tensor::col_vec(vec![1.0, 2.0, 9.0]);
        let out = dedup_labels(&seeds, &deduped, &labels);
        assert_eq!(out.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn trained_model_beats_mean_predictor() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.outer_iters = 6;
        cfg.mini_iters = 20;
        cfg.ablation = crate::config::Ablation::hgn_only();
        // The 160-paper tiny world has a ~10-paper validation split —
        // checkpoint selection is a coin flip there. Use a 400-paper world
        // so "learns anything at all" is actually testable.
        let world = WorldConfig {
            n_papers: 400,
            n_authors: 200,
            ..WorldConfig::tiny()
        };
        let (_report, model, ds) = train_variant_on(cfg, &world);
        let seeds = ds.paper_nodes_of(&ds.split.test);
        let preds = model.predict(&ds.graph, &ds.features, &seeds, 1);
        let truth = ds.labels_of(&ds.split.test);
        let model_rmse = rmse(&preds, &truth);
        let train_mean =
            ds.labels_of(&ds.split.train).iter().sum::<f32>() / ds.split.train.len() as f32;
        let mean_preds = vec![train_mean; truth.len()];
        let mean_rmse = rmse(&mean_preds, &truth);
        assert!(
            model_rmse < mean_rmse,
            "HGN ({model_rmse}) should beat the mean predictor ({mean_rmse})"
        );
    }
}
