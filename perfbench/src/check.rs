//! Output checks. Each check returns a description of the first problem it
//! finds; the run is correct only if no check fails.

use crate::api::{self, NodeId, Ranking, Recommendation, Tensor};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Collects check failures across a run.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub checked: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, res: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = res {
            // Keep the report short: the first few failures say enough.
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn require(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.record(what, if ok { Ok(()) } else { Err(detail()) });
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Structural properties every ranking must have: at most `k` entries,
/// the query itself excluded, no duplicates, only candidates, finite
/// scores, and non-increasing under `rank_desc`.
pub fn ranking(
    rec: &[Recommendation],
    query: Option<NodeId>,
    candidates: &BTreeSet<NodeId>,
    k: usize,
) -> Result<(), String> {
    if rec.len() > k {
        return Err(format!("{} entries, k = {k}", rec.len()));
    }
    let want =
        k.min(candidates.len() - usize::from(query.is_some_and(|q| candidates.contains(&q))));
    if rec.len() != want {
        return Err(format!("{} entries, expected {want}", rec.len()));
    }
    let mut seen = BTreeSet::new();
    for r in rec {
        if Some(r.node) == query {
            return Err(format!("query {} ranked for itself", r.node.0));
        }
        if !seen.insert(r.node) {
            return Err(format!("node {} ranked twice", r.node.0));
        }
        if !candidates.contains(&r.node) {
            return Err(format!("node {} is not a candidate", r.node.0));
        }
        if !r.score.is_finite() {
            return Err(format!("node {} has score {}", r.node.0, r.score));
        }
    }
    if let Some(w) = rec
        .windows(2)
        .find(|w| api::rank_desc(&w[0], &w[1]) == Ordering::Greater)
    {
        return Err(format!(
            "out of order: ({}, {}) before ({}, {})",
            w[0].node.0, w[0].score, w[1].node.0, w[1].score
        ));
    }
    Ok(())
}

/// Cached-candidate embeddings with their row index, for the oracle.
pub struct Oracle {
    pub candidates: Vec<NodeId>,
    pub emb: Tensor,
}

impl Oracle {
    /// The reference ranking of one score row: every candidate except
    /// `exclude`, fully sorted under `rank_desc`, cut to `k`.
    fn rank(&self, scores: &[f32], exclude: Option<NodeId>, k: usize) -> Ranking {
        let mut all: Ranking = scores
            .iter()
            .zip(&self.candidates)
            .filter(|(_, &n)| Some(n) != exclude)
            .map(|(&score, &node)| Recommendation { node, score })
            .collect();
        all.sort_by(api::rank_desc);
        all.truncate(k);
        all
    }

    /// Transductive reference: the query's cached row times every
    /// candidate row (`1 x d` `matmul_tb`), then a full sort.
    pub fn transductive(&self, query: NodeId, k: usize) -> Result<Ranking, String> {
        let pos = self
            .candidates
            .iter()
            .position(|&c| c == query)
            .ok_or_else(|| format!("query {} is not a candidate", query.0))?;
        let q = Tensor::from_vec(1, self.emb.cols(), self.emb.row(pos).to_vec());
        let scores = api::matmul_tb(&q, &self.emb);
        Ok(self.rank(scores.row(0), Some(query), k))
    }

    /// Cold-start reference: `relu(x W + b)` times every candidate row.
    pub fn cold(&self, h0: &Tensor, k: usize) -> Ranking {
        let scores = api::matmul_tb(h0, &self.emb);
        self.rank(scores.row(0), None, k)
    }
}

/// Bitwise equality of two rankings (node ids and score bits).
pub fn same_bits(got: &[Recommendation], want: &[Recommendation]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} entries, oracle has {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.node != w.node || g.score.to_bits() != w.score.to_bits() {
            return Err(format!(
                "rank {i}: ({}, {:e}) but oracle has ({}, {:e})",
                g.node.0, g.score, w.node.0, w.score
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32, score: f32) -> Recommendation {
        Recommendation {
            node: NodeId(node),
            score,
        }
    }

    fn cands(n: u32) -> BTreeSet<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn good() -> Vec<Recommendation> {
        vec![rec(3, 0.9), rec(1, 0.5), rec(2, 0.5)]
    }

    #[test]
    fn a_valid_ranking_passes() {
        assert_eq!(ranking(&good(), Some(NodeId(0)), &cands(6), 3), Ok(()));
        // Fewer candidates than k: every other candidate is ranked.
        assert_eq!(ranking(&good(), Some(NodeId(0)), &cands(4), 5), Ok(()));
    }

    #[test]
    fn corrupted_rankings_fail() {
        let c = cands(6);
        let q = Some(NodeId(0));
        let mut dup = good();
        dup[2] = rec(3, 0.5);
        assert!(ranking(&dup, q, &c, 3).is_err(), "duplicate");
        let mut unordered = good();
        unordered.swap(0, 1);
        assert!(ranking(&unordered, q, &c, 3).is_err(), "order");
        let mut tie_order = good();
        tie_order.swap(1, 2);
        assert!(ranking(&tie_order, q, &c, 3).is_err(), "tie broken by id");
        let mut has_query = good();
        has_query[2] = rec(0, 0.1);
        assert!(ranking(&has_query, q, &c, 3).is_err(), "query");
        let mut outsider = good();
        outsider[2] = rec(9, 0.1);
        assert!(ranking(&outsider, q, &c, 3).is_err(), "candidate");
        let mut nan = good();
        nan[2] = rec(4, f32::NAN);
        assert!(ranking(&nan, q, &c, 3).is_err(), "finite");
        let mut long = good();
        long.push(rec(4, 0.1));
        assert!(ranking(&long, q, &c, 3).is_err(), "k");
        assert!(ranking(&good()[..2], q, &c, 3).is_err(), "short");
    }

    fn oracle() -> Oracle {
        Oracle {
            candidates: vec![NodeId(10), NodeId(11), NodeId(12), NodeId(13)],
            emb: Tensor::from_vec(4, 2, vec![1.0, 0.0, 0.5, 0.5, 0.0, 1.0, 2.0, 0.0]),
        }
    }

    #[test]
    fn oracle_ranks_by_dot_product_and_excludes_the_query() {
        let o = oracle();
        let r = o.transductive(NodeId(10), 2).unwrap();
        assert_eq!(r, vec![rec(13, 2.0), rec(11, 0.5)]);
        let h0 = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        assert_eq!(o.cold(&h0, 2), vec![rec(12, 1.0), rec(11, 0.5)]);
        assert!(o.transductive(NodeId(99), 2).is_err());
    }

    #[test]
    fn a_wrong_score_or_node_fails_the_bitwise_check() {
        let want = oracle().transductive(NodeId(10), 2).unwrap();
        assert_eq!(same_bits(&want, &want), Ok(()));
        let mut score = want.clone();
        score[1].score = f32::from_bits(score[1].score.to_bits() + 1);
        assert!(same_bits(&score, &want).is_err());
        let mut node = want.clone();
        node[0].node = NodeId(12);
        assert!(same_bits(&node, &want).is_err());
        assert!(same_bits(&want[..1], &want).is_err());
    }
}
