//! Constraint verification: given a partition and a sensitive column,
//! measure every block against a [`PrivacyModel`] and report the blocks
//! that fail, with the measured and required quantities attached.
//!
//! All checkers are pure measurements — they never modify the partition.
//! The repair that acts on a failing report lives in [`fn@crate::enforce`].

use std::collections::HashMap;

use kanon_core::Partition;

use crate::error::{Error, Result};
use crate::spec::{ClosenessMetric, PrivacyModel};

/// Why one block fails its constraint, with the measured quantity.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationKind {
    /// Distinct l-diversity: the block has `found` distinct sensitive
    /// values but needs `required`.
    Distinct {
        /// Distinct sensitive values present.
        found: usize,
        /// The `l` the model demands.
        required: usize,
    },
    /// Entropy l-diversity: the block's sensitive entropy (nats) is
    /// `found` but must reach `required` (= ln l).
    Entropy {
        /// Measured Shannon entropy of the block's sensitive values.
        found: f64,
        /// The `ln l` threshold.
        required: f64,
    },
    /// t-closeness: the block's sensitive distribution sits `found` away
    /// from the table's, over the `limit`.
    Closeness {
        /// Measured distance in `[0, 1]`.
        found: f64,
        /// The `t` the model allows.
        limit: f64,
    },
}

/// One failing block.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Index of the block in the partition.
    pub block: usize,
    /// Rows in the block.
    pub rows: usize,
    /// What failed, and by how much.
    pub kind: ViolationKind,
}

/// The outcome of verifying one release against one model.
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintReport {
    /// The model that was checked.
    pub model: PrivacyModel,
    /// Blocks examined.
    pub blocks: usize,
    /// Blocks that failed, in block order. Empty means the release holds.
    pub violations: Vec<Violation>,
}

impl ConstraintReport {
    /// True when every block satisfies the constraint.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human summary (`"l-distinct: 3 of 40 blocks violate"`).
    #[must_use]
    pub fn summary(&self) -> String {
        if self.ok() {
            format!(
                "{}: all {} blocks satisfy the constraint",
                self.model.name(),
                self.blocks
            )
        } else {
            format!(
                "{}: {} of {} blocks violate",
                self.model.name(),
                self.violations.len(),
                self.blocks
            )
        }
    }
}

/// Counts each sensitive value within one block.
fn block_counts(sensitive: &[u32], block: &[u32]) -> HashMap<u32, usize> {
    let mut counts = HashMap::new();
    for &r in block {
        *counts.entry(sensitive[r as usize]).or_insert(0) += 1;
    }
    counts
}

/// Shannon entropy (nats) of a count map.
#[must_use]
pub fn entropy_of_counts(counts: &HashMap<u32, usize>) -> f64 {
    entropy(counts.values().sum(), counts.values().copied())
}

/// Shannon entropy (nats) of `counts`, which sum to `total` (shared by
/// the checker and the repair loop's count lists).
pub(crate) fn entropy(total: usize, counts: impl Iterator<Item = usize>) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .map(|c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// The whole table's sensitive distribution over a fixed domain order.
/// Returned as `(domain, probabilities)` with the domain sorted ascending
/// by code, which is what the ordered-EMD metric treats as adjacency.
fn global_distribution(sensitive: &[u32]) -> (Vec<u32>, Vec<f64>) {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &v in sensitive {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut domain: Vec<u32> = counts.keys().copied().collect();
    domain.sort_unstable();
    let n = sensitive.len() as f64;
    let probs = domain.iter().map(|v| counts[v] as f64 / n).collect();
    (domain, probs)
}

/// Distance between a block's distribution and the global one, per metric.
/// Both distributions are expressed over the same `domain` order.
pub(crate) fn distribution_distance(
    domain_len: usize,
    block_probs: &[f64],
    global_probs: &[f64],
    metric: ClosenessMetric,
) -> f64 {
    match metric {
        ClosenessMetric::Variational => {
            0.5 * block_probs
                .iter()
                .zip(global_probs)
                .map(|(p, q)| (p - q).abs())
                .sum::<f64>()
        }
        ClosenessMetric::Emd => {
            // Ordered EMD with unit adjacent ground distance, normalized by
            // the domain span so the result stays in [0, 1].
            if domain_len <= 1 {
                return 0.0;
            }
            let mut carry = 0.0;
            let mut total = 0.0;
            for (p, q) in block_probs.iter().zip(global_probs) {
                carry += p - q;
                total += carry.abs();
            }
            total / (domain_len - 1) as f64
        }
    }
}

fn check_arity(partition: &Partition, sensitive: &[u32]) -> Result<()> {
    if sensitive.len() != partition.n_rows() {
        return Err(Error::SensitiveMismatch {
            values: sensitive.len(),
            rows: partition.n_rows(),
        });
    }
    Ok(())
}

/// Verifies distinct l-diversity: every block carries ≥ `l` distinct
/// sensitive values.
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn verify_l_diversity(
    partition: &Partition,
    sensitive: &[u32],
    l: usize,
) -> Result<ConstraintReport> {
    check_arity(partition, sensitive)?;
    let violations = partition
        .blocks()
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let found = block_counts(sensitive, b).len();
            (found < l).then_some(Violation {
                block: i,
                rows: b.len(),
                kind: ViolationKind::Distinct { found, required: l },
            })
        })
        .collect();
    Ok(ConstraintReport {
        model: PrivacyModel::Distinct { l },
        blocks: partition.n_blocks(),
        violations,
    })
}

/// Verifies entropy l-diversity: every block's sensitive entropy ≥ ln `l`.
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn verify_entropy_l_diversity(
    partition: &Partition,
    sensitive: &[u32],
    l: f64,
) -> Result<ConstraintReport> {
    check_arity(partition, sensitive)?;
    let required = l.ln();
    let violations = partition
        .blocks()
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let found = entropy_of_counts(&block_counts(sensitive, b));
            (found < required - 1e-12).then_some(Violation {
                block: i,
                rows: b.len(),
                kind: ViolationKind::Entropy { found, required },
            })
        })
        .collect();
    Ok(ConstraintReport {
        model: PrivacyModel::Entropy { l },
        blocks: partition.n_blocks(),
        violations,
    })
}

/// Verifies t-closeness: every block's sensitive distribution lies within
/// `t` of the whole table's, under the given metric.
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn verify_t_closeness(
    partition: &Partition,
    sensitive: &[u32],
    t: f64,
    metric: ClosenessMetric,
) -> Result<ConstraintReport> {
    check_arity(partition, sensitive)?;
    let (domain, global_probs) = global_distribution(sensitive);
    let index: HashMap<u32, usize> = domain.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let violations = partition
        .blocks()
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let found = block_distance(sensitive, b, &index, &global_probs, metric);
            (found > t + 1e-12).then_some(Violation {
                block: i,
                rows: b.len(),
                kind: ViolationKind::Closeness { found, limit: t },
            })
        })
        .collect();
    Ok(ConstraintReport {
        model: PrivacyModel::Closeness { t, metric },
        blocks: partition.n_blocks(),
        violations,
    })
}

/// Distance of one block from the global distribution (shared by the
/// checker and the repair loop's improvement probe).
pub(crate) fn block_distance(
    sensitive: &[u32],
    block: &[u32],
    index: &HashMap<u32, usize>,
    global_probs: &[f64],
    metric: ClosenessMetric,
) -> f64 {
    let mut probs = vec![0.0; global_probs.len()];
    let weight = 1.0 / block.len() as f64;
    for &r in block {
        probs[index[&sensitive[r as usize]]] += weight;
    }
    distribution_distance(global_probs.len(), &probs, global_probs, metric)
}

/// Verifies a release against any model. [`PrivacyModel::KOnly`] always
/// passes (k-feasibility is the partition's own invariant, enforced by
/// `Partition::new` upstream).
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row
/// (never for `KOnly`, which ignores the sensitive column).
pub fn verify(
    model: PrivacyModel,
    partition: &Partition,
    sensitive: &[u32],
) -> Result<ConstraintReport> {
    match model {
        PrivacyModel::KOnly => Ok(ConstraintReport {
            model,
            blocks: partition.n_blocks(),
            violations: Vec::new(),
        }),
        PrivacyModel::Distinct { l } => verify_l_diversity(partition, sensitive, l),
        PrivacyModel::Entropy { l } => verify_entropy_l_diversity(partition, sensitive, l),
        PrivacyModel::Closeness { t, metric } => {
            verify_t_closeness(partition, sensitive, t, metric)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(blocks: Vec<Vec<u32>>, n: usize) -> Partition {
        Partition::new_unchecked(blocks, n)
    }

    #[test]
    fn distinct_diversity_flags_uniform_blocks() {
        let p = partition(vec![vec![0, 1], vec![2, 3]], 4);
        let sensitive = vec![5, 5, 1, 2];
        let report = verify_l_diversity(&p, &sensitive, 2).unwrap();
        assert!(!report.ok());
        assert_eq!(report.blocks, 2);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].block, 0);
        assert_eq!(
            report.violations[0].kind,
            ViolationKind::Distinct {
                found: 1,
                required: 2
            }
        );
        assert!(report.summary().contains("1 of 2"));
        assert!(verify_l_diversity(&p, &sensitive, 1).unwrap().ok());
    }

    #[test]
    fn entropy_diversity_is_stricter_than_distinct() {
        // Block {0,1,2,3} has values [7,7,7,1]: 2 distinct, but entropy
        // 0.562 < ln 2 — skewed blocks fail the entropy form.
        let p = partition(vec![vec![0, 1, 2, 3]], 4);
        let sensitive = vec![7, 7, 7, 1];
        assert!(verify_l_diversity(&p, &sensitive, 2).unwrap().ok());
        let report = verify_entropy_l_diversity(&p, &sensitive, 2.0).unwrap();
        assert!(!report.ok());
        match report.violations[0].kind {
            ViolationKind::Entropy { found, required } => {
                assert!(found < required);
                assert!((required - 2.0f64.ln()).abs() < 1e-12);
            }
            ref other => panic!("expected Entropy, got {other:?}"),
        }
        // A balanced block passes.
        let balanced = vec![7, 7, 1, 1];
        assert!(verify_entropy_l_diversity(&p, &balanced, 2.0).unwrap().ok());
    }

    #[test]
    fn variational_closeness_measures_skew() {
        // Global: half 0s, half 1s. Block 0 is pure 0s: distance 0.5.
        let p = partition(vec![vec![0, 1], vec![2, 3]], 4);
        let sensitive = vec![0, 0, 1, 1];
        let tight = verify_t_closeness(&p, &sensitive, 0.3, ClosenessMetric::Variational).unwrap();
        assert_eq!(tight.violations.len(), 2);
        match tight.violations[0].kind {
            ViolationKind::Closeness { found, limit } => {
                assert!((found - 0.5).abs() < 1e-12);
                assert!((limit - 0.3).abs() < 1e-12);
            }
            ref other => panic!("expected Closeness, got {other:?}"),
        }
        let loose = verify_t_closeness(&p, &sensitive, 0.5, ClosenessMetric::Variational).unwrap();
        assert!(loose.ok());
    }

    #[test]
    fn emd_sees_order_where_variational_does_not() {
        // Domain {0, 1, 2}, global uniform. Block {0, 1} leans to one end
        // of the ordered domain; block {0, 2} is symmetric around the
        // middle. Variational distance calls them equally wrong; EMD
        // prices the one-sided lean higher, because its missing mass must
        // travel the whole span.
        let sensitive = vec![0, 1, 2, 0, 1, 2];
        let emd_of = |blocks: Vec<Vec<u32>>| {
            let p = partition(blocks, 6);
            verify_t_closeness(&p, &sensitive, 0.0, ClosenessMetric::Emd)
                .unwrap()
                .violations
                .iter()
                .find(|v| v.block == 0)
                .map(|v| match v.kind {
                    ViolationKind::Closeness { found, .. } => found,
                    _ => unreachable!(),
                })
                .unwrap()
        };
        let lean = emd_of(vec![vec![0, 1], vec![2, 3, 4, 5]]); // values {0, 1}
        let symmetric = emd_of(vec![vec![0, 2], vec![1, 3, 4, 5]]); // values {0, 2}
        assert!((lean - 0.25).abs() < 1e-12, "lean {lean}");
        assert!(
            (symmetric - 1.0 / 6.0).abs() < 1e-12,
            "symmetric {symmetric}"
        );
        assert!(symmetric < lean);
        // Variational cannot separate them.
        let var_of = |blocks: Vec<Vec<u32>>| {
            let p = partition(blocks, 6);
            verify_t_closeness(&p, &sensitive, 0.0, ClosenessMetric::Variational)
                .unwrap()
                .violations
                .iter()
                .find(|v| v.block == 0)
                .map(|v| match v.kind {
                    ViolationKind::Closeness { found, .. } => found,
                    _ => unreachable!(),
                })
                .unwrap()
        };
        let a = var_of(vec![vec![0, 1], vec![2, 3, 4, 5]]);
        let b = var_of(vec![vec![0, 2], vec![1, 3, 4, 5]]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn single_value_domain_is_always_close() {
        let p = partition(vec![vec![0, 1], vec![2, 3]], 4);
        let sensitive = vec![9, 9, 9, 9];
        for metric in [ClosenessMetric::Variational, ClosenessMetric::Emd] {
            assert!(verify_t_closeness(&p, &sensitive, 0.0, metric)
                .unwrap()
                .ok());
        }
    }

    #[test]
    fn verify_dispatches_and_k_only_always_passes() {
        let p = partition(vec![vec![0, 1], vec![2, 3]], 4);
        let sensitive = vec![5, 5, 1, 2];
        assert!(verify(PrivacyModel::KOnly, &p, &sensitive).unwrap().ok());
        assert!(!verify(PrivacyModel::Distinct { l: 2 }, &p, &sensitive)
            .unwrap()
            .ok());
        assert!(!verify(PrivacyModel::Entropy { l: 2.0 }, &p, &sensitive)
            .unwrap()
            .ok());
        assert!(!verify(
            PrivacyModel::Closeness {
                t: 0.1,
                metric: ClosenessMetric::Emd
            },
            &p,
            &sensitive
        )
        .unwrap()
        .ok());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let p = partition(vec![vec![0, 1]], 2);
        assert!(matches!(
            verify_l_diversity(&p, &[1], 2),
            Err(Error::SensitiveMismatch { values: 1, rows: 2 })
        ));
        assert!(verify_entropy_l_diversity(&p, &[1], 2.0).is_err());
        assert!(verify_t_closeness(&p, &[1], 0.5, ClosenessMetric::Emd).is_err());
    }
}
