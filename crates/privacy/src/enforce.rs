//! Constraint repair: greedy merging that takes a k-feasible partition
//! and merges blocks until every block satisfies the requested
//! [`PrivacyModel`], preserving the ≥ k floor throughout (a union of
//! blocks of size ≥ k has size ≥ k).
//!
//! This absorbs the former `kanon-core::diversity` stub and generalizes
//! it: the same merge loop now drives distinct l-diversity, entropy
//! l-diversity, and t-closeness, differing only in how a candidate
//! merge's "improvement" is scored. Global feasibility is checked up
//! front — a table whose sensitive column cannot possibly satisfy the
//! constraint fails fast with [`Error::Unreachable`] instead of merging
//! everything into one block and failing late.
//!
//! The loop keeps its state across merges: every block carries its
//! sensitive-value counts, its exact diameter and whether it violates the
//! model, and a merge updates only the block it grows. Scoring a candidate
//! union reads two count lists instead of the union's rows, and its
//! diameter is `max(diam A, diam B, cross-pair maximum)`, computed only
//! for candidates that can still beat the best partner found so far.

use std::cmp::Ordering;
use std::collections::HashMap;

use kanon_core::dataset::Dataset;
use kanon_core::diameter::diameter;
use kanon_core::metric::hamming;
use kanon_core::Partition;

use crate::check::{self, entropy, entropy_of_counts, verify, ConstraintReport};
use crate::error::{Error, Result};
use crate::spec::PrivacyModel;

/// Outcome of [`fn@enforce`].
#[derive(Clone, Debug)]
pub struct EnforceOutcome {
    /// The repaired partition (k-feasible, constraint-satisfying).
    pub partition: Partition,
    /// Number of merges performed (0 when the input already satisfied).
    pub merges: usize,
    /// Suppression cost before repair.
    pub cost_before: usize,
    /// Suppression cost after repair (≥ before; stronger privacy is not
    /// free).
    pub cost_after: usize,
    /// The verification report of the *input* partition — what the repair
    /// had to fix.
    pub report_before: ConstraintReport,
}

/// A block's sensitive histogram: `(domain index, count)` pairs ascending
/// by index, zero counts left out. Lists over all blocks hold at most n
/// pairs, whatever the domain size.
type Counts = Vec<(u32, u32)>;

/// The sum of two [`Counts`] lists, yielded in ascending index order
/// without materializing it.
struct Union<'a> {
    a: &'a [(u32, u32)],
    b: &'a [(u32, u32)],
}

impl Iterator for Union<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        match (self.a.split_first(), self.b.split_first()) {
            (None, None) => None,
            (Some((&x, rest)), None) => {
                self.a = rest;
                Some(x)
            }
            (None, Some((&y, rest))) => {
                self.b = rest;
                Some(y)
            }
            (Some((&x, rest_a)), Some((&y, rest_b))) => match x.0.cmp(&y.0) {
                Ordering::Less => {
                    self.a = rest_a;
                    Some(x)
                }
                Ordering::Greater => {
                    self.b = rest_b;
                    Some(y)
                }
                Ordering::Equal => {
                    self.a = rest_a;
                    self.b = rest_b;
                    Some((x.0, x.1 + y.1))
                }
            },
        }
    }
}

/// Scores blocks against one model from their count lists: higher is
/// better for the diversity models, so closeness distances are negated to
/// share the "improvement means the score rose" convention. Thresholds
/// and formulas are the checker's ([`verify`]); closeness probabilities
/// are `count × (1/len)` where the checker adds `1/len` once per row, a
/// rounding difference far below the `1e-12` margins.
///
/// One block is *loaded* at a time, spread densely over the domain, so a
/// union with it is scored without materializing it: distinct values in
/// `O(|other list|)`, entropy in `O(|both lists|)`, closeness in
/// `O(|domain|)`.
struct Scorer<'a> {
    model: PrivacyModel,
    global_probs: &'a [f64],
    /// The loaded block's counts over the whole domain (zero elsewhere).
    loaded: Vec<u32>,
    /// The loaded block's count list.
    list: Counts,
    /// The loaded block's row count.
    len: usize,
    /// Scratch distribution over the whole domain (closeness only).
    probs: Vec<f64>,
}

impl<'a> Scorer<'a> {
    fn new(model: PrivacyModel, global_probs: &'a [f64]) -> Self {
        Scorer {
            model,
            global_probs,
            loaded: vec![0; global_probs.len()],
            list: Vec::new(),
            len: 0,
            probs: vec![0.0; global_probs.len()],
        }
    }

    /// Makes the block of `len` rows with count list `counts` the loaded one.
    fn load(&mut self, len: usize, counts: &[(u32, u32)]) {
        for &(i, _) in &self.list {
            self.loaded[i as usize] = 0;
        }
        for &(i, c) in counts {
            self.loaded[i as usize] = c;
        }
        self.list.clear();
        self.list.extend_from_slice(counts);
        self.len = len;
    }

    /// The score of the loaded block merged with a block of `len` rows and
    /// count list `other` (`0` and `&[]`: the loaded block alone).
    fn score_union(&mut self, len: usize, other: &[(u32, u32)]) -> f64 {
        let len = self.len + len;
        match self.model {
            PrivacyModel::KOnly => 0.0,
            PrivacyModel::Distinct { .. } => {
                let new = other
                    .iter()
                    .filter(|&&(i, _)| self.loaded[i as usize] == 0)
                    .count();
                (self.list.len() + new) as f64
            }
            PrivacyModel::Entropy { .. } => {
                let union = Union {
                    a: &self.list,
                    b: other,
                };
                entropy(len, union.map(|(_, c)| c as usize))
            }
            PrivacyModel::Closeness { metric, .. } => {
                for (p, &c) in self.probs.iter_mut().zip(&self.loaded) {
                    *p = f64::from(c);
                }
                for &(i, c) in other {
                    self.probs[i as usize] += f64::from(c);
                }
                let weight = 1.0 / len as f64;
                for p in &mut self.probs {
                    *p *= weight;
                }
                let domain = self.global_probs.len();
                -check::distribution_distance(domain, &self.probs, self.global_probs, metric)
            }
        }
    }

    /// Whether a block with this score violates the model.
    fn violates(&self, score: f64) -> bool {
        match self.model {
            PrivacyModel::KOnly => false,
            PrivacyModel::Distinct { l } => score < l as f64,
            PrivacyModel::Entropy { l } => score < l.ln() - 1e-12,
            PrivacyModel::Closeness { t, .. } => -score > t + 1e-12,
        }
    }
}

/// Largest Hamming distance between a row of `a` and a row of `b`, except
/// that it returns as soon as that maximum reaches `stop`.
fn cross_diameter(ds: &Dataset, a: &[u32], b: &[u32], stop: usize) -> usize {
    let mut best = 0;
    for &x in a {
        let row = ds.row(x as usize);
        for &y in b {
            let d = hamming(row, ds.row(y as usize));
            if d > best {
                best = d;
                if best >= stop {
                    return best;
                }
            }
        }
    }
    best
}

/// Checks that *some* partition of this table can satisfy the model —
/// merging everything into one block realizes the global distribution, so
/// the global column decides feasibility.
fn check_reachable(model: PrivacyModel, sensitive: &[u32]) -> Result<()> {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &v in sensitive {
        *counts.entry(v).or_insert(0) += 1;
    }
    match model {
        PrivacyModel::KOnly | PrivacyModel::Closeness { .. } => Ok(()),
        PrivacyModel::Distinct { l } => {
            if counts.len() < l {
                return Err(Error::Unreachable(format!(
                    "table has only {} distinct sensitive values; l = {l} is unreachable",
                    counts.len()
                )));
            }
            Ok(())
        }
        PrivacyModel::Entropy { l } => {
            let h = entropy_of_counts(&counts);
            if h + 1e-12 < l.ln() {
                return Err(Error::Unreachable(format!(
                    "table's sensitive entropy {h:.4} is below ln({l}) = {:.4}; \
                     entropy-l = {l} is unreachable",
                    l.ln()
                )));
            }
            Ok(())
        }
    }
}

/// Greedily repairs a k-feasible partition until every block satisfies
/// `model`: each violating block merges with the quasi-identifier-nearest
/// partner whose union improves the block's constraint score, falling
/// back to the overall nearest when no single merge improves — repeated
/// merging must eventually reach the (pre-checked reachable) global
/// distribution.
///
/// The violator is always the first violating block; among the partners
/// eligible for it (the improving ones, or all when none improves) the one
/// whose union has the smallest diameter wins, ties going to the lower
/// block index. The absorbed block is `swap_remove`d from the higher of
/// the two indices.
///
/// # Cost
/// With `n` rows, `m` quasi-identifier columns and sensitive domain `D`:
/// `O(n·m + Σ|b|²·m)` once for the input's counts and diameters, then per
/// merge `O(blocks · D)` to score every candidate union from its count
/// lists, plus cross-pair Hamming work only for candidates whose
/// `max(diam violator, diam candidate)` is still below the best union
/// diameter found so far, each stopped once it reaches that best. Memory
/// is `O(n)`: count lists hold only the values a block contains.
///
/// # Errors
/// * [`Error::SensitiveMismatch`] on a sensitive-column arity mismatch;
/// * [`Error::Unreachable`] when no partition of this table satisfies the
///   model (checked before any merging).
pub fn enforce(
    ds: &Dataset,
    partition: &Partition,
    sensitive: &[u32],
    model: PrivacyModel,
) -> Result<EnforceOutcome> {
    let report_before = verify(model, partition, sensitive)?;
    let cost_before = partition.anonymization_cost(ds);
    if report_before.ok() {
        return Ok(EnforceOutcome {
            partition: partition.clone(),
            merges: 0,
            cost_before,
            cost_after: cost_before,
            report_before,
        });
    }
    check_reachable(model, sensitive)?;

    // Fixed domain order: ascending code, which ordered EMD treats as
    // adjacency.
    let mut domain: Vec<u32> = sensitive.to_vec();
    domain.sort_unstable();
    domain.dedup();
    let code = |v: u32| domain.binary_search(&v).expect("a domain value") as u32;
    let n = sensitive.len() as f64;
    let mut global_counts = vec![0usize; domain.len()];
    for &v in sensitive {
        global_counts[code(v) as usize] += 1;
    }
    let global_probs: Vec<f64> = global_counts.iter().map(|&c| c as f64 / n).collect();
    let mut scorer = Scorer::new(model, &global_probs);

    let mut blocks: Vec<Vec<u32>> = partition.blocks().to_vec();
    let mut counts: Vec<Counts> = Vec::with_capacity(blocks.len());
    let mut diameters: Vec<usize> = Vec::with_capacity(blocks.len());
    let mut violating: Vec<bool> = Vec::with_capacity(blocks.len());
    for block in &blocks {
        let mut codes: Vec<u32> = block.iter().map(|&r| code(sensitive[r as usize])).collect();
        codes.sort_unstable();
        let mut list: Counts = Vec::new();
        for c in codes {
            match list.last_mut() {
                Some((last, count)) if *last == c => *count += 1,
                _ => list.push((c, 1)),
            }
        }
        scorer.load(block.len(), &list);
        let score = scorer.score_union(0, &[]);
        violating.push(scorer.violates(score));
        counts.push(list);
        let rows: Vec<usize> = block.iter().map(|&r| r as usize).collect();
        diameters.push(diameter(ds, &rows));
    }

    let mut scores: Vec<f64> = Vec::with_capacity(blocks.len());
    let mut merges = 0usize;
    while let Some(violator) = violating.iter().position(|&v| v) {
        if blocks.len() < 2 {
            // Unreachable in practice: feasibility was pre-checked and a
            // single block realizes the global distribution.
            return Err(Error::Unreachable(
                "cannot repair: only one block remains".into(),
            ));
        }
        scorer.load(blocks[violator].len(), &counts[violator]);
        let base = scorer.score_union(0, &[]);
        scores.clear();
        for (block, other) in blocks.iter().zip(&counts) {
            scores.push(scorer.score_union(block.len(), other));
        }
        let improves = |i: usize| i != violator && scores[i] > base + 1e-12;
        let any_improves = (0..blocks.len()).any(improves);

        // Nearest eligible partner: a candidate whose larger own diameter
        // already reaches the best union diameter cannot beat it.
        let mut best: Option<(usize, usize)> = None; // (union diameter, index)
        for i in 0..blocks.len() {
            if i == violator || improves(i) != any_improves {
                continue;
            }
            let lower = diameters[violator].max(diameters[i]);
            if best.is_some_and(|(d, _)| lower >= d) {
                continue;
            }
            let stop = best.map_or(ds.n_cols(), |(d, _)| d);
            let d = lower.max(cross_diameter(ds, &blocks[violator], &blocks[i], stop));
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, i));
            }
        }
        let (union_diameter, partner) = best.expect("at least two blocks");

        // Remove the higher index via swap_remove so the lower stays
        // valid, then fold the absorbed block into the survivor.
        let (hi, lo) = if partner > violator {
            (partner, violator)
        } else {
            (violator, partner)
        };
        let merged: Counts = Union {
            a: &counts[violator],
            b: &counts[partner],
        }
        .collect();
        let survivor_violates = scorer.violates(scores[partner]);
        let absorbed = blocks.swap_remove(hi);
        blocks[lo].extend(absorbed);
        counts.swap_remove(hi);
        counts[lo] = merged;
        diameters.swap_remove(hi);
        diameters[lo] = union_diameter;
        violating.swap_remove(hi);
        violating[lo] = survivor_violates;
        merges += 1;
    }

    let repaired = Partition::new_unchecked(blocks, ds.n_rows());
    let cost_after = repaired.anonymization_cost(ds);
    Ok(EnforceOutcome {
        partition: repaired,
        merges,
        cost_before,
        cost_after,
        report_before,
    })
}

/// How one block scores against the model, recounted from its rows (the
/// scan oracle's scorer).
#[cfg(test)]
fn block_score(
    model: PrivacyModel,
    sensitive: &[u32],
    block: &[u32],
    index: &HashMap<u32, usize>,
    global_probs: &[f64],
) -> f64 {
    let counts = || {
        let mut c: HashMap<u32, usize> = HashMap::new();
        for &r in block {
            *c.entry(sensitive[r as usize]).or_insert(0) += 1;
        }
        c
    };
    match model {
        PrivacyModel::KOnly => 0.0,
        PrivacyModel::Distinct { .. } => counts().len() as f64,
        PrivacyModel::Entropy { .. } => entropy_of_counts(&counts()),
        PrivacyModel::Closeness { metric, .. } => {
            -check::block_distance(sensitive, block, index, global_probs, metric)
        }
    }
}

/// The repair loop [`fn@enforce`] replaced, kept as its test oracle: every
/// merge re-verifies the whole partition to find the violator, and every
/// candidate union is rescored and its diameter recomputed from its rows.
#[cfg(test)]
fn enforce_scan(
    ds: &Dataset,
    partition: &Partition,
    sensitive: &[u32],
    model: PrivacyModel,
) -> Result<EnforceOutcome> {
    let report_before = verify(model, partition, sensitive)?;
    let cost_before = partition.anonymization_cost(ds);
    if report_before.ok() {
        return Ok(EnforceOutcome {
            partition: partition.clone(),
            merges: 0,
            cost_before,
            cost_after: cost_before,
            report_before,
        });
    }
    check_reachable(model, sensitive)?;

    let mut domain: Vec<u32> = sensitive.to_vec();
    domain.sort_unstable();
    domain.dedup();
    let index: HashMap<u32, usize> = domain.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let n = sensitive.len() as f64;
    let mut global_counts = vec![0usize; domain.len()];
    for &v in sensitive {
        global_counts[index[&v]] += 1;
    }
    let global_probs: Vec<f64> = global_counts.iter().map(|&c| c as f64 / n).collect();

    let mut blocks: Vec<Vec<u32>> = partition.blocks().to_vec();
    let mut merges = 0usize;

    loop {
        let current = Partition::new_unchecked(blocks.clone(), ds.n_rows());
        let report = verify(model, &current, sensitive)?;
        let Some(violation) = report.violations.first() else {
            break;
        };
        let violator = violation.block;
        if blocks.len() < 2 {
            return Err(Error::Unreachable(
                "cannot repair: only one block remains".into(),
            ));
        }
        let base = block_score(model, sensitive, &blocks[violator], &index, &global_probs);
        let mut best: Option<(bool, usize, usize)> = None; // (improves, diameter, idx)
        for (i, other) in blocks.iter().enumerate() {
            if i == violator {
                continue;
            }
            let union: Vec<u32> = blocks[violator].iter().chain(other).copied().collect();
            let union_rows: Vec<usize> = {
                let mut u: Vec<usize> = union.iter().map(|&r| r as usize).collect();
                u.sort_unstable();
                u
            };
            let d = diameter(ds, &union_rows);
            let improves =
                block_score(model, sensitive, &union, &index, &global_probs) > base + 1e-12;
            let better = match best {
                None => true,
                Some((bi, bd, _)) => (improves && !bi) || (improves == bi && d < bd),
            };
            if better {
                best = Some((improves, d, i));
            }
        }
        let (_, _, partner) = best.expect("at least two blocks");
        let (hi, lo) = if partner > violator {
            (partner, violator)
        } else {
            (violator, partner)
        };
        let absorbed = blocks.swap_remove(hi);
        blocks[lo].extend(absorbed);
        merges += 1;
    }

    let repaired = Partition::new_unchecked(blocks, ds.n_rows());
    let cost_after = repaired.anonymization_cost(ds);
    Ok(EnforceOutcome {
        partition: repaired,
        merges,
        cost_before,
        cost_after,
        report_before,
    })
}

/// Outcome of [`enforce_l_diversity`] — the API shape the former
/// `kanon-core::diversity` module exposed, preserved for its callers.
#[derive(Clone, Debug)]
pub struct DiversityResult {
    /// The repaired partition (k-feasible, l-diverse).
    pub partition: Partition,
    /// Number of merges performed.
    pub merges: usize,
    /// Suppression cost before repair.
    pub cost_before: usize,
    /// Suppression cost after repair.
    pub cost_after: usize,
}

/// Distinct-l-diversity repair (compatibility wrapper over [`fn@enforce`]).
///
/// # Errors
/// As [`fn@enforce`] for [`PrivacyModel::Distinct`].
pub fn enforce_l_diversity(
    ds: &Dataset,
    partition: &Partition,
    sensitive: &[u32],
    l: usize,
) -> Result<DiversityResult> {
    let outcome = enforce(ds, partition, sensitive, PrivacyModel::Distinct { l })?;
    Ok(DiversityResult {
        partition: outcome.partition,
        merges: outcome.merges,
        cost_before: outcome.cost_before,
        cost_after: outcome.cost_after,
    })
}

/// Whether every block carries ≥ `l` distinct sensitive values
/// (compatibility wrapper over [`crate::check::verify_l_diversity`]).
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn is_l_diverse(partition: &Partition, sensitive: &[u32], l: usize) -> Result<bool> {
    Ok(check::verify_l_diversity(partition, sensitive, l)?.ok())
}

/// Indices of blocks with fewer than `l` distinct sensitive values
/// (compatibility wrapper).
///
/// # Errors
/// [`Error::SensitiveMismatch`] if `sensitive` does not cover every row.
pub fn diversity_violations(
    partition: &Partition,
    sensitive: &[u32],
    l: usize,
) -> Result<Vec<usize>> {
    Ok(check::verify_l_diversity(partition, sensitive, l)?
        .violations
        .into_iter()
        .map(|v| v.block)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClosenessMetric;
    use kanon_baselines::knn_greedy;
    use kanon_core::algo;
    use kanon_workloads::{uniform, zipf, ZipfParams};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `enforce` and the scan oracle agree on every field of the outcome,
    /// block order included, or fail with the same error.
    fn agree(
        ds: &Dataset,
        p: &Partition,
        sensitive: &[u32],
        model: PrivacyModel,
    ) -> std::result::Result<Option<EnforceOutcome>, String> {
        match (
            enforce(ds, p, sensitive, model),
            enforce_scan(ds, p, sensitive, model),
        ) {
            (Ok(fast), Ok(scan)) => {
                let same = fast.partition.blocks() == scan.partition.blocks()
                    && fast.merges == scan.merges
                    && fast.cost_before == scan.cost_before
                    && fast.cost_after == scan.cost_after
                    && fast.report_before == scan.report_before;
                if same {
                    Ok(Some(fast))
                } else {
                    Err(format!("{model:?}: enforce {fast:?} vs scan {scan:?}"))
                }
            }
            (Err(fast), Err(scan)) if fast.to_string() == scan.to_string() => Ok(None),
            (fast, scan) => Err(format!("{model:?}: enforce {fast:?} vs scan {scan:?}")),
        }
    }

    fn model_of(family: usize, level: usize) -> PrivacyModel {
        match family {
            0 => PrivacyModel::Distinct { l: 2 + level % 2 },
            1 => PrivacyModel::Entropy {
                l: [1.5, 2.0, 2.5][level],
            },
            2 => PrivacyModel::Closeness {
                t: [0.1, 0.2, 0.3][level],
                metric: ClosenessMetric::Variational,
            },
            _ => PrivacyModel::Closeness {
                t: [0.05, 0.1, 0.2][level],
                metric: ClosenessMetric::Emd,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The incremental repair and the scan oracle agree on every
        /// outcome field for kNN and center-greedy partitions of zipf and
        /// uniform tables, under all four model families. Alphabets down
        /// to 1 give zero-diameter blocks and equal-diameter ties; domains
        /// down to 1 or 2 values give early returns, unreachable models
        /// and partners that cannot improve.
        #[test]
        fn incremental_repair_matches_the_scan_oracle(
            seed in 0u64..1_000_000,
            n in 6usize..48,
            m in 1usize..5,
            alphabet in 1u32..5,
            shape in 0usize..4,
            k in 2usize..5,
            domain in 1u32..6,
            family in 0usize..4,
            level in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = if shape % 2 == 0 {
                zipf(&mut rng, &ZipfParams { n, m, alphabet, exponent: 1.2 })
            } else {
                uniform(&mut rng, n, m, alphabet)
            };
            let p = if shape < 2 {
                knn_greedy(&ds, k).unwrap()
            } else {
                algo::center_greedy(&ds, k, &Default::default()).unwrap().partition
            };
            // Half the columns follow the first quasi-identifier, so blocks
            // come out skewed; codes are spread out so none is its index.
            let correlated = seed % 2 == 0;
            let sensitive: Vec<u32> = (0..n)
                .map(|i| {
                    let v = if correlated {
                        (ds.row(i)[0] + rng.gen_range(0..2u32)) % domain
                    } else {
                        rng.gen_range(0..domain)
                    };
                    v * 7 + 3
                })
                .collect();
            let outcome = agree(&ds, &p, &sensitive, model_of(family, level));
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    #[test]
    fn incremental_repair_matches_the_scan_oracle_on_edge_cases() {
        // Equal-diameter ties and zero-diameter blocks: every row is the
        // same, so every union has diameter 0 and the lowest index wins.
        let flat = Dataset::from_fn(12, 3, |_, _| 4);
        let pairs = Partition::new_unchecked((0..6).map(|b| vec![2 * b, 2 * b + 1]).collect(), 12);
        let sens = [0, 0, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0];
        for family in 0..4 {
            for level in 0..3 {
                agree(&flat, &pairs, &sens, model_of(family, level)).unwrap();
            }
        }
        let distinct = agree(&flat, &pairs, &sens, PrivacyModel::Distinct { l: 2 })
            .unwrap()
            .unwrap();
        assert!(distinct.merges >= 2);

        // No partner improves: block 0 is a balanced pair of values and
        // every union with it is no more even, so the nearest block wins.
        let ds = Dataset::from_fn(32, 2, |i, j| (i * (j + 1)) as u32 % 5);
        let mut blocks = vec![vec![0, 1], (2..10).collect(), (10..18).collect()];
        blocks.push((18..32).collect());
        let p = Partition::new_unchecked(blocks, 32);
        let mut sens = vec![0, 1];
        sens.extend([2; 8]);
        sens.extend([3; 8]);
        sens.extend([0, 1].repeat(7));
        let model = PrivacyModel::Entropy { l: 3.0 };
        let base = entropy(2, [1, 1].into_iter());
        for other in &p.blocks()[1..] {
            let union: Vec<u32> = [0, 1].iter().chain(other).copied().collect();
            let mut counts = HashMap::new();
            for &r in &union {
                *counts.entry(sens[r as usize]).or_insert(0) += 1;
            }
            assert!(entropy_of_counts(&counts) <= base + 1e-12);
        }
        assert!(agree(&ds, &p, &sens, model).unwrap().unwrap().merges >= 1);

        // Merged blocks grow past 2k - 1 and merge again: pure pairs held
        // to a tight closeness bound.
        let ds = Dataset::from_fn(16, 2, |i, j| (i / 2 + j) as u32);
        let pairs = Partition::new_unchecked((0..8).map(|b| vec![2 * b, 2 * b + 1]).collect(), 16);
        let sens: Vec<u32> = (0..16).map(|i| (i / 2) as u32 % 4).collect();
        let model = PrivacyModel::Closeness {
            t: 0.1,
            metric: ClosenessMetric::Emd,
        };
        let outcome = agree(&ds, &pairs, &sens, model).unwrap().unwrap();
        assert!(outcome.merges >= 4);
        assert!(outcome.partition.blocks().iter().any(|b| b.len() > 3));

        // One- and two-value sensitive domains.
        let ds = Dataset::from_fn(8, 2, |i, _| i as u32);
        let pairs = Partition::new_unchecked((0..4).map(|b| vec![2 * b, 2 * b + 1]).collect(), 8);
        for sens in [[9; 8], [9, 9, 4, 4, 9, 9, 9, 9]] {
            for family in 0..4 {
                for level in 0..3 {
                    agree(&ds, &pairs, &sens, model_of(family, level)).unwrap();
                }
            }
        }
    }

    /// Two QI clusters; sensitive values chosen so one group is uniform.
    fn setup() -> (Dataset, Partition, Vec<u32>) {
        let ds = Dataset::from_rows(vec![vec![0, 0], vec![0, 1], vec![9, 9], vec![9, 8]]).unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        // Group {0,1} shares sensitive value 5: k-anonymous but not 2-diverse.
        let sensitive = vec![5, 5, 1, 2];
        (ds, p, sensitive)
    }

    #[test]
    fn repair_merges_until_diverse() {
        let (ds, p, sensitive) = setup();
        let result = enforce_l_diversity(&ds, &p, &sensitive, 2).unwrap();
        assert!(is_l_diverse(&result.partition, &sensitive, 2).unwrap());
        assert!(result.merges >= 1);
        assert!(result.cost_after >= result.cost_before);
        assert!(result.partition.min_block_size().unwrap() >= 2);
        let total: usize = result.partition.blocks().iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn already_diverse_is_untouched() {
        let ds = Dataset::from_rows(vec![vec![0], vec![0], vec![1], vec![1]]).unwrap();
        let p = Partition::new(vec![vec![0, 1], vec![2, 3]], 4, 2).unwrap();
        let sensitive = vec![1, 2, 3, 4];
        let result = enforce_l_diversity(&ds, &p, &sensitive, 2).unwrap();
        assert_eq!(result.merges, 0);
        assert_eq!(result.cost_after, result.cost_before);
    }

    #[test]
    fn unreachable_l_is_an_error() {
        let (ds, p, _) = setup();
        let uniform_sensitive = vec![7, 7, 7, 7];
        assert!(matches!(
            enforce_l_diversity(&ds, &p, &uniform_sensitive, 2),
            Err(Error::Unreachable(_))
        ));
        // Entropy feasibility: a table of entropy ln 2 cannot reach
        // entropy-l = 3.
        assert!(matches!(
            enforce(&ds, &p, &[1, 1, 2, 2], PrivacyModel::Entropy { l: 3.0 }),
            Err(Error::Unreachable(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (ds, p, _) = setup();
        assert!(is_l_diverse(&p, &[1, 2], 2).is_err());
        assert!(enforce_l_diversity(&ds, &p, &[1, 2], 2).is_err());
    }

    #[test]
    fn closeness_repair_converges() {
        let (ds, p, sensitive) = setup();
        // Block {0,1} is pure 5s against a 50/25/25 table: far from close.
        let model = PrivacyModel::Closeness {
            t: 0.25,
            metric: ClosenessMetric::Variational,
        };
        let outcome = enforce(&ds, &p, &sensitive, model).unwrap();
        assert!(!outcome.report_before.ok());
        let report = verify(model, &outcome.partition, &sensitive).unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(outcome.merges >= 1);
        assert!(outcome.cost_after >= outcome.cost_before);
    }

    #[test]
    fn entropy_repair_converges() {
        let ds = Dataset::from_fn(8, 2, |i, _| (i / 2) as u32);
        let p = Partition::new(vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]], 8, 2).unwrap();
        // Pairs share a value: distinct-1 blocks everywhere.
        let sensitive = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let model = PrivacyModel::Entropy { l: 2.0 };
        let outcome = enforce(&ds, &p, &sensitive, model).unwrap();
        let report = verify(model, &outcome.partition, &sensitive).unwrap();
        assert!(report.ok(), "{report:?}");
        for b in outcome.partition.blocks() {
            assert!(b.len() >= 2);
        }
    }

    #[test]
    fn end_to_end_with_greedy_partition() {
        // Census-flavoured: anonymize QI, then enforce diversity on a
        // synthetic sensitive column engineered to violate it.
        let ds = Dataset::from_fn(12, 3, |i, j| ((i / 3) * 10 + j) as u32);
        let result = algo::center_greedy(&ds, 3, &Default::default()).unwrap();
        // Sensitive: constant within each natural cluster of 3.
        let sensitive: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let repaired = enforce_l_diversity(&ds, &result.partition, &sensitive, 2).unwrap();
        assert!(is_l_diverse(&repaired.partition, &sensitive, 2).unwrap());
        assert!(repaired.partition.min_block_size().unwrap() >= 3);
    }

    #[test]
    fn detects_uniform_sensitive_groups() {
        let (_, p, sensitive) = setup();
        assert!(!is_l_diverse(&p, &sensitive, 2).unwrap());
        assert_eq!(diversity_violations(&p, &sensitive, 2).unwrap(), vec![0]);
        assert!(is_l_diverse(&p, &sensitive, 1).unwrap());
    }
}
