//! Linkage attacks: measuring the re-identification risk k-anonymity
//! prevents.
//!
//! The paper's motivating scenario (§1) is an attacker who joins a released
//! table against public information ("Who had an X-ray yesterday?" plus a
//! voter roll) on quasi-identifier attributes. This module implements that
//! attacker: for each external record it finds the released records
//! *consistent* with it — a star matches anything — and reports how many
//! external individuals map to exactly one released record. By definition,
//! a k-anonymous release can never produce a candidate set smaller than `k`
//! for an attacker joining on the released attributes (each released record
//! has `k−1` twins), which experiment E17 verifies empirically.
//!
//! A suppression release is described by its per-block star masks (at most
//! n/k blocks), so the join groups the released keys by mask with
//! multiplicities, as in the pattern collapse of `kanon_core::exact::fpt`,
//! and each external record probes every mask once by hash. Only the
//! distinct keys holding an interval band or a prefix mask are matched cell
//! by cell. The cost is O(external × (masks + distinct generalized keys) ×
//! m) for m join columns, plus one pass over the release.

use std::collections::HashMap;

use crate::error::Result;
use crate::table::Table;

/// Outcome of a linkage attack.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkageReport {
    /// Number of external records attacked.
    pub attacked: usize,
    /// External records whose candidate set has exactly one member —
    /// re-identified outright.
    pub unique_matches: usize,
    /// External records with no consistent released record (the external
    /// data was stale or out of scope).
    pub no_match: usize,
    /// Mean candidate-set size over external records with ≥ 1 candidate.
    pub mean_candidates: f64,
    /// Smallest non-zero candidate set seen.
    pub min_candidates: usize,
    /// Expected attacker success: the mean over attacked records of
    /// `1 / |candidates|` (0 for no-match records). This is the probability
    /// a uniformly-guessing attacker names the right released record, so —
    /// unlike [`LinkageReport::unique_matches`], which saturates at 0 for
    /// every `k ≥ 2` — it keeps *strictly* falling as candidate sets grow,
    /// which makes it the right y-axis for attack-vs-loss sweeps.
    pub expected_success: f64,
}

impl LinkageReport {
    /// Fraction of attacked records re-identified, in `[0, 1]`.
    #[must_use]
    pub fn reidentification_rate(&self) -> f64 {
        if self.attacked == 0 {
            0.0
        } else {
            self.unique_matches as f64 / self.attacked as f64
        }
    }
}

/// How a released cell matches external values. [`Cell::parse`] is the
/// one parser behind both [`consistent`] and the join's index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell<'a> {
    /// Exactly `*`: suppressed, consistent with every external value.
    Star,
    /// An interval band `lo-hi` from the generalization hierarchies: both
    /// ends parse as `i64`. It contains the integers in `lo..=hi`.
    Band(i64, i64),
    /// A prefix mask such as `021**` (a `*` that is not a lone `*`): the
    /// external value must start with `prefix` and have `len` characters,
    /// counting one per `*`.
    Prefix { prefix: &'a str, len: usize },
    /// Everything else, hyphenated literals such as `Some-college`,
    /// `2020-01-05` and `-5` included: consistent only with itself.
    Exact,
}

impl<'a> Cell<'a> {
    fn parse(released: &'a str) -> Self {
        if released == "*" {
            return Cell::Star;
        }
        if let Some((lo, hi)) = released.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (lo.parse::<i64>(), hi.parse::<i64>()) {
                return Cell::Band(lo, hi);
            }
        }
        if let Some(at) = released.find('*') {
            let prefix = &released[..at];
            let stars = released.chars().filter(|&c| c == '*').count();
            return Cell::Prefix {
                prefix,
                len: prefix.chars().count() + stars,
            };
        }
        Cell::Exact
    }

    /// Whether this cell, parsed from `released`, is consistent with the
    /// external value. Equality is checked first.
    fn admits(self, released: &str, external: &str) -> bool {
        if released == external {
            return true;
        }
        match self {
            Cell::Star => true,
            Cell::Band(lo, hi) => external.parse::<i64>().is_ok_and(|v| lo <= v && v <= hi),
            Cell::Prefix { prefix, len } => {
                external.starts_with(prefix) && external.chars().count() == len
            }
            Cell::Exact => false,
        }
    }
}

/// Whether released value `r` is consistent with external value `e`:
/// equal, or suppressed (`*`), or an interval band containing `e`, or a
/// prefix mask `e` fits.
fn consistent(released: &str, external: &str) -> bool {
    Cell::parse(released).admits(released, external)
}

/// Released keys whose cells are all stars or exact values and that share
/// one star mask, counted by their projection onto the unstarred columns.
struct MaskGroup<'a> {
    /// Join positions the mask leaves unstarred, in join order.
    kept: Vec<usize>,
    counts: HashMap<Vec<&'a str>, usize>,
}

/// The released side of the join, built once per attack.
struct ReleasedIndex<'a> {
    /// One group per distinct star mask; the all-exact mask is one of them.
    masks: Vec<MaskGroup<'a>>,
    /// Distinct keys with a band or prefix-mask cell, with their
    /// multiplicities, matched cell by cell with [`consistent`].
    generalized: Vec<(Vec<&'a str>, usize)>,
}

impl<'a> ReleasedIndex<'a> {
    fn build(released: &'a Table, rel_cols: &[usize]) -> Self {
        let mut distinct: HashMap<Vec<&str>, usize> = HashMap::new();
        for row in released.rows() {
            let key: Vec<&str> = rel_cols.iter().map(|&j| row[j].as_str()).collect();
            *distinct.entry(key).or_insert(0) += 1;
        }
        let mut by_mask: HashMap<Vec<bool>, HashMap<Vec<&str>, usize>> = HashMap::new();
        let mut generalized = Vec::new();
        for (key, count) in distinct {
            let cells: Vec<Cell> = key.iter().map(|v| Cell::parse(v)).collect();
            if cells
                .iter()
                .any(|c| matches!(c, Cell::Band(..) | Cell::Prefix { .. }))
            {
                generalized.push((key, count));
                continue;
            }
            let starred: Vec<bool> = cells.iter().map(|&c| c == Cell::Star).collect();
            let projection: Vec<&str> = key
                .iter()
                .zip(&starred)
                .filter(|(_, &star)| !star)
                .map(|(&v, _)| v)
                .collect();
            // Distinct keys with one mask differ on an unstarred column, so
            // each projection is inserted once.
            by_mask
                .entry(starred)
                .or_default()
                .insert(projection, count);
        }
        let masks = by_mask
            .into_iter()
            .map(|(starred, counts)| MaskGroup {
                kept: (0..starred.len()).filter(|&p| !starred[p]).collect(),
                counts,
            })
            .collect();
        ReleasedIndex { masks, generalized }
    }

    /// Released rows consistent with the external key `ext_key` (values in
    /// join order). `probe` is scratch space reused across calls.
    fn candidates(&self, ext_key: &[&'a str], probe: &mut Vec<&'a str>) -> usize {
        let mut candidates = 0;
        for group in &self.masks {
            probe.clear();
            probe.extend(group.kept.iter().map(|&p| ext_key[p]));
            candidates += group.counts.get(probe.as_slice()).copied().unwrap_or(0);
        }
        for (key, count) in &self.generalized {
            if key.iter().zip(ext_key).all(|(r, e)| consistent(r, e)) {
                candidates += count;
            }
        }
        candidates
    }
}

/// Runs the linkage attack.
///
/// `pairs` maps attack columns: `(external column name, released column
/// name)`. An external record's candidates are the released records
/// consistent with it on those columns (stars and generalized values in
/// the release match permissively).
///
/// Cost: O(external × (masks + distinct generalized keys) × m) for m join
/// columns, plus one pass over the release (see the module docs). A
/// suppression release has at most n/k blocks, and in practice a few dozen
/// distinct masks.
///
/// # Errors
/// [`crate::Error::UnknownAttribute`] if a named column is missing.
pub fn linkage_attack(
    released: &Table,
    external: &Table,
    pairs: &[(&str, &str)],
) -> Result<LinkageReport> {
    let ext_cols: Vec<usize> = pairs
        .iter()
        .map(|(e, _)| external.schema().index_of(e))
        .collect::<Result<_>>()?;
    let rel_cols: Vec<usize> = pairs
        .iter()
        .map(|(_, r)| released.schema().index_of(r))
        .collect::<Result<_>>()?;
    let index = ReleasedIndex::build(released, &rel_cols);

    let mut ext_key: Vec<&str> = Vec::with_capacity(ext_cols.len());
    let mut probe: Vec<&str> = Vec::with_capacity(ext_cols.len());
    let counts = external.rows().map(|ext_row| {
        ext_key.clear();
        ext_key.extend(ext_cols.iter().map(|&j| ext_row[j].as_str()));
        index.candidates(&ext_key, &mut probe)
    });
    Ok(summarize(counts, external.n_rows()))
}

/// Folds per-external-record candidate counts, in external-row order, into
/// the report.
fn summarize(candidate_counts: impl Iterator<Item = usize>, attacked: usize) -> LinkageReport {
    let mut unique = 0usize;
    let mut none = 0usize;
    let mut total_candidates = 0usize;
    let mut matched_records = 0usize;
    let mut min_candidates = usize::MAX;
    let mut success_mass = 0.0f64;
    for candidates in candidate_counts {
        match candidates {
            0 => none += 1,
            1 => {
                unique += 1;
                matched_records += 1;
                total_candidates += 1;
                min_candidates = min_candidates.min(1);
                success_mass += 1.0;
            }
            c => {
                matched_records += 1;
                total_candidates += c;
                min_candidates = min_candidates.min(c);
                success_mass += 1.0 / c as f64;
            }
        }
    }

    LinkageReport {
        attacked,
        unique_matches: unique,
        no_match: none,
        mean_candidates: if matched_records == 0 {
            0.0
        } else {
            total_candidates as f64 / matched_records as f64
        },
        min_candidates: if min_candidates == usize::MAX {
            0
        } else {
            min_candidates
        },
        expected_success: if attacked == 0 {
            0.0
        } else {
            success_mass / attacked as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use proptest::prelude::*;

    /// The original string-by-string consistency rule, kept independent of
    /// [`Cell`] so the oracle below shares no parser with the index.
    fn scan_consistent(released: &str, external: &str) -> bool {
        if released == "*" || released == external {
            return true;
        }
        if let Some((lo, hi)) = released.split_once('-') {
            if let (Ok(lo), Ok(hi), Ok(v)) = (
                lo.parse::<i64>(),
                hi.parse::<i64>(),
                external.parse::<i64>(),
            ) {
                return lo <= v && v <= hi;
            }
        }
        if released.contains('*') {
            let prefix: String = released.chars().take_while(|&c| c != '*').collect();
            let stars = released.chars().filter(|&c| c == '*').count();
            return external.starts_with(&prefix)
                && external.chars().count() == prefix.chars().count() + stars;
        }
        false
    }

    /// The original attack loop: every external record against every
    /// released row with a `*` or a `-`, plus exact keys by hash. The
    /// differential oracle for [`linkage_attack`].
    fn scan_attack(
        released: &Table,
        external: &Table,
        pairs: &[(&str, &str)],
    ) -> Result<LinkageReport> {
        let ext_cols: Vec<usize> = pairs
            .iter()
            .map(|(e, _)| external.schema().index_of(e))
            .collect::<Result<_>>()?;
        let rel_cols: Vec<usize> = pairs
            .iter()
            .map(|(_, r)| released.schema().index_of(r))
            .collect::<Result<_>>()?;
        let mut exact_groups: HashMap<Vec<&str>, usize> = HashMap::new();
        let mut fuzzy_rows: Vec<usize> = Vec::new();
        for i in 0..released.n_rows() {
            let row = released.row(i);
            let key: Vec<&str> = rel_cols.iter().map(|&j| row[j].as_str()).collect();
            if key.iter().any(|v| v.contains('*') || v.contains('-')) {
                fuzzy_rows.push(i);
            } else {
                *exact_groups.entry(key).or_insert(0) += 1;
            }
        }
        let counts = (0..external.n_rows()).map(|e| {
            let ext_row = external.row(e);
            let ext_key: Vec<&str> = ext_cols.iter().map(|&j| ext_row[j].as_str()).collect();
            let mut candidates = exact_groups.get(&ext_key).copied().unwrap_or(0);
            for &i in &fuzzy_rows {
                let rel_row = released.row(i);
                if rel_cols
                    .iter()
                    .zip(&ext_key)
                    .all(|(&j, ev)| scan_consistent(&rel_row[j], ev))
                {
                    candidates += 1;
                }
            }
            candidates
        });
        Ok(summarize(counts, external.n_rows()))
    }

    /// Cell values for the differential: stars, numeric bands (signed ends
    /// included), prefix masks, hyphenated literals, the empty string and
    /// plain values the bands and masks do and do not admit.
    const POOL: &[&str] = &[
        "*",
        "30-39",
        "+1-+3",
        "1--3",
        "ab**",
        "**",
        "a*b*",
        "Some-college",
        "2020-01-05",
        "-5",
        "",
        "30",
        "34",
        "39",
        "40",
        "1",
        "+3",
        "-2",
        "abcd",
        "ab",
        "xy",
        "Some",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mask index and the original scan agree on the whole report,
        /// f64 fields included, for any release, any external table (stars
        /// in it too) and any column subset, order and renaming.
        #[test]
        fn index_matches_the_scan_oracle(
            released_rows in proptest::collection::vec(proptest::collection::vec(0usize..POOL.len(), 3), 0..24),
            external_rows in proptest::collection::vec(proptest::collection::vec(0usize..POOL.len(), 3), 0..16),
            join in proptest::collection::vec(0usize..3, 1..5),
        ) {
            let mut released = Table::new(Schema::new(vec!["r0", "r1", "r2"]).unwrap());
            for row in &released_rows {
                let cells: Vec<&str> = row.iter().map(|&v| POOL[v]).collect();
                released.push_str_row(&cells).unwrap();
            }
            // The external table names its columns differently, in another
            // order, beside a column the join ignores.
            let mut external = Table::new(Schema::new(vec!["e2", "id", "e0", "e1"]).unwrap());
            for (i, row) in external_rows.iter().enumerate() {
                let id = i.to_string();
                external
                    .push_str_row(&[POOL[row[2]], id.as_str(), POOL[row[0]], POOL[row[1]]])
                    .unwrap();
            }
            let names: Vec<(String, String)> =
                join.iter().map(|c| (format!("e{c}"), format!("r{c}"))).collect();
            let pairs: Vec<(&str, &str)> =
                names.iter().map(|(e, r)| (e.as_str(), r.as_str())).collect();
            prop_assert_eq!(
                linkage_attack(&released, &external, &pairs).unwrap(),
                scan_attack(&released, &external, &pairs).unwrap()
            );
        }
    }

    #[test]
    fn cell_classes() {
        assert_eq!(Cell::parse("*"), Cell::Star);
        assert_eq!(Cell::parse("30-39"), Cell::Band(30, 39));
        assert_eq!(Cell::parse("+1-+3"), Cell::Band(1, 3));
        assert_eq!(
            Cell::parse("ab**"),
            Cell::Prefix {
                prefix: "ab",
                len: 4
            }
        );
        assert_eq!(Cell::parse("**"), Cell::Prefix { prefix: "", len: 2 });
        for exact in ["Some-college", "2020-01-05", "-5", "", "34", "x-"] {
            assert_eq!(Cell::parse(exact), Cell::Exact, "{exact:?}");
        }
    }

    #[test]
    fn hyphenated_literals_are_probed_by_hash() {
        let released = table(
            &["age", "education"],
            &[
                &["34", "Some-college"],
                &["*", "Some-college"],
                &["35", "*"],
                &["30-39", "Some-college"],
            ],
        );
        let index = ReleasedIndex::build(&released, &[0, 1]);
        // Three star masks: none, age, education. Only the band is scanned.
        assert_eq!(index.masks.len(), 3);
        assert_eq!(index.generalized, vec![(vec!["30-39", "Some-college"], 1)]);
    }

    fn table(names: &[&str], rows: &[&[&str]]) -> Table {
        let mut t = Table::new(Schema::new(names.to_vec()).unwrap());
        for r in rows {
            t.push_str_row(r).unwrap();
        }
        t
    }

    #[test]
    fn consistency_rules() {
        assert!(consistent("*", "anything"));
        assert!(consistent("34", "34"));
        assert!(!consistent("34", "35"));
        assert!(consistent("30-39", "34"));
        assert!(!consistent("30-39", "47"));
        assert!(consistent("021**", "02139"));
        assert!(!consistent("021**", "03139"));
        assert!(!consistent("021**", "0213")); // wrong length
        assert!(consistent("R*****", "Reyser"));
        assert!(consistent("+1-+3", "2"));
        assert!(consistent("Some-college", "Some-college"));
        assert!(!consistent("Some-college", "Some"));
        assert!(!consistent("30-39", "thirty")); // a band admits integers only
        assert!(consistent("**", "ab"));
        assert!(!consistent("Some", "*")); // a star in the external data is a value
    }

    #[test]
    fn raw_release_is_fully_linkable() {
        let released = table(
            &["age", "zip"],
            &[&["34", "02139"], &["47", "02144"], &["22", "90210"]],
        );
        let external = table(
            &["name", "age", "zip"],
            &[&["Harry", "34", "02139"], &["Bea", "47", "02144"]],
        );
        let report =
            linkage_attack(&released, &external, &[("age", "age"), ("zip", "zip")]).unwrap();
        assert_eq!(report.unique_matches, 2);
        assert_eq!(report.reidentification_rate(), 1.0);
        assert_eq!(report.min_candidates, 1);
    }

    #[test]
    fn anonymized_release_blocks_unique_linkage() {
        // Both rows released identically: candidate sets of size 2.
        let released = table(&["age", "zip"], &[&["30-39", "021**"], &["30-39", "021**"]]);
        let external = table(
            &["name", "age", "zip"],
            &[&["Harry", "34", "02139"], &["John", "36", "02144"]],
        );
        let report =
            linkage_attack(&released, &external, &[("age", "age"), ("zip", "zip")]).unwrap();
        assert_eq!(report.unique_matches, 0);
        assert_eq!(report.min_candidates, 2);
        assert_eq!(report.mean_candidates, 2.0);
        // A uniform guess among 2 candidates succeeds half the time.
        assert!((report.expected_success - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expected_success_keeps_falling_where_unique_matches_saturate() {
        let external = table(
            &["name", "age"],
            &[&["A", "30"], &["B", "31"], &["C", "32"], &["D", "33"]],
        );
        // Two releases, both with zero unique matches: one pools rows in
        // pairs, the other in a single 4-row group.
        let pairs = table(&["age"], &[&["30-31"], &["30-31"], &["32-33"], &["32-33"]]);
        let pooled = table(&["age"], &[&["30-33"], &["30-33"], &["30-33"], &["30-33"]]);
        let r2 = linkage_attack(&pairs, &external, &[("age", "age")]).unwrap();
        let r4 = linkage_attack(&pooled, &external, &[("age", "age")]).unwrap();
        assert_eq!(r2.unique_matches, 0);
        assert_eq!(r4.unique_matches, 0);
        assert!((r2.expected_success - 0.5).abs() < 1e-12);
        assert!((r4.expected_success - 0.25).abs() < 1e-12);
        assert!(r4.expected_success < r2.expected_success);
    }

    #[test]
    fn stale_external_records_count_as_no_match() {
        let released = table(&["age"], &[&["34"]]);
        let external = table(&["name", "age"], &[&["Gone", "99"]]);
        let report = linkage_attack(&released, &external, &[("age", "age")]).unwrap();
        assert_eq!(report.no_match, 1);
        assert_eq!(report.unique_matches, 0);
        assert_eq!(report.reidentification_rate(), 0.0);
    }

    #[test]
    fn unknown_columns_error() {
        let released = table(&["age"], &[&["34"]]);
        let external = table(&["name", "age"], &[&["X", "34"]]);
        assert!(linkage_attack(&released, &external, &[("bogus", "age")]).is_err());
        assert!(linkage_attack(&released, &external, &[("age", "bogus")]).is_err());
    }

    #[test]
    fn empty_external_table() {
        let released = table(&["age"], &[&["34"]]);
        let external = table(&["age"], &[]);
        let report = linkage_attack(&released, &external, &[("age", "age")]).unwrap();
        assert_eq!(report.attacked, 0);
        assert_eq!(report.reidentification_rate(), 0.0);
    }
}
