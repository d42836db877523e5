//! Governance suite: resource budgets must be *inert* when unlimited and
//! *prompt* when tripped.
//!
//! Three contracts from DESIGN.md's govern section are locked down here:
//!
//! 1. **Promptness** — a cancelled (or otherwise exhausted) budget surfaces
//!    as `Error::BudgetExceeded` from every governed entry point, and a
//!    cancellation raised mid-run from another thread unwinds the solver
//!    without finishing its work.
//! 2. **Transparency** — running any solver with `Budget::unlimited()` is
//!    byte-identical to the ungoverned entry point (which is itself just a
//!    delegate, but these tests keep that true under refactoring).
//! 3. **Ladder totality** — whenever *some* rung is affordable, the
//!    degradation ladder returns a valid k-anonymous table and a report
//!    naming the rung that answered.
//!
//! The fixed-seed acceptance scenario from the PR issue lives at the
//! bottom: an instance whose full §4.2 greedy cover cannot finish inside a
//! 200 ms deadline must still answer — via a lower rung — within twice the
//! deadline, while the same instance under an unlimited budget reproduces
//! the ungoverned cover exactly. Beside it, the sharded pipeline must not
//! degrade anything under a deadline far above its unlimited wall time,
//! whatever its worker count.

use std::time::{Duration, Instant};

use kanon_baselines::{
    agglomerative, knn_greedy, mondrian, run_ladder, try_agglomerative_governed,
    try_knn_greedy_governed, try_mondrian_governed, LadderConfig, Rung,
};
use kanon_core::distcache::PairwiseDistances;
use kanon_core::exact::{
    try_branch_and_bound_governed, try_fpt_governed, try_min_diameter_sum_governed,
    try_subset_dp_governed, BranchBoundConfig, FptConfig, SubsetDpConfig,
};
use kanon_core::govern::{Budget, Resource};
use kanon_core::greedy::{
    center_greedy_cover, full_greedy_cover, reduce, try_center_greedy_cover_governed,
    try_full_greedy_cover_governed, CenterConfig, FullCoverConfig,
};
use kanon_core::local_search::{improve, try_improve_governed, LocalSearchConfig};
use kanon_core::{algo, Dataset, Error};
use proptest::prelude::*;

/// Builds a dataset with per-column alphabet sizes in `2..=5`, mixing the
/// sizes across columns so ties and duplicate rows both occur (same idiom
/// as the parallel differential suite).
fn build_dataset(flat: &[u32], n: usize, m: usize, aseed: usize) -> Dataset {
    Dataset::from_fn(n, m, |i, j| {
        let alphabet = 2 + ((j + aseed) % 4) as u32;
        flat[i * m + j] % alphabet
    })
}

/// A deterministic mid-sized dataset for the plain (non-proptest) checks.
fn fixed_dataset(n: usize, m: usize) -> Dataset {
    Dataset::from_fn(n, m, |i, j| {
        let alphabet = 2 + ((i + j) % 3) as u32;
        ((i as u32)
            .wrapping_mul(2_654_435_761)
            .wrapping_add(j as u32 * 97)
            >> 7)
            % alphabet
    })
}

/// `FullCoverConfig` pinned to the sequential path (deterministic timing).
fn sequential() -> FullCoverConfig {
    FullCoverConfig {
        parallel: false,
        ..Default::default()
    }
}

fn assert_cancelled(what: &str, err: Error) {
    match err {
        Error::BudgetExceeded {
            resource: Resource::Cancelled,
            ..
        } => {}
        other => panic!("{what}: expected BudgetExceeded/Cancelled, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 1. Promptness: a pre-cancelled budget trips every governed entry point.
// ---------------------------------------------------------------------------

#[test]
fn pre_cancelled_budget_trips_every_governed_entry_point() {
    let ds = fixed_dataset(14, 3);
    let k = 3;
    let budget = Budget::unlimited();
    budget.cancel();

    assert_cancelled(
        "distcache",
        PairwiseDistances::try_build_governed(&ds, Some(1), &budget).unwrap_err(),
    );
    assert_cancelled(
        "full cover",
        try_full_greedy_cover_governed(&ds, k, &sequential(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "center cover",
        try_center_greedy_cover_governed(&ds, k, &CenterConfig::default(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "exhaustive pipeline",
        algo::try_exhaustive_greedy_governed(&ds, k, &sequential(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "center pipeline",
        algo::try_center_greedy_governed(&ds, k, &CenterConfig::default(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "branch and bound",
        try_branch_and_bound_governed(&ds, k, &BranchBoundConfig::default(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "fpt",
        try_fpt_governed(&ds, k, &FptConfig::default(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "subset dp",
        try_subset_dp_governed(&ds, k, &SubsetDpConfig::default(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "min diameter sum",
        try_min_diameter_sum_governed(&ds, k, &SubsetDpConfig::default(), &budget).unwrap_err(),
    );
    assert_cancelled(
        "agglomerative",
        try_agglomerative_governed(&ds, k, &budget).unwrap_err(),
    );
    assert_cancelled(
        "knn greedy",
        try_knn_greedy_governed(&ds, k, &budget).unwrap_err(),
    );
    assert_cancelled(
        "mondrian",
        try_mondrian_governed(&ds, k, &budget).unwrap_err(),
    );
    let seed = mondrian(&ds, k).unwrap();
    assert_cancelled(
        "local search",
        try_improve_governed(&ds, &seed, k, &LocalSearchConfig::default(), &budget).unwrap_err(),
    );
    // The ladder does not absorb a cancellation: it aborts wholesale.
    let config = LadderConfig {
        budget: budget.clone(),
        full: sequential(),
        ..Default::default()
    };
    assert_cancelled("ladder", run_ladder(&ds, k, &config).unwrap_err());
}

/// Cancellation raised from another thread mid-run unwinds the solver:
/// the governed call must return `Cancelled` rather than finishing. The
/// elapsed-time bound is deliberately generous (the contract is "polls at
/// least every ~1k constant-time steps", not a hard real-time latency).
#[test]
fn mid_run_cancellation_unwinds_the_solver() {
    // Large enough that the sequential full cover needs well over 50 ms in
    // every build profile; the candidate guard (2M) is not hit at n = 44.
    let ds = fixed_dataset(44, 4);
    let budget = Budget::unlimited();
    let remote = budget.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        remote.cancel();
    });
    let started = Instant::now();
    let result = try_full_greedy_cover_governed(&ds, 3, &sequential(), &budget);
    let elapsed = started.elapsed();
    canceller.join().expect("canceller thread");
    match result {
        Err(Error::BudgetExceeded {
            resource: Resource::Cancelled,
            ..
        }) => {
            // Generous bound: the poll interval is ~1k constant-time steps,
            // so unwinding must not take anywhere near the full runtime.
            assert!(
                elapsed < Duration::from_secs(10),
                "cancellation took {elapsed:.2?} to surface"
            );
        }
        Ok(_) => panic!("solver finished before the 50 ms cancellation — instance too small"),
        Err(other) => panic!("expected Cancelled, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// 2. Transparency: unlimited-governed ≡ ungoverned, byte for byte.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every solver with `Budget::unlimited()` is byte-identical to its
    /// ungoverned entry point.
    #[test]
    fn unlimited_budget_is_invisible(
        flat in proptest::collection::vec(0u32..8, 14 * 4),
        n in 6usize..15,
        m in 2usize..5,
        k in 2usize..5,
        aseed in 0usize..4,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let k = k.min(n / 2).max(2);
        let unlimited = Budget::unlimited();

        let cover = full_greedy_cover(&ds, k, &sequential()).unwrap();
        let governed = try_full_greedy_cover_governed(&ds, k, &sequential(), &unlimited).unwrap();
        prop_assert_eq!(&cover, &governed);

        let center = center_greedy_cover(&ds, k, &CenterConfig::default()).unwrap();
        let governed =
            try_center_greedy_cover_governed(&ds, k, &CenterConfig::default(), &unlimited).unwrap();
        prop_assert_eq!(&center, &governed);

        prop_assert_eq!(
            agglomerative(&ds, k).unwrap(),
            try_agglomerative_governed(&ds, k, &unlimited).unwrap()
        );
        prop_assert_eq!(
            knn_greedy(&ds, k).unwrap(),
            try_knn_greedy_governed(&ds, k, &unlimited).unwrap()
        );
        prop_assert_eq!(
            mondrian(&ds, k).unwrap(),
            try_mondrian_governed(&ds, k, &unlimited).unwrap()
        );

        let seed = reduce(&cover, k).unwrap().split_large(k);
        let plain = improve(&ds, &seed, k, &LocalSearchConfig::default()).unwrap();
        let governed =
            try_improve_governed(&ds, &seed, k, &LocalSearchConfig::default(), &unlimited).unwrap();
        prop_assert_eq!(plain.partition, governed.partition);
        prop_assert_eq!(plain.final_cost, governed.final_cost);
    }
}

// ---------------------------------------------------------------------------
// 3. Ladder totality: any affordable rung ⇒ a valid k-anonymous answer.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With only a candidate cap (no deadline, no memory cap) the
    /// agglomerative rung is always affordable, so the ladder must succeed
    /// — whatever rung answers — and the output must be k-anonymous.
    #[test]
    fn ladder_answers_whenever_a_rung_is_affordable(
        flat in proptest::collection::vec(0u32..8, 14 * 4),
        n in 6usize..15,
        m in 2usize..5,
        k in 2usize..5,
        aseed in 0usize..4,
        cap in 1u64..5_000,
    ) {
        let ds = build_dataset(&flat, n, m, aseed);
        let k = k.min(n / 2).max(2);
        let config = LadderConfig {
            budget: Budget::builder().max_candidates(cap).build(),
            full: sequential(),
            ..Default::default()
        };
        let (anon, report) = run_ladder(&ds, k, &config).unwrap();
        prop_assert!(anon.table.is_k_anonymous(k), "rung {} not k-anonymous", report.rung);
        // The winning rung is the last attempt, and it succeeded.
        let last = report.attempts.last().unwrap();
        prop_assert_eq!(last.rung, report.rung);
    }
}

// ---------------------------------------------------------------------------
// Acceptance scenario (PR issue): deadline-driven degradation.
// ---------------------------------------------------------------------------

/// The fixed-seed acceptance instance: n = 48, k = 3, so the §4.2 cover
/// enumerates Σ C(48, 3..=5) = 1 924 180 candidate subsets — inside the
/// 2M candidate guard, but far more sequential work than a 200 ms deadline
/// affords (the top rung's slice is an equal share — a third — of the
/// remaining deadline).
fn acceptance_instance() -> (Dataset, usize) {
    (fixed_dataset(48, 4), 3)
}

/// Unlimited budget: the ladder answers on the top rung, byte-identical to
/// the ungoverned PR-1 pipeline.
#[test]
fn acceptance_unlimited_ladder_matches_ungoverned_cover() {
    let (ds, k) = acceptance_instance();
    let config = LadderConfig {
        budget: Budget::unlimited(),
        full: sequential(),
        ..Default::default()
    };
    let (anon, report) = run_ladder(&ds, k, &config).unwrap();
    assert_eq!(report.rung, Rung::FullGreedyCover);

    let cover = full_greedy_cover(&ds, k, &sequential()).unwrap();
    let partition = reduce(&cover, k).unwrap().split_large(k);
    let reference = algo::anonymization_from_partition(
        &ds,
        partition,
        k,
        kanon_core::Algorithm::ExhaustiveGreedy,
    )
    .unwrap();
    assert_eq!(anon.cost, reference.cost);
    assert_eq!(anon.table, reference.table);
}

/// A 200 ms deadline: the top rung cannot finish its slice, the ladder
/// degrades, and the whole run completes within twice the deadline with a
/// valid k-anonymous answer and a report naming the rung. Timing-sensitive,
/// so the test only runs in release builds (CI tier-2 runs `--release`).
#[cfg(not(debug_assertions))]
#[test]
fn acceptance_deadline_degrades_within_twice_the_deadline() {
    let (ds, k) = acceptance_instance();
    let deadline = Duration::from_millis(200);
    let config = LadderConfig {
        budget: Budget::builder().deadline(deadline).build(),
        full: sequential(),
        ..Default::default()
    };
    let started = Instant::now();
    let (anon, report) = run_ladder(&ds, k, &config).unwrap();
    let elapsed = started.elapsed();

    assert!(
        elapsed <= deadline * 2,
        "ladder took {elapsed:.2?}, more than 2x the {deadline:.2?} deadline"
    );
    assert!(anon.table.is_k_anonymous(k));
    assert!(
        report.degraded(),
        "expected degradation below the top rung, got {}",
        report.rung
    );
    assert!(
        report
            .attempts
            .iter()
            .any(|a| a.rung == Rung::FullGreedyCover),
        "top rung was never attempted"
    );
    // The report names a real rung with its paper guarantee.
    assert!(!report.guarantee.is_empty());
    assert!(Rung::ALL.contains(&report.rung));
}

/// A deadline 400× the unlimited wall time must leave the pipeline's
/// release untouched at every worker count. Each unit's deadline slice is
/// cut when a worker claims it; a slice cut when the run starts has
/// already expired for units claimed late. 300k census rows at shard size
/// 64 give several thousand small shards, so most units are claimed late.
/// The wide margin absorbs scheduler stalls of a few tens of milliseconds
/// when 4 workers share fewer cores. Timing-sensitive, so release builds
/// only.
#[cfg(not(debug_assertions))]
#[test]
fn generous_pipeline_deadline_degrades_no_shard_at_any_worker_count() {
    use kanon_pipeline::{run_pipeline, PipelineConfig};
    use kanon_workloads::{census_table, CensusParams};
    use rand::{rngs::StdRng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(7);
    let (ds, _) = census_table(
        &mut rng,
        &CensusParams {
            n: 300_000,
            regions: 8,
        },
    )
    .encode();
    let k = 5;
    for workers in [2, 4] {
        let config = |budget| PipelineConfig {
            shard_size: 64,
            workers: Some(workers),
            budget,
            ..PipelineConfig::default()
        };
        let started = Instant::now();
        let (unlimited, _) = run_pipeline(&ds, k, &config(Budget::unlimited())).unwrap();
        let deadline = started.elapsed() * 400;
        let budget = Budget::builder().deadline(deadline).build();
        let (anon, report) = run_pipeline(&ds, k, &config(budget)).unwrap();
        assert_eq!(
            report.degraded_shards(),
            0,
            "{workers} workers degraded shards under a {deadline:.2?} deadline"
        );
        assert_eq!(
            anon.partition, unlimited.partition,
            "{workers} workers changed the release under a {deadline:.2?} deadline"
        );
    }
}
