//! The pipeline engine: solve every shard under a budget slice, then merge.
//!
//! ## Dispatch
//!
//! Every shard's rows are cut into units before any solve starts: whole
//! shards by default, or, with [`PipelineConfig::split_unit`] set,
//! near-equal consecutive sub-units so one oversized shard cannot
//! serialize the tail of a run. The flat unit list is sorted largest
//! first (stable on shard and unit index), and `workers` scoped threads
//! claim units from it through one atomic cursor. Units never spawn work,
//! so a shared cursor is all the scheduling there is; one worker is the
//! same loop on one thread. The split is a pure function of the plan, and
//! results are reassembled per shard on the calling thread, so the output
//! table is invariant across worker counts.
//!
//! Workers materialize each unit's sub-table into a worker-local flat
//! buffer that is recycled from unit to unit
//! ([`Dataset::select_rows_into`] / [`Dataset::into_flat_buffer`]), so at
//! most one materialized sub-table exists per worker and steady-state
//! dispatch performs no per-unit row-buffer allocation.
//!
//! ## Budget slicing
//!
//! Each unit receives a [`Budget::child_with_memory`] slice cut when it is
//! claimed: its deadline share is `remaining × unit_rows × workers /
//! unclaimed_rows` (proportional to its size, scaled up because `workers`
//! units run concurrently, capped at the parent's remaining time), and its
//! memory cap is `global_cap / workers` so concurrent units' planned
//! allocations respect the global cap. The residue group is solved last,
//! alone, with everything that remains.
//!
//! ## Fallback
//!
//! When a shard's whole ladder trips its budget, the pipeline falls one
//! rung further than [`kanon_baselines::ladder::run_ladder`] can: the
//! O(s·m) suppress-and-split partition (one block covering the shard,
//! split into the (k, 2k-1) band). It has no approximation guarantee but
//! always finishes, so a pipeline run completes — possibly degraded, never
//! wedged — whatever the budget.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use kanon_baselines::ladder::{run_ladder, LadderConfig, Rung};
use kanon_core::algo::anonymization_from_partition;
use kanon_core::distcache::resolve_threads;
use kanon_core::govern::Budget;
use kanon_core::{Algorithm, Anonymization, Dataset, Partition, Resource, Value};

use crate::config::PipelineConfig;
use crate::error::{Error, Result};
use crate::report::{PipelineReport, ShardReport, SolvedBy};
use crate::shard::{full_cover_candidates, near_equal_ranges, plan_shards, residue_chunk_target};

/// Live progress of a pipeline run, emitted through the callback of
/// [`run_pipeline_with_progress`] so callers that own long-running jobs
/// (the `kanon-service` job store) can surface status while the run is in
/// flight. Events arrive on the calling thread, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// The shard plan is fixed; `units` shards (the residue group, when
    /// present, counts as one) will be solved.
    Planned {
        /// Total work units: shards plus the residue group if any.
        units: usize,
        /// Rows pooled into the residue group.
        residue_rows: usize,
    },
    /// One more work unit finished.
    UnitSolved {
        /// Units finished so far (1-based running count).
        done: usize,
        /// Total work units, as in [`Progress::Planned`].
        units: usize,
        /// Whether this unit degraded below its first attempted rung.
        degraded: bool,
    },
    /// Every unit is solved; the merge + validation step started.
    Merging,
}

/// A solved shard: its local partition (indices into the shard's sub-table,
/// already inside the (k, 2k-1) band) and its report entry. The delta
/// engine caches these per bucket, which is why the fields are
/// crate-visible.
pub(crate) struct Solved {
    pub(crate) partition: Partition,
    pub(crate) report: ShardReport,
}

/// The first rung worth attempting for a shard of `s` rows: the exhaustive
/// greedy only when its candidate family fits the configured cap, otherwise
/// the center greedy (skipping a guaranteed guard rejection).
pub(crate) fn choose_start(s: usize, k: usize, config: &PipelineConfig) -> Rung {
    if let Some(start) = config.start {
        return start;
    }
    match full_cover_candidates(s, k) {
        Some(c) if c <= config.full.max_candidates as u64 => Rung::FullGreedyCover,
        _ => Rung::CenterGreedy,
    }
}

/// Whether a ladder failure should drop to the suppress-and-split fallback
/// (same recoverable set as the ladder itself uses between rungs).
fn recoverable(err: &kanon_core::Error) -> bool {
    matches!(
        err,
        kanon_core::Error::BudgetExceeded { .. }
            | kanon_core::Error::InstanceTooLarge { .. }
            | kanon_core::Error::Overflow { .. }
    )
}

pub(crate) fn solve_shard(
    id: usize,
    sub: &Dataset,
    k: usize,
    config: &PipelineConfig,
    budget: Budget,
) -> Result<Solved> {
    let started = Instant::now();
    let start = choose_start(sub.n_rows(), k, config);
    let ladder = LadderConfig {
        budget,
        start,
        full: config.full.clone(),
        center: config.center.clone(),
    };
    match run_ladder(sub, k, &ladder) {
        Ok((anon, run)) => {
            // Normalize into the (k, 2k-1) band so the merged partition
            // passes the whole-table validator. `split_large` never
            // increases per-block suppression, so recompute the cost.
            let partition = anon.partition.split_large(k);
            let cost = partition.anonymization_cost(sub);
            Ok(Solved {
                partition,
                report: ShardReport {
                    id,
                    rows: sub.n_rows(),
                    solved_by: SolvedBy::Rung(run.rung),
                    degraded: run.degraded(),
                    attempts: run.attempts.len(),
                    cost,
                    elapsed: started.elapsed(),
                    note: None,
                },
            })
        }
        Err(err) if recoverable(&err) => {
            let s = sub.n_rows();
            let partition =
                Partition::new_unchecked(vec![(0..s as u32).collect()], s).split_large(k);
            let cost = partition.anonymization_cost(sub);
            let attempted = Rung::ALL.len()
                - Rung::ALL
                    .iter()
                    .position(|&r| r == start)
                    .expect("Rung::ALL contains every rung");
            Ok(Solved {
                partition,
                report: ShardReport {
                    id,
                    rows: s,
                    solved_by: SolvedBy::Fallback,
                    degraded: true,
                    attempts: attempted,
                    cost,
                    elapsed: started.elapsed(),
                    note: Some(err.to_string()),
                },
            })
        }
        Err(err) => Err(Error::Core(err)),
    }
}

/// A claim-time budget slice: deadline proportional to the unit's share of
/// unclaimed rows (scaled by the worker count, since `workers` slices run
/// concurrently), memory capped at `mem_slice`.
pub(crate) fn slice_budget(
    parent: &Budget,
    unit_rows: usize,
    rows_left: u64,
    workers: usize,
    mem_slice: Option<u64>,
) -> Budget {
    let allowance = parent.remaining().map(|rem| {
        let nanos = rem
            .as_nanos()
            .saturating_mul(unit_rows as u128)
            .saturating_mul(workers as u128)
            / u128::from(rows_left.max(1));
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX)).min(rem)
    });
    parent.child_with_memory(allowance, mem_slice)
}

/// The consecutive sub-unit ranges a shard of `len` rows splits into under
/// `split_unit`: with a target of `max(split, 2k-1)`, an oversized shard
/// becomes [`near_equal_ranges`] pieces, each at least `k` rows. `None`
/// (and any shard at or under the target) yields the whole shard as one
/// unit.
fn unit_ranges(len: usize, split: Option<usize>, k: usize) -> impl Iterator<Item = Range<usize>> {
    let target = split.map_or(usize::MAX, |s| s.max(2 * k.max(1) - 1));
    near_equal_ranges(len, target)
}

/// Combines the solved pieces of one logical shard (sub-units in range
/// order, or residue chunks in chunk order) into a single [`Solved`]: the
/// concatenated partition plus one report entry whose `solved_by` is the
/// weakest piece's guarantee — a degraded piece is never hidden behind a
/// stronger sibling. `elapsed` is the *sum* of piece times (CPU cost, not
/// wall time — pieces may have run concurrently).
pub(crate) fn combine_solved(id: usize, pieces: Vec<Solved>) -> Result<Solved> {
    debug_assert!(!pieces.is_empty(), "a shard always has at least one unit");
    if pieces.len() == 1 {
        return Ok(pieces.into_iter().next().expect("one piece"));
    }
    let mut parts = Vec::with_capacity(pieces.len());
    let mut rows = 0;
    let mut cost = 0;
    let mut attempts = 0;
    let mut degraded = false;
    let mut elapsed = Duration::ZERO;
    let mut worst: Option<SolvedBy> = None;
    let mut note = None;
    for s in pieces {
        rows += s.report.rows;
        cost += s.report.cost;
        attempts += s.report.attempts;
        degraded |= s.report.degraded;
        elapsed += s.report.elapsed;
        if note.is_none() {
            note = s.report.note;
        }
        worst = Some(match worst {
            None => s.report.solved_by,
            Some(w) => weaker_solver(w, s.report.solved_by),
        });
        parts.push(s.partition);
    }
    let partition = Partition::concat_disjoint(parts).map_err(Error::Core)?;
    Ok(Solved {
        partition,
        report: ShardReport {
            id,
            rows,
            solved_by: worst.expect("at least one piece"),
            degraded,
            attempts,
            cost,
            elapsed,
            note,
        },
    })
}

/// Solves the residue pool as a sequence of near-equal chunks of `target`
/// rows, combined into one [`Solved`] unit (one report entry, one progress
/// tick — the residue stays a single logical shard to callers).
///
/// Chunks are consecutive ranges of the residue's row order, so the
/// concatenated chunk partitions line up with the residue sub-table's
/// indices without any remapping. Each chunk gets everything that remains
/// of the parent budget, like the single-shard residue always did.
pub(crate) fn solve_residue(
    id: usize,
    sub: &Dataset,
    k: usize,
    target: usize,
    config: &PipelineConfig,
    parent: &Budget,
) -> Result<Solved> {
    let started = Instant::now();
    let rows: Vec<u32> = (0..sub.n_rows() as u32).collect();
    let chunks: Vec<_> = near_equal_ranges(rows.len(), target.max(2 * k.max(1) - 1)).collect();
    if chunks.len() == 1 {
        return solve_shard(id, sub, k, config, parent.child(None));
    }
    let mut buf: Vec<Value> = Vec::new();
    let mut pieces = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let piece = sub
            .select_rows_into(&rows[chunk], std::mem::take(&mut buf))
            .expect("residue chunks index the residue sub-table");
        pieces.push(solve_shard(id, &piece, k, config, parent.child(None))?);
        buf = piece.into_flat_buffer();
    }
    let mut s = combine_solved(id, pieces)?;
    // The residue runs alone on the caller's thread; wall time is the
    // honest figure here, matching the pre-chunking single-solve report.
    s.report.elapsed = started.elapsed();
    Ok(s)
}

/// Of two chunk outcomes, the one with the weaker guarantee — that is what
/// the combined residue entry reports, so a degraded chunk is never hidden
/// behind a stronger sibling.
fn weaker_solver(a: SolvedBy, b: SolvedBy) -> SolvedBy {
    let rank = |s: &SolvedBy| match s {
        // Rungs are ordered strongest-first in `Rung::ALL`.
        SolvedBy::Rung(r) => Rung::ALL
            .iter()
            .position(|x| x == r)
            .expect("Rung::ALL contains every rung"),
        SolvedBy::Fallback => Rung::ALL.len(),
    };
    if rank(&b) > rank(&a) {
        b
    } else {
        a
    }
}

/// The merge step shared by the batch engine and the delta engine:
/// concatenate per-shard partitions (in `parts` order), remap the
/// concatenated indices through `perm` (the shard rows in the same order)
/// back to table rows, then re-validate the (k, 2k-1) band before
/// assembling the final [`Anonymization`].
pub(crate) fn finalize_merge(
    ds: &Dataset,
    k: usize,
    perm: &[u32],
    parts: Vec<Partition>,
) -> Result<Anonymization> {
    let concat = Partition::concat_disjoint(parts).map_err(Error::Core)?;
    let blocks: Vec<Vec<u32>> = concat
        .blocks()
        .iter()
        .map(|b| b.iter().map(|&i| perm[i as usize]).collect())
        .collect();
    let partition = Partition::new(blocks, ds.n_rows(), k).map_err(Error::Core)?;
    partition.validate_group_sizes(k).map_err(Error::Core)?;
    anonymization_from_partition(ds, partition, k, Algorithm::External("pipeline"))
        .map_err(Error::Core)
}

/// One unit of work: a consecutive range of one shard's rows.
struct Unit {
    shard: usize,
    rows: Range<usize>,
}

/// Runs the sharded pipeline over an already-encoded table: plan shards,
/// solve each under a budget slice (in parallel when `config.workers`
/// allows), solve the residue, and merge into a whole-table anonymization.
///
/// The returned [`Anonymization`] covers all of `ds` and satisfies
/// k-anonymity; the [`PipelineReport`] records which solver answered each
/// shard, per-shard costs and timings, and end-to-end throughput.
///
/// # Errors
/// `k` validation errors, [`Error::Config`] for an invalid shard size or
/// worker count, and non-recoverable solver errors. Budget exhaustion is
/// *not* an error: shards whose ladder trips fall back to suppress-and-split
/// (reported as degraded).
pub fn run_pipeline(
    ds: &Dataset,
    k: usize,
    config: &PipelineConfig,
) -> Result<(Anonymization, PipelineReport)> {
    run_pipeline_with_progress(ds, k, config, &|_| {})
}

/// As [`run_pipeline`], with a progress callback invoked (on the calling
/// thread) as the plan is fixed, as each shard and the residue finish, and
/// when the merge starts. The engine holds no global state — handles are
/// fully re-entrant, so any number of pipelines may run concurrently in one
/// process, each reporting through its own callback.
pub fn run_pipeline_with_progress(
    ds: &Dataset,
    k: usize,
    config: &PipelineConfig,
    on_progress: &(dyn Fn(Progress) + Sync),
) -> Result<(Anonymization, PipelineReport)> {
    let started = Instant::now();
    let plan = plan_shards(ds, k, config)?;
    let units = plan.shards.len() + usize::from(!plan.residue.is_empty());
    on_progress(Progress::Planned {
        units,
        residue_rows: plan.residue.len(),
    });
    // A cancelled budget aborts up front. An already-expired *deadline*
    // does not: the run proceeds and every shard degrades to the fallback,
    // because completion-under-any-budget is the pipeline's contract.
    if config.budget.is_cancelled() {
        return Err(Error::Core(kanon_core::Error::BudgetExceeded {
            resource: Resource::Cancelled,
            spent: 0,
            limit: 0,
        }));
    }

    // The unit split is fixed by the plan alone (shard sizes, split_unit,
    // k), which is what makes the output invariant across worker counts.
    let mut units_per_shard = Vec::with_capacity(plan.shards.len());
    let mut todo: Vec<Unit> = Vec::new();
    for (shard, rows) in plan.shards.iter().enumerate() {
        let before = todo.len();
        todo.extend(unit_ranges(rows.len(), config.split_unit, k).map(|rows| Unit { shard, rows }));
        units_per_shard.push(todo.len() - before);
    }
    // Largest first, so the longest solves start early; the stable sort
    // keeps shard order among equal sizes.
    todo.sort_by_key(|u| std::cmp::Reverse(u.rows.len()));
    // Rows still unclaimed when unit `i` is claimed: it, every later unit,
    // and the residue.
    let mut unclaimed = vec![0u64; todo.len()];
    let mut acc = plan.residue.len() as u64;
    for (u, left) in todo.iter().zip(&mut unclaimed).rev() {
        acc += u.rows.len() as u64;
        *left = acc;
    }

    let workers = resolve_threads(config.workers)
        .max(1)
        .min(todo.len().max(1));
    let mem_slice = config.budget.memory_limit().map(|m| m / workers as u64);
    let cursor = AtomicUsize::new(0);
    let mut solved: Vec<Option<Solved>> = (0..plan.shards.len()).map(|_| None).collect();
    std::thread::scope(|scope| -> Result<()> {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Result<Solved>)>();
        for _ in 0..workers {
            let done_tx = done_tx.clone();
            let (todo, unclaimed, cursor, plan) = (&todo, &unclaimed, &cursor, &plan);
            scope.spawn(move || {
                let mut buf: Vec<Value> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(u) = todo.get(i) else { break };
                    let budget = slice_budget(
                        &config.budget,
                        u.rows.len(),
                        unclaimed[i],
                        workers,
                        mem_slice,
                    );
                    let sub = ds
                        .select_rows_into(
                            &plan.shards[u.shard][u.rows.clone()],
                            std::mem::take(&mut buf),
                        )
                        .expect("shard plan only holds in-range row indices");
                    let out = solve_shard(u.shard, &sub, k, config, budget);
                    buf = sub.into_flat_buffer();
                    // A closed channel means the run failed: stop claiming.
                    if done_tx.send((i, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);

        // Units of a shard land in any order; a shard completes, and ticks
        // progress, when its last unit arrives. Returning early drops the
        // receiver, so workers stop after their in-flight unit.
        let mut pending: Vec<Vec<(usize, Solved)>> =
            (0..plan.shards.len()).map(|_| Vec::new()).collect();
        let mut done = 0;
        for (i, out) in done_rx {
            let Unit { shard, ref rows } = todo[i];
            let pieces = &mut pending[shard];
            pieces.push((rows.start, out?));
            if pieces.len() < units_per_shard[shard] {
                continue;
            }
            pieces.sort_unstable_by_key(|&(start, _)| start);
            let s = combine_solved(shard, pieces.drain(..).map(|(_, s)| s).collect())?;
            done += 1;
            on_progress(Progress::UnitSolved {
                done,
                units,
                degraded: s.report.degraded,
            });
            solved[shard] = Some(s);
        }
        Ok(())
    })?;

    // The residue is solved alone, after the shards, with everything that
    // remains of the budget (full memory cap — no concurrent peers).
    let residue_solved = if plan.residue.is_empty() {
        None
    } else {
        let sub = ds
            .select_rows_into(&plan.residue, Vec::new())
            .expect("shard plan only holds in-range row indices");
        let target = residue_chunk_target(ds.n_rows(), plan.n_buckets, k, config.shard_size);
        let s = solve_residue(plan.shards.len(), &sub, k, target, config, &config.budget)?;
        on_progress(Progress::UnitSolved {
            done: units,
            units,
            degraded: s.report.degraded,
        });
        Some(s)
    };
    on_progress(Progress::Merging);

    // Merge: concatenate local partitions in shard order, then remap the
    // concatenated row indices through the permutation (shard rows in
    // order, residue last) back to original table rows.
    let mut perm: Vec<u32> = Vec::with_capacity(ds.n_rows());
    let mut parts = Vec::with_capacity(solved.len() + 1);
    let mut shard_reports = Vec::with_capacity(solved.len() + 1);
    for (rows, s) in plan.shards.iter().zip(solved) {
        let s = s.expect("every shard was solved or the error propagated");
        perm.extend_from_slice(rows);
        parts.push(s.partition);
        shard_reports.push(s.report);
    }
    if let Some(s) = residue_solved {
        perm.extend_from_slice(&plan.residue);
        parts.push(s.partition);
        shard_reports.push(s.report);
    }
    let anon = finalize_merge(ds, k, &perm, parts)?;
    // Per-block suppression is position-independent, so the merged cost is
    // exactly the sum of the per-shard costs.
    debug_assert_eq!(
        anon.cost,
        shard_reports.iter().map(|r| r.cost).sum::<usize>()
    );

    let report = PipelineReport {
        n_rows: ds.n_rows(),
        n_cols: ds.n_cols(),
        k,
        shard_size: config.shard_size,
        strategy: config.strategy.name(),
        workers,
        shards: shard_reports,
        residue_rows: plan.residue.len(),
        total_cost: anon.cost,
        elapsed: started.elapsed(),
        generalization: None,
        privacy: None,
    };
    Ok((anon, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardStrategy;

    fn dataset(n: usize) -> Dataset {
        Dataset::from_fn(n, 4, |i, j| ((i * 13 + j * 7) % 6) as u32)
    }

    #[test]
    fn pipeline_output_is_k_anonymous_and_costs_add_up() {
        let ds = dataset(120);
        let config = PipelineConfig {
            shard_size: 24,
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        assert_eq!(anon.partition.n_rows(), 120);
        anon.partition.validate_group_sizes(3).unwrap();
        assert_eq!(report.n_rows, 120);
        assert_eq!(
            report.total_cost,
            report.shards.iter().map(|s| s.cost).sum::<usize>()
        );
        assert_eq!(report.shards.iter().map(|s| s.rows).sum::<usize>(), 120);
        assert_eq!(anon.cost, report.total_cost);
    }

    #[test]
    fn sorted_strategy_also_merges_validly() {
        let ds = dataset(90);
        let config = PipelineConfig {
            shard_size: 16,
            strategy: ShardStrategy::Sorted,
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 4, &config).unwrap();
        assert!(anon.table.is_k_anonymous(4));
        anon.partition.validate_group_sizes(4).unwrap();
        assert_eq!(report.residue_rows, 0);
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        let ds = dataset(100);
        let mut outputs = Vec::new();
        for workers in [1, 2, 4] {
            let config = PipelineConfig {
                shard_size: 16,
                workers: Some(workers),
                ..PipelineConfig::default()
            };
            let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
            assert!(report.workers <= workers.max(1));
            outputs.push((anon.partition, anon.cost));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn unit_ranges_mirror_near_equal_chunking() {
        let ranges = |len, split, k| unit_ranges(len, split, k).collect::<Vec<_>>();
        // No split → one unit regardless of size.
        assert_eq!(ranges(1000, None, 3), vec![0..1000]);
        // At or under the target → one unit.
        assert_eq!(ranges(12, Some(12), 3), vec![0..12]);
        // A split below the 2k-1 floor is raised to it.
        assert_eq!(ranges(9, Some(2), 5), vec![0..9]);
        // Over the target → consecutive near-equal pieces covering the
        // shard, each at least k rows.
        for (len, split, k) in [(100, 30, 3), (100, 5, 3), (37, 12, 5), (6, 5, 2)] {
            let pieces = ranges(len, Some(split), k);
            assert!(pieces.len() > 1, "{len}/{split} should split");
            assert_eq!(
                pieces,
                near_equal_ranges(len, split.max(2 * k - 1)).collect::<Vec<_>>()
            );
            for p in &pieces {
                assert!(p.len() >= k, "piece {p:?} below k={k}");
            }
        }
    }

    #[test]
    fn split_units_do_not_change_the_answer_across_worker_counts() {
        let ds = dataset(100);
        // One big bucket → one 100-row shard → four 25-row units, so
        // every worker count reassembles one shard from several units.
        let mut outputs = Vec::new();
        for workers in [1, 2, 4] {
            let config = PipelineConfig {
                shard_size: 100,
                n_buckets: Some(1),
                split_unit: Some(25),
                workers: Some(workers),
                ..PipelineConfig::default()
            };
            let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
            assert!(anon.table.is_k_anonymous(3));
            anon.partition.validate_group_sizes(3).unwrap();
            assert_eq!(report.shards.len(), 1);
            assert_eq!(report.shards[0].rows, 100);
            // Splitting unlocks parallelism beyond the shard count.
            assert_eq!(report.workers, workers);
            outputs.push((anon.partition, anon.cost));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn split_and_unsplit_runs_are_both_valid() {
        let ds = dataset(140);
        let unsplit = PipelineConfig {
            shard_size: 48,
            ..PipelineConfig::default()
        };
        let split = PipelineConfig {
            shard_size: 48,
            split_unit: Some(12),
            workers: Some(3),
            ..PipelineConfig::default()
        };
        let (a, ra) = run_pipeline(&ds, 3, &unsplit).unwrap();
        let (b, rb) = run_pipeline(&ds, 3, &split).unwrap();
        assert!(a.table.is_k_anonymous(3));
        assert!(b.table.is_k_anonymous(3));
        // Same plan, same shard row counts — only the per-shard solve
        // granularity differs (and with it, possibly the cost).
        assert_eq!(ra.shards.len(), rb.shards.len());
        for (x, y) in ra.shards.iter().zip(&rb.shards) {
            assert_eq!(x.rows, y.rows);
        }
    }

    #[test]
    fn exhausted_budget_degrades_but_completes() {
        let ds = dataset(150);
        let config = PipelineConfig {
            shard_size: 16,
            budget: Budget::builder().deadline(Duration::from_millis(0)).build(),
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        assert!(report.degraded_shards() > 0);
        assert!(report
            .shards
            .iter()
            .any(|s| s.solved_by == SolvedBy::Fallback));
    }

    #[test]
    fn tiny_table_is_one_shard_or_residue() {
        let ds = dataset(7);
        let (anon, report) = run_pipeline(&ds, 3, &PipelineConfig::default()).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        assert_eq!(report.shards.len(), 1);
    }

    #[test]
    fn cancelled_budget_still_yields_a_valid_table() {
        let ds = dataset(40);
        let config = PipelineConfig {
            shard_size: 8,
            ..PipelineConfig::default()
        };
        config.budget.cancel();
        // Cancellation before the run starts is reported as an error (the
        // up-front check), not a degraded run.
        assert!(run_pipeline(&ds, 3, &config).is_err());
    }

    #[test]
    fn progress_events_cover_every_unit_in_order() {
        let ds = dataset(100);
        for (workers, split) in [(1, None), (3, None), (3, Some(8))] {
            let config = PipelineConfig {
                shard_size: 16,
                workers: Some(workers),
                split_unit: split,
                ..PipelineConfig::default()
            };
            let events = std::sync::Mutex::new(Vec::new());
            let (_, report) =
                run_pipeline_with_progress(&ds, 3, &config, &|p| events.lock().unwrap().push(p))
                    .unwrap();
            let events = events.into_inner().unwrap();
            let units = report.shards.len();
            assert_eq!(events.len(), units + 2, "{events:?}");
            assert_eq!(
                events[0],
                Progress::Planned {
                    units,
                    residue_rows: report.residue_rows,
                }
            );
            for (i, event) in events[1..=units].iter().enumerate() {
                match *event {
                    Progress::UnitSolved { done, units: u, .. } => {
                        assert_eq!(done, i + 1);
                        assert_eq!(u, units);
                    }
                    other => panic!("expected UnitSolved, got {other:?}"),
                }
            }
            assert_eq!(events[units + 1], Progress::Merging);
        }
    }

    #[test]
    fn start_rung_override_is_respected() {
        let ds = dataset(60);
        let config = PipelineConfig {
            shard_size: 12,
            start: Some(Rung::Agglomerative),
            ..PipelineConfig::default()
        };
        let (anon, report) = run_pipeline(&ds, 3, &config).unwrap();
        assert!(anon.table.is_k_anonymous(3));
        for shard in &report.shards {
            assert_eq!(shard.solved_by, SolvedBy::Rung(Rung::Agglomerative));
        }
    }
}
