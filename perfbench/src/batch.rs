//! `batch_census`: a million-row census CSV from in-memory bytes through
//! `run_csv` and `write_release` to a file, then a cold k-check of the
//! bytes written. Solve dominates; privacy, attack, HTTP and WAL do no
//! work.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use kanon_core::suppression::verify_k_anonymity;
use kanon_core::{Anonymization, Dataset};
use kanon_pipeline::{
    ingest_csv, plan_shards, run_csv, run_pipeline, write_release, PipelineConfig, PipelineReport,
    ShardStrategy,
};
use kanon_relation::Codec;

use crate::check::{cold_check, fnv64, Cold};
use crate::gen::{census_csv, derive_seed, CENSUS_COLUMNS};
use crate::stats::{median, tail, Tail};
use crate::trace::{SpanId, Tracer};
use crate::{ms_since, Args, Host, Outcome};

const ROWS: usize = 1_000_000;
const REGIONS: usize = 8;
const K: usize = 5;
const SHARD: usize = 512;
/// Times the input is generated during set-up; the median counts.
const SETUP_REPEATS: usize = 3;
/// Percentile of `job_tail_ms`. A run at the benchmark's run length
/// completes 3 or 4 jobs, so no percentile above the median keeps ten
/// samples beyond it.
const JOB_TAIL: f64 = 50.0;
/// Largest suppressed share of quasi-identifier cells a workload may
/// release before it counts as measuring the degenerate regime.
pub const MAX_LOSS: f64 = 0.8;

/// Per-layer values of one traced iteration.
pub type Layers = BTreeMap<&'static str, f64>;

/// Engine metrics from a pipeline report: unit times, pool idleness over
/// the solve wall time, degraded units and the rung that answered each
/// unit.
pub fn engine_layers(report: &PipelineReport, solve_ms: f64, layers: &mut Layers) {
    let units: Vec<f64> = report
        .shards
        .iter()
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .collect();
    let busy: f64 = units.iter().sum();
    layers.insert("engine.solve_ms", solve_ms);
    layers.insert("engine.unit_p50_ms", median(&units));
    layers.insert("engine.unit_tail_ms", tail(&units).value);
    layers.insert(
        "engine.idle_frac",
        1.0 - busy / (report.workers.max(1) as f64 * solve_ms.max(1e-9)),
    );
    layers.insert("engine.degraded_units", report.degraded_shards() as f64);
    for rung in [
        "engine.rung.full-greedy-cover",
        "engine.rung.center-greedy",
        "engine.rung.agglomerative",
        "engine.rung.suppress-split-fallback",
    ] {
        let name = &rung["engine.rung.".len()..];
        let n = report
            .shards
            .iter()
            .filter(|s| s.solved_by.name() == name)
            .count();
        layers.insert(rung, n as f64);
    }
}

/// Shard-plan metrics of `qi` under `config`, and the plan's time.
pub fn plan_layers(
    tracer: &Tracer,
    id: u64,
    parent: SpanId,
    qi: &Dataset,
    k: usize,
    config: &PipelineConfig,
    layers: &mut Layers,
) -> Result<f64, String> {
    let t = Instant::now();
    let plan = tracer
        .span("shard.plan", id, parent, || plan_shards(qi, k, config))
        .map_err(|e| format!("plan_shards: {e}"))?;
    let plan_ms = ms_since(t);
    layers.insert("shard.plan_ms", plan_ms);
    layers.insert(
        "shard.units",
        (plan.shards.len() + usize::from(!plan.residue.is_empty())) as f64,
    );
    layers.insert("shard.residue_rows", plan.residue.len() as f64);
    layers.insert(
        "shard.rows_max",
        plan.shards.iter().map(Vec::len).max().unwrap_or(0) as f64,
    );
    Ok(plan_ms)
}

/// Ingests `csv` and projects `quasi`, recording ingest metrics.
pub fn ingest_layers(
    tracer: &Tracer,
    id: u64,
    parent: SpanId,
    csv: &[u8],
    quasi: &[usize],
    layers: &mut Layers,
) -> Result<(Dataset, Codec, Dataset), String> {
    let t = Instant::now();
    let (ds, codec) = tracer
        .span("ingest.csv", id, parent, || ingest_csv(csv))
        .map_err(|e| format!("ingest_csv: {e}"))?;
    let qi = tracer
        .span("ingest.project", id, parent, || ds.project_columns(quasi))
        .map_err(|e| format!("project_columns: {e}"))?;
    let ms = ms_since(t);
    layers.insert("ingest.ms", ms);
    layers.insert(
        "ingest.mb_per_s",
        csv.len() as f64 / 1e6 / (ms / 1e3).max(1e-9),
    );
    layers.insert("ingest.rows", ds.n_rows() as f64);
    Ok((ds, codec, qi))
}

/// Writes a release to `path` with the program's writer.
pub fn write_file(
    path: &Path,
    ds: &Dataset,
    codec: &Codec,
    quasi: &[usize],
    anon: &Anonymization,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    write_release(ds, codec, quasi, &anon.suppressor, BufWriter::new(file))
        .map_err(|e| format!("write_release: {e}"))
}

/// The bytes a release file holds.
pub fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// One iteration's result.
struct Iteration {
    ms: f64,
    digest: u64,
    loss: f64,
    degraded: usize,
    cold: Cold,
    layers: Option<Layers>,
}

fn pipeline_config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        shard_size: SHARD,
        strategy: ShardStrategy::Sorted,
        workers: Some(workers),
        ..PipelineConfig::default()
    }
}

/// The entry point the CLI uses, `run_csv`, then `write_release`; the
/// cold check of the bytes written is not timed.
fn untraced(csv: &[u8], config: &PipelineConfig, path: &Path) -> Result<Iteration, String> {
    let t = Instant::now();
    let run = run_csv(csv, K, None, config).map_err(|e| format!("run_csv: {e}"))?;
    write_file(
        path,
        &run.dataset,
        &run.codec,
        &run.quasi,
        &run.anonymization,
    )?;
    let ms = ms_since(t);
    let release = read_file(path)?;
    let cold = cold_check(Some(csv), &release, &CENSUS_COLUMNS, K, None)?;
    Ok(Iteration {
        ms,
        digest: fnv64(&release),
        loss: run.report.information_loss(),
        degraded: run.report.degraded_shards(),
        cold,
        layers: None,
    })
}

/// The same work composed from the layers' entry points, a span around
/// each call.
fn traced(
    tracer: &Tracer,
    id: u64,
    csv: &[u8],
    config: &PipelineConfig,
    path: &Path,
) -> Result<(Iteration, Dataset), String> {
    let t = Instant::now();
    let root = tracer.begin("batch.iteration", id, SpanId::ROOT);
    let mut layers = Layers::new();
    let all: Vec<usize> = (0..CENSUS_COLUMNS.len()).collect();
    let (ds, codec, qi) = ingest_layers(tracer, id, root, csv, &all, &mut layers)?;
    let plan_ms = plan_layers(tracer, id, root, &qi, K, config, &mut layers)?;
    let t_run = Instant::now();
    let (anon, report) = tracer
        .span("engine.run_pipeline", id, root, || {
            run_pipeline(&qi, K, config)
        })
        .map_err(|e| format!("run_pipeline: {e}"))?;
    engine_layers(&report, ms_since(t_run) - plan_ms, &mut layers);
    let t_verify = Instant::now();
    tracer
        .span("verify.k", id, root, || {
            verify_k_anonymity(&qi, &anon.suppressor, K)
        })
        .map_err(|e| format!("verify_k_anonymity: {e}"))?;
    layers.insert("verify.ms", ms_since(t_verify));
    let t_write = Instant::now();
    tracer.span("release.write", id, root, || {
        write_file(path, &ds, &codec, &all, &anon)
    })?;
    layers.insert("release.write_ms", ms_since(t_write));
    let ms = ms_since(t);
    let t_cold = Instant::now();
    let (release, cold) = tracer.span("check.cold", id, root, || {
        let release = read_file(path)?;
        let cold = cold_check(Some(csv), &release, &CENSUS_COLUMNS, K, None)?;
        Ok::<_, String>((release, cold))
    })?;
    layers.insert("check.cold_ms", ms_since(t_cold));
    layers.insert("release.bytes", release.len() as f64);
    layers.insert("attack.patterns", cold.patterns() as f64);
    tracer.end(root);
    Ok((
        Iteration {
            ms,
            digest: fnv64(&release),
            loss: report.information_loss(),
            degraded: report.degraded_shards(),
            cold,
            layers: Some(layers),
        },
        qi,
    ))
}

/// Medians of each per-layer value over traced iterations.
pub fn median_layers(all: &[Layers], out: &mut Outcome) {
    let mut keys: Vec<&'static str> = all.iter().flat_map(|l| l.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let values: Vec<f64> = all.iter().filter_map(|l| l.get(key).copied()).collect();
        out.layer(key, median(&values));
    }
}

pub fn run(
    args: &Args,
    host: &Host,
    tracer: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let workers = host.guard("pipeline workers", host.nproc.min(2))?;
    out.detail("pipeline_workers", workers);
    out.detail("load_threads", 1);
    out.detail("rows", ROWS);
    out.detail("k", K);
    out.detail("shard_size", SHARD);
    out.detail("strategy", "\"sorted\"");

    // Set-up is the input, generated SETUP_REPEATS times, then one
    // warm-up iteration. Generating the input fills fresh pages, and its
    // time swung by a third from run to run with the host; the warm-up,
    // which runs the iteration's own calls, gives `setup_s` the
    // iterations' share of that noise and keeps the first, cold
    // iteration out of the job times.
    let mut setup = Vec::new();
    let mut csv = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let bytes = census_csv(derive_seed(args.seed, 1, 0), ROWS, REGIONS);
        setup.push(t.elapsed().as_secs_f64());
        if !csv.is_empty() && bytes != csv {
            out.fail("input generation is not deterministic".into());
        }
        csv = bytes;
    }
    out.detail("input_bytes", csv.len());

    let config = pipeline_config(workers);
    let path = dir.join("release.csv");
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_layers = Vec::new();
    let t = Instant::now();
    // Every later release must equal the warm-up's.
    let mut digests: Vec<u64> = out
        .op(untraced(&csv, &config, &path))
        .map(|it| it.digest)
        .into_iter()
        .collect();
    out.e2e("setup_s", median(&setup) + t.elapsed().as_secs_f64());
    let mut last: Option<Iteration> = None;
    let mut qi_kept = None;
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let traced_iteration = args.trace && i.is_multiple_of(2);
        let result = if traced_iteration {
            traced(tracer, i, &csv, &config, &path).map(|(it, qi)| {
                qi_kept = Some(qi);
                it
            })
        } else {
            untraced(&csv, &config, &path)
        };
        if let Some(it) = out.op(result) {
            if it.loss > MAX_LOSS {
                out.fail(format!(
                    "release loses {:.3} of its cells (regime guard)",
                    it.loss
                ));
            }
            if it.degraded > 0 {
                out.fail(format!("{} degraded units (regime guard)", it.degraded));
            }
            if (it.loss - it.cold.loss()).abs() > 1e-9 {
                out.fail(format!(
                    "report loss {} differs from the {} counted in the release",
                    it.loss,
                    it.cold.loss()
                ));
            }
            if let Some(layers) = &it.layers {
                traced_ms.push(it.ms);
                traced_layers.push(layers.clone());
            } else {
                untraced_ms.push(it.ms);
            }
            digests.push(it.digest);
            last = Some(it);
        }
        i += 1;
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!(
            "release digests differ across iterations: {digests:x?}"
        ));
    }
    let Some(last) = last else {
        return Err("no iteration succeeded".into());
    };
    out.detail("release_digest", format!("\"{:016x}\"", last.digest));
    out.detail("iterations", i);

    let times = if untraced_ms.is_empty() {
        &traced_ms
    } else {
        &untraced_ms
    };
    let p50 = median(times);
    let t = Tail::at(times, JOB_TAIL);
    out.e2e("rows_per_s", ROWS as f64 / (p50 / 1e3));
    out.e2e(
        "jobs_per_s",
        times.len() as f64 / (times.iter().sum::<f64>() / 1e3),
    );
    out.e2e("job_p50_ms", p50);
    out.e2e("job_tail_ms", t.value);
    out.tail("job_tail_ms", t);
    out.e2e("info_loss", last.loss);

    // The attack layer does no work here: the expected success of an
    // attacker holding every original row comes from the release by
    // pattern lookup.
    out.attack_success(last.cold.expected_success(&csv, &CENSUS_COLUMNS, None)?);

    if args.trace {
        median_layers(&traced_layers, out);
        out.layer(
            "trace.overhead_frac",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
        );
        // Same solve on one worker: the pool's speed-up, and a check that
        // the release does not depend on the worker count.
        if let Some(qi) = qi_kept {
            let probe = tracer.begin("probe.speedup", i, SpanId::ROOT);
            let one = pipeline_config(1);
            let t1 = Instant::now();
            let solo = tracer.span("engine.run_pipeline_1w", i, probe, || {
                run_pipeline(&qi, K, &one)
            });
            let solo_ms = ms_since(t1);
            let tn = Instant::now();
            let multi = tracer.span("engine.run_pipeline", i, probe, || {
                run_pipeline(&qi, K, &config)
            });
            let multi_ms = ms_since(tn);
            tracer.end(probe);
            match (solo, multi) {
                (Ok((a, _)), Ok((b, _))) => {
                    out.attempted += 1;
                    if a.suppressor != b.suppressor {
                        out.fail("release depends on the worker count".into());
                    }
                    out.layer("engine.speedup_1w", solo_ms / multi_ms);
                }
                (Err(e), _) | (_, Err(e)) => {
                    out.op::<()>(Err(format!("run_pipeline: {e}")));
                }
            }
        }
    }
    Ok(())
}
