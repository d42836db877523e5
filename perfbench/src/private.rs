//! `private_census`: a 20k-row census table held to k=5 and l=3 on
//! `occupation` through `run_csv_private`, written, checked cold, then
//! audited with `attack_tables` and `linkage_attack` on a fixed 2,000-row
//! sample of its own rows. Privacy repair and the attack dominate.

use std::path::Path;
use std::time::Instant;

use kanon_core::algo::anonymization_from_partition;
use kanon_core::{Algorithm, Value};
use kanon_pipeline::{
    attack_tables, run_csv_private, run_pipeline, CsvRun, PipelineConfig, ShardStrategy,
};
use kanon_privacy::{enforce, verify, PrivacyModel};
use kanon_relation::{linkage_attack, Table};

use crate::batch::{
    engine_layers, ingest_layers, median_layers, plan_layers, read_file, write_file, Layers,
    MAX_LOSS,
};
use crate::check::{cold_check, fnv64};
use crate::gen::{census_csv, derive_seed, sample_rows, CENSUS_COLUMNS};
use crate::stats::{median, Tail};
use crate::trace::{SpanId, Tracer};
use crate::{ms_since, Args, Host, Outcome};

const ROWS: usize = 20_000;
const REGIONS: usize = 8;
const K: usize = 5;
const L: usize = 3;
const SHARD: usize = 512;
const QUASI: [&str; 6] = ["age", "sex", "race", "marital", "education", "zip"];
const SENSITIVE: &str = "occupation";
/// Times the input is generated during set-up; the median counts.
const SETUP_REPEATS: usize = 9;
/// Percentile of `job_tail_ms`. A run at the benchmark's run length
/// completes 7 to 12 jobs, so no percentile above the median keeps ten
/// samples beyond it.
const JOB_TAIL: f64 = 50.0;
/// Rows of its own table the audit's attacker holds.
const ATTACK_SAMPLE: usize = 2_000;

fn column(name: &str) -> usize {
    CENSUS_COLUMNS
        .iter()
        .position(|c| *c == name)
        .expect("a census column")
}

/// One iteration's result.
struct Iteration {
    ms: f64,
    digest: u64,
    loss: f64,
    cold_loss: f64,
    /// `linkage_attack` on the sampled rows.
    audit_success: f64,
    /// The same attack by pattern lookup on the release bytes.
    pattern_success: f64,
    /// Pattern lookup for an attacker holding every row.
    attack_success: f64,
    layers: Option<Layers>,
}

/// What one iteration's timed part produced.
struct Timed {
    ms: f64,
    loss: f64,
    audit_success: f64,
}

/// The fixed inputs every iteration works on.
struct Job<'a> {
    csv: &'a [u8],
    config: &'a PipelineConfig,
    path: &'a Path,
    sample: &'a [usize],
}

impl Iteration {
    /// Checks the written release cold (not timed) and measures the
    /// attack on it by pattern lookup.
    fn check(
        job: &Job,
        timed: Timed,
        tracer: &Tracer,
        id: u64,
        parent: SpanId,
        layers: Option<Layers>,
    ) -> Result<Iteration, String> {
        let t = Instant::now();
        let (release, cold) = tracer.span("check.cold", id, parent, || {
            let release = read_file(job.path)?;
            let cold = cold_check(Some(job.csv), &release, &QUASI, K, Some((SENSITIVE, L)))?;
            Ok::<_, String>((release, cold))
        })?;
        let layers = layers.map(|mut l| {
            l.insert("check.cold_ms", ms_since(t));
            l.insert("release.bytes", release.len() as f64);
            l.insert("attack.patterns", cold.patterns() as f64);
            l
        });
        let (pattern_success, attack_success) =
            tracer.span("check.patterns", id, parent, || {
                Ok::<_, String>((
                    cold.expected_success(job.csv, &QUASI, Some(job.sample))?,
                    cold.expected_success(job.csv, &QUASI, None)?,
                ))
            })?;
        Ok(Iteration {
            ms: timed.ms,
            digest: fnv64(&release),
            loss: timed.loss,
            cold_loss: cold.loss(),
            audit_success: timed.audit_success,
            pattern_success,
            attack_success,
            layers,
        })
    }
}

/// The attacker's side information: the sampled rows of the release's own
/// external table.
fn sample_table(external: &Table, sample: &[usize]) -> Result<Table, String> {
    let rows = sample.iter().map(|&i| external.row(i).to_vec()).collect();
    Table::with_rows(external.schema().clone(), rows).map_err(|e| format!("sample table: {e}"))
}

fn join(released: &Table, external: &Table) -> Result<f64, String> {
    let pairs: Vec<(&str, &str)> = QUASI.iter().map(|&n| (n, n)).collect();
    linkage_attack(released, external, &pairs)
        .map(|r| r.expected_success)
        .map_err(|e| format!("linkage_attack: {e}"))
}

fn model() -> PrivacyModel {
    PrivacyModel::parse(&format!("l={L}")).expect("a valid spec")
}

/// The entry point the CLI uses, `run_csv_private`, then `write_release`
/// and the audit.
fn untraced(job: &Job) -> Result<Iteration, String> {
    let t = Instant::now();
    let quasi: Vec<String> = QUASI.iter().map(|s| s.to_string()).collect();
    let run = run_csv_private(
        job.csv,
        K,
        Some(&quasi),
        Some(SENSITIVE),
        model(),
        job.config,
    )
    .map_err(|e| format!("run_csv_private: {e}"))?;
    if !run.report.privacy.as_ref().is_some_and(|p| p.verified) {
        return Err("run_csv_private did not verify its release".into());
    }
    write_file(
        job.path,
        &run.dataset,
        &run.codec,
        &run.quasi,
        &run.anonymization,
    )?;
    let (released, all) =
        attack_tables(&run, usize::MAX).map_err(|e| format!("attack_tables: {e}"))?;
    let audit_success = join(&released, &sample_table(&all, job.sample)?)?;
    let timed = Timed {
        ms: ms_since(t),
        loss: run.report.information_loss(),
        audit_success,
    };
    Iteration::check(job, timed, &Tracer::new(false), 0, SpanId::ROOT, None)
}

/// `run_csv_private` composed from the layers' entry points, a span
/// around each call.
fn traced(tracer: &Tracer, id: u64, job: &Job) -> Result<Iteration, String> {
    let t = Instant::now();
    let root = tracer.begin("private.iteration", id, SpanId::ROOT);
    let mut layers = Layers::new();
    let quasi: Vec<usize> = QUASI.iter().map(|n| column(n)).collect();
    let sens = column(SENSITIVE);
    let (ds, codec, qi) = ingest_layers(tracer, id, root, job.csv, &quasi, &mut layers)?;
    let plan_ms = plan_layers(tracer, id, root, &qi, K, job.config, &mut layers)?;
    let t_run = Instant::now();
    let (mut anon, mut report) = tracer
        .span("engine.run_pipeline", id, root, || {
            run_pipeline(&qi, K, job.config)
        })
        .map_err(|e| format!("run_pipeline: {e}"))?;
    engine_layers(&report, ms_since(t_run) - plan_ms, &mut layers);

    let model = model();
    let t_enforce = Instant::now();
    let sens_values: Vec<Value> = tracer.span("privacy.sensitive", id, root, || {
        (0..ds.n_rows()).map(|i| ds.row(i)[sens]).collect()
    });
    let outcome = tracer
        .span("privacy.enforce", id, root, || {
            enforce(&qi, &anon.partition, &sens_values, model)
        })
        .map_err(|e| format!("enforce: {e}"))?;
    layers.insert("privacy.enforce_ms", ms_since(t_enforce));
    layers.insert("privacy.merges", outcome.merges as f64);
    layers.insert(
        "privacy.violations_before",
        outcome.report_before.violations.len() as f64,
    );
    let t_rebuild = Instant::now();
    if outcome.merges > 0 {
        anon = tracer
            .span("privacy.rebuild", id, root, || {
                anonymization_from_partition(
                    &qi,
                    outcome.partition,
                    K,
                    Algorithm::External("pipeline+privacy"),
                )
            })
            .map_err(|e| format!("anonymization_from_partition: {e}"))?;
    }
    layers.insert("privacy.rebuild_ms", ms_since(t_rebuild));
    let t_verify = Instant::now();
    let verified = tracer.span("privacy.verify", id, root, || {
        verify(model, &anon.partition, &sens_values).map(|r| r.ok() && anon.table.is_k_anonymous(K))
    });
    layers.insert("privacy.verify_ms", ms_since(t_verify));
    if !matches!(verified, Ok(true)) {
        return Err(format!("repaired release does not verify: {verified:?}"));
    }
    report.total_cost = anon.cost;
    let loss = report.information_loss();
    let run = CsvRun {
        dataset: ds,
        codec,
        quasi,
        anonymization: anon,
        report,
    };
    let t_write = Instant::now();
    tracer.span("release.write", id, root, || {
        write_file(
            job.path,
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization,
        )
    })?;
    layers.insert("release.write_ms", ms_since(t_write));

    let t_tables = Instant::now();
    let (released, all) = tracer
        .span("attack.tables", id, root, || {
            attack_tables(&run, usize::MAX)
        })
        .map_err(|e| format!("attack_tables: {e}"))?;
    let sampled = tracer.span("attack.sample", id, root, || sample_table(&all, job.sample))?;
    layers.insert("attack.tables_ms", ms_since(t_tables));
    let t_join = Instant::now();
    let audit_success = tracer.span("attack.join", id, root, || join(&released, &sampled))?;
    layers.insert("attack.join_ms", ms_since(t_join));
    layers.insert("attack.sample_rows", sampled.n_rows() as f64);
    layers.insert("attack.released_rows", released.n_rows() as f64);
    let timed = Timed {
        ms: ms_since(t),
        loss,
        audit_success,
    };
    let it = Iteration::check(job, timed, tracer, id, root, Some(layers));
    tracer.end(root);
    it
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
    out.detail("l", L);
    out.detail("attack_sample", ATTACK_SAMPLE);

    // Set-up is the input, generated SETUP_REPEATS times, then one
    // warm-up iteration. Generating 20k rows takes about 15 ms, and a
    // timing that short follows the host's memory system more than the
    // work; the warm-up, which runs the iteration's own calls, gives
    // `setup_s` the iterations' share of that noise and keeps the first,
    // cold iteration out of the job times.
    let mut setup = Vec::new();
    let mut csv = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let bytes = census_csv(derive_seed(args.seed, 2, 0), ROWS, REGIONS);
        setup.push(t.elapsed().as_secs_f64());
        if !csv.is_empty() && bytes != csv {
            out.fail("input generation is not deterministic".into());
        }
        csv = bytes;
    }
    let sample = sample_rows(derive_seed(args.seed, 3, 0), ROWS, ATTACK_SAMPLE);

    let config = PipelineConfig {
        shard_size: SHARD,
        strategy: ShardStrategy::Sorted,
        workers: Some(workers),
        ..PipelineConfig::default()
    };
    out.detail("strategy", format!("\"{}\"", config.strategy.name()));
    let path = dir.join("release.csv");
    let job = Job {
        csv: &csv,
        config: &config,
        path: &path,
        sample: &sample,
    };
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_layers = Vec::new();
    let key = |it: &Iteration| (it.digest, it.loss, it.attack_success, it.audit_success);
    let t = Instant::now();
    // Every later release must equal the warm-up's.
    let mut seen = out.op(untraced(&job)).map(|it| key(&it));
    out.e2e("setup_s", median(&setup) + t.elapsed().as_secs_f64());
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let result = if args.trace && i.is_multiple_of(2) {
            traced(tracer, i, &job)
        } else {
            untraced(&job)
        };
        i += 1;
        let Some(it) = out.op(result) else { continue };
        if it.loss > MAX_LOSS {
            out.fail(format!(
                "release loses {:.3} of its cells (regime guard)",
                it.loss
            ));
        }
        if (it.loss - it.cold_loss).abs() > 1e-9 {
            out.fail(format!(
                "report loss {} differs from the {} counted in the release",
                it.loss, it.cold_loss
            ));
        }
        if (it.audit_success - it.pattern_success).abs() > 1e-9 {
            out.fail(format!(
                "linkage_attack says {} but the release's patterns give {}",
                it.audit_success, it.pattern_success
            ));
        }
        let key = key(&it);
        match seen {
            None => seen = Some(key),
            Some(first) if first != key => {
                out.fail(format!(
                    "iteration {i} released {key:?}, the first released {first:?}"
                ));
            }
            Some(_) => {}
        }
        match it.layers {
            Some(layers) => {
                traced_ms.push(it.ms);
                traced_layers.push(layers);
            }
            None => untraced_ms.push(it.ms),
        }
    }
    let Some((digest, loss, attack_success, audit_success)) = seen else {
        return Err("no iteration succeeded".into());
    };
    out.detail("release_digest", format!("\"{digest:016x}\""));
    out.detail("iterations", i);
    out.detail("audit_success", audit_success);
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
    out.e2e("info_loss", loss);
    out.attack_success(attack_success);
    if args.trace {
        median_layers(&traced_layers, out);
        out.layer(
            "trace.overhead_frac",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
        );
    }
    Ok(())
}
