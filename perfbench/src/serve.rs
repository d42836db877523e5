//! `serve_mixed`: a self-hosted `kanon_service::Server` driven over HTTP
//! by two closed-loop clients. Client A submits census anonymize jobs and
//! polls each to completion; client B is the one writer of a durable
//! table: it posts a seeded op stream and reads the release after every
//! ack. The only workload that crosses HTTP, the job queue, the per-job
//! attack epilogue, the delta engine and the WAL.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use kanon_core::{Budget, BudgetPool};
use kanon_pipeline::{
    attack_tables, run_csv, DeltaConfig, DeltaStore, PipelineConfig, ShardStrategy,
};
use kanon_relation::linkage_attack;
use kanon_service::{Server, ServiceConfig};
use kanon_store::{Wal, RECORD_HEADER};

use crate::batch::{read_file, write_file, MAX_LOSS};
use crate::check::{cold_check, fnv64};
use crate::gen::{census_csv, derive_seed, OpBatch, OpStream, CENSUS_COLUMNS};
use crate::http::{request, Json};
use crate::stats::{median, tail, Tail};
use crate::trace::{SpanId, Tracer};
use crate::{ms_since, Args, Host, Outcome};

const REGIONS: usize = 8;
const JOB_ROWS: usize = 4_000;
/// Distinct job inputs, submitted round-robin. Attack cost varies by about
/// ±20% between inputs, so a large pool keeps the latency distribution the
/// same from seed to seed.
const JOB_POOL: usize = 32;
/// The first inputs, always completed in a run, whose mean loss and attack
/// success are reported.
const QUALITY_INPUTS: usize = 8;
const JOB_K: usize = 5;
const TABLE: &str = "census";
const TABLE_ROWS: usize = 10_000;
const TABLE_K: usize = 5;
const TABLE_QUASI: [&str; 6] = ["sex", "race", "marital", "education", "occupation", "hours"];
/// Job-solver slots: one closed-loop job client never needs more.
const JOB_SLOTS: usize = 1;
const HTTP_THREADS: usize = 2;
/// Load threads: the job client and the table client.
const CLIENTS: usize = 2;
const POLL_INTERVAL: Duration = Duration::from_millis(10);
/// Pause before retrying a refused (409/429) request.
const RETRY_PAUSE: Duration = Duration::from_millis(20);
/// Rows the server's attack epilogue samples (its `ATTACK_SAMPLE_CAP`).
const SERVER_ATTACK_CAP: usize = 20_000;
const SETUP_REPEATS: usize = 3;
/// Percentile of `job_tail_ms`. A run at the benchmark's run length
/// completes 43 to 90 jobs on a 2-core host, so p75 keeps 10 to 22
/// samples beyond it.
const JOB_TAIL: f64 = 75.0;

fn op_stream() -> OpStream {
    OpStream {
        initial_rows: TABLE_ROWS,
        batches: 400,
        insert_rows: 100,
        rewrite_every: 8,
        deletes: 5,
        updates: 5,
        regions: REGIONS,
    }
}

/// Seeded inputs of one run.
struct Inputs {
    jobs: Vec<Vec<u8>>,
    table: Vec<u8>,
    ops: Vec<OpBatch>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        Inputs {
            jobs: (0..JOB_POOL as u64)
                .map(|j| census_csv(derive_seed(seed, 4, j), JOB_ROWS, REGIONS))
                .collect(),
            table: census_csv(derive_seed(seed, 5, 0), TABLE_ROWS, REGIONS),
            ops: op_stream().generate(derive_seed(seed, 6, 0)),
        }
    }

    fn digest(&self) -> u64 {
        let mut all = Vec::new();
        for j in &self.jobs {
            all.extend_from_slice(&fnv64(j).to_le_bytes());
        }
        all.extend_from_slice(&fnv64(&self.table).to_le_bytes());
        for b in &self.ops {
            all.extend_from_slice(&fnv64(&b.body).to_le_bytes());
        }
        fnv64(&all)
    }
}

/// Starts a server on `data` and creates the table.
fn start(data: &Path, inputs: &Inputs) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(data);
    let config = ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: JOB_SLOTS,
        http_threads: HTTP_THREADS,
        data_dir: Some(data.to_path_buf()),
        ..ServiceConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let target = format!(
        "/v1/tables/{TABLE}?k={TABLE_K}&quasi={}",
        TABLE_QUASI.join(",")
    );
    let created = request(server.addr(), "PUT", &target, &inputs.table)?;
    if created.status != 201 {
        return Err(format!(
            "PUT {target}: {} {}",
            created.status,
            created.text()
        ));
    }
    Ok(server)
}

/// What the job client saw of one job.
struct JobSeen {
    input: usize,
    latency_ms: f64,
    submit_ms: f64,
    polls: Vec<f64>,
    server_ms: f64,
    pipeline_ms: f64,
    loss: f64,
    cost: f64,
    attack: f64,
}

/// What the table client saw of one batch.
struct BatchSeen {
    rewrite: bool,
    ack_ms: f64,
    apply_ms: f64,
    get_ms: f64,
    release_bytes: usize,
    changed: usize,
    resolved_rows: f64,
    recanonicalized: bool,
    compacted: bool,
    wal_bytes: f64,
    loss: f64,
    digest: u64,
}

/// Failures and refusals a client met.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: Vec<String>,
    refused: u64,
}

impl Tally {
    fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.errors.push(e)).ok()
    }
}

fn parse_json(body: &[u8]) -> Result<Json, String> {
    Json::parse(&String::from_utf8_lossy(body))
}

/// Submits `csv` as a job, retrying refusals, and polls it to a terminal
/// state.
fn one_job(
    addr: SocketAddr,
    tracer: &Tracer,
    id: u64,
    parent: SpanId,
    csv: &[u8],
    tally: &mut Tally,
) -> Result<JobSeen, String> {
    let target = format!("/v1/anonymize?k={JOB_K}&strategy=sorted");
    let started = Instant::now();
    let job = tracer.begin("job.run", id, parent);
    let (job_id, submit_ms) = loop {
        let t = Instant::now();
        let r = tracer.span("http.submit", id, job, || {
            request(addr, "POST", &target, csv)
        })?;
        let ms = ms_since(t);
        match r.status {
            202 => {
                let id = parse_json(&r.body)?
                    .num("id")
                    .ok_or("submit answer has no id")?;
                break (id as u64, ms);
            }
            409 | 429 => {
                tally.refused += 1;
                tracer.span("job.wait", id, job, || std::thread::sleep(RETRY_PAUSE));
            }
            s => return Err(format!("POST {target}: {s} {}", r.text())),
        }
    };
    let mut polls = Vec::new();
    let done = loop {
        tracer.span("job.wait", id, job, || std::thread::sleep(POLL_INTERVAL));
        let t = Instant::now();
        let r = tracer.span("http.poll", id, job, || {
            request(addr, "GET", &format!("/v1/jobs/{job_id}"), &[])
        })?;
        polls.push(ms_since(t));
        if r.status != 200 {
            return Err(format!("GET /v1/jobs/{job_id}: {} {}", r.status, r.text()));
        }
        let j = parse_json(&r.body)?;
        if matches!(j.str("state"), Some("completed" | "failed")) {
            break j;
        }
    };
    let latency_ms = ms_since(started);
    tracer.end(job);
    if done.str("state") != Some("completed") {
        return Err(format!("job {job_id} failed: {:?}", done.str("error")));
    }
    if done.bool("k_anonymous") != Some(true) {
        return Err(format!("job {job_id} completed without k_anonymous:true"));
    }
    let report = done.get("report").ok_or("job has no report")?;
    let field = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("job {job_id} lacks {what}"));
    Ok(JobSeen {
        input: 0,
        latency_ms,
        submit_ms,
        polls,
        server_ms: field(done.num("elapsed_ms"), "elapsed_ms")?,
        pipeline_ms: field(report.num("elapsed_ms"), "report.elapsed_ms")?,
        loss: field(report.num("information_loss"), "information_loss")?,
        cost: field(report.num("total_cost"), "total_cost")?,
        attack: field(
            done.get("attack").and_then(|a| a.num("expected_success")),
            "attack",
        )?,
    })
}

/// Posts one batch (retrying refusals), then reads and checks the release.
fn one_batch(
    addr: SocketAddr,
    tracer: &Tracer,
    parent: SpanId,
    b: usize,
    batch: &OpBatch,
    rows: usize,
    tally: &mut Tally,
) -> Result<BatchSeen, String> {
    let id = (1 << 32) + b as u64;
    let seq = b as u64 + 1;
    let ops_target = format!("/v1/tables/{TABLE}/ops");
    let span = tracer.begin("tables.batch", id, parent);
    let (ack, ack_ms) = loop {
        let t = Instant::now();
        let r = tracer.span("tables.ack", id, span, || {
            request(addr, "POST", &ops_target, &batch.body)
        })?;
        let ms = ms_since(t);
        match r.status {
            200 => break (parse_json(&r.body)?, ms),
            409 | 429 | 503 => {
                tally.refused += 1;
                tracer.span("tables.wait", id, span, || std::thread::sleep(RETRY_PAUSE));
            }
            s => return Err(format!("POST {ops_target}: {s} {}", r.text())),
        }
    };
    let t = Instant::now();
    let release = tracer.span("tables.release_get", id, span, || {
        request(addr, "GET", &format!("/v1/tables/{TABLE}/release"), &[])
    })?;
    let get_ms = ms_since(t);
    if release.status != 200 {
        return Err(format!(
            "GET release: {} {}",
            release.status,
            release.text()
        ));
    }
    let cold = tracer.span("check.cold", id, span, || {
        cold_check(None, &release.body, &TABLE_QUASI, TABLE_K, None)
    })?;
    tracer.end(span);
    let num = |key: &str| ack.num(key).ok_or_else(|| format!("ack lacks {key}"));
    if num("seq")? as u64 != seq {
        return Err(format!("ack seq {} after {seq} batches", num("seq")?));
    }
    if num("n_rows")? as usize != rows || cold.rows != rows {
        return Err(format!(
            "table holds {} rows and releases {} after batch {seq}, expected {rows}",
            num("n_rows")?,
            cold.rows
        ));
    }
    Ok(BatchSeen {
        rewrite: batch.rewrite,
        ack_ms,
        apply_ms: num("elapsed_ms")?,
        get_ms,
        release_bytes: release.body.len(),
        changed: batch.inserted + batch.deleted + batch.updated,
        resolved_rows: num("resolved_rows")?,
        recanonicalized: ack.bool("recanonicalized") == Some(true),
        compacted: ack.bool("compacted") == Some(true),
        wal_bytes: num("wal_bytes")?,
        loss: cold.loss(),
        digest: fnv64(&release.body),
    })
}

/// What the clients saw, with the inputs they sent.
struct RunSeen {
    inputs: Inputs,
    jobs: Vec<JobSeen>,
    batches: Vec<BatchSeen>,
    /// WAL growth of each batch that did not compact the log.
    payloads: Vec<usize>,
}

pub fn run(
    args: &Args,
    host: &Host,
    tracer: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let clients = host.guard("client threads", CLIENTS)?;
    let slots = host.guard("job slots", JOB_SLOTS)?;
    // The service splits the cores across its job slots.
    let per_job = host.guard("pipeline workers per job", (host.nproc / slots).max(1))?;
    out.detail("load_threads", clients);
    out.detail("job_slots", slots);
    out.detail("pipeline_workers", per_job);
    out.detail("http_threads", HTTP_THREADS);
    out.detail("poll_interval_ms", POLL_INTERVAL.as_millis());
    out.detail("job_rows", JOB_ROWS);
    out.detail("table_rows", TABLE_ROWS);

    let (inputs, server) = setup(args.seed, dir, out)?;
    let addr = server.addr();
    let started = Instant::now();
    let deadline = args.seconds;
    let ((jobs, job_tally, jobs_elapsed), (batches, table_tally)) = std::thread::scope(|s| {
        let jobs = s.spawn(|| {
            let mut seen = Vec::new();
            let mut tally = Tally::default();
            let root = tracer.begin("client.jobs", 0, SpanId::ROOT);
            let mut j = 0usize;
            while started.elapsed().as_secs_f64() < deadline {
                let input = j % JOB_POOL;
                let r = one_job(
                    addr,
                    tracer,
                    j as u64,
                    root,
                    &inputs.jobs[input],
                    &mut tally,
                );
                if let Some(mut job) = tally.op(r) {
                    job.input = input;
                    seen.push(job);
                }
                j += 1;
            }
            tracer.end(root);
            (seen, tally, started.elapsed().as_secs_f64())
        });
        let table = s.spawn(|| {
            let mut seen = Vec::new();
            let mut tally = Tally::default();
            let root = tracer.begin("client.table", 0, SpanId::ROOT);
            let mut rows = TABLE_ROWS;
            for (b, batch) in inputs.ops.iter().enumerate() {
                if started.elapsed().as_secs_f64() >= deadline {
                    break;
                }
                rows = rows + batch.inserted - batch.deleted;
                let r = one_batch(addr, tracer, root, b, batch, rows, &mut tally);
                match tally.op(r) {
                    Some(seen_batch) => seen.push(seen_batch),
                    // The table's state is unknown after a failed batch.
                    None => break,
                }
            }
            tracer.end(root);
            (seen, tally)
        });
        (
            jobs.join().expect("the job client panicked"),
            table.join().expect("the table client panicked"),
        )
    });
    for tally in [&job_tally, &table_tally] {
        out.attempted += tally.attempted;
        for e in &tally.errors {
            out.fail(e.clone());
        }
    }
    // A refused request is an attempted operation that failed; its retry
    // is another attempt.
    let refused = job_tally.refused + table_tally.refused;
    out.layer("http.refused", refused as f64);
    out.attempted += refused;
    if refused > 0 {
        out.failed += refused - 1;
        out.fail(format!("{refused} requests refused with 409, 429 or 503"));
    }
    out.detail("jobs", jobs.len());
    out.detail("batches", batches.len());

    // The table's acked sequence must equal the batches applied.
    let status = request(addr, "GET", &format!("/v1/tables/{TABLE}"), &[])
        .and_then(|r| parse_json(&r.body))
        .and_then(
            |status| match status.get("status").and_then(|s| s.num("seq")) {
                Some(seq) if seq == batches.len() as f64 => Ok(()),
                seq => Err(format!("table seq {seq:?} after {} batches", batches.len())),
            },
        );
    out.op(status);
    server.shutdown();

    report_jobs(&jobs, jobs_elapsed, out)?;
    let payloads = report_table(&batches, out);
    if args.trace {
        let seen = RunSeen {
            inputs,
            jobs,
            batches,
            payloads,
        };
        probes(tracer, dir, &seen, per_job, out);
        // Spans cost the clients two clock reads and a lock each; the
        // overhead is that cost over the traced wall time.
        let t = Instant::now();
        let probe = Tracer::new(true);
        for i in 0..10_000 {
            let s = probe.begin("probe.cost", i, SpanId::ROOT);
            probe.end(s);
        }
        let per_span_ms = ms_since(t) / 10_000.0;
        let (_, wall) = tracer.self_times();
        out.layer(
            "trace.overhead_frac",
            per_span_ms * tracer.len() as f64 / wall.max(1e-9),
        );
    }
    Ok(())
}

/// Generates every input, starts the server and creates the table,
/// [`SETUP_REPEATS`] times; `setup_s` is the median. The last server is
/// the one the clients drive.
fn setup(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(Inputs, Server), String> {
    let mut times = Vec::new();
    let mut server_times = Vec::new();
    let mut kept: Option<(Inputs, Server)> = None;
    let mut digest = None;
    for r in 0..SETUP_REPEATS {
        let t = Instant::now();
        let inputs = Inputs::generate(seed);
        let generated = t.elapsed().as_secs_f64();
        let server = start(&dir.join(format!("data-{r}")), &inputs)?;
        times.push(t.elapsed().as_secs_f64());
        server_times.push(times[r] - generated);
        let d = inputs.digest();
        if digest.is_some_and(|first| first != d) {
            out.fail("input generation is not deterministic".into());
        }
        digest = Some(d);
        if let Some((_, old)) = kept.replace((inputs, server)) {
            old.shutdown();
        }
    }
    out.e2e("setup_s", median(&times));
    out.detail("setup_server_s", format!("{:.4}", median(&server_times)));
    Ok(kept.expect("at least one set-up"))
}

/// Job metrics, with one answer per distinct input and the regime guard.
fn report_jobs(jobs: &[JobSeen], elapsed: f64, out: &mut Outcome) -> Result<(), String> {
    if jobs.is_empty() {
        return Err("no job completed".into());
    }
    let mut first: Vec<Option<&JobSeen>> = vec![None; JOB_POOL];
    for job in jobs {
        match first[job.input] {
            None => first[job.input] = Some(job),
            Some(f) if (f.cost, f.loss, f.attack) != (job.cost, job.loss, job.attack) => {
                out.fail(format!(
                    "input {} released differently across jobs",
                    job.input
                ));
            }
            Some(_) => {}
        }
        if job.loss > MAX_LOSS {
            out.fail(format!(
                "job release loses {:.3} of its cells (regime guard)",
                job.loss
            ));
        }
    }
    let firsts: Vec<&JobSeen> = first
        .iter()
        .take(QUALITY_INPUTS)
        .flatten()
        .copied()
        .collect();
    if firsts.len() < QUALITY_INPUTS {
        out.fail(format!(
            "only {} of the first {QUALITY_INPUTS} job inputs completed",
            firsts.len()
        ));
    }
    let mean =
        |f: fn(&JobSeen) -> f64| firsts.iter().map(|j| f(j)).sum::<f64>() / firsts.len() as f64;
    let med = |f: fn(&JobSeen) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_ms).collect();
    let t = Tail::at(&latencies, JOB_TAIL);
    out.e2e("rows_per_s", (jobs.len() * JOB_ROWS) as f64 / elapsed);
    out.e2e("jobs_per_s", jobs.len() as f64 / elapsed);
    out.e2e("job_p50_ms", median(&latencies));
    out.e2e("job_tail_ms", t.value);
    out.tail("job_tail_ms", t);
    out.e2e("info_loss", mean(|j| j.loss));
    out.attack_success(mean(|j| j.attack));
    out.detail("job_inputs_seen", firsts.len());

    let polls: Vec<f64> = jobs.iter().flat_map(|j| j.polls.iter().copied()).collect();
    out.layer("http.submit_ms", med(|j| j.submit_ms));
    out.layer("http.poll_ms", median(&polls));
    out.layer("http.polls_per_job", med(|j| j.polls.len() as f64));
    out.layer("http.poll_interval_ms", POLL_INTERVAL.as_secs_f64() * 1e3);
    out.layer("job.server_ms", med(|j| j.server_ms));
    out.layer("job.pipeline_ms", med(|j| j.pipeline_ms));
    out.layer("job.epilogue_ms", med(|j| j.server_ms - j.pipeline_ms));
    Ok(())
}

/// Table metrics: ack latency by batch kind, the read after each ack, the
/// delta engine's counts and the WAL's growth. Returns the WAL growth of
/// each batch that did not compact the log.
fn report_table(batches: &[BatchSeen], out: &mut Outcome) -> Vec<usize> {
    let pick = |rewrite: bool, f: fn(&BatchSeen) -> f64| -> Vec<f64> {
        batches
            .iter()
            .filter(|b| b.rewrite == rewrite)
            .map(f)
            .collect()
    };
    let all = |f: fn(&BatchSeen) -> f64| median(&batches.iter().map(f).collect::<Vec<_>>());
    let append_ack = pick(false, |b| b.ack_ms);
    let t = tail(&append_ack);
    out.layer("tables.append_ack_p50_ms", median(&append_ack));
    out.layer("tables.append_ack_tail_ms", t.value);
    out.tail("tables.append_ack_tail_ms", t);
    out.layer(
        "tables.rewrite_ack_p50_ms",
        median(&pick(true, |b| b.ack_ms)),
    );
    out.detail("rewrite_batches", pick(true, |b| b.ack_ms).len());
    out.layer("tables.release_get_p50_ms", all(|b| b.get_ms));
    out.layer("tables.ack_overhead_ms", all(|b| b.ack_ms - b.apply_ms));
    out.layer("tables.release_bytes", all(|b| b.release_bytes as f64));
    out.layer(
        "delta.apply_ms.append",
        median(&pick(false, |b| b.apply_ms)),
    );
    out.layer(
        "delta.apply_ms.rewrite",
        median(&pick(true, |b| b.apply_ms)),
    );
    let changed: usize = batches.iter().map(|b| b.changed).sum();
    let resolved: f64 = batches.iter().map(|b| b.resolved_rows).sum();
    out.layer(
        "delta.resolved_rows_per_op",
        resolved / changed.max(1) as f64,
    );
    out.layer(
        "delta.recanonicalized",
        batches.iter().filter(|b| b.recanonicalized).count() as f64,
    );
    out.layer(
        "delta.compactions",
        batches.iter().filter(|b| b.compacted).count() as f64,
    );
    let mut payloads = Vec::new();
    let mut prev = 0.0;
    for b in batches {
        if !b.compacted && b.wal_bytes > prev {
            payloads.push((b.wal_bytes - prev) as usize);
        }
        prev = b.wal_bytes;
    }
    let wal_ops: usize = batches
        .iter()
        .filter(|b| !b.compacted)
        .map(|b| b.changed)
        .sum();
    out.layer(
        "store.wal_bytes_per_op",
        payloads.iter().sum::<usize>() as f64 / wal_ops.max(1) as f64,
    );
    if let Some(last) = batches.last() {
        out.layer("tables.info_loss", last.loss);
        if last.loss > MAX_LOSS {
            out.fail(format!(
                "table release loses {:.3} of its cells (regime guard)",
                last.loss
            ));
        }
        out.detail("table_release_digest", format!("\"{:016x}\"", last.digest));
    }
    payloads
}

/// In-process replays after the loop, splitting what the clients could
/// only see from outside: the job's pipeline and attack epilogue, and the
/// table's apply, release and WAL append.
fn probes(tracer: &Tracer, dir: &Path, run: &RunSeen, per_job: usize, out: &mut Outcome) {
    let root = tracer.begin("probe.serve", 0, SpanId::ROOT);
    let job = job_probe(tracer, root, dir, run, per_job, out);
    out.op(job);
    let table = table_probe(tracer, root, dir, run, out);
    out.op(table);
    let wal = wal_probe(tracer, root, dir, &run.payloads, out);
    out.op(wal);
    tracer.end(root);
}

/// The first job input through `run_csv`, then the server's attack
/// epilogue; both must agree with what the server reported for it.
fn job_probe(
    tracer: &Tracer,
    root: SpanId,
    dir: &Path,
    seen: &RunSeen,
    per_job: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let config = PipelineConfig {
        strategy: ShardStrategy::Sorted,
        workers: Some(per_job),
        ..PipelineConfig::default()
    };
    let csv = &seen.inputs.jobs[0];
    let served = seen
        .jobs
        .iter()
        .find(|j| j.input == 0)
        .ok_or("no job ran the first input")?;
    let t = Instant::now();
    let run = tracer
        .span("engine.run_csv", 0, root, || {
            run_csv(&csv[..], JOB_K, None, &config)
        })
        .map_err(|e| format!("run_csv: {e}"))?;
    out.layer("engine.run_csv_ms", ms_since(t));
    if run.report.total_cost as f64 != served.cost {
        return Err(format!(
            "in-process run costs {} but the job reported {}",
            run.report.total_cost, served.cost
        ));
    }
    let t = Instant::now();
    let (released, external) = tracer
        .span("attack.tables", 0, root, || {
            attack_tables(&run, SERVER_ATTACK_CAP)
        })
        .map_err(|e| format!("attack_tables: {e}"))?;
    out.layer("attack.tables_ms", ms_since(t));
    let pairs: Vec<(&str, &str)> = CENSUS_COLUMNS.iter().map(|&n| (n, n)).collect();
    let t = Instant::now();
    let report = tracer
        .span("attack.join", 0, root, || {
            linkage_attack(&released, &external, &pairs)
        })
        .map_err(|e| format!("linkage_attack: {e}"))?;
    out.layer("attack.join_ms", ms_since(t));
    out.layer("attack.sample_rows", external.n_rows() as f64);
    out.layer("attack.released_rows", released.n_rows() as f64);
    // The job JSON rounds to six decimals.
    if (report.expected_success - served.attack).abs() > 1e-6 {
        return Err(format!(
            "in-process attack gives {} but the job reported {}",
            report.expected_success, served.attack
        ));
    }
    let path = dir.join("probe-release.csv");
    let cold = tracer.span("check.cold", 0, root, || {
        write_file(
            &path,
            &run.dataset,
            &run.codec,
            &run.quasi,
            &run.anonymization,
        )?;
        cold_check(Some(csv), &read_file(&path)?, &CENSUS_COLUMNS, JOB_K, None)
    })?;
    out.layer("attack.patterns", cold.patterns() as f64);
    Ok(())
}

/// The op stream the run applied, through `DeltaStore::apply` in a fresh
/// store, each call under the memory lease the server grants a request:
/// the final release must be the bytes the server served.
fn table_probe(
    tracer: &Tracer,
    root: SpanId,
    dir: &Path,
    seen: &RunSeen,
    out: &mut Outcome,
) -> Result<(), String> {
    let replay = tracer.begin("delta.replay", 0, root);
    let service = ServiceConfig::default();
    let pool = BudgetPool::new(service.pool_memory_bytes);
    let lease = || {
        pool.try_lease(service.default_job_memory_bytes, None)
            .map_err(|e| format!("lease: {e}"))
    };
    let init_lease = lease()?;
    let config = DeltaConfig {
        quasi: Some(TABLE_QUASI.iter().map(|s| s.to_string()).collect()),
        budget: init_lease.budget().clone(),
        ..DeltaConfig::new(TABLE_K)
    };
    let mut store = tracer
        .span("delta.init", 0, replay, || {
            DeltaStore::init(dir.join("probe-table"), &seen.inputs.table[..], &config)
        })
        .map_err(|e| format!("DeltaStore::init: {e}"))?;
    drop(init_lease);
    let mut release_ms = Vec::new();
    let mut digest = 0;
    for (b, batch) in seen.inputs.ops.iter().take(seen.batches.len()).enumerate() {
        let id = (1 << 32) + b as u64;
        let ops = tracer
            .span("delta.parse", id, replay, || {
                store.parse_ops(&batch.body[..])
            })
            .map_err(|e| format!("parse_ops: {e}"))?;
        let apply_lease = lease()?;
        store.set_budget(apply_lease.budget().clone());
        tracer
            .span("delta.apply", id, replay, || store.apply(&ops))
            .map_err(|e| format!("apply: {e}"))?;
        let t = Instant::now();
        let bytes = tracer
            .span("delta.release", id, replay, || {
                store.release().map(|r| r.to_csv_string())
            })
            .map_err(|e| format!("release: {e}"))?;
        release_ms.push(ms_since(t));
        store.set_budget(Budget::unlimited());
        digest = fnv64(bytes.as_bytes());
    }
    tracer.end(replay);
    out.layer("delta.release_ms", median(&release_ms));
    if seen.batches.last().is_some_and(|b| b.digest != digest) {
        return Err("in-process replay of the op stream released different bytes".into());
    }
    Ok(())
}

/// `Wal::append` (fsync included) on payloads of the sizes the run wrote.
fn wal_probe(
    tracer: &Tracer,
    root: SpanId,
    dir: &Path,
    payloads: &[usize],
    out: &mut Outcome,
) -> Result<(), String> {
    let span = tracer.begin("store.wal", 0, root);
    let mut wal = Wal::open(dir.join("probe.wal")).map_err(|e| format!("Wal::open: {e}"))?;
    let mut times = Vec::new();
    for &size in payloads {
        let payload = vec![0x5a; size.saturating_sub(RECORD_HEADER)];
        let t = Instant::now();
        tracer
            .span("store.append", 0, span, || wal.append(&payload))
            .map_err(|e| format!("Wal::append: {e}"))?;
        times.push(ms_since(t));
    }
    tracer.end(span);
    out.layer("store.append_ms", median(&times));
    Ok(())
}
