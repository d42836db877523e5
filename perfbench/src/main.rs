//! `perfbench`: the kanon benchmark. One command runs one workload for a
//! fixed time, checks every release it produced, and prints every
//! end-to-end metric (or, with `--trace 1`, every per-layer metric) as the
//! last line of standard output. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_census --seed 1 --seconds 22 --trace 0
//! ```

mod batch;
mod check;
mod gen;
mod http;
mod private;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;

/// End-to-end metrics: every workload reports every one.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("info_loss", "fraction"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics, named by module. A layer a workload does not reach
/// reports 0.
const PER_LAYER: [(&str, &str); 73] = [
    ("ingest.ms", "ms"),
    ("ingest.mb_per_s", "MB/s"),
    ("ingest.rows", "count"),
    ("shard.plan_ms", "ms"),
    ("shard.units", "count"),
    ("shard.residue_rows", "count"),
    ("shard.rows_max", "count"),
    ("engine.solve_ms", "ms"),
    ("engine.unit_p50_ms", "ms"),
    ("engine.unit_tail_ms", "ms"),
    ("engine.idle_frac", "fraction"),
    ("engine.speedup_1w", "x"),
    ("engine.degraded_units", "count"),
    ("engine.rung.full-greedy-cover", "count"),
    ("engine.rung.center-greedy", "count"),
    ("engine.rung.agglomerative", "count"),
    ("engine.rung.suppress-split-fallback", "count"),
    ("engine.run_csv_ms", "ms"),
    ("verify.ms", "ms"),
    ("release.write_ms", "ms"),
    ("release.bytes", "bytes"),
    ("check.cold_ms", "ms"),
    ("privacy.enforce_ms", "ms"),
    ("privacy.merges", "count"),
    ("privacy.violations_before", "count"),
    ("privacy.rebuild_ms", "ms"),
    ("privacy.verify_ms", "ms"),
    ("attack.tables_ms", "ms"),
    ("attack.join_ms", "ms"),
    ("attack.sample_rows", "count"),
    ("attack.released_rows", "count"),
    ("attack.patterns", "count"),
    ("attack.expected_success", "fraction"),
    ("http.submit_ms", "ms"),
    ("http.poll_ms", "ms"),
    ("http.polls_per_job", "count"),
    ("http.poll_interval_ms", "ms"),
    ("http.refused", "count"),
    ("job.server_ms", "ms"),
    ("job.pipeline_ms", "ms"),
    ("job.epilogue_ms", "ms"),
    ("delta.apply_ms.append", "ms"),
    ("delta.apply_ms.rewrite", "ms"),
    ("delta.resolved_rows_per_op", "ratio"),
    ("delta.recanonicalized", "count"),
    ("delta.compactions", "count"),
    ("delta.release_ms", "ms"),
    ("store.wal_bytes_per_op", "bytes"),
    ("store.append_ms", "ms"),
    ("tables.append_ack_p50_ms", "ms"),
    ("tables.append_ack_tail_ms", "ms"),
    ("tables.rewrite_ack_p50_ms", "ms"),
    ("tables.release_get_p50_ms", "ms"),
    ("tables.ack_overhead_ms", "ms"),
    ("tables.release_bytes", "bytes"),
    ("tables.info_loss", "fraction"),
    ("self.harness_ms", "ms"),
    ("self.ingest_ms", "ms"),
    ("self.shard_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.verify_ms", "ms"),
    ("self.release_ms", "ms"),
    ("self.check_ms", "ms"),
    ("self.privacy_ms", "ms"),
    ("self.attack_ms", "ms"),
    ("self.http_ms", "ms"),
    ("self.job_ms", "ms"),
    ("self.tables_ms", "ms"),
    ("self.delta_ms", "ms"),
    ("self.store_ms", "ms"),
    ("trace.attributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("mem.peak_rss_mb", "MB"),
];

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["batch_census", "private_census", "serve_mixed"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The host a result was measured on.
pub struct Host {
    pub nproc: usize,
}

impl Host {
    fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// Refuses load threads or pipeline workers beyond the core count: such
    /// a run measures the OS scheduler, not the program.
    pub fn guard(&self, what: &str, count: usize) -> Result<usize, String> {
        if count > self.nproc {
            return Err(format!(
                "refusing to run {count} {what} on {} cores (oversubscribed)",
                self.nproc
            ));
        }
        Ok(count)
    }
}

/// Everything a workload measured.
#[derive(Default)]
pub struct Outcome {
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    detail: BTreeMap<String, String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong result.
    pub failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name, value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layer.insert(name, value);
    }

    /// Records the expected success of a linkage attacker on the release.
    /// It varies too much from seed to seed (0.0027 to 0.0048 on
    /// `batch_census`) to be bounded end to end.
    pub fn attack_success(&mut self, value: f64) {
        self.layer("attack.expected_success", value);
        self.detail("attack_success", value);
    }

    /// Records a fact about the run for the detail line (`value` is JSON).
    pub fn detail(&mut self, key: &str, value: impl ToString) {
        self.detail.insert(key.to_string(), value.to_string());
    }

    /// Records a tail latency and the percentile and samples behind it.
    pub fn tail(&mut self, key: &str, t: stats::Tail) {
        self.detail(
            key,
            format!(
                "{{\"percentile\":{},\"samples\":{},\"beyond\":{}}}",
                t.percentile, t.samples, t.beyond
            ),
        );
    }

    /// Counts one operation, failed when `result` is an error.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failed check or operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            eprintln!("perfbench: FAILED: {error}");
            self.errors.push(error);
        }
    }

    /// Records the self time of each layer and the share of the traced wall
    /// time the layers account for.
    pub fn self_times(&mut self, tracer: &Tracer) {
        let (layers, wall) = tracer.self_times();
        for (name, _) in PER_LAYER {
            if let Some(layer) = name
                .strip_prefix("self.")
                .and_then(|n| n.strip_suffix("_ms"))
            {
                self.layer(name, layers.get(layer).copied().unwrap_or(0.0));
            }
        }
        let unknown: Vec<&String> = layers
            .keys()
            .filter(|l| !PER_LAYER.iter().any(|(n, _)| *n == format!("self.{l}_ms")))
            .collect();
        assert!(unknown.is_empty(), "spans in unlisted layers: {unknown:?}");
        let harness = layers.get("harness").copied().unwrap_or(0.0);
        let attributed = if wall > 0.0 {
            1.0 - harness / wall
        } else {
            0.0
        };
        self.layer("trace.attributed_frac", attributed);
        self.detail("trace_wall_ms", format!("{wall:.3}"));
        self.detail("trace_spans", tracer.len());
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A directory for this run's files inside the working directory.
pub fn run_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench_run").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let tracer = Tracer::new(args.trace);
    let dir = match run_dir(&args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    out.detail("workload", json_string(&args.workload));
    out.detail("seed", args.seed);
    out.detail("seconds", args.seconds);
    out.detail("nproc", host.nproc);
    out.detail(
        "cpu_features",
        format!("\"{}\"", kanon_core::kernel::cpu_features()),
    );
    out.detail(
        "kernel",
        format!("\"{}\"", kanon_core::kernel::kernel().name()),
    );
    let result = match args.workload.as_str() {
        "batch_census" => batch::run(&args, &host, &tracer, &dir, &mut out),
        "private_census" => private::run(&args, &host, &tracer, &dir, &mut out),
        _ => serve::run(&args, &host, &tracer, &dir, &mut out),
    };
    if args.trace {
        out.self_times(&tracer);
        let spans = dir.with_extension("spans.jsonl");
        if let Err(e) = tracer.write(&spans) {
            eprintln!("perfbench: cannot write spans: {e}");
        } else {
            out.detail("spans_file", json_string(&spans.display().to_string()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        // A refused or broken set-up prints no result.
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    out.layer("mem.peak_rss_mb", peak_rss_mb());
    out.detail("peak_rss_mb", format!("{:.1}", peak_rss_mb()));
    // One operation can fail more than one check; it counts once.
    let attempted = out.attempted.max(1);
    let failed = out.failed.min(attempted);
    let ok = (attempted - failed) as f64 / attempted as f64;
    out.e2e("ok_frac", ok);
    out.detail("fail_frac", json_number(1.0 - ok));
    let errors: Vec<String> = out.errors.iter().map(|e| json_string(e)).collect();
    out.detail("errors", format!("[{}]", errors.join(",")));

    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"detail\":{{{}}}}}", detail.join(","));
    let mut metrics = Vec::new();
    let (list, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &out.layer)
    } else {
        (&END_TO_END, &out.e2e)
    };
    for (name, unit) in list {
        let value = match values.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: workload did not measure {name}");
                std::process::exit(1);
            }
        };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::json_string;

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
