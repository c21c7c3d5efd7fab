//! medbench — the MedMaker mediator benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path medbench/Cargo.toml -- \
//!     --workload cold_lookup|hot_serve|churn_tiered --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one seeded, closed-loop workload through the public API, checks
//! every answer against a reference computed before timing, prints a
//! report, and ends with one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `medbench/README.md` for the workloads, metrics and sizing.

mod churn;
mod cold;
mod common;
mod hot;
mod inproc;
mod layers;
mod trace;

use common::{peak_rss_mb, Outcome};
use inproc::Phase;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_qps",
    "latency_p50_ms",
    "latency_tail_ms",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: &[&str] = &[
    "msl.parse_us",
    "msl.validate_us",
    "veao.expand_us",
    "veao.chains",
    "planner.plan_us",
    "planner.nodes",
    "exec.self_us",
    "exec.bindings_per_result",
    "exec.peak_batch_rows",
    "wrappers.calls_per_query",
    "wrappers.calls.cs",
    "wrappers.calls.whois",
    "wrappers.us_per_call.cs",
    "wrappers.us_per_call.whois",
    "wrappers.objects_per_call",
    "wrappers.errors",
    "cache.hit_ratio",
    "cache.containment_share",
    "cache.evictions_per_query",
    "cache.demotions_per_query",
    "cache.warm_hits_per_query",
    "cache.promotions_per_query",
    "cache.entries_invalidated_per_delta",
    "cache.disk_bytes_written_per_query",
    "cache.disk_bytes_per_live_byte",
    "oem.print_us",
    "oem.answer_bytes",
    "server.coalesced_ratio",
    "server.shed_ratio",
    "trace.qps_ratio",
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the data, the query stream and the delta schedule.
    pub seed: u64,
    /// Length of the measured phase, s.
    pub seconds: u64,
    /// Traced run: half untraced, half traced, per-layer metrics out.
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} expects a whole number, got '{value}'"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Length of each measured phase: the whole run untraced, or half
    /// untraced and half traced.
    pub fn measure_split(&self) -> Duration {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            total / 2
        } else {
            total
        }
    }

    /// Directory for the run's outputs (spans, the warm tier), inside the
    /// working directory.
    pub fn out_dir(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(".medbench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Write the traced phase's spans to `.medbench_out/`.
pub fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path = args
        .out_dir()?
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Fill in the end-to-end metrics from the untraced phase.
pub fn finish_end_to_end(
    out: &mut Outcome,
    traced: bool,
    setup_s: f64,
    setup_reps: usize,
    phase: &Phase,
    tail_pct: f64,
    source_calls: u64,
) -> Result<(), String> {
    let lat = phase.latencies.summary(tail_pct);
    let s = |x: &str| x.to_string();
    out.end_to_end.extend([
        (s("setup_s"), setup_s, s("s")),
        (s("throughput_qps"), phase.qps(), s("1/s")),
        (s("latency_p50_ms"), lat.p50, s("ms")),
        (s("latency_tail_ms"), lat.tail, s("ms")),
        (s("peak_rss_mb"), peak_rss_mb()?, s("MiB")),
    ]);
    let attempted = out.tally.attempted.max(1) as f64;
    out.extra.extend([
        (
            s("source_calls_per_query"),
            source_calls as f64 / lat.n.max(1) as f64,
            s("count"),
        ),
        (
            s("error_ratio"),
            out.tally.failed as f64 / attempted,
            s("ratio"),
        ),
    ]);
    out.notes.push(format!(
        "setup_s is the median of {setup_reps} set-ups; latency_tail_ms is p{tail_pct} of {} samples, {} beyond it",
        lat.n, lat.beyond
    ));
    // A traced run reports per-layer metrics; its shorter untraced half
    // need not carry the tail.
    if lat.beyond < 10 && !traced {
        out.guard_failures.push(format!(
            "p{tail_pct} has only {} samples beyond it (need 10)",
            lat.beyond
        ));
    }
    Ok(())
}

fn json_metrics(metrics: &[(String, f64, String)], names: &[&str]) -> Result<String, String> {
    let mut parts = Vec::new();
    for name in names {
        let (_, value, unit) = metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        parts.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    let out = match args.workload.as_str() {
        "cold_lookup" => cold::run(args)?,
        "hot_serve" => hot::run(args)?,
        "churn_tiered" => churn::run(args)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if out.tally.attempted == 0 {
        return Err("no query was sent in the measured phase".to_string());
    }
    let metrics = if args.trace {
        json_metrics(&out.per_layer, PER_LAYER)?
    } else {
        json_metrics(&out.end_to_end, END_TO_END)?
    };
    Ok((out, metrics))
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("medbench: {e}");
            std::process::exit(2);
        }
    };
    let (out, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("medbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "medbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, value, unit) in out
        .end_to_end
        .iter()
        .chain(&out.per_layer)
        .chain(&out.extra)
    {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    let correct = out.tally.wrong == 0 && out.guard_failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.tally.attempted, out.tally.failed
    );
    if !correct {
        for g in &out.guard_failures {
            eprintln!("medbench: guard failed: {g}");
        }
        std::process::exit(1);
    }
}
