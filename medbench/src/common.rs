//! Pieces every workload shares: seeded draws, query texts, source
//! generation, reference answers, the in-process query path with its
//! layer spans, latency summaries and the run's result.

use crate::trace::{self, CallCounts, TimedWrapper};
use medmaker::externals::standard_registry;
use medmaker::metrics::QueryTrace;
use medmaker::planner::{plan, PlanContext, PlannerOptions};
use medmaker::{ExternalRegistry, Mediator, MediatorOptions};
use oem::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wrappers::fault::{FaultInjectingWrapper, FaultPlan};
use wrappers::workload::PersonWorkload;
use wrappers::Wrapper;

/// splitmix64: a small, fully determined generator, so one seed gives
/// the same query stream on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `count` values of `0..universe`, one uniform draw from each of
    /// `count` equal strata: each value is still uniform over its stratum,
    /// but the mix of id ranges (and so of match kinds) is the same for
    /// every seed.
    pub fn stratified(&mut self, count: usize, universe: usize) -> Vec<usize> {
        (0..count)
            .map(|k| {
                let lo = k * universe / count;
                let hi = (k + 1) * universe / count;
                lo + self.below((hi - lo).max(1))
            })
            .collect()
    }

    /// `count` distinct values of `0..universe`, in random order.
    pub fn distinct(&mut self, count: usize, universe: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..universe).collect();
        for i in 0..count.min(universe) {
            let j = i + self.below(universe - i);
            all.swap(i, j);
        }
        all.truncate(count);
        all
    }
}

/// Zipf(`s`) over ranks `0..n` (rank 0 the most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Point lookup of person `i` through the paper's `MS1` view.
pub fn name_query(i: usize) -> String {
    format!(
        "X :- X:<cs_person {{<name '{}'>}}>@med",
        PersonWorkload::full_name_of(i)
    )
}

/// Scan of every `cs_person` with `<year y>`.
pub fn year_query(y: usize) -> String {
    format!("X :- X:<cs_person {{<year {y}>}}>@med")
}

/// People in either source of a `PersonWorkload` of `n` whois persons with
/// the default overlap: whois holds `0..n`, cs the first `n/2` of them plus
/// `n..n + n/2`. Ids `0..people(n)` cover both; some have no match.
pub fn people(n: usize) -> usize {
    n + n / 2
}

/// The generated sources: the bare wrappers (for the reference mediator)
/// and the same wrappers behind [`TimedWrapper`] (for the measured one).
pub struct Sources {
    bare: Vec<Arc<dyn Wrapper>>,
    timed: Vec<Arc<TimedWrapper>>,
}

impl Sources {
    /// Generate `PersonWorkload` data of `n` whois persons from `seed`.
    pub fn generate(n: usize, seed: u64) -> Sources {
        Sources::generate_remote(n, seed, 0)
    }

    /// [`Sources::generate`], with every call to a measured source paying
    /// a fixed round-trip of `round_trip_ms`, as a source across a network
    /// does: each timed wrapper decorates a `FaultInjectingWrapper` whose
    /// plan injects that latency and no fault. The reference mediator
    /// keeps the bare sources.
    pub fn generate_remote(n: usize, seed: u64, round_trip_ms: u64) -> Sources {
        let (whois, cs) = PersonWorkload {
            n_whois: n,
            seed,
            ..PersonWorkload::default()
        }
        .build();
        let bare: Vec<Arc<dyn Wrapper>> = vec![Arc::new(whois), Arc::new(cs)];
        let timed = bare
            .iter()
            .map(|w| {
                let inner: Arc<dyn Wrapper> = if round_trip_ms > 0 {
                    Arc::new(FaultInjectingWrapper::new(
                        Arc::clone(w),
                        FaultPlan::none().latency_ms(round_trip_ms),
                    ))
                } else {
                    Arc::clone(w)
                };
                Arc::new(TimedWrapper::new(inner))
            })
            .collect();
        Sources { bare, timed }
    }

    /// The timed wrappers, as the mediator takes them.
    pub fn timed(&self) -> Vec<Arc<dyn Wrapper>> {
        self.timed
            .iter()
            .map(|w| Arc::clone(w) as Arc<dyn Wrapper>)
            .collect()
    }

    /// Per-source call counters of the timed wrappers.
    pub fn counts(&self) -> BTreeMap<String, CallCounts> {
        self.timed
            .iter()
            .map(|w| (w.name().to_string(), w.counts()))
            .collect()
    }
}

/// Per-source difference of two [`Sources::counts`] snapshots.
pub fn counts_since(
    now: &BTreeMap<String, CallCounts>,
    before: &BTreeMap<String, CallCounts>,
) -> BTreeMap<String, CallCounts> {
    now.iter()
        .map(|(k, v)| (k.clone(), *v - before[k]))
        .collect()
}

/// Build the `MS1` mediator over `sources`.
pub fn open(sources: Vec<Arc<dyn Wrapper>>, options: MediatorOptions) -> Result<Mediator, String> {
    Mediator::new_with_options(
        "med",
        wrappers::scenario::MS1,
        sources,
        standard_registry(),
        options,
    )
    .map_err(|e| format!("building the mediator: {e}"))
}

/// Median of the durations `step` reports, over at least `min_reps` calls
/// and until `min_total` has passed. `step` times its own measured part,
/// so tearing down the previous set-up is not counted.
pub fn median_setup(
    min_reps: usize,
    min_total: Duration,
    mut step: impl FnMut() -> Result<Duration, String>,
) -> Result<(f64, usize), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || started.elapsed() < min_total {
        times.push(step()?.as_secs_f64());
    }
    Ok((median(&mut times), times.len()))
}

/// The reference answer of every query in `queries`, printed with
/// `print_store`, from a cache-off mediator over the bare sources,
/// computed before timing starts. One thread computes them all: two
/// queries running at once on one mediator can deadlock in the symbol
/// interner (`oem::value` nests two interner read locks when it compares
/// strings, and a writer queued between them blocks both).
pub fn references(
    sources: &Sources,
    queries: &BTreeSet<String>,
) -> Result<HashMap<String, String>, String> {
    let started = Instant::now();
    let med = open(sources.bare.clone(), MediatorOptions::default())?;
    let refs = queries
        .iter()
        .map(|q| {
            let rule = msl::parse_query(q).map_err(|e| format!("{q}: {e}"))?;
            let out = med.query_rule(&rule).map_err(|e| format!("{q}: {e}"))?;
            Ok((q.clone(), oem::printer::print_store(&out.results)))
        })
        .collect();
    eprintln!(
        "medbench: {} reference answers in {:.1} s",
        queries.len(),
        started.elapsed().as_secs_f64()
    );
    refs
}

/// One answered query.
pub struct Answer {
    /// The printed answer (`print_store`).
    pub text: String,
    /// The executor's trace (counters are always on).
    pub trace: QueryTrace,
    /// Datamerge chains after expansion (traced queries only).
    pub chains: usize,
    /// Physical plan nodes (traced queries only).
    pub nodes: usize,
}

/// The in-process query path: what an application linking the mediator
/// does — parse, `query_rule`, print. Traced, the front half is also
/// called layer by layer so each gets its own span.
pub struct InProcess<'a> {
    med: &'a Mediator,
    plan_sources: HashMap<Symbol, Arc<dyn Wrapper>>,
    registry: ExternalRegistry,
    planner: PlannerOptions,
}

impl<'a> InProcess<'a> {
    /// The query path over `med`, whose sources are `sources`.
    pub fn new(med: &'a Mediator, sources: &Sources) -> InProcess<'a> {
        InProcess {
            med,
            plan_sources: sources.timed().into_iter().map(|w| (w.name(), w)).collect(),
            registry: standard_registry(),
            planner: MediatorOptions::default().planner,
        }
    }

    /// Answer `text`, untraced.
    pub fn run(&self, text: &str) -> Result<Answer, String> {
        let rule = msl::parse_query(text).map_err(|e| e.to_string())?;
        let out = self.med.query_rule(&rule).map_err(|e| e.to_string())?;
        Ok(Answer {
            text: oem::printer::print_store(&out.results),
            trace: out.trace,
            chains: 0,
            nodes: 0,
        })
    }

    /// Answer `text` with one span per layer call. `exec.query_rule`
    /// repeats validation, expansion and planning internally; the summary
    /// subtracts the separately timed front half from it.
    pub fn run_traced(&self, text: &str) -> Result<Answer, String> {
        trace::traced_query("query", || self.front_and_exec(text))
    }

    /// [`Self::run_traced`] when `traced`, else [`Self::run`].
    pub fn answer(&self, text: &str, traced: bool) -> Result<Answer, String> {
        if traced {
            self.run_traced(text)
        } else {
            self.run(text)
        }
    }

    /// The body of [`Self::run_traced`], for callers that open the root
    /// span themselves.
    pub fn front_and_exec(&self, text: &str) -> Result<Answer, String> {
        let rule =
            trace::span("msl.parse", || msl::parse_query(text)).map_err(|e| e.to_string())?;
        trace::span("msl.validate", || {
            msl::validate::validate_rule(&rule, &self.med.spec().spec.externals)
        })
        .map_err(|e| e.to_string())?;
        let program =
            trace::span("veao.expand", || self.med.expand(&rule)).map_err(|e| e.to_string())?;
        let stats = self.med.stats_snapshot();
        let physical = trace::span("planner.plan", || {
            plan(
                &program,
                &PlanContext {
                    sources: &self.plan_sources,
                    registry: &self.registry,
                    stats: &stats,
                    options: &self.planner,
                    analysis: self.med.analysis(),
                },
            )
        })
        .map_err(|e| e.to_string())?;
        let out = trace::span("exec.query_rule", || self.med.query_rule(&rule))
            .map_err(|e| e.to_string())?;
        let text = trace::span("oem.print", || oem::printer::print_store(&out.results));
        Ok(Answer {
            text,
            trace: out.trace,
            chains: program.rules.len(),
            nodes: physical.node_count(),
        })
    }
}

/// Median of `v` (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (sorts it).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Client-observed latencies of one run, in ms.
#[derive(Default)]
pub struct Latencies(pub Vec<f64>);

/// A latency summary: median and a fixed tail percentile.
pub struct LatencySummary {
    /// Median, ms.
    pub p50: f64,
    /// Tail percentile value, ms.
    pub tail: f64,
    /// The tail percentile, e.g. 90.0.
    pub tail_pct: f64,
    /// Samples strictly above the tail percentile's rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

impl Latencies {
    /// Summarize with the tail taken at percentile `tail_pct`.
    pub fn summary(&self, tail_pct: f64) -> LatencySummary {
        let mut v = self.0.clone();
        let n = v.len();
        let p50 = median(&mut v);
        let tail = quantile(&mut v, tail_pct / 100.0);
        let beyond = n - ((tail_pct / 100.0) * n as f64).ceil() as usize;
        LatencySummary {
            p50,
            tail,
            tail_pct,
            beyond,
            n,
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Answer accounting of the timed phase.
#[derive(Default)]
pub struct Tally {
    /// Queries sent.
    pub attempted: u64,
    /// Errors, refusals and wrong answers.
    pub failed: u64,
    /// Answers that differed from the reference.
    pub wrong: u64,
}

impl Tally {
    /// Count one query: `got` is its printed answer or the error text.
    pub fn check(
        &mut self,
        query: &str,
        got: &Result<String, String>,
        refs: &HashMap<String, String>,
    ) {
        self.attempted += 1;
        match got {
            Ok(text) if Some(text) == refs.get(query) => {}
            Ok(_) => {
                self.failed += 1;
                self.wrong += 1;
                if self.wrong <= 3 {
                    eprintln!("medbench: wrong answer to {query}");
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("medbench: {query} failed: {e}");
                }
            }
        }
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Answer accounting.
    pub tally: Tally,
    /// Validity-guard failures (the workload drifted from its claim).
    pub guard_failures: Vec<String>,
    /// End-to-end metrics: name, value, unit.
    pub end_to_end: Vec<(String, f64, String)>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<(String, f64, String)>,
    /// Metrics of the run report only: defined on this workload alone.
    pub extra: Vec<(String, f64, String)>,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Fail the run unless `ok`.
    pub fn guard(&mut self, ok: bool, what: String) {
        self.notes.push(format!(
            "guard {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.guard_failures.push(what);
        }
    }
}

/// Ratio with a zero denominator read as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
