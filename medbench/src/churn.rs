//! `churn_tiered`: an in-process mediator with the answer cache on, a warm
//! tier in a fresh directory and the default hot capacity, and one client.
//! Queries are Zipf(1) point lookups over 100 names plus a `<year Y>` scan
//! every tenth query; every 50 queries a `SourceDelta` is applied,
//! alternating label-scoped on `cs` and unscoped on `whois`. The working
//! set is larger than the hot tier, so the cache writes as well as reads:
//! evictions, warm hits, promotions, write-through appends, invalidation
//! and containment serving of large answers. `setup_s` is the restart:
//! reopening the mediator on the warm directory an untimed fill phase
//! wrote. The sources never change, so every answer equals the reference.

use crate::common::{
    counts_since, median_setup, name_query, open, people, references, year_query, InProcess,
    Outcome, Rng, Sources, Zipf,
};
use crate::inproc::drive;
use crate::layers::{per_layer, LayerAcc, LayerInputs};
use crate::trace;
use crate::{finish_end_to_end, Args};
use medmaker::{CacheOptions, Mediator, MediatorOptions, SourceDelta};
use oem::Symbol;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Whois persons. Smaller than the 1000 first planned: there, one lookup
/// served by containment after a delta took 18 s.
const N: usize = 250;
/// Distinct names the lookups draw from.
const NAMES: usize = 100;
/// Zipf exponent over the names.
const ZIPF_S: f64 = 1.0;
/// Queries between two deltas.
const DELTA_EVERY: usize = 50;
/// Queries of the untimed fill phase that writes the warm tier.
const FILL: usize = 100;
/// Timed-phase queries generated (and checked) before the stream repeats.
const STREAM: usize = 600;
/// Labels a `cs` delta may name.
const CS_LABELS: [&str; 2] = ["student", "employee"];
/// Tail percentile: the highest of {90, 99} with at least ten samples
/// beyond it at this workload's throughput.
const TAIL_PCT: f64 = 90.0;

/// The warm-tier directory, removed when the run ends.
struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes in the files of `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The delta applied after the `k`-th one-based query, if any.
fn delta_after(k: usize, rng: &mut Rng) -> Option<SourceDelta> {
    if !k.is_multiple_of(DELTA_EVERY) {
        return None;
    }
    Some(if (k / DELTA_EVERY) % 2 == 1 {
        let label = CS_LABELS[rng.below(CS_LABELS.len())];
        SourceDelta::labels(Symbol::intern("cs"), [Symbol::intern(label)])
    } else {
        SourceDelta::whole(Symbol::intern("whois"))
    })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let sources = Sources::generate(N, args.seed);
    let mut rng = Rng::new(args.seed, 3);
    let names = rng.distinct(NAMES, people(N));
    let zipf = Zipf::new(NAMES, ZIPF_S);
    let stream: Vec<String> = (1..=FILL + STREAM)
        .map(|k| {
            if k.is_multiple_of(10) {
                year_query(1 + rng.below(5))
            } else {
                name_query(names[zipf.sample(&mut rng)])
            }
        })
        .collect();
    let timed: BTreeSet<String> = stream[FILL..].iter().cloned().collect();
    let refs = references(&sources, &timed)?;

    let dir = CacheDir(
        args.out_dir()?
            .join(format!("churn-{}-{}", args.seed, std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let options = MediatorOptions {
        cache: CacheOptions {
            cache_dir: Some(dir.0.clone()),
            ..CacheOptions::enabled()
        },
        ..MediatorOptions::default()
    };
    let mut delta_rng = Rng::new(args.seed, 4);
    let fill_started = Instant::now();
    {
        let med = open(sources.timed(), options.clone())?;
        let path = InProcess::new(&med, &sources);
        for (k, q) in stream[..FILL].iter().enumerate() {
            path.run(q).map_err(|e| format!("fill phase: {q}: {e}"))?;
            if let Some(d) = delta_after(k + 1, &mut delta_rng) {
                med.apply_delta(&d);
            }
        }
    }
    eprintln!(
        "medbench: fill phase of {FILL} queries in {:.1} s",
        fill_started.elapsed().as_secs_f64()
    );

    let mut reopened: Option<Mediator> = None;
    let (setup_s, reps) = median_setup(11, Duration::from_millis(300), || {
        drop(reopened.take());
        let t = Instant::now();
        let med = open(sources.timed(), options.clone())?;
        let took = t.elapsed();
        reopened = Some(med);
        Ok(took)
    })?;
    let med = reopened.ok_or("the mediator was not reopened")?;
    let path = InProcess::new(&med, &sources);

    let mut k = FILL;
    let mut next = || {
        let q = stream[FILL + (k - FILL) % STREAM].clone();
        k += 1;
        q
    };
    // Between queries: the delta schedule, and in traced queries the
    // growth of the warm-tier directory.
    let mut done = FILL;
    let mut invalidated = 0usize;
    let last_size = Cell::new(0);
    let mut after = |traced: bool, acc: &mut LayerAcc| {
        done += 1;
        if let Some(d) = delta_after(done, &mut delta_rng) {
            let apply = || med.apply_delta(&d);
            let n = if traced {
                trace::traced_query("cache.apply_delta", apply)
            } else {
                apply()
            };
            invalidated += n;
            if traced {
                acc.deltas += 1;
                acc.invalidated += n as u64;
            }
        }
        if traced {
            let size = dir_bytes(&dir.0);
            acc.disk_written += size.saturating_sub(last_size.get());
            last_size.set(size);
        }
    };

    let mut out = Outcome::default();
    let mut acc = LayerAcc::default();
    let calls_start = sources.counts();
    let cache_start = med.cache_counters();
    let half = args.measure_split();
    let untraced = drive(
        &|q, traced| path.answer(q, traced),
        &mut next,
        Instant::now() + half,
        false,
        &refs,
        &mut out.tally,
        &mut acc,
        &mut after,
    );
    let calls_untraced = counts_since(&sources.counts(), &calls_start);
    if args.trace {
        let traced_start = sources.counts();
        let cache_traced = med.cache_counters();
        trace::take();
        last_size.set(dir_bytes(&dir.0));
        let traced = drive(
            &|q, traced| path.answer(q, traced),
            &mut next,
            Instant::now() + half,
            true,
            &refs,
            &mut out.tally,
            &mut acc,
            &mut after,
        );
        let spans = trace::take();
        let (layers, extra) = per_layer(&LayerInputs {
            spans: &spans,
            acc: &acc,
            calls: &counts_since(&sources.counts(), &traced_start),
            calls_run: &sources.counts(),
            cache: (cache_traced, med.cache_counters()),
            disk_bytes: dir_bytes(&dir.0),
            server: None,
            qps: (untraced.qps(), traced.qps()),
        });
        out.per_layer = layers;
        out.extra.extend(extra);
        crate::write_spans(args, &spans)?;
    }

    let (c0, c1) = (cache_start, med.cache_counters());
    for (what, n) in [
        ("hot-tier demotions", c1.demotions - c0.demotions),
        ("evictions", c1.evictions - c0.evictions),
        ("warm hits", c1.warm_hits - c0.warm_hits),
        ("promotions", c1.promotions - c0.promotions),
        (
            "containment hits",
            c1.containment_hits - c0.containment_hits,
        ),
    ] {
        out.guard(n > 0, format!("{what} above 0 (saw {n})"));
    }
    out.guard(
        invalidated > 0,
        format!("entries invalidated by deltas above 0 (saw {invalidated})"),
    );
    let calls: u64 = calls_untraced.values().map(|c| c.calls).sum();
    finish_end_to_end(
        &mut out, args.trace, setup_s, reps, &untraced, TAIL_PCT, calls,
    )?;
    Ok(out)
}
