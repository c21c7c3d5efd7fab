//! `cold_lookup`: each query as `medmaker query` runs it, on a fresh
//! in-process mediator with default options (cache off), and one client.
//! Nine queries in ten are point lookups of a person drawn uniformly from
//! either source (some have no match); every tenth is a `<year Y>` scan.
//! Every answer pays its source round-trips, so the wrappers and the
//! executor do most of the work and neither the cache nor the server does
//! any. Each source call pays a fixed network round-trip, so a plan that
//! makes fewer calls shows in the latency as it would against remote
//! sources.
//!
//! The mediator for the next query is built between queries, outside the
//! latency. `setup_s` is the median of every such build in the run, so it
//! samples the whole run and not only its start. A mediator that lives
//! across queries learns statistics, and on this workload its planner flips
//! between plan regimes every few seconds (see `medbench/README.md`).

use crate::common::{
    counts_since, median, name_query, open, people, references, year_query, InProcess, Outcome,
    Rng, Sources,
};
use crate::inproc::drive;
use crate::layers::{per_layer, LayerAcc, LayerInputs};
use crate::{finish_end_to_end, Args};
use medmaker::{Mediator, MediatorOptions};
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::time::Instant;

/// Whois persons.
const N: usize = 500;
/// Round-trip of every source call, ms: a source on another host of the
/// same region. Without it the latency is all CPU time, and on a shared
/// host that moved by a quarter or more from one run to the next.
const ROUND_TRIP_MS: u64 = 10;
/// Names the lookups draw from, one per stratum of the id range. With the
/// cache off a repeated lookup costs what a new one does, so a pool keeps
/// the reference answers cheap without changing the work.
const NAME_POOL: usize = 128;
/// Untimed queries before timing.
const WARMUP: usize = 20;
/// Tail percentile: inside the `<year Y>` scans, which are every tenth
/// query and the slowest. p90 would sit on the edge between them and the
/// lookups, where the value jumps between the two.
const TAIL_PCT: f64 = 95.0;

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let sources = Sources::generate_remote(N, args.seed, ROUND_TRIP_MS);
    let mut rng = Rng::new(args.seed, 1);
    let names = rng.stratified(NAME_POOL, people(N));
    let mut queries: BTreeSet<String> = names.iter().map(|&i| name_query(i)).collect();
    queries.extend((1..=5).map(year_query));
    let refs = references(&sources, &queries)?;

    let fresh = || open(sources.timed(), MediatorOptions::default());
    let setups = RefCell::new(Vec::new());
    let timed_fresh = || {
        let t = Instant::now();
        let med = fresh();
        setups.borrow_mut().push(t.elapsed().as_secs_f64());
        med
    };
    // A few set-ups before the first query, so that a short run has
    // enough; the builds between queries outnumber them in a long run.
    for _ in 0..25 {
        drop(timed_fresh()?);
    }
    let current: RefCell<Mediator> = RefCell::new(fresh()?);
    let lookups = Cell::new(0);
    let run = |q: &str, traced: bool| InProcess::new(&current.borrow(), &sources).answer(q, traced);
    let mut renew = |_: bool, _: &mut LayerAcc| {
        let old = current.replace(timed_fresh().expect("the specification opened before"));
        let c = old.cache_counters();
        lookups.set(lookups.get() + c.hits + c.containment_hits + c.misses);
    };
    let mut k = 0usize;
    let mut next = || {
        k += 1;
        if k.is_multiple_of(10) {
            year_query(1 + rng.below(5))
        } else {
            name_query(names[rng.below(names.len())])
        }
    };
    for _ in 0..WARMUP {
        run(&next(), false)?;
        renew(false, &mut LayerAcc::default());
    }

    let mut out = Outcome::default();
    let mut acc = LayerAcc::default();
    let run_start = sources.counts();
    let half = args.measure_split();
    let untraced = drive(
        &run,
        &mut next,
        Instant::now() + half,
        false,
        &refs,
        &mut out.tally,
        &mut acc,
        &mut renew,
    );
    let calls_untraced = counts_since(&sources.counts(), &run_start);
    if args.trace {
        let traced_start = sources.counts();
        crate::trace::take();
        let traced = drive(
            &run,
            &mut next,
            Instant::now() + half,
            true,
            &refs,
            &mut out.tally,
            &mut acc,
            &mut renew,
        );
        let spans = crate::trace::take();
        // Each query ran on its own mediator, and every one of them kept
        // its cache off: the cache columns read zero.
        let idle = current.borrow().cache_counters();
        let (layers, extra) = per_layer(&LayerInputs {
            spans: &spans,
            acc: &acc,
            calls: &counts_since(&sources.counts(), &traced_start),
            calls_run: &sources.counts(),
            cache: (idle, idle),
            disk_bytes: 0,
            server: None,
            qps: (untraced.qps(), traced.qps()),
        });
        out.per_layer = layers;
        out.extra.extend(extra);
        crate::write_spans(args, &spans)?;
    }

    let c = current.borrow().cache_counters();
    let lookups = lookups.get() + c.hits + c.containment_hits + c.misses;
    out.guard(
        lookups == 0,
        format!("no cache lookups with the cache off (saw {lookups})"),
    );
    let vector: Vec<String> = calls_untraced
        .iter()
        .map(|(s, c)| format!("{s}={}", c.calls))
        .collect();
    out.notes.push(format!(
        "per-source calls in the untraced phase: {}",
        vector.join(" ")
    ));
    let calls: u64 = calls_untraced.values().map(|c| c.calls).sum();
    let mut setups = setups.into_inner();
    let reps = setups.len();
    let setup_s = median(&mut setups);
    finish_end_to_end(
        &mut out, args.trace, setup_s, reps, &untraced, TAIL_PCT, calls,
    )?;
    Ok(out)
}
