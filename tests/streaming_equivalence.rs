//! Streaming differential guard: the pull-based batched executor must
//! produce the same answers at every batch size, sequential or parallel,
//! on every workload shape — parameterized chains, open scans,
//! rest-condition filters, external predicates, multi-rule fusion,
//! Partial-mode degradation and cache-hit paths. MSL's set-oriented
//! semantics (§3.2) make pipelining invisible; these tests keep it that
//! way against two oracles:
//!
//! * byte identity with the *materialized* run — the same executor at an
//!   unbounded batch size (`usize::MAX`), where every node emits its
//!   whole table as one batch, run sequentially;
//! * structural equality with the independent naive evaluator
//!   ([`medmaker::naive::eval_rule`]) over the query's expanded rules.
//!
//! The naive evaluator constructs each rule on its own, so it cannot fuse
//! semantic oids across rules; the multi-rule fusion case is checked on
//! the byte-identity matrix only.

use medmaker::naive::{eval_rule, SourceRef};
use medmaker::{FaultOptions, Mediator, MediatorOptions, OnSourceFailure};
use oem::{ObjectStore, Symbol};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wrappers::fault::{FaultInjectingWrapper, FaultPlan};
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::workload::PersonWorkload;
use wrappers::Wrapper;

/// Multi-rule view fused by a semantic oid: one chain per source, so the
/// parallel merge path is exercised with more than one chain.
const UNION_SPEC: &str = "\
<person_id(N) all_person {<name N> <src 'whois'> Rest}> :-
    <person {<name N> | Rest}>@whois
<person_id(N) all_person {<name N> <src 'cs'> <first FN> <last LN> Rest2}> :-
    <R {<first_name FN> <last_name LN> | Rest2}>@cs
    AND decomp(N, LN, FN)

decomp(bound, free, free) by name_to_lnfn
decomp(free, bound, bound) by lnfn_to_name
";

/// Batch sizes of the byte-identity matrix: one row, a size that splits
/// every table unevenly, and unbounded (the materialized reference).
const BATCHES: [usize; 3] = [1, 7, usize::MAX];

fn mediator(spec: &str, options: MediatorOptions) -> Mediator {
    Mediator::new(
        "m",
        spec,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
    .with_options(options)
}

fn streaming_opts(batch_size: usize) -> MediatorOptions {
    MediatorOptions {
        batch_size,
        ..Default::default()
    }
}

/// The materialized reference: one batch per node, sequential chains.
fn materialized_opts() -> MediatorOptions {
    streaming_opts(usize::MAX)
}

/// Run a query and render the whole answer store — oids included. The
/// constructor assigns result oids from the merged tables in a fixed
/// order, so equal executions print byte-identically.
fn answer(med: &Mediator, query: &str) -> String {
    let res = med.query_text(query).unwrap();
    oem::printer::print_store(&res)
}

/// Every (batch size, parallel) cell of the byte-identity matrix must
/// print exactly what the sequential unbounded run prints.
fn assert_batch_matrix(spec: &str, query: &str) {
    let expected = answer(&mediator(spec, materialized_opts()), query);
    for batch in BATCHES {
        for parallel in [false, true] {
            let med = mediator(
                spec,
                MediatorOptions {
                    parallel,
                    ..streaming_opts(batch)
                },
            );
            assert_eq!(
                answer(&med, query),
                expected,
                "batch={batch} parallel={parallel} query={query}"
            );
        }
    }
}

/// Sort-insensitive structural comparison of two result stores (as in
/// tests/equivalence.rs).
fn same_objects(a: &ObjectStore, b: &ObjectStore) -> bool {
    if a.top_level().len() != b.top_level().len() {
        return false;
    }
    let mut unmatched: Vec<oem::ObjId> = b.top_level().to_vec();
    for &x in a.top_level() {
        let Some(pos) = unmatched
            .iter()
            .position(|&y| oem::eq::struct_eq_cross(a, x, b, y))
        else {
            return false;
        };
        unmatched.swap_remove(pos);
    }
    true
}

/// The naive evaluator's answer: every expanded rule of `query` that
/// `keep` accepts, evaluated directly against the sources, with MSL
/// duplicate elimination across rules.
fn naive_answer(
    med: &Mediator,
    sources: &[Arc<dyn Wrapper>],
    query: &str,
    keep: impl Fn(&msl::Rule) -> bool,
) -> ObjectStore {
    let program = med.expand(&msl::parse_query(query).unwrap()).unwrap();
    let by_name: HashMap<Symbol, Arc<dyn Wrapper>> =
        sources.iter().map(|w| (w.name(), Arc::clone(w))).collect();
    let resolve = |name: Symbol| by_name.get(&name).map(SourceRef::Wrapper);
    let registry = medmaker::externals::standard_registry();
    let mut results = ObjectStore::new();
    for rule in program.rules.iter().filter(|r| keep(r)) {
        eval_rule(rule, &resolve, &registry, &mut results).unwrap();
    }
    let tops = results.top_level().to_vec();
    let unique = oem::eq::dedup_structural(&results, &tops);
    results.set_top_level(unique);
    results
}

/// The sources an expanded rule reads.
fn rule_sources(rule: &msl::Rule) -> Vec<Symbol> {
    rule.tail
        .iter()
        .filter_map(|t| match t {
            msl::TailItem::Match { source, .. } => *source,
            _ => None,
        })
        .collect()
}

/// The workload matrix: every plan-node shape the executor has.
const QUERIES: &[&str] = &[
    // Parameterized chain (Qwhois → decomp → Qcs), the paper's walkthrough.
    "JC :- JC:<cs_person {<name 'Joe Chung'>}>@m",
    // Open scan: whole view, every person crossed with their cs relation.
    "P :- P:<cs_person {}>@m",
    // Projection head over the view.
    "<roster {<person N> <as R>}> :- <cs_person {<name N> <rel R>}>@m",
    // Rest-condition filter (the vectorized batch-kernel path).
    "S :- S:<cs_person {<name N> | R:{<year 3>}}>@m",
    // External predicate mid-chain.
    "<o {<n N>}> :- <cs_person {<name N>}>@m AND eq(N, N)",
];

#[test]
fn streaming_matches_materialized_on_every_workload() {
    let sources: Vec<Arc<dyn Wrapper>> = vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())];
    for q in QUERIES {
        assert_batch_matrix(MS1, q);
        // Independent oracle: the naive evaluator over the expanded rules.
        let med = mediator(MS1, streaming_opts(7));
        let streamed = med.query_text(q).unwrap();
        let naive = naive_answer(&med, &sources, q, |_| true);
        assert!(
            same_objects(&streamed, &naive),
            "naive ({}) vs streamed ({}) on {q}",
            naive.top_level().len(),
            streamed.top_level().len()
        );
    }
}

#[test]
fn streaming_matches_materialized_on_multi_rule_fusion() {
    // Semantic-oid fusion across rules: byte-identity matrix only (the
    // naive evaluator constructs rule by rule and cannot fuse).
    assert_batch_matrix(UNION_SPEC, "P :- P:<all_person {}>@m");
}

#[test]
fn streaming_records_first_answer_and_bounded_batches() {
    // A scaled person workload: the paper's sources are too small for any
    // node to emit more than two rows.
    let scaled = |batch_size: usize| {
        let (whois, cs) = PersonWorkload::sized(20).build();
        Mediator::new(
            "m",
            MS1,
            vec![Arc::new(whois), Arc::new(cs)],
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(streaming_opts(batch_size))
    };
    let q = msl::parse_query("P :- P:<cs_person {}>@m").unwrap();
    let outcome = scaled(2).query_rule(&q).unwrap();
    assert!(outcome.trace.first_rows_ns > 0, "TTFA must be recorded");
    assert!(
        outcome.trace.peak_batch_rows <= 2,
        "no node may hold more than one batch: peak {}",
        outcome.trace.peak_batch_rows
    );
    assert!(outcome.trace.peak_bytes_resident > 0);
    // The unbounded run holds whole tables, so its peak for the same
    // query is strictly larger.
    let unbounded = scaled(usize::MAX).query_rule(&q).unwrap();
    assert!(
        unbounded.trace.peak_batch_rows > outcome.trace.peak_batch_rows,
        "unbounded peak {} vs batch-2 peak {}",
        unbounded.trace.peak_batch_rows,
        outcome.trace.peak_batch_rows
    );
}

#[test]
fn streaming_matches_materialized_in_partial_mode() {
    // cs is down: the cs chain drops, the whois chain still answers —
    // identically at every batch size, sequential or parallel, with the
    // same completeness annotations, and equal to the naive evaluator
    // over the surviving whois rule.
    let down = || -> Vec<Arc<dyn Wrapper>> {
        vec![
            Arc::new(whois_wrapper()),
            Arc::new(FaultInjectingWrapper::new(
                Arc::new(cs_wrapper()),
                FaultPlan::always_down(),
            )),
        ]
    };
    let build = |options: MediatorOptions| {
        Mediator::new(
            "m",
            UNION_SPEC,
            down(),
            medmaker::externals::standard_registry(),
        )
        .unwrap()
        .with_options(MediatorOptions {
            fault: FaultOptions {
                on_source_failure: OnSourceFailure::Partial,
                ..Default::default()
            },
            ..options
        })
    };
    let text = "P :- P:<all_person {}>@m";
    let q = msl::parse_query(text).unwrap();
    let reference = build(materialized_opts()).query_rule(&q).unwrap();
    assert!(!reference.trace.completeness.is_complete());
    assert!(reference
        .trace
        .completeness
        .sources_failed
        .contains_key(&oem::sym("cs")));
    for batch in BATCHES {
        for parallel in [false, true] {
            let streamed = build(MediatorOptions {
                parallel,
                ..streaming_opts(batch)
            })
            .query_rule(&q)
            .unwrap();
            let cell = format!("batch={batch} parallel={parallel}");
            assert_eq!(
                oem::printer::print_store(&streamed.results),
                oem::printer::print_store(&reference.results),
                "{cell}"
            );
            assert_eq!(
                streamed.trace.completeness.skipped_chains,
                reference.trace.completeness.skipped_chains,
                "{cell}"
            );
            assert_eq!(
                streamed.trace.completeness.sources_failed,
                reference.trace.completeness.sources_failed,
                "{cell}"
            );
        }
    }
    let whois_only = |r: &msl::Rule| rule_sources(r).iter().all(|s| s.as_str() == "whois");
    let naive = naive_answer(&build(materialized_opts()), &down(), text, whois_only);
    assert!(!naive.top_level().is_empty(), "the whois rule answers");
    assert!(
        same_objects(&reference.results, &naive),
        "naive ({}) vs partial ({})",
        naive.top_level().len(),
        reference.results.top_level().len()
    );
}

#[test]
fn streaming_matches_materialized_on_cache_hits() {
    let build = |options: MediatorOptions| {
        mediator(
            MS1,
            MediatorOptions {
                cache: medmaker::CacheOptions {
                    enabled: true,
                    ..Default::default()
                },
                ..options
            },
        )
    };
    let q = "P :- P:<cs_person {}>@m";
    let expected = answer(&mediator(MS1, materialized_opts()), q);
    for batch in [4, usize::MAX] {
        let cached = build(streaming_opts(batch));
        // The first run populates the cache; the second is served from it
        // (cached rows enter the pipeline fully extracted).
        assert_eq!(answer(&cached, q), expected, "cold batch={batch}");
        assert_eq!(
            answer(&cached, q),
            expected,
            "cache hits must not change the answer: batch={batch}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batch size is invisible: any size from one row up produces the
    /// same bytes as the materialized run.
    #[test]
    fn any_batch_size_is_equivalent(batch in 1i64..4097) {
        let reference = mediator(MS1, materialized_opts());
        let streamed = mediator(MS1, streaming_opts(batch as usize));
        let q = "JC :- JC:<cs_person {<name 'Joe Chung'>}>@m";
        prop_assert_eq!(answer(&streamed, q), answer(&reference, q));
    }
}
