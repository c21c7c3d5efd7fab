//! Robustness sweep: malformed inputs, edge-case data, and failure paths
//! across the whole stack must produce errors or empty results — never
//! panics or wrong answers.

use medmaker::{MedError, Mediator};
use oem::{ObjectBuilder, ObjectStore, Value};
use std::sync::Arc;
use wrappers::scenario::{cs_wrapper, whois_wrapper, MS1};
use wrappers::{SemiStructuredWrapper, Wrapper};

fn med() -> Mediator {
    Mediator::new(
        "med",
        MS1,
        vec![Arc::new(whois_wrapper()), Arc::new(cs_wrapper())],
        medmaker::externals::standard_registry(),
    )
    .unwrap()
}

#[test]
fn garbage_msl_never_panics() {
    let m = med();
    for bad in [
        "",
        "X",
        "X :-",
        ":- <a 1>@s",
        "X :- X:<>@med",
        "X :- X:<a b c d e f>@med",
        "X :- X:<cs_person {<name 'unterminated}>@med",
        "X :- X:<cs_person {}>@med AND",
        "🦀 :- 🦀:<a 1>@med",
        "X :- X:<cs_person {<name N> | }>@med",
        "<a {<b $P>}> :- <c {<b $P>}>@med", // param in head
    ] {
        assert!(m.query_text(bad).is_err(), "should reject: {bad}");
    }
}

#[test]
fn garbage_oem_never_panics() {
    for bad in [
        "<",
        "<&a>",
        "<&a, >",
        "<&a, label, bogus_type, 1>",
        "<&a, x, {&missing}>",
        "<&a, x, 1> <&a, y, 2>",
        "<&a, x, 'unterminated>",
        "<&a, x, 99999999999999999999999>",
    ] {
        assert!(
            oem::parser::parse_store(bad).is_err(),
            "should reject: {bad}"
        );
    }
}

#[test]
fn external_failure_surfaces_not_panics() {
    // decomp on a one-word name fails (name_to_lnfn returns no tuple) —
    // that person silently drops from the view.
    let mut store = wrappers::scenario::whois_store();
    ObjectBuilder::set("person")
        .atom("name", "Cher")
        .atom("dept", "CS")
        .atom("relation", "employee")
        .build_top(&mut store);
    let m = Mediator::new(
        "med",
        MS1,
        vec![
            Arc::new(SemiStructuredWrapper::new("whois", store)),
            Arc::new(cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = m.query_text("P :- P:<cs_person {}>@med").unwrap();
    assert_eq!(res.top_level().len(), 2); // Cher is not an error, just absent
}

#[test]
fn empty_sources_empty_view() {
    let m = Mediator::new(
        "med",
        MS1,
        vec![
            Arc::new(SemiStructuredWrapper::new("whois", ObjectStore::new())),
            Arc::new(cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    )
    .unwrap();
    let res = m.query_text("P :- P:<cs_person {}>@med").unwrap();
    assert!(res.top_level().is_empty());
}

#[test]
fn source_with_weird_values() {
    // Unicode, empty strings, extreme ints, reals incl. negative zero.
    let mut store = ObjectStore::new();
    ObjectBuilder::set("person")
        .atom("name", "Ψάρι 魚")
        .atom("dept", "CS")
        .atom("relation", "employee")
        .atom("note", "")
        .atom("min", i64::MIN)
        .atom("zero", -0.0f64)
        .build_top(&mut store);
    let w = SemiStructuredWrapper::new("s", store);
    let q = msl::parse_query("X :- X:<person {<name N>}>@s").unwrap();
    let res = w.query(&q).unwrap();
    assert_eq!(res.top_level().len(), 1);
    // Round-trips through the printer/parser too.
    let text = oem::printer::print_store(&res);
    let re = oem::parser::parse_store(&text).unwrap();
    assert!(oem::eq::struct_eq_cross(
        &res,
        res.top_level()[0],
        &re,
        re.top_level()[0]
    ));
}

#[test]
fn deeply_nested_data_does_not_overflow() {
    // 3000-deep chain: descendant iteration and matching must not recurse
    // unboundedly. (Construction copy is recursive; keep within default
    // stack but well past typical data.)
    let store = wrappers::workload::deep_store(1, 800);
    let w = SemiStructuredWrapper::new("deep", store);
    let q = msl::parse_query("<hit {<y Y>}> :- <person {* <year Y>}>@deep").unwrap();
    let res = w.query(&q).unwrap();
    assert_eq!(res.top_level().len(), 1);
}

#[test]
fn many_rules_spec() {
    // A 50-rule specification: expansion must stay linear in matching
    // heads, not blow up on non-matching ones.
    let mut spec = String::new();
    for i in 0..50 {
        spec.push_str(&format!("<view{i} {{<v V>}}> :- <src{i} {{<v V>}}>@s\n"));
    }
    let mut store = ObjectStore::new();
    for i in 0..50 {
        ObjectBuilder::set(format!("src{i}").as_str())
            .atom("v", i as i64)
            .build_top(&mut store);
    }
    let m = Mediator::new(
        "m",
        &spec,
        vec![Arc::new(SemiStructuredWrapper::new("s", store))],
        medmaker::ExternalRegistry::new(),
    )
    .unwrap();
    let res = m.query_text("X :- X:<view7 {}>@m").unwrap();
    assert_eq!(res.top_level().len(), 1);
    assert!(oem::printer::compact(&res, res.top_level()[0]).contains("<v 7>"));
}

#[test]
fn duplicate_source_names_last_wins_or_errors() {
    // Two sources with the same name: construction takes the map's last;
    // queries still work (documented: names must be unique).
    let m = Mediator::new(
        "med",
        MS1,
        vec![
            Arc::new(whois_wrapper()),
            Arc::new(whois_wrapper()),
            Arc::new(cs_wrapper()),
        ],
        medmaker::externals::standard_registry(),
    );
    assert!(m.is_ok());
}

#[test]
fn fixpoint_divergence_is_detected() {
    // A pathological recursive spec that grows a string every round would
    // run forever; our engine cannot grow strings (no arithmetic externals
    // in the registry here), so build divergence via nesting: each round
    // wraps objects one level deeper. The engine must cut off, not hang.
    // anc over a self-loop converges instead — check convergence works on
    // cyclic data.
    let mut s = ObjectStore::new();
    ObjectBuilder::set("parent")
        .atom("of", "a")
        .atom("is", "a") // self-loop
        .build_top(&mut s);
    let m = Mediator::new(
        "m",
        "<anc {<of X> <is Y>}> :- <parent {<of X> <is Y>}>@src\n\
         <anc {<of X> <is Z>}> :- <parent {<of X> <is Y>}>@src AND <anc {<of Y> <is Z>}>@m",
        vec![Arc::new(SemiStructuredWrapper::new("src", s)) as Arc<dyn Wrapper>],
        medmaker::ExternalRegistry::new(),
    )
    .unwrap();
    let res = m.query_text("X :- X:<anc {}>@m").unwrap();
    assert_eq!(res.top_level().len(), 1); // a→a, once
}

#[test]
fn conflicting_atomic_fusion_is_an_error() {
    // Two rules give the same semantic oid an atomic value that differs →
    // construction reports a fusion conflict instead of picking silently.
    let mut s = ObjectStore::new();
    ObjectBuilder::set("fact")
        .atom("k", "x")
        .atom("v", 1i64)
        .build_top(&mut s);
    ObjectBuilder::set("fact")
        .atom("k", "x")
        .atom("v", 2i64)
        .build_top(&mut s);
    let m = Mediator::new(
        "m",
        "<key(K) entry V> :- <fact {<k K> <v V>}>@src",
        vec![Arc::new(SemiStructuredWrapper::new("src", s)) as Arc<dyn Wrapper>],
        medmaker::ExternalRegistry::new(),
    )
    .unwrap();
    let err = m.query_text("X :- X:<entry V2>@m");
    assert!(
        matches!(err, Err(MedError::Construct(_))),
        "conflicting fusion must error, got {err:?}"
    );
}

#[test]
fn value_types_survive_view() {
    let mut s = ObjectStore::new();
    ObjectBuilder::set("reading")
        .atom("i", 42i64)
        .atom("r", 2.5f64)
        .atom("b", true)
        .atom("s", "txt")
        .build_top(&mut s);
    let m = Mediator::new(
        "m",
        "<out {<i I> <r R> <b B> <s S>}> :- <reading {<i I> <r R> <b B> <s S>}>@src",
        vec![Arc::new(SemiStructuredWrapper::new("src", s)) as Arc<dyn Wrapper>],
        medmaker::ExternalRegistry::new(),
    )
    .unwrap();
    let res = m.query_text("X :- X:<out {}>@m").unwrap();
    let top = res.top_level()[0];
    let vals: Vec<Value> = res
        .children(top)
        .iter()
        .map(|&c| res.get(c).value.clone())
        .collect();
    assert!(vals.contains(&Value::Int(42)));
    assert!(vals.contains(&Value::real(2.5)));
    assert!(vals.contains(&Value::Bool(true)));
    assert!(vals.contains(&Value::str("txt")));
}

#[test]
fn atomic_string_compare_survives_concurrent_interning() {
    // Comparing two string atoms reads both strings from the global
    // interner while another thread may be interning fresh strings (a
    // wrapper answering another query). The interner's lock queues new
    // readers behind a waiting writer, so a comparison that takes the
    // read lock twice deadlocks against that writer. Both threads must
    // finish well within the deadline.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    let a = Value::Str(oem::sym("compare-probe-alpha"));
    let b = Value::Str(oem::sym("compare-probe-beta"));
    let start = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<&str>();

    let comparer = {
        let (start, stop, tx) = (Arc::clone(&start), Arc::clone(&stop), tx.clone());
        std::thread::spawn(move || {
            start.wait();
            for _ in 0..200_000 {
                assert_eq!(a.compare_atomic(&b), Some(std::cmp::Ordering::Less));
            }
            stop.store(true, Ordering::Relaxed);
            tx.send("comparer").unwrap();
        })
    };
    let interner = std::thread::spawn(move || {
        start.wait();
        let mut i = 0u32;
        while !stop.load(Ordering::Relaxed) && i < 100_000 {
            oem::sym(&format!("compare-probe-fresh-{i}"));
            i += 1;
        }
        tx.send("interner").unwrap();
    });

    let deadline = Duration::from_secs(10);
    for _ in 0..2 {
        rx.recv_timeout(deadline)
            .expect("compare_atomic deadlocked against a concurrent intern");
    }
    comparer.join().unwrap();
    interner.join().unwrap();
}
