//! The seeded-defect fixture specifications under `tests/specs/` each
//! trigger their distinct specflow code, while the good fixture stays
//! clean. These are the same files CI feeds to `medmaker check --json`.

use medmaker::analysis::check_text;
use medmaker::{MedError, Mediator, SourceInfo};
use oem::{sym, Symbol};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use wrappers::{Capabilities, SemiStructuredWrapper};

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/specs")
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(specs_dir().join(name)).unwrap()
}

/// The `src` source every fixture matches against, loaded from the
/// shared `src.oem` store (closed schema: string name/dept, int year).
fn src_wrapper() -> SemiStructuredWrapper {
    let store = oem::parser::parse_store(&fixture("src.oem")).unwrap();
    SemiStructuredWrapper::new("src", store)
}

/// [`src_wrapper`]'s capabilities and summary.
fn src_info() -> BTreeMap<Symbol, SourceInfo> {
    let mut m = BTreeMap::new();
    m.insert(sym("src"), SourceInfo::of_wrapper(&src_wrapper()));
    m
}

fn codes_of(diags: &[msl::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn good_fixture_is_clean() {
    let (_, diags, analysis) = check_text(&fixture("good.msl"), "med", &src_info()).unwrap();
    assert!(diags.is_empty(), "{diags:?}");
    assert!(analysis.dead_views.is_empty());
    // Every view got an answerability matrix, and none is empty.
    for v in ["v_person", "v_senior", "v_all"] {
        let m = analysis.matrices.get(&sym(v)).expect(v);
        assert!(!m.is_empty(), "view {v} should be answerable");
    }
}

#[test]
fn type_mismatch_fixture_is_e301() {
    let (_, diags, _) = check_text(&fixture("type_mismatch.msl"), "med", &src_info()).unwrap();
    assert!(codes_of(&diags).contains(&"E301"), "{diags:?}");
    assert!(diags.iter().any(|d| d.is_error()));
}

#[test]
fn unknown_label_fixture_is_w301_with_did_you_mean() {
    let (_, diags, _) = check_text(&fixture("unknown_label.msl"), "med", &src_info()).unwrap();
    let d = diags
        .iter()
        .find(|d| d.code == "W301")
        .unwrap_or_else(|| panic!("no W301 in {diags:?}"));
    assert!(!d.is_error());
    assert!(
        d.help
            .as_deref()
            .unwrap_or("")
            .contains("did you mean 'name'"),
        "{d:?}"
    );
}

#[test]
fn dead_view_fixture_is_w302() {
    let (_, diags, analysis) = check_text(&fixture("dead_view.msl"), "med", &src_info()).unwrap();
    assert!(codes_of(&diags).contains(&"W302"), "{diags:?}");
    assert_eq!(analysis.dead_views, [sym("lost")].into_iter().collect());
    // The live view is untouched.
    assert!(!analysis.matrices[&sym("live")].is_empty());
}

#[test]
fn unanswerable_fixture_is_e302_against_a_form_source() {
    // `form` refuses to enumerate: it requires a bound condition on
    // `name`, which the fixture's rule never mentions.
    let mut sources = BTreeMap::new();
    sources.insert(
        sym("form"),
        SourceInfo {
            caps: Capabilities::full().with_required_condition_on(sym("name")),
            summary: None,
        },
    );
    let (_, diags, analysis) = check_text(&fixture("unanswerable.msl"), "med", &sources).unwrap();
    assert!(codes_of(&diags).contains(&"E302"), "{diags:?}");
    assert!(analysis.matrices[&sym("v")].is_empty());
}

#[test]
fn fixtures_trigger_pairwise_distinct_codes() {
    // The seeded defects are distinguishable: each bad fixture's most
    // severe new-code finding differs from every other's.
    let mut seen = Vec::new();
    for (file, want) in [
        ("type_mismatch.msl", "E301"),
        ("unknown_label.msl", "W301"),
        ("dead_view.msl", "W302"),
    ] {
        let (_, diags, _) = check_text(&fixture(file), "med", &src_info()).unwrap();
        assert!(codes_of(&diags).contains(&want), "{file}: {diags:?}");
        assert!(!seen.contains(&want), "{file} repeats {want}");
        seen.push(want);
    }
}

#[test]
fn mediator_construction_agrees_with_check() {
    // `Mediator::new` runs the same static analysis as `medmaker check`:
    // it rejects exactly check's errors and keeps exactly its warnings.
    for file in [
        "good.msl",
        "type_mismatch.msl",
        "unknown_label.msl",
        "dead_view.msl",
    ] {
        let text = fixture(file);
        let (_, diags, _) = check_text(&text, "med", &src_info()).unwrap();
        let built = Mediator::new(
            "med",
            &text,
            vec![Arc::new(src_wrapper())],
            medmaker::externals::standard_registry(),
        );
        match built {
            Ok(med) => assert_eq!(med.lint_warnings(), &diags[..], "{file}"),
            Err(MedError::Lint(errors)) => {
                let want: Vec<_> = diags.into_iter().filter(|d| d.is_error()).collect();
                assert!(!want.is_empty(), "{file}");
                assert_eq!(errors, want, "{file}");
            }
            Err(e) => panic!("{file}: unexpected error {e}"),
        }
    }
}
