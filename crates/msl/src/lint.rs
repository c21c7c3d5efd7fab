//! `speclint` — collect-all static analysis of MSL specifications.
//!
//! The legacy validator ([`crate::validate`]) stops at the first defect;
//! this module walks the whole specification and reports **every** finding
//! as a [`Diagnostic`] with a stable code, a severity and a byte span (see
//! [`crate::diag::codes`] for the registry). [`crate::validate::validate_spec`]
//! and [`crate::validate::validate_rule`] are now thin wrappers that
//! surface the first error-level diagnostic, preserving their historical
//! error messages.
//!
//! Passes implemented here (those needing the engine or source
//! capabilities — duplicate/subsumed rules, capability feasibility — live
//! in the `medmaker` core crate, which can see both sides):
//!
//! * structural checks ported from the legacy validator (E001–E013);
//! * **adornment feasibility** (E014, §3.4): prove that *some* evaluation
//!   order of the tail satisfies at least one declared bound/free
//!   adornment of every external predicate;
//! * **unsatisfiable condition conjunctions** (W101): constant-propagate
//!   the built-in comparisons and flag rules like
//!   `... AND eq(V, 3) AND gt(V, 5)` that can never produce results;
//! * **unused tail variables** (W102): a variable bound exactly once and
//!   never consumed is usually a typo.

use crate::ast::*;
use crate::diag::{codes, Diagnostic, Span};
use crate::parser::SpecSpans;
use crate::validate::{is_builtin, BUILTIN_PREDICATES};
use oem::{Symbol, Value};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Run every spec-level lint pass, returning all diagnostics (errors
/// first, then by source position). `spans` may be [`SpecSpans::default`]
/// for programmatically built specs (diagnostics then carry empty spans).
pub fn lint_spec(spec: &Spec, spans: &SpecSpans) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if spec.rules.is_empty() {
        out.push(
            Diagnostic::error(
                codes::EMPTY_SPEC,
                Span::default(),
                "a mediator specification needs at least one rule",
            )
            .with_help("external declarations alone define no exported objects"),
        );
    }

    for (i, d) in spec.externals.iter().enumerate() {
        if d.adornment.is_empty() {
            out.push(Diagnostic::error(
                codes::EMPTY_ADORNMENT,
                spans.external(i),
                format!("external declaration for {} has an empty adornment", d.pred),
            ));
        }
        if is_builtin(d.pred) {
            out.push(
                Diagnostic::error(
                    codes::BUILTIN_SHADOWED,
                    spans.external(i),
                    format!(
                        "external declaration for {} shadows the built-in comparison \
                         predicate; uses of {} always resolve to the built-in",
                        d.pred, d.pred
                    ),
                )
                .with_help("rename the predicate: eq/neq/lt/le/gt/ge are reserved"),
            );
        }
    }

    // Conflicting arities, reported once per predicate (at its first
    // declaration) rather than once per ordered pair.
    let mut reported: HashSet<Symbol> = HashSet::new();
    for (i, d) in spec.externals.iter().enumerate() {
        if !reported.insert(d.pred) {
            continue;
        }
        let arities: HashSet<usize> = spec
            .externals_for(d.pred)
            .iter()
            .map(|o| o.adornment.len())
            .collect();
        if arities.len() > 1 {
            out.push(Diagnostic::error(
                codes::CONFLICTING_ARITIES,
                spans.external(i),
                format!(
                    "conflicting arities declared for external predicate {}",
                    d.pred
                ),
            ));
        }
    }

    for (i, r) in spec.rules.iter().enumerate() {
        lint_rule_into(r, i, spans, &spec.externals, &mut out);
    }

    crate::diag::sort(&mut out);
    out
}

/// Run the rule-level lint passes on a single rule.
pub fn lint_rule(rule: &Rule, externals: &[ExternalDecl]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_rule_into(rule, 0, &SpecSpans::default(), externals, &mut out);
    crate::diag::sort(&mut out);
    out
}

fn lint_rule_into(
    rule: &Rule,
    idx: usize,
    spans: &SpecSpans,
    externals: &[ExternalDecl],
    out: &mut Vec<Diagnostic>,
) {
    let head_span = spans.head(idx);

    // E002: range restriction.
    let tail_vars: HashSet<Symbol> = rule.tail_variables().into_iter().collect();
    let mut head_vars = Vec::new();
    rule.head.collect_vars(&mut head_vars);
    let mut seen = HashSet::new();
    for v in head_vars.iter().filter(|v| seen.insert(**v)) {
        if !tail_vars.contains(v) {
            out.push(
                Diagnostic::error(
                    codes::RANGE_RESTRICTION,
                    head_span,
                    format!(
                        "head variable {v} does not occur in the rule tail (range restriction)"
                    ),
                )
                .with_help("every head variable must be bound by a tail pattern or predicate"),
            );
        }
    }

    // E003: `V :- ...` heads need a defining `V:` somewhere in the tail.
    if let Head::Var(v) = &rule.head {
        let defined = rule.tail.iter().any(|t| match t {
            TailItem::Match { pattern, .. } => pattern_defines_obj_var(pattern, *v),
            TailItem::External { .. } => false,
        });
        if !defined {
            out.push(Diagnostic::error(
                codes::UNDEFINED_HEAD_OBJ_VAR,
                head_span,
                format!("head object variable {v} has no defining '{v}:' occurrence in the tail"),
            ));
        }
    }

    // E004/E005/E006: predicate arity and declaration checks. Items that
    // fail here are excluded from the feasibility analysis below — a
    // wrong-arity atom has no meaningful adornment.
    let mut infeasible_skip = vec![false; rule.tail.len()];
    for (t, item) in rule.tail.iter().enumerate() {
        let span = spans.tail_item(idx, t);
        let TailItem::External { name, args } = item else {
            continue;
        };
        if let Some((_, arity)) = BUILTIN_PREDICATES
            .iter()
            .find(|(n, _)| Symbol::intern(n) == *name)
        {
            if args.len() != *arity {
                out.push(Diagnostic::error(
                    codes::BUILTIN_ARITY,
                    span,
                    format!(
                        "built-in predicate {name} expects {arity} arguments, found {}",
                        args.len()
                    ),
                ));
                infeasible_skip[t] = true;
            }
            continue;
        }
        let decls: Vec<&ExternalDecl> = externals.iter().filter(|d| d.pred == *name).collect();
        if decls.is_empty() {
            out.push(
                Diagnostic::error(
                    codes::UNDECLARED_EXTERNAL,
                    span,
                    format!("external predicate {name} has no declaration"),
                )
                .with_help(format!(
                    "add a declaration line like '{name}(bound, free) by some_function'"
                )),
            );
            infeasible_skip[t] = true;
            continue;
        }
        let mut any_match = false;
        for d in &decls {
            if d.adornment.len() != args.len() {
                out.push(Diagnostic::error(
                    codes::EXTERNAL_ARITY,
                    span,
                    format!(
                        "external predicate {name} used with {} arguments but declared \
                         with {} ('{}' implementation)",
                        args.len(),
                        d.adornment.len(),
                        d.func
                    ),
                ));
            } else {
                any_match = true;
            }
        }
        if !any_match {
            infeasible_skip[t] = true;
        }
    }

    // E007-E010: positional restrictions on head and tail patterns.
    if let Head::Pattern(p) = &rule.head {
        head_pattern_diags(p, head_span, out);
    }
    for (t, item) in rule.tail.iter().enumerate() {
        if let TailItem::Match { pattern, .. } = item {
            tail_pattern_diags(pattern, spans.tail_item(idx, t), out);
        }
    }

    adornment_feasibility(rule, idx, spans, externals, &infeasible_skip, out);
    unsatisfiable_conditions(rule, idx, spans, out);
    unused_tail_variables(rule, idx, spans, out);
}

// ---------------------------------------------------------------------------
// E014: adornment feasibility (§3.4)
// ---------------------------------------------------------------------------

/// Built-in adornments: `eq` can bind one free argument from the other;
/// the ordering comparisons need both arguments bound.
fn builtin_adornments(name: Symbol) -> Vec<Vec<Adornment>> {
    use Adornment::{Bound, Free};
    if name == Symbol::intern("eq") {
        vec![vec![Bound, Bound], vec![Bound, Free], vec![Free, Bound]]
    } else {
        vec![vec![Bound, Bound]]
    }
}

fn term_is_bound(t: &Term, bound: &HashSet<Symbol>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        // Constants are trivially bound; parameters are filled in by the
        // datamerge engine before any external is called (§3.4, `Qcs`).
        Term::Const(_) | Term::Param(_) => true,
        Term::Func(_, args) => args.iter().all(|a| term_is_bound(a, bound)),
    }
}

/// Prove that some sideways-information-passing order evaluates every
/// external/built-in predicate under at least one declared adornment:
/// start from the variables bound by the tail's match patterns, then
/// repeatedly evaluate any predicate whose `bound` positions are satisfied
/// (its remaining variables become bound), to a fixpoint. Anything left
/// over can never be called (§3.4).
fn adornment_feasibility(
    rule: &Rule,
    idx: usize,
    spans: &SpecSpans,
    externals: &[ExternalDecl],
    skip: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    let mut bound: HashSet<Symbol> = HashSet::new();
    for item in &rule.tail {
        if let TailItem::Match { pattern, .. } = item {
            let mut vars = Vec::new();
            pattern.collect_vars(&mut vars);
            bound.extend(vars);
        }
    }

    let mut pending: Vec<(usize, Symbol, &Vec<Term>)> = rule
        .tail
        .iter()
        .enumerate()
        .filter(|(t, _)| !skip[*t])
        .filter_map(|(t, item)| match item {
            TailItem::External { name, args } => Some((t, *name, args)),
            TailItem::Match { .. } => None,
        })
        .collect();

    loop {
        let before = pending.len();
        pending.retain(|(_, name, args)| {
            let adornments = if is_builtin(*name) {
                builtin_adornments(*name)
            } else {
                externals
                    .iter()
                    .filter(|d| d.pred == *name && d.adornment.len() == args.len())
                    .map(|d| d.adornment.clone())
                    .collect()
            };
            let callable = adornments.iter().any(|ad| {
                ad.iter()
                    .zip(args.iter())
                    .all(|(a, arg)| *a == Adornment::Free || term_is_bound(arg, &bound))
            });
            if callable {
                let mut vars = Vec::new();
                for a in args.iter() {
                    a.collect_vars(&mut vars);
                }
                bound.extend(vars);
            }
            !callable
        });
        if pending.len() == before {
            break;
        }
    }

    for (t, name, args) in pending {
        let unbound: Vec<String> = {
            let mut vars = Vec::new();
            for a in args {
                a.collect_vars(&mut vars);
            }
            let mut seen = HashSet::new();
            vars.into_iter()
                .filter(|v| !bound.contains(v) && seen.insert(*v))
                .map(|v| v.as_str())
                .collect()
        };
        let what = if is_builtin(name) {
            "built-in predicate"
        } else {
            "external predicate"
        };
        let mut d = Diagnostic::error(
            codes::ADORNMENT_INFEASIBLE,
            spans.tail_item(idx, t),
            format!(
                "{what} {name} can never be evaluated: no evaluation order of the \
                 tail satisfies any of its adornments"
            ),
        );
        if !unbound.is_empty() {
            d = d.with_help(format!(
                "no pattern or evaluable predicate binds {}; declare an adornment \
                 with those positions free, or bind them in a tail pattern",
                unbound.join(", ")
            ));
        }
        out.push(d);
    }
}

// ---------------------------------------------------------------------------
// W101: unsatisfiable condition conjunctions
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn parse(name: Symbol) -> Option<CmpOp> {
        Some(match name.as_str().as_str() {
            "eq" => CmpOp::Eq,
            "neq" => CmpOp::Neq,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }

    fn name(&self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Neq => "neq",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Mirror the operator for swapped arguments: `gt(3, V)` is `lt(V, 3)`.
    fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Does `ord` (of `lhs` vs `rhs`) satisfy the comparison?
    fn holds(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Neq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// One `op(V, c)` constraint, normalized so the variable is on the left.
struct VarConstraint {
    op: CmpOp,
    constant: Value,
    tail_idx: usize,
}

/// Can `op1(V, c1) AND op2(V, c2)` hold for any `V`? Conservative: when a
/// pair cannot be decided (incomparable constants under an inequality,
/// dense-vs-integer gaps), assume satisfiable.
fn pair_satisfiable(a: &VarConstraint, b: &VarConstraint) -> bool {
    use CmpOp::*;
    let ord = a.constant.compare_atomic(&b.constant);
    match (a.op, b.op) {
        // An equality pin decides everything: substitute and evaluate.
        (Eq, other) => match ord {
            Some(o) => other.holds(o),
            // `V = c1` with `other(V, c2)` incomparable: the comparison
            // fails at runtime, so the conjunction is empty — except for
            // `neq`, whose cross-type semantics we leave alone.
            None => other == Neq,
        },
        (other, Eq) => match ord.map(Ordering::reverse) {
            Some(o) => other.holds(o),
            None => other == Neq,
        },
        // Opposite-direction bounds: need room between the constants.
        (Lt | Le, Gt | Ge) | (Gt | Ge, Lt | Le) => {
            let (upper, lower, strict) = if matches!(a.op, Lt | Le) {
                (a, b, matches!(a.op, Lt) || matches!(b.op, Gt))
            } else {
                (b, a, matches!(b.op, Lt) || matches!(a.op, Gt))
            };
            match lower.constant.compare_atomic(&upper.constant) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => !strict,
                Some(Ordering::Greater) => false,
                None => true,
            }
        }
        // Same-direction bounds or anything involving neq: satisfiable.
        _ => true,
    }
}

fn unsatisfiable_conditions(rule: &Rule, idx: usize, spans: &SpecSpans, out: &mut Vec<Diagnostic>) {
    let mut per_var: Vec<(Symbol, Vec<VarConstraint>)> = Vec::new();
    for (t, item) in rule.tail.iter().enumerate() {
        let TailItem::External { name, args } = item else {
            continue;
        };
        let Some(op) = CmpOp::parse(*name) else {
            continue;
        };
        if args.len() != 2 {
            continue;
        }
        match (&args[0], &args[1]) {
            // Ground condition: evaluate it outright.
            (Term::Const(a), Term::Const(b)) => {
                if let Some(ord) = a.compare_atomic(b) {
                    if !op.holds(ord) {
                        out.push(
                            Diagnostic::warning(
                                codes::UNSATISFIABLE_CONDITIONS,
                                spans.tail_item(idx, t),
                                format!(
                                    "condition {}({}, {}) is always false; the rule can \
                                     never produce results",
                                    op.name(),
                                    a.render_atomic(),
                                    b.render_atomic()
                                ),
                            )
                            .with_help("remove the condition or fix its constants"),
                        );
                    }
                }
            }
            (Term::Var(v), Term::Const(c)) => {
                push_constraint(&mut per_var, *v, op, c.clone(), t);
            }
            (Term::Const(c), Term::Var(v)) => {
                push_constraint(&mut per_var, *v, op.flip(), c.clone(), t);
            }
            _ => {}
        }
    }

    for (v, constraints) in per_var {
        'outer: for (i, a) in constraints.iter().enumerate() {
            for b in &constraints[i + 1..] {
                if !pair_satisfiable(a, b) {
                    out.push(
                        Diagnostic::warning(
                            codes::UNSATISFIABLE_CONDITIONS,
                            spans.tail_item(idx, b.tail_idx),
                            format!(
                                "conditions on {v} are unsatisfiable: {}({v}, {}) \
                                 contradicts {}({v}, {}); the rule can never produce results",
                                b.op.name(),
                                b.constant.render_atomic(),
                                a.op.name(),
                                a.constant.render_atomic()
                            ),
                        )
                        .with_help("the conjunction of these comparisons is empty"),
                    );
                    break 'outer;
                }
            }
        }
    }
}

fn push_constraint(
    per_var: &mut Vec<(Symbol, Vec<VarConstraint>)>,
    v: Symbol,
    op: CmpOp,
    constant: Value,
    tail_idx: usize,
) {
    let entry = match per_var.iter_mut().find(|(s, _)| *s == v) {
        Some((_, list)) => list,
        None => {
            per_var.push((v, Vec::new()));
            &mut per_var.last_mut().unwrap().1
        }
    };
    entry.push(VarConstraint {
        op,
        constant,
        tail_idx,
    });
}

// ---------------------------------------------------------------------------
// W102: unused tail variables
// ---------------------------------------------------------------------------

fn unused_tail_variables(rule: &Rule, idx: usize, spans: &SpecSpans, out: &mut Vec<Diagnostic>) {
    let mut head_vars = Vec::new();
    rule.head.collect_vars(&mut head_vars);
    let mut counts: Vec<(Symbol, usize, usize)> = Vec::new(); // (var, count, first tail idx)
    for v in &head_vars {
        bump_count(&mut counts, *v, usize::MAX);
    }
    for (t, item) in rule.tail.iter().enumerate() {
        let mut vars = Vec::new();
        item.collect_vars(&mut vars);
        for v in vars {
            bump_count(&mut counts, v, t);
        }
    }
    for (v, count, first_tail) in counts {
        if count == 1 && first_tail != usize::MAX {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_TAIL_VAR,
                    spans.tail_item(idx, first_tail),
                    format!("tail variable {v} is bound but never used"),
                )
                .with_help(
                    "if the subobject's presence is the point, keep it; \
                     otherwise this is probably a typo",
                ),
            );
        }
    }
}

fn bump_count(counts: &mut Vec<(Symbol, usize, usize)>, v: Symbol, tail_idx: usize) {
    match counts.iter_mut().find(|(s, _, _)| *s == v) {
        Some((_, c, first)) => {
            *c += 1;
            if *first == usize::MAX {
                *first = tail_idx;
            }
        }
        None => counts.push((v, 1, tail_idx)),
    }
}

// ---------------------------------------------------------------------------
// Structural walkers (ported from the legacy validator, collect-all)
// ---------------------------------------------------------------------------

fn pattern_defines_obj_var(p: &Pattern, v: Symbol) -> bool {
    if p.obj_var == Some(v) {
        return true;
    }
    if let PatValue::Set(sp) = &p.value {
        for e in &sp.elements {
            match e {
                SetElem::Pattern(inner) | SetElem::Wildcard(inner) => {
                    if pattern_defines_obj_var(inner, v) {
                        return true;
                    }
                }
                SetElem::Var(_) => {}
            }
        }
        if let Some(rest) = &sp.rest {
            for c in &rest.conditions {
                if pattern_defines_obj_var(c, v) {
                    return true;
                }
            }
        }
    }
    false
}

fn head_pattern_diags(p: &Pattern, span: Span, out: &mut Vec<Diagnostic>) {
    head_term_diags(&p.label, "label", span, out);
    if let Some(t) = &p.typ {
        head_term_diags(t, "type", span, out);
    }
    if let Some(Term::Param(name)) = &p.oid {
        out.push(Diagnostic::error(
            codes::PARAM_IN_HEAD,
            span,
            format!("parameter ${name} cannot appear in a rule head"),
        ));
    }
    // Function terms (semantic oids) are allowed in any head oid position,
    // root or nested — nested ones fuse subobjects (§2). The legacy
    // validator carried a dead `Func && !is_root` branch here; there is
    // genuinely nothing to check.
    match &p.value {
        PatValue::Term(t) => head_term_diags(t, "value", span, out),
        PatValue::Set(sp) => {
            for e in &sp.elements {
                match e {
                    SetElem::Pattern(inner) => head_pattern_diags(inner, span, out),
                    SetElem::Wildcard(_) => out.push(Diagnostic::error(
                        codes::WILDCARD_IN_HEAD,
                        span,
                        "wildcard subpatterns cannot appear in a rule head",
                    )),
                    SetElem::Var(_) => {}
                }
            }
            if let Some(rest) = &sp.rest {
                out.push(Diagnostic::error(
                    codes::REST_IN_HEAD,
                    span,
                    format!(
                        "rest variable {} ('| {}') cannot appear in a rule head; \
                         write the variable inside the braces to splice its contents",
                        rest.var, rest.var
                    ),
                ));
            }
        }
    }
}

fn head_term_diags(t: &Term, what: &str, span: Span, out: &mut Vec<Diagnostic>) {
    match t {
        Term::Param(name) => out.push(Diagnostic::error(
            codes::PARAM_IN_HEAD,
            span,
            format!("parameter ${name} cannot appear in a rule head {what}"),
        )),
        Term::Func(name, _) => out.push(Diagnostic::error(
            codes::FUNC_MISPLACED,
            span,
            format!("function term {name}(...) can only appear in oid position"),
        )),
        _ => {}
    }
}

fn tail_pattern_diags(p: &Pattern, span: Span, out: &mut Vec<Diagnostic>) {
    if let Some(Term::Func(name, _)) = &p.oid {
        out.push(Diagnostic::error(
            codes::FUNC_MISPLACED,
            span,
            format!("function term {name}(...) cannot appear in a tail pattern oid"),
        ));
    }
    tail_term_diags(&p.label, "label", span, out);
    if let Some(t) = &p.typ {
        tail_term_diags(t, "type", span, out);
    }
    match &p.value {
        PatValue::Term(t) => tail_term_diags(t, "value", span, out),
        PatValue::Set(sp) => {
            for e in &sp.elements {
                match e {
                    SetElem::Pattern(inner) | SetElem::Wildcard(inner) => {
                        tail_pattern_diags(inner, span, out)
                    }
                    SetElem::Var(_) => {}
                }
            }
            if let Some(rest) = &sp.rest {
                for c in &rest.conditions {
                    tail_pattern_diags(c, span, out);
                }
            }
        }
    }
}

fn tail_term_diags(t: &Term, what: &str, span: Span, out: &mut Vec<Diagnostic>) {
    if let Term::Func(name, _) = t {
        out.push(Diagnostic::error(
            codes::FUNC_MISPLACED,
            span,
            format!("function term {name}(...) cannot appear in a tail pattern {what}"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::parser::parse_spec_spanned;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let (spec, spans) = parse_spec_spanned(src).unwrap();
        lint_spec(&spec, &spans)
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn ms1_is_clean() {
        let diags = lint(
            "<cs_person {<name N> <rel R> Rest1 Rest2}> :- \
             <person {<name N> <dept 'CS'> <relation R> | Rest1}>@whois \
             AND <R {<first_name FN> <last_name LN> | Rest2}>@cs \
             AND decomp(N, LN, FN)\n\
             decomp(bound, free, free) by name_to_lnfn\n\
             decomp(free, bound, bound) by lnfn_to_name",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn collects_multiple_defects_in_one_run() {
        // Range restriction (Y), undeclared external (frob) and a wildcard
        // head, all at once.
        let diags = lint("<o {* <x X> <y Y>}> :- <p {<x X>}>@s AND frob(X)");
        let codes = codes_of(&diags);
        assert!(codes.contains(&codes::RANGE_RESTRICTION), "{diags:?}");
        assert!(codes.contains(&codes::UNDECLARED_EXTERNAL), "{diags:?}");
        assert!(codes.contains(&codes::WILDCARD_IN_HEAD), "{diags:?}");
    }

    #[test]
    fn empty_adornment_diagnosed_on_programmatic_specs() {
        // The grammar cannot produce an empty adornment, but specs built
        // in code can.
        let spec = Spec {
            rules: vec![crate::parse_rule("<o {<n N>}> :- <p {<n N>}>@s").unwrap()],
            externals: vec![ExternalDecl {
                pred: oem::sym("d"),
                adornment: vec![],
                func: oem::sym("f"),
            }],
        };
        let diags = lint_spec(&spec, &SpecSpans::default());
        assert!(
            codes_of(&diags).contains(&codes::EMPTY_ADORNMENT),
            "{diags:?}"
        );
    }

    #[test]
    fn conflicting_arities_reported_once_per_predicate() {
        let diags = lint(
            "<o {<n N>}> :- <p {<n N>}>@s\n\
             d(bound, free) by f1\n\
             d(bound) by f2\n\
             d(free) by f3",
        );
        let conflicts: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::CONFLICTING_ARITIES)
            .collect();
        assert_eq!(conflicts.len(), 1, "{diags:?}");
    }

    #[test]
    fn builtin_shadowing_diagnosed() {
        let diags = lint(
            "<o {<n N>}> :- <p {<n N>}>@s\n\
             eq(bound, free) by my_eq",
        );
        assert!(
            codes_of(&diags).contains(&codes::BUILTIN_SHADOWED),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.code != codes::CONFLICTING_ARITIES));
    }

    #[test]
    fn adornment_infeasibility_detected() {
        // decomp requires its first argument bound, but nothing binds L.
        let diags = lint(
            "<o {<f F>}> :- <p {<n N>}>@s AND decomp(L, F)\n\
             decomp(bound, free) by f",
        );
        let e014: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::ADORNMENT_INFEASIBLE)
            .collect();
        assert_eq!(e014.len(), 1, "{diags:?}");
        assert_eq!(e014[0].severity, Severity::Error);
        assert!(
            e014[0].help.as_deref().unwrap_or("").contains('L'),
            "{diags:?}"
        );
    }

    #[test]
    fn adornment_feasible_through_chaining() {
        // N (pattern) -> decomp binds LN, FN -> comp consumes FN.
        let diags = lint(
            "<o {<l LN>}> :- <p {<n N>}>@s AND decomp(N, LN, FN) AND comp(FN)\n\
             decomp(bound, free, free) by f\n\
             comp(bound) by g",
        );
        assert!(
            diags.iter().all(|d| d.code != codes::ADORNMENT_INFEASIBLE),
            "{diags:?}"
        );
    }

    #[test]
    fn eq_binds_a_free_argument() {
        let diags = lint("<o {<v V>}> :- <p {<n N>}>@s AND eq(V, 3) AND comp(V)\ncomp(bound) by g");
        assert!(
            diags.iter().all(|d| d.code != codes::ADORNMENT_INFEASIBLE),
            "{diags:?}"
        );
    }

    #[test]
    fn ordering_builtin_with_unbound_var_is_infeasible() {
        let diags = lint("<o {<x X>}> :- <p {<x X>}>@s AND lt(Y, 3)");
        assert!(
            codes_of(&diags).contains(&codes::ADORNMENT_INFEASIBLE),
            "{diags:?}"
        );
    }

    #[test]
    fn unsatisfiable_eq_gt_conjunction() {
        let diags = lint("<o {<v V>}> :- <p {<v V>}>@s AND eq(V, 3) AND gt(V, 5)");
        let w101: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNSATISFIABLE_CONDITIONS)
            .collect();
        assert_eq!(w101.len(), 1, "{diags:?}");
        assert_eq!(w101[0].severity, Severity::Warning);
    }

    #[test]
    fn unsatisfiable_interval() {
        let diags = lint("<o {<v V>}> :- <p {<v V>}>@s AND gt(V, 5) AND lt(V, 5)");
        assert!(
            codes_of(&diags).contains(&codes::UNSATISFIABLE_CONDITIONS),
            "{diags:?}"
        );
    }

    #[test]
    fn satisfiable_interval_not_flagged() {
        let diags = lint("<o {<v V>}> :- <p {<v V>}>@s AND ge(V, 3) AND le(V, 7)");
        assert!(
            diags
                .iter()
                .all(|d| d.code != codes::UNSATISFIABLE_CONDITIONS),
            "{diags:?}"
        );
    }

    #[test]
    fn ground_false_condition_flagged() {
        let diags = lint("<o {<v V>}> :- <p {<v V>}>@s AND gt(3, 5)");
        assert!(
            codes_of(&diags).contains(&codes::UNSATISFIABLE_CONDITIONS),
            "{diags:?}"
        );
    }

    #[test]
    fn flipped_constant_variable_order_normalized() {
        // gt(7, V) is lt(V, 7): together with gt(V, 9) it is empty.
        let diags = lint("<o {<v V>}> :- <p {<v V>}>@s AND gt(7, V) AND gt(V, 9)");
        assert!(
            codes_of(&diags).contains(&codes::UNSATISFIABLE_CONDITIONS),
            "{diags:?}"
        );
    }

    #[test]
    fn unused_tail_variable_warned() {
        let diags = lint("<o {<x X>}> :- <p {<x X> <y Y>}>@s");
        let w102: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::UNUSED_TAIL_VAR)
            .collect();
        assert_eq!(w102.len(), 1, "{diags:?}");
        assert!(w102[0].message.contains('Y'), "{diags:?}");
    }

    #[test]
    fn spans_point_at_the_offending_tail_item() {
        let src = "<o {<x X>}> :- <p {<x X>}>@s AND frob(X)";
        let diags = lint(src);
        let d = diags
            .iter()
            .find(|d| d.code == codes::UNDECLARED_EXTERNAL)
            .unwrap();
        assert_eq!(&src[d.span.start..d.span.end], "frob(X)");
    }

    #[test]
    fn errors_sort_before_warnings() {
        let diags = lint("<o {<x X>}> :- <p {<x X> <y Y>}>@s AND frob(X)");
        assert!(!diags.is_empty());
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags.last().unwrap().code, codes::UNUSED_TAIL_VAR);
    }
}
