//! Per-layer metrics of a traced run, computed from its spans and from
//! the counters read at the same layer boundaries.

use crate::common::{median, ratio, Answer};
use crate::trace::{by_query, CallCounts, Span};
use medmaker::CacheCounters;
use std::collections::BTreeMap;

/// Counts gathered per traced query and per delta.
#[derive(Default)]
pub struct LayerAcc {
    /// Traced queries.
    pub queries: u64,
    /// Datamerge chains after expansion.
    pub chains: u64,
    /// Physical plan nodes.
    pub nodes: u64,
    /// Bindings produced by all plan nodes.
    pub bindings: u64,
    /// Top-level answer objects.
    pub results: u64,
    /// Sum over queries of the executor's peak batch rows.
    pub peak_batch_rows: u64,
    /// Printed answer bytes.
    pub answer_bytes: u64,
    /// Deltas applied.
    pub deltas: u64,
    /// Cache entries the deltas invalidated.
    pub invalidated: u64,
    /// Growth of the warm-tier directory, summed over traced operations.
    pub disk_written: u64,
}

impl LayerAcc {
    /// Fold one traced answer.
    pub fn add(&mut self, a: &Answer) {
        self.queries += 1;
        self.chains += a.chains as u64;
        self.nodes += a.nodes as u64;
        self.bindings += a
            .trace
            .nodes()
            .map(|n| n.metrics.bindings_produced as u64)
            .sum::<u64>();
        self.results += a.trace.result_count as u64;
        self.peak_batch_rows += a.trace.peak_batch_rows as u64;
        self.answer_bytes += a.text.len() as u64;
    }
}

/// What the server layer did during the traced phase (hot_serve only).
pub struct ServerCounts {
    /// Requests sent over the wire.
    pub requests: u64,
    /// Requests that shared another request's execution.
    pub coalesced: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

/// Inputs of [`per_layer`].
pub struct LayerInputs<'a> {
    /// Every span of the traced phase.
    pub spans: &'a [Span],
    /// Per-query and per-delta counts of the traced phase.
    pub acc: &'a LayerAcc,
    /// Source traffic during the traced phase.
    pub calls: &'a BTreeMap<String, CallCounts>,
    /// Source traffic over the whole run, warm-up included.
    pub calls_run: &'a BTreeMap<String, CallCounts>,
    /// Cache counters at the start and end of the traced phase.
    pub cache: (CacheCounters, CacheCounters),
    /// Warm-tier directory size at the end, in bytes.
    pub disk_bytes: u64,
    /// Server counters, for the server workload.
    pub server: Option<ServerCounts>,
    /// Throughput of the untraced and the traced phase, queries/s.
    pub qps: (f64, f64),
}

type Metric = (String, f64, String);

fn m(name: &str, value: f64, unit: &str) -> Metric {
    (name.to_string(), value, unit.to_string())
}

/// The per-layer metrics every workload reports, and the extra ones
/// defined only where the workload exercises the layer.
pub fn per_layer(i: &LayerInputs) -> (Vec<Metric>, Vec<Metric>) {
    let q = i.acc.queries as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    // Totals per span name over query roots, plus per-query exec self time.
    let mut dur: BTreeMap<String, u64> = BTreeMap::new();
    let mut exec_self_ns: i64 = 0;
    let (mut hit_queries, mut hit_self_ns) = (0u64, 0i64);
    // Per wire protocol: client latencies and service times, µs.
    let mut proto: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for spans in by_query(i.spans).values() {
        let d = |name: &str| spans.get(name).map_or(0, |v| v.0);
        for (name, (total, _)) in spans {
            *dur.entry(name.clone()).or_default() += total;
        }
        for p in ["http", "line"] {
            if let Some(&(client, _)) = spans.get(&format!("client.{p}")) {
                let e = proto.entry(p).or_default();
                e.0.push(us(client));
                e.1.push(us(d("server.service")));
            }
        }
        let Some(&(_, exec_self)) = spans.get("exec.query_rule") else {
            continue;
        };
        let front = d("msl.validate") + d("veao.expand") + d("planner.plan");
        let self_ns = exec_self as i64 - front as i64;
        exec_self_ns += self_ns;
        if !spans.keys().any(|k| k.starts_with("wrapper.")) {
            hit_queries += 1;
            hit_self_ns += self_ns;
        }
    }
    let per_q = |name: &str| ratio(us(dur.get(name).copied().unwrap_or(0)), q);
    let (c0, c1) = i.cache;
    let hits = (c1.hits - c0.hits) as f64;
    let contained = (c1.containment_hits - c0.containment_hits) as f64;
    let misses = (c1.misses - c0.misses) as f64;
    let total_calls: u64 = i.calls.values().map(|c| c.calls).sum();
    let total_objects: u64 = i.calls.values().map(|c| c.objects).sum();
    let mut out = vec![
        m("msl.parse_us", per_q("msl.parse"), "us"),
        m("msl.validate_us", per_q("msl.validate"), "us"),
        m("veao.expand_us", per_q("veao.expand"), "us"),
        m("veao.chains", ratio(i.acc.chains as f64, q), "count"),
        m("planner.plan_us", per_q("planner.plan"), "us"),
        m("planner.nodes", ratio(i.acc.nodes as f64, q), "count"),
        m("exec.self_us", ratio(exec_self_ns as f64 / 1e3, q), "us"),
        m(
            "exec.bindings_per_result",
            ratio(i.acc.bindings as f64, i.acc.results as f64),
            "count",
        ),
        m(
            "exec.peak_batch_rows",
            ratio(i.acc.peak_batch_rows as f64, q),
            "count",
        ),
        m(
            "wrappers.calls_per_query",
            ratio(total_calls as f64, q),
            "count",
        ),
    ];
    for (src, c) in i.calls {
        out.push(m(
            &format!("wrappers.calls.{src}"),
            ratio(c.calls as f64, q),
            "count",
        ));
    }
    for (src, c) in i.calls_run {
        out.push(m(
            &format!("wrappers.us_per_call.{src}"),
            ratio(us(c.busy_ns), c.calls as f64),
            "us",
        ));
    }
    out.extend([
        m(
            "wrappers.objects_per_call",
            ratio(total_objects as f64, total_calls as f64),
            "count",
        ),
        m(
            "wrappers.errors",
            i.calls.values().map(|c| c.errors).sum::<u64>() as f64,
            "count",
        ),
        m(
            "cache.hit_ratio",
            ratio(hits + contained, hits + contained + misses),
            "ratio",
        ),
        m(
            "cache.containment_share",
            ratio(contained, hits + contained),
            "ratio",
        ),
        m(
            "cache.evictions_per_query",
            ratio((c1.evictions - c0.evictions) as f64, q),
            "count",
        ),
        m(
            "cache.demotions_per_query",
            ratio((c1.demotions - c0.demotions) as f64, q),
            "count",
        ),
        m(
            "cache.warm_hits_per_query",
            ratio((c1.warm_hits - c0.warm_hits) as f64, q),
            "count",
        ),
        m(
            "cache.promotions_per_query",
            ratio((c1.promotions - c0.promotions) as f64, q),
            "count",
        ),
        m(
            "cache.entries_invalidated_per_delta",
            ratio(i.acc.invalidated as f64, i.acc.deltas as f64),
            "count",
        ),
        m(
            "cache.disk_bytes_written_per_query",
            ratio(i.acc.disk_written as f64, q),
            "bytes",
        ),
        m(
            "cache.disk_bytes_per_live_byte",
            ratio(i.disk_bytes as f64, c1.warm_bytes as f64),
            "ratio",
        ),
        m("oem.print_us", per_q("oem.print"), "us"),
        m(
            "oem.answer_bytes",
            ratio(i.acc.answer_bytes as f64, q),
            "bytes",
        ),
    ]);
    let (requests, coalesced, shed) = i.server.as_ref().map_or((0.0, 0.0, 0.0), |s| {
        (s.requests as f64, s.coalesced as f64, s.shed as f64)
    });
    out.extend([
        m(
            "server.coalesced_ratio",
            ratio(coalesced, requests),
            "ratio",
        ),
        m("server.shed_ratio", ratio(shed, requests), "ratio"),
        m("trace.qps_ratio", ratio(i.qps.1, i.qps.0), "ratio"),
    ]);

    // Defined only where the workload exercises the layer.
    let mut extra = Vec::new();
    for (src, c) in i.calls {
        if c.calls > 0 {
            extra.push(m(
                &format!("wrappers.busy_us.{src}"),
                ratio(us(c.busy_ns), q),
                "us",
            ));
        }
    }
    if hit_queries > 0 {
        extra.push(m(
            "cache.hit_query_us",
            hit_self_ns as f64 / 1e3 / hit_queries as f64,
            "us",
        ));
    }
    if i.acc.deltas > 0 {
        extra.push(m(
            "cache.apply_delta_us",
            ratio(
                us(dur.get("cache.apply_delta").copied().unwrap_or(0)),
                i.acc.deltas as f64,
            ),
            "us",
        ));
    }
    // Medians: the hit path is bimodal (the planner flips between plans
    // from one execution to the next), so a difference of means would
    // subtract unrelated modes.
    if !proto.is_empty() {
        let mut service: Vec<f64> = proto.values().flat_map(|p| p.1.clone()).collect();
        extra.push(m("server.service_us", median(&mut service), "us"));
    }
    for (p, (client, service)) in &mut proto {
        extra.push(m(
            &format!("server.wire_us.{p}"),
            median(client) - median(service),
            "us",
        ));
    }
    (out, extra)
}
