//! `hot_serve`: the resident server (`Server::start` with the answer cache
//! on, as `medmaker serve --cache` runs it) on loopback. One closed-loop
//! client speaks the line protocol over a persistent connection. Queries
//! are Zipf-skewed point lookups over a hot set of 16 names that, after an
//! untimed warm-up, sits in the hot cache tier. Sources are bypassed, so
//! the wire, admission, the front half (parse, validate, expand, plan),
//! the cache-hit path and answer printing make up the whole latency.
//!
//! HTTP (a connection per request) is timed in the traced run only: run
//! concurrently with the line client it made every figure of this
//! workload unsteady (see `medbench/README.md`).

use crate::common::{
    counts_since, median_setup, name_query, open, people, references, Answer, InProcess, Outcome,
    Rng, Sources, Tally, Zipf,
};
use crate::inproc::Phase;
use crate::layers::{per_layer, LayerAcc, LayerInputs, ServerCounts};
use crate::trace;
use crate::{finish_end_to_end, Args};
use medmaker::{CacheOptions, MediatorOptions, QueryLimits};
use medmaker_server::{QueryService, Server, ServerHandle, ServerOptions};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whois persons.
const N: usize = 500;
/// Names in the hot set.
const HOT: usize = 16;
/// Zipf exponent over the hot set.
const ZIPF_S: f64 = 1.0;
/// Tail percentile: the highest of {90, 99} with at least ten samples
/// beyond it at this workload's throughput.
const TAIL_PCT: f64 = 90.0;
/// HTTP requests the traced run sends after its traced phase.
const HTTP_PROBES: usize = 64;
/// Read timeout of the clients.
const TIMEOUT: Duration = Duration::from_secs(30);

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// A line-protocol client on one persistent connection.
struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> Result<LineClient, String> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(LineClient { reader, writer })
    }

    /// Send one query and return the answer block; `ERR`, `BUSY` or a
    /// broken reply is an error.
    fn query(&mut self, q: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{q}\n").as_bytes())
            .map_err(|e| format!("line send: {e}"))?;
        let mut head = String::new();
        self.reader
            .read_line(&mut head)
            .map_err(|e| format!("line reply: {e}"))?;
        if !head.starts_with("OK ") {
            return Err(format!("line reply: {}", head.trim_end()));
        }
        let mut answer = String::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("line reply: {e}"))?;
            if n == 0 {
                return Err("line reply: connection closed before '.'".to_string());
            }
            if line == ".\n" {
                return Ok(answer);
            }
            answer.push_str(&line);
        }
    }
}

/// One `POST /query` on a fresh connection; a non-200 status or a reply
/// without an answer is an error.
fn http_query(addr: SocketAddr, q: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    let query = serde_json::to_string(q).map_err(|e| format!("encoding the query: {e}"))?;
    let body = format!("{{\"query\":{query}}}");
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("http send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("http reply: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "http reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("http reply without a header end")?;
    let status = head.split_whitespace().nth(1).unwrap_or("?");
    if status != "200" {
        return Err(format!("http status {status}"));
    }
    let value: serde::Value =
        serde_json::from_str(body).map_err(|e| format!("http body is not JSON: {e}"))?;
    value
        .get("answer")
        .and_then(|a| a.as_str())
        .map(str::to_string)
        .ok_or_else(|| "http body has no answer".to_string())
}

/// The line protocol prints the answer followed by a newline when it
/// lacks one; HTTP carries it as is.
fn line_form(answer: &str) -> String {
    if answer.is_empty() || answer.ends_with('\n') {
        answer.to_string()
    } else {
        format!("{answer}\n")
    }
}

/// A running server and the mediator it serves.
type Running = (ServerHandle, Arc<medmaker::Mediator>);

/// Everything a traced query needs besides the wire: the layer-by-layer
/// in-process path, and `QueryService::run` on a service of its own over
/// the same mediator (so it neither coalesces with the wire requests nor
/// moves the server's counters).
struct Probe<'a> {
    path: InProcess<'a>,
    service: QueryService,
}

impl Probe<'_> {
    /// One traced query: the wire round-trip `send` as span
    /// `client.<proto>`, then one in-process execution of the same query:
    /// the layer-by-layer calls when `layers`, else the service call.
    /// Records the client latency in `phase`.
    ///
    /// Exactly one extra execution per query keeps every kind of
    /// execution on an even share of the planner's plan flips, which
    /// follow the count of executions.
    fn query(
        &self,
        proto: &str,
        q: &str,
        layers: bool,
        phase: &mut Phase,
        origin: Instant,
        send: impl FnOnce() -> Result<String, String>,
    ) -> (Result<String, String>, Option<Answer>) {
        trace::traced_query("query", || {
            let sent = Instant::now();
            let got = trace::span(&format!("client.{proto}"), send);
            phase.record(origin, sent);
            if layers {
                return (got, self.path.front_and_exec(q).ok());
            }
            trace::span("server.service", || {
                self.service.run(q, &QueryLimits::default())
            });
            (got, None)
        })
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let sources = Sources::generate(N, args.seed);
    let mut rng = Rng::new(args.seed, 2);
    // One person from each of 16 equal slices of the id range, so every
    // seed gets the same mix of match kinds (and of answer sizes), in a
    // random order of popularity.
    let picked = rng.stratified(HOT, people(N));
    let hot: Vec<String> = rng
        .distinct(HOT, HOT)
        .into_iter()
        .map(|k| name_query(picked[k]))
        .collect();
    let queries: BTreeSet<String> = hot.iter().cloned().collect();
    let refs = references(&sources, &queries)?;
    let line_refs: HashMap<String, String> = refs
        .iter()
        .map(|(q, a)| (q.clone(), line_form(a)))
        .collect();

    let options = MediatorOptions {
        cache: CacheOptions::enabled(),
        ..MediatorOptions::default()
    };
    let mut running: Option<Running> = None;
    let (setup_s, reps) = median_setup(15, Duration::from_millis(300), || {
        if let Some((handle, _)) = running.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        let med = Arc::new(open(sources.timed(), options.clone())?);
        let handle = Server::start(Arc::clone(&med), ServerOptions::default())?;
        let took = t.elapsed();
        running = Some((handle, med));
        Ok(took)
    })?;
    let (handle, med) = running.ok_or("no server started")?;
    let addr = handle.addr();

    let mut line = LineClient::connect(addr)?;
    let mut warm = Tally::default();
    for q in &hot {
        for _ in 0..2 {
            warm.check(q, &line.query(q), &line_refs);
        }
        warm.check(q, &http_query(addr, q), &refs);
    }
    if warm.failed > 0 {
        return Err(format!("{} warm-up queries failed", warm.failed));
    }

    let zipf = Zipf::new(HOT, ZIPF_S);
    let mut client_rng = Rng::new(args.seed, 10);
    let mut next = || hot[zipf.sample(&mut client_rng)].clone();
    let mut out = Outcome::default();
    let server = handle.service().metrics();
    let calls_start = sources.counts();
    let cache_start = med.cache_counters();
    let half = args.measure_split();
    let origin = Instant::now();
    let mut untraced = Phase::default();
    while Instant::now() < origin + half {
        let q = next();
        let sent = Instant::now();
        let got = line.query(&q);
        untraced.record(origin, sent);
        out.tally.check(&q, &got, &line_refs);
    }
    let calls_untraced = counts_since(&sources.counts(), &calls_start);

    if args.trace {
        let probe = Probe {
            path: InProcess::new(&med, &sources),
            service: QueryService::new(Arc::clone(&med), 4, 64, QueryLimits::default()),
        };
        let calls_traced = sources.counts();
        let cache_traced = med.cache_counters();
        let server_traced = (server.coalesced(), server.shed());
        trace::take();
        let mut acc = LayerAcc::default();
        let mut traced = Phase::default();
        let until = Instant::now() + half;
        while Instant::now() < until {
            let q = next();
            let layers = traced.latencies.0.len() % 2 == 0;
            let (got, answer) =
                probe.query("line", &q, layers, &mut traced, origin, || line.query(&q));
            if let Some(a) = &answer {
                acc.add(a);
            }
            out.tally.check(&q, &got, &line_refs);
        }
        let line_requests = traced.latencies.0.len();
        let mut http = Phase::default();
        for _ in 0..HTTP_PROBES {
            let q = next();
            let (got, _) = probe.query("http", &q, false, &mut http, origin, || {
                http_query(addr, &q)
            });
            out.tally.check(&q, &got, &refs);
        }
        let spans = trace::take();
        let (layers, extra) = per_layer(&LayerInputs {
            spans: &spans,
            acc: &acc,
            calls: &counts_since(&sources.counts(), &calls_traced),
            calls_run: &sources.counts(),
            cache: (cache_traced, med.cache_counters()),
            disk_bytes: 0,
            server: Some(ServerCounts {
                requests: (line_requests + HTTP_PROBES) as u64,
                coalesced: server.coalesced() - server_traced.0,
                shed: server.shed() - server_traced.1,
            }),
            qps: (untraced.qps(), traced.qps()),
        });
        out.per_layer = layers;
        out.extra.extend(extra);
        for (p, phase) in [("line", &traced), ("http", &http)] {
            let s = phase.latencies.summary(TAIL_PCT);
            out.extra.extend([
                (format!("latency_p50_ms.{p}"), s.p50, "ms".to_string()),
                (format!("latency_tail_ms.{p}"), s.tail, "ms".to_string()),
            ]);
            out.notes.push(format!(
                "traced latency_tail_ms.{p} is p{TAIL_PCT} of {} samples, {} beyond it",
                s.n, s.beyond
            ));
        }
        crate::write_spans(args, &spans)?;
    }

    // Validity guards over every measured query.
    let (c0, c1) = (cache_start, med.cache_counters());
    let hits = (c1.hits - c0.hits + c1.containment_hits - c0.containment_hits) as f64;
    let lookups = hits + (c1.misses - c0.misses) as f64;
    let hit_ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
    out.guard(
        hit_ratio >= 0.95,
        format!("cache hit ratio after warm-up {hit_ratio:.4} >= 0.95"),
    );
    let evicted = (c1.evictions - c0.evictions) + (c1.demotions - c0.demotions);
    out.guard(
        evicted == 0,
        format!("no hot-tier evictions after warm-up (saw {evicted})"),
    );
    let calls: u64 = counts_since(&sources.counts(), &calls_start)
        .values()
        .map(|c| c.calls)
        .sum();
    let per_query = calls as f64 / out.tally.attempted.max(1) as f64;
    out.guard(
        per_query <= 0.01,
        format!("source calls per query after warm-up {per_query:.4} <= 0.01"),
    );
    out.notes.push(format!(
        "server: {} coalesced and {} shed requests since start",
        server.coalesced(),
        server.shed()
    ));
    // Close the client first, so shutdown finds no open connection.
    drop(line);
    handle.shutdown();
    let untraced_calls = calls_untraced.values().map(|c| c.calls).sum();
    finish_end_to_end(
        &mut out,
        args.trace,
        setup_s,
        reps,
        &untraced,
        TAIL_PCT,
        untraced_calls,
    )?;
    Ok(out)
}
