//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, and the timing decorator placed around every source.
//!
//! Spans live in a per-thread buffer and are only recorded inside
//! [`traced_query`], so untraced queries pay one thread-local check per
//! span site. Each span keeps its name, start, end (ns since the run's
//! epoch), the index of the span that caused it, and the id of the query
//! it belongs to. The run drains the buffer with [`take`] and writes the
//! spans out once, at the end.

use msl::Rule;
use oem::{ObjectStore, Symbol};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use wrappers::{Capabilities, SourceStats, Wrapper, WrapperError};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The query (or delta) this span belongs to.
    pub query: u64,
    /// Layer-qualified name, e.g. `veao.expand` or `wrapper.cs`.
    pub name: String,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Local {
    query: Option<u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

static NEXT_QUERY: AtomicU64 = AtomicU64::new(0);

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` as one traced query: a root span named `root` under a fresh
/// query id, with every [`span`] inside it recorded as its descendant.
pub fn traced_query<T>(root: &str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_QUERY.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().query = Some(id));
    let out = span(root, f);
    LOCAL.with(|l| l.borrow_mut().query = None);
    out
}

/// Time `f` as a span named `name` when a traced query is active on this
/// thread; otherwise just run it.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let query = l.query?;
        let parent = l.open.last().copied();
        let idx = l.spans.len();
        l.spans.push(Span {
            query,
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        l.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.spans[idx].end_ns = end;
            l.open.pop();
        });
    }
    out
}

/// Drain this thread's span buffer.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one span run one after another on the
/// span's thread, so their durations add up without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

/// The spans of one query: `(duration, self time)` summed per span name.
pub type QuerySpans = BTreeMap<String, (u64, u64)>;

/// Group spans by query id.
pub fn by_query(spans: &[Span]) -> BTreeMap<u64, QuerySpans> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<u64, QuerySpans> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out
            .entry(s.query)
            .or_default()
            .entry(s.name.clone())
            .or_default();
        e.0 += s.dur_ns();
        e.1 += self_ns;
    }
    out
}

/// Write spans as JSON lines; `parent` is the line index of the parent.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{}}}",
            s.query, s.name, s.start_ns, s.end_ns, self_ns, parent
        )?;
    }
    out.flush()
}

/// Lifetime traffic counters of one [`TimedWrapper`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CallCounts {
    /// Completed `query` calls.
    pub calls: u64,
    /// Time spent inside the wrapped source's `query`, in ns.
    pub busy_ns: u64,
    /// Top-level objects returned.
    pub objects: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

impl std::ops::Sub for CallCounts {
    type Output = CallCounts;
    fn sub(self, rhs: CallCounts) -> CallCounts {
        CallCounts {
            calls: self.calls - rhs.calls,
            busy_ns: self.busy_ns - rhs.busy_ns,
            objects: self.objects - rhs.objects,
            errors: self.errors - rhs.errors,
        }
    }
}

/// A source decorator that counts and times every round-trip and, inside
/// a traced query, records it as a `wrapper.<source>` span. Everything
/// else is forwarded unchanged, so the mediator plans exactly as it would
/// over the bare source.
pub struct TimedWrapper {
    inner: Arc<dyn Wrapper>,
    span_name: String,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    objects: AtomicU64,
    errors: AtomicU64,
}

impl TimedWrapper {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Wrapper>) -> TimedWrapper {
        TimedWrapper {
            span_name: format!("wrapper.{}", inner.name()),
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            objects: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters.
    pub fn counts(&self) -> CallCounts {
        CallCounts {
            calls: self.calls.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            objects: self.objects.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

impl Wrapper for TimedWrapper {
    fn name(&self) -> Symbol {
        self.inner.name()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn stats(&self) -> Option<SourceStats> {
        self.inner.stats()
    }

    fn metrics(&self) -> Option<wrappers::WrapperMetrics> {
        self.inner.metrics()
    }

    fn schema_summary(&self) -> Option<wrappers::summary::SchemaSummary> {
        self.inner.schema_summary()
    }

    fn query(&self, q: &Rule) -> Result<ObjectStore, WrapperError> {
        let t = Instant::now();
        let out = span(&self.span_name, || self.inner.query(q));
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        match &out {
            Ok(store) => {
                self.objects
                    .fetch_add(store.top_level().len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}
