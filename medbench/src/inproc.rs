//! The closed loop of the two in-process workloads: one client
//! thread that sends the next query only after the previous answer.

use crate::common::{Answer, Latencies, Tally};
use crate::layers::LayerAcc;
use std::collections::HashMap;
use std::time::Instant;

/// Blocks the completions are split into for the throughput median.
const BLOCKS: usize = 8;

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Per-query latency, ms.
    pub latencies: Latencies,
    /// Completion time of each query, s after the run's origin.
    pub done_at: Vec<f64>,
}

impl Phase {
    /// Record a query sent at `sent` that just completed.
    pub fn record(&mut self, origin: Instant, sent: Instant) {
        let now = Instant::now();
        self.latencies.0.push((now - sent).as_secs_f64() * 1e3);
        self.done_at.push((now - origin).as_secs_f64());
    }

    /// Both phases' queries, as if one phase (concurrent clients).
    pub fn merge(a: &Phase, b: &Phase) -> Phase {
        let mut latencies = a.latencies.0.clone();
        latencies.extend(&b.latencies.0);
        let mut done_at = a.done_at.clone();
        done_at.extend(&b.done_at);
        done_at.sort_by(f64::total_cmp);
        Phase {
            latencies: Latencies(latencies),
            done_at,
        }
    }

    /// Completed queries per second: the median, over disjoint blocks of
    /// `BLOCK` consecutive completions, of the block's completion rate. A
    /// median of blocks keeps one stalled block from moving the figure.
    pub fn qps(&self) -> f64 {
        let mut t = self.done_at.clone();
        t.sort_by(f64::total_cmp);
        let block = (t.len() / BLOCKS).max(1);
        let mut rates: Vec<f64> = t
            .windows(block + 1)
            .step_by(block)
            .map(|w| block as f64 / (w[block] - w[0]))
            .collect();
        crate::common::median(&mut rates)
    }
}

/// Send queries from `next` until `until`, checking each answer against
/// `refs`. Traced queries record layer spans and fold into `acc`. `after`
/// runs between queries, outside the latency measurement (deltas, disk
/// sampling).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    run: &dyn Fn(&str, bool) -> Result<Answer, String>,
    next: &mut dyn FnMut() -> String,
    until: Instant,
    traced: bool,
    refs: &HashMap<String, String>,
    tally: &mut Tally,
    acc: &mut LayerAcc,
    after: &mut dyn FnMut(bool, &mut LayerAcc),
) -> Phase {
    let mut phase = Phase::default();
    let origin = Instant::now();
    while Instant::now() < until {
        let query = next();
        let sent = Instant::now();
        let answer = run(&query, traced);
        phase.record(origin, sent);
        if let (true, Ok(a)) = (traced, &answer) {
            acc.add(a);
        }
        tally.check(&query, &answer.map(|a| a.text), refs);
        after(traced, acc);
    }
    phase
}
