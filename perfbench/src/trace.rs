//! Span harvesting for the traced run: per-name call counts, total time
//! and self time, accumulated op by op from `spk_obs::take_spans`.

use spk_obs::{SpanKind, SpanRecord, RING_CAPACITY};
use std::collections::BTreeMap;

#[derive(Debug, Default, Clone, Copy)]
struct NameStats {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Spans of every traced op, folded by span name.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Traced ops absorbed so far.
    pub ops: u64,
    names: BTreeMap<&'static str, NameStats>,
    /// Records taken from each span ring so far. Rings are write-once
    /// (draining does not free slots), so this is the ring's fill level.
    per_thread: BTreeMap<u32, u64>,
    /// Most records one ring received during the latest op.
    last_op_max: u64,
}

impl TraceSummary {
    /// Folds in the spans drained right after one op, so every record
    /// belongs to that op: the drain boundary is what carries the op id.
    pub fn absorb_op(&mut self, spans: &[SpanRecord]) {
        self.ops += 1;
        let mut this_op: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans {
            *this_op.entry(s.thread).or_default() += 1;
        }
        self.last_op_max = this_op.values().copied().max().unwrap_or(0);
        for (t, n) in this_op {
            *self.per_thread.entry(t).or_default() += n;
        }
        let self_ns = self_times(spans);
        for (s, own) in spans.iter().zip(self_ns) {
            let e = self.names.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns;
            e.self_ns += own;
        }
    }

    /// Whether one more op like the last fits in every span ring with a
    /// safety margin, so the traced run never drops a record.
    pub fn has_ring_headroom(&self) -> bool {
        let fill = self.per_thread.values().copied().max().unwrap_or(0);
        fill + 2 * self.last_op_max <= (RING_CAPACITY as u64) * 3 / 4
    }

    /// Records (spans and events) named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.names.get(name).map_or(0, |s| s.count)
    }

    /// Summed duration of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.names
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    /// Summed self time (duration minus same-thread child spans) of the
    /// spans named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6)
    }

    /// `v` divided by the traced op count.
    pub fn per_op(&self, v: f64) -> f64 {
        v / self.ops.max(1) as f64
    }

    /// One line per span name: count, total and self ms per op.
    pub fn table(&self) -> String {
        let mut out =
            String::from("span name                        count/op   total_ms/op    self_ms/op\n");
        for (name, s) in &self.names {
            out.push_str(&format!(
                "{name:<32} {:>8.2} {:>13.4} {:>13.4}\n",
                self.per_op(s.count as f64),
                self.per_op(s.total_ns as f64 / 1e6),
                self.per_op(s.self_ns as f64 / 1e6),
            ));
        }
        out
    }
}

/// Self time of every record: its duration minus the durations of its
/// direct children (spans one level deeper on the same thread that start
/// inside it). Events have no duration and count as nobody's child.
/// `spans` is in `take_spans` order: by thread, then start, then depth.
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind != SpanKind::Span {
            continue;
        }
        while let Some(&top) = stack.last() {
            let p = &spans[top];
            let inside = p.thread == s.thread
                && p.depth < s.depth
                && p.start_ns <= s.start_ns
                && s.start_ns < p.start_ns + p.dur_ns;
            if inside {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            if spans[top].depth + 1 == s.depth {
                own[top] = own[top].saturating_sub(s.dur_ns);
            }
        }
        stack.push(i);
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: u32, depth: u16, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name: "s",
            thread,
            depth,
            kind: SpanKind::Span,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > child [10,40) > grandchild [15,25); child [50,70);
        // a span on another thread overlapping the root is no child.
        let spans = [
            span(0, 0, 0, 100),
            span(0, 1, 10, 30),
            span(0, 2, 15, 10),
            span(0, 1, 50, 20),
            span(1, 0, 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 50]);
    }
}
