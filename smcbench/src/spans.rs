//! In-memory spans recorded around the calls into each layer during the
//! traced run, written out as JSONL when the benchmark ends.
//!
//! A span is either timed directly (`begin`/`end`) or, for calls made once
//! per simulated cycle, accumulated: one span per point and layer whose
//! duration is the summed time of every call (`add`). A span's self time
//! is its duration minus its children's.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `smc.tick` or `sim.run_kernel`.
    pub name: &'static str,
    /// The point (run, request or grid) the span belongs to.
    pub point: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (summed call time for accumulated spans).
    pub dur_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

/// Nanoseconds from `from` to `to` (0 if `to` is earlier).
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    ns_between(start, Instant::now())
}

impl Spans {
    /// Open a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, point: &str, parent: Option<usize>) -> usize {
        let start_ns = ns_between(self.origin, Instant::now());
        self.spans.push(Span {
            name,
            point: point.to_string(),
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now and return its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = ns_between(self.origin, Instant::now());
        let span = &mut self.spans[id];
        span.dur_ns = now.saturating_sub(span.start_ns);
        span.dur_ns
    }

    /// Record a span measured elsewhere: it started at `start` and covers
    /// `dur_ns` of call time.
    pub fn add(
        &mut self,
        name: &'static str,
        point: &str,
        parent: Option<usize>,
        start: Instant,
        dur_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            point: point.to_string(),
            parent,
            start_ns: ns_between(self.origin, start),
            dur_ns,
        });
    }

    /// Span `id`'s duration minus its children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_ns)
            .sum();
        self.spans[id].dur_ns.saturating_sub(children)
    }

    /// One JSON object per span, with its id and self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"point\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{}}}\n",
                s.name,
                s.point,
                s.start_ns,
                s.dur_ns,
                self.self_ns(id)
            ));
        }
        out
    }
}
