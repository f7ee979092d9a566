//! In-memory spans around the calls into each layer.
//!
//! The traced pass opens a span before a call into a layer and closes it
//! after; nothing is written until the benchmark exits. A span's *self
//! time* is its duration minus the part its children cover, so the self
//! times of one run add up to the root span exactly and every share is
//! a share of measured wall time, not of a sum of estimates.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; the part before the first `.` names the layer.
    pub name: &'static str,
    /// Which instance of the name: the cycle number or client index.
    pub index: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
    /// The run (one method's simulation) the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; one recorder per traced workload.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    run: u32,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so that recording does
    /// not reallocate inside a timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the run identifier stamped on the spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, index: u64) -> SpanId {
        let id = SpanId(self.spans.len());
        let parent = self.open.last().copied();
        self.open.push(id);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            index,
            start_ns: now,
            end_ns: now,
            parent,
            run: self.run,
        });
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in the order of [`Recorder::spans`]:
    /// duration minus the durations of its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| own.get_mut(p.0)) {
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// The spans as a chrome `trace_event` document (complete events,
    /// microsecond timestamps; `pid` is the run, `args` carry the span
    /// and parent ids).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.0.to_string());
            // writing to a String cannot fail
            let _ = write!(
                out,
                "\n{{\"name\":\"{}[{}]\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                span.name,
                span.index,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.run,
                id,
                parent,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_innermost_open_span() {
        let mut rec = Recorder::with_capacity(8);
        rec.set_run(3);
        let root = rec.open("run", 0);
        let cycle = rec.open("cycle", 7);
        let server = rec.open("server.run_cycle", 7);
        rec.close(server);
        let client = rec.open("client.run_cycle", 2);
        rec.close(client);
        rec.close(cycle);
        rec.close(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(cycle));
        assert_eq!(spans[3].parent, Some(cycle));
        assert!(spans.iter().all(|s| s.run == 3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut rec = Recorder::with_capacity(64);
        let root = rec.open("run", 0);
        for n in 0..5 {
            let cycle = rec.open("cycle", n);
            let server = rec.open("server.run_cycle", n);
            std::hint::black_box((0..2000u64).sum::<u64>());
            rec.close(server);
            rec.close(cycle);
        }
        rec.close(root);
        let total: u64 = rec.self_times_ns().iter().sum();
        assert_eq!(total, rec.spans()[0].duration_ns());
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut rec = Recorder::with_capacity(2);
        let root = rec.open("run", 0);
        let child = rec.open("core.audit", 0);
        rec.close(child);
        rec.close(root);
        let json = rec.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"core.audit[0]\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0"));
    }
}
