//! In-memory span recorder for the traced run.
//!
//! Spans are taken **from outside** the program: around calls into its
//! public functions, never inside them. They are kept in memory and
//! written out as JSON lines when the run ends. A disabled tracer is a
//! branch per call, which is what lets the timed passes of `--trace 0`
//! and the traced passes share one driver.

use std::io::Write;
use std::time::Instant;

/// `parent` of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;
/// `period` of a span that belongs to no period.
pub const NO_PERIOD: u32 = u32::MAX;

/// One recorded span. `parent` indexes into the same span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub period: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recording tracer; its clock starts now.
    pub fn recording() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::recording()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, period: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            period,
        });
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost-first"
        );
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// The tracer's clock origin (`start_ns`/`end_ns` count from it),
    /// for drivers that read the clock on other threads.
    pub fn clock(&self) -> Instant {
        self.origin
    }

    /// Records a closed span measured elsewhere on [`Tracer::clock`],
    /// under the innermost open span.
    pub fn record(&mut self, name: &'static str, period: u32, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            period,
        });
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, period: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, period);
        let out = f();
        self.end(id);
        out
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).sum()
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations_ns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::duration_ns)
    }

    /// Self time of the (first) span called `name`: its duration minus
    /// the part its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let Some(root) = self.spans.iter().position(|s| s.name == name) else {
            return 0;
        };
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == root as u32)
            .map(Span::duration_ns)
            .sum();
        self.spans[root].duration_ns().saturating_sub(children)
    }

    /// Appends the spans as JSON lines, tagged with the pass they came
    /// from. Span indices (`id`, `parent`) are local to that pass.
    pub fn write_jsonl(&self, pass: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                NO_PARENT => write!(out, "\"parent\":null,")?,
                p => write!(out, "\"parent\":{p},")?,
            }
            match s.period {
                NO_PERIOD => writeln!(out, "\"period\":null}}")?,
                p => writeln!(out, "\"period\":{p}}}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::recording();
        let root = t.begin("root", NO_PERIOD);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("child", 1, || ());
        t.end(root);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].period, 1);
        assert_eq!(t.durations_ns("child").count(), 2);
        assert_eq!(
            t.self_ns("root") + t.total_ns("child"),
            spans[0].duration_ns()
        );
        let mut text = Vec::new();
        t.write_jsonl("p", &mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("x", 0);
        t.end(id);
        assert_eq!(t.span("y", 0, || 7), 7);
        assert!(t.spans.is_empty());
    }
}
