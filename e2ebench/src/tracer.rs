//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code, around each call into a layer; they are
//! kept in memory and written as Chrome trace JSON when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use cumf_bench::json::quote;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub trial: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Trial id stamped on every span opened from now on.
    pub trial: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of span `id`'s direct children named `name`, or
    /// of all of them. A fold from +0.0: an empty float `sum` is -0.0.
    fn children_secs(&self, id: usize, name: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|c| c.parent == Some(id) && name.is_none_or(|n| c.name == n))
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    fn roots<'a>(&'a self, root: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == root)
    }

    /// Per `root` span, the summed duration of its direct children
    /// named `name` (0 where it has none).
    pub fn per_root_sum(&self, root: &str, name: &str) -> Vec<f64> {
        self.roots(root)
            .map(|(id, _)| self.children_secs(id, Some(name)))
            .collect()
    }

    /// Per `root` span, the part of its duration no direct child covers.
    pub fn per_root_self(&self, root: &str) -> Vec<f64> {
        self.roots(root)
            .map(|(id, s)| s.secs() - self.children_secs(id, None))
            .collect()
    }

    /// Share of the `root` spans' total time that their direct children
    /// cover.
    pub fn coverage(&self, root: &str) -> f64 {
        let total: f64 = self.roots(root).map(|(_, s)| s.secs()).sum();
        let uncovered: f64 = self.per_root_self(root).iter().sum();
        if total > 0.0 {
            1.0 - uncovered / total
        } else {
            0.0
        }
    }

    /// Self time per span name: duration minus what its children cover.
    /// Returns `(name, calls, total seconds, self seconds)`, largest
    /// self time first.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_secs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total, own))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// The self-time table printed at the end of a traced run.
    pub fn render_self_times(&self) -> String {
        let rows = self.self_times();
        let all: f64 = rows.iter().map(|r| r.3).sum();
        let mut out = format!(
            "{:<16} {:>7} {:>12} {:>12} {:>7}\n",
            "span", "calls", "total_s", "self_s", "self%"
        );
        for (name, calls, total, own) in rows {
            out.push_str(&format!(
                "{name:<16} {calls:>7} {total:>12.6} {own:>12.6} {:>6.2}%\n",
                100.0 * own / all.max(1e-12)
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, microseconds).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| {
                    quote(&format!("{}#{p}", self.spans[p].name))
                });
                format!(
                    "{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":1,\"args\":{{\"parent\":{parent},\"trial\":{}}}}}",
                    quote(s.name),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.trial
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_coverage() {
        let mut t = Tracer::default();
        let root = t.enter("train");
        t.span("exec.epoch", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        t.span("eval.rmse", || ());
        t.exit(root);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.per_root_sum("train", "exec.epoch").len(), 1);
        let cov = t.coverage("train");
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
        let rows = t.self_times();
        assert_eq!(rows.len(), 3);
        let total_self: f64 = rows.iter().map(|r| r.3).sum();
        assert!((total_self - t.spans()[root].secs()).abs() < 1e-9);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"exec.epoch\"") && json.contains("train#0"));
        assert!(cumf_bench::json::parse(&json).is_ok());
    }
}
