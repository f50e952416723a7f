//! The benchmark's own spans: name, start, end, parent and op id, kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// Records nested spans around calls into the layers. With recording
/// off, [`Recorder::time`] only runs the closure.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Attributes the spans that follow to op `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in microseconds: each span's
    /// duration minus the durations of its direct children.
    pub fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e3;
        }
        out
    }

    /// Tab-separated dump: `op name start_ns end_ns parent`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tname\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.set_op(3);
        rec.time("outer", |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let own = rec.self_us();
        assert!(own["inner"] >= 4000.0);
        assert!(own["outer"] >= 2000.0 && own["outer"] < own["inner"]);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans().iter().all(|s| s.op == 3));
        assert_eq!(rec.to_tsv().lines().count(), 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.time("x", |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
