//! Spans recorded by the harness around its calls into each layer.
//!
//! Everything stays in memory until the run ends. Every span is
//! aggregated (count, total, time covered by direct children); hot
//! spans keep one raw record in [`HOT_SAMPLE`], the rest keep all of
//! them. A layer's self time is its total minus what its children
//! cover.

use crate::json::Json;
use std::io::Write;
use std::time::Instant;

/// Raw records kept for a hot span: one in this many.
pub const HOT_SAMPLE: u64 = 64;

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

impl Agg {
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

struct Raw {
    name: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: u32,
}

struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    raw: Option<usize>,
}

pub struct Recorder {
    workload: String,
    origin: Instant,
    names: Vec<(&'static str, bool)>,
    aggs: Vec<Agg>,
    stack: Vec<Open>,
    raw: Vec<Raw>,
    pub round: u32,
}

/// Handle of a registered span name; look it up once, outside the loop.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Recorder {
    pub fn new(workload: &str) -> Self {
        Recorder {
            workload: workload.to_string(),
            origin: Instant::now(),
            names: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
            raw: Vec::new(),
            round: 0,
        }
    }

    /// Register (or find) a span name. `hot` spans are sampled raw.
    pub fn id(&mut self, name: &'static str, hot: bool) -> SpanId {
        if let Some(i) = self.names.iter().position(|(n, _)| *n == name) {
            return SpanId(i);
        }
        self.names.push((name, hot));
        self.aggs.push(Agg::default());
        SpanId(self.names.len() - 1)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, id: SpanId) {
        let start_ns = self.now_ns();
        self.enter_at(id, start_ns);
    }

    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        self.exit_at(end_ns);
    }

    fn enter_at(&mut self, id: SpanId, start_ns: u64) {
        let (_, hot) = self.names[id.0];
        let keep = !hot || self.aggs[id.0].count.is_multiple_of(HOT_SAMPLE);
        let raw = keep.then(|| {
            self.raw.push(Raw {
                name: id.0,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.iter().rev().find_map(|o| o.raw),
                round: self.round,
            });
            self.raw.len() - 1
        });
        self.stack.push(Open {
            name: id.0,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    fn exit_at(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        let agg = &mut self.aggs[open.name];
        agg.count += 1;
        agg.total_ns += dur;
        agg.child_ns += open.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(r) = open.raw {
            self.raw[r].end_ns = end_ns;
        }
    }

    /// Time one call as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.id(name, false);
        self.enter(id);
        let out = f();
        self.exit();
        out
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.names
            .iter()
            .position(|(n, _)| *n == name)
            .map(|i| self.aggs[i])
            .unwrap_or_default()
    }

    /// One JSON object per line: the raw spans in start order, then one
    /// `{"agg": …}` line per span name.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.raw.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::str(self.names[r.name].0)),
                ("start_ns", Json::Num(r.start_ns as f64)),
                ("end_ns", Json::Num(r.end_ns as f64)),
                (
                    "parent",
                    r.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload", Json::str(self.workload.as_str())),
                ("round", Json::Num(f64::from(r.round))),
            ]);
            writeln!(f, "{}", line.line())?;
        }
        for ((name, hot), a) in self.names.iter().zip(&self.aggs) {
            let line = Json::obj([
                ("agg", Json::str(*name)),
                ("workload", Json::str(self.workload.as_str())),
                ("count", Json::Num(a.count as f64)),
                ("total_ns", Json::Num(a.total_ns as f64)),
                ("self_ns", Json::Num(a.self_ns() as f64)),
                (
                    "raw_sampled_1_in",
                    Json::Num(if *hot { HOT_SAMPLE as f64 } else { 1.0 }),
                ),
            ]);
            writeln!(f, "{}", line.line())?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_direct_children() {
        let mut r = Recorder::new("t");
        let round = r.id("round", false);
        let apply = r.id("apply", true);
        let inner = r.id("inner", false);
        // round [0, 100): apply [10, 40) containing inner [20, 25),
        // then apply [50, 70).
        r.enter_at(round, 0);
        r.enter_at(apply, 10);
        r.enter_at(inner, 20);
        r.exit_at(25);
        r.exit_at(40);
        r.enter_at(apply, 50);
        r.exit_at(70);
        r.exit_at(100);
        assert_eq!(
            r.agg("round"),
            Agg {
                count: 1,
                total_ns: 100,
                child_ns: 50
            }
        );
        assert_eq!(r.agg("round").self_ns(), 50);
        // Grandchildren are charged to their parent only.
        assert_eq!(r.agg("apply").total_ns, 50);
        assert_eq!(r.agg("apply").self_ns(), 45);
        assert_eq!(r.agg("inner").self_ns(), 5);
        assert_eq!(r.agg("apply").mean_ns(), 25.0);
        assert_eq!(r.agg("never").count, 0);
    }

    #[test]
    fn hot_spans_are_sampled_raw_but_always_aggregated() {
        let mut r = Recorder::new("t");
        let round = r.id("round", false);
        let hot = r.id("hot", true);
        r.enter_at(round, 0);
        for i in 0..(3 * HOT_SAMPLE) {
            r.enter_at(hot, 10 * i);
            r.exit_at(10 * i + 5);
        }
        r.exit_at(10_000);
        assert_eq!(r.agg("hot").count, 3 * HOT_SAMPLE);
        // round + one hot span in every HOT_SAMPLE.
        assert_eq!(r.raw.len(), 1 + 3);
        assert!(r.raw[1..].iter().all(|s| s.parent == Some(0)));
    }
}
