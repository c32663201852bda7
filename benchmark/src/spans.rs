//! Host-time spans of a traced run, recorded from the benchmark's own files
//! around its calls into the repository: `run` ▸ `setup` | `pass[i]` ▸
//! `cell:<name>`, then `probes` ▸ `probe:<metric>`. They stay in memory until
//! the run ends and are written once, as Chrome trace JSON.
//!
//! An untraced run uses the same recorder switched off: `enter` returns at
//! once, so end-to-end metrics never pay for it.

use std::time::Instant;

use crate::json::{self, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    /// Shared by every span of the run (the seed and workload identify it).
    run_id: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool, origin: Instant, run_id: String) -> Self {
        Spans {
            on,
            origin,
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: impl FnOnce() -> String) {
        if !self.on {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name(),
            parent: self.open.last().copied(),
            start_us: now,
            end_us: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        }
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover, µs.
    pub fn self_us(&self, i: usize) -> f64 {
        let own = self.spans[i].end_us - self.spans[i].start_us;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_us - s.start_us)
            .sum();
        own - children
    }

    /// Chrome `trace_event` JSON (loads in Perfetto / `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json::obj([
                    ("name", json::str(s.name.clone())),
                    ("ph", json::str("X")),
                    ("ts", json::num(s.start_us)),
                    ("dur", json::num(s.end_us - s.start_us)),
                    ("pid", json::num(1u32)),
                    ("tid", json::num(1u32)),
                    (
                        "args",
                        json::obj([
                            ("id", json::num(i as u32)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| json::num(p as u32)),
                            ),
                            ("run", json::str(self.run_id.clone())),
                            ("self_us", json::num(self.self_us(i))),
                        ]),
                    ),
                ])
            })
            .collect();
        json::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", json::str("ms")),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut s = Spans::new(true, Instant::now(), "t".into());
        s.enter(|| "run".into());
        s.enter(|| "pass[0]".into());
        s.enter(|| "cell:a".into());
        s.exit();
        s.exit();
        s.exit();
        let all = s.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[1].parent, Some(0));
        assert!(s.self_us(0) >= 0.0 && s.self_us(1) >= 0.0);
        let doc = json::parse(&s.to_chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false, Instant::now(), "t".into());
        s.enter(|| unreachable!("name closure must not run when off"));
        s.exit();
        assert!(s.all().is_empty());
    }
}
