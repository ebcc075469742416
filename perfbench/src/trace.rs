//! Spans of the traced run: the harness's own spans around each call into a
//! layer's public function, plus the `termite_obs` events the analyser
//! already emits, kept in memory and written out at the end.

use std::cell::RefCell;
use std::time::Instant;

use termite_driver::json::Json;
use termite_obs::{ArgValue, EventKind, TraceEvent};

/// Who recorded an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The benchmark harness, around a call into a crate.
    Harness,
    /// The analyser's own `termite_obs` instrumentation.
    Program,
}

/// One span or instant event, from either origin.
#[derive(Clone, Debug)]
pub struct Ev {
    /// Event name (`ir.parse`, `smt_check`, ...).
    pub name: String,
    /// Who recorded it.
    pub origin: Origin,
    /// Start, in microseconds on the origin's clock.
    pub ts_us: f64,
    /// Duration in microseconds; `None` for an instant event.
    pub dur_us: Option<f64>,
    /// Recording thread.
    pub tid: u64,
    /// Numeric arguments (booleans as 0/1; strings are dropped).
    pub args: Vec<(String, f64)>,
}

impl Ev {
    /// The numeric argument `key`, if recorded.
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Converts an event drained from a `termite_obs::Recorder`.
    pub fn from_obs(event: &TraceEvent) -> Ev {
        Ev {
            name: event.name.to_string(),
            origin: Origin::Program,
            ts_us: event.ts_us as f64,
            dur_us: match event.kind {
                EventKind::Span { dur_us } => Some(dur_us as f64),
                EventKind::Instant => None,
            },
            tid: event.tid,
            args: event
                .args
                .iter()
                .filter_map(|(k, v)| {
                    let v = match v {
                        ArgValue::Int(i) => *i as f64,
                        ArgValue::Float(f) => *f,
                        ArgValue::Bool(b) => f64::from(u8::from(*b)),
                        ArgValue::Str(_) => return None,
                    };
                    Some((k.to_string(), v))
                })
                .collect(),
        }
    }

    /// Converts one Chrome-trace event of a `serve` response's `"trace"`
    /// field (the wire form of the same `termite_obs` events).
    pub fn from_wire(event: &Json) -> Option<Ev> {
        let args = match event.get("args") {
            Some(Json::Object(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| {
                    let v = match v {
                        Json::Number(n) => *n,
                        Json::Bool(b) => f64::from(u8::from(*b)),
                        _ => return None,
                    };
                    Some((k.clone(), v))
                })
                .collect(),
            _ => Vec::new(),
        };
        Some(Ev {
            name: event.get("name")?.as_str()?.to_string(),
            origin: Origin::Program,
            ts_us: event.get("ts")?.as_f64()?,
            dur_us: event.get("dur").and_then(Json::as_f64),
            tid: event.get("tid").and_then(Json::as_usize).unwrap_or(0) as u64,
            args,
        })
    }
}

/// The harness-side span recorder of the client thread. Disabled, it only
/// runs the closures.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    events: RefCell<Vec<Ev>>,
}

impl Tracer {
    /// A recorder; `enabled` selects the traced run.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            events: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let result = f();
        let ts_us = (start - self.epoch).as_secs_f64() * 1e6;
        self.events.borrow_mut().push(Ev {
            name: name.to_string(),
            origin: Origin::Harness,
            ts_us,
            dur_us: Some(start.elapsed().as_secs_f64() * 1e6),
            tid: 0,
            args: Vec::new(),
        });
        result
    }

    /// Takes the recorded spans.
    pub fn take(&self) -> Vec<Ev> {
        std::mem::take(&mut self.events.borrow_mut())
    }
}

/// Sum of the durations (ms) and count of the events named one of `names`.
pub fn total(events: &[Ev], names: &[&str]) -> (f64, usize) {
    events
        .iter()
        .filter(|e| names.contains(&e.name.as_str()))
        .fold((0.0, 0), |(ms, n), e| {
            (ms + e.dur_us.unwrap_or(0.0) / 1000.0, n + 1)
        })
}

/// The events as a Chrome trace (`chrome://tracing`, Perfetto): harness
/// spans under process 1, the analyser's under process 2.
pub fn chrome_trace(events: &[Ev]) -> String {
    let events = events
        .iter()
        .map(|e| {
            let mut fields = vec![
                ("name", Json::String(e.name.clone())),
                (
                    "pid",
                    Json::Number(match e.origin {
                        Origin::Harness => 1.0,
                        Origin::Program => 2.0,
                    }),
                ),
                ("tid", Json::Number(e.tid as f64)),
                ("ts", Json::Number(e.ts_us)),
            ];
            match e.dur_us {
                Some(dur) => {
                    fields.push(("ph", Json::String("X".to_string())));
                    fields.push(("dur", Json::Number(dur)));
                }
                None => fields.push(("ph", Json::String("i".to_string()))),
            }
            fields.push((
                "args",
                Json::Object(
                    e.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Number(*v)))
                        .collect(),
                ),
            ));
            Json::object(fields)
        })
        .collect();
    Json::object([("traceEvents", Json::Array(events))]).to_string()
}
