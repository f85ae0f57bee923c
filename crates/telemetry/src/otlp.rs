//! OTLP/JSON-shaped span export (resource → scope → spans), rendered via
//! the vendored `serde` value tree.
//!
//! The layout follows the OpenTelemetry protobuf JSON mapping closely
//! enough for a collector-shaped consumer: hex trace/span ids, unix-nano
//! timestamps carried as strings (they exceed the f64 integer range),
//! key/value attributes with typed value wrappers, and a per-span status.
//! Spans still open when a trace is exported carry a
//! `raqo.span.open=true` attribute and an end timestamp equal to their
//! start, instead of pretending to be zero-duration.

use crate::span::{SpanRecord, Telemetry};
use crate::trace::{span_id_for, CompletedTrace, TraceFlags};
use serde::{write_value, Value};

fn kv_str(key: &str, value: &str) -> Value {
    Value::Object(vec![
        ("key".to_string(), Value::String(key.to_string())),
        (
            "value".to_string(),
            Value::Object(vec![(
                "stringValue".to_string(),
                Value::String(value.to_string()),
            )]),
        ),
    ])
}

fn kv_bool(key: &str, value: bool) -> Value {
    Value::Object(vec![
        ("key".to_string(), Value::String(key.to_string())),
        (
            "value".to_string(),
            Value::Object(vec![("boolValue".to_string(), Value::Bool(value))]),
        ),
    ])
}

/// One exportable trace: either completed or still in flight.
pub(crate) struct TraceView {
    pub trace_id: u128,
    pub attrs: Vec<(String, String)>,
    pub flags: TraceFlags,
    pub spans: Vec<SpanRecord>,
    pub open: bool,
}

impl TraceView {
    pub(crate) fn from_completed(t: &CompletedTrace) -> Self {
        TraceView {
            trace_id: t.trace_id,
            attrs: t.attrs.clone(),
            flags: t.flags,
            spans: t.spans.clone(),
            open: false,
        }
    }
}

fn span_value(view: &TraceView, s: &SpanRecord, epoch_unix_ns: u64) -> Value {
    let trace_hex = format!("{:032x}", view.trace_id);
    let span_hex = format!("{:016x}", span_id_for(view.trace_id, s.id));
    let parent_hex = match s.parent {
        Some(p) => format!("{:016x}", span_id_for(view.trace_id, p)),
        None => String::new(),
    };
    let start_unix = epoch_unix_ns.saturating_add(s.start_ns);
    let end_unix = epoch_unix_ns.saturating_add(s.end_ns.unwrap_or(s.start_ns));
    let mut attrs = Vec::new();
    if s.parent.is_none() {
        // The root span carries the trace-level attributes and flags.
        for (k, v) in &view.attrs {
            attrs.push(kv_str(k, v));
        }
        if !view.flags.is_empty() {
            attrs.push(kv_str("raqo.trace.flags", &view.flags.names().join(",")));
        }
        if view.open {
            attrs.push(kv_bool("raqo.trace.open", true));
        }
    }
    if s.is_open() {
        attrs.push(kv_bool("raqo.span.open", true));
    }
    let status = if view.flags.is_empty() || s.parent.is_some() {
        Value::Object(vec![("code".to_string(), Value::Num(1.0))])
    } else {
        // STATUS_CODE_ERROR on the root of a flagged trace makes
        // tail-retained tickets stand out in a collector UI.
        Value::Object(vec![
            ("code".to_string(), Value::Num(2.0)),
            (
                "message".to_string(),
                Value::String(view.flags.names().join(",")),
            ),
        ])
    };
    Value::Object(vec![
        ("traceId".to_string(), Value::String(trace_hex)),
        ("spanId".to_string(), Value::String(span_hex)),
        ("parentSpanId".to_string(), Value::String(parent_hex)),
        ("name".to_string(), Value::String(s.name.clone())),
        // SPAN_KIND_INTERNAL: these are in-process planning phases.
        ("kind".to_string(), Value::Num(1.0)),
        (
            "startTimeUnixNano".to_string(),
            Value::String(start_unix.to_string()),
        ),
        (
            "endTimeUnixNano".to_string(),
            Value::String(end_unix.to_string()),
        ),
        ("attributes".to_string(), Value::Array(attrs)),
        ("status".to_string(), status),
    ])
}

pub(crate) fn otlp_value(
    views: &[TraceView],
    resource_attrs: &[(String, String)],
    epoch_unix_ns: u64,
) -> Value {
    let mut resource = vec![kv_str("service.name", "raqo-optimizer")];
    for (k, v) in resource_attrs {
        resource.push(kv_str(k, v));
    }
    let mut spans = Vec::new();
    for view in views {
        for s in &view.spans {
            spans.push(span_value(view, s, epoch_unix_ns));
        }
    }
    let scope = Value::Object(vec![
        ("name".to_string(), Value::String("raqo-telemetry".to_string())),
        (
            "version".to_string(),
            Value::String(env!("CARGO_PKG_VERSION").to_string()),
        ),
    ]);
    Value::Object(vec![(
        "resourceSpans".to_string(),
        Value::Array(vec![Value::Object(vec![
            (
                "resource".to_string(),
                Value::Object(vec![("attributes".to_string(), Value::Array(resource))]),
            ),
            (
                "scopeSpans".to_string(),
                Value::Array(vec![Value::Object(vec![
                    ("scope".to_string(), scope),
                    ("spans".to_string(), Value::Array(spans)),
                ])]),
            ),
        ])]),
    )])
}

impl Telemetry {
    fn export_views(&self) -> Vec<TraceView> {
        let Some(inner) = self.inner() else {
            return Vec::new();
        };
        let p = inner.pipeline.lock().unwrap();
        let mut views: Vec<TraceView> =
            p.completed.iter().map(TraceView::from_completed).collect();
        for (_, buf) in &p.active {
            views.push(TraceView {
                trace_id: buf.trace_id,
                attrs: buf.attrs.clone(),
                flags: buf.flags,
                spans: buf.spans.iter().cloned().collect(),
                open: true,
            });
        }
        if !p.ambient.spans.is_empty() {
            views.push(TraceView {
                trace_id: p.ambient.trace_id,
                attrs: vec![("raqo.trace.ambient".to_string(), "true".to_string())],
                flags: p.ambient.flags,
                spans: p.ambient.spans.iter().cloned().collect(),
                open: true,
            });
        }
        views
    }

    /// OTLP/JSON-shaped export of every trace currently held: retained
    /// completed traces, in-flight ticket traces (roots marked open), and
    /// the ambient trace. `Value::Null` when disabled.
    pub fn otlp_json_value(&self) -> Value {
        let Some(inner) = self.inner() else {
            return Value::Null;
        };
        otlp_value(&self.export_views(), &[], inner.epoch_unix_ns)
    }

    /// [`Telemetry::otlp_json_value`] pretty-rendered to a string.
    pub fn otlp_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, &self.otlp_json_value(), Some(2), 0);
        out.push('\n');
        out
    }
}
