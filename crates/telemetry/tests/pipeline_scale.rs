//! Service-scale trace-pipeline guarantees. At the fixed completed-ring
//! capacity ([`MAX_SPANS`]), a workload that overflows the ring evicts
//! clean traces while every flagged (degraded/panicked/budget-exhausted)
//! ticket stays retained whole; under 1% head sampling, retention is the
//! flagged tickets plus a small head sample.

use raqo_telemetry::{Counter, Telemetry, TraceConfig, TraceFlags, MAX_SPANS};

const SPANS_PER_TICKET: usize = 60;
const FLAG_EVERY: usize = 50;

/// Run `tickets` ticket traces of `SPANS_PER_TICKET` spans each (the
/// root, one phase span and its leaves), flagging every `FLAG_EVERY`-th
/// one DEGRADED. Returns the flagged trace ids.
fn run_tickets(tel: &Telemetry, tickets: usize) -> Vec<u128> {
    let mut flagged_ids = Vec::new();
    for t in 0..tickets {
        let trace = tel.start_trace("plan.ticket");
        trace.attr("tenant.namespace", t % 7);
        {
            let _in_trace = trace.enter();
            let _phase = tel.span("optimize");
            for s in 0..SPANS_PER_TICKET - 2 {
                let _leaf = tel.span_labeled("plan_cost", s);
            }
        }
        if t % FLAG_EVERY == 0 {
            trace.flag(TraceFlags::DEGRADED);
            flagged_ids.push(trace.trace_id());
        }
        trace.finish();
    }
    assert_eq!(flagged_ids.len(), tickets.div_ceil(FLAG_EVERY));
    assert_eq!(tel.active_trace_count(), 0);
    flagged_ids
}

#[test]
fn a_full_completed_ring_evicts_clean_traces_and_keeps_every_flagged_one() {
    // 1 200 × 60 = 72 000 spans, all head-sampled: more than the ring holds.
    const TICKETS: usize = 1_200;
    let tel = Telemetry::enabled();
    let flagged_ids = run_tickets(&tel, TICKETS);

    assert!(
        tel.completed_span_count() <= MAX_SPANS,
        "completed ring holds {} spans, capacity {MAX_SPANS}",
        tel.completed_span_count()
    );
    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::TracesRetained), TICKETS as u64);
    assert!(snap.get(Counter::TracesEvicted) > 0, "the ring never overflowed");

    // Eviction takes the oldest unflagged traces first: every flagged
    // ticket survives with its root and all its spans.
    let completed = tel.completed_traces();
    for id in &flagged_ids {
        let trace = completed
            .iter()
            .find(|t| t.trace_id == *id)
            .unwrap_or_else(|| panic!("flagged trace {id:x} evicted from the completed ring"));
        assert!(trace.flags.contains(TraceFlags::DEGRADED));
        assert_eq!(trace.root().expect("root survives").name, "plan.ticket");
        assert_eq!(trace.spans.len(), SPANS_PER_TICKET);
    }
}

#[test]
fn one_percent_head_sampling_retains_the_flagged_tickets_and_little_else() {
    const TICKETS: usize = 2_000;
    let tel = Telemetry::with_trace_config(TraceConfig { head_rate: 0.01, seed: 42 });
    let flagged_ids = run_tickets(&tel, TICKETS);

    let snap = tel.snapshot().unwrap();
    assert_eq!(snap.get(Counter::TracesStarted), TICKETS as u64);
    let retained = snap.get(Counter::TracesRetained);
    let sampled_out = snap.get(Counter::TracesSampledOut);
    assert_eq!(retained + sampled_out, TICKETS as u64);
    // Retention is the flagged tickets plus a ~1% head sample, nowhere
    // near the full workload.
    assert!(
        retained >= flagged_ids.len() as u64 && retained < 200,
        "retained {retained} of {TICKETS}"
    );
    let completed = tel.completed_traces();
    for id in &flagged_ids {
        assert!(completed.iter().any(|t| t.trace_id == *id), "flagged trace {id:x} sampled out");
    }
}
