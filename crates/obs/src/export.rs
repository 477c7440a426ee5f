//! Exporters: Chrome `trace_event` JSON and a JSONL counter dump.
//!
//! The Chrome format is the stable subset understood by both
//! `chrome://tracing` and Perfetto: an object with a `traceEvents` array
//! of `ph:"X"` (complete span), `ph:"i"` (instant) and `ph:"M"`
//! (metadata) records. Virtual time maps to the `ts`/`dur` microsecond
//! fields; each rank gets its own `tid` lane under one `pid`.

use crate::json::{escape, num};
use crate::recorder::{Arg, CounterTable, EventKind, LinkSnapshot, TraceEvent};

fn args_json(args: &[(&'static str, Arg)]) -> String {
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| {
            let val = match v {
                Arg::U64(u) => u.to_string(),
                Arg::F64(f) => num(*f),
                Arg::Str(s) => format!("\"{}\"", escape(s)),
            };
            format!("\"{}\":{}", escape(k), val)
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn event_json(ev: &TraceEvent) -> String {
    let ts_us = ev.ts_ps as f64 / 1e6;
    match ev.kind {
        EventKind::Span { dur_ps } => format!(
            "{{\"name\":\"{}\",\"cat\":\"scimpi\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
            escape(ev.name),
            ev.rank,
            num(ts_us),
            num(dur_ps as f64 / 1e6),
            args_json(&ev.args)
        ),
        EventKind::Instant => format!(
            "{{\"name\":\"{}\",\"cat\":\"scimpi\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{}}}",
            escape(ev.name),
            ev.rank,
            num(ts_us),
            args_json(&ev.args)
        ),
    }
}

/// Render `events` as a complete Chrome `trace_event` JSON document.
/// One lane (`tid`) per rank, virtual time on the axis.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut lanes: Vec<u32> = events.iter().map(|e| e.rank).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut records: Vec<String> = lanes
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\"args\":{{\"name\":\"rank {r}\"}}}}"
            )
        })
        .collect();
    records.extend(events.iter().map(event_json));

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        records.join(",\n")
    )
}

/// Render a counter table and link snapshots as JSON Lines: one `{"counter":name,"value":v}` record per
/// counter, then one
/// `{"link_snapshot":label,"links":[{"link":i,"data_bytes":d,"fc_bytes":f},..]}`
/// record per snapshot.
pub fn counters_jsonl(counters: &CounterTable, links: &[LinkSnapshot]) -> String {
    let mut out = String::new();
    for (name, value) in counters.iter() {
        out.push_str(&format!(
            "{{\"counter\":\"{}\",\"value\":{}}}\n",
            escape(name),
            value
        ));
    }
    for snap in links {
        let links: Vec<String> = snap
            .per_link
            .iter()
            .map(|(i, d, f)| format!("{{\"link\":{i},\"data_bytes\":{d},\"fc_bytes\":{f}}}"))
            .collect();
        out.push_str(&format!(
            "{{\"link_snapshot\":\"{}\",\"links\":[{}]}}\n",
            escape(&snap.label),
            links.join(",")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_well_formed() {
        let events = vec![
            TraceEvent {
                rank: 0,
                name: "send",
                kind: EventKind::Span { dur_ps: 2_000_000 },
                ts_ps: 1_000_000,
                args: vec![("bytes", Arg::U64(128)), ("path", Arg::Str("eager".into()))],
            },
            TraceEvent {
                rank: 1,
                name: "cts",
                kind: EventKind::Instant,
                ts_ps: 3_000_000,
                args: vec![],
            },
        ];
        let doc = chrome_trace_json(&events);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"ph\":\"i\""));
        assert!(doc.contains("\"name\":\"rank 0\""));
        assert!(doc.contains("\"dur\":2"));
        assert!(doc.contains("\"path\":\"eager\""));
        // Balanced braces / brackets — cheap well-formedness check.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let snap = LinkSnapshot {
            label: "end-of-run".into(),
            per_link: vec![(0, 1, 2)],
        };
        let doc = counters_jsonl(&CounterTable::default(), &[snap]);
        assert_eq!(doc.lines().count(), crate::recorder::COUNTER_COUNT + 1);
        for line in doc.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
