//! Exporters: Chrome `trace_event` JSON and a JSONL counter dump.
//!
//! The Chrome format is the stable subset understood by both
//! `chrome://tracing` and Perfetto: an object with a `traceEvents` array
//! of `ph:"X"` (complete span), `ph:"i"` (instant) and `ph:"M"`
//! (metadata) records. Virtual time maps to the `ts`/`dur` microsecond
//! fields; each rank gets its own `tid` lane under one `pid`.

use crate::json::{self, Json};
use crate::recorder::{Arg, CounterTable, EventKind, LinkSnapshot, TraceEvent};

fn event_json(ev: &TraceEvent) -> Json {
    let args = Json::obj(ev.args.iter().map(|(k, v)| {
        let v = match v {
            Arg::U64(u) => Json::from(*u),
            Arg::F64(f) => Json::from(*f),
            Arg::Str(s) => Json::from(s.as_str()),
        };
        (*k, v)
    }));
    let mut members = vec![("name", ev.name.into()), ("cat", "scimpi".into())];
    match ev.kind {
        EventKind::Span { .. } => members.push(("ph", "X".into())),
        EventKind::Instant => members.extend([("ph", "i".into()), ("s", "t".into())]),
    }
    let ts = Json::from(ev.ts_ps as f64 / 1e6);
    members.extend([("pid", 0u32.into()), ("tid", ev.rank.into()), ("ts", ts)]);
    if let EventKind::Span { dur_ps } = ev.kind {
        members.push(("dur", Json::from(dur_ps as f64 / 1e6)));
    }
    members.push(("args", args));
    Json::obj(members)
}

/// Render `events` as a complete Chrome `trace_event` JSON document.
/// One lane (`tid`) per rank, virtual time on the axis. The events are
/// rendered one at a time, never held as one value.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut lanes: Vec<u32> = events.iter().map(|e| e.rank).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let lanes = lanes.iter().map(|&r| {
        Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 0u32.into()),
            ("tid", r.into()),
            ("args", Json::obj([("name", format!("rank {r}").into())])),
        ])
    });
    let doc = Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::arr(lanes).lines()),
    ]);
    json::render_streamed(&doc, events.iter().map(event_json))
}

/// Render a counter table and link snapshots as JSON Lines: one
/// `{"counter":name,"value":v}` record per counter, then one
/// `{"link_snapshot":label,"links":[{"link":i,"data_bytes":d,"fc_bytes":f},..]}`
/// record per snapshot.
pub fn counters_jsonl(counters: &CounterTable, links: &[LinkSnapshot]) -> String {
    let counters = counters
        .iter()
        .map(|(name, value)| Json::obj([("counter", name.into()), ("value", value.into())]));
    let snapshots = links.iter().map(|snap| {
        let links = snap.per_link.iter().map(|&(i, d, f)| {
            Json::obj([
                ("link", i.into()),
                ("data_bytes", d.into()),
                ("fc_bytes", f.into()),
            ])
        });
        Json::obj([
            ("link_snapshot", snap.label.as_str().into()),
            ("links", Json::arr(links)),
        ])
    });
    counters
        .chain(snapshots)
        .map(|v| json::render(&v))
        .collect()
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
        let events = json::parse(&doc).unwrap();
        let Some(Json::Arr(records, _)) = events.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(records.len(), 4, "two lanes, two events");
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
            assert!(matches!(json::parse(line), Ok(Json::Obj(..))), "{line}");
        }
    }
}
