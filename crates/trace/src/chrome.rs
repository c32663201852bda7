//! Trace exporters: Chrome `trace_event` JSON (Perfetto-loadable) and a
//! compact terminal timeline.

use machine::TimeCat;

use crate::{EventKind, Trace};

fn cat_name(cat: TimeCat) -> &'static str {
    match cat {
        TimeCat::Busy => "busy",
        TimeCat::Local => "local",
        TimeCat::Remote => "remote",
        TimeCat::Sync => "sync",
    }
}

/// Export as Chrome `trace_event` JSON: one complete (`"ph":"X"`) slice
/// per event, one track (`tid`) per PE. Timestamps are microseconds as
/// the format requires, so 1 virtual ns = 0.001 µs. Open the file in
/// <https://ui.perfetto.dev> or `chrome://tracing`.
pub fn to_chrome_json(trace: &Trace) -> String {
    // Rough pre-size: ~160 bytes per event line.
    let mut out = String::with_capacity(64 + 160 * trace.total_events());
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for pe in 0..trace.pes() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{pe},\
             \"args\":{{\"name\":\"PE {pe}\"}}}}"
        ));
    }
    for evs in &trace.per_pe {
        for e in evs {
            out.push_str(",\n");
            // Integer-nanosecond precision in a µs field: print as x.yyy.
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":0,\"tid\":{}",
                e.kind.name(),
                cat_name(e.cat),
                e.t0 / 1000,
                e.t0 % 1000,
                e.dur() / 1000,
                e.dur() % 1000,
                e.pe,
            ));
            out.push_str(",\"args\":{");
            out.push_str(&format!("\"bytes\":{}", e.bytes));
            if let Some(p) = e.peer {
                out.push_str(&format!(",\"peer\":{p}"));
            }
            if let Some(d) = e.dep {
                out.push_str(&format!(",\"dep_pe\":{},\"dep_t_ns\":{}", d.pe, d.t));
            }
            out.push_str("}}");
        }
    }
    // Interconnect resource occupancy (o2k-net, ContentionMode::Queued or
    // Fabric) renders as a second process: one track per resource — link,
    // or under the fabric a node bus / hub port — that carried traffic or
    // had a fault scheduled.
    if !trace.link_spans.is_empty() || !trace.link_faults.is_empty() {
        let mut used: Vec<bool> = vec![false; trace.link_names.len()];
        for s in &trace.link_spans {
            if let Some(u) = used.get_mut(s.link as usize) {
                *u = true;
            }
        }
        for s in &trace.link_faults {
            if let Some(u) = used.get_mut(s.link as usize) {
                *u = true;
            }
        }
        out.push_str(
            ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{\"name\":\"interconnect\"}}",
        );
        for (link, name) in trace.link_names.iter().enumerate() {
            if used[link] {
                out.push_str(&format!(
                    ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{link},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ));
            }
        }
        for s in &trace.link_spans {
            let dur = s.t1 - s.t0;
            out.push_str(&format!(
                ",\n{{\"name\":\"xfer\",\"cat\":\"link\",\"ph\":\"X\",\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"bytes\":{},\"pe\":{}}}}}",
                s.t0 / 1000,
                s.t0 % 1000,
                dur / 1000,
                dur % 1000,
                s.link,
                s.bytes,
                s.pe,
            ));
        }
        // Fault intervals overlay the same tracks so a dead or degraded
        // window is visible right where the transfers queue.
        for s in &trace.link_faults {
            let dur = s.t1 - s.t0;
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"X\",\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
                 \"args\":{{}}}}",
                s.label,
                s.t0 / 1000,
                s.t0 % 1000,
                dur / 1000,
                dur % 1000,
                s.link,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render a fixed-width per-PE timeline: each column is a time bucket,
/// each cell shows the category that dominated the bucket.
///
/// Legend: `#` busy, `m` local memory, `r` remote, `.` sync wait,
/// space = untraced.
pub fn text_timeline(trace: &Trace, width: usize) -> String {
    let width = width.max(8);
    let finish = trace.finish();
    let mut out = String::new();
    if finish == 0 {
        out.push_str("(empty trace)\n");
        return out;
    }
    out.push_str(&format!(
        "timeline 0..{finish} ns, {} ns/col  [#=busy m=local r=remote .=sync]\n",
        finish.div_ceil(width as u64)
    ));
    let bucket = finish.div_ceil(width as u64).max(1);
    for (pe, evs) in trace.per_pe.iter().enumerate() {
        // Per-bucket per-category occupancy, picked by max time.
        let mut occ = vec![[0u64; 4]; width];
        for e in evs {
            let ci = match e.cat {
                TimeCat::Busy => 0,
                TimeCat::Local => 1,
                TimeCat::Remote => 2,
                TimeCat::Sync => 3,
            };
            let first = (e.t0 / bucket) as usize;
            let last = (((e.t1 - 1) / bucket) as usize).min(width - 1);
            for (b, slot) in occ.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = e.t0.max(b as u64 * bucket);
                let hi = e.t1.min((b as u64 + 1) * bucket);
                slot[ci] += hi.saturating_sub(lo);
            }
        }
        let glyphs = ['#', 'm', 'r', '.'];
        let row: String = occ
            .iter()
            .map(|slot| {
                let (best, &t) = slot
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, t)| (*t, std::cmp::Reverse(i)))
                    .expect("4 categories");
                if t == 0 {
                    ' '
                } else {
                    glyphs[best]
                }
            })
            .collect();
        out.push_str(&format!("PE {pe:>3} |{row}|\n"));
    }
    out
}

/// Tabulate total event time per kind across all PEs, descending, as
/// `(kind, total_ns, event_count)`.
fn kind_totals(trace: &Trace) -> Vec<(EventKind, u64, u64)> {
    let mut time = [0u64; EventKind::ALL.len()];
    let mut count = [0u64; EventKind::ALL.len()];
    for evs in &trace.per_pe {
        for e in evs {
            time[e.kind.index()] += e.dur();
            count[e.kind.index()] += 1;
        }
    }
    let mut rows: Vec<(EventKind, u64, u64)> = EventKind::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| count[i] > 0)
        .map(|(i, &k)| (k, time[i], count[i]))
        .collect();
    rows.sort_by_key(|&(_, t, _)| std::cmp::Reverse(t));
    rows
}

/// Human-readable per-kind summary of a trace.
pub fn summary(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} PEs, {} events, finish {} ns\n",
        trace.pes(),
        trace.total_events(),
        trace.finish()
    ));
    out.push_str(&format!(
        "{:<18} {:>14} {:>10}\n",
        "kind", "total ns", "events"
    ));
    for (kind, t, n) in kind_totals(trace) {
        out.push_str(&format!("{:<18} {:>14} {:>10}\n", kind.name(), t, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ev, Dep, Event};

    fn sample() -> Trace {
        let mut send = ev(0, 10, 14, EventKind::Send, TimeCat::Remote);
        send.peer = Some(1);
        send.bytes = 64;
        let mut wait = ev(1, 0, 20, EventKind::RecvWait, TimeCat::Sync);
        wait.dep = Some(Dep { pe: 0, t: 14 });
        Trace::new(vec![
            vec![ev(0, 0, 10, EventKind::Compute, TimeCat::Busy), send],
            vec![wait],
        ])
    }

    #[test]
    fn chrome_json_is_wellformed_and_complete() {
        let json = to_chrome_json(&sample());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"dep_pe\":0"));
        // 2 metadata + 3 slices.
        assert_eq!(json.matches("\"ph\":").count(), 5);
        // Balanced braces (structural sanity without a JSON parser).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn chrome_ts_has_ns_precision() {
        let t = Trace::new(vec![vec![ev(
            0,
            1234,
            2500,
            EventKind::Compute,
            TimeCat::Busy,
        )]]);
        let json = to_chrome_json(&t);
        assert!(json.contains("\"ts\":1.234"), "{json}");
        assert!(json.contains("\"dur\":1.266"), "{json}");
    }

    #[test]
    fn timeline_marks_categories() {
        let text = text_timeline(&sample(), 10);
        assert!(text.contains("PE   0"));
        assert!(text.contains('#'));
        assert!(text.contains('.'));
    }

    #[test]
    fn kind_totals_sorted_desc() {
        let rows = kind_totals(&sample());
        assert_eq!(rows[0].0, EventKind::RecvWait);
        assert_eq!(rows[0].1, 20);
        assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn summary_mentions_all_present_kinds() {
        let s = summary(&sample());
        for needle in ["compute", "send", "recv_wait", "3 events"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn link_spans_export_as_their_own_process() {
        use crate::LinkSpan;
        let mut t = sample();
        t.link_names = vec!["node0→rtr0".into(), "rtr0→node1".into()];
        t.link_spans = vec![
            LinkSpan {
                link: 1,
                t0: 10,
                t1: 1510,
                bytes: 64,
                pe: 0,
            },
            LinkSpan {
                link: 1,
                t0: 1510,
                t1: 3010,
                bytes: 64,
                pe: 1,
            },
        ];
        let json = to_chrome_json(&t);
        assert!(json.contains("\"name\":\"interconnect\""), "{json}");
        assert!(json.contains("rtr0→node1"));
        assert!(
            !json.contains("node0→rtr0"),
            "links without traffic get no track"
        );
        assert!(json.contains("\"pid\":1,\"tid\":1"));
        assert!(json.contains("\"ts\":1.510,\"dur\":1.500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // PE tracks are untouched by link data.
        assert!(json.contains("\"name\":\"PE 0\""));
    }

    #[test]
    fn fault_spans_export_on_link_tracks() {
        use crate::FaultSpan;
        let mut t = sample();
        t.link_names = vec!["node0→rtr0".into(), "rtr0→rtr1".into()];
        // No transfer spans at all: the fault alone must open the
        // interconnect process and its track.
        t.link_faults = vec![FaultSpan {
            link: 1,
            t0: 500,
            t1: 2500,
            label: "fault:kill".into(),
        }];
        let json = to_chrome_json(&t);
        assert!(json.contains("\"name\":\"interconnect\""), "{json}");
        assert!(json.contains("\"name\":\"fault:kill\""), "{json}");
        assert!(json.contains("\"cat\":\"fault\""));
        assert!(json.contains("rtr0→rtr1"));
        assert!(!json.contains("node0→rtr0"), "unfaulted idle link hidden");
        assert!(json.contains("\"ts\":0.500,\"dur\":2.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::default();
        assert!(text_timeline(&t, 40).contains("empty"));
        assert!(to_chrome_json(&t).contains("traceEvents"));
    }

    #[allow(dead_code)]
    fn event_type_check(e: Event) -> u32 {
        e.bytes
    }
}
