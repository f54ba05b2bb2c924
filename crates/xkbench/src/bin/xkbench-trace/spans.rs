//! Spans recorded from the benchmark's side of each layer boundary,
//! kept in memory and written out when the run ends. Spans inside the
//! program are the ROADMAP's stage clock — a later change.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for a `request`.
    pub parent: Option<u64>,
    /// Shared by every span of one request.
    pub request: u64,
    pub workload: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span and returns the span's id with `f`'s
    /// value. `f` also returns the counts to attach.
    pub fn span<R>(
        &mut self,
        workload: &'static str,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> (R, Vec<(&'static str, u64)>),
    ) -> (u64, R) {
        let id = self.spans.len() as u64;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let (value, counts) = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            workload,
            name,
            start_ns,
            end_ns,
            counts,
        });
        (id, value)
    }

    /// Self time of every span: its duration minus its children's. The
    /// children here are *replays* run after the round trip, so a child
    /// can outlast the part of the parent it stands for; self time is
    /// floored at zero.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .map(|s| {
                (s.end_ns - s.start_ns).saturating_sub(children.get(&s.id).copied().unwrap_or(0))
            })
            .collect()
    }

    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + header.len() + 64);
        write!(out, "{{{header},\"spans\":[").expect("write to String");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"workload\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.id, s.request, s.workload, s.name, s.start_ns, s.end_ns
            )
            .expect("write to String");
            for (j, (k, v)) in s.counts.iter().enumerate() {
                write!(out, "{}\"{k}\":{v}", if j > 0 { "," } else { "" })
                    .expect("write to String");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
