//! The protocol-aware passes, built on the workspace [`CallGraph`]:
//!
//! * `durability_order` — acknowledged-write ordering. Starting from
//!   `// xk-analyze: root(durability_order)` functions, walk bodies in
//!   event order tracking whether a durability barrier (fsync) has
//!   happened, following calls with the caller's state. An **ack**
//!   (function annotated `protocol(durability_order, ack)`) or a
//!   **publish** (annotated `publish`, or the `rename` builtin) reached
//!   while unsynced is a finding. A **sync** is `sync_all`/`sync_data`/
//!   `fsync`, pager `sync`, a function annotated `sync`, or any call
//!   that *may* transitively sync (over-approximating the barrier
//!   under-reports violations — the safe direction for a gate; the
//!   fixtures pin the exact semantics).
//! * `reactor_blocking` — from `root(reactor_blocking)` functions
//!   (reactor-thread entry points), every reachable function must not
//!   block: no file I/O / fsync / condvar-or-channel waits / sleeps /
//!   joins (builtin table), no pager I/O, and no acquisition of a lock
//!   declared `protocol(reactor_blocking, contended)`.
//! * `unsafe_audit` — every `unsafe` fn/block/impl/trait in the
//!   workspace (vendored crates included) needs an adjacent
//!   `// SAFETY:` comment naming its invariant.

use crate::callgraph::CallGraph;
use crate::model::{Event, Model};
use crate::passes::Finding;
use std::collections::BTreeSet;

/// Direct fsync-class calls. `sync` counts when the receiver chain
/// names a pager (same convention as `io_under_lock`'s pager test).
const SYNC_BUILTINS: &[&str] = &["sync_all", "sync_data", "fsync", "datasync"];

/// Direct publish-class calls: atomic renames make staged bytes
/// authoritative.
const PUBLISH_BUILTINS: &[&str] = &["rename"];

/// Calls that can block the calling thread. `wait` on an `epoll`
/// receiver is exempt — that *is* the reactor's scheduling point.
const BLOCKING_BUILTINS: &[&str] = &[
    "sync_all", "sync_data", "fsync", "wait", "wait_timeout", "wait_while", "wait_timeout_while",
    "recv", "recv_timeout", "join", "sleep", "rename", "remove_file", "remove_dir_all",
    "create_dir_all", "read_to_string", "copy", "canonicalize", "read_dir",
];

fn is_pager_io(name: &str, chain: &[String]) -> bool {
    matches!(name, "read_page" | "write_page" | "sync" | "grow")
        && chain.iter().any(|c| c == "pager")
}

pub struct ProtocolPasses<'m> {
    pub model: &'m Model,
    pub cg: &'m CallGraph,
    /// Per-function guard class for guard-returning helpers (from the
    /// lock passes' summaries).
    pub guard_class: &'m [Option<usize>],
}

impl ProtocolPasses<'_> {
    pub fn run(&self, out: &mut Vec<Finding>) {
        self.durability_order(out);
        self.reactor_blocking(out);
        self.unsafe_audit(out);
    }

    fn role(&self, id: usize) -> Option<&str> {
        self.model.protocol_role(id, "durability_order")
    }

    /// `may_sync[f]`: f can execute a durability barrier — a sync
    /// builtin, pager sync, a `protocol(durability_order, sync)`
    /// function, or transitively any of those.
    fn compute_may_sync(&self) -> Vec<bool> {
        let model = self.model;
        let mut may: Vec<bool> = model
            .functions
            .iter()
            .enumerate()
            .map(|(id, f)| {
                self.role(id) == Some("sync")
                    || f.events.iter().any(|ev| match ev {
                        Event::Call { name, chain, .. } => {
                            SYNC_BUILTINS.contains(&name.as_str())
                                || is_pager_io(name, chain) && name == "sync"
                        }
                        _ => false,
                    })
            })
            .collect();
        loop {
            let mut changed = false;
            for id in 0..model.functions.len() {
                if may[id] {
                    continue;
                }
                if self.cg.adj[id].iter().any(|&c| may[c]) {
                    may[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        may
    }

    fn durability_order(&self, out: &mut Vec<Finding>) {
        let model = self.model;
        let may_sync = self.compute_may_sync();
        let roots: Vec<usize> = (0..model.functions.len())
            .filter(|&id| model.is_root(id, "durability_order"))
            .collect();
        if roots.is_empty() {
            return;
        }
        // Worklist over (function, entry-synced): a function is analyzed
        // once per entry state it is reachable in. Roots enter unsynced.
        let mut seen: BTreeSet<(usize, bool)> = BTreeSet::new();
        let mut queue: Vec<(usize, bool)> = roots.iter().map(|&r| (r, false)).collect();
        let mut reported: BTreeSet<(usize, u32, &'static str, String)> = BTreeSet::new();
        while let Some((id, entry)) = queue.pop() {
            if !seen.insert((id, entry)) {
                continue;
            }
            let f = &model.functions[id];
            let file = &model.files[f.file];
            let mut synced = entry;
            let mut site = self.cg.sites[id].iter().peekable();
            for (ev_idx, ev) in f.events.iter().enumerate() {
                let Event::Call { name, chain, line, .. } = ev else { continue };
                let line = *line;
                let callees: &[usize] = match site.peek() {
                    Some(s) if s.ev == ev_idx => {
                        let s = site.next().expect("peeked");
                        &s.callees
                    }
                    _ => &[],
                };
                let is_ack = callees.iter().any(|&c| self.role(c) == Some("ack"));
                let is_publish = PUBLISH_BUILTINS.contains(&name.as_str())
                    || callees.iter().any(|&c| self.role(c) == Some("publish"));
                if !synced {
                    let kind = if is_ack {
                        Some("ack_before_sync")
                    } else if is_publish {
                        Some("publish_before_sync")
                    } else {
                        None
                    };
                    if let Some(kind) = kind {
                        if !file.allowed("durability_order", line)
                            && reported.insert((f.file, line, kind, name.clone()))
                        {
                            out.push(Finding {
                                pass: "durability_order",
                                file: file.path.clone(),
                                line,
                                qname: f.qname.clone(),
                                kind: kind.into(),
                                detail: name.clone(),
                            });
                        }
                    }
                }
                // Callees run with the state at the call; their own
                // bodies order any internal sync against later events.
                for &c in callees {
                    queue.push((c, synced));
                }
                let sync_here = SYNC_BUILTINS.contains(&name.as_str())
                    || is_pager_io(name, chain) && name == "sync"
                    || callees.iter().any(|&c| may_sync[c]);
                if sync_here {
                    synced = true;
                }
            }
        }
    }

    fn reactor_blocking(&self, out: &mut Vec<Finding>) {
        let model = self.model;
        let roots: Vec<usize> = (0..model.functions.len())
            .filter(|&id| model.is_root(id, "reactor_blocking"))
            .collect();
        if roots.is_empty() {
            return;
        }
        let reach = self.cg.reachable(roots);
        for (id, f) in model.functions.iter().enumerate() {
            if !reach[id] {
                continue;
            }
            let file = &model.files[f.file];
            let mut site = self.cg.sites[id].iter().peekable();
            for (ev_idx, ev) in f.events.iter().enumerate() {
                match ev {
                    Event::Acquire { class, line, .. }
                        if model.lock_is_contended(*class)
                            && !file.allowed("reactor_blocking", *line) =>
                    {
                        out.push(Finding {
                            pass: "reactor_blocking",
                            file: file.path.clone(),
                            line: *line,
                            qname: f.qname.clone(),
                            kind: "contended_lock".into(),
                            detail: model.lock_classes[*class].label(),
                        });
                    }
                    Event::Call { name, chain, line, .. } => {
                        let callees: &[usize] = match site.peek() {
                            Some(s) if s.ev == ev_idx => {
                                let s = site.next().expect("peeked");
                                &s.callees
                            }
                            _ => &[],
                        };
                        let epoll_wait = chain.last().is_some_and(|c| c == "epoll");
                        let blocking_builtin =
                            BLOCKING_BUILTINS.contains(&name.as_str()) && !epoll_wait;
                        let contended_guard = callees.iter().any(|&c| {
                            self.guard_class[c]
                                .is_some_and(|cls| model.lock_is_contended(cls))
                        });
                        let kind = if blocking_builtin || is_pager_io(name, chain) {
                            Some("blocking_call")
                        } else if contended_guard {
                            Some("contended_lock")
                        } else {
                            None
                        };
                        if let Some(kind) = kind {
                            if !file.allowed("reactor_blocking", *line) {
                                out.push(Finding {
                                    pass: "reactor_blocking",
                                    file: file.path.clone(),
                                    line: *line,
                                    qname: f.qname.clone(),
                                    kind: kind.into(),
                                    detail: name.clone(),
                                });
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    fn unsafe_audit(&self, out: &mut Vec<Finding>) {
        for (fi, file) in self.model.files.iter().enumerate() {
            for site in &file.unsafe_sites {
                if site.covered || file.allowed("unsafe_audit", site.line) {
                    continue;
                }
                let qname = self
                    .model
                    .function_at(fi, site.line)
                    .map(|f| f.qname.clone())
                    .unwrap_or_default();
                out.push(Finding {
                    pass: "unsafe_audit",
                    file: file.path.clone(),
                    line: site.line,
                    qname,
                    kind: "missing_safety".into(),
                    detail: site.context.clone(),
                });
            }
        }
    }
}
