//! Benchmark-side spans around each call the load generator makes into
//! the program. Recorded only in the traced pass; the untraced pass pays
//! one predictable branch per site.

use std::time::Instant;

/// The call sites the benchmark wraps. `Op` is the root of every
/// operation; everything else is one of its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Site {
    Op,
    WorldSend,
    WorldStep,
    WorldRecv,
    KvPut,
    KvGet,
    KvService,
    KvFlush,
    SessionTick,
}

impl Site {
    pub const ALL: [Site; 9] = [
        Site::Op,
        Site::WorldSend,
        Site::WorldStep,
        Site::WorldRecv,
        Site::KvPut,
        Site::KvGet,
        Site::KvService,
        Site::KvFlush,
        Site::SessionTick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Site::Op => "op",
            Site::WorldSend => "world.send",
            Site::WorldStep => "world.step",
            Site::WorldRecv => "world.recv",
            Site::KvPut => "kv.put",
            Site::KvGet => "kv.get",
            Site::KvService => "kv.service",
            Site::KvFlush => "kv.flush",
            Site::SessionTick => "session.tick",
        }
    }
}

/// "No parent": the span is a root.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub site: Site,
    /// Index of the enclosing span in the log, or `u32::MAX` for a root.
    pub parent: u32,
    /// The operation this span belongs to (shared by the whole tree).
    pub op: u32,
    pub start_ns: u64,
    /// Duration, saturating at ~4.29 s (no single call comes close).
    pub dur_ns: u32,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.dur_ns)
    }
}

/// Handle returned by [`SpanLog::enter`]; pass it back to
/// [`SpanLog::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// An in-memory span log, preallocated so recording never reallocates
/// inside the timed window; written out (if asked) when the run ends.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    current: u32,
    op: u32,
    /// Spans dropped because the preallocated log was full.
    pub dropped: u64,
}

impl SpanLog {
    /// A log that records nothing.
    pub fn disabled() -> Self {
        SpanLog {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: ROOT,
            op: 0,
            dropped: 0,
        }
    }

    /// A recording log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            ..SpanLog::disabled()
        }
    }

    /// Opens the root span of operation `op`.
    #[inline]
    pub fn enter_op(&mut self, op: u32) -> Open {
        self.op = op;
        self.enter(Site::Op)
    }

    #[inline]
    pub fn enter(&mut self, site: Site) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(ROOT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            site,
            parent: self.current,
            op: self.op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.current = idx;
        Open(idx)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == ROOT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.0 as usize];
        span.dur_ns = u32::try_from(now - span.start_ns).unwrap_or(u32::MAX);
        self.current = span.parent;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-site totals: `(count, total ns, self ns)`, indexed like
    /// [`Site::ALL`]. Self time is a span's duration minus the part its
    /// children cover (children never overlap: one thread, strict
    /// nesting).
    pub fn totals(&self) -> [(u64, u64, u64); Site::ALL.len()] {
        let mut out = [(0u64, 0u64, 0u64); Site::ALL.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let dur = u64::from(s.dur_ns);
            if s.parent != ROOT {
                child_ns[s.parent as usize] += dur;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = u64::from(s.dur_ns);
            let slot = &mut out[s.site as usize];
            slot.0 += 1;
            slot.1 += dur;
            slot.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Renders every span as a JSON array (name, start, end, parent, op).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.site.name(),
                s.start_ns,
                s.end_ns(),
                s.op
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let op = log.enter_op(0);
        let s = log.enter(Site::WorldSend);
        log.exit(s);
        log.exit(op);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::with_capacity(8);
        let op = log.enter_op(7);
        let a = log.enter(Site::WorldSend);
        log.exit(a);
        let b = log.enter(Site::WorldStep);
        log.exit(b);
        log.exit(op);
        // Pin the clock readings so the arithmetic is checkable.
        let times = [(0u64, 100u64), (10, 30), (40, 90)];
        for (s, (st, en)) in log.spans.iter_mut().zip(times) {
            s.start_ns = st;
            s.dur_ns = (en - st) as u32;
        }
        let t = log.totals();
        assert_eq!(t[Site::Op as usize], (1, 100, 30));
        assert_eq!(t[Site::WorldSend as usize], (1, 20, 20));
        assert_eq!(t[Site::WorldStep as usize], (1, 50, 50));
        assert!(log.spans().iter().all(|s| s.op == 7));
        assert_eq!(log.spans()[1].parent, 0);
        assert!(log.to_json().contains("\"name\":\"world.step\""));
    }

    #[test]
    fn full_log_drops_instead_of_growing() {
        let mut log = SpanLog::with_capacity(1);
        let op = log.enter_op(0);
        let s = log.enter(Site::KvPut);
        log.exit(s);
        log.exit(op);
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.dropped, 1);
    }
}
