//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: its name
//! (`layer.op`), the request it belongs to, its parent span, start and
//! end. Spans stay in memory while the run goes and are written out at
//! the end. A span's *self time* is its duration minus the time its
//! child spans cover; the layers' self times plus the request roots'
//! own self time add up to the request time. Spans of the `trace`
//! layer time the recorder's own work (reading counters to classify a
//! call, finding a replica); they and the roots' self time are the
//! unaccounted part, not a layer's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Roots named `request.*` are client requests; other roots (the
/// churn replica's component calls) are standalone measurements.
pub const REQUEST_PREFIX: &str = "request.";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Outcome tag set after the call (heap get: 0 pool hit, 1 a page
    /// missed, 2 not classified; matching kernel: 0 exact, 1 pruned by
    /// f32, 2 pruned by f64).
    pub tag: u8,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span buffer. Shared by reference between the closures
/// of one request, hence the `RefCell`; never shared across threads.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Buffer>,
}

struct Buffer {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            inner: RefCell::new(Buffer { spans: Vec::new(), open: Vec::new(), request: 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; the clock is read last so bookkeeping lands in the
    /// parent, not in the timed call.
    pub fn enter(&self, name: &'static str) -> u32 {
        let mut b = self.inner.borrow_mut();
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied().unwrap_or(ROOT);
        let request = b.request;
        b.open.push(id);
        b.spans.push(Span { name, request, parent, start_ns: 0, end_ns: 0, tag: 0 });
        drop(b);
        let t = self.now_ns();
        self.inner.borrow_mut().spans[id as usize].start_ns = t;
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&self, id: u32) {
        let t = self.now_ns();
        let mut b = self.inner.borrow_mut();
        assert_eq!(b.open.pop(), Some(id), "spans must close innermost first");
        b.spans[id as usize].end_ns = t;
    }

    pub fn tag(&self, id: u32, tag: u8) {
        self.inner.borrow_mut().spans[id as usize].tag = tag;
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Open a request root; spans entered until it closes belong to it.
    pub fn begin_request(&self, name: &'static str, request: u32) -> u32 {
        self.inner.borrow_mut().request = request;
        self.enter(name)
    }

    pub fn into_spans(self) -> Vec<Span> {
        let b = self.inner.into_inner();
        assert!(b.open.is_empty(), "a span was left open");
        b.spans
    }
}

/// Self time per layer, summed over the request roots of a set of span
/// buffers (one buffer per thread; parent indices are buffer-local).
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    pub requests: u64,
    /// Sum of request-root durations.
    pub request_ns: u64,
    /// Self time of each layer inside requests (`request` = unaccounted).
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Per span name and tag, over every span.
    pub by_name: BTreeMap<(&'static str, u8), NameStat>,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct NameStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Breakdown {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        // A span is inside a request iff its root is a request root.
        let mut in_request = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            in_request[i] = if s.parent == ROOT {
                s.name.starts_with(REQUEST_PREFIX)
            } else {
                in_request[s.parent as usize]
            };
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            let e = self.by_name.entry((s.name, s.tag)).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += own;
            if !in_request[i] {
                continue;
            }
            if s.parent == ROOT {
                self.requests += 1;
                self.request_ns += s.dur_ns();
            }
            let layer = if s.parent == ROOT { "request" } else { s.layer() };
            *self.layer_self_ns.entry(layer).or_default() += own;
        }
    }

    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0)
    }

    /// Share of request time no layer span covers: the roots' own
    /// self time plus the recorder's `trace` spans.
    pub fn unaccounted_share(&self) -> f64 {
        (self.self_ns("request") + self.self_ns("trace")) as f64 / self.request_ns.max(1) as f64
    }

    /// Sum of the layers' self times (unaccounted part excluded).
    pub fn accounted_ns(&self) -> u64 {
        self.layer_self_ns
            .iter()
            .filter(|(l, _)| !matches!(**l, "request" | "trace"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Sum over the spans named `name` whose tag passes `tag`.
    pub fn stat(&self, name: &str, tag: impl Fn(u8) -> bool) -> NameStat {
        let mut out = NameStat::default();
        for ((n, t), e) in &self.by_name {
            if *n == name && tag(*t) {
                out.calls += e.calls;
                out.total_ns += e.total_ns;
                out.self_ns += e.self_ns;
            }
        }
        out
    }

    pub fn all(&self, name: &str) -> NameStat {
        self.stat(name, |_| true)
    }
}

/// Durations of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// Write every span as one CSV row (`thread,request,span,parent,name,
/// start_ns,end_ns,tag`; `parent` is -1 for a root, span and parent
/// indices are per thread).
pub fn write_spans(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,request,span,parent,name,start_ns,end_ns,tag")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                w,
                "{t},{},{i},{parent},{},{},{},{}",
                s.request, s.name, s.start_ns, s.end_ns, s.tag
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, request: 0, parent, start_ns, end_ns, tag: 0 }
    }

    #[test]
    fn self_times_partition_the_request() {
        let spans = vec![
            span("request.knn", ROOT, 0, 100),
            span("query.multistep", 0, 10, 90),
            span("index.cursor", 1, 20, 30),
            span("setdist.refine", 1, 40, 70),
            span("trace.probe", 1, 75, 85),
            span("replica.xtree_insert", ROOT, 200, 250),
        ];
        let mut b = Breakdown::default();
        b.add(&spans);
        assert_eq!(b.requests, 1);
        assert_eq!(b.request_ns, 100);
        assert_eq!(b.self_ns("request"), 20);
        assert_eq!(b.self_ns("query"), 30);
        assert_eq!(b.self_ns("index"), 10);
        assert_eq!(b.self_ns("setdist"), 30);
        assert_eq!(b.self_ns("trace"), 10);
        assert_eq!(b.accounted_ns(), 70, "recorder spans are not a layer's time");
        assert_eq!(b.unaccounted_share(), 0.3);
        assert_eq!(b.all("replica.xtree_insert").calls, 1);
        assert_eq!(b.all("query.multistep").self_ns, 30);
        assert_eq!(b.self_ns("replica"), 0, "standalone roots are not request time");
    }

    #[test]
    fn recorder_nests_and_attributes_requests() {
        let t = Tracer::new(Instant::now());
        let r = t.begin_request("request.knn", 7);
        t.span("query.plan", || ());
        let g = t.enter("index.heap_get");
        t.tag(g, 1);
        t.exit(g);
        t.exit(r);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].tag, 1);
    }
}
