//! The 10-NN request, untraced and traced, the closed-loop dispatcher
//! the clients share, and the per-layer metrics every workload reports
//! from its traced queries.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use vsim_index::{BufferPool, CandidateSource, QueryContext, StoreResult, VectorSetStore};
use vsim_query::FilterRefineIndex;
use vsim_setdist::{
    extended_centroid, MatchingEngine, MinimalMatching, PrefilteredDistance, VectorSet,
};

use crate::check::Hits;
use crate::inputs::{DIM, KQ, K_COVERS};
use crate::report::{percentile, Report};
use crate::trace::{Breakdown, Span};

/// Largest share of traced request time the layer spans may leave
/// uncovered: the layers' self times, without the recorder's own
/// `trace` spans, must add up to at least `1 - TRACE_TOLERANCE` of the
/// request time.
pub const TRACE_TOLERANCE: f64 = 0.05;

/// Requests the traced run replays: the first of the seeded list.
/// Each records a few thousand spans, all kept in memory.
pub const TRACED_REQUESTS: usize = 100;

/// Matching-kernel outcome tags on `setdist.refine` spans.
pub const EXACT: u8 = 0;
pub const PRUNED_F32: u8 = 1;
pub const PRUNED: u8 = 2;

/// Outcome tags on `index.heap_get` spans: only every `PROBE_EVERY`-th
/// get of a request is classified as a pool hit or miss, because
/// reading the counters around a get costs about as much as the get.
pub const GET_HIT: u8 = 0;
pub const GET_MISS: u8 = 1;
pub const GET_UNPROBED: u8 = 2;
pub const PROBE_EVERY: u32 = 8;

/// Hands out request numbers to closed-loop clients until a limit the
/// controller sets when the run's time is up.
pub struct Dispatcher {
    state: Mutex<(usize, usize)>,
}

impl Dispatcher {
    pub fn new(limit: usize) -> Self {
        Dispatcher { state: Mutex::new((0, limit)) }
    }

    pub fn next(&self) -> Option<usize> {
        let mut s = self.state.lock().expect("a client panicked while dispatching");
        (s.0 < s.1).then(|| {
            s.0 += 1;
            s.0 - 1
        })
    }

    /// Stop at the end of the current pass over a `pass`-request list,
    /// so every request of the list ran equally often.
    pub fn stop_after_pass(&self, pass: usize) {
        let mut s = self.state.lock().expect("a client panicked while dispatching");
        s.1 = s.0.div_ceil(pass).max(1) * pass;
    }

    pub fn stop_now(&self) {
        let mut s = self.state.lock().expect("a client panicked while dispatching");
        s.1 = s.0;
    }
}

/// One planned 10-NN query through the index's own entry point.
pub fn knn(index: &FilterRefineIndex, q: &VectorSet, ctx: &QueryContext) -> StoreResult<Hits> {
    let path = index.plan_knn(KQ).path;
    index.knn_via_with(path, q, KQ, ctx)
}

/// A candidate stream that records each pull as an `index.cursor` span.
struct TimedSource<'a> {
    inner: &'a mut dyn CandidateSource,
    tr: &'a crate::trace::Tracer,
}

impl CandidateSource for TimedSource<'_> {
    fn next_candidate(&mut self) -> Option<(u64, f64)> {
        self.tr.span("index.cursor", || self.inner.next_candidate())
    }
}

/// Per-request counters of the traced query path, summed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub requests: u64,
    pub hits: u64,
    pub pages: u64,
    pub heap_pages: u64,
    pub bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    pub refinements: u64,
    pub filter_steps: u64,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        self.requests += o.requests;
        self.hits += o.hits;
        self.pages += o.pages;
        self.heap_pages += o.heap_pages;
        self.bytes += o.bytes;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.evictions += o.evictions;
        self.refinements += o.refinements;
        self.filter_steps += o.filter_steps;
    }

    /// Count a finished request from its contexts' counters.
    pub fn record(&mut self, c: &TracedContexts, hits: usize) {
        let t = c.tree.stats(Duration::ZERO);
        let h = c.heap.stats(Duration::ZERO);
        self.requests += 1;
        self.hits += hits as u64;
        self.pages += t.io.pages + h.io.pages;
        self.heap_pages += h.io.pages;
        self.bytes += t.io.bytes + h.io.bytes;
        self.cache_hits += t.cache.hits + h.cache.hits;
        self.cache_misses += t.cache.misses + h.cache.misses;
        self.evictions += t.cache.evictions + h.cache.evictions;
        self.refinements += t.refinements;
        self.filter_steps += t.filter_steps;
    }
}

/// The two contexts of one traced request, reading through the same
/// buffer pool: `tree` for the plan, the pin and the candidate stream,
/// `heap` for the record gets. Their counters split the request's
/// pages by layer without reading counters around every call, and
/// sum to what one context over the pool would count.
pub struct TracedContexts {
    pub tree: QueryContext,
    pub heap: QueryContext,
}

impl TracedContexts {
    pub fn over(pool: &Arc<BufferPool>) -> Self {
        TracedContexts {
            tree: QueryContext::with_pool(Arc::clone(pool)),
            heap: QueryContext::with_pool(Arc::clone(pool)),
        }
    }

    /// A fresh unbounded pool private to the request (the paper's
    /// cold-cache accounting, as `QueryContext::ephemeral`).
    pub fn cold() -> Self {
        Self::over(&BufferPool::unbounded())
    }
}

/// One traced client's spans, counters, and the requests whose traced
/// hits differ from the untraced ones.
#[derive(Default)]
pub struct TracedRun {
    pub spans: Vec<Span>,
    pub tally: Tally,
    pub differ: Vec<usize>,
}

/// Fold traced clients into one breakdown, tally and ascending list of
/// `request.knn` latencies; a differing hit list is a failed check.
pub fn summarise(
    runs: Vec<TracedRun>,
    r: &mut Report,
) -> (Breakdown, Tally, Vec<u64>, Vec<Vec<Span>>) {
    let mut b = Breakdown::default();
    let mut tally = Tally::default();
    let mut lat = Vec::new();
    let mut threads = Vec::new();
    for run in runs {
        for i in run.differ {
            r.problem(format!("request {i}: traced hits differ from the untraced hits"));
        }
        b.add(&run.spans);
        tally.merge(&run.tally);
        lat.extend(crate::trace::durations(&run.spans, "request.knn"));
        threads.push(run.spans);
    }
    lat.sort_unstable();
    (b, tally, lat, threads)
}

/// The same planned 10-NN query composed from the layers' public
/// pieces, with a span around each call: `query.plan`
/// (`plan_knn`), `query.prepare` (engine, prepared query, centroid),
/// `index.source` (`with_candidate_source`), `query.multistep`
/// (`multi_step_knn`), `index.cursor` (each candidate pull),
/// `index.heap_get` (`VectorSetStore::get` on `heap`) and
/// `setdist.refine` (the bounded prefiltered kernel). Every
/// `PROBE_EVERY`-th get sits in a `trace.probe` span whose self time
/// is the counter reads that classify the get as hit or miss.
pub fn traced_knn(
    index: &FilterRefineIndex,
    heap: &VectorSetStore,
    q: &VectorSet,
    c: &TracedContexts,
    tr: &crate::trace::Tracer,
) -> StoreResult<Hits> {
    let ctx = &c.tree;
    let plan = tr.span("query.plan", || index.plan_knn(KQ));
    let (mut engine, pq, cq) = tr.span("query.prepare", || {
        let engine = MatchingEngine::new(MinimalMatching::vector_set_model());
        let pq = engine.prepare(q.clone());
        let cq = extended_centroid(q, K_COVERS, &[0.0; DIM]);
        (engine, pq, cq)
    });
    let mut gets = 0u32;
    let source = tr.enter("index.source");
    let hits = index.with_candidate_source(plan.path, &cq, ctx, |src| {
        let mut timed = TimedSource { inner: src, tr };
        tr.span("query.multistep", || {
            vsim_query::multi_step_knn(&mut timed, KQ, ctx, |id, upper| {
                gets += 1;
                let set = if gets.is_multiple_of(PROBE_EVERY) {
                    let probe = tr.enter("trace.probe");
                    let before = c.heap.stats(Duration::ZERO).cache.misses;
                    let get = tr.enter("index.heap_get");
                    let set = heap.get(id, &c.heap);
                    tr.exit(get);
                    let missed = c.heap.stats(Duration::ZERO).cache.misses > before;
                    tr.exit(probe);
                    tr.tag(get, if missed { GET_MISS } else { GET_HIT });
                    set
                } else {
                    let get = tr.enter("index.heap_get");
                    let set = heap.get(id, &c.heap);
                    tr.exit(get);
                    tr.tag(get, GET_UNPROBED);
                    set
                }?;
                let kernel = tr.enter("setdist.refine");
                let d = engine.distance_bounded_prefiltered_half(&pq, &set, upper);
                tr.exit(kernel);
                Ok(match d {
                    PrefilteredDistance::Exact(d) => Some(d),
                    PrefilteredDistance::PrunedByF32 => {
                        tr.tag(kernel, PRUNED_F32);
                        ctx.count_f32_prefilter(1);
                        None
                    }
                    PrefilteredDistance::Pruned => {
                        tr.tag(kernel, PRUNED);
                        None
                    }
                })
            })
        })
    });
    tr.exit(source);
    hits
}

/// The declared per-layer metrics, from the traced queries' spans and
/// counters. `untraced_p50_ns` is the same workload's untraced p50;
/// `traced_ns` the traced query latencies, ascending.
pub fn layer_metrics(
    r: &mut Report,
    b: &Breakdown,
    t: &Tally,
    untraced_p50_ns: u64,
    traced_ns: &[u64],
) {
    let q = t.requests.max(1) as f64;
    let n = t.requests;
    let kernel = b.all("setdist.refine");
    let calls = kernel.calls.max(1) as f64;
    let query_ns = b.all("query.plan").self_ns
        + b.all("query.prepare").self_ns
        + b.all("query.multistep").self_ns;
    // Shares are of the time the k-NN requests spend in the layers, so
    // the recorder's own work does not dilute them.
    let knn = b.all("request.knn");
    let recorder_ns = b.all("trace.probe").self_ns + b.all("trace.lookup").self_ns;
    let layers_ns = knn.total_ns.saturating_sub(knn.self_ns + recorder_ns).max(1) as f64;
    let setdist_ns = kernel.self_ns;
    r.layer("setdist.refine_us", kernel.total_ns as f64 / calls / 1e3, "us", kernel.calls);
    r.layer("setdist.calls_per_q", kernel.calls as f64 / q, "count", n);
    let f32 = b.stat("setdist.refine", |t| t == PRUNED_F32).calls;
    r.layer("setdist.f32_pruned_ratio", f32 as f64 / calls, "ratio", kernel.calls);
    let exact = b.stat("setdist.refine", |t| t == EXACT).calls;
    r.layer("setdist.exact_ratio", exact as f64 / calls, "ratio", kernel.calls);
    r.layer("setdist.self_share", setdist_ns as f64 / layers_ns, "ratio", n);
    r.layer("query.filter_steps_per_q", t.filter_steps as f64 / q, "count", n);
    r.layer("query.refinements_per_q", t.refinements as f64 / q, "count", n);
    r.layer("query.useful_ratio", t.hits as f64 / t.refinements.max(1) as f64, "ratio", n);
    r.layer("query.self_us_per_q", query_ns as f64 / q / 1e3, "us", n);
    let cursor_ns = b.all("index.source").self_ns + b.all("index.cursor").total_ns;
    r.layer("index.cursor_us_per_q", cursor_ns as f64 / q / 1e3, "us", n);
    r.layer("index.tree_pages_per_q", (t.pages - t.heap_pages) as f64 / q, "count", n);
    r.layer("index.heap_pages_per_q", t.heap_pages as f64 / q, "count", n);
    let get = b.all("index.heap_get");
    r.layer(
        "index.heap_get_us",
        get.total_ns as f64 / get.calls.max(1) as f64 / 1e3,
        "us",
        get.calls,
    );
    let lookups = (t.cache_hits + t.cache_misses).max(1) as f64;
    r.layer("store.hit_ratio", t.cache_hits as f64 / lookups, "ratio", n);
    r.layer("store.misses_per_q", t.cache_misses as f64 / q, "count", n);
    r.layer("store.evictions_per_q", t.evictions as f64 / q, "count", n);
    r.layer("store.bytes_per_q", t.bytes as f64 / q, "B", n);
    let miss = b.stat("index.heap_get", |t| t == GET_MISS);
    let hit = b.stat("index.heap_get", |t| t == GET_HIT);
    r.layer(
        "store.miss_get_us",
        miss.total_ns as f64 / miss.calls.max(1) as f64 / 1e3,
        "us",
        miss.calls,
    );
    r.layer(
        "store.hit_get_us",
        hit.total_ns as f64 / hit.calls.max(1) as f64 / 1e3,
        "us",
        hit.calls,
    );
    let traced_p50 = percentile(traced_ns, 0.5);
    r.layer(
        "trace.overhead_ratio",
        traced_p50 as f64 / untraced_p50_ns.max(1) as f64,
        "ratio",
        traced_ns.len() as u64,
    );
    let unaccounted = b.unaccounted_share();
    r.layer("trace.unaccounted_share", unaccounted, "ratio", b.requests);
    let covered = b.accounted_ns() as f64 / b.request_ns.max(1) as f64;
    r.require(covered >= 1.0 - TRACE_TOLERANCE, || {
        format!(
            "layer self times add up to {:.2}% of traced request time (tolerance {:.0}%)",
            100.0 * covered,
            100.0 * TRACE_TOLERANCE
        )
    });
}
