//! `knn_mem` and `knn_file_evict`: closed-loop planned 10-NN queries
//! over the Aircraft filter/refine index, in memory with a cold pool
//! per query, or saved to a checksummed page file, reopened with pread
//! and read through one shared bounded buffer pool.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;
use vsim_index::{BufferPool, FilePageStore, IoSnapshot, PageStore, QueryContext, VectorSetStore};
use vsim_query::FilterRefineIndex;
use vsim_setdist::VectorSet;

use crate::check::{self, Hits};
use crate::inputs::{query_ids, DIM, KQ, K_COVERS};
use crate::report::{
    median_f64, passes, peak_rss_mb, prefix_p50_ns, repeat_for, setup_median, sim_io_ms, Report,
    Sample,
};
use crate::requests::{self, Dispatcher, TracedContexts, TracedRun, TRACED_REQUESTS};
use crate::trace::{self, Tracer};
use crate::Config;

/// Distinct queries in the seeded request list: most of the dataset in
/// memory, so the tail percentile rests on many queries and the lists
/// of different seeds share most of them; fewer from the page file,
/// whose passes take ten times as long, so a run still holds several.
fn list_len(backing: Backing) -> usize {
    match backing {
        Backing::Memory => 4000,
        Backing::FileEvict => 2000,
    }
}
/// Queries whose hits are checked against the brute-force oracle.
const ORACLE_SAMPLE: usize = 48;
/// Set-up repeats for this long, and at least `SETUP_MIN` times, both
/// before the loop and after it, so `setup_s` draws on the run's whole
/// time rather than one moment of the host.
const SETUP_HALF: Duration = Duration::from_millis(2500);
const SETUP_MIN: usize = 3;
/// Queries of the list that warm the shared pool during set-up.
const WARMUP: usize = 50;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// In memory, a fresh unbounded pool per query (the paper's
    /// cold-cache accounting).
    Memory,
    /// Page file read with pread through one shared pool of a quarter
    /// of the file's pages.
    FileEvict,
}

/// A built index plus how its queries read pages.
struct Served {
    index: FilterRefineIndex,
    pool: Option<Arc<BufferPool>>,
}

impl Served {
    fn context(&self) -> QueryContext {
        match &self.pool {
            Some(p) => QueryContext::with_pool(Arc::clone(p)),
            None => QueryContext::ephemeral(),
        }
    }
}

/// One client's share of the untraced loop.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    io: IoSnapshot,
    failed: u64,
    /// First hits seen per request-list position.
    first: HashMap<usize, Hits>,
    /// Positions whose repeated hits differed from the first ones.
    unstable: Vec<usize>,
}

fn index_file(cfg: &Config) -> PathBuf {
    cfg.work_dir.join(format!("knn_file_evict-{}.vsidx", std::process::id()))
}

pub fn run(cfg: &Config, backing: Backing, sets: &[VectorSet], r: &mut Report) {
    let list = list_len(backing);
    let ids = query_ids(cfg.seed, sets.len(), list);
    let queries: Vec<&VectorSet> = ids.iter().map(|&i| &sets[i]).collect();
    let path = index_file(cfg);

    // Set-up, repeated: build; for the file case also save + reopen and
    // a pool warmed by the first queries of the list.
    let mut times = Vec::new();
    let mut file_pages = 0;
    let mut served = None;
    repeat_for(SETUP_HALF, SETUP_MIN, || {
        drop(served.take());
        let (s, t) = set_up(backing, sets, &queries, &path, &mut file_pages);
        times.push(t);
        served = Some(s);
    });
    let s = served.expect("at least one set-up repetition");
    let stats = s.index.dataset_stats();
    r.fact("n", sets.len());
    r.fact("access_path", s.index.plan_knn(KQ).path);

    // Untraced closed loop: whole passes over the list.
    eprintln!("[run  ] {} clients for {} s ...", cfg.clients, cfg.seconds);
    let disp = Dispatcher::new(usize::MAX);
    let t0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..cfg.clients).map(|_| scope.spawn(|| client(&s, &queries, &disp, t0))).collect();
        std::thread::sleep(Duration::from_secs(cfg.seconds));
        disp.stop_after_pass(list);
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let late = cfg.work_dir.join(format!("knn_file_evict-{}-late.vsidx", std::process::id()));
    repeat_for(SETUP_HALF, SETUP_MIN, || {
        times.push(set_up(backing, sets, &queries, &late, &mut file_pages).1);
    });
    let _ = std::fs::remove_file(&late);
    let setup: Vec<f64> = times.iter().map(|t| t.total_s).collect();
    let builds: Vec<f64> = times.iter().map(|t| t.build_s).collect();
    if backing == Backing::FileEvict {
        let save_opens: Vec<f64> = times.iter().map(|t| t.save_open_s).collect();
        r.fact("file_pages", file_pages);
        r.fact("pool_pages", pool_pages(file_pages));
        r.extra("store.save_open_s", median_f64(&save_opens), "s", save_opens.len() as u64);
    }
    let samples: Vec<Sample> = runs.iter().flat_map(|c| c.samples.iter().copied()).collect();
    let win = passes(&samples, list);
    let io = runs.iter().fold(IoSnapshot::default(), |a, c| a + c.io);
    let done = samples.len() as u64;
    r.attempted += done;
    r.failed += runs.iter().map(|c| c.failed).sum::<u64>();

    // Outputs: every repeat of a request matches its first hits, across
    // clients too, and a seeded sample matches the oracle.
    let mut first: HashMap<usize, Hits> = HashMap::new();
    for c in &runs {
        for &i in &c.unstable {
            r.problem(format!("request {i}: repeated query returned different hits"));
        }
        for (i, h) in &c.first {
            match first.get(i) {
                Some(g) if !check::identical(g, h) => {
                    r.problem(format!("request {i}: clients disagree on the hits"))
                }
                Some(_) => {}
                None => {
                    first.insert(*i, h.clone());
                }
            }
        }
    }
    r.require(first.len() == list, || format!("only {} of {list} requests ran", first.len()));
    check_against_oracle(cfg.seed, sets, &queries, &first, r);

    r.e2e("setup_s", setup_median(&setup), "s", setup.len() as u64);
    r.e2e("knn_qps", win.qps, "1/s", win.samples);
    r.e2e("knn_p50_ms", win.p50_ns as f64 / 1e6, "ms", win.samples);
    r.e2e("knn_p99_ms", win.p99_ns as f64 / 1e6, "ms", win.samples);
    r.extra("knn_p50_all_ms", win.all_p50_ns as f64 / 1e6, "ms", win.all_samples);
    r.extra("knn_p99_all_ms", win.all_p99_ns as f64 / 1e6, "ms", win.all_samples);
    r.e2e("knn_sim_io_ms", sim_io_ms(io, done), "ms", done);
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);

    if cfg.trace {
        let untraced_p50 = prefix_p50_ns(&samples, list, TRACED_REQUESTS);
        traced(cfg, backing, &s, sets, &queries, &first, untraced_p50, r);
    }
    r.layer("index.build_s", setup_median(&builds), "s", builds.len() as u64);
    r.layer("index.xtree_height", stats.xtree_height as f64, "count", 1);
    r.layer("index.xtree_pages", stats.xtree_pages as f64, "count", 1);
    drop(s);
    let _ = std::fs::remove_file(&path);
}

struct SetupTimes {
    total_s: f64,
    build_s: f64,
    save_open_s: f64,
}

fn pool_pages(file_pages: u64) -> usize {
    (file_pages / 4).max(1) as usize
}

/// One set-up: the index build, and for the file case save + reopen
/// with pread and a shared pool warmed by the first queries.
fn set_up(
    backing: Backing,
    sets: &[VectorSet],
    queries: &[&VectorSet],
    path: &Path,
    file_pages: &mut u64,
) -> (Served, SetupTimes) {
    let t0 = Instant::now();
    let built = FilterRefineIndex::build(sets, DIM, K_COVERS);
    let build_s = t0.elapsed().as_secs_f64();
    if backing == Backing::Memory {
        let t = SetupTimes { total_s: build_s, build_s, save_open_s: 0.0 };
        return (Served { index: built, pool: None }, t);
    }
    let t1 = Instant::now();
    built.save(path).expect("saving the index file");
    drop(built);
    let index = FilterRefineIndex::open(path).expect("reopening the index file");
    let save_open_s = t1.elapsed().as_secs_f64();
    if *file_pages == 0 {
        *file_pages = FilePageStore::open(path).expect("index file").allocated_pages();
    }
    let t2 = Instant::now();
    let s = Served { index, pool: Some(BufferPool::new(pool_pages(*file_pages))) };
    for q in &queries[..WARMUP] {
        requests::knn(&s.index, q, &s.context()).expect("warm-up query");
    }
    let total_s = build_s + save_open_s + t2.elapsed().as_secs_f64();
    (s, SetupTimes { total_s, build_s, save_open_s })
}

fn client(s: &Served, queries: &[&VectorSet], disp: &Dispatcher, t0: Instant) -> ClientRun {
    let mut c = ClientRun::default();
    while let Some(n) = disp.next() {
        let i = n % queries.len();
        let ctx = s.context();
        let start = Instant::now();
        let out = requests::knn(&s.index, queries[i], &ctx);
        let end = Instant::now();
        let (start_ns, end_ns) = ((start - t0).as_nanos() as u64, (end - t0).as_nanos() as u64);
        c.samples.push(Sample { n: n as u64, start_ns, end_ns });
        c.io = c.io + ctx.stats(Duration::ZERO).io;
        match out {
            Err(e) => {
                eprintln!("[run  ] request {i} failed: {e}");
                c.failed += 1;
            }
            Ok(h) => match c.first.get(&i) {
                Some(f) if !check::identical(f, &h) => c.unstable.push(i),
                Some(_) => {}
                None => {
                    c.first.insert(i, h);
                }
            },
        }
    }
    c
}

/// Brute-force oracle over all objects for a seeded sample of the
/// list, plus the negative self-test on the first sampled query.
fn check_against_oracle(
    seed: u64,
    sets: &[VectorSet],
    queries: &[&VectorSet],
    first: &HashMap<usize, Hits>,
    r: &mut Report,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c1e);
    let mut verdicts = check::Verdicts::default();
    for _ in 0..ORACLE_SAMPLE {
        let i = rng.gen_range(0..queries.len());
        let Some(hits) = first.get(&i) else { continue };
        let ranking =
            check::oracle(queries[i], sets.iter().enumerate().map(|(id, s)| (id as u64, s)));
        verdicts.check(&ranking, hits, &format!("request {i}"), r);
    }
    verdicts.report(r);
}

/// The traced replay: the list's first requests, with spans around every
/// layer call, refining from a heap file the benchmark builds (or
/// saves and reopens) from the same sets.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &Config,
    backing: Backing,
    s: &Served,
    sets: &[VectorSet],
    queries: &[&VectorSet],
    untraced: &HashMap<usize, Hits>,
    untraced_p50: u64,
    r: &mut Report,
) {
    let heap_path = cfg.work_dir.join(format!("knn_heap-{}.vsheap", std::process::id()));
    let heap = match backing {
        Backing::Memory => VectorSetStore::build(sets),
        Backing::FileEvict => save_and_open_heap(&VectorSetStore::build(sets), &heap_path),
    };
    let pool = s.pool.as_ref().map(|p| BufferPool::new(p.capacity().unwrap_or(1)));
    let ctx = || pool.as_ref().map_or_else(TracedContexts::cold, TracedContexts::over);
    let origin = Instant::now();
    let warm = Tracer::new(origin);
    for q in &queries[..WARMUP] {
        requests::traced_knn(&s.index, &heap, q, &ctx(), &warm).expect("traced warm-up");
    }
    eprintln!("[trace] replaying {TRACED_REQUESTS} requests ...");
    let disp = Dispatcher::new(TRACED_REQUESTS);
    let outs: Vec<TracedRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|_| {
                scope.spawn(|| {
                    let tr = Tracer::new(origin);
                    let mut run = TracedRun::default();
                    while let Some(i) = disp.next() {
                        let c = ctx();
                        let root = tr.begin_request("request.knn", i as u32);
                        let out = requests::traced_knn(&s.index, &heap, queries[i], &c, &tr);
                        tr.exit(root);
                        let hits = out.expect("traced query");
                        if !untraced.get(&i).is_some_and(|u| check::identical(u, &hits)) {
                            run.differ.push(i);
                        }
                        run.tally.record(&c, hits.len());
                    }
                    run.spans = tr.into_spans();
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced client")).collect()
    });
    let (b, tally, lat, threads) = requests::summarise(outs, r);
    requests::layer_metrics(r, &b, &tally, untraced_p50, &lat);
    let out = cfg.work_dir.join(format!("trace-{}.csv", cfg.workload));
    if let Err(e) = trace::write_spans(&out, &threads) {
        r.problem(format!("cannot write the span file {}: {e}", out.display()));
    }
    drop(heap);
    let _ = std::fs::remove_file(&heap_path);
}

/// Save a heap file into its own checksummed page file and reopen it
/// with pread.
fn save_and_open_heap(heap: &VectorSetStore, path: &Path) -> VectorSetStore {
    let file = FilePageStore::create(path, (heap.total_pages() as u64) * 2 + 64)
        .expect("creating the heap file");
    let handle = heap.save_to(&file).expect("saving the heap file");
    file.set_root(handle.first);
    file.sync().expect("syncing the heap file");
    drop(file);
    let file = FilePageStore::open(path).expect("reopening the heap file");
    let root = file.root().expect("heap file root");
    VectorSetStore::open_from(Arc::new(file), root).expect("opening the heap file")
}
