//! `churn_50k`: a dynamic index over 50,000 derived vector sets. One
//! writer runs the seeded insert/delete sequence and publishes an epoch
//! every `OPS_PER_PUBLISH` operations; `nproc - 1` readers run planned
//! 10-NN queries against pinned epochs. The writer is paced at one
//! batch and publish per `WRITE_PERIOD`, so the readers meet the same
//! write load however fast the host runs at the moment.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::prelude::*;
use vsim_index::{IoSnapshot, MTree, PointFile, QueryContext, VectorSetStore, XTree, PAGE_SIZE};
use vsim_query::DynamicIndex;
use vsim_setdist::{extended_centroid, Distance, VectorSet};

use crate::check::{self, Hits};
use crate::inputs::{derive, query_ids, Op, OpLog, DIM, K_COVERS};
use crate::report::{
    median_f64, passes, peak_rss_mb, percentile, prefix_p50_ns, repeat_for, setup_median,
    sim_io_ms, Report, Sample,
};
use crate::requests::{self, Dispatcher, TracedContexts, TracedRun, TRACED_REQUESTS};
use crate::trace::{self, Tracer};
use crate::Config;

const N: usize = 50_000;
const OPS_PER_PUBLISH: usize = 40;
/// One batch of writes plus its publish starts every period (800
/// writes and 20 publishes per second); a late batch starts at once.
const WRITE_PERIOD: Duration = Duration::from_millis(50);
/// Distinct reader queries in the seeded request list.
const LIST: usize = 2000;
/// Set-up repeats for this long, and at least `SETUP_MIN` times, both
/// before the loop and after it.
const SETUP_HALF: Duration = Duration::from_millis(1500);
const SETUP_MIN: usize = 4;
/// Reader results each reader keeps (a uniform reservoir sample over
/// its requests) to check against the oracle at their generation.
const ORACLE_SAMPLE: usize = 12;
/// Publishes the traced writer replays.
const TRACE_PUBLISHES: u64 = 50;
/// Replica heap snapshots kept for traced readers, newest last.
const REPLICA_KEEP: usize = 4;

struct ReaderRun {
    samples: Vec<Sample>,
    io: IoSnapshot,
    failed: u64,
    /// Reservoir sample of (list position, pinned generation, hits);
    /// the other hit lists are dropped as soon as they are made, so the
    /// peak resident set measures the index, not the benchmark.
    results: Vec<(usize, u64, Hits)>,
}

#[derive(Default)]
struct WriterRun {
    log: Vec<Op>,
    insert_ns: Vec<u64>,
    delete_ns: Vec<u64>,
    publish_ns: Vec<u64>,
    failed: u64,
    problems: Vec<String>,
    generations: u64,
}

pub fn run(cfg: &Config, base: &[VectorSet], r: &mut Report) {
    let sets = derive(base, N);
    let mut setup = Vec::new();
    let mut index = None;
    repeat_for(SETUP_HALF, SETUP_MIN, || {
        drop(index.take());
        let (built, t) = set_up(&sets);
        setup.push(t);
        index = Some(built);
    });
    let di = index.expect("at least one set-up repetition");
    let stats = di.stats();
    let ids = query_ids(cfg.seed, N, LIST);
    let queries: Vec<&VectorSet> = ids.iter().map(|&i| &sets[i]).collect();
    let readers = cfg.clients.saturating_sub(1).max(1);
    r.fact("n", N);
    r.fact("readers", readers);
    r.fact("ops_per_publish", OPS_PER_PUBLISH);
    r.fact("write_period_ms", WRITE_PERIOD.as_millis());

    eprintln!("[run  ] 1 writer + {readers} readers for {} s ...", cfg.seconds);
    // Relaxed: the flag publishes no data; the writer polls it between
    // publishes and the scope join orders everything after.
    let stop = AtomicBool::new(false);
    let disp = Dispatcher::new(usize::MAX);
    let t0 = Instant::now();
    let (w, rs) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| writer(&di, base, &stop));
        let (di, queries, disp, seed) = (&di, &queries[..], &disp, cfg.seed);
        let handles: Vec<_> = (0..readers)
            .map(|k| scope.spawn(move || reader(di, queries, disp, t0, seed, k)))
            .collect();
        std::thread::sleep(Duration::from_secs(cfg.seconds));
        stop.store(true, Ordering::Relaxed);
        disp.stop_now();
        let rs: Vec<ReaderRun> =
            handles.into_iter().map(|h| h.join().expect("reader thread")).collect();
        (writer.join().expect("writer thread"), rs)
    });
    let wall = t0.elapsed().as_secs_f64();
    drop(di);
    repeat_for(SETUP_HALF, SETUP_MIN, || setup.push(set_up(&sets).1));

    let samples: Vec<Sample> = rs.iter().flat_map(|c| c.samples.iter().copied()).collect();
    let win = passes(&samples, LIST);
    let io = rs.iter().fold(IoSnapshot::default(), |a, c| a + c.io);
    let done = samples.len() as u64;
    let writes = (w.insert_ns.len() + w.delete_ns.len()) as u64;
    r.attempted += done + writes + w.publish_ns.len() as u64;
    r.failed += w.failed + rs.iter().map(|c| c.failed).sum::<u64>();
    for p in &w.problems {
        r.problem(p.clone());
    }
    let results: Vec<&(usize, u64, Hits)> = rs.iter().flat_map(|c| &c.results).collect();
    let max_gen = results.iter().map(|x| x.1).max().unwrap_or(0);
    r.require(max_gen <= w.generations, || {
        format!("a reader pinned generation {max_gen} of {} published", w.generations)
    });
    check_against_oracle(&sets, &queries, &w.log, &results, r);
    r.fact("generations", w.generations);

    r.e2e("setup_s", setup_median(&setup), "s", setup.len() as u64);
    r.e2e("knn_qps", win.qps, "1/s", win.samples);
    r.e2e("knn_p50_ms", win.p50_ns as f64 / 1e6, "ms", win.samples);
    r.e2e("knn_p99_ms", win.p99_ns as f64 / 1e6, "ms", win.samples);
    r.extra("knn_p50_all_ms", win.all_p50_ns as f64 / 1e6, "ms", win.all_samples);
    r.extra("knn_p99_all_ms", win.all_p99_ns as f64 / 1e6, "ms", win.all_samples);
    r.e2e("knn_sim_io_ms", sim_io_ms(io, done), "ms", done);
    r.e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    let mut ins = w.insert_ns.clone();
    ins.sort_unstable();
    let mut del = w.delete_ns.clone();
    del.sort_unstable();
    let mut publ = w.publish_ns.clone();
    publ.sort_unstable();
    let (ni, nd, np) = (ins.len() as u64, del.len() as u64, publ.len() as u64);
    r.extra("insert_p50_us", percentile(&ins, 0.5) as f64 / 1e3, "us", ni);
    r.extra("insert_p99_us", percentile(&ins, 0.99) as f64 / 1e3, "us", ni);
    r.extra("delete_p50_us", percentile(&del, 0.5) as f64 / 1e3, "us", nd);
    r.extra("publish_p50_ms", percentile(&publ, 0.5) as f64 / 1e6, "ms", np);
    r.extra("publish_p90_ms", percentile(&publ, 0.9) as f64 / 1e6, "ms", np);
    r.extra("write_ops_per_s", writes as f64 / wall, "1/s", writes);

    if cfg.trace {
        let untraced_p50 = prefix_p50_ns(&samples, LIST, TRACED_REQUESTS);
        traced(cfg, base, &sets, &queries, untraced_p50, r);
    }
    r.layer("index.build_s", setup_median(&setup), "s", setup.len() as u64);
    r.layer("index.xtree_height", stats.xtree_height as f64, "count", 1);
    r.layer("index.xtree_pages", stats.xtree_pages as f64, "count", 1);
}

/// Sleep until batch `batch` of the paced writer is due.
fn pace(start: Instant, batch: u64) {
    let due = start + WRITE_PERIOD * batch as u32;
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// One set-up: the 50k insertion build of the dynamic index.
fn set_up(sets: &[VectorSet]) -> (DynamicIndex, f64) {
    let t0 = Instant::now();
    let built = DynamicIndex::build(sets, DIM, K_COVERS).expect("building the dynamic index");
    (built, t0.elapsed().as_secs_f64())
}

fn writer(di: &DynamicIndex, base: &[VectorSet], stop: &AtomicBool) -> WriterRun {
    let ctx = QueryContext::ephemeral();
    let mut ops = OpLog::new(N, base.len(), OPS_PER_PUBLISH);
    let mut w = WriterRun::default();
    let mut next_id = N as u64;
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        pace(start, w.generations);
        for _ in 0..OPS_PER_PUBLISH {
            let op = ops.next(base);
            let t0 = Instant::now();
            match &op {
                Op::Insert(s) => {
                    let out = di.insert(s, &ctx);
                    w.insert_ns.push(t0.elapsed().as_nanos() as u64);
                    match out {
                        Ok(id) if id == next_id => {}
                        Ok(id) => w.problems.push(format!("insert got id {id}, want {next_id}")),
                        Err(e) => {
                            w.failed += 1;
                            w.problems.push(format!("insert failed: {e}"));
                        }
                    }
                    next_id += 1;
                }
                Op::Delete(id) => {
                    let out = di.delete(*id, &ctx);
                    w.delete_ns.push(t0.elapsed().as_nanos() as u64);
                    match out {
                        Ok(true) => {}
                        Ok(false) => {
                            w.problems.push(format!("delete of live id {id} found nothing"))
                        }
                        Err(e) => {
                            w.failed += 1;
                            w.problems.push(format!("delete failed: {e}"));
                        }
                    }
                }
            }
            w.log.push(op);
        }
        let t0 = Instant::now();
        let out = di.publish();
        w.publish_ns.push(t0.elapsed().as_nanos() as u64);
        match out {
            Ok(g) if g == w.generations + 1 => w.generations = g,
            Ok(g) => w.problems.push(format!("publish returned generation {g}")),
            Err(e) => {
                w.failed += 1;
                w.problems.push(format!("publish failed: {e}"));
            }
        }
    }
    w
}

fn reader(
    di: &DynamicIndex,
    queries: &[&VectorSet],
    disp: &Dispatcher,
    t0: Instant,
    seed: u64,
    k: usize,
) -> ReaderRun {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0c1e ^ ((k as u64) << 32));
    let mut c = ReaderRun {
        samples: Vec::new(),
        io: IoSnapshot::default(),
        failed: 0,
        results: Vec::new(),
    };
    let mut seen = 0;
    while let Some(n) = disp.next() {
        let i = n % queries.len();
        let ctx = QueryContext::ephemeral();
        let start = Instant::now();
        let epoch = di.pin(&ctx);
        let out = requests::knn(epoch.index(), queries[i], &ctx);
        let end = Instant::now();
        let (start_ns, end_ns) = ((start - t0).as_nanos() as u64, (end - t0).as_nanos() as u64);
        c.samples.push(Sample { n: n as u64, start_ns, end_ns });
        c.io = c.io + ctx.stats(Duration::ZERO).io;
        match out {
            Ok(h) => {
                // Algorithm R: the j-th result replaces a kept one with
                // probability ORACLE_SAMPLE / j.
                seen += 1;
                if c.results.len() < ORACLE_SAMPLE {
                    c.results.push((i, epoch.generation(), h));
                } else {
                    let at = rng.gen_range(0..seen);
                    if at < ORACLE_SAMPLE {
                        c.results[at] = (i, epoch.generation(), h);
                    }
                }
            }
            Err(e) => {
                eprintln!("[run  ] reader request {i} failed: {e}");
                c.failed += 1;
            }
        }
    }
    c
}

/// Check the readers' sampled results against a brute-force oracle
/// over the live sets at the reader's pinned generation, rebuilt by
/// replaying the benchmark's own op log.
fn check_against_oracle(
    sets: &[VectorSet],
    queries: &[&VectorSet],
    log: &[Op],
    results: &[&(usize, u64, Hits)],
    r: &mut Report,
) {
    if results.is_empty() {
        r.problem("no reader query completed".into());
        return;
    }
    let mut sample = results.to_vec();
    sample.sort_by_key(|x| x.1);
    let mut all: Vec<&VectorSet> = sets.iter().collect();
    let mut live = vec![true; sets.len()];
    let mut applied = 0;
    let mut verdicts = check::Verdicts::default();
    for (i, generation, hits) in sample {
        let upto = *generation as usize * OPS_PER_PUBLISH;
        for op in &log[applied..upto] {
            match op {
                Op::Insert(s) => {
                    all.push(s);
                    live.push(true);
                }
                Op::Delete(id) => live[*id as usize] = false,
            }
        }
        applied = upto;
        let ranking = check::oracle(
            queries[*i],
            all.iter().enumerate().filter(|(id, _)| live[*id]).map(|(id, s)| (id as u64, *s)),
        );
        verdicts.check(
            &ranking,
            hits,
            &format!("reader request {i} at generation {generation}"),
            r,
        );
    }
    verdicts.report(r);
}

/// The index's four structures, maintained beside the dynamic index by
/// the same op log, so each component's insert, delete and snapshot can
/// be timed on its own.
struct Replica {
    tree: XTree,
    ctree: MTree<Vec<f64>>,
    cfile: PointFile,
    heap: VectorSetStore,
}

impl Replica {
    /// The same structures `FilterRefineIndex::build` makes.
    fn build(sets: &[VectorSet]) -> Self {
        let centroids: Vec<Vec<f64>> =
            sets.iter().map(|s| extended_centroid(s, K_COVERS, &[0.0; DIM])).collect();
        let mut tree = XTree::new(DIM);
        for (i, c) in centroids.iter().enumerate() {
            tree.insert(c, i as u64);
        }
        let entry_bytes = 8 * DIM + 16;
        let dist: Arc<dyn Distance<Vec<f64>>> = Arc::new(|a: &Vec<f64>, b: &Vec<f64>| {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
        });
        let mut ctree = MTree::new(dist, (PAGE_SIZE / entry_bytes).max(4), entry_bytes);
        for (i, c) in centroids.iter().enumerate() {
            ctree.insert(c.clone(), i as u64);
        }
        Replica {
            tree,
            ctree,
            cfile: PointFile::build(DIM, &centroids),
            heap: VectorSetStore::build(sets),
        }
    }

    fn apply(&mut self, op: &Op, tr: &Tracer) -> Result<(), String> {
        match op {
            Op::Insert(s) => {
                let c = extended_centroid(s, K_COVERS, &[0.0; DIM]);
                let id = tr.span("replica.heap_append", || self.heap.append(s));
                let fid = tr.span("replica.points_append", || self.cfile.append(&c));
                let id = id.map_err(|e| e.to_string())?;
                if fid.map_err(|e| e.to_string())? != id {
                    return Err(format!("replica heap and point file ids diverged at {id}"));
                }
                tr.span("replica.xtree_insert", || self.tree.insert(&c, id));
                tr.span("replica.mtree_insert", || self.ctree.insert(c, id));
            }
            Op::Delete(id) => {
                let c = self.cfile.point(*id).ok_or("replica lost a centroid")?.to_vec();
                let x = tr.span("replica.xtree_delete", || self.tree.delete(&c, *id));
                let m = tr.span("replica.mtree_delete", || self.ctree.delete(&c, *id));
                tr.span("replica.points_tombstone", || self.cfile.tombstone(*id));
                tr.span("replica.heap_tombstone", || self.heap.tombstone(*id));
                if !(x && m) {
                    return Err(format!("replica trees did not hold id {id}"));
                }
            }
        }
        Ok(())
    }

    /// Snapshot every component (timed one by one); the heap copy is
    /// kept for the traced readers of the coming generation.
    fn snapshot(&self, tr: &Tracer) -> std::io::Result<VectorSetStore> {
        drop(tr.span("replica.copy_xtree", || self.tree.snapshot())?);
        drop(tr.span("replica.copy_mtree", || self.ctree.snapshot())?);
        drop(tr.span("replica.copy_points", || self.cfile.snapshot())?);
        tr.span("replica.copy_heap", || self.heap.snapshot())
    }
}

type Heaps = Mutex<VecDeque<(u64, Arc<VectorSetStore>)>>;

fn lookup(heaps: &Heaps, generation: u64) -> Option<Arc<VectorSetStore>> {
    let h = heaps.lock().expect("the traced writer panicked");
    h.iter().find(|(g, _)| *g == generation).map(|(_, s)| Arc::clone(s))
}

/// Traced replay: a fresh index replays the first `TRACE_PUBLISHES`
/// publishes of the same op log with spans around each
/// `DynamicIndex` call and each replica component call, while traced
/// readers run the list's first requests against pinned epochs,
/// refining from the replica's heap file of their generation.
fn traced(
    cfg: &Config,
    base: &[VectorSet],
    sets: &[VectorSet],
    queries: &[&VectorSet],
    untraced_p50: u64,
    r: &mut Report,
) {
    eprintln!("[trace] rebuilding the index and its replica ...");
    let di = DynamicIndex::build(sets, DIM, K_COVERS).expect("building the dynamic index");
    let mut replica = Replica::build(sets);
    let heaps: Heaps = Mutex::new(VecDeque::from([(
        0,
        Arc::new(replica.heap.snapshot().expect("replica heap snapshot")),
    )]));
    let disp = Dispatcher::new(TRACED_REQUESTS);
    let origin = Instant::now();
    let readers = cfg.clients.saturating_sub(1).max(1);
    eprintln!("[trace] replaying {TRACE_PUBLISHES} publishes with {readers} readers ...");
    let (wspans, outs) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let tr = Tracer::new(origin);
            let ctx = QueryContext::ephemeral();
            let mut ops = OpLog::new(N, base.len(), OPS_PER_PUBLISH);
            let mut problems = Vec::new();
            let mut request = 0;
            let start = Instant::now();
            for generation in 1..=TRACE_PUBLISHES {
                pace(start, generation - 1);
                for _ in 0..OPS_PER_PUBLISH {
                    let op = ops.next(base);
                    request += 1;
                    let ok = match &op {
                        Op::Insert(s) => {
                            let root = tr.begin_request("request.insert", request);
                            let out = tr.span("epoch.insert", || di.insert(s, &ctx));
                            tr.exit(root);
                            out.is_ok()
                        }
                        Op::Delete(id) => {
                            let root = tr.begin_request("request.delete", request);
                            let out = tr.span("epoch.delete", || di.delete(*id, &ctx));
                            tr.exit(root);
                            matches!(out, Ok(true))
                        }
                    };
                    if !ok {
                        problems.push("a traced write failed".to_string());
                    }
                    if let Err(e) = replica.apply(&op, &tr) {
                        problems.push(e);
                    }
                }
                let heap = Arc::new(replica.snapshot(&tr).expect("replica snapshot"));
                {
                    let mut h = heaps.lock().expect("a traced reader panicked");
                    h.push_back((generation, heap));
                    while h.len() > REPLICA_KEEP {
                        h.pop_front();
                    }
                }
                request += 1;
                let root = tr.begin_request("request.publish", request);
                let out = tr.span("epoch.publish", || di.publish());
                tr.exit(root);
                if out.ok() != Some(generation) {
                    problems.push(format!("traced publish did not make generation {generation}"));
                }
            }
            (tr.into_spans(), problems)
        });
        let handles: Vec<_> = (0..readers)
            .map(|_| scope.spawn(|| traced_reader(&di, &heaps, queries, &disp, origin)))
            .collect();
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().expect("traced reader")).collect();
        (writer.join().expect("traced writer"), outs)
    });
    let (wspans, problems) = wspans;
    for p in problems {
        r.problem(p);
    }
    let (mut b, tally, lat, mut threads) = requests::summarise(outs, r);
    b.add(&wspans);
    let mut pins: Vec<u64> =
        threads.iter().flat_map(|spans| trace::durations(spans, "epoch.pin")).collect();
    r.require(tally.requests > 0, || "no traced reader query completed".into());
    requests::layer_metrics(r, &b, &tally, untraced_p50, &lat);

    pins.sort_unstable();
    r.extra("epoch.pin_us_p99", percentile(&pins, 0.99) as f64 / 1e3, "us", pins.len() as u64);
    let parts = ["xtree", "mtree", "heap", "points"];
    let copies: Vec<Vec<u64>> =
        parts.iter().map(|p| trace::durations(&wspans, &format!("replica.copy_{p}"))).collect();
    let publishes = trace::durations(&wspans, "epoch.publish");
    let copy_total: Vec<f64> =
        (0..publishes.len()).map(|i| copies.iter().map(|c| c[i] as f64).sum()).collect();
    let np = publishes.len() as u64;
    r.extra("epoch.copy_ms", median_f64(&copy_total) / 1e6, "ms", np);
    for (p, c) in parts.iter().zip(&copies) {
        let ms: Vec<f64> = c.iter().map(|&v| v as f64 / 1e6).collect();
        r.extra(&format!("epoch.copy_{p}_ms"), median_f64(&ms), "ms", np);
    }
    let publish_self: Vec<f64> =
        publishes.iter().zip(&copy_total).map(|(&p, &c)| (p as f64 - c) / 1e6).collect();
    r.extra("epoch.publish_self_ms", median_f64(&publish_self), "ms", np);
    for (name, span, q) in [
        ("index.xtree_insert_us_p50", "replica.xtree_insert", 0.5),
        ("index.xtree_insert_us_p99", "replica.xtree_insert", 0.99),
        ("index.mtree_insert_us_p50", "replica.mtree_insert", 0.5),
        ("index.heap_append_us_p50", "replica.heap_append", 0.5),
        ("index.points_append_us_p50", "replica.points_append", 0.5),
        ("index.xtree_delete_us_p50", "replica.xtree_delete", 0.5),
        ("index.mtree_delete_us_p50", "replica.mtree_delete", 0.5),
    ] {
        let mut d = trace::durations(&wspans, span);
        d.sort_unstable();
        r.extra(name, percentile(&d, q) as f64 / 1e3, "us", d.len() as u64);
    }
    threads.push(wspans);
    let out = cfg.work_dir.join(format!("trace-{}.csv", cfg.workload));
    if let Err(e) = trace::write_spans(&out, &threads) {
        r.problem(format!("cannot write the span file {}: {e}", out.display()));
    }
}

/// Traced reader: pin, find the replica heap of the pinned generation,
/// run the composed query, then compare with the index's own query on
/// the same epoch (outside the request span).
fn traced_reader(
    di: &DynamicIndex,
    heaps: &Heaps,
    queries: &[&VectorSet],
    disp: &Dispatcher,
    origin: Instant,
) -> TracedRun {
    let tr = Tracer::new(origin);
    let mut run = TracedRun::default();
    while let Some(n) = disp.next() {
        let i = n % queries.len();
        let c = TracedContexts::cold();
        let root = tr.begin_request("request.knn", n as u32);
        let (epoch, heap) = loop {
            let epoch = tr.span("epoch.pin", || di.pin(&c.tree));
            if let Some(h) = tr.span("trace.lookup", || lookup(heaps, epoch.generation())) {
                break (epoch, h);
            }
        };
        let out = requests::traced_knn(epoch.index(), &heap, queries[i], &c, &tr);
        tr.exit(root);
        let hits = out.expect("traced reader query");
        let plain = requests::knn(epoch.index(), queries[i], &QueryContext::ephemeral())
            .expect("untraced reader query");
        if !check::identical(&plain, &hits) {
            run.differ.push(i);
        }
        run.tally.record(&c, hits.len());
    }
    run.spans = tr.into_spans();
    run
}
