//! Seeded inputs. Everything here runs before any timing starts.
//!
//! The Aircraft data itself is the paper's fixed dataset (generation
//! seed 1, n = 5000, k = 7 covers), cached on disk because generating
//! it takes about a minute. The 50k derivation and the writer's
//! operations have fixed seeds too, so every run replays the same
//! data and the same writes; the workload seed chooses the queries.

use std::path::Path;

use rand::prelude::*;
use vsim_core::prelude::{aircraft_dataset, ProcessedDataset};
use vsim_setdist::VectorSet;

pub const AIRCRAFT_SEED: u64 = 1;
pub const AIRCRAFT_N: usize = 5000;
pub const K_COVERS: usize = 7;
pub const DIM: usize = 6;
/// Neighbours per query: the paper's 10-NN.
pub const KQ: usize = 10;
/// Relative jitter per coordinate of a derived set.
const JITTER: f64 = 0.05;
const DERIVE_SEED: u64 = 0x5eed_da7a;
const OPLOG_SEED: u64 = 0x0b5e_55ed;

/// The Aircraft vector sets, from the on-disk cache under `cache_dir`
/// (generated and cached on first use).
pub fn aircraft(cache_dir: &Path) -> Vec<VectorSet> {
    let cache = cache_dir.join(format!("aircraft_{AIRCRAFT_SEED}_{AIRCRAFT_N}_k{K_COVERS}.vsd"));
    let p = vsim_core::persist::load_or_build(&cache.to_string_lossy(), || {
        eprintln!("[input] generating the Aircraft dataset (n = {AIRCRAFT_N}) ...");
        ProcessedDataset::build(aircraft_dataset(AIRCRAFT_SEED, AIRCRAFT_N), K_COVERS)
    });
    p.vector_sets(K_COVERS)
}

/// `len` distinct query ids drawn uniformly from `0..n` (a seeded
/// partial shuffle), so lists of different seeds overlap heavily and
/// the workload's cost varies little from seed to seed.
pub fn query_ids(seed: u64, n: usize, len: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut ids: Vec<usize> = (0..n).collect();
    for i in 0..len.min(n) {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(len);
    ids
}

/// A copy of `src` with every coordinate scaled by `1 ± JITTER`: signs
/// and positive extents survive, so the centroid filter keeps the
/// selectivity it has on real covers.
fn perturbed(rng: &mut StdRng, src: &VectorSet) -> VectorSet {
    let mut s = VectorSet::with_capacity(DIM, src.len());
    let mut v = [0.0; DIM];
    for row in src.iter() {
        for (x, y) in v.iter_mut().zip(row) {
            *x = y * (1.0 + JITTER * rng.gen_range(-1.0..1.0));
        }
        s.push(&v);
    }
    s
}

/// `n` perturbations of the Aircraft sets, object `i` derived from
/// base set `i % base.len()`: every base shape has the same number of
/// near copies, so every query costs about the same.
pub fn derive(base: &[VectorSet], n: usize) -> Vec<VectorSet> {
    let mut rng = StdRng::seed_from_u64(DERIVE_SEED);
    (0..n).map(|i| perturbed(&mut rng, &base[i % base.len()])).collect()
}

pub enum Op {
    Insert(VectorSet),
    Delete(u64),
}

/// The writer's operation sequence: deletes of random live ids and
/// inserts of fresh perturbations, mean-reverting around the initial
/// size. An insert re-derives the base shape of an earlier delete, so
/// each shape keeps its number of near copies and the readers'
/// workload does not drift as the data turns over.
pub struct OpLog {
    rng: StdRng,
    /// Live `(id, base shape)`.
    live: Vec<(u64, usize)>,
    /// Base shapes of deleted objects not yet replaced.
    pending: Vec<usize>,
    next_id: u64,
    target: usize,
    band: usize,
}

impl OpLog {
    /// Start from the derivation's `initial` objects over `bases` shapes.
    pub fn new(initial: usize, bases: usize, band: usize) -> Self {
        OpLog {
            rng: StdRng::seed_from_u64(OPLOG_SEED),
            live: (0..initial).map(|i| (i as u64, i % bases)).collect(),
            pending: Vec::new(),
            next_id: initial as u64,
            target: initial,
            band,
        }
    }

    pub fn next(&mut self, base: &[VectorSet]) -> Op {
        let insert = if self.live.len() + self.band < self.target {
            true
        } else if self.live.len() > self.target + self.band {
            false
        } else {
            self.rng.gen_bool(0.5)
        };
        if insert {
            let b = if self.pending.is_empty() {
                self.rng.gen_range(0..base.len())
            } else {
                let at = self.rng.gen_range(0..self.pending.len());
                self.pending.swap_remove(at)
            };
            self.live.push((self.next_id, b));
            self.next_id += 1;
            Op::Insert(perturbed(&mut self.rng, &base[b]))
        } else {
            let at = self.rng.gen_range(0..self.live.len());
            let (id, b) = self.live.swap_remove(at);
            self.pending.push(b);
            Op::Delete(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<VectorSet> {
        (0..20)
            .map(|i| VectorSet::from_rows(DIM, &[&[0.1 * i as f64, -0.2, 0.3, 0.4, 0.5, 0.6]]))
            .collect()
    }

    #[test]
    fn inputs_replay_exactly() {
        let b = base();
        let a = derive(&b, 50);
        let c = derive(&b, 50);
        assert!(a.iter().zip(&c).all(|(x, y)| x.flat() == y.flat()));
        assert!(a.iter().flat_map(|s| s.flat()[3..6].to_vec()).all(|e| e > 0.0));
        let ops = || {
            let mut log = OpLog::new(50, b.len(), 4);
            (0..200)
                .map(|_| match log.next(&b) {
                    Op::Insert(s) => s.flat()[0].to_bits(),
                    Op::Delete(id) => id,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(), ops());
        let q = query_ids(5, 100, 40);
        let mut d = q.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!((q.len(), d.len()), (40, 40));
        assert_eq!(q, query_ids(5, 100, 40));
        assert_ne!(q, query_ids(6, 100, 40));
    }
}
