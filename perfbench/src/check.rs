//! The outputs check: hits against a single-threaded brute-force
//! oracle, independent of thread scheduling.
//!
//! The oracle computes the exact minimal-matching distance of the query
//! to every live object with the same kernel and argument order the
//! index refines with, so each hit's distance must equal the oracle's
//! distance for that id bit for bit. The order among tied objects is
//! not part of the result, so ids are compared as a set inside each run
//! of bit-equal distances. Buffer-pool counters are never compared:
//! under a shared pool they depend on the schedule.
//!
//! One kind of miss is told apart rather than failed outright, because
//! it is a known defect of the engine: the filter lower bound
//! `k·‖C(q) − C(o)‖` (Lemma 2) is evaluated in floating point and can
//! come out a few ulps above the object's computed exact distance, so
//! multi-step k-NN dismisses an object that is closer than its k-th
//! hit. A miss counts as such a *bound-rounding miss* only if the bound
//! the index computes for the object (recomputed here with the same
//! public functions, bit for bit) reaches the k-th hit's distance, and
//! exceeds the object's own distance by no more than the rounding error
//! of both evaluations ([`rounding_allowance`]). Every other missing
//! object fails the check. Bound-rounding misses are counted and
//! reported (`query.bound_rounding_misses`).

use vsim_setdist::{
    centroid_lower_bound, extended_centroid, MatchingEngine, MinimalMatching, VectorSet,
};

use crate::inputs::{DIM, KQ, K_COVERS};
use crate::report::Report;

pub type Hits = Vec<(u64, f64)>;

/// One live object as the oracle ranks it.
#[derive(Debug, Clone, Copy)]
pub struct Ranked {
    pub id: u64,
    /// Exact minimal-matching distance to the query.
    pub dist: f64,
    /// The filter lower bound the index computes for the object.
    pub lower: f64,
    /// Largest amount by which rounding can lift `lower` above `dist`.
    pub allowance: f64,
}

/// Per-coordinate sums of absolute values over a set's vectors.
fn abs_sums(s: &VectorSet) -> [f64; DIM] {
    let mut a = [0.0; DIM];
    for row in s.iter() {
        for (x, v) in a.iter_mut().zip(row) {
            *x += v.abs();
        }
    }
    a
}

/// An upper bound on `lower − dist` that rounding alone can produce,
/// with ω = 0 and ε = `f64::EPSILON` (twice the unit roundoff u):
///
/// - each centroid coordinate is a sum of at most k terms divided by
///   k, off by at most γ_k·S_j/k ≤ ε·S_j, where S_j sums |x_ij|; so
///   the computed difference of the two centroids is off by at most
///   ε·(S_q + S_o) per coordinate;
/// - the norm (d squares, d − 1 sums, a square root) and the factor k
///   add a relative (d + 4)·ε;
/// - the exact distance sums at most k point distances or weights,
///   each a square root of d squares: relative (d + k)·ε below the
///   real cost of its matching, which is at least the real minimum.
///
/// Lemma 2 bounds the real centroid term by the real minimum, so
/// `lower − dist ≤ ε·((2d + k + 5)·dist + (k + 1)·‖S_q + S_o‖)`.
pub fn rounding_allowance(dist: f64, sq: &[f64; DIM], so: &[f64; DIM]) -> f64 {
    let s: f64 = sq.iter().zip(so).map(|(a, b)| (a + b) * (a + b)).sum::<f64>().sqrt();
    let (d, k) = (DIM as f64, K_COVERS as f64);
    f64::EPSILON * ((2.0 * d + k + 5.0) * dist.abs() + (k + 1.0) * s)
}

/// Every live object ranked ascending by exact distance, ties by id.
pub fn oracle<'a>(
    query: &VectorSet,
    live: impl Iterator<Item = (u64, &'a VectorSet)>,
) -> Vec<Ranked> {
    let mut engine = MatchingEngine::new(MinimalMatching::vector_set_model());
    let cq = extended_centroid(query, K_COVERS, &[0.0; DIM]);
    let sq = abs_sums(query);
    let mut all: Vec<Ranked> = live
        .map(|(id, s)| {
            let dist = engine.distance(query, s);
            let co = extended_centroid(s, K_COVERS, &[0.0; DIM]);
            let lower = centroid_lower_bound(&cq, &co, K_COVERS);
            Ranked { id, dist, lower, allowance: rounding_allowance(dist, &sq, &abs_sums(s)) }
        })
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    all
}

/// Check a `kq`-NN hit list against the oracle's full ranking. On
/// success returns, for each bound-rounding miss, how many ulps closer
/// than the k-th hit the missed object is.
pub fn check_hits(ranking: &[Ranked], hits: &[(u64, f64)], kq: usize) -> Result<Vec<u64>, String> {
    let want = kq.min(ranking.len());
    if hits.len() != want {
        return Err(format!("{} hits, oracle has {want}", hits.len()));
    }
    if want == 0 {
        return Ok(Vec::new());
    }
    let mut ids: Vec<u64> = hits.iter().map(|h| h.0).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate id among the hits".into());
    }
    for (j, h) in hits.iter().enumerate() {
        let Some(o) = ranking.iter().find(|o| o.id == h.0) else {
            return Err(format!("hit {j}: id {} is not a live object", h.0));
        };
        if h.1.to_bits() != o.dist.to_bits() {
            return Err(format!("hit {j}: id {} distance {} != oracle {}", h.0, h.1, o.dist));
        }
        if j > 0 && hits[j - 1].1 > h.1 {
            return Err(format!("hit {j}: distances not ascending"));
        }
    }
    // Every object strictly closer than the last hit must be a hit,
    // unless the filter's rounded bound dismissed it.
    let last = hits[want - 1].1;
    let mut misses = Vec::new();
    for o in ranking.iter().take_while(|o| o.dist < last) {
        if ids.binary_search(&o.id).is_ok() {
            continue;
        }
        if o.lower >= last && o.lower - o.dist <= o.allowance {
            // Both distances are non-negative, so their bit patterns
            // differ by the number of doubles between them.
            misses.push(last.to_bits() - o.dist.to_bits());
        } else {
            return Err(format!(
                "object {} at distance {} is missing (filter bound {}, k-th hit {last})",
                o.id, o.dist, o.lower
            ));
        }
    }
    Ok(misses)
}

/// Negative self-test: three perturbations of a verified hit list — a
/// foreign id in the last slot, a one-ulp distance change, and the
/// nearest object swapped for the first object beyond the list — must
/// each fail the check. Returns whether the check caught all three.
pub fn self_test(ranking: &[Ranked], hits: &[(u64, f64)], kq: usize) -> bool {
    if hits.is_empty() || check_hits(ranking, hits, kq).is_err() {
        return false;
    }
    let last = hits.len() - 1;
    let outside: Vec<&Ranked> =
        ranking.iter().filter(|o| !hits.iter().any(|h| h.0 == o.id)).collect();
    let mut foreign = hits.to_vec();
    foreign[last].0 = outside.last().map_or(u64::MAX, |o| o.id);
    let mut nudged = hits.to_vec();
    nudged[last].1 = f64::from_bits(nudged[last].1.to_bits() ^ 1);
    // Drop the nearest hit and take the next object in its place: the
    // dropped object is closer than the new last hit.
    let mut shifted = hits[1..].to_vec();
    if let Some(o) = outside.iter().find(|o| o.dist > hits[last].1) {
        shifted.push((o.id, o.dist));
    }
    [foreign, nudged, shifted].iter().all(|h| check_hits(ranking, h, kq).is_err())
}

/// Oracle verdicts over a run's sampled requests, reported together.
#[derive(Default)]
pub struct Verdicts {
    verified: u64,
    bound_misses: usize,
    max_miss_ulps: u64,
}

impl Verdicts {
    /// Check one sampled hit list; the first that passes also runs the
    /// negative self-test.
    pub fn check(&mut self, ranking: &[Ranked], hits: &[(u64, f64)], what: &str, r: &mut Report) {
        match check_hits(ranking, hits, KQ) {
            Err(e) => r.problem(format!("{what}: {e}")),
            Ok(misses) => {
                if self.verified == 0 {
                    r.require(self_test(ranking, hits, KQ), || {
                        "negative self-test: a perturbed hit list passed the check".into()
                    });
                }
                if let Some(&worst) = misses.iter().max() {
                    eprintln!(
                        "[check] {what}: {} bound-rounding miss(es), up to {worst} ulps \
                         closer than the k-th hit",
                        misses.len()
                    );
                    self.max_miss_ulps = self.max_miss_ulps.max(worst);
                }
                self.bound_misses += misses.len();
                self.verified += 1;
            }
        }
    }

    pub fn report(self, r: &mut Report) {
        r.extra("check.verified_queries", self.verified as f64, "count", self.verified);
        r.layer("query.bound_rounding_misses", self.bound_misses as f64, "count", self.verified);
        let n = self.bound_misses as u64;
        r.extra("check.bound_miss_max_ulps", self.max_miss_ulps as f64, "count", n);
        r.require(self.verified > 0, || "no sampled result was verified".into());
    }
}

/// Bit-for-bit equality of two hit lists (ids, order and distances).
pub fn identical(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(id: u64, dist: f64) -> Ranked {
        Ranked { id, dist, lower: 0.0, allowance: 0.0 }
    }

    #[test]
    fn ties_compare_as_sets_and_perturbations_fail() {
        let ranking: Vec<Ranked> =
            [(4, 0.5), (1, 1.0), (2, 1.0), (3, 1.0), (9, 2.0)].map(|(i, d)| ranked(i, d)).into();
        assert_eq!(check_hits(&ranking, &[(4, 0.5), (3, 1.0), (1, 1.0)], 3), Ok(vec![]));
        assert!(check_hits(&ranking, &[(4, 0.5), (1, 1.0), (1, 1.0)], 3).is_err());
        assert!(check_hits(&ranking, &[(4, 0.5), (9, 1.0), (1, 1.0)], 3).is_err());
        assert!(check_hits(&ranking, &[(4, 0.5), (1, 1.0)], 3).is_err());
        assert!(check_hits(&ranking, &[(1, 1.0), (2, 1.0), (3, 1.0)], 3).is_err());
        assert!(self_test(&ranking, &[(4, 0.5), (2, 1.0), (1, 1.0)], 3));
        assert!(!self_test(&ranking, &[(4, 0.5), (9, 1.0), (1, 1.0)], 3));
    }

    #[test]
    fn only_rounded_filter_bounds_excuse_a_miss() {
        let d: f64 = 0.521_749_194_749_951_5;
        let closer = f64::from_bits(d.to_bits() - 6);
        let ranking = |lower: f64, allowance: f64| {
            vec![
                ranked(0, 0.0),
                Ranked { id: 5, dist: closer, lower, allowance },
                ranked(1, d),
                ranked(2, d),
                ranked(9, 0.9),
            ]
        };
        let hits = [(0, 0.0), (1, d), (2, d)];
        // The rounded bound reaches the k-th distance: a counted miss.
        let above = f64::from_bits(d.to_bits() + 2);
        assert_eq!(check_hits(&ranking(above, 1e-15), &hits, 3), Ok(vec![6]));
        // A bound below the k-th distance cannot dismiss the object.
        assert!(check_hits(&ranking(closer, 1e-15), &hits, 3).is_err());
        // Nor can a bound further above the distance than rounding allows.
        assert!(check_hits(&ranking(above, 1e-17), &hits, 3).is_err());
    }

    #[test]
    fn oracle_matches_the_engine() {
        let a = VectorSet::from_rows(6, &[&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]]);
        let b = VectorSet::from_rows(6, &[&[0.2, 0.2, 0.3, 0.4, 0.5, 0.6], &[0.3; 6]]);
        let r = oracle(&a, [(0, &a), (1, &b)].into_iter());
        assert_eq!((r[0].id, r[0].dist, r[0].lower), (0, 0.0, 0.0));
        assert_eq!(r[1].id, 1);
        assert!(r[1].lower <= r[1].dist && r[1].allowance > 0.0);
    }
}
