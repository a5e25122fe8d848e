//! Workload-diversity generators.
//!
//! The paper evaluates DFP/SIP only on SPEC-shaped programs; the SGX
//! benchmarking literature (see PAPERS.md) taxonomises enclave workload
//! classes those miss. This module models four of them:
//!
//! * [`ZipfKv`] — a skewed key-value store: Zipf-popular keys on a
//!   resident hot prefix, the long tail scattered over a cold remainder.
//! * [`PhasedStream`] — a phase-changing program that alternates
//!   sequential-stream and uniform-random phases at fixed boundaries.
//! * [`FrontierSweep`] — graph-analytics frontier expansion: each visited
//!   vertex enqueues a few random neighbours, breadth-first.
//! * [`BatchScan`] — ML-inference batch scans: stride-regular sweeps over
//!   a weight region, restarted once per batch.
//!
//! All four are deterministic per seed, like every generator in this
//! crate: the same [`DetRng`] produces the identical access stream.

use sgx_epc::VirtPage;
use sgx_sim::{Cycles, DetRng, Zipf};

use crate::{Access, PageRange, SiteRange};

/// Large odd multiplier used to scatter cold-tail ranks across the cold
/// region (odd ⇒ invertible mod 2^64).
const SCRAMBLE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Zipf-skewed key-value accesses over a hot/cold split region.
///
/// Ranks are drawn Zipf(`exponent`) over the whole region. The most
/// popular `hot_pages` ranks map *identically* onto the region's prefix
/// (rank 0 → first page, rank 1 → second, …), so rank-frequency ordering
/// is preserved page-for-page on the hot set; colder ranks are scrambled
/// across the remainder so the tail has no accidental sequential
/// structure.
#[derive(Debug, Clone)]
pub struct ZipfKv {
    region: PageRange,
    hot_pages: u64,
    remaining: u64,
    ranks: Zipf,
    compute: Cycles,
    sites: SiteRange,
    hot_repeats: u32,
    rng: DetRng,
}

impl ZipfKv {
    /// Emits `total` lookups over `region`, the `hot_pages`-page prefix
    /// holding the popular keys.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`, `exponent <= 0`, or `hot_pages` is not in
    /// `1..region.len()`.
    pub fn new(
        region: PageRange,
        total: u64,
        hot_pages: u64,
        exponent: f64,
        compute: Cycles,
        sites: SiteRange,
        rng: DetRng,
    ) -> Self {
        assert!(total > 0, "need at least one access");
        assert!(
            hot_pages >= 1 && hot_pages < region.len(),
            "hot prefix must be non-empty and smaller than the region"
        );
        ZipfKv {
            ranks: Zipf::new(region.len(), exponent),
            region,
            hot_pages,
            remaining: total,
            compute,
            sites,
            hot_repeats: 1,
            rng,
        }
    }

    /// Sets how many consecutive executions a hot-key touch stands for
    /// (popular keys are read in tight server loops).
    ///
    /// # Panics
    ///
    /// Panics if `repeats == 0`.
    pub fn with_hot_repeats(mut self, repeats: u32) -> Self {
        assert!(repeats > 0, "hot repeats must be at least 1");
        self.hot_repeats = repeats;
        self
    }

    /// The hot-prefix size in pages.
    pub fn hot_pages(&self) -> u64 {
        self.hot_pages
    }
}

impl Iterator for ZipfKv {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rank = self.ranks.sample(&mut self.rng);
        let (offset, repeats) = if rank < self.hot_pages {
            (rank, self.hot_repeats)
        } else {
            let cold = self.region.len() - self.hot_pages;
            let scrambled = (rank - self.hot_pages).wrapping_mul(SCRAMBLE) % cold;
            (self.hot_pages + scrambled, 1)
        };
        let page = VirtPage::new(self.region.start + offset);
        Some(Access::with_repeats(
            page,
            self.compute,
            self.sites.next_site(),
            repeats,
        ))
    }
}

/// A phase-changing program: phases of fixed lengths alternate between a
/// sequential stream (even phase indices, restarting at the region start)
/// and uniform-random touches (odd indices). The pattern switch happens
/// exactly at the configured boundaries — the shape that forces a
/// prefetcher to re-learn mid-run.
#[derive(Debug, Clone)]
pub struct PhasedStream {
    region: PageRange,
    phase_lens: Vec<u64>,
    phase: usize,
    left_in_phase: u64,
    cur: u64,
    compute: Cycles,
    sites: SiteRange,
    rng: DetRng,
}

impl PhasedStream {
    /// Emits `phase_lens.iter().sum()` accesses over `region`, switching
    /// pattern at each phase boundary.
    ///
    /// # Panics
    ///
    /// Panics if `phase_lens` is empty or contains a zero length.
    pub fn new(
        region: PageRange,
        phase_lens: Vec<u64>,
        compute: Cycles,
        sites: SiteRange,
        rng: DetRng,
    ) -> Self {
        assert!(!phase_lens.is_empty(), "need at least one phase");
        assert!(
            phase_lens.iter().all(|&l| l > 0),
            "phase lengths must be positive"
        );
        let first = phase_lens[0];
        PhasedStream {
            region,
            phase_lens,
            phase: 0,
            left_in_phase: first,
            cur: region.start,
            compute,
            sites,
            rng,
        }
    }

    /// The access indices at which each phase *ends* (cumulative phase
    /// lengths) — the configured switch boundaries.
    pub fn boundaries(&self) -> Vec<u64> {
        self.phase_lens
            .iter()
            .scan(0u64, |acc, l| {
                *acc += l;
                Some(*acc)
            })
            .collect()
    }
}

impl Iterator for PhasedStream {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        while self.left_in_phase == 0 {
            self.phase += 1;
            if self.phase >= self.phase_lens.len() {
                return None;
            }
            self.left_in_phase = self.phase_lens[self.phase];
            self.cur = self.region.start; // stream phases restart the sweep
        }
        self.left_in_phase -= 1;
        let page = if self.phase.is_multiple_of(2) {
            let p = self.cur;
            self.cur += 1;
            if self.cur == self.region.end {
                self.cur = self.region.start;
            }
            p
        } else {
            self.rng.uniform_range(self.region.start, self.region.end)
        };
        Some(Access::new(
            VirtPage::new(page),
            self.compute,
            self.sites.next_site(),
        ))
    }
}

/// Upper bound on the pending-frontier queue, so the generator's memory
/// stays O(1) in the trace length.
const FRONTIER_CAP: usize = 4_096;

/// Graph-analytics frontier expansion: visit the current frontier in
/// order, each visited vertex enqueueing a random number of random
/// neighbours for the next level; when a level empties, the next one is
/// swapped in (reseeded from a random vertex if the frontier died out).
/// Every touched page stays inside the region by construction.
#[derive(Debug, Clone)]
pub struct FrontierSweep {
    region: PageRange,
    remaining: u64,
    current: Vec<u64>,
    next_level: Vec<u64>,
    idx: usize,
    deg_lo: u64,
    deg_hi: u64,
    compute: Cycles,
    sites: SiteRange,
    rng: DetRng,
}

impl FrontierSweep {
    /// Emits `total` vertex visits over `region`, each vertex fanning out
    /// to `deg_lo..=deg_hi` random neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or `deg_lo > deg_hi`.
    pub fn new(
        region: PageRange,
        total: u64,
        deg_lo: u64,
        deg_hi: u64,
        compute: Cycles,
        sites: SiteRange,
        mut rng: DetRng,
    ) -> Self {
        assert!(total > 0, "need at least one access");
        assert!(deg_lo <= deg_hi, "degree bounds inverted");
        let seed_vertex = rng.uniform_range(0, region.len());
        FrontierSweep {
            region,
            remaining: total,
            current: vec![seed_vertex],
            next_level: Vec::new(),
            idx: 0,
            deg_lo,
            deg_hi,
            compute,
            sites,
            rng,
        }
    }
}

impl Iterator for FrontierSweep {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.idx >= self.current.len() {
            if self.next_level.is_empty() {
                // The component died out: restart from a random vertex.
                let v = self.rng.uniform_range(0, self.region.len());
                self.next_level.push(v);
            }
            std::mem::swap(&mut self.current, &mut self.next_level);
            self.next_level.clear();
            self.idx = 0;
        }
        let vertex = self.current[self.idx];
        self.idx += 1;
        let degree = self.rng.uniform_range(self.deg_lo, self.deg_hi + 1);
        for _ in 0..degree {
            if self.next_level.len() < FRONTIER_CAP {
                let n = self.rng.uniform_range(0, self.region.len());
                self.next_level.push(n);
            }
        }
        Some(Access::new(
            VirtPage::new(self.region.start + vertex),
            self.compute,
            self.sites.next_site(),
        ))
    }
}

/// ML-inference batch scans: one stride-regular sweep over the region per
/// batch, every batch identical. Intra-batch page deltas are exactly the
/// stride; the generator is fully deterministic with no RNG at all.
#[derive(Debug, Clone)]
pub struct BatchScan {
    region: PageRange,
    stride: u64,
    batches_left: u64,
    cur: u64,
    compute: Cycles,
    sites: SiteRange,
}

impl BatchScan {
    /// Sweeps `region` once per batch at the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `batches == 0` or `stride == 0`.
    pub fn new(
        region: PageRange,
        batches: u64,
        stride: u64,
        compute: Cycles,
        sites: SiteRange,
    ) -> Self {
        assert!(batches > 0, "need at least one batch");
        assert!(stride > 0, "stride must be positive");
        BatchScan {
            region,
            stride,
            batches_left: batches,
            cur: region.start,
            compute,
            sites,
        }
    }

    /// Accesses per batch (`ceil(region.len() / stride)`).
    pub fn batch_len(&self) -> u64 {
        self.region.len().div_ceil(self.stride)
    }
}

impl Iterator for BatchScan {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.batches_left == 0 {
            return None;
        }
        let page = VirtPage::new(self.cur);
        self.cur += self.stride;
        if self.cur >= self.region.end {
            self.cur = self.region.start;
            self.batches_left -= 1;
        }
        Some(Access::new(page, self.compute, self.sites.next_site()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn pages(it: impl Iterator<Item = Access>) -> Vec<u64> {
        it.map(|a| a.page.raw()).collect()
    }

    #[test]
    fn zipf_kv_hot_prefix_preserves_rank_order() {
        let region = PageRange::new(100, 10_100);
        let g = ZipfKv::new(
            region,
            40_000,
            64,
            1.1,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(1),
        );
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for p in pages(g) {
            assert!((100..10_100).contains(&p));
            *counts.entry(p).or_insert(0) += 1;
        }
        // Rank 0 maps to the first page and is the most frequent.
        let c0 = counts.get(&100).copied().unwrap_or(0);
        assert!(counts.values().all(|&c| c <= c0), "rank 0 must dominate");
        // Frequency decays along the hot prefix.
        let c8 = counts.get(&108).copied().unwrap_or(0);
        let c63 = counts.get(&163).copied().unwrap_or(0);
        assert!(c0 > c8 && c8 > c63, "{c0} > {c8} > {c63} violated");
    }

    #[test]
    fn zipf_kv_hot_repeats_only_on_hot_pages() {
        let g = ZipfKv::new(
            PageRange::first(1_000),
            5_000,
            10,
            1.2,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(2),
        )
        .with_hot_repeats(9);
        for a in g {
            if a.page.raw() < 10 {
                assert_eq!(a.repeats, 9);
            } else {
                assert_eq!(a.repeats, 1);
            }
        }
    }

    #[test]
    fn phased_stream_switches_at_boundaries() {
        let g = PhasedStream::new(
            PageRange::first(10_000),
            vec![500, 400, 300],
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(3),
        );
        assert_eq!(g.boundaries(), vec![500, 900, 1_200]);
        let ps = pages(g);
        assert_eq!(ps.len(), 1_200);
        // Phase 0 is a clean sequential ramp…
        assert!(ps[..500].windows(2).all(|w| w[1] == w[0] + 1));
        // …phase 1 is random (almost never sequential)…
        let seq = ps[500..900].windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(seq < 20, "random phase too sequential: {seq}");
        // …phase 2 streams again from the region start.
        assert_eq!(ps[900], 0);
        assert!(ps[900..].windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn frontier_sweep_stays_in_region_and_jumps() {
        let region = PageRange::new(50, 4_050);
        let ps = pages(FrontierSweep::new(
            region,
            10_000,
            2,
            6,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(4),
        ));
        assert_eq!(ps.len(), 10_000);
        assert!(ps.iter().all(|&p| (50..4_050).contains(&p)));
        let seq = ps.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(seq < 500, "frontier order should look irregular: {seq}");
    }

    #[test]
    fn batch_scan_is_stride_regular() {
        let g = BatchScan::new(
            PageRange::new(10, 110),
            3,
            4,
            Cycles::ZERO,
            SiteRange::single(0),
        );
        assert_eq!(g.batch_len(), 25);
        let ps = pages(g.clone());
        assert_eq!(ps.len(), 75);
        for batch in ps.chunks(25) {
            assert_eq!(batch[0], 10, "each batch restarts at the region start");
            assert!(batch.windows(2).all(|w| w[1] == w[0] + 4));
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mk_kv = |seed| {
            pages(ZipfKv::new(
                PageRange::first(2_000),
                300,
                16,
                1.0,
                Cycles::ZERO,
                SiteRange::single(0),
                DetRng::seed_from(seed),
            ))
        };
        assert_eq!(mk_kv(7), mk_kv(7));
        assert_ne!(mk_kv(7), mk_kv(8));

        let mk_fs = |seed| {
            pages(FrontierSweep::new(
                PageRange::first(2_000),
                300,
                1,
                4,
                Cycles::ZERO,
                SiteRange::single(0),
                DetRng::seed_from(seed),
            ))
        };
        assert_eq!(mk_fs(7), mk_fs(7));
        assert_ne!(mk_fs(7), mk_fs(8));
    }

    #[test]
    #[should_panic(expected = "hot prefix")]
    fn zipf_kv_rejects_degenerate_hot_split() {
        let _ = ZipfKv::new(
            PageRange::first(10),
            1,
            10,
            1.0,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(0),
        );
    }

    #[test]
    #[should_panic(expected = "phase lengths must be positive")]
    fn phased_stream_rejects_zero_phase() {
        let _ = PhasedStream::new(
            PageRange::first(10),
            vec![5, 0],
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(0),
        );
    }
}
