//! Per-access classification for SIP profiling (paper §4.4).
//!
//! During the offline profiling run every page-level access is classified:
//!
//! * **Class 1** — the page was accessed recently enough that it would be
//!   found in EPC with high probability ("the page is on `stream_list`" in
//!   the paper's shorthand; we model "recently accessed" with an LRU set
//!   sized like the EPC, which is the quantity the stream list is standing
//!   in for).
//! * **Class 2** — the page sequentially follows a recent access stream:
//!   DFP's multiple-stream predictor would have preloaded it.
//! * **Class 3** — neither: an irregular access that would likely fault.
//!
//! SIP instruments the sites whose Class-3 share exceeds a threshold and,
//! in the hybrid scheme, leaves Class-2 traffic to DFP.

use std::collections::VecDeque;

use sgx_dfp::{StreamConfig, StreamList};
use sgx_epc::VirtPage;
use sgx_sim::FastMap;

/// The access classes of paper §4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Likely EPC hit.
    Class1,
    /// Sequential-stream follower (DFP territory).
    Class2,
    /// Irregular access, likely fault (SIP territory).
    Class3,
}

/// An approximate-LRU set used as the "would this page still be in EPC?"
/// proxy. Insertion and membership are O(1); eviction is amortized O(1)
/// via lazy deletion.
#[derive(Debug, Clone)]
pub struct LruSet {
    cap: usize,
    stamp: u64,
    live: Stamps,
    order: VecDeque<(VirtPage, u64)>,
}

/// The last-touch stamp of every live page. [`FastMap`] reserves the key
/// `u64::MAX`, so that one page keeps its stamp in a side slot.
#[derive(Debug, Clone, Default)]
struct Stamps {
    map: FastMap,
    max_page: Option<u64>,
}

impl Stamps {
    fn get(&self, page: VirtPage) -> Option<u64> {
        match page.raw() {
            u64::MAX => self.max_page,
            p => self.map.get(p),
        }
    }

    fn set(&mut self, page: VirtPage, stamp: u64) {
        match page.raw() {
            u64::MAX => self.max_page = Some(stamp),
            p => {
                self.map.insert(p, stamp);
            }
        }
    }

    fn remove(&mut self, page: VirtPage) {
        match page.raw() {
            u64::MAX => self.max_page = None,
            p => {
                self.map.remove(p);
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len() + usize::from(self.max_page.is_some())
    }
}

impl LruSet {
    /// An empty set retaining at most `cap` pages.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "LRU capacity must be positive");
        LruSet {
            cap,
            stamp: 0,
            live: Stamps::default(),
            order: VecDeque::new(),
        }
    }

    /// Whether `page` is among the `cap` most recently touched pages.
    pub fn contains(&self, page: VirtPage) -> bool {
        self.live.get(page).is_some()
    }

    /// Number of pages retained.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.live.len() == 0
    }

    /// Marks `page` as just-touched.
    pub fn touch(&mut self, page: VirtPage) {
        self.stamp += 1;
        self.live.set(page, self.stamp);
        self.order.push_back((page, self.stamp));
        while self.live.len() > self.cap {
            // Lazy deletion: skip stale queue entries for re-touched pages.
            let (p, s) = self.order.pop_front().expect("live non-empty => queued");
            if self.live.get(p) == Some(s) {
                self.live.remove(p);
            }
        }
        // Bound queue growth from re-touches.
        if self.order.len() > self.cap * 4 {
            let live = &self.live;
            self.order.retain(|&(p, s)| live.get(p) == Some(s));
        }
    }
}

/// The streaming classifier: feeds each profiled access through the LRU
/// proxy and an Algorithm-1 [`StreamList`], yielding its [`AccessClass`].
///
/// # Examples
///
/// ```
/// use sgx_epc::VirtPage;
/// use sgx_sip::{AccessClass, Classifier};
///
/// let mut c = Classifier::new(1024);
/// assert_eq!(c.classify(VirtPage::new(10)), AccessClass::Class3); // cold
/// assert_eq!(c.classify(VirtPage::new(11)), AccessClass::Class2); // stream
/// assert_eq!(c.classify(VirtPage::new(11)), AccessClass::Class1); // hot
/// ```
#[derive(Debug, Clone)]
pub struct Classifier {
    recent: LruSet,
    streams: StreamList,
    /// Scratch for the stream detector's prediction, reused per access.
    predicted: Vec<VirtPage>,
}

impl Classifier {
    /// A classifier whose residency proxy holds `epc_proxy_pages` pages and
    /// whose stream detector uses the paper-default Algorithm 1 parameters.
    pub fn new(epc_proxy_pages: usize) -> Self {
        Self::with_stream_config(epc_proxy_pages, StreamConfig::paper_defaults())
    }

    /// Full control over the stream-detector configuration.
    pub fn with_stream_config(epc_proxy_pages: usize, cfg: StreamConfig) -> Self {
        Classifier {
            recent: LruSet::new(epc_proxy_pages),
            streams: StreamList::new(cfg),
            predicted: Vec::new(),
        }
    }

    /// Classifies the next access in trace order and updates the model.
    pub fn classify(&mut self, page: VirtPage) -> AccessClass {
        let class = if self.recent.contains(page) {
            AccessClass::Class1
        } else {
            // Not recently touched: would fault. Stream detection decides
            // whether DFP would have covered it. `on_fault_into` both tests and
            // learns, exactly as the kernel-side Algorithm 1 does.
            self.predicted.clear();
            self.streams.on_fault_into(page, &mut self.predicted);
            if !self.predicted.is_empty() {
                AccessClass::Class2
            } else {
                AccessClass::Class3
            }
        };
        self.recent.touch(page);
        class
    }

    /// Pages currently retained by the residency proxy.
    pub fn resident_estimate(&self) -> usize {
        self.recent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut l = LruSet::new(3);
        for n in 0..4 {
            l.touch(p(n));
        }
        assert!(!l.contains(p(0)));
        assert!(l.contains(p(1)));
        assert!(l.contains(p(3)));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn lru_retouch_refreshes_recency() {
        let mut l = LruSet::new(3);
        for n in 0..3 {
            l.touch(p(n));
        }
        l.touch(p(0)); // 0 becomes most recent
        l.touch(p(9)); // evicts 1, not 0
        assert!(l.contains(p(0)));
        assert!(!l.contains(p(1)));
        assert!(l.contains(p(2)));
        assert!(l.contains(p(9)));
    }

    #[test]
    fn lru_queue_stays_bounded_under_retouch_storm() {
        let mut l = LruSet::new(8);
        for i in 0..10_000u64 {
            l.touch(p(i % 4));
        }
        assert!(l.len() <= 8);
        assert!(l.order.len() <= 8 * 4 + 1, "queue grew: {}", l.order.len());
    }

    #[test]
    fn sequential_trace_is_class2_after_seed() {
        let mut c = Classifier::new(1 << 16);
        assert_eq!(c.classify(p(100)), AccessClass::Class3);
        for n in 101..140 {
            assert_eq!(c.classify(p(n)), AccessClass::Class2, "page {n}");
        }
    }

    #[test]
    fn stream_at_the_top_page_classifies_without_panicking() {
        let mut c = Classifier::new(4);
        assert_eq!(c.classify(p(u64::MAX - 1)), AccessClass::Class3);
        // The stream matches, but no page lies beyond u64::MAX to preload,
        // as no page lies below 0 for a backward stream.
        assert_eq!(c.classify(p(u64::MAX)), AccessClass::Class3);
        let mut c = Classifier::new(4);
        c.classify(p(u64::MAX - 2));
        assert_eq!(c.classify(p(u64::MAX - 1)), AccessClass::Class2);
    }

    #[test]
    fn hot_page_is_class1() {
        let mut c = Classifier::new(1 << 16);
        c.classify(p(5));
        for _ in 0..10 {
            assert_eq!(c.classify(p(5)), AccessClass::Class1);
        }
    }

    #[test]
    fn scattered_trace_is_class3() {
        let mut c = Classifier::new(1 << 16);
        for i in 0..50u64 {
            assert_eq!(c.classify(p(i * 10_000)), AccessClass::Class3);
        }
    }

    #[test]
    fn eviction_from_proxy_downgrades_class1() {
        // Proxy of 4 pages: a loop over 8 pages never stays "resident".
        let mut c = Classifier::new(4);
        let mut classes = Vec::new();
        for _ in 0..4 {
            for n in (0..80).step_by(10) {
                classes.push(c.classify(p(n)));
            }
        }
        let class1 = classes
            .iter()
            .filter(|&&cl| cl == AccessClass::Class1)
            .count();
        assert_eq!(class1, 0, "working set exceeds proxy: no Class 1");
    }

    #[test]
    fn working_set_within_proxy_becomes_class1() {
        let mut c = Classifier::new(1024);
        let mut last_round = Vec::new();
        for round in 0..3 {
            last_round.clear();
            for n in (0..400).step_by(10) {
                last_round.push(c.classify(p(n)));
            }
            let _ = round;
        }
        assert!(
            last_round.iter().all(|&cl| cl == AccessClass::Class1),
            "steady-state loop should be all Class 1: {last_round:?}"
        );
    }
}
