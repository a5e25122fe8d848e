//! The paper's multiple-stream predictor (Algorithm 1).
//!
//! A fixed-length, LRU-managed list of *streams*; each entry remembers the
//! stream's tail page number (`stpn`). A new fault (`npn`) that is
//! "sequential to" some `stpn` extends that stream and triggers a preload of
//! the following `LOADLENGTH` pages; otherwise it replaces the least
//! recently used stream.
//!
//! ## Interpretation choices (documented deviations)
//!
//! The paper leaves two details open; both are configurable here:
//!
//! * **"npn is sequential to stpn"** — a strict successor test would break a
//!   stream every `LOADLENGTH` pages (preloaded pages fault less often, so
//!   the next fault lands `LOADLENGTH` ahead, like Linux readahead). We
//!   default to a *window* test, `stpn < npn ≤ stpn + match_window` with
//!   `match_window = LOADLENGTH`, which keeps a correctly predicted stream
//!   alive; `match_window = 1` recovers the strict reading.
//! * **Preload range** — the paper's prose has an off-by-one between
//!   "page(npn+LOADLENGTH−1)" and its own worked example; we preload
//!   `npn+1 ..= npn+LOADLENGTH` (`LOADLENGTH` pages beyond the demand-loaded
//!   fault page).
//!
//! Algorithm 1 passes a `direction`; descending streams (backward scans) are
//! recognized when [`StreamConfig::backward`] is set.

use std::error::Error;
use std::fmt;

use sgx_epc::VirtPage;
use sgx_sim::Cycles;

use crate::{Prediction, Predictor, ProcessId};

/// Tuning parameters of the multiple-stream predictor.
///
/// Defaults are the paper's chosen operating point: `stream_list` length 30
/// (Fig. 6) and `LOADLENGTH` 4 (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Length of the `stream_list` (paper Fig. 6; default 30).
    pub list_len: usize,
    /// Pages preloaded per detected stream extension (`LOADLENGTH`,
    /// paper Fig. 7; default 4).
    pub load_length: u64,
    /// Window for the "sequential to" test; `0` means "use `load_length`".
    pub match_window: u64,
    /// Whether descending streams are recognized.
    pub backward: bool,
}

impl StreamConfig {
    /// The paper's operating point: list length 30, `LOADLENGTH` 4.
    pub const fn paper_defaults() -> Self {
        StreamConfig {
            list_len: 30,
            load_length: 4,
            match_window: 0,
            backward: true,
        }
    }

    /// Checks that Algorithm 1 can run with this configuration.
    ///
    /// # Errors
    ///
    /// [`StreamConfigError`] when `list_len` or `load_length` is zero.
    pub fn validate(&self) -> Result<(), StreamConfigError> {
        if self.list_len == 0 {
            Err(StreamConfigError::EmptyList)
        } else if self.load_length == 0 {
            Err(StreamConfigError::ZeroLoadLength)
        } else {
            Ok(())
        }
    }

    /// Effective match window (resolves the `0 = load_length` default).
    pub fn window(&self) -> u64 {
        if self.match_window == 0 {
            self.load_length
        } else {
            self.match_window
        }
    }

    /// Overrides the stream-list length.
    pub fn with_list_len(mut self, n: usize) -> Self {
        self.list_len = n;
        self
    }

    /// Overrides `LOADLENGTH`.
    pub fn with_load_length(mut self, n: u64) -> Self {
        self.load_length = n;
        self
    }

    /// Overrides the match window (`0` = follow `load_length`).
    pub fn with_match_window(mut self, n: u64) -> Self {
        self.match_window = n;
        self
    }

    /// Enables or disables backward-stream detection.
    pub fn with_backward(mut self, b: bool) -> Self {
        self.backward = b;
        self
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// A [`StreamConfig`] Algorithm 1 cannot run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamConfigError {
    /// `list_len == 0`: no stream can be tracked.
    EmptyList,
    /// `load_length == 0`: a matched stream would preload nothing.
    ZeroLoadLength,
}

impl fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StreamConfigError::EmptyList => "stream_list length must be positive",
            StreamConfigError::ZeroLoadLength => "LOADLENGTH must be positive",
        })
    }
}

impl Error for StreamConfigError {}

/// One process's `stream_list`: the core of Algorithm 1.
///
/// The list is a flat table of stream tail page numbers (`stpn`), most
/// recently used first. A stream's direction is not stored: for a given
/// tail it follows from which side of the tail the fault lands, so the
/// match test derives it.
#[derive(Debug, Clone)]
pub struct StreamList {
    cfg: StreamConfig,
    /// Stream tails in MRU order; never longer than `cfg.list_len`.
    tails: Vec<u64>,
    matches: u64,
    misses: u64,
}

impl StreamList {
    /// Creates an empty stream list.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.list_len == 0` or `cfg.load_length == 0`; see
    /// [`StreamConfig::validate`] for the checked form.
    pub fn new(cfg: StreamConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        StreamList {
            cfg,
            tails: Vec::with_capacity(cfg.list_len),
            matches: 0,
            misses: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Number of streams currently tracked (≤ `list_len`).
    pub fn len(&self) -> usize {
        self.tails.len()
    }

    /// `true` when no streams are tracked.
    pub fn is_empty(&self) -> bool {
        self.tails.is_empty()
    }

    /// Faults that extended an existing stream.
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Faults that started a new stream.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Algorithm 1: processes fault `npn`, returns the pages to preload.
    ///
    /// On a stream match the entry's `stpn` advances to `npn`, the entry
    /// moves to the list head, and `LOADLENGTH` pages beyond `npn` (in the
    /// stream's direction) are predicted. On a miss the LRU entry is
    /// replaced by a new stream seeded at `npn` and nothing is predicted.
    pub fn on_fault(&mut self, npn: VirtPage) -> Prediction {
        let mut pages = Vec::new();
        self.on_fault_into(npn, &mut pages);
        Prediction::of(pages)
    }

    /// Allocation-free form of [`StreamList::on_fault`]: appends the pages
    /// to preload to `out` (in the same order `on_fault` returns them).
    ///
    /// Predictions stop at the ends of the address space: a forward
    /// stream never predicts past page `u64::MAX`, a backward one never
    /// below page 0.
    pub fn on_fault_into(&mut self, npn: VirtPage, out: &mut Vec<VirtPage>) {
        let npn = npn.raw();
        // `stpn` matches when `1 ≤ |npn − stpn| ≤ window` and the fault
        // lies ahead of it, or behind it with backward detection on. The
        // `− 1` wraps a distance of 0 to `u64::MAX`, which no window
        // admits. The first match in MRU order wins.
        let (w, backward) = (self.cfg.window(), self.cfg.backward);
        let hit = self
            .tails
            .iter()
            .position(|&stpn| (npn.abs_diff(stpn).wrapping_sub(1) < w) & (backward | (npn > stpn)));
        match hit {
            Some(i) => {
                self.matches += 1;
                let forward = npn > self.tails[i];
                self.tails[..=i].rotate_right(1);
                self.tails[0] = npn;
                let n = self.cfg.load_length;
                if forward {
                    let n = n.min(u64::MAX - npn);
                    out.extend((1..=n).map(|k| VirtPage::new(npn + k)));
                } else {
                    let n = n.min(npn);
                    out.extend((1..=n).map(|k| VirtPage::new(npn - k)));
                }
            }
            None => {
                self.misses += 1;
                self.tails.truncate(self.cfg.list_len - 1);
                self.tails.insert(0, npn);
            }
        }
    }

    /// Clears all tracked streams and statistics.
    pub fn reset(&mut self) {
        self.tails.clear();
        self.matches = 0;
        self.misses = 0;
    }
}

/// The paper's DFP predictor: one [`StreamList`] per process
/// (Algorithm 1's `find_stream_list(ID)`).
///
/// # Examples
///
/// ```
/// use sgx_dfp::{MultiStreamPredictor, Predictor, ProcessId, StreamConfig};
/// use sgx_epc::VirtPage;
/// use sgx_sim::Cycles;
///
/// let mut dfp = MultiStreamPredictor::new(StreamConfig::paper_defaults());
/// let pid = ProcessId(1);
/// // First fault seeds a stream, predicting nothing…
/// assert!(dfp.on_fault(Cycles::ZERO, pid, VirtPage::new(100)).is_empty());
/// // …the sequential follow-up extends it and predicts LOADLENGTH pages.
/// let p = dfp.on_fault(Cycles::ZERO, pid, VirtPage::new(101));
/// assert_eq!(
///     p.pages,
///     vec![102, 103, 104, 105].into_iter().map(VirtPage::new).collect::<Vec<_>>(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct MultiStreamPredictor {
    cfg: StreamConfig,
    // Few processes fault per run, so a first-fault-ordered Vec with a
    // linear probe beats hashing every fault (and stays deterministic).
    per_process: Vec<(ProcessId, StreamList)>,
}

impl MultiStreamPredictor {
    /// Creates the predictor with the given stream configuration.
    pub fn new(cfg: StreamConfig) -> Self {
        MultiStreamPredictor {
            cfg,
            per_process: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// The stream list of `pid`, if that process has faulted.
    pub fn stream_list(&self, pid: ProcessId) -> Option<&StreamList> {
        self.per_process
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, l)| l)
    }

    /// The stream list of `pid`, creating it on first fault.
    fn list_mut(&mut self, pid: ProcessId) -> &mut StreamList {
        let idx = match self.per_process.iter().position(|(p, _)| *p == pid) {
            Some(i) => i,
            None => {
                self.per_process.push((pid, StreamList::new(self.cfg)));
                self.per_process.len() - 1
            }
        };
        &mut self.per_process[idx].1
    }

    /// Total stream matches across processes.
    pub fn total_matches(&self) -> u64 {
        self.per_process.iter().map(|(_, l)| l.matches()).sum()
    }

    /// Total stream misses across processes.
    pub fn total_misses(&self) -> u64 {
        self.per_process.iter().map(|(_, l)| l.misses()).sum()
    }
}

impl Default for MultiStreamPredictor {
    fn default() -> Self {
        Self::new(StreamConfig::paper_defaults())
    }
}

impl Predictor for MultiStreamPredictor {
    fn on_fault_into(
        &mut self,
        _now: Cycles,
        pid: ProcessId,
        npn: VirtPage,
        out: &mut Vec<VirtPage>,
    ) {
        self.list_mut(pid).on_fault_into(npn, out)
    }

    fn name(&self) -> &'static str {
        "multi-stream"
    }

    fn reset(&mut self) {
        self.per_process.clear();
    }

    fn live_streams(&self) -> u64 {
        self.per_process.iter().map(|(_, l)| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    fn pages(ns: &[u64]) -> Vec<VirtPage> {
        ns.iter().map(|&n| p(n)).collect()
    }

    fn list(cfg: StreamConfig) -> StreamList {
        StreamList::new(cfg)
    }

    #[test]
    fn first_fault_seeds_without_prediction() {
        let mut s = list(StreamConfig::paper_defaults());
        assert!(s.on_fault(p(10)).is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.matches(), 0);
    }

    #[test]
    fn sequential_fault_extends_and_predicts_loadlength_pages() {
        let mut s = list(StreamConfig::paper_defaults().with_load_length(8));
        s.on_fault(p(1));
        let pred = s.on_fault(p(2));
        assert_eq!(pred.pages, pages(&[3, 4, 5, 6, 7, 8, 9, 10]));
        assert_eq!(s.matches(), 1);
    }

    #[test]
    fn windowed_match_keeps_stream_alive_across_preloaded_range() {
        // LOADLENGTH 4: after a fault at 2 the pages 3–6 are preloaded, so
        // the next fault lands at 6 or 7; the window must still match.
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(2));
        s.on_fault(p(3)); // match, stpn = 3
        let pred = s.on_fault(p(7)); // within window 4 of stpn 3
        assert_eq!(pred.pages, pages(&[8, 9, 10, 11]));
        assert_eq!(s.matches(), 2);
    }

    #[test]
    fn strict_window_recovers_paper_literal_reading() {
        let mut s = list(StreamConfig::paper_defaults().with_match_window(1));
        s.on_fault(p(2));
        assert!(s.on_fault(p(4)).is_empty(), "gap of 2 must miss");
        assert!(!s.on_fault(p(5)).is_empty(), "strict successor must match");
        assert_eq!(s.misses(), 2);
        assert_eq!(s.matches(), 1);
    }

    #[test]
    fn backward_stream_detected_and_predicts_descending() {
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(100));
        let pred = s.on_fault(p(99));
        assert_eq!(pred.pages, pages(&[98, 97, 96, 95]));
    }

    #[test]
    fn backward_prediction_clamps_at_page_zero() {
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(3));
        let pred = s.on_fault(p(2));
        // Only pages 1 and 0 exist below 2.
        assert_eq!(pred.pages, pages(&[1, 0]));
    }

    #[test]
    fn backward_detection_can_be_disabled() {
        let mut s = list(StreamConfig::paper_defaults().with_backward(false));
        s.on_fault(p(100));
        assert!(s.on_fault(p(99)).is_empty());
        assert_eq!(s.misses(), 2);
    }

    #[test]
    fn lru_replacement_evicts_oldest_stream() {
        let cfg = StreamConfig::paper_defaults().with_list_len(2);
        let mut s = list(cfg);
        s.on_fault(p(1000)); // stream A
        s.on_fault(p(2000)); // stream B
        s.on_fault(p(3000)); // stream C replaces A (LRU)
        assert_eq!(s.len(), 2);
        // A's successor no longer matches anything.
        assert!(s.on_fault(p(1001)).is_empty());
        // That miss replaced B; C is still alive.
        assert!(!s.on_fault(p(3001)).is_empty());
    }

    #[test]
    fn matching_stream_moves_to_head() {
        let cfg = StreamConfig::paper_defaults().with_list_len(2);
        let mut s = list(cfg);
        s.on_fault(p(1000)); // A (head: A)
        s.on_fault(p(2000)); // B (head: B, A)
        s.on_fault(p(1001)); // extends A (head: A, B)
        s.on_fault(p(5000)); // new stream replaces LRU = B
        assert!(!s.on_fault(p(1002)).is_empty(), "A must have survived");
    }

    #[test]
    fn interleaved_streams_all_tracked() {
        // The "multiple" in multiple-stream: two interleaved sequential
        // walks both keep matching.
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(10));
        s.on_fault(p(5_000));
        let a = s.on_fault(p(11));
        let b = s.on_fault(p(5_001));
        assert_eq!(a.pages[0], p(12));
        assert_eq!(b.pages[0], p(5_002));
        assert_eq!(s.matches(), 2);
    }

    #[test]
    fn per_process_isolation() {
        let mut m = MultiStreamPredictor::default();
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        m.on_fault(Cycles::ZERO, p1, p(10));
        // Process 2 faulting at 11 must NOT extend process 1's stream.
        assert!(m.on_fault(Cycles::ZERO, p2, p(11)).is_empty());
        assert!(!m.on_fault(Cycles::ZERO, p1, p(11)).is_empty());
        assert_eq!(m.total_matches(), 1);
        assert_eq!(m.total_misses(), 2);
        assert!(m.stream_list(p1).is_some());
        assert!(m.stream_list(ProcessId(9)).is_none());
    }

    #[test]
    fn reset_clears_learned_state() {
        let mut m = MultiStreamPredictor::default();
        m.on_fault(Cycles::ZERO, ProcessId(1), p(10));
        m.on_fault(Cycles::ZERO, ProcessId(1), p(11));
        m.reset();
        assert_eq!(m.total_matches(), 0);
        assert!(m.on_fault(Cycles::ZERO, ProcessId(1), p(12)).is_empty());
    }

    #[test]
    fn forward_prediction_clamps_at_the_top_page() {
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(u64::MAX - 3));
        let pred = s.on_fault(p(u64::MAX - 2));
        // Only pages MAX-1 and MAX exist above MAX-2.
        assert_eq!(pred.pages, pages(&[u64::MAX - 1, u64::MAX]));
        assert!(s.on_fault(p(u64::MAX)).is_empty());
        assert_eq!(s.matches(), 2);
    }

    #[test]
    fn no_stream_wraps_around_the_address_space() {
        let mut s = list(StreamConfig::paper_defaults().with_match_window(u64::MAX));
        s.on_fault(p(u64::MAX));
        // Page 0 lies behind page MAX, never ahead of it.
        assert_eq!(s.on_fault(p(0)).pages, Vec::<VirtPage>::new());
        assert_eq!(s.matches(), 1);
        let mut s = list(StreamConfig::paper_defaults().with_backward(false));
        s.on_fault(p(u64::MAX));
        assert!(s.on_fault(p(0)).is_empty());
        assert_eq!(s.misses(), 2);
    }

    #[test]
    fn validate_names_the_degenerate_field() {
        let cfg = StreamConfig::paper_defaults();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(
            cfg.with_list_len(0).validate(),
            Err(StreamConfigError::EmptyList)
        );
        assert_eq!(
            cfg.with_load_length(0).validate(),
            Err(StreamConfigError::ZeroLoadLength)
        );
    }

    #[test]
    #[should_panic(expected = "LOADLENGTH must be positive")]
    fn zero_loadlength_rejected() {
        let _ = StreamList::new(StreamConfig::paper_defaults().with_load_length(0));
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_list_len_rejected() {
        let _ = StreamList::new(StreamConfig::paper_defaults().with_list_len(0));
    }

    #[test]
    fn window_zero_follows_load_length() {
        let cfg = StreamConfig::paper_defaults()
            .with_load_length(7)
            .with_match_window(0);
        assert_eq!(cfg.window(), 7);
        assert_eq!(cfg.with_match_window(3).window(), 3);
    }
}
