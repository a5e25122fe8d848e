//! Differential test of Algorithm 1's flat MRU tail table against a
//! reference copy of the `VecDeque` implementation it replaced: one entry
//! per stream holding its tail and direction, a per-entry `detect` that
//! runs the forward window test before the backward one, `remove` plus
//! `push_front` on a match. Forward predictions in the reference stop at
//! page `u64::MAX`, as backward ones stop at page 0.
//!
//! Fault pages cluster near 0, near `u64::MAX` and in the middle of the
//! range, so streams run into both ends of the address space and the
//! distance between a tail near the top and a fault near the bottom is
//! close to `2^64`.

use std::collections::VecDeque;

use proptest::prelude::*;

use sgx_dfp::{StreamConfig, StreamList};
use sgx_epc::VirtPage;

#[derive(Debug, Clone, Copy)]
enum Direction {
    Forward,
    Backward,
}

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    stpn: VirtPage,
    #[allow(dead_code)] // written on every match, as the old code did
    dir: Direction,
}

struct RefStreamList {
    cfg: StreamConfig,
    entries: VecDeque<StreamEntry>,
    matches: u64,
    misses: u64,
}

impl RefStreamList {
    fn new(cfg: StreamConfig) -> Self {
        RefStreamList {
            cfg,
            entries: VecDeque::with_capacity(cfg.list_len),
            matches: 0,
            misses: 0,
        }
    }

    fn detect(&self, entry: &StreamEntry, npn: VirtPage) -> Option<Direction> {
        let w = self.cfg.window();
        if npn.raw() > entry.stpn.raw() && npn.raw() - entry.stpn.raw() <= w {
            Some(Direction::Forward)
        } else if self.cfg.backward
            && npn.raw() < entry.stpn.raw()
            && entry.stpn.raw() - npn.raw() <= w
        {
            Some(Direction::Backward)
        } else {
            None
        }
    }

    fn on_fault_into(&mut self, npn: VirtPage, out: &mut Vec<VirtPage>) {
        let hit = self
            .entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| self.detect(e, npn).map(|d| (i, d)));
        match hit {
            Some((i, dir)) => {
                self.matches += 1;
                let mut e = self.entries.remove(i).expect("index from enumerate");
                e.stpn = npn;
                e.dir = dir;
                self.entries.push_front(e);
                for k in 1..=self.cfg.load_length {
                    match dir {
                        Direction::Forward => {
                            if let Some(p) = npn.raw().checked_add(k) {
                                out.push(VirtPage::new(p));
                            }
                        }
                        Direction::Backward => {
                            if npn.raw() >= k {
                                out.push(VirtPage::new(npn.raw() - k));
                            }
                        }
                    }
                }
            }
            None => {
                self.misses += 1;
                if self.entries.len() == self.cfg.list_len {
                    self.entries.pop_back();
                }
                self.entries.push_front(StreamEntry {
                    stpn: npn,
                    dir: Direction::Forward,
                });
            }
        }
    }
}

/// A page near 0, near `u64::MAX`, or near `2^40`.
fn page() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..48).prop_map(|(region, off)| match region {
        0 => off,
        1 => u64::MAX - off,
        _ => (1 << 40) + off,
    })
}

fn window() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..17, Just(u64::MAX)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Predictions, counters and list length agree after every fault.
    #[test]
    fn flat_table_matches_the_vecdeque_reference(
        faults in proptest::collection::vec(page(), 1..400),
        list_len in 1usize..41,
        load_length in 1u64..9,
        match_window in window(),
        backward in any::<bool>(),
    ) {
        let cfg = StreamConfig::paper_defaults()
            .with_list_len(list_len)
            .with_load_length(load_length)
            .with_match_window(match_window)
            .with_backward(backward);
        let (mut list, mut reference) = (StreamList::new(cfg), RefStreamList::new(cfg));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (step, &f) in faults.iter().enumerate() {
            let npn = VirtPage::new(f);
            got.clear();
            want.clear();
            list.on_fault_into(npn, &mut got);
            reference.on_fault_into(npn, &mut want);
            prop_assert_eq!(&got, &want, "step {} page {}", step, f);
            prop_assert_eq!(list.matches(), reference.matches, "step {}", step);
            prop_assert_eq!(list.misses(), reference.misses, "step {}", step);
            prop_assert_eq!(list.len(), reference.entries.len(), "step {}", step);
        }
    }
}
