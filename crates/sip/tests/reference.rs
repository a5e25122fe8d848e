//! Differential tests of the SIP profiler against a reference copy of its
//! std-collections implementation (`HashMap` LRU proxy, allocating
//! `StreamList::on_fault`, `BTreeMap` tallies, `HashSet` plan). Streams
//! draw pages from a small pool that runs from `0` up to `u64::MAX` and
//! sites that include `u32::MAX`; proxy capacities of 1–8 make the LRU's
//! lazy-deletion `retain` run.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use proptest::prelude::*;

use sgx_dfp::{StreamConfig, StreamList};
use sgx_epc::VirtPage;
use sgx_sim::Cycles;
use sgx_sip::{
    profile_stream, AccessClass, Classifier, InstrumentationPlan, LruSet, SipConfig, SiteProfile,
};
use sgx_workloads::{Access, SiteId};

/// Small pages recur and form short forward and backward streams (a
/// backward match at page 0 predicts nothing); pages just below
/// `u64::MAX` form streams that run into the top of the address space (a
/// forward match at `u64::MAX` predicts nothing), and `u64::MAX` is also
/// the key `FastMap` reserves.
const PAGES: [u64; 18] = [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    7,
    100,
    101,
    102,
    5_000,
    1 << 40,
    u64::MAX - 5,
    u64::MAX - 3,
    u64::MAX - 2,
    u64::MAX - 1,
    u64::MAX,
];
const SITES: [u32; 5] = [0, 1, 2, 7, u32::MAX];

struct RefLru {
    cap: usize,
    stamp: u64,
    live: HashMap<VirtPage, u64>,
    order: VecDeque<(VirtPage, u64)>,
}

impl RefLru {
    fn new(cap: usize) -> Self {
        RefLru {
            cap,
            stamp: 0,
            live: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn contains(&self, page: VirtPage) -> bool {
        self.live.contains_key(&page)
    }

    fn touch(&mut self, page: VirtPage) {
        self.stamp += 1;
        self.live.insert(page, self.stamp);
        self.order.push_back((page, self.stamp));
        while self.live.len() > self.cap {
            let (p, s) = self.order.pop_front().expect("live non-empty => queued");
            if self.live.get(&p) == Some(&s) {
                self.live.remove(&p);
            }
        }
        if self.order.len() > self.cap * 4 {
            let live = &self.live;
            self.order.retain(|(p, s)| live.get(p) == Some(s));
        }
    }
}

struct RefClassifier {
    recent: RefLru,
    streams: StreamList,
}

impl RefClassifier {
    fn new(cap: usize) -> Self {
        RefClassifier {
            recent: RefLru::new(cap),
            streams: StreamList::new(StreamConfig::paper_defaults()),
        }
    }

    fn classify(&mut self, page: VirtPage) -> AccessClass {
        let class = if self.recent.contains(page) {
            AccessClass::Class1
        } else if !self.streams.on_fault(page).is_empty() {
            AccessClass::Class2
        } else {
            AccessClass::Class3
        };
        self.recent.touch(page);
        class
    }
}

fn ref_profile(stream: &[Access], cap: usize) -> (BTreeMap<SiteId, SiteProfile>, u64) {
    let mut classifier = RefClassifier::new(cap);
    let mut sites: BTreeMap<SiteId, SiteProfile> = BTreeMap::new();
    let mut total = 0;
    for access in stream {
        let class = classifier.classify(access.page);
        let entry = sites.entry(access.site).or_default();
        match class {
            AccessClass::Class1 => entry.class1 += 1,
            AccessClass::Class2 => entry.class2 += 1,
            AccessClass::Class3 => entry.class3 += 1,
        }
        entry.executions += access.repeats as u64;
        total += 1;
    }
    (sites, total)
}

fn ref_plan(sites: &BTreeMap<SiteId, SiteProfile>, cfg: SipConfig) -> HashSet<SiteId> {
    let mut plan = HashSet::new();
    for (&id, s) in sites {
        if s.irregular_ratio() <= cfg.threshold {
            continue;
        }
        if cfg.leave_class2_to_dfp {
            let n = s.events();
            if n > 0 && s.class2 * 2 > n {
                continue;
            }
        }
        plan.insert(id);
    }
    plan
}

fn stream(raw: &[(usize, usize, u32)]) -> Vec<Access> {
    raw.iter()
        .map(|&(page, site, repeats)| {
            Access::with_repeats(
                VirtPage::new(PAGES[page]),
                Cycles::ZERO,
                SiteId(SITES[site]),
                repeats,
            )
        })
        .collect()
}

proptest! {
    /// Membership and size agree with the reference after every touch.
    #[test]
    fn lru_set_matches_the_reference(
        raw in proptest::collection::vec(0..PAGES.len(), 1..300),
        cap in 1usize..9,
    ) {
        let (mut lru, mut reference) = (LruSet::new(cap), RefLru::new(cap));
        for (step, &i) in raw.iter().enumerate() {
            let page = VirtPage::new(PAGES[i]);
            lru.touch(page);
            reference.touch(page);
            prop_assert_eq!(lru.len(), reference.live.len(), "step {}", step);
            for &p in &PAGES {
                let p = VirtPage::new(p);
                prop_assert_eq!(lru.contains(p), reference.contains(p), "step {} {:?}", step, p);
            }
        }
    }

    /// The classifier, the per-site profile and the selected plan agree
    /// with the reference pipeline.
    #[test]
    fn profile_and_plan_match_the_reference(
        raw in proptest::collection::vec((0..PAGES.len(), 0..SITES.len(), 1u32..5), 1..300),
        cap in 1usize..9,
        threshold in 0.0f64..1.0,
        leave in 0u8..2,
    ) {
        let trace = stream(&raw);
        let (mut classifier, mut reference) = (Classifier::new(cap), RefClassifier::new(cap));
        for (step, a) in trace.iter().enumerate() {
            prop_assert_eq!(classifier.classify(a.page), reference.classify(a.page), "step {}", step);
        }

        let profile = profile_stream(trace.iter().copied(), cap);
        let (want, total) = ref_profile(&trace, cap);
        prop_assert_eq!(profile.total_events(), total);
        let got: Vec<(SiteId, SiteProfile)> = profile.sites().map(|(id, s)| (id, *s)).collect();
        let want_rows: Vec<(SiteId, SiteProfile)> = want.iter().map(|(&id, &s)| (id, s)).collect();
        prop_assert_eq!(got, want_rows);

        let cfg = SipConfig::paper_defaults()
            .with_threshold(threshold)
            .with_leave_class2_to_dfp(leave == 1);
        let plan = InstrumentationPlan::from_profile(&profile, cfg);
        let want_plan = ref_plan(&want, cfg);
        let mut want_sites: Vec<SiteId> = want_plan.iter().copied().collect();
        want_sites.sort_unstable();
        prop_assert_eq!(plan.sites(), want_sites);
        prop_assert_eq!(plan.len(), want_plan.len());
        for &s in &SITES {
            let s = SiteId(s);
            prop_assert_eq!(plan.is_instrumented(s), want_plan.contains(&s), "{:?}", s);
        }
    }
}
