//! Differential equivalence battery for the hot-path engine rewrite.
//!
//! The rewritten inner loop (struct-of-arrays page tables, word-at-a-time
//! CLOCK scans, slab/arena buffers, event batching, the no-sink fast
//! path) is pinned by the goldens that predate it: every campaign cell
//! must render byte-identically to the checked-in reports, serially and
//! under a worker pool. Unlike the per-suite golden harnesses, this
//! battery never regenerates — a mismatch here means the engine no
//! longer computes the pre-rewrite bits, full stop.

use std::path::PathBuf;

use sgx_preloading::prelude::*;
use sgx_preloading::{render_chrome_trace, CollectingSink};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} must exist ({e})", path.display()))
}

/// The exact campaign `tests/golden/campaign_small.json` pins.
fn small_campaign() -> Campaign {
    Campaign::grid(
        "golden_small",
        2020,
        &[Benchmark::Microbenchmark, Benchmark::Deepsjeng],
        &[Scheme::Baseline, Scheme::DfpStop, Scheme::Sip],
        SimConfig::at_scale(Scale::new(64)),
    )
}

/// The exact campaign `tests/golden/campaign_paper.json` pins: every
/// paper benchmark under every kernel scheme, the grid `campaign` runs.
fn paper_campaign() -> Campaign {
    Campaign::grid(
        "golden_paper",
        2020,
        &Benchmark::ALL,
        &Scheme::ALL,
        SimConfig::at_scale(Scale::new(64)),
    )
}

/// The exact campaign `tests/golden/campaign_chaos_small.json` pins.
fn small_chaos_campaign() -> Campaign {
    Campaign::chaos_grid(
        "chaos_small",
        2021,
        &[Benchmark::Microbenchmark, Benchmark::Deepsjeng],
        &[Scheme::Dfp, Scheme::DfpStop],
        SimConfig::at_scale(Scale::new(64)),
        &[
            ("none", ChaosSchedule::none()),
            ("light", ChaosSchedule::light(9)),
            ("heavy", ChaosSchedule::heavy(9)),
        ],
    )
}

#[test]
fn campaign_golden_bits_survive_the_rewrite_at_jobs_1_and_4() {
    let want = golden("campaign_small.json");
    let campaign = small_campaign();
    for jobs in [1, 4] {
        assert_eq!(
            campaign
                .run_with_jobs(jobs)
                .expect("campaign run failed")
                .to_canonical_json(),
            want,
            "campaign_small.json diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn paper_campaign_golden_bits_survive_at_jobs_1_and_4() {
    let want = golden("campaign_paper.json");
    let campaign = paper_campaign();
    for jobs in [1, 4] {
        assert_eq!(
            campaign
                .run_with_jobs(jobs)
                .expect("campaign run failed")
                .to_canonical_json(),
            want,
            "campaign_paper.json diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn chaos_campaign_golden_bits_survive_the_rewrite_at_jobs_1_and_4() {
    let want = golden("campaign_chaos_small.json");
    let campaign = small_chaos_campaign();
    for jobs in [1, 4] {
        assert_eq!(
            campaign
                .run_with_jobs(jobs)
                .expect("campaign run failed")
                .to_canonical_json(),
            want,
            "campaign_chaos_small.json diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn timeline_golden_bits_survive_the_rewrite() {
    let cfg = SimConfig::at_scale(Scale::new(16_384));
    let (sink, collected) = CollectingSink::new();
    SimRun::new(&cfg)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Microbenchmark)
        .sink(Box::new(sink))
        .run_one()
        .expect("DFP on the microbenchmark");
    let events = collected.borrow().clone();
    assert_eq!(
        render_chrome_trace(&events),
        golden("timeline_small.chrome.json"),
        "timeline_small.chrome.json diverged"
    );
}

/// Every workload × kernel scheme × chaos preset × tenant policy, run
/// serially and with four workers: the two reports must agree bit for
/// bit (stats, attribution, percentiles, tenant telemetry — the whole
/// canonical rendering). The tiny scale keeps the 540-cell grid cheap;
/// the axes, not the resolution, are what the rewrite must survive.
#[test]
fn full_grid_is_byte_identical_serial_vs_parallel() {
    let cfg = SimConfig::at_scale(Scale::new(256));
    let schemes = [
        Scheme::Baseline,
        Scheme::Dfp,
        Scheme::DfpStop,
        Scheme::Sip,
        Scheme::Hybrid,
    ];
    let chaos = [
        ("none", ChaosSchedule::none()),
        ("light", ChaosSchedule::light(7)),
        ("heavy", ChaosSchedule::heavy(7)),
    ];
    let tenants = [
        ("none", TenantPolicy::none()),
        ("fair2", TenantPolicy::fair(2, cfg.epc_pages)),
    ];
    for (tlabel, policy) in tenants {
        let campaign = Campaign::chaos_grid(
            "equivalence_full",
            2026,
            &Benchmark::ALL,
            &schemes,
            cfg.with_tenant_policy(policy),
            &chaos,
        );
        let serial = campaign
            .run_with_jobs(1)
            .expect("serial campaign run failed")
            .to_canonical_json();
        let parallel = campaign
            .run_with_jobs(4)
            .expect("parallel campaign run failed")
            .to_canonical_json();
        assert_eq!(
            serial, parallel,
            "tenant={tlabel}: serial and 4-worker grids diverged"
        );
    }
}
