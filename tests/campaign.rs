//! Golden-report regression harness for the campaign engine.
//!
//! A small fixed campaign runs at reduced scale; its canonical JSON must
//! (a) be byte-identical between serial and multi-worker execution, and
//! (b) match the checked-in golden report under `tests/golden/`.
//!
//! When an intentional change shifts the numbers, regenerate the golden
//! file with:
//!
//! ```text
//! SGX_GOLDEN_UPDATE=1 cargo test --test campaign
//! ```

use std::path::PathBuf;

use sgx_preloading::prelude::*;

/// Environment variable that switches the harness from compare to
/// regenerate.
const UPDATE_ENV: &str = "SGX_GOLDEN_UPDATE";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The fixed campaign the golden file pins: two benchmarks across three
/// schemes at a tiny scale, per-cell seeding (the default), fixed seed.
fn golden_campaign() -> Campaign {
    Campaign::grid(
        "golden_small",
        2020,
        &[Benchmark::Microbenchmark, Benchmark::Deepsjeng],
        &[Scheme::Baseline, Scheme::DfpStop, Scheme::Sip],
        SimConfig::at_scale(Scale::new(64)),
    )
}

/// The workload-diversity grid: the four non-SPEC scenario families
/// across the full kernel-scheme grid, pinned by its own golden file.
fn diverse_campaign() -> Campaign {
    Campaign::grid(
        "golden_diverse",
        2020,
        &Benchmark::DIVERSE,
        &Scheme::ALL,
        SimConfig::at_scale(Scale::new(64)),
    )
}

/// The predictor-zoo grid: every shipped predictor across the four
/// diversity families and the EDMM rival arms, pinned by its own golden
/// file. The EPC is provisioned growth-friendly — the phase-shift
/// footprint *nearly* fits — so deferred reclamation has room to pay off.
fn predictor_zoo_campaign() -> Campaign {
    let base = SimConfig::at_scale(Scale::new(32));
    Campaign::predictor_grid(
        "golden_predictor_zoo",
        2020,
        &Benchmark::DIVERSE,
        &[
            Scheme::Baseline,
            Scheme::DfpStop,
            Scheme::Edmm,
            Scheme::EdmmDfpStop,
        ],
        base.with_epc_pages(2900),
        &PredictorKind::ALL,
    )
}

/// Shared compare-or-regenerate harness for golden campaign reports.
fn check_golden(got: &str, name: &str) {
    let path = golden_path(name);
    if std::env::var_os(UPDATE_ENV).is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, got).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `{UPDATE_ENV}=1 cargo test --test campaign` to generate it",
            path.display()
        )
    });
    assert_eq!(
        got, &want,
        "campaign output drifted from {name}; if the change is intentional, \
         regenerate with `{UPDATE_ENV}=1 cargo test --test campaign`"
    );
}

#[test]
fn parallel_report_is_field_identical_to_serial() {
    let campaign = golden_campaign();
    let serial = campaign.run_serial().expect("serial campaign run failed");
    let parallel = campaign
        .run_with_jobs(4)
        .expect("parallel campaign run failed");
    assert_eq!(serial.cells.len(), 6);
    assert_eq!(parallel.cells.len(), 6);
    for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        assert_eq!(s.seed, p.seed, "cell {} seed diverged", s.label);
        assert_eq!(s.report, p.report, "cell {} report diverged", s.label);
        assert_eq!(s.events, p.events, "cell {} telemetry diverged", s.label);
    }
    assert_eq!(
        serial.to_canonical_json(),
        parallel.to_canonical_json(),
        "canonical JSON must be byte-identical regardless of worker count"
    );
}

#[test]
fn worker_count_does_not_change_canonical_json() {
    let campaign = golden_campaign();
    let reference = campaign
        .run_serial()
        .expect("serial campaign run failed")
        .to_canonical_json();
    for jobs in [2, 3, 4, 8] {
        assert_eq!(
            campaign
                .run_with_jobs(jobs)
                .expect("parallel campaign run failed")
                .to_canonical_json(),
            reference,
            "{jobs} workers diverged from serial"
        );
    }
}

#[test]
fn campaign_matches_golden_report() {
    let got = golden_campaign()
        .run_with_jobs(4)
        .expect("campaign run failed")
        .to_canonical_json();
    let path = golden_path("campaign_small.json");
    if std::env::var_os(UPDATE_ENV).is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, &got).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `{UPDATE_ENV}=1 cargo test --test campaign` to generate it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "campaign output drifted from the golden report; if the change is \
         intentional, regenerate with `{UPDATE_ENV}=1 cargo test --test campaign`"
    );
}

#[test]
fn diverse_campaign_matches_golden_report_at_any_worker_count() {
    let campaign = diverse_campaign();
    let serial = campaign
        .run_serial()
        .expect("serial diverse campaign failed");
    assert_eq!(
        serial.cells.len(),
        Benchmark::DIVERSE.len() * Scheme::ALL.len(),
        "full scheme grid over the four diversity families"
    );
    let got = serial.to_canonical_json();
    assert_eq!(
        got,
        campaign
            .run_with_jobs(4)
            .expect("parallel diverse campaign failed")
            .to_canonical_json(),
        "diverse grid must be byte-identical across worker counts"
    );
    check_golden(&got, "campaign_diverse.json");
}

#[test]
fn predictor_zoo_matches_golden_report_at_any_worker_count() {
    let campaign = predictor_zoo_campaign();
    let serial = campaign.run_serial().expect("serial zoo campaign failed");
    assert_eq!(
        serial.cells.len(),
        Benchmark::DIVERSE.len() * 4 * PredictorKind::ALL.len(),
        "four schemes and the full predictor menu over the diversity families"
    );
    let got = serial.to_canonical_json();
    assert_eq!(
        got,
        campaign
            .run_with_jobs(4)
            .expect("parallel zoo campaign failed")
            .to_canonical_json(),
        "zoo grid must be byte-identical across worker counts"
    );
    check_golden(&got, "campaign_predictor_zoo.json");
}

#[test]
fn edmm_pays_off_on_a_growth_friendly_family_in_the_pinned_report() {
    let report = predictor_zoo_campaign()
        .run_with_jobs(4)
        .expect("zoo campaign failed");
    let cell = |label: &str| {
        report
            .cells
            .iter()
            .find(|c| c.label == label)
            .unwrap_or_else(|| panic!("no cell labelled {label}"))
    };
    let evictions = |c: &CellReport| c.report.background_evictions + c.report.foreground_evictions;
    let base = cell("phase-shift/baseline/pred=multi-stream");
    let edmm = cell("phase-shift/edmm/pred=multi-stream");
    let both = cell("phase-shift/edmm+dfp-stop/pred=multi-stream");
    assert!(
        evictions(edmm) < evictions(base),
        "deferred reclaim must shed demand evictions: edmm {} vs baseline {}",
        evictions(edmm),
        evictions(base)
    );
    assert!(
        both.report.total_cycles < edmm.report.total_cycles,
        "DFP-stop on top of EDMM must pay for itself: {} vs {}",
        both.report.total_cycles,
        edmm.report.total_cycles
    );
}

#[test]
fn full_json_superset_carries_timing_context() {
    let report = golden_campaign()
        .run_with_jobs(2)
        .expect("campaign run failed");
    let full = report.to_json();
    assert!(full.contains("\"jobs\":2"));
    assert!(full.contains("\"wall_nanos\""));
    let canonical = report.to_canonical_json();
    assert!(!canonical.contains("wall_nanos"));
}

/// A zero stream-list length or `LOADLENGTH` under a DFP scheme is a
/// typed error from the kernel builder, a run and a campaign, raised
/// before any access runs; schemes without the stream predictor still run.
#[test]
fn degenerate_stream_config_is_a_typed_error_before_any_access() {
    use sgx_preloading::{build_kernel, KernelError, StreamConfigError};

    let base = SimConfig::at_scale(Scale::new(64));
    for (stream, why) in [
        (base.stream.with_list_len(0), StreamConfigError::EmptyList),
        (
            base.stream.with_load_length(0),
            StreamConfigError::ZeroLoadLength,
        ),
    ] {
        let cfg = base.with_stream(stream);
        let err = KernelError::Stream(why);
        assert_eq!(build_kernel(&cfg, Scheme::Hybrid).err(), Some(err));

        let (sink, counts) = CountingSink::new();
        let run = SimRun::new(&cfg)
            .scheme(Scheme::Dfp)
            .bench(Benchmark::Microbenchmark)
            .sink(Box::new(sink))
            .run_one();
        assert_eq!(run, Err(SimError::Kernel(err)));
        assert_eq!(counts.get().faults, 0, "no access may run");
        assert!(SimRun::new(&cfg)
            .scheme(Scheme::Sip)
            .bench(Benchmark::Microbenchmark)
            .run_one()
            .is_ok());

        let campaign = Campaign::grid(
            "bad_stream",
            7,
            &[Benchmark::Microbenchmark],
            &[Scheme::Baseline, Scheme::DfpStop],
            cfg,
        );
        for jobs in [1, 4] {
            let e = campaign.run_with_jobs(jobs).expect_err("DFP-stop cell");
            assert_eq!((e.index, e.label.as_str()), (1, "microbenchmark/DFP-stop"));
            assert_eq!(e.source, SimError::Kernel(err));
            assert!(e.to_string().contains(&why.to_string()), "{e}");
        }
    }
}
