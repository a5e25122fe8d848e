//! The four workloads: how each is set up, run (untraced through the
//! public entry point, or traced through the same public functions with
//! timing wrappers), and checked.

use std::cell::{OnceCell, RefCell};
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use sgx_bench::paper;
use sgx_preloading::fleet::SERVICE_CATALOG;
use sgx_preloading::observer::DEFAULT_WINDOW;
use sgx_preloading::workloads::{AccessIter, PageRange};
use sgx_preloading::{
    build_kernel, run_indexed, AppSpec, ArrivalProcess, Benchmark, Campaign, CampaignReport, Cell,
    CellReport, CellWork, ChromeTraceSink, CountingSink, EventCounts, FleetReport, FleetSpec,
    HistogramSink, InputSet, LeakageReport, LeakageSpec, ObserverSink, OramModel, PlacementPolicy,
    RunReport, Scale, Scheme, SecretBit, SecretPair, SeriesFormat, SimConfig, SimRun,
    TimeSeriesSink, TraceSink, DEFAULT_TIMELINE_SERIES_INTERVAL,
};

use crate::ledger::{Recorder, TimedIter, TimedSink};
use crate::probe::Program;
use crate::util::{is_valid_json, Digest};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "paper-campaign",
    "timeline-export",
    "leakage-observatory",
    "fleet-serving",
];

/// Where a traced run records: the recorder of the calling thread and the
/// span new spans hang under.
pub struct Ctx<'r, 'l> {
    /// The calling thread's recorder.
    pub rec: &'r mut Recorder<'l>,
    /// Parent span id.
    pub parent: u32,
}

/// Checked results of one run of a workload.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Digest of the canonical simulated output.
    pub digest: String,
    /// Simulated page accesses the run completed.
    pub accesses: u64,
    /// Operations attempted (cells, runs or hosts).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, for the results file.
    pub problems: Vec<String>,
    /// Simulated statistics, by metric name.
    pub sim: Vec<(&'static str, f64)>,
    /// Pool timing: `(jobs, pool wall ns, per-cell wall ns)`.
    pub pool: Option<(usize, u64, Vec<u64>)>,
    /// The run's campaign report, when it has one (for writer timings).
    pub campaign: Option<CampaignReport>,
    /// The run's fleet report, when it has one.
    pub fleet: Option<FleetReport>,
    /// The run's leakage reports, when it has them.
    pub leakage: Vec<LeakageReport>,
}

impl Outcome {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Everything built before the first simulated access.
    type Prepared;
    /// What one run produces.
    type Output;

    /// Builds configs, grids, specs and inputs from the seed.
    fn setup(&self, seed: u64) -> Self::Prepared;

    /// Runs the workload once: through the public entry point when
    /// `ctx` is `None`, else through the same public functions with
    /// timing wrappers recording into `ctx`.
    fn run(
        &self,
        p: &Self::Prepared,
        jobs: usize,
        ctx: Option<Ctx<'_, '_>>,
    ) -> Result<Self::Output, String>;

    /// Constructs, without running, what each cell builds before its
    /// first simulated access: its input streams and its kernel. Returns
    /// how many were built. Part of the measured set-up.
    fn build_inputs(&self, p: &Self::Prepared) -> Result<usize, String>;

    /// Checks the output and summarises it.
    fn check(&self, p: &Self::Prepared, out: &Self::Output) -> Outcome;

    /// All of the workload's programs, for the standalone replays.
    fn programs(&self, p: &Self::Prepared) -> Vec<Program>;

    /// A representative few of them, for the costlier replays.
    fn representatives(&self, p: &Self::Prepared) -> Vec<Program>;

    /// Once-per-session extra check (campaign: the timed run against a
    /// serial run and a run at two jobs).
    fn session_check(&self, _p: &Self::Prepared, _out: &Self::Output) -> Option<Vec<String>> {
        None
    }
}

// ---------------------------------------------------------------- checks

/// Checks one run report against its `CountingSink` tallies: the
/// attribution buckets sum to the total and every counter the event
/// stream reconstructs equals the report's.
pub fn check_counts(report: &RunReport, ev: &EventCounts) -> Vec<String> {
    let mut p = Vec::new();
    let total = report.total_cycles.raw();
    if report.attribution.total() != total {
        p.push(format!(
            "attribution sums to {} of {total} cycles",
            report.attribution.total()
        ));
    }
    let pairs = [
        ("faults", ev.faults, report.faults),
        ("fault resolutions", ev.faults_resolved, report.faults),
        ("preload starts", ev.preload_starts, report.preloads_started),
        ("preload aborts", ev.preload_aborts, report.preloads_aborted),
        (
            "background evictions",
            ev.background_evictions,
            report.background_evictions,
        ),
        (
            "foreground evictions",
            ev.foreground_evictions,
            report.foreground_evictions,
        ),
        (
            "valve stops",
            ev.valve_stops,
            u64::from(report.dfp_stopped_at.is_some()),
        ),
        ("run ends", ev.run_ends, 1),
    ];
    for (what, sink, rep) in pairs {
        if sink != rep {
            p.push(format!(
                "counting sink saw {sink} {what}, report says {rep}"
            ));
        }
    }
    p
}

/// Checks every cell of a campaign report. Cells of a leakage grid must
/// also carry a leakage report, and its ORAM rows must be
/// indistinguishable.
pub fn check_campaign(
    report: &CampaignReport,
    expected_cells: usize,
    leakage: bool,
    out: &mut Outcome,
) {
    if report.cells.len() != expected_cells {
        out.op(
            "campaign",
            vec![format!(
                "{} cells, expected {expected_cells}",
                report.cells.len()
            )],
        );
    }
    for c in &report.cells {
        let mut p = check_counts(&c.report, &c.events);
        match &c.leakage {
            None if leakage => p.push("leakage cell without a leakage report".into()),
            Some(l) if l.oram && l.distinguishability() != 0.0 => p.push(format!(
                "ORAM row distinguishability {} is not 0",
                l.distinguishability()
            )),
            _ => {}
        }
        out.op(&c.label, p);
    }
}

/// Simulated totals shared by the campaign-shaped workloads.
fn campaign_sim(report: &CampaignReport) -> Vec<(&'static str, f64)> {
    let (mut events, mut accesses, mut faults, mut util) = (0u64, 0u64, 0u64, 0.0);
    let (mut touched, mut started) = (0u64, 0u64);
    for c in &report.cells {
        events += c.events.total();
        accesses += c.report.accesses;
        faults += c.report.faults;
        util += c.report.channel_utilization;
        touched += c.report.preloads_touched;
        started += c.report.preloads_started;
    }
    vec![
        (
            "kernel.events_per_access",
            events as f64 / accesses.max(1) as f64,
        ),
        ("kernel.faults", faults as f64),
        (
            "kernel.channel_utilization",
            util / report.cells.len().max(1) as f64,
        ),
        (
            "dfp.preload_accuracy",
            touched as f64 / started.max(1) as f64,
        ),
    ]
}

fn pool_of(report: &CampaignReport) -> (usize, u64, Vec<u64>) {
    (
        report.jobs,
        report.wall_nanos,
        report.cells.iter().map(|c| c.wall_nanos).collect(),
    )
}

fn sim_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds `stream` and a kernel for `cfg` under `scheme`, then drops both.
fn build_cell_inputs(cfg: &SimConfig, scheme: Scheme, stream: AccessIter) -> Result<(), String> {
    let kernel = build_kernel(cfg, scheme).map_err(sim_err)?;
    drop(std::hint::black_box((kernel, stream)));
    Ok(())
}

/// The input streams and kernels of every cell of a bench or leakage
/// campaign.
fn campaign_inputs(c: &Campaign) -> Result<usize, String> {
    let mut n = 0;
    for (i, cell) in c.cells().iter().enumerate() {
        let seed = c.cell_seed(i);
        let cfg = cell.cfg.with_seed(seed);
        match &cell.work {
            CellWork::Bench(b) => {
                build_cell_inputs(&cfg, cell.scheme, b.build(InputSet::Ref, cfg.scale, seed))?;
                n += 1;
            }
            CellWork::Leakage(spec) => {
                for secret in SecretBit::BOTH {
                    let stream = if spec.oram {
                        OramModel::paper_defaults().stream(cfg.scale, seed)
                    } else {
                        spec.pair.build(secret, cfg.scale, seed)
                    };
                    build_cell_inputs(&cfg, cell.scheme, stream)?;
                    n += 1;
                }
            }
            CellWork::Replay(_) => return Err("replay cells are not benchmarked".into()),
        }
    }
    Ok(n)
}

// ------------------------------------------------------- paper-campaign

/// `Campaign::grid` over all 22 benchmarks × the five kernel schemes with
/// per-cell seeds, then `to_canonical_json` — what `sgx-preload campaign`
/// runs.
pub struct PaperCampaign;

/// Scale divisor of the paper campaign (the CLI's `dev` scale).
pub const CAMPAIGN_SCALE: u64 = 16;

impl PaperCampaign {
    fn cfg() -> SimConfig {
        SimConfig::at_scale(Scale::new(CAMPAIGN_SCALE))
    }
}

/// A campaign run: the report and its canonical JSON.
pub struct CampaignOutput {
    /// The report.
    pub report: CampaignReport,
    /// `to_canonical_json` of it.
    pub json: String,
}

/// Mean absolute gap, in percentage points, between simulated
/// improvements and the paper's reference points (`sgx_bench::paper`).
/// A point whose cells are missing is reported as a problem.
pub fn paper_err_pp(report: &CampaignReport, problems: &mut Vec<String>) -> f64 {
    let improvement = |bench: &str, scheme: Scheme| -> Option<f64> {
        let b = Benchmark::from_name(bench)?;
        let base = report.cell(&format!("{}/{}", b.name(), Scheme::Baseline.name()))?;
        let run = report.cell(&format!("{}/{}", b.name(), scheme.name()))?;
        Some(run.report.improvement_over(&base.report))
    };
    // The figure benches compare plain DFP in Fig. 8 and DFP-stop
    // wherever a figure says "DFP" after that.
    let scheme_of = |s: &str| match s {
        "SIP" => Scheme::Sip,
        "SIP+DFP" => Scheme::Hybrid,
        _ => Scheme::DfpStop,
    };
    let mut points: Vec<(String, Scheme, f64)> = Vec::new();
    points.extend(
        paper::FIG8_DFP
            .iter()
            .map(|&(b, v)| (b.to_string(), Scheme::Dfp, v)),
    );
    points.extend(
        paper::FIG10_SIP
            .iter()
            .map(|&(b, v)| (b.to_string(), Scheme::Sip, v)),
    );
    points.extend(
        paper::FIG11
            .iter()
            .map(|&(b, s, v)| (b.to_string(), scheme_of(s), v)),
    );
    points.extend(
        paper::FIG13
            .iter()
            .map(|&(s, v)| (Benchmark::MixedBlood.name().to_string(), scheme_of(s), v)),
    );
    let mut sum = 0.0;
    let mut n = 0;
    for (bench, scheme, reference) in &points {
        match improvement(bench, *scheme) {
            Some(sim) => {
                sum += (sim - reference).abs() * 100.0;
                n += 1;
            }
            None => problems.push(format!(
                "no cells for paper point {bench}/{}",
                scheme.name()
            )),
        }
    }
    sum / n.max(1) as f64
}

impl Workload for PaperCampaign {
    type Prepared = Campaign;
    type Output = CampaignOutput;

    fn setup(&self, seed: u64) -> Campaign {
        Campaign::grid("campaign", seed, &Benchmark::ALL, &Scheme::ALL, Self::cfg())
    }

    fn run(
        &self,
        p: &Campaign,
        jobs: usize,
        ctx: Option<Ctx<'_, '_>>,
    ) -> Result<CampaignOutput, String> {
        let Some(ctx) = ctx else {
            let report = p.run_with_jobs(jobs).map_err(sim_err)?;
            let json = report.to_canonical_json();
            return Ok(CampaignOutput { report, json });
        };
        let report = traced_campaign(p, jobs, ctx.rec, ctx.parent)?;
        let json = ctx.rec.span(
            "CampaignReport::to_canonical_json",
            "report",
            Some(ctx.parent),
            |_, _| report.to_canonical_json(),
        );
        Ok(CampaignOutput { report, json })
    }

    fn build_inputs(&self, p: &Campaign) -> Result<usize, String> {
        campaign_inputs(p)
    }

    fn check(&self, p: &Campaign, out: &CampaignOutput) -> Outcome {
        let mut o = Outcome::default();
        check_campaign(&out.report, p.len(), false, &mut o);
        let mut problems = Vec::new();
        let err = paper_err_pp(&out.report, &mut problems);
        o.op("paper points", problems);
        o.sim = campaign_sim(&out.report);
        o.sim.push(("paper_err_pp", err));
        o.accesses = out.report.cells.iter().map(|c| c.report.accesses).sum();
        o.digest = Digest::default().update(out.json.as_bytes()).hex();
        o.pool = Some(pool_of(&out.report));
        o.campaign = Some(out.report.clone());
        o
    }

    fn programs(&self, p: &Campaign) -> Vec<Program> {
        Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                // Each benchmark's baseline cell seed.
                let idx = i * Scheme::ALL.len();
                Program::bench(b, Self::cfg().with_seed(p.cell_seed(idx)))
            })
            .collect()
    }

    fn representatives(&self, p: &Campaign) -> Vec<Program> {
        self.programs(p)
            .into_iter()
            .filter(|prog| ["microbenchmark", "deepsjeng"].contains(&prog.label.as_str()))
            .collect()
    }

    fn session_check(&self, p: &Campaign, out: &CampaignOutput) -> Option<Vec<String>> {
        let mut problems = Vec::new();
        match p.run_serial() {
            Ok(serial) if serial.to_canonical_json() == out.json => {}
            Ok(_) => problems.push(format!(
                "canonical JSON at {} jobs differs from run_serial",
                out.report.jobs
            )),
            Err(e) => problems.push(format!("run_serial failed: {e}")),
        }
        // The timed runs use one job; the pool must give the same output
        // with more.
        let jobs = out.report.jobs.max(2);
        match p.run_with_jobs(jobs) {
            Ok(r) if r.to_canonical_json() == out.json => {}
            Ok(_) => problems.push(format!(
                "canonical JSON at {jobs} jobs differs from {} jobs",
                out.report.jobs
            )),
            Err(e) => problems.push(format!("run at {jobs} jobs failed: {e}")),
        }
        Some(problems)
    }
}

/// The campaign's cells run one by one through `build_plan`, `AppSpec`
/// and `SimRun::run_one` on the same worker pool, with timing wrappers.
fn traced_campaign(
    campaign: &Campaign,
    jobs: usize,
    rec: &mut Recorder<'_>,
    parent: u32,
) -> Result<CampaignReport, String> {
    let ledger = rec.ledger();
    let t0 = Instant::now();
    let cells = rec.span_fanout(
        "run_indexed",
        "pool",
        Some(parent),
        jobs as u32,
        |_, pool| {
            run_indexed(campaign.len(), jobs, |i| {
                let cell = &campaign.cells()[i];
                let seed = campaign.cell_seed(i);
                let mut rec = ledger.trace((u64::from(pool) << 20) + i as u64 + 1);
                rec.span("cell", "core", Some(pool), |rec, id| match &cell.work {
                    CellWork::Bench(bench) => traced_bench_cell(rec, id, cell, *bench, i, seed),
                    CellWork::Leakage(spec) => traced_leakage_cell(rec, id, cell, *spec, i, seed),
                    CellWork::Replay(_) => Err("replay cells are not benchmarked".into()),
                })
            })
        },
    );
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignReport {
        name: campaign.name.clone(),
        campaign_seed: campaign.seed,
        jobs: jobs.max(1),
        wall_nanos: t0.elapsed().as_nanos() as u64,
        cells,
    })
}

/// Runs `app` under `scheme` with `sinks` wrapped in timing decorators;
/// the stream wrapper's and sinks' tallies become aggregate spans under
/// the `SimRun::run_one` span.
fn traced_run_one(
    rec: &mut Recorder<'_>,
    parent: u32,
    cfg: &SimConfig,
    scheme: Scheme,
    app: impl FnOnce(crate::ledger::Probe) -> Result<AppSpec, String>,
    sinks: Vec<(&'static str, Box<dyn TraceSink>)>,
) -> Result<RunReport, String> {
    let gen = rec.probe();
    let app = app(gen.clone())?;
    let mut run = SimRun::new(cfg).scheme(scheme).app(app);
    let mut probes = Vec::new();
    for (layer, sink) in sinks {
        let (calls, finish) = (rec.probe(), rec.probe());
        run = run.sink(TimedSink::wrap(sink, calls.clone(), finish.clone()));
        probes.push((layer, calls, finish));
    }
    rec.span("SimRun::run_one", "kernel", Some(parent), |rec, id| {
        let report = run.run_one().map_err(sim_err);
        rec.aggregate(id, "AccessIter::next", "workloads", &gen);
        for (layer, calls, finish) in &probes {
            rec.aggregate(id, "TraceSink::on_event", layer, calls);
            rec.aggregate(id, "TraceSink::drop", layer, finish);
        }
        report
    })
}

fn traced_bench_cell(
    rec: &mut Recorder<'_>,
    parent: u32,
    cell: &Cell,
    bench: Benchmark,
    index: usize,
    seed: u64,
) -> Result<CellReport, String> {
    let t0 = Instant::now();
    let cfg = cell.cfg.with_seed(seed);
    let plan = rec.span("build_plan", "sip", Some(parent), |_, _| {
        sgx_preloading::build_plan(bench, &cfg, cell.scheme)
    });
    let (counting, counts) = CountingSink::new();
    let report = traced_run_one(
        rec,
        parent,
        &cfg,
        cell.scheme,
        |gen| {
            let stream = bench.build(InputSet::Ref, cfg.scale, cfg.seed);
            AppSpec::new(
                bench.name(),
                bench.elrange_pages(cfg.scale),
                TimedIter::wrap(stream, gen),
            )
            .plan(plan)
            .build()
            .map_err(sim_err)
        },
        vec![("sink.counting", Box::new(counting))],
    )?;
    Ok(CellReport {
        index,
        label: cell.label.clone(),
        seed,
        report,
        events: counts.get(),
        leakage: None,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

/// The leakage cell of `Campaign::leakage_grid`, step by step: both
/// secret labels run under the cell's scheme, each watched by an
/// `ObserverSink`, then `LeakageReport::from_observations`.
fn traced_leakage_cell(
    rec: &mut Recorder<'_>,
    parent: u32,
    cell: &Cell,
    spec: LeakageSpec,
    index: usize,
    seed: u64,
) -> Result<CellReport, String> {
    let t0 = Instant::now();
    let cfg = cell.cfg.with_seed(seed);
    let oram = OramModel::paper_defaults();
    let elrange = if spec.oram {
        oram.scaled_pages(cfg.scale)
    } else {
        spec.pair.elrange_pages(cfg.scale)
    };
    let name = cell.work.name().to_string();
    let mut first: Option<(RunReport, EventCounts)> = None;
    let mut observations = Vec::with_capacity(2);
    for secret in SecretBit::BOTH {
        let plan = if cell.scheme.uses_sip() {
            rec.span(
                "profile_stream+from_profile",
                "sip",
                Some(parent),
                |_, _| {
                    let train = if spec.oram {
                        oram.stream(cfg.scale, sgx_preloading::sim::mix(seed, 0x5EC7))
                    } else {
                        spec.pair.train(cfg.scale, seed)
                    };
                    let profile = sgx_preloading::profile_stream(train, cfg.epc_pages as usize);
                    sgx_preloading::sip::InstrumentationPlan::from_profile(&profile, cfg.sip)
                },
            )
        } else {
            sgx_preloading::sip::InstrumentationPlan::none()
        };
        let (observer, obs) = ObserverSink::new();
        let observer = observer.with_enclave(name.clone(), PageRange::new(0, elrange.max(1)));
        let (counting, counts) = CountingSink::new();
        let report = traced_run_one(
            rec,
            parent,
            &cfg,
            cell.scheme,
            |gen| {
                let stream = if spec.oram {
                    oram.stream(cfg.scale, seed)
                } else {
                    spec.pair.build(secret, cfg.scale, seed)
                };
                AppSpec::new(name.clone(), elrange, TimedIter::wrap(stream, gen))
                    .plan(plan)
                    .build()
                    .map_err(sim_err)
            },
            vec![
                ("sink.observer", Box::new(observer)),
                ("sink.counting", Box::new(counting)),
            ],
        )?;
        if first.is_none() {
            first = Some((report, counts.get()));
        }
        observations.push(obs.borrow().clone());
    }
    let leakage = rec.span(
        "LeakageReport::from_observations",
        "observer",
        Some(parent),
        |_, _| {
            LeakageReport::from_observations(
                spec.pair.name(),
                spec.window,
                spec.oram,
                &observations[0],
                &observations[1],
            )
        },
    );
    let (report, events) = first.expect("variant A ran");
    Ok(CellReport {
        index,
        label: cell.label.clone(),
        seed,
        report,
        events,
        leakage: Some(leakage),
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

// ------------------------------------------------- leakage-observatory

/// `Campaign::leakage_grid` over every secret pair × {baseline, DFP, SIP}
/// plus the ORAM rows, window 64.
pub struct LeakageObservatory {
    b_accesses: OnceCell<Vec<u64>>,
}

/// Scale divisor of the leakage grid.
pub const LEAKAGE_SCALE: u64 = 64;
const LEAKAGE_SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::Dfp, Scheme::Sip];

impl LeakageObservatory {
    /// A fresh workload.
    pub fn new() -> Self {
        LeakageObservatory {
            b_accesses: OnceCell::new(),
        }
    }
}

impl Workload for LeakageObservatory {
    type Prepared = Campaign;
    type Output = CampaignOutput;

    fn setup(&self, seed: u64) -> Campaign {
        let cfg = SimConfig::at_scale(Scale::new(LEAKAGE_SCALE));
        Campaign::leakage_grid(
            "leakage",
            seed,
            &SecretPair::ALL,
            &LEAKAGE_SCHEMES,
            cfg,
            DEFAULT_WINDOW,
        )
    }

    fn run(
        &self,
        p: &Campaign,
        jobs: usize,
        ctx: Option<Ctx<'_, '_>>,
    ) -> Result<CampaignOutput, String> {
        PaperCampaign.run(p, jobs, ctx)
    }

    fn build_inputs(&self, p: &Campaign) -> Result<usize, String> {
        campaign_inputs(p)
    }

    fn check(&self, p: &Campaign, out: &CampaignOutput) -> Outcome {
        let mut o = Outcome::default();
        check_campaign(&out.report, p.len(), true, &mut o);
        o.sim = campaign_sim(&out.report);
        // The input size is fixed by the seed: count it once.
        let b = self.b_accesses.get_or_init(|| secret_b_accesses(p));
        o.accesses = out
            .report
            .cells
            .iter()
            .zip(b)
            .map(|(c, b)| c.report.accesses + b)
            .sum();
        o.digest = Digest::default().update(out.json.as_bytes()).hex();
        o.pool = Some(pool_of(&out.report));
        o.leakage = out
            .report
            .cells
            .iter()
            .filter_map(|c| c.leakage.clone())
            .collect();
        o.campaign = Some(out.report.clone());
        o
    }

    fn programs(&self, p: &Campaign) -> Vec<Program> {
        let cfg = SimConfig::at_scale(Scale::new(LEAKAGE_SCALE)).with_seed(p.seed);
        SecretPair::ALL
            .iter()
            .map(|&pair| Program::secret(pair, cfg))
            .collect()
    }

    fn representatives(&self, p: &Campaign) -> Vec<Program> {
        self.programs(p)
    }
}

/// Accesses of each leakage cell's variant-B run (the ORAM row runs the
/// same padded stream twice).
fn secret_b_accesses(campaign: &Campaign) -> Vec<u64> {
    campaign
        .cells()
        .iter()
        .enumerate()
        .map(|(i, c)| match &c.work {
            CellWork::Leakage(spec) => {
                let seed = campaign.cell_seed(i);
                let scale = c.cfg.scale;
                if spec.oram {
                    OramModel::paper_defaults().stream(scale, seed).count() as u64
                } else {
                    spec.pair.build(SecretBit::B, scale, seed).count() as u64
                }
            }
            _ => 0,
        })
        .collect()
}

// ---------------------------------------------------- timeline-export

/// The `timeline` pipeline on the microbenchmark/DFP cell plus an
/// irregular SIP+DFP cell: Chrome trace, gauge series, histogram and
/// counting sinks, the Chrome render, attribution and a summary JSON.
pub struct TimelineExport;

/// Scale divisor of the timeline cells (the ci.sh timeline cell's).
pub const TIMELINE_SCALE: u64 = 48;
const TIMELINE_CELLS: [(Benchmark, Scheme); 2] = [
    (Benchmark::Microbenchmark, Scheme::Dfp),
    (Benchmark::Deepsjeng, Scheme::Hybrid),
];

/// An in-memory writer shared with the caller.
#[derive(Clone, Default)]
pub struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One exported timeline cell.
pub struct TimelineCell {
    label: String,
    report: RunReport,
    events: EventCounts,
    hist_faults: u64,
    hist_evictions: u64,
    chrome: Vec<u8>,
    series: Vec<u8>,
    summary: String,
    wall_nanos: u64,
}

/// The two timeline cells and their pool timing.
pub struct TimelineOutput {
    cells: Vec<TimelineCell>,
    wall_nanos: u64,
}

fn timeline_cell(
    cfg: &SimConfig,
    bench: Benchmark,
    scheme: Scheme,
    ctx: Option<(&mut Recorder<'_>, u32)>,
) -> Result<TimelineCell, String> {
    let t0 = Instant::now();
    let (chrome_buf, series_buf) = (SharedBuf::default(), SharedBuf::default());
    let chrome = ChromeTraceSink::new(chrome_buf.clone());
    let series = TimeSeriesSink::new(series_buf.clone(), SeriesFormat::Csv);
    let (hist, hists) = HistogramSink::new();
    let (counting, counts) = CountingSink::new();
    let mut ctx = ctx;
    let report = match &mut ctx {
        None => SimRun::new(cfg)
            .scheme(scheme)
            .bench(bench)
            .sink(Box::new(chrome))
            .sink(Box::new(series))
            .sink(Box::new(hist))
            .sink(Box::new(counting))
            .run_one()
            .map_err(sim_err)?,
        Some((rec, parent)) => {
            let plan = rec.span("build_plan", "sip", Some(*parent), |_, _| {
                sgx_preloading::build_plan(bench, cfg, scheme)
            });
            traced_run_one(
                rec,
                *parent,
                cfg,
                scheme,
                |gen| {
                    let stream = bench.build(InputSet::Ref, cfg.scale, cfg.seed);
                    AppSpec::new(
                        bench.name(),
                        bench.elrange_pages(cfg.scale),
                        TimedIter::wrap(stream, gen),
                    )
                    .plan(plan)
                    .build()
                    .map_err(sim_err)
                },
                vec![
                    ("sink.chrome", Box::new(chrome)),
                    ("sink.series", Box::new(series)),
                    ("sink.histogram", Box::new(hist)),
                    ("sink.counting", Box::new(counting)),
                ],
            )?
        }
    };
    let h = hists.borrow();
    let events = counts.get();
    let summarize = || {
        let mut summary = format!(
            "{{\"bench\":\"{}\",\"scheme\":\"{}\",\"total_cycles\":{},\"events\":{},\"fault_service_samples\":{},\"attribution\":",
            bench.name(),
            scheme.name(),
            report.total_cycles.raw(),
            events.total(),
            h.fault_service.count(),
        );
        report.attribution.write_json(&mut summary);
        summary.push_str(",\"report\":");
        report.write_json(&mut summary);
        summary.push('}');
        summary
    };
    let summary = match ctx {
        None => summarize(),
        Some((rec, parent)) => rec.span("summary JSON", "report", Some(parent), |_, _| summarize()),
    };
    Ok(TimelineCell {
        label: format!("{}/{}", bench.name(), scheme.name()),
        hist_faults: h.fault_service.count(),
        hist_evictions: h.evict_scan.count(),
        report,
        events,
        chrome: chrome_buf.take(),
        series: series_buf.take(),
        summary,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

impl Workload for TimelineExport {
    type Prepared = SimConfig;
    type Output = TimelineOutput;

    fn setup(&self, seed: u64) -> SimConfig {
        SimConfig::at_scale(Scale::new(TIMELINE_SCALE))
            .with_seed(seed)
            .with_series_interval(DEFAULT_TIMELINE_SERIES_INTERVAL)
    }

    fn run(
        &self,
        cfg: &SimConfig,
        _jobs: usize,
        ctx: Option<Ctx<'_, '_>>,
    ) -> Result<TimelineOutput, String> {
        let t0 = Instant::now();
        let mut cells = Vec::with_capacity(TIMELINE_CELLS.len());
        match ctx {
            None => {
                for (bench, scheme) in TIMELINE_CELLS {
                    cells.push(timeline_cell(cfg, bench, scheme, None)?);
                }
            }
            Some(ctx) => {
                for (i, (bench, scheme)) in TIMELINE_CELLS.into_iter().enumerate() {
                    let mut rec = ctx
                        .rec
                        .ledger()
                        .trace((u64::from(ctx.parent) << 20) + i as u64 + 1);
                    let cell = rec.span("cell", "core", Some(ctx.parent), |rec, id| {
                        timeline_cell(cfg, bench, scheme, Some((rec, id)))
                    })?;
                    cells.push(cell);
                }
            }
        }
        Ok(TimelineOutput {
            cells,
            wall_nanos: t0.elapsed().as_nanos() as u64,
        })
    }

    fn build_inputs(&self, cfg: &SimConfig) -> Result<usize, String> {
        for (bench, scheme) in TIMELINE_CELLS {
            build_cell_inputs(cfg, scheme, bench.build(InputSet::Ref, cfg.scale, cfg.seed))?;
        }
        Ok(TIMELINE_CELLS.len())
    }

    fn check(&self, _cfg: &SimConfig, out: &TimelineOutput) -> Outcome {
        let mut o = Outcome::default();
        let mut digest = Digest::default();
        for c in &out.cells {
            let mut p = check_counts(&c.report, &c.events);
            if c.hist_faults != c.report.faults {
                p.push(format!(
                    "histogram sink saw {} fault resolutions, report says {}",
                    c.hist_faults, c.report.faults
                ));
            }
            let evictions = c.report.background_evictions + c.report.foreground_evictions;
            if c.hist_evictions != evictions {
                p.push(format!(
                    "histogram sink saw {} evictions, report says {evictions}",
                    c.hist_evictions
                ));
            }
            if c.chrome.is_empty() || !is_valid_json(&c.chrome) {
                p.push(format!(
                    "chrome trace of {} bytes does not parse as JSON",
                    c.chrome.len()
                ));
            }
            if c.series.iter().filter(|&&b| b == b'\n').count() < 2 {
                p.push("gauge series has no samples".into());
            }
            if !is_valid_json(c.summary.as_bytes()) {
                p.push("summary JSON does not parse".into());
            }
            o.op(&c.label, p);
            digest
                .update(c.summary.as_bytes())
                .update(&c.chrome)
                .update(&c.series);
        }
        // The two cells as a report, for the shared statistics and the
        // JSON writer timing.
        let report = CampaignReport {
            name: "timeline".into(),
            campaign_seed: 0,
            jobs: 1,
            wall_nanos: out.wall_nanos,
            cells: out
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| CellReport {
                    index: i,
                    label: c.label.clone(),
                    seed: 0,
                    report: c.report.clone(),
                    events: c.events,
                    leakage: None,
                    wall_nanos: c.wall_nanos,
                })
                .collect(),
        };
        o.digest = digest.hex();
        o.accesses = report.cells.iter().map(|c| c.report.accesses).sum();
        o.sim = campaign_sim(&report);
        o.pool = Some(pool_of(&report));
        o.campaign = Some(report);
        o
    }

    fn programs(&self, cfg: &SimConfig) -> Vec<Program> {
        TIMELINE_CELLS
            .iter()
            .map(|&(b, _)| Program::bench(b, *cfg))
            .collect()
    }

    fn representatives(&self, cfg: &SimConfig) -> Vec<Program> {
        self.programs(cfg)
    }
}

// ------------------------------------------------------- fleet-serving

/// A Poisson-arrival serving fleet with least-loaded placement and idle
/// teardown, loaded so that few requests are shed and enclaves churn.
pub struct FleetServing;

/// Scale divisor of the fleet's per-host configuration.
pub const FLEET_SCALE: u64 = 64;

/// The fleet the workload runs.
pub fn fleet_spec(seed: u64, hosts: usize, enclaves: usize, duration: u64) -> FleetSpec {
    FleetSpec::new(hosts, enclaves)
        .seed(seed)
        .arrival(ArrivalProcess::Poisson {
            mean_gap: 8_388_608,
        })
        .placement(PlacementPolicy::LeastLoaded)
        .duration(duration)
        .idle_timeout(16_777_216)
        .config(SimConfig::at_scale(Scale::new(FLEET_SCALE)))
        .build()
        .expect("the benchmark's fleet spec is valid")
}

/// A fleet run: the report and its canonical JSON.
pub struct FleetOutput {
    report: FleetReport,
    json: String,
}

/// Checks a fleet report's books: every host's attribution covers its
/// clock, the residual is zero, and the totals re-add.
pub fn check_fleet(report: &FleetReport, out: &mut Outcome) {
    for h in &report.host_reports {
        let mut p = Vec::new();
        if h.attribution.total() != h.end_cycles {
            p.push(format!(
                "attribution sums to {} of {} cycles",
                h.attribution.total(),
                h.end_cycles
            ));
        }
        if h.accounting_residual != 0 {
            p.push(format!("accounting residual {}", h.accounting_residual));
        }
        out.op(&format!("host {}", h.index), p);
    }
    let mut p = Vec::new();
    if report.accounting_residual != 0 {
        p.push(format!(
            "accounting residual {}",
            report.accounting_residual
        ));
    }
    let end: u64 = report.host_reports.iter().map(|h| h.end_cycles).sum();
    if report.total_cycles != end {
        p.push(format!(
            "total cycles {} != host sum {end}",
            report.total_cycles
        ));
    }
    if report.requests == 0 || report.shed * 2 > report.requests {
        p.push(format!(
            "{} of {} requests shed: the load is not servable",
            report.shed, report.requests
        ));
    }
    out.op("fleet", p);
}

impl Workload for FleetServing {
    type Prepared = FleetSpec;
    type Output = FleetOutput;

    fn setup(&self, seed: u64) -> FleetSpec {
        fleet_spec(seed, 16, 4, 1 << 31)
    }

    fn run(
        &self,
        spec: &FleetSpec,
        jobs: usize,
        ctx: Option<Ctx<'_, '_>>,
    ) -> Result<FleetOutput, String> {
        match ctx {
            None => {
                let report = spec.run(jobs).map_err(sim_err)?;
                let json = report.to_canonical_json();
                Ok(FleetOutput { report, json })
            }
            Some(ctx) => {
                let report = ctx
                    .rec
                    .span("FleetSpec::run", "fleet", Some(ctx.parent), |_, _| {
                        spec.run(jobs)
                    })
                    .map_err(sim_err)?;
                let json = ctx.rec.span(
                    "FleetReport::to_canonical_json",
                    "report",
                    Some(ctx.parent),
                    |_, _| report.to_canonical_json(),
                );
                Ok(FleetOutput { report, json })
            }
        }
    }

    fn build_inputs(&self, spec: &FleetSpec) -> Result<usize, String> {
        // One kernel per host, one stream per service.
        for h in 0..spec.hosts {
            let kernel = build_kernel(&spec.cfg, spec.scheme).map_err(sim_err)?;
            drop(std::hint::black_box(kernel));
            for e in 0..spec.enclaves_per_host {
                let k = h * spec.enclaves_per_host + e;
                let bench = SERVICE_CATALOG[k % SERVICE_CATALOG.len()];
                let seed = sgx_preloading::sim::mix(spec.seed, k as u64);
                drop(std::hint::black_box(bench.build(
                    InputSet::Ref,
                    spec.cfg.scale,
                    seed,
                )));
            }
        }
        Ok(spec.hosts * (1 + spec.enclaves_per_host))
    }

    fn check(&self, _spec: &FleetSpec, out: &FleetOutput) -> Outcome {
        let mut o = Outcome::default();
        check_fleet(&out.report, &mut o);
        let r = &out.report;
        o.digest = Digest::default().update(out.json.as_bytes()).hex();
        o.accesses = r.accesses;
        o.sim = vec![
            ("kernel.faults", r.faults as f64),
            (
                "dfp.preload_accuracy",
                r.preloads_touched as f64 / r.preloads_started.max(1) as f64,
            ),
            (
                "slo_miss_frac",
                (r.shed + r.slo_violations) as f64 / r.requests.max(1) as f64,
            ),
        ];
        o.fleet = Some(out.report.clone());
        o
    }

    fn programs(&self, spec: &FleetSpec) -> Vec<Program> {
        SERVICE_CATALOG
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                Program::bench(
                    b,
                    spec.cfg
                        .with_seed(sgx_preloading::sim::mix(spec.seed, k as u64)),
                )
            })
            .collect()
    }

    fn representatives(&self, spec: &FleetSpec) -> Vec<Program> {
        self.programs(spec).into_iter().take(2).collect()
    }
}
