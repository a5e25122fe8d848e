//! Standalone layer replays: each layer's public functions are timed on
//! inputs taken from the workload's own programs (its benchmarks, secret
//! pairs or fleet services), outside the workload's run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;
use std::time::Instant;

use sgx_preloading::epc::{Epc, LoadOrigin};
use sgx_preloading::kernel::{EventKind, LoggedEvent};
use sgx_preloading::observer::{
    bigram_conditional_entropy, normalized_edit_distance, shannon_entropy, symmetrized_kl,
    transition_histogram, windowed_entropy, DEFAULT_WINDOW,
};
use sgx_preloading::sip::InstrumentationPlan;
use sgx_preloading::workloads::{AccessIter, PageRange};
use sgx_preloading::{
    build_plan, render_chrome_trace, AppSpec, Benchmark, ChromeTraceSink, CountingSink,
    GaugeSample, HistogramSink, InputSet, JsonlWriterSink, LeakageReport, Observation,
    ObserverSink, ProcessId, RunReport, Scheme, SecretBit, SecretPair, SeriesFormat, SimConfig,
    SimRun, TimeSeriesSink, TraceSink, DEFAULT_TIMELINE_SERIES_INTERVAL,
};

/// The paper's five kernel schemes with the metric-name suffix of each.
const KERNEL_SCHEMES: [(Scheme, &str); 5] = [
    (Scheme::Baseline, "baseline"),
    (Scheme::Dfp, "dfp"),
    (Scheme::DfpStop, "dfp-stop"),
    (Scheme::Sip, "sip"),
    (Scheme::Hybrid, "hybrid"),
];

/// Where a program's accesses come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// A benchmark model on its *ref* input.
    Bench(Benchmark),
    /// Variant A of a secret pair (its twin is variant B).
    Secret(SecretPair),
}

/// One program of a workload, with the configuration it runs under.
#[derive(Debug, Clone)]
pub struct Program {
    /// Report label.
    pub label: String,
    /// Configuration, seed included.
    pub cfg: SimConfig,
    /// Access source.
    pub src: Source,
}

impl Program {
    /// A benchmark program.
    pub fn bench(bench: Benchmark, cfg: SimConfig) -> Self {
        Program {
            label: bench.name().to_string(),
            cfg,
            src: Source::Bench(bench),
        }
    }

    /// A secret-pair program.
    pub fn secret(pair: SecretPair, cfg: SimConfig) -> Self {
        Program {
            label: pair.name().to_string(),
            cfg,
            src: Source::Secret(pair),
        }
    }

    /// ELRANGE in pages.
    pub fn elrange(&self) -> u64 {
        match self.src {
            Source::Bench(b) => b.elrange_pages(self.cfg.scale),
            Source::Secret(p) => p.elrange_pages(self.cfg.scale),
        }
    }

    /// The measured access stream.
    pub fn stream(&self) -> AccessIter {
        match self.src {
            Source::Bench(b) => b.build(InputSet::Ref, self.cfg.scale, self.cfg.seed),
            Source::Secret(p) => p.build(SecretBit::A, self.cfg.scale, self.cfg.seed),
        }
    }

    /// A second input of the same program: the secret pair's variant B,
    /// or the benchmark on a decorrelated seed.
    pub fn twin(&self) -> AccessIter {
        match self.src {
            Source::Bench(b) => b.build(
                InputSet::Ref,
                self.cfg.scale,
                sgx_preloading::sim::mix(self.cfg.seed, 1),
            ),
            Source::Secret(p) => p.build(SecretBit::B, self.cfg.scale, self.cfg.seed),
        }
    }

    /// The SIP plan the program runs with under `scheme` (profiled on
    /// its train input, as the campaign does).
    pub fn plan(&self, scheme: Scheme) -> InstrumentationPlan {
        match self.src {
            Source::Bench(b) => build_plan(b, &self.cfg, scheme),
            Source::Secret(_) if !scheme.uses_sip() => InstrumentationPlan::none(),
            Source::Secret(p) => {
                let profile = sgx_preloading::profile_stream(
                    p.train(self.cfg.scale, self.cfg.seed),
                    self.cfg.epc_pages as usize,
                );
                InstrumentationPlan::from_profile(&profile, self.cfg.sip)
            }
        }
    }

    /// A prepared app over `stream`.
    pub fn app(&self, stream: AccessIter, plan: InstrumentationPlan) -> Result<AppSpec, String> {
        AppSpec::new(self.label.clone(), self.elrange(), stream)
            .plan(plan)
            .build()
            .map_err(|e| e.to_string())
    }
}

/// Every event and gauge sample of one run, plus what the run touched.
pub struct Recording {
    /// The run's report.
    pub report: RunReport,
    /// Every event, in emission order.
    pub events: Vec<LoggedEvent>,
    /// Every gauge sample.
    pub samples: Vec<GaugeSample>,
    /// The pages the program accessed, in order.
    pub access_pages: Vec<u64>,
    /// EPC capacity the run used.
    pub epc_pages: u64,
}

#[derive(Default)]
struct Tape {
    events: Vec<LoggedEvent>,
    samples: Vec<GaugeSample>,
}

struct TapeSink(Rc<RefCell<Tape>>);

impl TraceSink for TapeSink {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.0.borrow_mut().events.push(*event);
    }

    fn on_sample(&mut self, sample: &GaugeSample) {
        self.0.borrow_mut().samples.push(sample.clone());
    }
}

/// Runs `program` under DFP with gauge sampling on and records its
/// event stream.
pub fn record(program: &Program) -> Result<Recording, String> {
    let cfg = program
        .cfg
        .with_series_interval(DEFAULT_TIMELINE_SERIES_INTERVAL);
    let tape = Rc::new(RefCell::new(Tape::default()));
    let app = program.app(program.stream(), program.plan(Scheme::Dfp))?;
    let report = SimRun::new(&cfg)
        .scheme(Scheme::Dfp)
        .app(app)
        .sink(Box::new(TapeSink(Rc::clone(&tape))))
        .run_one()
        .map_err(|e| e.to_string())?;
    let tape = std::mem::take(&mut *tape.borrow_mut());
    Ok(Recording {
        report,
        events: tape.events,
        samples: tape.samples,
        access_pages: program.stream().map(|a| a.page.raw()).collect(),
        epc_pages: cfg.epc_pages,
    })
}

/// Layer costs measured by the standalone replays.
#[derive(Debug)]
pub struct LayerCosts {
    /// Metric name to value.
    pub values: BTreeMap<String, f64>,
    /// The leakage reports the observer probe produced (for the JSON
    /// writer timing).
    pub leakage: Vec<LeakageReport>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Drains every program's stream: per-program generation seconds and
/// access counts.
fn gen_times(programs: &[Program]) -> Vec<(f64, u64)> {
    programs
        .iter()
        .map(|p| {
            let stream = p.stream();
            let t = Instant::now();
            let n = std::hint::black_box(stream.count()) as u64;
            (secs(t), n)
        })
        .collect()
}

/// Measures every standalone layer cost once over `programs` (all of the
/// workload's programs) and `reps` (a representative few).
pub fn measure(programs: &[Program], reps: &[Program]) -> Result<LayerCosts, String> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();

    // Workload generation.
    let gen = gen_times(programs);
    let gen_s: f64 = gen.iter().map(|g| g.0).sum();
    let accesses: u64 = gen.iter().map(|g| g.1).sum();
    v.insert(
        "workloads.gen_ns_per_access".into(),
        gen_s * 1e9 / accesses.max(1) as f64,
    );

    // SIP plans (profile_stream + from_profile).
    let t = Instant::now();
    for p in programs {
        std::hint::black_box(p.plan(Scheme::Sip));
    }
    v.insert("sip.plan_s".into(), secs(t));

    // Kernel event loop with no sinks, minus generation; plans are built
    // outside the timed call.
    for (scheme, suffix) in KERNEL_SCHEMES {
        let mut kernel_s = 0.0;
        for (p, (g, _)) in programs.iter().zip(&gen) {
            let app = p.app(p.stream(), p.plan(scheme))?;
            let run = SimRun::new(&p.cfg).scheme(scheme).app(app);
            let t = Instant::now();
            std::hint::black_box(run.run_one().map_err(|e| e.to_string())?);
            kernel_s += secs(t) - g;
        }
        v.insert(
            format!("kernel.self_ns_per_access.{suffix}"),
            kernel_s.max(0.0) * 1e9 / accesses.max(1) as f64,
        );
    }

    // Predictor, EPC and sink replays over the representatives' recorded
    // DFP runs.
    let mut predict = (0.0, 0u64);
    let mut epc = (0.0, 0u64, 0u64, 0u64); // seconds, ops, evictions, scan steps
    let mut sink_s: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut render = (0.0, 0usize);
    let mut sim = (0u64, 0u64, 0.0, 0u64, 0u64); // events, accesses, util, touched, started
    for p in reps {
        let rec = record(p)?;
        sim.0 += rec.events.len() as u64;
        sim.1 += rec.report.accesses;
        sim.2 += rec.report.channel_utilization;
        sim.3 += rec.report.preloads_touched;
        sim.4 += rec.report.preloads_started;

        let faults: Vec<&LoggedEvent> = rec
            .events
            .iter()
            .filter(|e| e.what == EventKind::Fault && e.page.is_some())
            .collect();
        let mut predictor = p.cfg.predictor.build(p.cfg.stream);
        let mut out = Vec::new();
        let t = Instant::now();
        for e in &faults {
            let page = e.page.expect("filtered on page");
            predictor.on_fault_into(e.at, ProcessId(0), page, &mut out);
            std::hint::black_box(&out);
            out.clear();
        }
        predict.0 += secs(t);
        predict.1 += faults.len() as u64;

        let (s, ops, ev, steps) = replay_epc(&rec.access_pages, rec.epc_pages);
        epc.0 += s;
        epc.1 += ops;
        epc.2 += ev;
        epc.3 += steps;

        for (name, s, calls) in replay_sinks(&rec, p) {
            let e = sink_s.entry(name).or_default();
            e.0 += s;
            e.1 += calls;
        }
        let t = Instant::now();
        let json = render_chrome_trace(&rec.events);
        render.0 += secs(t);
        render.1 += json.len();
    }
    v.insert(
        "dfp.predict_ns_per_call".into(),
        predict.0 * 1e9 / predict.1.max(1) as f64,
    );
    v.insert("epc.ns_per_op".into(), epc.0 * 1e9 / epc.1.max(1) as f64);
    v.insert(
        "epc.scan_steps_per_eviction".into(),
        epc.3 as f64 / epc.2.max(1) as f64,
    );
    for (name, (s, calls)) in sink_s {
        v.insert(
            format!("sink.{name}_ns_per_event"),
            s * 1e9 / calls.max(1) as f64,
        );
    }
    v.insert("sink.chrome_render_s".into(), render.0);
    v.insert("sink.chrome_bytes".into(), render.1 as f64);
    v.insert(
        "probe.kernel.events_per_access".into(),
        sim.0 as f64 / sim.1.max(1) as f64,
    );
    v.insert(
        "probe.kernel.channel_utilization".into(),
        sim.2 / reps.len().max(1) as f64,
    );
    v.insert(
        "probe.dfp.preload_accuracy".into(),
        sim.3 as f64 / sim.4.max(1) as f64,
    );

    // Observer metrics over each representative's pair of inputs.
    let mut leakage = Vec::new();
    let (mut metrics_s, mut edit_s, mut kl_s, mut entropy_s) = (0.0, 0.0, 0.0, 0.0);
    for p in reps {
        let a = observe(p, p.stream())?;
        let b = observe(p, p.twin())?;
        let t = Instant::now();
        let report =
            LeakageReport::from_observations(p.label.clone(), DEFAULT_WINDOW, false, &a, &b);
        metrics_s += secs(t);
        leakage.push(report);

        let t = Instant::now();
        std::hint::black_box(normalized_edit_distance(&a.fault_pages, &b.fault_pages));
        std::hint::black_box(normalized_edit_distance(&a.channel_pages, &b.channel_pages));
        edit_s += secs(t);

        let t = Instant::now();
        for (x, y) in [
            (&a.fault_pages, &b.fault_pages),
            (&a.channel_pages, &b.channel_pages),
        ] {
            std::hint::black_box(symmetrized_kl(
                &transition_histogram(x),
                &transition_histogram(y),
            ));
        }
        kl_s += secs(t);

        let t = Instant::now();
        for o in [&a, &b] {
            std::hint::black_box(shannon_entropy(&o.fault_pages));
            std::hint::black_box(windowed_entropy(&o.fault_pages, DEFAULT_WINDOW));
            std::hint::black_box(bigram_conditional_entropy(&o.fault_pages));
            std::hint::black_box(shannon_entropy(&o.channel_pages));
        }
        entropy_s += secs(t);
    }
    v.insert("observer.metrics_s".into(), metrics_s);
    v.insert("observer.edit_distance_s".into(), edit_s);
    v.insert("observer.kl_s".into(), kl_s);
    v.insert("observer.entropy_s".into(), entropy_s);

    Ok(LayerCosts { values: v, leakage })
}

/// What the untrusted OS sees of `program` running `stream` under DFP.
fn observe(program: &Program, stream: AccessIter) -> Result<Observation, String> {
    let (observer, obs) = ObserverSink::new();
    let observer = observer.with_enclave(
        program.label.clone(),
        PageRange::new(0, program.elrange().max(1)),
    );
    let app = program.app(stream, program.plan(Scheme::Dfp))?;
    SimRun::new(&program.cfg)
        .scheme(Scheme::Dfp)
        .app(app)
        .sink(Box::new(observer))
        .run_one()
        .map_err(|e| e.to_string())?;
    let out = obs.borrow().clone();
    Ok(out)
}

/// Replays `pages` as demand paging against a fresh EPC of `capacity`
/// slots: `(seconds, operations, evictions, CLOCK scan steps)`.
pub fn replay_epc(pages: &[u64], capacity: u64) -> (f64, u64, u64, u64) {
    let mut epc = Epc::new(capacity.max(1));
    let (mut ops, mut evictions) = (0u64, 0u64);
    let t = Instant::now();
    for &raw in pages {
        let page = sgx_preloading::VirtPage::new(raw);
        ops += 1;
        if epc.touch(page).resident {
            continue;
        }
        if epc.free_slots() == 0 {
            std::hint::black_box(epc.evict_victim());
            evictions += 1;
            ops += 1;
        }
        std::hint::black_box(epc.insert(page, LoadOrigin::Demand).ok());
        ops += 1;
    }
    (secs(t), ops, evictions, epc.scan_steps_total())
}

/// Replays the recorded stream into a fresh instance of each sink:
/// `(sink, seconds, calls)`.
fn replay_sinks(rec: &Recording, program: &Program) -> Vec<(&'static str, f64, u64)> {
    fn feed(mut sink: Box<dyn TraceSink>, rec: &Recording, samples: bool) -> (f64, u64) {
        let t = Instant::now();
        for e in &rec.events {
            sink.on_event(e);
        }
        let mut calls = rec.events.len() as u64;
        if samples {
            for s in &rec.samples {
                sink.on_sample(s);
            }
            calls += rec.samples.len() as u64;
        }
        let s = secs(t);
        // Dropping renders or flushes buffering sinks; that cost is
        // measured separately (the Chrome render) or is nil.
        drop(sink);
        (s, calls)
    }
    let mut out = Vec::new();
    let (counting, _c) = CountingSink::new();
    let (s, n) = feed(Box::new(counting), rec, false);
    out.push(("counting", s, n));
    let (hist, _h) = HistogramSink::new();
    let (s, n) = feed(Box::new(hist), rec, false);
    out.push(("histogram", s, n));
    let series = TimeSeriesSink::new(io::sink(), SeriesFormat::Csv);
    let (s, n) = feed(Box::new(series), rec, true);
    out.push(("series", s, n));
    let jsonl = JsonlWriterSink::new(io::sink());
    let (s, n) = feed(Box::new(jsonl), rec, false);
    out.push(("jsonl", s, n));
    let (observer, _o) = ObserverSink::new();
    let observer = observer.with_enclave(
        program.label.clone(),
        PageRange::new(0, program.elrange().max(1)),
    );
    let (s, n) = feed(Box::new(observer), rec, false);
    out.push(("observer", s, n));
    let chrome = ChromeTraceSink::new(io::sink());
    let (s, n) = feed(Box::new(chrome), rec, false);
    out.push(("chrome_buffer", s, n));
    out
}

/// Times `f` `n` times and returns the median seconds.
pub fn median_secs(n: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let s = Instant::now();
            f();
            secs(s)
        })
        .collect();
    t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    t[t.len() / 2]
}
