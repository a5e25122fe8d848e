//! The repository benchmark.
//!
//! ```text
//! sgx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--out <dir>] [--rev <git rev>] [--rustc <version>]
//!               [--source-digest <hex>]
//! ```
//!
//! Runs one workload through the simulator's public entry points for
//! `--seconds`, checks every run's outputs, writes a results file with
//! provenance into `--out`, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end host metrics; with `--trace 1` they are the
//! per-layer ledger of a separate traced run.

mod ledger;
mod pace;
mod probe;
mod util;
mod work;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sgx_preloading::{Campaign, Cell, LeakageReport, Scheme};

use ledger::{layer_self_ns, spans_json, Ledger};
use pace::Pace;
use probe::{median_secs, Source};
use util::{json_num, median, push_json_str, quartiles};
use work::{
    Ctx, FleetServing, LeakageObservatory, Outcome, PaperCampaign, TimelineExport, Workload,
};

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("accesses_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.gen_ns_per_access", "ns"),
    ("sip.plan_s", "s"),
    ("kernel.self_ns_per_access.baseline", "ns"),
    ("kernel.self_ns_per_access.dfp", "ns"),
    ("kernel.self_ns_per_access.dfp-stop", "ns"),
    ("kernel.self_ns_per_access.sip", "ns"),
    ("kernel.self_ns_per_access.hybrid", "ns"),
    ("kernel.events_per_access", "events/access"),
    ("kernel.faults", "count"),
    ("kernel.channel_utilization", "frac"),
    ("dfp.predict_ns_per_call", "ns"),
    ("dfp.preload_accuracy", "frac"),
    ("epc.ns_per_op", "ns"),
    ("epc.scan_steps_per_eviction", "count"),
    ("sink.counting_ns_per_event", "ns"),
    ("sink.histogram_ns_per_event", "ns"),
    ("sink.series_ns_per_event", "ns"),
    ("sink.jsonl_ns_per_event", "ns"),
    ("sink.observer_ns_per_event", "ns"),
    ("sink.chrome_buffer_ns_per_event", "ns"),
    ("sink.chrome_render_s", "s"),
    ("sink.chrome_bytes", "bytes"),
    ("observer.metrics_s", "s"),
    ("observer.edit_distance_s", "s"),
    ("observer.kl_s", "s"),
    ("observer.entropy_s", "s"),
    ("core.pool_efficiency", "frac"),
    ("core.cell_s_p50", "s"),
    ("core.cell_s_p90", "s"),
    ("core.json_s", "s"),
    ("fleet.json_s", "s"),
    ("observer.json_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.spawns", "count"),
    ("fleet.teardowns", "count"),
    ("fleet.shed", "count"),
    ("paper_err_pp", "pp"),
    ("slo_miss_frac", "frac"),
    ("share.setup", "frac"),
    ("share.harness", "frac"),
    ("share.core", "frac"),
    ("share.workloads", "frac"),
    ("share.sip", "frac"),
    ("share.kernel", "frac"),
    ("share.sink.counting", "frac"),
    ("share.sink.histogram", "frac"),
    ("share.sink.series", "frac"),
    ("share.sink.chrome", "frac"),
    ("share.sink.observer", "frac"),
    ("share.observer", "frac"),
    ("share.report", "frac"),
    ("share.fleet", "frac"),
    ("share.pool", "frac"),
    ("share.trace", "frac"),
    ("trace_overhead_frac", "frac"),
    ("host.ref_s", "s"),
    ("host.raw_wall_s", "s"),
    ("host.raw_setup_s", "s"),
];

/// Runs of a workload measured in every session, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    rev: String,
    rustc: String,
    source_digest: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !matches!(
            key,
            "workload" | "seed" | "seconds" | "trace" | "out" | "rev" | "rustc" | "source-digest"
        ) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, value);
    }
    let need = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = need("workload")?.to_string();
    if !work::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            work::WORKLOADS.join(", ")
        ));
    }
    let seed = need("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let opt = |k: &str, d: &str| kv.get(k).copied().unwrap_or(d).to_string();
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: PathBuf::from(opt("out", ".bench_results")),
        rev: opt("rev", "unknown"),
        rustc: opt("rustc", "unknown"),
        source_digest: opt("source-digest", "unknown"),
    })
}

/// Worker threads of the timed runs: one, so that a run and the host-speed
/// reference timed around it share a CPU, and the process never competes
/// with the harness for the host's few cores. Determinism at more jobs is
/// checked once per session, untimed.
const JOBS: usize = 1;

/// Everything one session measured.
#[derive(Default)]
struct Session {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Metric name to its samples.
    samples: BTreeMap<String, Vec<f64>>,
    /// Digest of the first run's simulated output.
    digest: String,
    /// Simulated statistics of the first run.
    sim: Vec<(&'static str, f64)>,
    /// Layer ledger of a traced run: layer to (self seconds per run, share).
    ledger: BTreeMap<&'static str, (f64, f64)>,
    reps: usize,
}

impl Session {
    fn absorb(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.note(&o.problems);
    }

    fn op(&mut self, label: &str, problems: Vec<String>) {
        let mut o = Outcome::default();
        o.op(label, problems);
        self.absorb(&o);
    }

    fn note(&mut self, problems: &[String]) {
        for p in problems {
            if self.problems.len() < 50 {
                self.problems.push(p.clone());
            }
        }
    }

    fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// The reported value of a metric: the median of its samples.
    fn value(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }
}

/// The set-up: building the workload's configs, grid or spec, and each
/// cell's input streams and kernel, `k` times back to back.
fn setups<W: Workload>(w: &W, seed: u64, k: usize) -> Result<(), String> {
    for _ in 0..k {
        let p = w.setup(seed);
        std::hint::black_box(w.build_inputs(&p)?);
    }
    Ok(())
}

/// Runs the workload untraced until `budget` is spent (and at least
/// [`MIN_REPS`] times), sampling `wall_s`, `accesses_per_s` and `setup_s`
/// at the nominal host speed (see [`pace`]) and the raw host times beside
/// them; returns the outcome of every run.
fn untraced_reps<W: Workload>(
    w: &W,
    seed: u64,
    jobs: usize,
    budget: Duration,
    setup_k: usize,
    pace: &mut Pace,
    s: &mut Session,
) -> Vec<Outcome> {
    let mut outcomes: Vec<Outcome> = Vec::new();
    let begin = Instant::now();
    while outcomes.len() < MIN_REPS || begin.elapsed() < budget {
        // Set-up samples are spread over the session, between runs; one
        // sample is the mean over `setup_k` set-ups.
        match pace.time(|| setups(w, seed, setup_k)) {
            (Ok(()), raw, nominal) => {
                s.sample("setup_s", nominal / setup_k as f64);
                s.sample("host.raw_setup_s", raw / setup_k as f64);
            }
            (Err(e), ..) => s.op("set-up", vec![e]),
        }
        let ((p, run), raw, wall) = pace.time(|| {
            let p = w.setup(seed);
            let run = w.run(&p, jobs, None);
            (p, run)
        });
        s.sample("host.ref_s", pace.last());
        match run {
            Ok(out) => {
                let o = w.check(&p, &out);
                drop(out);
                s.absorb(&o);
                s.op(
                    "digest",
                    digest_problems(&s.digest, &o.digest, "a repeated run"),
                );
                s.sample("wall_s", wall);
                s.sample("accesses_per_s", o.accesses as f64 / wall);
                s.sample("host.raw_wall_s", raw);
                // Only the last run's reports are used later; holding every
                // run's would make the peak memory grow with the run count.
                if let Some(prev) = outcomes.last_mut() {
                    prev.campaign = None;
                    prev.fleet = None;
                    prev.leakage.clear();
                }
                outcomes.push(o);
            }
            Err(e) => {
                s.op("run", vec![e]);
                if begin.elapsed() >= budget {
                    break;
                }
            }
        }
    }
    outcomes
}

fn digest_problems(reference: &str, got: &str, what: &str) -> Vec<String> {
    if reference == got {
        Vec::new()
    } else {
        vec![format!(
            "{what} produced simulated output {got}, the first run {reference}"
        )]
    }
}

fn bench<W: Workload>(w: &W, a: &Args) -> Result<Session, String> {
    let jobs = JOBS;
    let mut s = Session::default();
    let mut pace = Pace::new();
    // Enough back-to-back set-ups per sample to take about 5 ms.
    let t = Instant::now();
    setups(w, a.seed, 1)?;
    let one = t.elapsed().as_secs_f64();
    let setup_k = ((5e-3 / one.max(1e-9)) as usize).clamp(1, 100_000);

    // The first run fills caches and fixes the reference digest; it is
    // checked but not timed.
    let p = w.setup(a.seed);
    let out = w.run(&p, jobs, None)?;
    let first = w.check(&p, &out);
    s.absorb(&first);
    s.digest = first.digest.clone();
    s.sim = first.sim.clone();
    if let Some(problems) = w.session_check(&p, &out) {
        s.op("determinism across --jobs", problems);
    }
    drop(out);

    let budget = Duration::from_secs_f64(a.seconds);
    if !a.trace {
        let outcomes = untraced_reps(w, a.seed, jobs, budget, setup_k, &mut pace, &mut s);
        s.reps = outcomes.len();
        if let Some(rss) = util::peak_rss_mb() {
            s.sample("peak_rss_mb", rss);
        }
        return Ok(s);
    }

    // Traced session: untraced runs, then traced runs of the same
    // workload, then the standalone layer replays.
    let outcomes = untraced_reps(w, a.seed, jobs, budget / 2, setup_k, &mut pace, &mut s);
    let untraced_wall = s.value("wall_s").unwrap_or(f64::NAN);
    let ledger = Ledger::new();
    let mut traced_walls = Vec::new();
    let begin = Instant::now();
    while traced_walls.len() < MIN_REPS || begin.elapsed() < budget / 2 {
        let mut rec = ledger.trace(traced_walls.len() as u64);
        let ((p, run), _, wall) = pace.time(|| {
            rec.span("workload", "harness", None, |rec, root| {
                let p = rec.span("setup", "setup", Some(root), |_, _| w.setup(a.seed));
                let run = w.run(&p, jobs, Some(Ctx { rec, parent: root }));
                (p, run)
            })
        });
        traced_walls.push(wall);
        drop(rec);
        match run {
            Ok(out) => {
                let o = w.check(&p, &out);
                s.absorb(&o);
                s.op(
                    "traced run transparency",
                    digest_problems(&s.digest, &o.digest, "the traced run"),
                );
            }
            Err(e) => s.op("traced run", vec![e]),
        }
    }
    let spans = ledger.take();
    let traced = layer_self_ns(&spans, ledger.timer);
    let total: f64 = traced.values().sum();
    for (layer, ns) in &traced {
        s.ledger.insert(
            layer,
            (ns / 1e9 / traced_walls.len() as f64, ns / total.max(1.0)),
        );
    }
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let spans_path = a
        .out
        .join(format!("{}-seed{}-spans.json", a.workload, a.seed));
    std::fs::write(&spans_path, spans_json(&spans))
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    drop(spans);
    s.sample(
        "trace_overhead_frac",
        median(&traced_walls) / untraced_wall - 1.0,
    );
    for w in &traced_walls {
        s.sample("traced_wall_s", *w);
    }
    if let Some(layer) = s
        .ledger
        .keys()
        .find(|l| !PER_LAYER.iter().any(|(n, _)| *n == format!("share.{l}")))
    {
        return Err(format!("layer {layer} has no share metric"));
    }
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("share.")) {
        // A layer the workload never calls has no spans: its share is 0.
        let share = s.ledger.get(&name["share.".len()..]).map_or(0.0, |l| l.1);
        s.sample(name, share);
    }

    layer_metrics(w, &p, a.seed, jobs, &outcomes, &mut s)?;
    s.reps = outcomes.len() + traced_walls.len();
    Ok(s)
}

/// The per-layer metrics that come from the standalone replays, the
/// workload's own reports, and small fixed probes for layers the
/// workload does not reach.
fn layer_metrics<W: Workload>(
    w: &W,
    p: &W::Prepared,
    seed: u64,
    jobs: usize,
    outcomes: &[Outcome],
    s: &mut Session,
) -> Result<(), String> {
    let programs = w.programs(p);
    let reps = w.representatives(p);
    let mut probe_leakage: Vec<LeakageReport> = Vec::new();
    let mut probe_sim: BTreeMap<String, f64> = BTreeMap::new();
    for _ in 0..3 {
        let costs = probe::measure(&programs, &reps)?;
        for (k, v) in &costs.values {
            if let Some(sim) = k.strip_prefix("probe.") {
                probe_sim.insert(sim.to_string(), *v);
            } else {
                s.sample(k, *v);
            }
        }
        probe_leakage = costs.leakage;
    }

    // Simulated statistics: the workload's own where it has them, else
    // the representatives' recorded runs.
    let own: BTreeMap<&str, f64> = s.sim.iter().copied().collect();
    for name in [
        "kernel.events_per_access",
        "kernel.faults",
        "kernel.channel_utilization",
        "dfp.preload_accuracy",
        "paper_err_pp",
        "slo_miss_frac",
    ] {
        let v = own
            .get(name)
            .copied()
            .or_else(|| probe_sim.get(name).copied())
            .unwrap_or(0.0);
        s.sample(name, v);
    }

    // The campaign worker pool.
    let probe_campaign;
    let pools: Vec<(usize, u64, Vec<u64>)> = if outcomes.iter().any(|o| o.pool.is_some()) {
        probe_campaign = None;
        outcomes.iter().filter_map(|o| o.pool.clone()).collect()
    } else {
        let mut c = Campaign::new("probe", seed);
        for prog in &programs {
            if let Source::Bench(b) = prog.src {
                c.push(Cell::new(b, Scheme::Dfp, prog.cfg));
            }
        }
        let mut pools = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let r = c.run_with_jobs(jobs).map_err(|e| e.to_string())?;
            pools.push((
                r.jobs,
                r.wall_nanos,
                r.cells.iter().map(|c| c.wall_nanos).collect(),
            ));
            last = Some(r);
        }
        probe_campaign = last;
        pools
    };
    let mut cells: Vec<f64> = Vec::new();
    for (jobs, wall, cell_ns) in &pools {
        let busy: u64 = cell_ns.iter().sum();
        s.sample(
            "core.pool_efficiency",
            busy as f64 / (*jobs as f64 * *wall as f64).max(1.0),
        );
        cells.extend(cell_ns.iter().map(|&n| n as f64 / 1e9));
    }
    cells.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |q: f64| cells[((cells.len() - 1) as f64 * q).round() as usize];
    if !cells.is_empty() {
        s.sample("core.cell_s_p50", pct(0.5));
        s.sample("core.cell_s_p90", pct(0.9));
    }

    // Report writers.
    let last = outcomes.last();
    let campaign = last
        .and_then(|o| o.campaign.clone())
        .or(probe_campaign)
        .ok_or("no campaign report to serialize")?;
    s.sample(
        "core.json_s",
        median_secs(5, || {
            std::hint::black_box(campaign.to_canonical_json());
        }),
    );
    let leakage = match last {
        Some(o) if !o.leakage.is_empty() => o.leakage.clone(),
        _ => probe_leakage,
    };
    s.sample(
        "observer.json_s",
        median_secs(5, || {
            let mut out = String::new();
            for l in &leakage {
                l.write_json(&mut out);
            }
            std::hint::black_box(out);
        }),
    );

    // The fleet layer: the workload's own fleet, else a fixed 2x2 probe.
    let spec = match last.and_then(|o| o.fleet.as_ref()) {
        Some(f) => work::fleet_spec(f.fleet_seed, f.hosts, f.enclaves_per_host, f.duration),
        None => work::fleet_spec(seed, 2, 2, 1 << 28),
    };
    let mut fleet = None;
    let run_s = median_secs(3, || {
        fleet = spec.run(jobs).ok();
    });
    let fleet = fleet.ok_or("the fleet probe failed")?;
    let mut fo = Outcome::default();
    work::check_fleet(&fleet, &mut fo);
    s.absorb(&fo);
    s.sample("fleet.run_s", run_s);
    s.sample(
        "fleet.json_s",
        median_secs(5, || {
            std::hint::black_box(fleet.to_canonical_json());
        }),
    );
    s.sample("fleet.spawns", fleet.spawns as f64);
    s.sample("fleet.teardowns", fleet.teardowns as f64);
    s.sample("fleet.shed", fleet.shed as f64);
    Ok(())
}

/// The metrics this mode reports, in `BENCHMARK.json` order.
fn reported(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn results_json(a: &Args, s: &Session) -> String {
    let mut out = String::from("{");
    let field = |out: &mut String, k: &str, v: &str| {
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
        out.push(',');
    };
    field(&mut out, "workload", &a.workload);
    out.push_str(&format!(
        "\"seed\":{},\"trace\":{},\"seconds\":{},\"jobs\":{},\"nproc\":{},\"runs\":{},",
        a.seed,
        a.trace,
        a.seconds,
        JOBS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        s.reps
    ));
    field(&mut out, "rev", &a.rev);
    field(&mut out, "rustc", &a.rustc);
    field(&mut out, "source_digest", &a.source_digest);
    field(&mut out, "sim_digest", &s.digest);
    out.push_str(&format!(
        "\"attempted\":{},\"failed\":{},\"problems\":[",
        s.attempted, s.failed
    ));
    for (i, p) in s.problems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, p);
    }
    out.push_str("],\"metrics\":{");
    let mut first = true;
    for (name, v) in &s.samples {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|m| m.0 == name)
            .map_or("s", |m| m.1);
        if !first {
            out.push(',');
        }
        first = false;
        let q = quartiles(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "\"{name}\":{{\"unit\":\"{unit}\",\"samples\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
            v.len(),
            json_num(min),
            json_num(q[0]),
            json_num(q[1]),
            json_num(q[2]),
            json_num(max)
        ));
    }
    out.push_str("},\"simulated\":{");
    for (i, (k, v)) in s.sim.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{}", json_num(*v)));
    }
    out.push_str("},\"ledger\":{");
    for (i, (layer, (self_s, share))) in s.ledger.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{layer}\":{{\"self_s_per_run\":{},\"share\":{}}}",
            json_num(*self_s),
            json_num(*share)
        ));
    }
    out.push_str("}}\n");
    out
}

fn summary_line(a: &Args, s: &Session) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        s.failed == 0 && s.attempted > 0,
        s.attempted.max(1),
        s.failed
    );
    for (i, (name, unit)) in reported(a.trace).iter().enumerate() {
        let v = s
            .value(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(v)
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sgx-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                work::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let session = match a.workload.as_str() {
        "paper-campaign" => bench(&PaperCampaign, &a),
        "timeline-export" => bench(&TimelineExport, &a),
        "leakage-observatory" => bench(&LeakageObservatory::new(), &a),
        _ => bench(&FleetServing, &a),
    };
    let s = match session {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {} failed: {e}", a.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match summary_line(&a, &s) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = a.out.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&a.out).and_then(|_| std::fs::write(&path, results_json(&a, &s)))
    {
        eprintln!("error: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    for (name, unit) in reported(a.trace) {
        if let Some(v) = s.value(name) {
            println!("{name:<40} {v:>16.6} {unit}");
        }
    }
    for p in &s.problems {
        println!("check failed: {p}");
    }
    println!("results: {}", path.display());
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_preloading::{Benchmark, CountingSink, Scale, SimConfig, SimRun};

    use ledger::{TimedIter, TimedSink};

    fn manifest_file(rel: &str) -> String {
        let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// The `"name"` and `"unit"` strings of one top-level array of
    /// BENCHMARK.json (units empty for workloads).
    fn entries(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        let section = &json[open..close];
        let field = |obj: &str, f: &str| -> String {
            obj.find(&format!("\"{f}\""))
                .map(|i| {
                    let rest = &obj[i + f.len() + 2..];
                    let q = rest.find('"').expect("value") + 1;
                    rest[q..q + rest[q..].find('"').expect("closing quote")].to_string()
                })
                .unwrap_or_default()
        };
        section
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_match_benchmark_json() {
        let bench = manifest_file("../BENCHMARK.json");
        assert!(util::is_valid_json(bench.as_bytes()));
        let workloads: Vec<String> = entries(&bench, "workloads")
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(workloads, work::WORKLOADS);
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries(&bench, "end_to_end"), expect(&END_TO_END));
        assert_eq!(entries(&bench, "per_layer"), expect(&PER_LAYER));
        let mut seen = std::collections::BTreeSet::new();
        for name in workloads
            .iter()
            .map(String::as_str)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }

        // Every workload has a held-out seed and every per-layer metric
        // its documented expectation.
        let doc = manifest_file("expectations.json");
        assert!(util::is_valid_json(doc.as_bytes()));
        for name in work::WORKLOADS.iter().chain(PER_LAYER.iter().map(|m| &m.0)) {
            assert!(doc.contains(&format!("\"{name}\":")), "{name} undocumented");
        }
    }

    #[test]
    fn timing_decorators_forward_every_access_and_event() {
        let cfg = SimConfig::at_scale(Scale::new(64));
        let bench = Benchmark::Lbm;
        let stream = || bench.build(sgx_preloading::InputSet::Ref, cfg.scale, cfg.seed);
        let ledger = Ledger::new();
        let rec = ledger.trace(0);
        let wrapped: Vec<_> = TimedIter::wrap(stream(), rec.probe()).collect();
        let raw: Vec<_> = stream().collect();
        assert_eq!(wrapped, raw);

        let run = |wrap: bool| {
            let (counting, counts) = CountingSink::new();
            let sink: Box<dyn sgx_preloading::TraceSink> = if wrap {
                TimedSink::wrap(Box::new(counting), rec.probe(), rec.probe())
            } else {
                Box::new(counting)
            };
            let s = if wrap {
                TimedIter::wrap(stream(), rec.probe())
            } else {
                stream()
            };
            let app = sgx_preloading::AppSpec::new(bench.name(), bench.elrange_pages(cfg.scale), s)
                .build()
                .expect("valid app");
            let report = SimRun::new(&cfg)
                .scheme(Scheme::Dfp)
                .app(app)
                .sink(sink)
                .run_one()
                .expect("run");
            (report, counts.get())
        };
        let (plain_report, plain_counts) = run(false);
        let (timed_report, timed_counts) = run(true);
        assert!(plain_counts.total() > 0);
        assert_eq!(plain_counts, timed_counts);
        assert_eq!(plain_report, timed_report);
    }

    #[test]
    fn corrupted_reports_count_as_failures() {
        let cfg = SimConfig::at_scale(Scale::new(64));
        let campaign = Campaign::grid(
            "t",
            3,
            &[Benchmark::Microbenchmark],
            &[Scheme::Baseline, Scheme::Dfp],
            cfg,
        );
        let report = campaign.run_with_jobs(2).expect("campaign runs");
        let mut ok = Outcome::default();
        work::check_campaign(&report, 2, false, &mut ok);
        assert_eq!((ok.attempted, ok.failed), (2, 0), "{:?}", ok.problems);

        let mut bad = report.clone();
        bad.cells[0].report.total_cycles += sgx_preloading::Cycles::new(1);
        bad.cells[1].events.faults += 1;
        let mut o = Outcome::default();
        work::check_campaign(&bad, 2, false, &mut o);
        assert_eq!((o.attempted, o.failed), (2, 2), "{:?}", o.problems);

        // A missing cell is a failure too.
        bad.cells.pop();
        let mut o = Outcome::default();
        work::check_campaign(&bad, 2, false, &mut o);
        assert!(o.failed >= 2);

        // A leaking ORAM row fails the leakage checks.
        let leak = Campaign::leakage_grid(
            "t",
            3,
            &[sgx_preloading::SecretPair::BranchHalves],
            &[Scheme::Baseline],
            cfg,
            64,
        )
        .run_with_jobs(2)
        .expect("leakage grid runs");
        let mut o = Outcome::default();
        work::check_campaign(&leak, 2, true, &mut o);
        assert_eq!(o.failed, 0, "{:?}", o.problems);
        let mut bad = leak.clone();
        let oram = bad
            .cells
            .iter_mut()
            .find(|c| c.label.ends_with("/oram"))
            .expect("oram row");
        oram.leakage.as_mut().expect("report").fault_edit_distance = 0.5;
        let mut o = Outcome::default();
        work::check_campaign(&bad, 2, true, &mut o);
        assert_eq!(o.failed, 1);

        // A fleet whose books do not balance fails.
        let fleet = work::fleet_spec(3, 2, 2, 1 << 26)
            .run(2)
            .expect("fleet runs");
        let mut o = Outcome::default();
        work::check_fleet(&fleet, &mut o);
        assert_eq!(o.failed, 0, "{:?}", o.problems);
        let mut bad = fleet.clone();
        bad.accounting_residual = 1;
        bad.host_reports[0].end_cycles += 1;
        let mut o = Outcome::default();
        work::check_fleet(&bad, &mut o);
        assert_eq!(o.failed, 2);

        // And a failed check reaches the result line.
        let mut s = Session::default();
        s.absorb(&o);
        assert_eq!(s.failed, 2);
    }
}
