//! Byte-level contracts of the streaming trace exports (DESIGN.md §4.4).
//!
//! - The Chrome renderer equals an independent `write!`-based reference
//!   renderer byte for byte on seeded random event streams, including
//!   dangling parents, closes before opens, duplicate closes, extreme
//!   values and documents that straddle the output chunk boundary.
//! - The JSON-lines sink equals a `format!`-based reference line for line
//!   on the same random and edge-case streams.
//! - Writer failures surface as errors from `finish`, never as panics.
//! - The gauge series' CSV and JSON layouts are pinned as literal text.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{self, Write};

use sgx_preloading::kernel::{EventKind, LoggedEvent};
use sgx_preloading::{
    render_chrome_trace, write_chrome_trace, ChromeTraceSink, Cycles, GaugeSample, JsonlWriterSink,
    SeriesFormat, SpanId, TimeSeriesSink, TraceSink, VirtPage,
};

const ALL_KINDS: [EventKind; 14] = [
    EventKind::Fault,
    EventKind::DemandLoaded,
    EventKind::PreloadStart,
    EventKind::PreloadDone,
    EventKind::EvictBackground,
    EventKind::EvictForeground,
    EventKind::PreloadAbort,
    EventKind::SipLoaded,
    EventKind::ValveStopped,
    EventKind::SipPrefetchStart,
    EventKind::FaultResolved,
    EventKind::PreloadHit,
    EventKind::StreamPredicted,
    EventKind::RunEnd,
];

fn reference_lane(e: &LoggedEvent) -> u64 {
    match e.what {
        EventKind::PreloadStart
        | EventKind::PreloadDone
        | EventKind::SipPrefetchStart
        | EventKind::EvictBackground
        | EventKind::EvictForeground => 0,
        _ => e.page.map_or(0, |p| 1 + (p.raw() >> 24)),
    }
}

fn reference_opens(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Fault | EventKind::PreloadStart | EventKind::SipPrefetchStart
    )
}

fn reference_closes(kind: EventKind) -> bool {
    matches!(kind, EventKind::FaultResolved | EventKind::PreloadDone)
}

/// The Chrome trace renderer as it was before the export streamed:
/// every record formatted with `write!` into one document-sized
/// `String`, span indices in std hash maps. Shares no formatting code
/// with the library renderer.
fn reference_render(events: &[LoggedEvent]) -> String {
    let mut anchors: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut close_at: HashMap<u64, u64> = HashMap::new();
    let mut openers: HashSet<u64> = HashSet::new();
    let mut lanes: BTreeSet<u64> = [0].into();
    for e in events {
        let lane = reference_lane(e);
        lanes.insert(lane);
        let s = e.span.raw();
        anchors.entry(s).or_insert((e.at.raw(), lane));
        if reference_opens(e.what) {
            openers.insert(s);
        }
        if reference_closes(e.what) {
            close_at.entry(s).or_insert(e.at.raw());
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}}",
    );
    for &lane in &lanes {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\""
        );
        if lane == 0 {
            out.push_str("load channel");
        } else {
            let _ = write!(out, "enclave {}", lane - 1);
        }
        out.push_str("\"}}");
    }
    let mut args = String::new();
    for e in events {
        let lane = reference_lane(e);
        let s = e.span.raw();
        let closes_own_span = close_at.get(&s) == Some(&e.at.raw()) && openers.contains(&s);
        if reference_closes(e.what) && closes_own_span {
            continue;
        }
        args.clear();
        let _ = write!(args, "\"span\":{s}");
        if let Some(p) = e.parent {
            let _ = write!(args, ",\"parent\":{}", p.raw());
        }
        if let Some(p) = e.page {
            let _ = write!(args, ",\"page\":{}", p.raw());
        }
        if let Some(v) = e.value {
            let _ = write!(args, ",\"value\":{v}");
        }
        match close_at.get(&s).filter(|_| reference_opens(e.what)) {
            Some(done) => {
                let _ = write!(
                    out,
                    ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{lane},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"args\":{{{args}}}}}",
                    e.at.raw(),
                    done.saturating_sub(e.at.raw()),
                    e.what,
                );
            }
            None => {
                let _ = write!(
                    out,
                    ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{lane},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"{}\",\"args\":{{{args}}}}}",
                    e.at.raw(),
                    e.what,
                );
            }
        }
        if let Some(&(pts, ptid)) = e.parent.and_then(|p| anchors.get(&p.raw())) {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"s\",\"pid\":1,\"tid\":{ptid},\"ts\":{pts},\
                 \"id\":{s},\"name\":\"cause\",\"cat\":\"flow\"}}\
                 ,\n{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{lane},\
                 \"ts\":{},\"id\":{s},\"name\":\"cause\",\"cat\":\"flow\"}}",
                e.at.raw(),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// SplitMix64: a tiny deterministic generator for the random streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A value of random magnitude, 1 to 20 decimal digits.
    fn any_width(&mut self) -> u64 {
        let shift = self.below(64);
        self.next() >> shift
    }

    /// `None`, `0`, `u64::MAX` or an ordinary value, in equal parts.
    fn field(&mut self, ordinary: u64) -> Option<u64> {
        match self.below(4) {
            0 => None,
            1 => Some(0),
            2 => Some(u64::MAX),
            _ => Some(ordinary),
        }
    }
}

/// A stream of `len` events over a small span pool, so spans recur: a
/// close can precede its open, closes repeat, and parents may name spans
/// that never appear (ids at or above the pool size). Pages land on up to
/// four enclave lanes; timestamps are not monotonic.
fn random_stream(seed: u64, len: usize) -> Vec<LoggedEvent> {
    let mut rng = Rng(seed);
    let pool = (len as u64 / 3).max(1);
    (0..len)
        .map(|_| {
            let page = (rng.below(4) << 24) + rng.below(1 << 20);
            let value = rng.any_width();
            let parent = rng.below(pool * 2);
            LoggedEvent {
                at: Cycles::new(rng.any_width()),
                what: ALL_KINDS[rng.below(ALL_KINDS.len() as u64) as usize],
                page: rng.field(page).map(VirtPage::new),
                value: rng.field(value),
                span: SpanId::new(rng.below(pool)),
                parent: rng.field(parent).map(SpanId::new),
            }
        })
        .collect()
}

/// Asserts `got == want`, reporting the first differing byte and its
/// surroundings instead of two multi-megabyte dumps.
fn assert_same(got: &[u8], want: &str, context: &str) {
    let want = want.as_bytes();
    if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        let window = |b: &[u8]| {
            String::from_utf8_lossy(&b[i.saturating_sub(80)..(i + 80).min(b.len())]).into_owned()
        };
        panic!(
            "{context}: first difference at byte {i}\n got: {}\nwant: {}",
            window(got),
            window(want)
        );
    }
    assert_eq!(got.len(), want.len(), "{context}: lengths differ");
}

fn ev(at: u64, what: EventKind, span: u64, parent: Option<u64>) -> LoggedEvent {
    LoggedEvent {
        at: Cycles::new(at),
        what,
        page: Some(VirtPage::new((2 << 24) + at)),
        value: None,
        span: SpanId::new(span),
        parent: parent.map(SpanId::new),
    }
}

#[test]
fn renderer_matches_the_reference_on_random_streams() {
    for seed in 0..64u64 {
        let len = [0, 1, 2, 7, 40, 300][seed as usize % 6];
        let events = random_stream(seed, len);
        let got = render_chrome_trace(&events);
        assert_same(
            got.as_bytes(),
            &reference_render(&events),
            &format!("seed {seed}"),
        );
    }
}

/// Hand-built corner cases shared by the Chrome and JSON-lines checks.
fn edge_stream() -> Vec<LoggedEvent> {
    vec![
        // Close before open, then a duplicate close; the open's duration
        // saturates at zero.
        ev(50, EventKind::FaultResolved, 1, None),
        ev(10, EventKind::Fault, 1, None),
        ev(60, EventKind::FaultResolved, 1, Some(1)),
        // A close whose span never opens stays an instant.
        ev(70, EventKind::PreloadDone, 2, None),
        // Parents absent from the stream draw no arrow.
        ev(80, EventKind::PreloadHit, 3, Some(999)),
        ev(90, EventKind::PreloadHit, 4, Some(u64::MAX)),
        LoggedEvent {
            at: Cycles::new(u64::MAX),
            what: EventKind::RunEnd,
            page: Some(VirtPage::new(u64::MAX)),
            value: Some(u64::MAX),
            span: SpanId::new(u64::MAX),
            parent: Some(SpanId::new(0)),
        },
        LoggedEvent {
            at: Cycles::new(0),
            what: EventKind::ValveStopped,
            page: Some(VirtPage::new(0)),
            value: Some(0),
            span: SpanId::new(0),
            parent: None,
        },
    ]
}

#[test]
fn renderer_matches_the_reference_on_edge_cases() {
    let edge = edge_stream();
    let got = render_chrome_trace(&edge);
    assert_same(got.as_bytes(), &reference_render(&edge), "edge cases");
    assert_eq!(render_chrome_trace(&[]), reference_render(&[]));
}

/// One JSON-lines record per event, written with `format!`: the reference
/// the streaming sink must match byte for byte.
fn reference_jsonl(events: &[LoggedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!("{{\"at\":{},\"kind\":\"{}\"", e.at.raw(), e.what));
        if let Some(p) = e.page {
            out.push_str(&format!(",\"page\":{}", p.raw()));
        }
        if let Some(v) = e.value {
            out.push_str(&format!(",\"value\":{v}"));
        }
        out.push_str(&format!(",\"span\":{}", e.span.raw()));
        if let Some(p) = e.parent {
            out.push_str(&format!(",\"parent\":{}", p.raw()));
        }
        out.push_str("}\n");
    }
    out
}

#[test]
fn jsonl_sink_matches_the_format_reference() {
    let mut streams = vec![("edge cases".to_string(), edge_stream())];
    for seed in 0..16u64 {
        streams.push((format!("seed {seed}"), random_stream(seed, 300)));
    }
    for (context, events) in streams {
        let mut sink = JsonlWriterSink::new(Vec::new());
        for e in &events {
            sink.on_event(e);
        }
        assert_eq!(sink.written(), events.len() as u64, "{context}");
        assert_same(&sink.into_inner(), &reference_jsonl(&events), &context);
    }
}

/// Records the size of every `write` call it receives.
#[derive(Default)]
struct Chunks {
    bytes: Vec<u8>,
    sizes: Vec<usize>,
}

impl Write for Chunks {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.sizes.push(buf.len());
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn large_streams_are_written_in_bounded_chunks() {
    const CHUNK: usize = 64 * 1024;
    for (seed, len) in [(7, 2_000), (8, 9_000)] {
        let events = random_stream(seed, len);
        let want = reference_render(&events);
        assert!(want.len() > 3 * CHUNK, "stream too small to straddle");
        let mut out = Chunks::default();
        write_chrome_trace(&events, &mut out).unwrap();
        assert_same(&out.bytes, &want, &format!("seed {seed}"));
        let (last, full) = out.sizes.split_last().unwrap();
        assert!(full.len() >= 3, "{:?}", out.sizes);
        for &n in full {
            assert!((CHUNK..CHUNK + 1024).contains(&n), "chunk of {n} bytes");
        }
        assert!(*last < CHUNK + 1024, "final chunk of {last} bytes");
    }
}

#[test]
fn chrome_sink_streams_the_same_bytes() {
    let events = random_stream(11, 3_000);
    let want = reference_render(&events);
    // Closed by `finish`, and by dropping the sink unfinished.
    for explicit_finish in [true, false] {
        let mut out = Vec::new();
        let mut sink = ChromeTraceSink::new(&mut out);
        for e in &events {
            sink.on_event(e);
        }
        if explicit_finish {
            sink.finish().unwrap();
        }
        drop(sink);
        assert_same(
            &out,
            &want,
            &format!("sink, finish called: {explicit_finish}"),
        );
    }
}

/// Accepts `left` bytes, then fails every write, counting the failures.
struct FailAfter {
    left: usize,
    failures: u32,
}

impl FailAfter {
    fn new(left: usize) -> Self {
        FailAfter { left, failures: 0 }
    }
}

impl Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            self.failures += 1;
            return Err(io::Error::other(format!("full #{}", self.failures)));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn chrome_sink_reports_writer_failures_once() {
    let events = random_stream(3, 2_000);
    // Fail at the first byte, inside the first chunk, past one chunk,
    // and inside the final partial chunk.
    let size = reference_render(&events).len();
    for limit in [0, 100, 70_000, size - 10] {
        let mut w = FailAfter::new(limit);
        {
            let mut sink = ChromeTraceSink::new(&mut w);
            for e in &events {
                sink.on_event(e);
            }
            let err = sink.finish().expect_err("the writer filled up");
            assert_eq!(err.to_string(), "full #1", "limit {limit}");
            sink.finish().expect("a second finish is a no-op");
        }
        assert_eq!(w.failures, 1, "limit {limit}: written on after the error");
    }
    // Dropping an unfinished sink over a failing writer must not panic.
    let mut w = FailAfter::new(10);
    drop(ChromeTraceSink::new(&mut w));
    assert_eq!(w.failures, 1);
}

#[test]
fn series_sink_latches_the_first_writer_error() {
    for format in [SeriesFormat::Csv, SeriesFormat::Json] {
        let mut w = FailAfter::new(300);
        {
            let mut sink = TimeSeriesSink::new(&mut w, format);
            for i in 0..10 {
                sink.on_sample(&sample(i, &[1, 2]));
            }
            let err = sink.finish().expect_err("the writer filled up");
            assert_eq!(err.to_string(), "full #1", "{format:?}");
            sink.finish().expect("a second finish is a no-op");
        }
        assert_eq!(w.failures, 1, "{format:?}: written on after the error");
    }
}

fn sample(i: u64, tenants: &[u64]) -> GaugeSample {
    GaugeSample {
        at: Cycles::new(1000 * i),
        epc_resident: i,
        epc_free: 100 - i,
        queue_depth: 2,
        sip_queue_depth: 0,
        live_streams: 1,
        valve_stops: 0,
        channel_busy: Cycles::new(40 * i),
        faults: 6,
        preloads_started: 3,
        scan_steps: u64::MAX,
        tenant_resident: tenants.to_vec(),
    }
}

/// Renders `samples` twice, once closed by `finish` and once by dropping
/// the sink unfinished (as a boxed sink is), and checks both agree.
fn render_series(format: SeriesFormat, samples: &[GaugeSample]) -> String {
    let render = |explicit_finish: bool| {
        let mut out = Vec::new();
        let mut sink = TimeSeriesSink::new(&mut out, format);
        for s in samples {
            sink.on_sample(s);
        }
        assert_eq!(sink.written(), samples.len() as u64);
        if explicit_finish {
            sink.finish().unwrap();
        }
        drop(sink);
        String::from_utf8(out).unwrap()
    };
    let finished = render(true);
    assert_eq!(
        render(false),
        finished,
        "{format:?}: drop must close the series"
    );
    finished
}

fn pinned_samples() -> [GaugeSample; 3] {
    [
        sample(0, &[]),
        sample(1, &[7]),
        sample(2, &[0, 5, u64::MAX]),
    ]
}

#[test]
fn series_csv_layout_is_pinned() {
    assert_eq!(
        render_series(SeriesFormat::Csv, &pinned_samples()),
        "at,epc_resident,epc_free,queue_depth,sip_queue_depth,live_streams,\
         valve_stops,channel_busy,faults,preloads_started,scan_steps,tenant_resident\n\
         0,0,100,2,0,1,0,0,6,3,18446744073709551615,\n\
         1000,1,99,2,0,1,0,40,6,3,18446744073709551615,7\n\
         2000,2,98,2,0,1,0,80,6,3,18446744073709551615,0|5|18446744073709551615\n"
    );
    assert_eq!(render_series(SeriesFormat::Csv, &[]), "");
}

#[test]
fn series_json_layout_is_pinned() {
    assert_eq!(
        render_series(SeriesFormat::Json, &pinned_samples()),
        "[\n\
         {\"at\":0,\"epc_resident\":0,\"epc_free\":100,\"queue_depth\":2,\
         \"sip_queue_depth\":0,\"live_streams\":1,\"valve_stops\":0,\"channel_busy\":0,\
         \"faults\":6,\"preloads_started\":3,\"scan_steps\":18446744073709551615,\
         \"tenant_resident\":[]},\n\
         {\"at\":1000,\"epc_resident\":1,\"epc_free\":99,\"queue_depth\":2,\
         \"sip_queue_depth\":0,\"live_streams\":1,\"valve_stops\":0,\"channel_busy\":40,\
         \"faults\":6,\"preloads_started\":3,\"scan_steps\":18446744073709551615,\
         \"tenant_resident\":[7]},\n\
         {\"at\":2000,\"epc_resident\":2,\"epc_free\":98,\"queue_depth\":2,\
         \"sip_queue_depth\":0,\"live_streams\":1,\"valve_stops\":0,\"channel_busy\":80,\
         \"faults\":6,\"preloads_started\":3,\"scan_steps\":18446744073709551615,\
         \"tenant_resident\":[0,5,18446744073709551615]}\n\
         ]\n"
    );
    assert_eq!(render_series(SeriesFormat::Json, &[]), "[]\n");
}
