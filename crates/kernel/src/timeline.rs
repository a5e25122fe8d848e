//! Timeline exports over the causal span stream: per-subsystem cycle
//! attribution, Chrome trace-event JSON (perfetto-loadable), and periodic
//! gauge sampling into a compact series.
//!
//! Everything here consumes the same [`LoggedEvent`] stream every other
//! sink sees — the kernel computes nothing extra for an unobserved run —
//! plus, for [`TimeSeriesSink`], the [`GaugeSample`] callbacks the kernel
//! emits when a sampling interval is configured
//! ([`Kernel::set_sample_interval`](crate::Kernel::set_sample_interval)).

use std::io::{self, Write};

use sgx_sim::{Cycles, FastMap};

use crate::{EventKind, LoggedEvent, TraceSink};

/// A run's total cycles split into named buckets, one per paging
/// subsystem, with the invariant that the buckets sum exactly to the
/// run's total cycles (`app_compute` is the residual).
///
/// The stall-side buckets (`demand_fault`, `aex_eresume`, `channel_wait`)
/// partition the cycles the application spent blocked in fault handling
/// and blocking SIP loads; the channel-side buckets (`preload_work`,
/// `wasted_preload`, `clock_scan`, `eviction`) count background channel
/// cycles *clipped* of any portion an application stall already paid for,
/// so no cycle is counted twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleAttribution {
    /// Residual: cycles the application spent computing inside the
    /// enclave (total minus every overhead bucket).
    pub app_compute: u64,
    /// Blocking load service on the application's critical path: the OS
    /// fault path plus demand/SIP ELDU cycles.
    pub demand_fault: u64,
    /// World-switch overhead: AEX + ERESUME, per fault.
    pub aex_eresume: u64,
    /// Cycles a blocked application waited for the non-preemptible load
    /// channel (in-flight completions and channel acquisition).
    pub channel_wait: u64,
    /// Channel cycles spent on preloads/prefetches whose page was touched
    /// (useful speculation).
    pub preload_work: u64,
    /// Channel cycles spent on preloads/prefetches evicted or abandoned
    /// untouched (wasted speculation).
    pub wasted_preload: u64,
    /// Replacement-scan stall cycles (zero under the paper's cost model,
    /// which prices CLOCK sweeps at zero; chaos scan stalls land here).
    pub clock_scan: u64,
    /// EWB cycles spent writing victims back (foreground and background).
    pub eviction: u64,
}

impl CycleAttribution {
    /// Sum of every bucket; equals the run's total cycles by construction.
    pub fn total(&self) -> u64 {
        self.app_compute
            + self.demand_fault
            + self.aex_eresume
            + self.channel_wait
            + self.preload_work
            + self.wasted_preload
            + self.clock_scan
            + self.eviction
    }

    /// Every named overhead bucket as `(name, cycles)`, in schema order
    /// (`app_compute` first).
    pub fn buckets(&self) -> [(&'static str, u64); 8] {
        [
            ("app_compute", self.app_compute),
            ("demand_fault", self.demand_fault),
            ("aex_eresume", self.aex_eresume),
            ("channel_wait", self.channel_wait),
            ("preload_work", self.preload_work),
            ("wasted_preload", self.wasted_preload),
            ("clock_scan", self.clock_scan),
            ("eviction", self.eviction),
        ]
    }

    /// Appends the attribution as a JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, v)) in self.buckets().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&v.to_string());
        }
        out.push('}');
    }
}

impl std::fmt::Display for CycleAttribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total().max(1);
        let pct = |v: u64| 100.0 * v as f64 / total as f64;
        write!(
            f,
            "compute {:.1}% | demand-fault {:.1}% | aex/eresume {:.1}% | \
             channel-wait {:.1}% | preload {:.1}% | wasted {:.1}% | \
             scan {:.1}% | evict {:.1}%",
            pct(self.app_compute),
            pct(self.demand_fault),
            pct(self.aex_eresume),
            pct(self.channel_wait),
            pct(self.preload_work),
            pct(self.wasted_preload),
            pct(self.clock_scan),
            pct(self.eviction),
        )
    }
}

/// A point-in-time snapshot of the kernel's gauges, delivered to
/// [`TraceSink::on_sample`] every configured sampling interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// The simulated instant of the sample.
    pub at: Cycles,
    /// EPC pages resident.
    pub epc_resident: u64,
    /// EPC slots free.
    pub epc_free: u64,
    /// Pages waiting on the DFP preload queues (global + per-tenant).
    pub queue_depth: u64,
    /// Pages waiting on the SIP early-notify queue.
    pub sip_queue_depth: u64,
    /// Live prediction streams tracked by the predictor.
    pub live_streams: u64,
    /// Valve latches so far: the kernel-global latch plus every latched
    /// per-enclave valve.
    pub valve_stops: u64,
    /// Cumulative load-channel busy cycles.
    pub channel_busy: Cycles,
    /// Cumulative fault count.
    pub faults: u64,
    /// Cumulative preload starts.
    pub preloads_started: u64,
    /// Cumulative replacement-policy scan steps.
    pub scan_steps: u64,
    /// Resident pages per tenant extent, in registration order.
    pub tenant_resident: Vec<u64>,
}

/// Output encoding for [`TimeSeriesSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// One CSV row per sample, header first; `tenant_resident` is a
    /// `|`-joined list in the last column.
    Csv,
    /// A JSON array of sample objects.
    Json,
}

/// Two-digit decimal pairs "00".."99", for [`push_u64`].
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, two digits at a time: the exports' one
/// number formatter.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v > 0 || i == digits.len() {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    buf.extend_from_slice(&digits[i..]);
}

/// Appends `key` and then `v` in decimal.
pub(crate) fn field(buf: &mut Vec<u8>, key: &[u8], v: u64) {
    buf.extend_from_slice(key);
    push_u64(buf, v);
}

/// Streams [`GaugeSample`]s into a compact CSV or JSON series.
///
/// Ignores ordinary events; only sampled gauges are written, each
/// formatted into a reused line buffer and handed to the writer in one
/// `write_all`. The JSON array is closed by [`TimeSeriesSink::finish`]
/// (called from `Drop` if not called explicitly). Write errors are
/// latched: the first failure stops further output and is reported by
/// `finish`.
pub struct TimeSeriesSink<W: Write> {
    out: Option<W>,
    format: SeriesFormat,
    samples: u64,
    line: Vec<u8>,
    error: Option<io::Error>,
}

impl TimeSeriesSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams samples into it.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>, format: SeriesFormat) -> io::Result<Self> {
        Ok(Self::new(
            io::BufWriter::new(std::fs::File::create(path)?),
            format,
        ))
    }
}

impl<W: Write> TimeSeriesSink<W> {
    /// Wraps `out`; samples are appended in `format`.
    pub fn new(out: W, format: SeriesFormat) -> Self {
        TimeSeriesSink {
            out: Some(out),
            format,
            samples: 0,
            line: Vec::new(),
            error: None,
        }
    }

    /// Samples written so far.
    pub fn written(&self) -> u64 {
        self.samples
    }

    fn try_write(&mut self, sample: &GaugeSample) -> io::Result<()> {
        let Some(out) = self.out.as_mut() else {
            return Ok(());
        };
        // Every column but the list-valued `tenant_resident`, which
        // comes last.
        let scalars = [
            ("at", sample.at.raw()),
            ("epc_resident", sample.epc_resident),
            ("epc_free", sample.epc_free),
            ("queue_depth", sample.queue_depth),
            ("sip_queue_depth", sample.sip_queue_depth),
            ("live_streams", sample.live_streams),
            ("valve_stops", sample.valve_stops),
            ("channel_busy", sample.channel_busy.raw()),
            ("faults", sample.faults),
            ("preloads_started", sample.preloads_started),
            ("scan_steps", sample.scan_steps),
        ];
        let line = &mut self.line;
        line.clear();
        let list_sep = match self.format {
            SeriesFormat::Csv => {
                if self.samples == 0 {
                    for (name, _) in scalars {
                        line.extend_from_slice(name.as_bytes());
                        line.push(b',');
                    }
                    line.extend_from_slice(b"tenant_resident\n");
                }
                for (_, v) in scalars {
                    push_u64(line, v);
                    line.push(b',');
                }
                b'|'
            }
            SeriesFormat::Json => {
                line.extend_from_slice(if self.samples == 0 { b"[\n{" } else { b",\n{" });
                for (name, v) in scalars {
                    line.push(b'"');
                    line.extend_from_slice(name.as_bytes());
                    field(line, b"\":", v);
                    line.push(b',');
                }
                line.extend_from_slice(b"\"tenant_resident\":[");
                b','
            }
        };
        for (i, &v) in sample.tenant_resident.iter().enumerate() {
            if i > 0 {
                line.push(list_sep);
            }
            push_u64(line, v);
        }
        line.extend_from_slice(match self.format {
            SeriesFormat::Csv => b"\n",
            SeriesFormat::Json => b"]}",
        });
        out.write_all(line)?;
        self.samples += 1;
        Ok(())
    }

    /// Closes the series (terminates the JSON array) and flushes.
    ///
    /// # Errors
    ///
    /// Reports the first latched write error, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            self.out = None;
            return Err(e);
        }
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        if matches!(self.format, SeriesFormat::Json) {
            out.write_all(if self.samples == 0 { b"[]\n" } else { b"\n]\n" })?;
        }
        out.flush()
    }
}

impl<W: Write> TraceSink for TimeSeriesSink<W> {
    fn on_event(&mut self, _event: &LoggedEvent) {}

    fn on_sample(&mut self, sample: &GaugeSample) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_write(sample) {
            self.error = Some(e);
            self.out = None;
        }
    }
}

impl<W: Write> Drop for TimeSeriesSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Lane assignment for the Chrome trace: channel-side events share one
/// lane, everything else goes to its enclave's lane (ELRANGE index + 1).
fn chrome_lane(e: &LoggedEvent) -> u64 {
    match e.what {
        EventKind::PreloadStart
        | EventKind::PreloadDone
        | EventKind::SipPrefetchStart
        | EventKind::EvictBackground
        | EventKind::EvictForeground => 0,
        _ => match e.page {
            // ELRANGEs are spaced 2^24 pages apart (the kernel's guard
            // stride), so the lane is the page's high bits.
            Some(p) => 1 + (p.raw() >> 24),
            None => 0,
        },
    }
}

/// Whether this kind opens a duration span closed by a later event with
/// the same [`SpanId`].
fn opens_span(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Fault | EventKind::PreloadStart | EventKind::SipPrefetchStart
    )
}

/// Whether this kind closes the duration span its [`SpanId`] opened.
fn closes_span(kind: EventKind) -> bool {
    matches!(kind, EventKind::FaultResolved | EventKind::PreloadDone)
}

/// What the Chrome render needs to know about one span.
struct SpanFacts {
    /// The span's first event `(ts, lane)`: where its flow arrows start.
    anchor: (u64, u64),
    /// Timestamp of the span's first closing event.
    close_at: Option<u64>,
    /// Whether an opening event of the span appears in the stream.
    opened: bool,
}

/// Span id -> [`SpanFacts`]. `sgx_sim::FastMap` reserves `u64::MAX` as
/// its empty marker, so that one id, which a foreign stream may still
/// carry, lives beside the map.
#[derive(Default)]
struct SpanIndex {
    slots: FastMap,
    facts: Vec<SpanFacts>,
    max_id: Option<SpanFacts>,
}

impl SpanIndex {
    fn get(&self, span: u64) -> Option<&SpanFacts> {
        match span {
            u64::MAX => self.max_id.as_ref(),
            _ => self.slots.get(span).map(|i| &self.facts[i as usize]),
        }
    }

    /// The span's facts, created with `anchor` on its first event.
    fn entry(&mut self, span: u64, anchor: (u64, u64)) -> &mut SpanFacts {
        let new = SpanFacts {
            anchor,
            close_at: None,
            opened: false,
        };
        if span == u64::MAX {
            return self.max_id.get_or_insert(new);
        }
        let i = self.slots.get(span).unwrap_or_else(|| {
            self.slots.insert(span, self.facts.len() as u64);
            self.facts.push(new);
            self.facts.len() as u64 - 1
        });
        &mut self.facts[i as usize]
    }
}

/// Buffers the event stream and renders Chrome trace-event JSON
/// (loadable in `ui.perfetto.dev` or `chrome://tracing`) on
/// [`ChromeTraceSink::finish`] / drop.
///
/// Layout: one lane per enclave plus a load-channel lane (`tid 0`).
/// Open/close pairs sharing a span id (`fault`→`fault-resolved`,
/// `preload-start`/`sip-prefetch-start`→`preload-done`) become complete
/// (`"X"`) duration events; everything else is an instant. Every causal
/// `parent` link whose parent span was emitted becomes a flow arrow
/// (`"s"`/`"f"` pair, `id` = the child span). Timestamps are simulated
/// cycles, rendered as the trace's microsecond unit.
pub struct ChromeTraceSink<W: Write> {
    out: Option<W>,
    buf: Vec<LoggedEvent>,
}

impl ChromeTraceSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and renders the trace into it at the
    /// end of the run.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps `out`; the trace is rendered when the run finishes.
    pub fn new(out: W) -> Self {
        ChromeTraceSink {
            out: Some(out),
            buf: Vec::new(),
        }
    }

    /// Streams the buffered events into the writer through
    /// [`write_chrome_trace`] and flushes. Idempotent: the second call is
    /// a no-op, also after an error.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(&mut self) -> io::Result<()> {
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        write_chrome_trace(&self.buf, &mut out)
    }
}

impl<W: Write> TraceSink for ChromeTraceSink<W> {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.buf.push(*event);
    }
}

impl<W: Write> Drop for ChromeTraceSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Size of the chunks [`write_chrome_trace`] hands to its writer: records
/// accumulate in one reused buffer that is written out whenever it holds
/// at least this many bytes.
const CHROME_CHUNK: usize = 64 * 1024;

/// Streams `events` (one run's stream, in emission order) into `out` as
/// a Chrome trace-event JSON document, then flushes `out`.
///
/// One linear indexing pass finds every span's flow-arrow anchor, close
/// timestamp and opener; the records are then formatted into one reused
/// buffer that is written out whenever it reaches 64 KiB, so memory
/// beyond the index is one chunk whatever the document's size.
/// Deterministic: a byte-identical stream renders to byte-identical JSON.
///
/// # Errors
///
/// Propagates the writer's first error; the document is then truncated.
pub fn write_chrome_trace<W: Write>(events: &[LoggedEvent], out: &mut W) -> io::Result<()> {
    // One linear indexing pass: what the render needs to know about
    // every span before its first record is written.
    let mut spans = SpanIndex::default();
    let mut lanes: std::collections::BTreeSet<u64> = [0].into();
    for e in events {
        let lane = chrome_lane(e);
        lanes.insert(lane);
        let facts = spans.entry(e.span.raw(), (e.at.raw(), lane));
        facts.opened |= opens_span(e.what);
        if closes_span(e.what) {
            facts.close_at.get_or_insert(e.at.raw());
        }
    }

    // The process-name record always comes first, so every later record
    // is preceded by the `,\n` separator.
    let mut buf = Vec::with_capacity(CHROME_CHUNK + 1024);
    buf.extend_from_slice(
        b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
          {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}}",
    );
    for &lane in &lanes {
        field(&mut buf, b",\n{\"ph\":\"M\",\"pid\":1,\"tid\":", lane);
        buf.extend_from_slice(b",\"name\":\"thread_name\",\"args\":{\"name\":\"");
        if lane == 0 {
            buf.extend_from_slice(b"load channel");
        } else {
            field(&mut buf, b"enclave ", lane - 1);
        }
        buf.extend_from_slice(b"\"}}");
    }

    for e in events {
        if buf.len() >= CHROME_CHUNK {
            out.write_all(&buf)?;
            buf.clear();
        }
        let lane = chrome_lane(e);
        let s = e.span.raw();
        let at = e.at.raw();
        let facts = spans.get(s).expect("the indexing pass saw every span");
        if closes_span(e.what) && facts.close_at == Some(at) && facts.opened {
            // Rendered as the duration of its opening event; closes with
            // no opener (foreign stream) fall through to an instant.
            continue;
        }
        let done = facts.close_at.filter(|_| opens_span(e.what));
        let ph: &[u8] = match done {
            Some(_) => b",\n{\"ph\":\"X\",\"pid\":1,\"tid\":",
            None => b",\n{\"ph\":\"i\",\"pid\":1,\"tid\":",
        };
        field(&mut buf, ph, lane);
        field(&mut buf, b",\"ts\":", at);
        match done {
            Some(done) => field(&mut buf, b",\"dur\":", done.saturating_sub(at)),
            None => buf.extend_from_slice(b",\"s\":\"t\""),
        }
        buf.extend_from_slice(b",\"name\":\"");
        buf.extend_from_slice(e.what.name().as_bytes());
        field(&mut buf, b"\",\"args\":{\"span\":", s);
        if let Some(p) = e.parent {
            field(&mut buf, b",\"parent\":", p.raw());
        }
        if let Some(p) = e.page {
            field(&mut buf, b",\"page\":", p.raw());
        }
        if let Some(v) = e.value {
            field(&mut buf, b",\"value\":", v);
        }
        buf.extend_from_slice(b"}}");
        // One flow arrow per causal link, anchored at the parent span's
        // first event. Links to spans absent from the stream draw nothing
        // — a rendered arrow always references two emitted spans.
        if let Some(parent) = e.parent.and_then(|p| spans.get(p.raw())) {
            let (pts, ptid) = parent.anchor;
            let start: &[u8] = b",\n{\"ph\":\"s\",\"pid\":1,\"tid\":";
            let finish: &[u8] = b",\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":";
            for (ph, tid, ts) in [(start, ptid, pts), (finish, lane, at)] {
                field(&mut buf, ph, tid);
                field(&mut buf, b",\"ts\":", ts);
                field(&mut buf, b",\"id\":", s);
                buf.extend_from_slice(b",\"name\":\"cause\",\"cat\":\"flow\"}");
            }
        }
    }
    buf.extend_from_slice(b"\n]}\n");
    out.write_all(&buf)?;
    out.flush()
}

/// Renders `events` as a Chrome trace-event JSON document in memory:
/// [`write_chrome_trace`] into a `Vec`. Prefer streaming into the
/// destination with `write_chrome_trace` for large runs.
pub fn render_chrome_trace(events: &[LoggedEvent]) -> String {
    // Events average under 200 bytes; presizing spares doubling copies.
    let mut out = Vec::with_capacity(events.len() * 200 + 1024);
    write_chrome_trace(events, &mut out).expect("writing into a Vec cannot fail");
    String::from_utf8(out).expect("the trace is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanId;
    use sgx_epc::VirtPage;

    fn ev(
        at: u64,
        what: EventKind,
        page: Option<u64>,
        value: Option<u64>,
        span: u64,
        parent: Option<u64>,
    ) -> LoggedEvent {
        LoggedEvent {
            at: Cycles::new(at),
            what,
            page: page.map(VirtPage::new),
            value,
            span: SpanId::new(span),
            parent: parent.map(SpanId::new),
        }
    }

    #[test]
    fn attribution_total_sums_every_bucket() {
        let a = CycleAttribution {
            app_compute: 100,
            demand_fault: 20,
            aex_eresume: 3,
            channel_wait: 4,
            preload_work: 5,
            wasted_preload: 6,
            clock_scan: 7,
            eviction: 8,
        };
        assert_eq!(a.total(), 153);
        assert_eq!(a.buckets()[0], ("app_compute", 100));
        let mut json = String::new();
        a.write_json(&mut json);
        assert!(json.starts_with("{\"app_compute\":100,"));
        assert!(json.ends_with("\"eviction\":8}"));
        assert!(a.to_string().contains("demand-fault"));
    }

    #[test]
    fn chrome_trace_pairs_open_close_into_durations() {
        let events = [
            ev(10, EventKind::Fault, Some(7), None, 1, None),
            ev(90, EventKind::FaultResolved, Some(7), Some(80), 1, None),
        ];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10,\"dur\":80"));
        // The close event itself is folded into the duration.
        assert!(!json.contains("fault-resolved"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_trace_draws_flows_only_between_emitted_spans() {
        let events = [
            ev(10, EventKind::Fault, Some(7), None, 1, None),
            ev(11, EventKind::StreamPredicted, Some(7), Some(2), 2, Some(1)),
            // Parent span 99 was never emitted: no arrow may reference it.
            ev(12, EventKind::PreloadStart, Some(8), None, 3, Some(99)),
        ];
        let json = render_chrome_trace(&events);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"id\":2"), "flow id is the child span");
        assert!(!json.contains("\"id\":3"), "dangling parent draws nothing");
    }

    #[test]
    fn chrome_trace_separates_channel_and_enclave_lanes() {
        let enclave1_page = (1u64 << 24) + 5;
        let events = [
            ev(10, EventKind::Fault, Some(enclave1_page), None, 1, None),
            ev(
                20,
                EventKind::PreloadStart,
                Some(enclave1_page + 1),
                None,
                2,
                None,
            ),
        ];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"name\":\"load channel\""));
        assert!(json.contains("\"name\":\"enclave 1\""));
        assert!(
            json.contains("\"tid\":0,\"ts\":20"),
            "preload on channel lane"
        );
    }
}
