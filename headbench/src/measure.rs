//! Process readings, order statistics, and the result line.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second behind the CPU times in `/proc/self/stat`
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of the whole process so far, in seconds.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // The command name is parenthesised and may hold spaces; the fields
    // after its closing parenthesis start at field 3 (the state).
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields.get(i).and_then(|f| f.parse::<u64>().ok()).ok_or("malformed /proc/self/stat")
    };
    // utime and stime are fields 14 and 15.
    let ticks = field(11)? + field(12)?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// The process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Smallest latency a [`Histogram`] tells apart, in milliseconds.
const HISTOGRAM_FLOOR_MS: f64 = 1e-3;
/// Ratio between neighbouring [`Histogram`] bucket edges.
const HISTOGRAM_STEP: f64 = 1.001;
/// Buckets of a [`Histogram`]: 1 µs up to about 100 s.
const HISTOGRAM_BUCKETS: usize = 18_432;

/// Latencies in logarithmic buckets 0.1% wide. Its memory is fixed, so
/// a run that completes more jobs does not grow the process.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; HISTOGRAM_BUCKETS], total: 0 }
    }
}

impl Histogram {
    /// Counts one latency of `ms` milliseconds.
    pub fn record(&mut self, ms: f64) {
        let bucket = ((ms / HISTOGRAM_FLOOR_MS).ln() / HISTOGRAM_STEP.ln()).max(0.0) as usize;
        self.counts[bucket.min(HISTOGRAM_BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile `q` (in `0..=1`), as its bucket's geometric
    /// centre; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return HISTOGRAM_FLOOR_MS * HISTOGRAM_STEP.powf(bucket as f64 + 0.5);
            }
        }
        0.0
    }
}

/// One window of a timed phase: a fixed number of consecutive
/// completions over all of the phase's clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Wall time from the previous window's end (or the phase's start).
    pub seconds: f64,
    /// Process CPU time over the same span.
    pub cpu_s: f64,
}

/// What a [`Meter`] measured over a timed phase.
#[derive(Debug, Clone, Default)]
pub struct Metered {
    /// Submit-to-verified-answer time of every completion.
    pub latency: Histogram,
    /// The windows the phase closed.
    pub windows: Vec<Window>,
}

/// Times a phase's completions and cuts the phase into [`Window`]s of
/// `size` completions. Clients on several threads share one meter. Its
/// memory is fixed, so a run that completes more jobs does not grow the
/// process.
#[derive(Debug)]
pub struct Meter {
    size: u64,
    state: Mutex<MeterState>,
}

#[derive(Debug)]
struct MeterState {
    done: Metered,
    in_window: u64,
    last_end: Instant,
    last_cpu: f64,
    error: Option<String>,
}

impl Meter {
    /// A meter whose first window starts now.
    pub fn start(size: u64) -> Result<Meter, String> {
        let state = MeterState {
            done: Metered::default(),
            in_window: 0,
            last_end: Instant::now(),
            last_cpu: cpu_seconds()?,
            error: None,
        };
        Ok(Meter { size: size.max(1), state: Mutex::new(state) })
    }

    /// Counts a completion, at `at`, of a request sent at `sent`.
    pub fn completed(&self, sent: Instant, at: Instant) {
        let Ok(mut s) = self.state.lock() else { return };
        s.done.latency.record(at.saturating_duration_since(sent).as_secs_f64() * 1e3);
        s.in_window += 1;
        if s.in_window < self.size {
            return;
        }
        let cpu = match cpu_seconds() {
            Ok(cpu) => cpu,
            Err(e) => {
                s.error.get_or_insert(e);
                s.last_cpu
            }
        };
        let window = Window {
            seconds: at.saturating_duration_since(s.last_end).as_secs_f64(),
            cpu_s: cpu - s.last_cpu,
        };
        s.done.windows.push(window);
        s.in_window = 0;
        s.last_end = at;
        s.last_cpu = cpu;
    }

    /// Leaves `took`, spent outside the phase while no request was in
    /// flight, out of the window it fell in: out of its wall time, and,
    /// as one busy thread, out of its CPU time.
    pub fn exclude(&self, took: Duration) {
        let Ok(mut s) = self.state.lock() else { return };
        s.last_end += took;
        s.last_cpu += took.as_secs_f64();
    }

    /// What the phase measured.
    pub fn finish(self) -> Result<Metered, String> {
        let s = self.state.into_inner().map_err(|_| "a client panicked".to_string())?;
        match s.error {
            Some(e) => Err(e),
            None => Ok(s.done),
        }
    }
}

/// Nearest-rank quantile `q` (in `0..=1`) of `values`; 0 when empty.
pub fn quantile<T: Copy + PartialOrd + Into<f64>>(values: &[T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// The median of `values` (nearest rank); 0 when empty.
pub fn median<T: Copy + PartialOrd + Into<f64>>(values: &[T]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of the middle half of `values`, between their quartiles.
/// 0 when empty.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = sorted.get(cut..sorted.len() - cut).unwrap_or(&[]);
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A figure; a non-finite value is reported as 0.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value: if value.is_finite() { value } else { 0.0 }, unit }
    }
}

/// What one run reports on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted: warm-up, timed, wire-check and replayed jobs.
    pub attempted: u64,
    /// Of those, the ones that failed: a wrong answer, a shed, a protocol
    /// or farm error.
    pub failed: u64,
    /// The figures of the run's mode.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
