//! The measurement loops: untraced repetitions for the end-to-end metrics, and
//! interleaved traced and untraced repetitions for the per-layer split.

use std::fs;
use std::io::{self, Write};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use pdq_experiments::common::default_registry;
use pdq_scenario::{
    CachePolicy, ProtocolRegistry, ReplicatedOutcome, ResultCache, RunSummary, Scenario, Sweep,
};

use crate::pins::{pins, reference_packets_tx, Check};
use crate::sys;
use crate::trace::{traced_registry, CallTotals, Layer, LayerTotals, SpanLog};
use crate::workloads::{
    self, prepare, run_phased, PhasedRun, Phases, Workload, DEFAULT_SEED, SHARDS_2,
};

/// Untraced repetitions a run makes even when they overrun `--seconds`.
const MIN_REPS: usize = 3;

/// Set-ups timed on their own after every untraced repetition. One set-up takes
/// about a millisecond, so `setup_s` is the median of many samples per run.
const EXTRA_SETUPS: usize = 10;

/// Directory, relative to the working directory, for result caches and trace files.
pub const OUT_DIR: &str = ".perfbench";

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark invocation.
pub struct Report {
    /// Every run reproduced the expected outputs and every cross-check held.
    pub correct: bool,
    /// Scenario runs attempted.
    pub attempted: usize,
    /// Scenario runs that errored, panicked or produced unexpected outputs.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Calls per protocol family (traced only), for the trace file.
    pub detail: Vec<Metric>,
    /// Why runs failed, for the diagnostic output.
    pub errors: Vec<String>,
    /// Spans of the traced repetitions (empty when untraced).
    pub spans: SpanLog,
}

/// The correctness gate every repetition passes through. At the default seed the
/// expected outputs are the pins; at any other seed they are the first
/// repetition's, so traced, untraced and two-shard runs must all agree.
struct Gate {
    expected: Option<Vec<Check>>,
    source: &'static str,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Gate {
    fn new(workload: Workload, seed: u64) -> Gate {
        let pinned = seed == DEFAULT_SEED;
        Gate {
            expected: pinned.then(|| pins(workload).to_vec()),
            source: if pinned { "pins" } else { "first repetition" },
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Account one repetition of `runs` scenario runs; true if every run passed.
    fn account(&mut self, what: &str, runs: usize, outcome: Result<Vec<Check>, String>) -> bool {
        self.attempted += runs;
        let checks = match outcome {
            Ok(checks) => checks,
            Err(e) => {
                self.fail(runs, format!("{what}: {e}"));
                return false;
            }
        };
        let expected = self.expected.get_or_insert_with(|| checks.clone());
        let bad = (0..runs)
            .filter(|&i| checks.get(i) != expected.get(i))
            .count();
        if bad > 0 {
            let msg = format!(
                "{what}: outputs differ from the {}; observed {checks:?}",
                self.source
            );
            self.fail(bad, msg);
        }
        bad == 0
    }

    fn fail(&mut self, runs: usize, msg: String) {
        self.failed += runs;
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }
}

/// End-to-end sample of one untraced repetition.
#[derive(Clone, Copy, Debug)]
struct Sample {
    setup_s: f64,
    run_s: f64,
    cpu_s: f64,
    /// Packet transmissions (one per link crossed) in the repetition's runs.
    packets_tx: u64,
}

/// Engine counters and phase clock of one scenario run, kept after its results
/// are dropped.
struct RunInfo {
    label: String,
    phases: Phases,
    flows: usize,
    events: u64,
    pushes: u64,
    peak_pending: u64,
    overflow_migrations: u64,
    buckets_sorted: u64,
    packets_tx: u64,
    tail_drops: u64,
    random_drops: u64,
}

impl RunInfo {
    fn of(run: &PhasedRun, scenario: &Scenario) -> RunInfo {
        let r = run.summary.packet();
        let links = || r.link_stats.iter().map(|(_, s)| s);
        RunInfo {
            label: format!(
                "{} {} seed={}",
                scenario.name, scenario.protocol, scenario.seed
            ),
            phases: run.phases,
            flows: run.flows,
            events: r.queue.pops,
            pushes: r.queue.pushes,
            peak_pending: r.queue.peak_pending,
            overflow_migrations: r.queue.overflow_migrations,
            buckets_sorted: r.queue.buckets_sorted,
            packets_tx: packets_tx(&run.summary),
            tail_drops: links().map(|s| s.tail_drops).sum(),
            random_drops: links().map(|s| s.random_drops).sum(),
        }
    }
}

fn packets_tx(summary: &RunSummary) -> u64 {
    summary
        .packet()
        .link_stats
        .iter()
        .map(|(_, s)| s.packets_transmitted)
        .sum()
}

fn check_of(summary: &RunSummary, fingerprint: &str) -> Check {
    Check::new(fingerprint, summary.completed, summary.mean_fct_secs)
}

/// Run `scenarios` one after another through [`run_phased`].
fn scenario_rep(
    scenarios: &[Scenario],
    registry: &ProtocolRegistry,
) -> Result<(Sample, Vec<Check>), String> {
    let mut sample = Sample {
        setup_s: 0.0,
        run_s: 0.0,
        cpu_s: 0.0,
        packets_tx: 0,
    };
    let mut checks = Vec::new();
    for s in scenarios {
        let run = run_phased(s, registry).map_err(|e| format!("{}: {e}", s.name))?;
        sample.setup_s += run.phases.setup_s();
        sample.run_s += run.phases.run_s();
        sample.cpu_s += run.cpu_s;
        checks.push(check_of(&run.summary, &run.fingerprint));
        sample.packets_tx += packets_tx(&run.summary);
    }
    Ok((sample, checks))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// The sweep's set-up: build the grid and open a fresh result cache in `dir`.
fn sweep_setup(seed: u64, dir: &Path) -> Result<(Sweep, ResultCache, f64), String> {
    fresh_dir(dir)?;
    let started = Instant::now();
    let sweep = workloads::sweep(seed);
    let cache = ResultCache::open(dir).map_err(|e| format!("opening cache: {e}"))?;
    Ok((sweep, cache, secs(started.elapsed())))
}

/// When each cell of a `Sweep::run_replicated_cached` pass finished, read from the
/// pass's JSONL sink: the sweep writes a cell's line from the worker thread that
/// just ran and stored it.
struct CellClock {
    start: Instant,
    end: Instant,
    lines: Vec<(ThreadId, Instant)>,
}

impl CellClock {
    fn new() -> CellClock {
        let now = Instant::now();
        CellClock {
            start: now,
            end: now,
            lines: Vec::new(),
        }
    }

    /// Seconds per cell: the time since the same worker's previous cell finished,
    /// or since the pass started for its first cell (which so also carries the
    /// sweep's cache-miss lookups and the thread spawn).
    fn cell_s(&self) -> Vec<f64> {
        let mut last: Vec<(ThreadId, Instant)> = Vec::new();
        let mut cells = Vec::new();
        for &(thread, at) in &self.lines {
            let prev = match last.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, prev)) => std::mem::replace(prev, at),
                None => {
                    last.push((thread, at));
                    self.start
                }
            };
            cells.push(secs(at - prev));
        }
        cells
    }
}

impl Write for CellClock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let thread = std::thread::current().id();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.lines.extend(std::iter::repeat_n((thread, now), lines));
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The sweep: build the grid and open a fresh cache (setup), run it with
/// `Sweep::run_replicated_cached` into the cache, then run it again so every run is
/// served from the cache (run), and check each cached summary against the fresh one.
/// With a `clock`, the fresh pass streams its JSONL records into it.
fn sweep_rep(
    seed: u64,
    registry: &ProtocolRegistry,
    dir: &Path,
    clock: Option<&mut CellClock>,
) -> Result<(Sample, Vec<Check>), String> {
    let (sweep, cache, setup_s) = sweep_setup(seed, dir)?;
    let ready = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let replicates = NonZeroUsize::new(workloads::SWEEP_REPLICATES).expect("replicates > 0");
    let run = |what, sink: Option<&mut (dyn Write + Send)>| {
        sweep
            .run_replicated_cached(
                registry,
                workloads::SWEEP_THREADS,
                replicates,
                Some(&cache),
                CachePolicy::ReadWrite,
                sink,
            )
            .map_err(|e| format!("{what} sweep: {e}"))
    };
    let fresh = match clock {
        Some(clock) => {
            clock.start = Instant::now();
            let fresh = run("fresh", Some(&mut *clock));
            clock.end = Instant::now();
            fresh
        }
        None => run("fresh", None),
    }?;
    let cached = run("cached", None)?;
    let cpu_s = sys::cpu_seconds() - cpu0;
    let done = Instant::now();

    let n = sweep.len() * replicates.get();
    if fresh.executed != n || cached.cache_hits != n {
        return Err(format!(
            "expected {n} executed then {n} cached runs, got {} then {}",
            fresh.executed, cached.cache_hits
        ));
    }
    let runs = |o: ReplicatedOutcome| -> Vec<RunSummary> {
        o.cells.into_iter().flat_map(|c| c.runs).collect()
    };
    let (fresh, cached) = (runs(fresh), runs(cached));
    let mismatched: Vec<String> = fresh
        .iter()
        .zip(&cached)
        .filter(|(f, c)| f.to_record() != c.to_record())
        .map(|(f, _)| format!("{} seed {}", f.scenario, f.seed))
        .collect();
    if !mismatched.is_empty() {
        return Err(format!(
            "cached summaries differ from fresh ones: {mismatched:?}"
        ));
    }
    let checks = fresh
        .iter()
        .map(|s| check_of(s, &s.fingerprint()))
        .collect();
    let sample = Sample {
        setup_s,
        run_s: (done - ready).as_secs_f64(),
        cpu_s,
        packets_tx: fresh.iter().map(packets_tx).sum(),
    };
    Ok((sample, checks))
}

/// Per-layer values of one traced repetition, in report order.
type LayerValues = Vec<(&'static str, f64, &'static str)>;

/// Cache and cell timings of a traced repetition, for [`layer_values`].
#[derive(Default)]
struct SweepTrace {
    store_s: f64,
    lookup_s: f64,
    hits: usize,
    cell_s: Vec<f64>,
    workers_s: f64,
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Calls, self time and nanoseconds per call of a group of decorated calls.
fn call_values(c: CallTotals, names: [&'static str; 3]) -> LayerValues {
    let per_call = if c.calls > 0 {
        c.nanos as f64 / c.calls as f64
    } else {
        0.0
    };
    vec![
        (names[0], c.calls as f64, "count"),
        (names[1], c.nanos as f64 * 1e-9, "s"),
        (names[2], per_call, "ns"),
    ]
}

/// Calls into switch controllers and into host agents, whatever the protocol, so
/// that every workload reports both.
fn role_values(calls: &[CallTotals; 4]) -> LayerValues {
    let sum = |layers: [Layer; 2]| {
        layers
            .iter()
            .fold(CallTotals::default(), |t, &l| CallTotals {
                calls: t.calls + calls[l as usize].calls,
                nanos: t.nanos + calls[l as usize].nanos,
            })
    };
    let mut v = call_values(
        sum([Layer::PdqSwitch, Layer::BaselinesSwitch]),
        ["switch.calls", "switch.self_s", "switch.ns_per_call"],
    );
    v.extend(call_values(
        sum([Layer::PdqHost, Layer::BaselinesHost]),
        ["host.calls", "host.self_s", "host.ns_per_call"],
    ));
    v
}

/// Calls per protocol family, written to the trace file only: a family a workload
/// does not run would report a constant zero time.
fn family_values(calls: &[CallTotals; 4]) -> LayerValues {
    Layer::ALL
        .into_iter()
        .flat_map(|l| call_values(calls[l as usize], l.metric_names()))
        .collect()
}

/// Assemble the per-layer split of one traced repetition. Layer self times plus
/// `trace.unattributed_s` sum to `trace.wall_s`, the phased pass's wall time times
/// the `lanes` workers that ran its scenarios.
fn layer_values(
    runs: &[RunInfo],
    calls: &[CallTotals; 4],
    sweep: &SweepTrace,
    lanes: usize,
    wall_s: f64,
) -> LayerValues {
    let sum = |f: &dyn Fn(&RunInfo) -> f64| runs.iter().map(f).sum::<f64>();
    let build_s = sum(&|r| secs(r.phases.built - r.phases.start));
    let generate_s = sum(&|r| secs(r.phases.generated - r.phases.built));
    let install_s = sum(&|r| secs(r.phases.installed - r.phases.generated));
    let run_s = sum(&|r| r.phases.run_s());
    let summary_s = sum(&|r| secs(r.phases.summarized - r.phases.ran));
    let call_s: f64 = calls.iter().map(|c| c.nanos as f64 * 1e-9).sum();
    let netsim_self_s = run_s - call_s;
    let events = sum(&|r| r.events as f64);
    let count = |f: &dyn Fn(&RunInfo) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let lanes_wall_s = wall_s * lanes as f64;
    let attributed = build_s
        + generate_s
        + install_s
        + netsim_self_s
        + call_s
        + summary_s
        + sweep.store_s
        + sweep.lookup_s;

    let mut v: LayerValues = vec![
        ("topology.build_s", build_s, "s"),
        ("workloads.generate_s", generate_s, "s"),
        (
            "workloads.flows",
            runs.iter().map(|r| r.flows).sum::<usize>() as f64,
            "count",
        ),
        ("scenario.install_s", install_s, "s"),
        ("netsim.run_s", run_s, "s"),
        ("netsim.self_s", netsim_self_s, "s"),
        ("netsim.events", events, "count"),
        (
            "netsim.ns_per_event",
            if events > 0.0 {
                netsim_self_s * 1e9 / events
            } else {
                0.0
            },
            "ns",
        ),
        ("netsim.event_pushes", count(&|r| r.pushes), "count"),
        (
            "netsim.peak_pending",
            runs.iter().map(|r| r.peak_pending).max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "netsim.overflow_migrations",
            count(&|r| r.overflow_migrations),
            "count",
        ),
        (
            "netsim.buckets_sorted",
            count(&|r| r.buckets_sorted),
            "count",
        ),
        ("netsim.packets_tx", count(&|r| r.packets_tx), "count"),
        ("netsim.tail_drops", count(&|r| r.tail_drops), "count"),
        ("netsim.random_drops", count(&|r| r.random_drops), "count"),
    ];
    v.extend(role_values(calls));
    let capacity_s = sweep.workers_s * lanes as f64;
    v.extend([
        ("scenario.summary_s", summary_s, "s"),
        ("scenario.cache.store_s", sweep.store_s, "s"),
        ("scenario.cache.lookup_s", sweep.lookup_s, "s"),
        ("scenario.cache.hits", sweep.hits as f64, "count"),
        ("scenario.sweep.cells", sweep.cell_s.len() as f64, "count"),
        ("scenario.sweep.cell_s_p50", median(&sweep.cell_s), "s"),
        (
            "scenario.sweep.cell_s_max",
            sweep.cell_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        (
            "scenario.sweep.parallel_efficiency",
            if capacity_s > 0.0 {
                sweep.cell_s.iter().sum::<f64>() / capacity_s
            } else {
                0.0
            },
            "ratio",
        ),
        ("trace.wall_s", lanes_wall_s, "s"),
        ("trace.unattributed_s", lanes_wall_s - attributed, "s"),
    ]);
    v
}

/// What a traced repetition yields besides its checks.
struct TracedRep {
    /// The traced counterpart of the untraced `run_s`.
    run_s: f64,
    values: LayerValues,
    calls: [CallTotals; 4],
}

/// A traced repetition. Every workload's runs go through the phased path as
/// cells of a sweep: `lanes` workers (two for the sweep, one otherwise) run the
/// scenarios with timed controllers and agents and store each summary in a fresh
/// result cache, so every phase, store and lookup is timed; then every run is
/// looked up again and must equal its fresh summary.
///
/// `fig5a_sweep` first runs its grid through the library's
/// `Sweep::run_replicated_cached` with timed controllers and agents, in the same
/// two passes as its untraced repetition. That pass gives the traced `run_s` and
/// the `scenario.sweep.*` cell timings, and must produce the phased pass's
/// outputs. The gate checks the outputs against the untraced repetitions.
fn traced_rep(
    workload: Workload,
    seed: u64,
    library: &ProtocolRegistry,
    dir: &Path,
    log: &SpanLog,
    rep: usize,
) -> Result<(TracedRep, Vec<Check>), String> {
    let sweep_pass = match workload {
        Workload::Fig5aSweep => {
            // Its own call totals, so that the phased pass's self times add up.
            let registry = traced_registry(library, &Arc::new(LayerTotals::default()));
            let mut clock = CellClock::new();
            let (sample, checks) = sweep_rep(seed, &registry, dir, Some(&mut clock))?;
            log.record(None, rep, "sweep", workload.name(), clock.start, clock.end);
            Some((sample.run_s, clock, checks))
        }
        _ => None,
    };

    let totals = Arc::new(LayerTotals::default());
    let registry = traced_registry(library, &totals);
    fresh_dir(dir)?;
    let started = Instant::now();
    let cells = &workload.scenarios(seed);
    let cache = ResultCache::open(dir).map_err(|e| format!("opening cache: {e}"))?;
    let ready = Instant::now();

    type CellOutcome = Result<(RunInfo, RunSummary, String, Instant, Instant), String>;
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, CellOutcome)>> = Mutex::new(Vec::new());
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(i) else { break };
        let outcome = run_phased(cell, &registry)
            .map_err(|e| format!("{}: {e}", cell.name))
            .and_then(|run| {
                let info = RunInfo::of(&run, cell);
                let stored = Instant::now();
                cache
                    .store(cell, &run.summary)
                    .map_err(|e| format!("cache store: {e}"))?;
                Ok((info, run.summary, run.fingerprint, stored, Instant::now()))
            });
        done.lock()
            .expect("traced results poisoned")
            .push((i, outcome));
    };
    std::thread::scope(|s| {
        for _ in 0..workload.lanes() {
            s.spawn(worker);
        }
    });
    let joined = Instant::now();
    let mut done = done.into_inner().expect("traced results poisoned");
    done.sort_by_key(|(i, _)| *i);

    let mut trace = SweepTrace::default();
    let mut infos = Vec::new();
    let mut fresh = Vec::new();
    let mut store_spans = Vec::new();
    for (_, outcome) in done {
        let (info, summary, fingerprint, s0, s1) = outcome?;
        trace.store_s += secs(s1 - s0);
        trace.cell_s.push(secs(s1 - info.phases.start));
        store_spans.push((s0, s1));
        infos.push(info);
        fresh.push((summary, fingerprint));
    }
    let mut lookups = Vec::new();
    let mut mismatched = Vec::new();
    for ((cell, info), (summary, _)) in cells.iter().zip(&infos).zip(&fresh) {
        let l0 = Instant::now();
        let hit = cache.lookup(cell);
        let l1 = Instant::now();
        trace.lookup_s += secs(l1 - l0);
        lookups.push((l0, l1));
        match hit {
            Some(cached) if cached.to_record() == summary.to_record() => trace.hits += 1,
            _ => mismatched.push(info.label.clone()),
        }
    }
    let finished = Instant::now();
    if !mismatched.is_empty() {
        return Err(format!(
            "cache lookups differ from fresh summaries: {mismatched:?}"
        ));
    }
    trace.workers_s = secs(joined - ready);

    let root = log.record(None, rep, "rep", workload.name(), started, finished);
    for (info, ((s0, s1), (l0, l1))) in infos.iter().zip(store_spans.iter().zip(&lookups)) {
        let cell = log.record_phases(Some(root), rep, &info.label, &info.phases, *s1);
        log.record(Some(cell), rep, "cache.store", &info.label, *s0, *s1);
        log.record(Some(root), rep, "cache.lookup", &info.label, *l0, *l1);
    }
    let checks: Vec<Check> = fresh.iter().map(|(s, f)| check_of(s, f)).collect();
    // The untraced sweep times the library's two sweep passes; the scenario
    // workloads time only the simulation calls.
    let run_s = match sweep_pass {
        Some((run_s, clock, sweep_checks)) => {
            if sweep_checks != checks {
                return Err(format!(
                    "the sweep pass's outputs differ from the phased pass's; \
                     observed {sweep_checks:?}"
                ));
            }
            trace.cell_s = clock.cell_s();
            trace.workers_s = secs(clock.end - clock.start);
            if trace.cell_s.len() != cells.len() {
                return Err(format!(
                    "the sweep streamed {} records for {} runs",
                    trace.cell_s.len(),
                    cells.len()
                ));
            }
            run_s
        }
        None => infos.iter().map(|r| r.phases.run_s()).sum(),
    };
    let calls = totals.snapshot();
    let values = layer_values(
        &infos,
        &calls,
        &trace,
        workload.lanes(),
        secs(finished - started),
    );
    Ok((
        TracedRep {
            run_s,
            values,
            calls,
        },
        checks,
    ))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panicked: {text}")
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_message(p)))
}

/// Everything one benchmark invocation needs.
struct Bench {
    workload: Workload,
    seed: u64,
    scenarios: Vec<Scenario>,
    library: ProtocolRegistry,
    cache_dir: PathBuf,
    gate: Gate,
}

impl Bench {
    fn runs(&self) -> usize {
        self.scenarios.len()
    }

    /// Pass one repetition's outcome through the gate; its payload if it passed.
    fn gated<T>(&mut self, what: &str, outcome: Result<(T, Vec<Check>), String>) -> Option<T> {
        let runs = self.runs();
        let (payload, checks) = match outcome {
            Ok((payload, checks)) => (Some(payload), Ok(checks)),
            Err(e) => (None, Err(e)),
        };
        self.gate
            .account(what, runs, checks)
            .then_some(payload)
            .flatten()
    }

    fn untraced(&mut self) -> Option<Sample> {
        let (workload, seed) = (self.workload, self.seed);
        let outcome = guarded(|| match workload {
            Workload::Fig5aSweep => sweep_rep(seed, &self.library, &self.cache_dir, None),
            _ => scenario_rep(&self.scenarios, &self.library),
        });
        self.gated("untraced repetition", outcome)
    }

    /// Seconds to set the workload up once, without running it.
    fn setup_only(&self) -> Result<f64, String> {
        match self.workload {
            Workload::Fig5aSweep => sweep_setup(self.seed, &self.cache_dir).map(|(_, _, s)| s),
            _ => self.scenarios.iter().try_fold(0.0, |total, s| {
                let prepared = prepare(s, &self.library).map_err(|e| e.to_string())?;
                Ok(total + prepared.setup_s())
            }),
        }
    }

    /// One untraced repetition of the workload's scenarios on the two-shard
    /// partitioned engine. It passes the same gate, so the partitioned engine's
    /// fingerprints must equal the sequential engine's at every seed.
    fn two_shard(&mut self) -> Option<Sample> {
        let sharded: Vec<Scenario> = self
            .scenarios
            .iter()
            .map(|s| s.clone().engine_threads(SHARDS_2))
            .collect();
        let outcome = guarded(|| scenario_rep(&sharded, &self.library));
        self.gated("two-shard repetition", outcome)
    }

    fn traced(&mut self, log: &SpanLog, rep: usize) -> Option<TracedRep> {
        let (workload, seed) = (self.workload, self.seed);
        let outcome =
            guarded(|| traced_rep(workload, seed, &self.library, &self.cache_dir, log, rep));
        self.gated("traced repetition", outcome)
    }
}

/// Run `workload` at `seed` for about `seconds`, traced or not.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let epoch = Instant::now();
    let log = SpanLog::new(epoch);
    let mut bench = Bench {
        workload,
        seed,
        scenarios: workload.scenarios(seed),
        library: default_registry(),
        cache_dir: Path::new(OUT_DIR).join(format!("cache-{}", std::process::id())),
        gate: Gate::new(workload, seed),
    };
    let budget = Duration::from_secs_f64(seconds);
    let (metrics, detail) = if traced {
        traced_metrics(&mut bench, &log, epoch, budget)
    } else {
        (untraced_metrics(&mut bench, epoch, budget), Vec::new())
    };
    if let Err(e) = fresh_dir(&bench.cache_dir) {
        bench.gate.errors.push(e);
    }
    let gate = bench.gate;
    Report {
        correct: gate.failed == 0 && gate.errors.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        detail,
        errors: gate.errors,
        spans: log,
    }
}

fn untraced_metrics(bench: &mut Bench, epoch: Instant, budget: Duration) -> Vec<Metric> {
    // Scale run and CPU time to the default seed's input size, measured in packet
    // transmissions: other seeds generate more or less traffic (the fig5a sizes
    // are heavy-tailed), and the metric must compare like with like. The raw times
    // and the factor go to standard error.
    let reference = reference_packets_tx(bench.workload) as f64;
    let scale = |s: &Sample| reference / s.packets_tx.max(1) as f64;
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    let mut reps = 0;
    while reps < MIN_REPS || epoch.elapsed() < budget {
        let sample = bench.untraced();
        reps += 1;
        eprintln!(
            "perfbench: {} repetition {reps}: {sample:?}, scale {:?}",
            bench.workload.name(),
            sample.as_ref().map(scale)
        );
        let Some(sample) = sample else { continue };
        samples.push(sample);
        setups.push(sample.setup_s);
        for _ in 0..EXTRA_SETUPS {
            match guarded(|| bench.setup_only()) {
                Ok(s) => setups.push(s),
                Err(e) => bench.gate.fail(0, format!("set-up: {e}")),
            }
        }
    }
    let scaled = |f: fn(&Sample) -> f64| {
        let v: Vec<f64> = samples.iter().map(|s| f(s) * scale(s)).collect();
        median(&v)
    };
    let raw = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {} unscaled medians: run_s {} s, cpu_s {} s",
        bench.workload.name(),
        raw(|s| s.run_s),
        raw(|s| s.cpu_s)
    );
    vec![
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "run_s",
            value: scaled(|s| s.run_s),
            unit: "s",
        },
        Metric {
            name: "cpu_s",
            value: scaled(|s| s.cpu_s),
            unit: "s",
        },
    ]
}

/// The per-layer metrics, and the per-family call detail for the trace file.
fn traced_metrics(
    bench: &mut Bench,
    log: &SpanLog,
    epoch: Instant,
    budget: Duration,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut two_shard = Vec::new();
    let mut iteration = 0;
    while iteration == 0 || epoch.elapsed() < budget {
        // Alternate which side runs first so drift in host speed cancels out.
        for traced_side in [iteration % 2 == 1, iteration % 2 == 0] {
            if traced_side {
                traced.extend(bench.traced(log, iteration));
            } else {
                untraced.extend(bench.untraced());
            }
        }
        if bench.workload == Workload::DcLarge {
            two_shard.extend(bench.two_shard());
        }
        iteration += 1;
        eprintln!(
            "perfbench: {} traced iteration {iteration}",
            bench.workload.name()
        );
    }

    // Report the traced repetition with the median wall time whole, so that its
    // self times and `trace.unattributed_s` sum exactly to its `trace.wall_s`.
    let wall = |v: &LayerValues| {
        v.iter()
            .find(|(name, _, _)| *name == "trace.wall_s")
            .map_or(0.0, |&(_, value, _)| value)
    };
    traced.sort_by(|a, b| wall(&a.values).total_cmp(&wall(&b.values)));
    let Some(representative) = traced.get(traced.len().saturating_sub(1) / 2) else {
        return (Vec::new(), Vec::new());
    };
    let as_metrics = |v: &LayerValues| -> Vec<Metric> {
        v.iter()
            .map(|&(name, value, unit)| Metric { name, value, unit })
            .collect()
    };
    let mut metrics = as_metrics(&representative.values);
    let detail = as_metrics(&family_values(&representative.calls));
    let run_s = |v: &[Sample]| median(&v.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let untraced_run = run_s(&untraced);
    let traced_run = median(&traced.iter().map(|t| t.run_s).collect::<Vec<_>>());
    // The shard metrics compare the sequential and the two-shard engine on the same
    // flows, both untraced, in the same process; they read 0 on the workloads that
    // run no two-shard repetitions.
    let (speedup, cpu_per_wall) = if two_shard.is_empty() {
        (0.0, 0.0)
    } else {
        let per_wall: Vec<f64> = two_shard.iter().map(|s| s.cpu_s / s.run_s).collect();
        (untraced_run / run_s(&two_shard), median(&per_wall))
    };
    metrics.extend([
        Metric {
            name: "netsim.shard.speedup",
            value: speedup,
            unit: "ratio",
        },
        Metric {
            name: "netsim.shard.cpu_per_wall",
            value: cpu_per_wall,
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_s",
            value: traced_run - untraced_run,
            unit: "s",
        },
        Metric {
            name: "process.peak_rss_mb",
            value: sys::peak_rss_mb(),
            unit: "MB",
        },
    ]);
    (metrics, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names quoted in `BENCHMARK.json`'s metric lists.
    fn listed(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("section closed");
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_listed_ones() {
        let layers = layer_values(
            &[],
            &[CallTotals::default(); 4],
            &SweepTrace::default(),
            1,
            0.0,
        );
        let mut traced: Vec<String> = layers.iter().map(|(n, _, _)| n.to_string()).collect();
        // Appended by `traced_metrics`.
        traced.extend(
            [
                "netsim.shard.speedup",
                "netsim.shard.cpu_per_wall",
                "trace.overhead_s",
                "process.peak_rss_mb",
            ]
            .map(String::from),
        );
        let mut per_layer = listed("per_layer");
        traced.sort();
        per_layer.sort();
        assert_eq!(traced, per_layer);
        assert_eq!(listed("end_to_end"), ["setup_s", "run_s", "cpu_s"]);
    }

    #[test]
    fn cell_clock_times_each_cell_from_its_workers_previous_cell() {
        let start = Instant::now();
        let ms = |n| start + Duration::from_millis(n);
        let main = std::thread::current().id();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("thread ran");
        let mut clock = CellClock::new();
        clock.start = start;
        clock.lines = vec![(main, ms(2)), (other, ms(3)), (main, ms(7)), (other, ms(9))];
        let cells: Vec<u128> = clock
            .cell_s()
            .iter()
            .map(|s| (s * 1e3).round() as u128)
            .collect();
        assert_eq!(cells, [2, 3, 5, 6]);
        clock.lines.clear();
        write!(clock, "{{}}\n{{}}").expect("writes");
        writeln!(clock).expect("writes");
        assert_eq!(clock.lines.len(), 2);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
