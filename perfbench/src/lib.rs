//! `perfbench`: the repository benchmark. Four workloads drive the public
//! APIs of `tsn-builder`, `tsn-sim`, `tsn-switch` and `tsn-dse` in a
//! closed loop from one process; every pass is timed end to end, a
//! separate traced run splits the time by layer, and the simulated
//! statistics are checked to repeat exactly. See `README.md` in this
//! directory for the workloads, the metrics and how they relate.

#![forbid(unsafe_code)]

pub mod calib;
pub mod dse;
pub mod fig2;
pub mod micro;
pub mod plant;
pub mod record;
pub mod sim;
pub mod stats;
pub mod trace;

use record::{Host, Metric, Record};
use sim::SimSummary;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{layers_by_pass, PassLayers, Tracer};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "plant_100k",
    "plant_10k_reconfig",
    "fig2_mixed",
    "dse_batch",
];

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("events_per_s", "1/s", "higher"),
    m("turnaround_ms", "ms", "lower"),
    m("queries_per_s", "1/s", "higher"),
    m("answer_bram36", "blocks", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("ok_ratio", "ratio", "higher"),
];

/// Per-layer metrics, from the traced run. A layer a workload does not
/// exercise reports 0 with no samples.
pub const PER_LAYER: &[MetricDef] = &[
    m("builder.plan_ms", "ms", "lower"),
    m("template.new_ms", "ms", "lower"),
    m("template.route_hit_ratio", "ratio", "higher"),
    m("install.instantiate_ms", "ms", "lower"),
    m("reconfig.patch_ms", "ms", "lower"),
    m("reconfig.replay_ms", "ms", "lower"),
    m("run.ms", "ms", "lower"),
    m("run.ns_per_event", "ns", "lower"),
    m("run.events", "count", "lower"),
    m("run.frame_arrives", "count", "lower"),
    m("run.port_kicks", "count", "lower"),
    m("run.kicks_suppressed", "count", "higher"),
    m("run.queue_high_water", "count", "lower"),
    m("report.ms", "ms", "lower"),
    m("analyzer.note_ns", "ns", "lower"),
    m("analyzer.note_100k_vs_10k", "ratio", "lower"),
    m("event_queue.calendar_ns_per_op", "ns", "lower"),
    m("event_queue.heap_ns_per_op", "ns", "lower"),
    m("event_queue.heap_vs_calendar", "ratio", "higher"),
    m("switch.ingress_filter_ns", "ns", "lower"),
    m("switch.lookup_ns", "ns", "lower"),
    m("switch.gate_ctrl_ns", "ns", "lower"),
    m("switch.egress_ns", "ns", "lower"),
    m("switch.core_ns", "ns", "lower"),
    m("switch.received", "count", "lower"),
    m("switch.drops.lookup_miss", "count", "lower"),
    m("switch.drops.meter_red", "count", "lower"),
    m("switch.drops.dangling_meter", "count", "lower"),
    m("switch.drops.gate_closed", "count", "lower"),
    m("switch.drops.queue_overflow", "count", "lower"),
    m("switch.drops.buffer_exhausted", "count", "lower"),
    m("switch.drops.unknown_queue", "count", "lower"),
    m("switch.drops.fcs_error", "count", "lower"),
    m("dse.parse_ms", "ms", "lower"),
    m("dse.plan_ms", "ms", "lower"),
    m("dse.search_ms", "ms", "lower"),
    m("dse.sim_us", "us", "lower"),
    m("dse.sims_per_query", "count", "lower"),
    m("dse.pruned_per_query", "count", "higher"),
    m("dse.answers_hit_ratio", "ratio", "higher"),
    m("dse.candidates_hit_ratio", "ratio", "higher"),
    m("dse.pool_efficiency", "ratio", "higher"),
    m("qos.fail_ratio", "ratio", "lower"),
    m("qos.ts_lost", "count", "lower"),
    m("qos.ts_late", "count", "lower"),
    m("sim.ts_latency_min_us", "us", "lower"),
    m("sim.ts_latency_mean_us", "us", "lower"),
    m("sim.ts_latency_max_us", "us", "lower"),
    m("sim.ts_jitter_us", "us", "lower"),
    m("layers.coverage", "ratio", "higher"),
    m("layers.other_ms", "ms", "lower"),
    m("trace.overhead", "ratio", "lower"),
];

/// Layer spans whose self time is reported per pass: `(span, metric)`.
const PASS_LAYERS: [(&str, &str); 8] = [
    ("builder.plan", "builder.plan_ms"),
    ("template.new", "template.new_ms"),
    ("install.instantiate", "install.instantiate_ms"),
    ("run", "run.ms"),
    ("report", "report.ms"),
    ("dse.parse", "dse.parse_ms"),
    ("dse.plan", "dse.plan_ms"),
    ("dse.search", "dse.search_ms"),
];

/// Layer spans whose self time is reported per call: `(span, metric)`.
const CALL_LAYERS: [(&str, &str); 2] = [
    ("reconfig.patch", "reconfig.patch_ms"),
    ("reconfig.replay", "reconfig.replay_ms"),
];

/// What one pass measured. Times are host time; everything else is a
/// deterministic count.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Inputs to the last report or answer.
    pub wall: Duration,
    /// Inputs to the first runnable network (or, for the DSE batch,
    /// parsed queries and a fresh engine).
    pub setup: Duration,
    /// Host time inside `Network::run`.
    pub run: Duration,
    /// Simulated events those runs processed.
    pub events: u64,
    /// Per work item: a runnable input to its report.
    pub turnaround: Vec<Duration>,
    /// Work items answered: reports, deltas, points or queries.
    pub items: u64,
    /// Work items that ended in an error.
    pub failed: u64,
    /// Mean BRAM36 blocks of the configurations the pass ran or answered.
    pub bram36: f64,
    /// TS frames injected (for the DSE batch: queries).
    pub ok_base: u64,
    /// TS frames lost or late (for the DSE batch: `error` results).
    pub not_ok: u64,
    /// The simulated output, which must repeat exactly on every pass.
    pub identity: String,
    /// Per-layer samples the pass measured itself: simulated statistics
    /// and cache counts, reported as they are.
    pub layer: Vec<(&'static str, f64)>,
    /// Per-call host times measured outside spans, scaled like every
    /// other host time.
    pub layer_times: Vec<(&'static str, f64)>,
}

impl PassOut {
    /// Fills the simulated-statistics fields from the pass's reports.
    pub fn add_sims(&mut self, summaries: &[SimSummary]) {
        let sum = |f: fn(&SimSummary) -> u64| summaries.iter().map(f).sum::<u64>();
        let (injected, lost, late) = (
            sum(SimSummary::ts_injected),
            sum(|s| s.classes[0].lost),
            sum(|s| s.ts_late),
        );
        self.ok_base += injected;
        self.not_ok += lost + late;
        let l = &mut self.layer;
        l.push(("run.events", sum(|s| s.events) as f64));
        l.push(("run.frame_arrives", sum(|s| s.frame_arrives) as f64));
        l.push(("run.port_kicks", sum(|s| s.port_kicks) as f64));
        l.push(("run.kicks_suppressed", sum(|s| s.kicks_suppressed) as f64));
        let high_water = summaries.iter().map(|s| s.queue_high_water).max();
        l.push(("run.queue_high_water", high_water.unwrap_or(0) as f64));
        l.push(("switch.received", sum(|s| s.switch_received) as f64));
        for (i, name) in DROP_METRICS.iter().enumerate() {
            l.push((
                name,
                summaries.iter().map(|s| s.drops[i]).sum::<u64>() as f64,
            ));
        }
        if injected > 0 {
            l.push(("qos.fail_ratio", (lost + late) as f64 / injected as f64));
        }
        l.push(("qos.ts_lost", lost as f64));
        l.push(("qos.ts_late", late as f64));
        let delivered: Vec<&SimSummary> = summaries.iter().filter(|s| s.ts_delivered > 0).collect();
        if !delivered.is_empty() {
            let min = delivered.iter().map(|s| s.ts_min_ns).min().unwrap_or(0);
            let max = delivered.iter().map(|s| s.ts_max_ns).max().unwrap_or(0);
            let count: u64 = delivered.iter().map(|s| s.ts_delivered).sum();
            let total: f64 = delivered
                .iter()
                .map(|s| s.ts_mean_ns * s.ts_delivered as f64)
                .sum();
            l.push(("sim.ts_latency_min_us", min as f64 / 1e3));
            l.push(("sim.ts_latency_mean_us", total / count as f64 / 1e3));
            l.push(("sim.ts_latency_max_us", max as f64 / 1e3));
            l.push(("sim.ts_jitter_us", (max - min) as f64 / 1e3));
        }
        let (hits, misses) = (sum(|s| s.route_hits), sum(|s| s.route_misses));
        if hits + misses > 0 {
            l.push((
                "template.route_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            ));
        }
        self.identity = format!("{summaries:?}");
    }
}

const DROP_METRICS: [&str; 8] = [
    "switch.drops.lookup_miss",
    "switch.drops.meter_red",
    "switch.drops.dangling_meter",
    "switch.drops.gate_closed",
    "switch.drops.queue_overflow",
    "switch.drops.buffer_exhausted",
    "switch.drops.unknown_queue",
    "switch.drops.fcs_error",
];

/// One workload: a repeatable pass plus the layer microcases it owns.
pub trait Workload {
    /// Runs one full pass. `check` asks for the expensive output checks
    /// (the untimed warm-up pass runs them). The pass opens the
    /// [`trace::PASS`] span around exactly the interval it reports as
    /// `wall`.
    ///
    /// # Errors
    ///
    /// A failed output check or operation, described.
    fn pass(&mut self, tracer: &Tracer, check: bool) -> Result<PassOut, String>;

    /// Layer microcases fed from this workload's inputs, as
    /// `(metric, samples)`. The default has none.
    fn microcases(&mut self) -> Vec<(&'static str, Vec<f64>)> {
        Vec::new()
    }

    /// Worker threads the pass uses.
    fn workers(&self) -> usize {
        1
    }
}

/// Benchmark arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Drives the generated inputs of `fig2_mixed` and `dse_batch`.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Tiny sizes, for the self-tests.
    pub smoke: bool,
}

/// Builds the named workload.
///
/// # Errors
///
/// An unknown name, or inputs that fail to generate.
pub fn make_workload(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "plant_100k" => Box::new(plant::Plant::new(if args.smoke { 2_000 } else { 100_000 })),
        "plant_10k_reconfig" => Box::new(plant::Reconfig::new(if args.smoke {
            1_000
        } else {
            10_000
        })?),
        "fig2_mixed" => Box::new(fig2::Fig2::new(args.seed, args.smoke)),
        "dse_batch" => Box::new(dse::Batch::new(args.seed, args.smoke)),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    })
}

/// Timed passes always run at least this many times.
const MIN_PASSES: usize = 3;

/// Calibration time before and after the timed passes.
const CALIBRATION: Duration = Duration::from_millis(500);

/// Runs the benchmark and returns its record. Output-check failures are
/// recorded in the record (`correct: false`), not returned as errors.
///
/// # Errors
///
/// An unknown workload or inputs that cannot be generated.
pub fn run(args: &Args) -> Result<Record, String> {
    let mut workload = make_workload(args)?;
    let untraced = Tracer::new(false);
    let traced = Tracer::new(args.trace);
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Calibrated before the passes and after them, never between two:
    // the kernel would evict the workload's data and every pass would
    // start cold.
    let mut calib_ns = calib::sample_for(CALIBRATION);

    // Warm-up: fills caches, finishes lazy set-up and runs the expensive
    // output checks. Its figures are not used.
    let reference = match workload.pass(&untraced, true) {
        Ok(out) => Some(out.identity),
        Err(e) => {
            errors.push(format!("warm-up pass: {e}"));
            failed += 1;
            None
        }
    };

    let mut plain: Vec<PassOut> = Vec::new();
    let mut with_spans: Vec<PassOut> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    while reference.is_some() && errors.is_empty() {
        let enough = plain.len() >= MIN_PASSES && (!args.trace || with_spans.len() >= MIN_PASSES);
        if enough && start.elapsed() >= budget {
            break;
        }
        // The traced run alternates plain and traced passes, so the
        // overhead compares passes under the same conditions.
        let use_spans = args.trace && plain.len() > with_spans.len();
        let tracer = if use_spans { &traced } else { &untraced };
        let result = workload.pass(tracer, false);
        match result {
            Ok(mut out) => {
                attempted += out.items;
                failed += out.failed;
                // Compared, then dropped: holding every pass's output
                // would grow the peak RSS with the pass count.
                let identity = std::mem::take(&mut out.identity);
                if Some(&identity) != reference.as_ref() {
                    errors.push(format!(
                        "pass {} produced different simulated statistics than the warm-up pass",
                        plain.len() + with_spans.len() + 1
                    ));
                }
                if out.failed > 0 {
                    errors.push(format!("{} operations failed in a pass", out.failed));
                }
                if use_spans {
                    with_spans.push(out);
                } else {
                    plain.push(out);
                }
            }
            Err(e) => {
                errors.push(e);
                failed += 1;
                attempted += 1;
            }
        }
    }
    attempted = attempted.max(1);
    calib_ns.extend(calib::sample_for(CALIBRATION));
    // One host-speed factor for the run: the median of the calibration
    // runs before and after the passes.
    let speed = calib::REFERENCE_NS / stats::median(&calib_ns).max(1.0);

    let end_to_end = end_to_end_metrics(&plain, speed);
    let mut layers = BTreeMap::new();
    if args.trace {
        let spans = traced.spans();
        let passes = layers_by_pass(&spans);
        layers = layer_metrics(&passes, &with_spans, &plain, workload.workers(), speed);
        for (name, samples) in workload.microcases() {
            layers.insert(
                name.to_owned(),
                Metric::from_samples(unit_of(name), &samples),
            );
        }
        for def in PER_LAYER {
            layers
                .entry(def.name.to_owned())
                .or_insert_with(|| Metric::from_samples(def.unit, &[]));
        }
        if let Some(cov) = layers.get("layers.coverage") {
            if cov.samples > 0 && cov.median < 0.9 {
                errors.push(format!(
                    "layer spans cover only {:.3} of the pass wall time (need >= 0.90)",
                    cov.median
                ));
            }
        }
        record::write_spans(&args.workload, &spans)?;
    }
    Ok(Record {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        host: Host::current(),
        correct: errors.is_empty(),
        attempted,
        failed,
        errors,
        end_to_end,
        layers,
    })
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(END_TO_END)
        .find(|d| d.name == name)
        .map_or("count", |d| d.unit)
}

/// Seconds of `d` on the reference host, given this host's speed factor
/// (see [`calib`]).
fn scaled(d: Duration, speed: f64) -> f64 {
    d.as_secs_f64() * speed
}

fn end_to_end_metrics(passes: &[PassOut], speed: f64) -> BTreeMap<String, Metric> {
    let per_pass =
        |f: &dyn Fn(&PassOut) -> Option<f64>| -> Vec<f64> { passes.iter().filter_map(f).collect() };
    let mut out = BTreeMap::new();
    let mut put = |name: &str, samples: Vec<f64>| {
        out.insert(
            name.to_owned(),
            Metric::from_samples(unit_of(name), &samples),
        );
    };
    put("wall_s", per_pass(&|p| Some(scaled(p.wall, speed))));
    put("setup_s", per_pass(&|p| Some(scaled(p.setup, speed))));
    put(
        "events_per_s",
        per_pass(&|p| {
            (p.events > 0 && !p.run.is_zero()).then(|| p.events as f64 / scaled(p.run, speed))
        }),
    );
    put(
        "turnaround_ms",
        passes
            .iter()
            .flat_map(|p| p.turnaround.iter().map(|d| scaled(*d, speed) * 1e3))
            .collect(),
    );
    put(
        "queries_per_s",
        per_pass(&|p| (!p.wall.is_zero()).then(|| p.items as f64 / scaled(p.wall, speed))),
    );
    put("answer_bram36", per_pass(&|p| Some(p.bram36)));
    put("peak_rss_mib", vec![record::peak_rss_mib()]);
    put(
        "ok_ratio",
        per_pass(&|p| {
            (p.ok_base > 0).then(|| (p.ok_base - p.not_ok.min(p.ok_base)) as f64 / p.ok_base as f64)
        }),
    );
    // Unscaled host time and the speed factor, for the record only.
    let raw: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    out.insert("host.wall_s".to_owned(), Metric::from_samples("s", &raw));
    out.insert(
        "host.speed".to_owned(),
        Metric::from_samples("ratio", &[speed]),
    );
    out
}

fn layer_metrics(
    passes: &[PassLayers],
    traced: &[PassOut],
    plain: &[PassOut],
    workers: usize,
    speed: f64,
) -> BTreeMap<String, Metric> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut add = |name: String, v: f64| samples.entry(name).or_default().push(v);
    for (p, out) in passes.iter().zip(traced) {
        let ms = |ns: f64| ns * speed / 1e6;
        for (span, metric) in PASS_LAYERS {
            if let Some(&ns) = p.self_ns.get(span) {
                add(metric.to_owned(), ms(ns as f64));
            }
        }
        for (span, metric) in CALL_LAYERS {
            if let (Some(&ns), Some(&calls)) = (p.self_ns.get(span), p.calls.get(span)) {
                add(metric.to_owned(), ms(ns as f64 / calls as f64));
            }
        }
        if let Some(&ns) = p.self_ns.get("run") {
            if out.events > 0 {
                add(
                    "run.ns_per_event".into(),
                    ns as f64 * speed / out.events as f64,
                );
            }
        }
        let dse_ns = p.self_ns.get("dse.plan").copied().unwrap_or(0)
            + p.self_ns.get("dse.search").copied().unwrap_or(0);
        if dse_ns > 0 && p.wall_ns > 0 {
            add(
                "dse.pool_efficiency".into(),
                dse_ns as f64 / (workers as f64 * p.wall_ns as f64),
            );
        }
        add("layers.coverage".into(), p.coverage);
        add(
            "layers.other_ms".into(),
            ms(p.wall_ns as f64 * (1.0 - p.coverage).max(0.0)),
        );
        for &(name, v) in &out.layer {
            add(name.to_owned(), v);
        }
        for &(name, v) in &out.layer_times {
            add(name.to_owned(), v * speed);
        }
    }
    let wall =
        |v: &[PassOut]| stats::median(&v.iter().map(|p| scaled(p.wall, speed)).collect::<Vec<_>>());
    let (traced_wall, plain_wall) = (wall(traced), wall(plain));
    if traced_wall > 0.0 && plain_wall > 0.0 {
        add("trace.overhead".into(), traced_wall / plain_wall);
    }
    samples
        .into_iter()
        .map(|(name, v)| {
            let metric = Metric::from_samples(unit_of(&name), &v);
            (name, metric)
        })
        .collect()
}
