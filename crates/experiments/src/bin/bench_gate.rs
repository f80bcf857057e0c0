//! `bench_gate` — CI's performance verdicts, read from the repository
//! benchmark's records.
//!
//! Run from the workspace root after one traced `perfbench` run of each
//! workload (`scripts/ci.sh` does both):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload plant_10k_reconfig --seed 1 --seconds 15 --trace 1
//! cargo run --release -p tsn-experiments --bin bench_gate
//! ```
//!
//! It reads `perfbench/out/<workload>.trace.json` for the four workloads
//! and prints one line per gate with the value and the threshold. It
//! fails closed, exiting 1 on a missing file or field, another schema,
//! an untraced or smoke record, a record whose output checks failed, or
//! any gate below its threshold. It takes no options.
//!
//! Most gates hold on any host: the record's own checks, peak RSS,
//! in-run ratios and a throughput floor far below any plausible host.
//! The rates in [`REFERENCES`] were measured on one machine, so they
//! apply only to a record whose host fingerprint equals
//! [`REFERENCE_HOST`]; elsewhere they print `skipped (host differs)`.

use std::process::ExitCode;
use tsn_types::json::{parse, Json};

/// Schema tag of the records the gate understands.
const SCHEMA: &str = "perfbench-record/1";

/// The benchmark's workloads, one traced record each.
const WORKLOADS: [&str; 4] = [
    "plant_100k",
    "plant_10k_reconfig",
    "fig2_mixed",
    "dse_batch",
];

/// Where `perfbench` writes its records, relative to the workspace root.
const OUT_DIR: &str = "perfbench/out";

/// The machine the [`REFERENCES`] were measured on, as a record's
/// `host` object names it.
struct Fingerprint {
    nproc: u64,
    cpu_model: &'static str,
    rustc: &'static str,
}

const REFERENCE_HOST: Fingerprint = Fingerprint {
    nproc: 2,
    cpu_model: "Intel(R) Xeon(R) Processor",
    rustc: "rustc 1.95.0 (59807616e 2026-04-14)",
};

/// `(workload, end-to-end metric, reference)`: the lower quartile of the
/// medians of eleven full-budget traced runs (`--seed 1 --seconds 15
/// --trace 1`) on [`REFERENCE_HOST`]. A record's median must reach
/// [`REFERENCE_SHARE`] of its reference.
const REFERENCES: &[(&str, &str, f64)] = &[
    ("plant_10k_reconfig", "events_per_s", 5_826_000.0),
    ("dse_batch", "queries_per_s", 1_074.0),
];

/// Share of a reference a record must reach.
const REFERENCE_SHARE: f64 = 0.95;

/// Simulated events per second `plant_10k_reconfig` must reach on any host.
const EVENTS_PER_S_FLOOR: f64 = 300_000.0;
/// Peak RSS ceiling of `plant_10k_reconfig`, MiB (inclusive).
const RSS_10K_MIB: f64 = 512.0;
/// Peak RSS ceiling of `plant_100k`, MiB (exclusive).
const RSS_100K_MIB: f64 = 1024.0;
/// Least speedup of a capacity patch over a from-scratch build.
const REBUILD_VS_PATCH_FLOOR: f64 = 2.0;
/// Least speedup of the calendar event queue over the `BinaryHeap`
/// baseline on the plant's slot-burst pattern, both timed in one run.
const HEAP_VS_CALENDAR_FLOOR: f64 = 1.5;
/// Most time `plant_100k` may spend generating the plant and building
/// its template, as a share of instantiating it. Both set-up layers
/// route each (talker, listener) pair once, so they scale with the
/// ~1.4k pairs while instantiation installs all 100k flows.
const SETUP_VS_INSTANTIATE_CEILING: f64 = 0.6;
/// Designed answer-cache hit ratio of `dse_batch`: 20 relabelled
/// repeats among 80 queries.
const ANSWERS_HIT_RATIO: f64 = 0.25;
/// Allowed distance from [`ANSWERS_HIT_RATIO`].
const ANSWERS_HIT_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Skipped,
}

/// One gate's outcome, printed as one line.
#[derive(Debug)]
struct Gate {
    name: String,
    value: String,
    threshold: String,
    verdict: Verdict,
}

impl Gate {
    fn new(name: &str, value: String, threshold: String, pass: bool) -> Self {
        Gate {
            name: name.to_owned(),
            value,
            threshold,
            verdict: if pass { Verdict::Pass } else { Verdict::Fail },
        }
    }
}

/// The summary statistics of one metric.
struct Metric {
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
}

fn member<'a>(v: &'a Json, at: &str, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {at}{key}"))
}

fn number(v: &Json, at: &str, key: &str) -> Result<f64, String> {
    member(v, at, key)?
        .as_f64()
        .ok_or_else(|| format!("field {at}{key} must be a number"))
}

fn boolean(v: &Json, key: &str) -> Result<bool, String> {
    member(v, "", key)?
        .as_bool()
        .ok_or_else(|| format!("field {key} must be a boolean"))
}

fn string<'a>(v: &'a Json, at: &str, key: &str) -> Result<&'a str, String> {
    member(v, at, key)?
        .as_str()
        .ok_or_else(|| format!("field {at}{key} must be a string"))
}

/// `record[section][name]`, which must hold at least one sample.
fn metric(record: &Json, section: &str, name: &str) -> Result<Metric, String> {
    let at = format!("{section}.{name}.");
    let m = member(member(record, "", section)?, &format!("{section}."), name)?;
    if number(m, &at, "samples")? < 1.0 {
        return Err(format!("metric {section}.{name} has no samples"));
    }
    Ok(Metric {
        median: number(m, &at, "median")?,
        q1: number(m, &at, "q1")?,
        q3: number(m, &at, "q3")?,
        min: number(m, &at, "min")?,
    })
}

/// Every gate of `workload` on its record `text`.
///
/// # Errors
///
/// Unparsable JSON, a missing or mistyped field, a metric without
/// samples, or a record of another workload.
fn gates(workload: &str, text: &str) -> Result<Vec<Gate>, String> {
    let record = parse(text)?;
    let named = string(&record, "", "workload")?;
    if named != workload {
        return Err(format!("record is for workload {named:?}"));
    }
    let schema = string(&record, "", "schema")?;
    let mut gates = vec![Gate::new(
        "schema",
        schema.to_owned(),
        format!("= {SCHEMA}"),
        schema == SCHEMA,
    )];
    for (key, want) in [("trace", true), ("smoke", false), ("correct", true)] {
        let value = boolean(&record, key)?;
        gates.push(Gate::new(
            key,
            value.to_string(),
            format!("= {want}"),
            value == want,
        ));
    }
    let failed = number(&record, "", "failed")?;
    gates.push(Gate::new(
        "failed",
        format!("{failed}"),
        "= 0".to_owned(),
        failed == 0.0,
    ));

    match workload {
        "plant_100k" => {
            let rss = metric(&record, "end_to_end", "peak_rss_mib")?.median;
            gates.push(Gate::new(
                "peak_rss_mib",
                format!("{rss:.1}"),
                format!("< {RSS_100K_MIB}"),
                rss < RSS_100K_MIB,
            ));
            let setup = metric(&record, "layers", "builder.plan_ms")?.median
                + metric(&record, "layers", "template.new_ms")?.median;
            let ratio = setup / metric(&record, "layers", "install.instantiate_ms")?.median;
            gates.push(Gate::new(
                "setup_vs_instantiate",
                format!("{ratio:.2}"),
                format!("<= {SETUP_VS_INSTANTIATE_CEILING}"),
                ratio <= SETUP_VS_INSTANTIATE_CEILING,
            ));
        }
        "plant_10k_reconfig" => {
            let eps = metric(&record, "end_to_end", "events_per_s")?.median;
            gates.push(Gate::new(
                "events_per_s",
                format!("{eps:.0}"),
                format!(">= {EVENTS_PER_S_FLOOR}"),
                eps >= EVENTS_PER_S_FLOOR,
            ));
            let rss = metric(&record, "end_to_end", "peak_rss_mib")?.median;
            gates.push(Gate::new(
                "peak_rss_mib",
                format!("{rss:.1}"),
                format!("<= {RSS_10K_MIB}"),
                rss <= RSS_10K_MIB,
            ));
            // `Network::build` is exactly `NetworkTemplate::new` +
            // `instantiate`, so this in-run ratio is the rebuild a
            // capacity patch saves.
            let rebuild = metric(&record, "layers", "template.new_ms")?.median
                + metric(&record, "layers", "install.instantiate_ms")?.median;
            let ratio = rebuild / metric(&record, "layers", "reconfig.patch_ms")?.median;
            gates.push(Gate::new(
                "rebuild_vs_patch",
                format!("{ratio:.2}"),
                format!(">= {REBUILD_VS_PATCH_FLOOR}"),
                ratio >= REBUILD_VS_PATCH_FLOOR,
            ));
            let ratio = metric(&record, "layers", "event_queue.heap_vs_calendar")?.median;
            gates.push(Gate::new(
                "heap_vs_calendar",
                format!("{ratio:.2}"),
                format!(">= {HEAP_VS_CALENDAR_FLOOR}"),
                ratio >= HEAP_VS_CALENDAR_FLOOR,
            ));
        }
        "dse_batch" => {
            let m = metric(&record, "layers", "dse.answers_hit_ratio")?;
            let on_target = |v: f64| (v - ANSWERS_HIT_RATIO).abs() <= ANSWERS_HIT_TOLERANCE;
            gates.push(Gate::new(
                "dse.answers_hit_ratio",
                format!(
                    "min {:.3} q1 {:.3} median {:.3} q3 {:.3}",
                    m.min, m.q1, m.median, m.q3
                ),
                format!("= {ANSWERS_HIT_RATIO} ± {ANSWERS_HIT_TOLERANCE}"),
                [m.min, m.q1, m.median, m.q3].into_iter().all(on_target),
            ));
        }
        _ => {}
    }

    let host = member(&record, "", "host")?;
    let same_host = number(host, "host.", "nproc")? == REFERENCE_HOST.nproc as f64
        && string(host, "host.", "cpu_model")? == REFERENCE_HOST.cpu_model
        && string(host, "host.", "rustc")? == REFERENCE_HOST.rustc;
    for &(_, name, reference) in REFERENCES.iter().filter(|r| r.0 == workload) {
        let value = metric(&record, "end_to_end", name)?.median;
        let floor = REFERENCE_SHARE * reference;
        let mut gate = Gate::new(
            &format!("{name} vs reference"),
            format!("{value:.0}"),
            format!(">= {floor:.0} = {REFERENCE_SHARE} x {reference}"),
            value >= floor,
        );
        if !same_host {
            gate.verdict = Verdict::Skipped;
        }
        gates.push(gate);
    }
    Ok(gates)
}

fn main() -> ExitCode {
    let mut passed = true;
    for workload in WORKLOADS {
        let path = format!("{OUT_DIR}/{workload}.trace.json");
        let outcome = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| gates(workload, &text));
        match outcome {
            Ok(gates) => {
                for g in gates {
                    let verdict = match g.verdict {
                        Verdict::Pass => "ok",
                        Verdict::Fail => "FAILED",
                        Verdict::Skipped => "skipped (host differs)",
                    };
                    println!(
                        "==> bench gate {workload:<18} {:<30} {} ({}): {verdict}",
                        g.name, g.value, g.threshold
                    );
                    passed &= g.verdict != Verdict::Fail;
                }
            }
            Err(e) => {
                println!("==> bench gate {workload:<18} FAILED: {path}: {e}");
                passed = false;
            }
        }
    }
    if passed {
        println!("bench gate passed.");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench gate failed: see the FAILED lines above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Metrics = Vec<(&'static str, f64)>;

    /// The gated `(end_to_end, layers)` metrics of `workload`'s passing
    /// record: every gate passes with a wide margin.
    fn fixture(workload: &str) -> (Metrics, Metrics) {
        let twice_the_reference = |metric: &str| {
            2.0 * REFERENCES
                .iter()
                .find(|r| r.0 == workload && r.1 == metric)
                .expect("a reference")
                .2
        };
        match workload {
            "plant_100k" => (
                vec![("peak_rss_mib", 77.5)],
                vec![
                    ("builder.plan_ms", 11.2),
                    ("template.new_ms", 8.4),
                    ("install.instantiate_ms", 81.3),
                ],
            ),
            "plant_10k_reconfig" => (
                vec![
                    ("events_per_s", twice_the_reference("events_per_s")),
                    ("peak_rss_mib", 20.7),
                ],
                vec![
                    ("template.new_ms", 5.46),
                    ("install.instantiate_ms", 7.61),
                    ("reconfig.patch_ms", 2.94),
                    ("event_queue.heap_vs_calendar", 4.5),
                ],
            ),
            "dse_batch" => (
                vec![("queries_per_s", twice_the_reference("queries_per_s"))],
                vec![("dse.answers_hit_ratio", 0.25)],
            ),
            _ => (vec![], vec![]),
        }
    }

    fn metric_json(name: &str, v: f64) -> String {
        format!(r#""{name}": {{"samples": 8, "median": {v}, "q1": {v}, "q3": {v}, "min": {v}}}"#)
    }

    /// A record of `workload` on the reference host that passes every gate.
    fn passing(workload: &str) -> String {
        let section = |metrics: &Metrics| {
            let members: Vec<String> = metrics.iter().map(|&(n, v)| metric_json(n, v)).collect();
            members.join(", ")
        };
        let (end_to_end, layers) = fixture(workload);
        format!(
            r#"{{"schema": "{SCHEMA}", "workload": "{workload}", "seed": 1, "trace": true,
               "smoke": false,
               "host": {{"nproc": {}, "cpu_model": "{}", "rustc": "{}"}},
               "correct": true, "attempted": 8, "failed": 0, "errors": [],
               "end_to_end": {{{}}}, "layers": {{{}}}}}"#,
            REFERENCE_HOST.nproc,
            REFERENCE_HOST.cpu_model,
            REFERENCE_HOST.rustc,
            section(&end_to_end),
            section(&layers)
        )
    }

    /// `workload`'s passing record with fixture metric `name` set to `to`
    /// (`None` removes it).
    fn set(workload: &str, name: &str, to: Option<f64>) -> String {
        let (end_to_end, layers) = fixture(workload);
        let from = end_to_end
            .iter()
            .chain(&layers)
            .find(|m| m.0 == name)
            .expect("a fixture metric")
            .1;
        let text = passing(workload);
        match to {
            Some(v) => text.replace(&metric_json(name, from), &metric_json(name, v)),
            None => text
                .replace(&format!(", {}", metric_json(name, from)), "")
                .replace(&metric_json(name, from), ""),
        }
    }

    fn verdict(gates: &[Gate], name: &str) -> Verdict {
        gates
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("no gate {name}: {gates:?}"))
            .verdict
    }

    /// The record must yield gates of which exactly `name` fails.
    fn fails_only(workload: &str, text: &str, name: &str) {
        let gates = gates(workload, text).expect("the record is complete");
        let failed: Vec<&str> = gates
            .iter()
            .filter(|g| g.verdict == Verdict::Fail)
            .map(|g| g.name.as_str())
            .collect();
        assert_eq!(failed, [name], "{gates:?}");
    }

    #[test]
    fn a_passing_record_passes_every_gate() {
        for workload in WORKLOADS {
            let gates = gates(workload, &passing(workload)).expect("complete record");
            assert!(
                gates.iter().all(|g| g.verdict == Verdict::Pass),
                "{workload}: {gates:?}"
            );
        }
        let gates = gates("plant_10k_reconfig", &passing("plant_10k_reconfig")).unwrap();
        for name in [
            "events_per_s",
            "peak_rss_mib",
            "rebuild_vs_patch",
            "heap_vs_calendar",
            "events_per_s vs reference",
        ] {
            assert_eq!(verdict(&gates, name), Verdict::Pass);
        }
        let plant = super::gates("plant_100k", &passing("plant_100k")).unwrap();
        assert_eq!(verdict(&plant, "setup_vs_instantiate"), Verdict::Pass);
    }

    #[test]
    fn a_record_whose_checks_failed_fails() {
        for workload in WORKLOADS {
            let text = passing(workload).replace(r#""correct": true"#, r#""correct": false"#);
            fails_only(workload, &text, "correct");
            let text = passing(workload).replace(r#""failed": 0"#, r#""failed": 3"#);
            fails_only(workload, &text, "failed");
        }
    }

    #[test]
    fn a_missing_metric_or_field_fails_closed() {
        let without = set("plant_10k_reconfig", "reconfig.patch_ms", None);
        let e = gates("plant_10k_reconfig", &without).expect_err("metric missing");
        assert!(e.contains("reconfig.patch_ms"), "{e}");

        // A metric without samples reads 0: it is missing, not a ratio of
        // infinity.
        let empty = set("plant_10k_reconfig", "reconfig.patch_ms", Some(0.0)).replace(
            r#""samples": 8, "median": 0,"#,
            r#""samples": 0, "median": 0,"#,
        );
        let e = gates("plant_10k_reconfig", &empty).expect_err("metric empty");
        assert!(e.contains("no samples"), "{e}");

        let e = gates(
            "plant_100k",
            &passing("plant_100k").replace(r#""failed": 0,"#, ""),
        )
        .expect_err("field missing");
        assert!(e.contains("failed"), "{e}");

        let e = gates("fig2_mixed", &passing("dse_batch")).expect_err("another workload");
        assert!(e.contains("dse_batch"), "{e}");
    }

    #[test]
    fn another_schema_fails() {
        let text = passing("fig2_mixed").replace(SCHEMA, "perfbench-record/2");
        fails_only("fig2_mixed", &text, "schema");
    }

    #[test]
    fn a_smoke_or_untraced_record_fails() {
        let text = passing("dse_batch").replace(r#""smoke": false"#, r#""smoke": true"#);
        fails_only("dse_batch", &text, "smoke");
        let text = passing("dse_batch").replace(r#""trace": true"#, r#""trace": false"#);
        fails_only("dse_batch", &text, "trace");
    }

    #[test]
    fn a_patch_less_than_twice_as_fast_as_a_rebuild_fails() {
        // (5.46 + 7.61) / 6.6 = 1.98.
        let text = set("plant_10k_reconfig", "reconfig.patch_ms", Some(6.6));
        fails_only("plant_10k_reconfig", &text, "rebuild_vs_patch");
    }

    #[test]
    fn a_calendar_queue_no_faster_than_the_heap_fails() {
        let text = set(
            "plant_10k_reconfig",
            "event_queue.heap_vs_calendar",
            Some(1.49),
        );
        fails_only("plant_10k_reconfig", &text, "heap_vs_calendar");
        let without = set("plant_10k_reconfig", "event_queue.heap_vs_calendar", None);
        let e = gates("plant_10k_reconfig", &without).expect_err("metric missing");
        assert!(e.contains("event_queue.heap_vs_calendar"), "{e}");
    }

    #[test]
    fn a_plant_whose_setup_outgrows_its_install_fails() {
        // (11.2 + 40.0) / 81.3 = 0.63.
        let text = set("plant_100k", "template.new_ms", Some(40.0));
        fails_only("plant_100k", &text, "setup_vs_instantiate");
        // Routing every flow again, as three passes once did:
        // (43 + 109) / 98 = 1.55.
        let text = set("plant_100k", "builder.plan_ms", Some(43.0));
        let text = text
            .replace(
                &metric_json("template.new_ms", 8.4),
                &metric_json("template.new_ms", 109.0),
            )
            .replace(
                &metric_json("install.instantiate_ms", 81.3),
                &metric_json("install.instantiate_ms", 98.0),
            );
        fails_only("plant_100k", &text, "setup_vs_instantiate");
        let without = set("plant_100k", "install.instantiate_ms", None);
        let e = gates("plant_100k", &without).expect_err("metric missing");
        assert!(e.contains("install.instantiate_ms"), "{e}");
    }

    #[test]
    fn a_plant_over_its_rss_ceiling_or_under_the_floor_fails() {
        let text = set("plant_100k", "peak_rss_mib", Some(1024.0));
        fails_only("plant_100k", &text, "peak_rss_mib");
        let text = set("plant_10k_reconfig", "peak_rss_mib", Some(512.5));
        fails_only("plant_10k_reconfig", &text, "peak_rss_mib");
        // Off the reference host, so only the floor judges the rate.
        let text = set("plant_10k_reconfig", "events_per_s", Some(299_999.0))
            .replace(REFERENCE_HOST.cpu_model, "Another CPU");
        fails_only("plant_10k_reconfig", &text, "events_per_s");
    }

    #[test]
    fn another_host_skips_only_the_reference_gates() {
        let elsewhere = |text: &str| text.replace(REFERENCE_HOST.cpu_model, "Another CPU");
        for (workload, metric, slow) in [
            ("plant_10k_reconfig", "events_per_s", 400_000.0),
            ("dse_batch", "queries_per_s", 400.0),
        ] {
            // Far below its reference: failed on the reference host,
            // skipped anywhere else.
            let text = set(workload, metric, Some(slow));
            fails_only(workload, &text, &format!("{metric} vs reference"));
            let there = gates(workload, &elsewhere(&text)).expect("complete record");
            assert_eq!(
                verdict(&there, &format!("{metric} vs reference")),
                Verdict::Skipped
            );
            assert!(
                there.iter().all(|g| g.verdict != Verdict::Fail),
                "{there:?}"
            );
        }
        // Every other gate still applies.
        let text = elsewhere(&set("plant_10k_reconfig", "reconfig.patch_ms", Some(6.6)))
            .replace(r#""correct": true"#, r#""correct": false"#);
        let gates = gates("plant_10k_reconfig", &text).expect("complete record");
        assert_eq!(verdict(&gates, "correct"), Verdict::Fail);
        assert_eq!(verdict(&gates, "rebuild_vs_patch"), Verdict::Fail);
        assert_eq!(verdict(&gates, "events_per_s"), Verdict::Pass);
        assert_eq!(
            verdict(&gates, "events_per_s vs reference"),
            Verdict::Skipped
        );
        let text = elsewhere(&set("dse_batch", "dse.answers_hit_ratio", Some(0.3)));
        fails_only("dse_batch", &text, "dse.answers_hit_ratio");
    }
}
