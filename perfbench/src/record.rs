//! The record one benchmark run writes, and the strict reader that parses
//! it back.
//!
//! Every record carries the host fingerprint (CPU count, CPU model and
//! the compiler that built the benchmark) and, per metric, its unit,
//! sample count, median, quartiles and minimum. Records are written under
//! `out/` in this directory, read back with the strict JSON parser (no
//! duplicate keys, no unknown or missing fields) and only then printed.

use crate::stats::Summary;
use crate::trace::{spans_jsonl, Span};
use crate::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use tsn_experiments::json::{parse, Json};

/// Schema tag of the record format.
pub const SCHEMA: &str = "perfbench-record/1";

/// Where records and span dumps go.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The machine a record was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
}

impl Host {
    /// This machine.
    #[must_use]
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
        }
    }
}

/// One metric: unit plus the summary of its samples. A metric without
/// samples (a layer the workload does not exercise) reads 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unit.
    pub unit: String,
    /// Number of samples.
    pub samples: u64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Minimum.
    pub min: f64,
}

impl Metric {
    /// Summarizes `samples` (non-finite values are dropped).
    #[must_use]
    pub fn from_samples(unit: &str, samples: &[f64]) -> Self {
        let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        let s = Summary::of(&finite).unwrap_or(Summary {
            samples: 0,
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            min: 0.0,
        });
        Metric {
            unit: unit.to_owned(),
            samples: s.samples as u64,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            min: s.min,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", Json::Str(self.unit.clone())),
            ("samples", Json::Num(self.samples as f64)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
        ])
    }

    fn from_json(v: &Json, at: &str) -> Result<Self, String> {
        exact_keys(v, at, &["unit", "samples", "median", "q1", "q3", "min"])?;
        Ok(Metric {
            unit: string(v, at, "unit")?,
            samples: integer(v, at, "samples")?,
            median: number(v, at, "median")?,
            q1: number(v, at, "q1")?,
            q3: number(v, at, "q3")?,
            min: number(v, at, "min")?,
        })
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time asked for, seconds.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Whether the tiny smoke sizes were used.
    pub smoke: bool,
    /// The machine.
    pub host: Host,
    /// All output checks passed.
    pub correct: bool,
    /// Work items attempted.
    pub attempted: u64,
    /// Work items that failed.
    pub failed: u64,
    /// What the failed checks found.
    pub errors: Vec<String>,
    /// End-to-end metrics (from untraced passes).
    pub end_to_end: BTreeMap<String, Metric>,
    /// Per-layer metrics (traced run only; empty otherwise).
    pub layers: BTreeMap<String, Metric>,
}

impl Record {
    /// The record as a JSON tree.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let section = |m: &BTreeMap<String, Metric>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
        };
        Json::obj([
            ("schema", Json::Str(SCHEMA.to_owned())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
            (
                "host",
                Json::obj([
                    ("nproc", Json::Num(self.host.nproc as f64)),
                    ("cpu_model", Json::Str(self.host.cpu_model.clone())),
                    ("rustc", Json::Str(self.host.rustc.clone())),
                ]),
            ),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", section(&self.end_to_end)),
            ("layers", section(&self.layers)),
        ])
    }

    /// Parses a record strictly: the exact schema, every field typed,
    /// nothing missing and nothing extra.
    ///
    /// # Errors
    ///
    /// The first problem found, with its path.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let root = parse(text)?;
        exact_keys(
            &root,
            "record",
            &[
                "schema",
                "workload",
                "seed",
                "seconds",
                "trace",
                "smoke",
                "host",
                "correct",
                "attempted",
                "failed",
                "errors",
                "end_to_end",
                "layers",
            ],
        )?;
        if string(&root, "record", "schema")? != SCHEMA {
            return Err(format!("record.schema: expected {SCHEMA:?}"));
        }
        let host = field(&root, "record", "host")?;
        exact_keys(host, "record.host", &["nproc", "cpu_model", "rustc"])?;
        let errors = match field(&root, "record", "errors")? {
            Json::Arr(items) => items
                .iter()
                .map(|e| e.as_str().map(str::to_owned))
                .collect::<Option<Vec<_>>>()
                .ok_or("record.errors: every entry must be a string")?,
            _ => return Err("record.errors: must be an array".to_owned()),
        };
        let section = |key: &str| -> Result<BTreeMap<String, Metric>, String> {
            match field(&root, "record", key)? {
                Json::Obj(members) => members
                    .iter()
                    .map(|(name, v)| {
                        check_name(name)?;
                        Ok((
                            name.clone(),
                            Metric::from_json(v, &format!("record.{key}.{name}"))?,
                        ))
                    })
                    .collect(),
                _ => Err(format!("record.{key}: must be an object")),
            }
        };
        Ok(Record {
            workload: string(&root, "record", "workload")?,
            seed: integer(&root, "record", "seed")?,
            seconds: number(&root, "record", "seconds")?,
            trace: boolean(&root, "record", "trace")?,
            smoke: boolean(&root, "record", "smoke")?,
            host: Host {
                nproc: integer(host, "record.host", "nproc")?,
                cpu_model: string(host, "record.host", "cpu_model")?,
                rustc: string(host, "record.host", "rustc")?,
            },
            correct: boolean(&root, "record", "correct")?,
            attempted: integer(&root, "record", "attempted")?,
            failed: integer(&root, "record", "failed")?,
            errors,
            end_to_end: section("end_to_end")?,
            layers: section("layers")?,
        })
    }

    /// The metrics the result line reports: every end-to-end metric, or
    /// with tracing every per-layer one, in catalog order.
    ///
    /// # Errors
    ///
    /// A catalog metric missing from the record.
    pub fn reported(&self) -> Result<Vec<(&'static str, &Metric)>, String> {
        let (defs, section) = if self.trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        defs.iter()
            .map(|d| {
                section
                    .get(d.name)
                    .map(|m| (d.name, m))
                    .ok_or_else(|| format!("metric {} missing from the record", d.name))
            })
            .collect()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// reported metrics' medians with their units.
    ///
    /// # Errors
    ///
    /// As [`Record::reported`].
    pub fn result_line(&self) -> Result<String, String> {
        let metrics = self
            .reported()?
            .into_iter()
            .map(|(name, m)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(m.median)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let line = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]);
        Ok(compact(&line))
    }
}

/// Writes `record` under [`out_dir`], reads it back strictly and returns
/// the parsed copy, which must equal what was written.
///
/// # Errors
///
/// I/O errors, a parse failure, or a round trip that changed the record.
pub fn write_and_reread(record: &Record) -> Result<Record, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}.{}.json",
        record.workload,
        if record.trace { "trace" } else { "plain" }
    ));
    std::fs::write(&path, record.to_json().pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = Record::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if &parsed != record {
        return Err(format!(
            "{}: the record did not read back unchanged",
            path.display()
        ));
    }
    Ok(parsed)
}

/// Writes the traced run's spans as JSON lines under [`out_dir`].
///
/// # Errors
///
/// I/O errors.
pub fn write_spans(workload: &str, spans: &[Span]) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    std::fs::write(&path, spans_jsonl(spans)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set (`VmHWM`) of this process, MiB; 0 when unknown.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Whether `name` is a legal metric or workload name: `[A-Za-z0-9_.-]+`.
#[must_use]
pub fn is_legal_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn check_name(name: &str) -> Result<(), String> {
    if is_legal_name(name) {
        Ok(())
    } else {
        Err(format!("illegal metric name {name:?}"))
    }
}

/// Renders `v` on one line.
fn compact(v: &Json) -> String {
    match v {
        Json::Obj(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Json::Str(k.clone())), compact(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", inner.join(", "))
        }
        scalar => scalar.pretty().trim_end().to_owned(),
    }
}

fn field<'a>(v: &'a Json, at: &str, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{at}: missing field {key:?}"))
}

fn exact_keys(v: &Json, at: &str, keys: &[&str]) -> Result<(), String> {
    if !matches!(v, Json::Obj(_)) {
        return Err(format!("{at}: must be an object"));
    }
    let found = v.keys();
    if let Some(extra) = found.iter().find(|k| !keys.contains(k)) {
        return Err(format!("{at}: unknown field {extra:?}"));
    }
    if let Some(missing) = keys.iter().find(|k| !found.contains(k)) {
        return Err(format!("{at}: missing field {missing:?}"));
    }
    Ok(())
}

fn string(v: &Json, at: &str, key: &str) -> Result<String, String> {
    field(v, at, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{at}.{key}: must be a string"))
}

fn number(v: &Json, at: &str, key: &str) -> Result<f64, String> {
    field(v, at, key)?
        .as_f64()
        .ok_or_else(|| format!("{at}.{key}: must be a number"))
}

fn integer(v: &Json, at: &str, key: &str) -> Result<u64, String> {
    field(v, at, key)?
        .as_u64()
        .ok_or_else(|| format!("{at}.{key}: must be a non-negative integer"))
}

fn boolean(v: &Json, at: &str, key: &str) -> Result<bool, String> {
    field(v, at, key)?
        .as_bool()
        .ok_or_else(|| format!("{at}.{key}: must be true or false"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "wall_s".to_owned(),
            Metric::from_samples("s", &[0.5, 0.25, 1.0 / 3.0]),
        );
        Record {
            workload: "plant_100k".into(),
            seed: 7,
            seconds: 1.5,
            trace: false,
            smoke: true,
            host: Host::current(),
            correct: true,
            attempted: 3,
            failed: 0,
            errors: vec!["a \"quoted\" note".into()],
            end_to_end,
            layers: BTreeMap::new(),
        }
    }

    #[test]
    fn records_round_trip_through_the_strict_reader() {
        let record = sample();
        let parsed = Record::from_text(&record.to_json().pretty()).expect("parses");
        assert_eq!(parsed, record);
    }

    #[test]
    fn the_reader_rejects_unknown_missing_and_duplicate_fields() {
        let text = sample().to_json().pretty();
        let extra = text.replacen("\"seed\": 7,", "\"seed\": 7, \"bogus\": 1,", 1);
        assert!(Record::from_text(&extra).unwrap_err().contains("bogus"));
        let missing = text.replacen("\"seed\": 7,", "", 1);
        assert!(Record::from_text(&missing).unwrap_err().contains("seed"));
        let dup = text.replacen("\"seed\": 7,", "\"seed\": 7, \"seed\": 8,", 1);
        assert!(Record::from_text(&dup).unwrap_err().contains("duplicate"));
        let bad_name = text.replacen("\"wall_s\"", "\"wall s\"", 1);
        assert!(Record::from_text(&bad_name)
            .unwrap_err()
            .contains("illegal"));
    }

    #[test]
    fn names_are_legal() {
        assert!(is_legal_name("event_queue.heap_vs_calendar"));
        assert!(is_legal_name("plant_10k_reconfig"));
        assert!(!is_legal_name(""));
        assert!(!is_legal_name("a b"));
        assert!(!is_legal_name("x/y"));
    }
}
