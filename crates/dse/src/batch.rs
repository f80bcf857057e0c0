//! The JSON batch interface of the `dse` binary.
//!
//! A request is one strict-JSON object `{"queries": [...]}` (see
//! [`parse_batch`] for the per-query schema); the response is a
//! pretty-printed object with one result per query, in request order,
//! plus the engine's cache statistics. Every layer is deterministic —
//! the worker pool returns results in input order and each
//! [`tsn_sim::PlanCache`] computes every distinct key exactly once — so
//! the response bytes are identical for any worker count (pinned by
//! `tests/golden_batch.rs` against `scenarios/dse_batch_expected.json`).

use tsn_experiments::json::{parse, Json};
use tsn_sim::sweep::run_sweep;
use tsn_sim::CacheStats;
use tsn_types::SimDuration;

use crate::query::{QosQuery, TopologySpec};
use crate::search::{DseEngine, QueryResult, QueryStatus, KNOBS};

/// Context for parse errors: the query index (or "request" for the top
/// level) plus the complaint.
fn err(at: &str, message: impl AsRef<str>) -> String {
    format!("{at}: {}", message.as_ref())
}

fn require<'a>(obj: &'a Json, at: &str, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| err(at, format!("missing required field {key:?}")))
}

fn u64_field(obj: &Json, at: &str, key: &str) -> Result<u64, String> {
    require(obj, at, key)?
        .as_u64()
        .ok_or_else(|| err(at, format!("field {key:?} must be a non-negative integer")))
}

fn u32_field(obj: &Json, at: &str, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(obj, at, key)?)
        .map_err(|_| err(at, format!("field {key:?} does not fit in 32 bits")))
}

/// A whole-microsecond field as a duration; a value whose nanoseconds
/// overflow `u64` is an error.
fn micros_field(obj: &Json, at: &str, key: &str) -> Result<SimDuration, String> {
    let micros = u64_field(obj, at, key)?;
    micros
        .checked_mul(1_000)
        .map(SimDuration::from_nanos)
        .ok_or_else(|| err(at, format!("field {key:?} is {micros} µs, beyond 2^64 ns")))
}

// Admission limits on the request fields that size a query's network
// and its simulation. Each sits far above every shipped batch (at most
// 6 switches and 32 TS flows on a few-millisecond horizon) and the
// verify generator's 6-switch, 24-flow cases; a value above one is
// rejected at parse time, before anything it sizes is allocated.

/// TS flows per query.
pub const MAX_TS_COUNT: u64 = 4096;
/// Switches of a named preset or an inline topology.
pub const MAX_SWITCHES: u64 = 64;
/// Hosts of a named preset or an inline topology.
pub const MAX_HOSTS: u64 = 256;
/// Links of an inline topology.
pub const MAX_LINKS: u64 = 4096;
/// Simulated horizon, microseconds (one second).
pub const MAX_DURATION_US: u64 = 1_000_000;
/// Shortest TS period, microseconds: with [`MAX_TS_COUNT`] flows over
/// [`MAX_DURATION_US`] a query injects at most 4.1 × 10⁷ frames, where a
/// 1 µs period would ask for 4.1 × 10⁹.
pub const MIN_PERIOD_US: u64 = 100;
/// Longest TS period, microseconds (one second, the horizon cap: a
/// longer period injects each flow once, like this one does).
pub const MAX_PERIOD_US: u64 = 1_000_000;

/// `value`, or a named error when it is above `limit`.
fn at_most(value: u64, limit: u64, at: &str, path: &str) -> Result<u64, String> {
    if value > limit {
        return Err(err(
            at,
            format!("field {path:?} is {value}, above the limit of {limit}"),
        ));
    }
    Ok(value)
}

/// `value`, or a named error when it is below `limit`.
fn at_least(value: u64, limit: u64, at: &str, path: &str) -> Result<u64, String> {
    if value < limit {
        return Err(err(
            at,
            format!("field {path:?} is {value}, below the limit of {limit}"),
        ));
    }
    Ok(value)
}

fn str_field(obj: &Json, at: &str, key: &str) -> Result<String, String> {
    Ok(require(obj, at, key)?
        .as_str()
        .ok_or_else(|| err(at, format!("field {key:?} must be a string")))?
        .to_owned())
}

fn reject_unknown(obj: &Json, at: &str, allowed: &[&str]) -> Result<(), String> {
    for key in obj.keys() {
        if !allowed.contains(&key) {
            return Err(err(
                at,
                format!("unknown field {key:?} (allowed: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

fn parse_topology(value: &Json, at: &str) -> Result<TopologySpec, String> {
    if !matches!(value, Json::Obj(_)) {
        return Err(err(at, "field \"topology\" must be an object"));
    }
    if value.get("kind").is_some() {
        reject_unknown(value, at, &["kind", "switches", "hosts"])?;
        let switches = u64_field(value, at, "switches")?;
        let hosts = u64_field(value, at, "hosts")?;
        return Ok(TopologySpec::Named {
            kind: str_field(value, at, "kind")?,
            switches: at_most(switches, MAX_SWITCHES, at, "topology.switches")? as usize,
            hosts: at_most(hosts, MAX_HOSTS, at, "topology.hosts")? as usize,
        });
    }
    reject_unknown(value, at, &["switches", "hosts", "links"])?;
    let names = |key: &str, limit: u64| -> Result<Vec<String>, String> {
        let Some(Json::Arr(items)) = value.get(key) else {
            return Err(err(
                at,
                format!("inline topology field {key:?} must be an array"),
            ));
        };
        at_most(items.len() as u64, limit, at, &format!("topology.{key}"))?;
        items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| err(at, format!("{key:?} entries must be strings")))
            })
            .collect()
    };
    let Some(Json::Arr(raw_links)) = value.get("links") else {
        return Err(err(at, "inline topology field \"links\" must be an array"));
    };
    at_most(raw_links.len() as u64, MAX_LINKS, at, "topology.links")?;
    let mut links = Vec::with_capacity(raw_links.len());
    for link in raw_links {
        let Json::Arr(pair) = link else {
            return Err(err(at, "each link must be a two-element array"));
        };
        let [a, b] = pair.as_slice() else {
            return Err(err(at, "each link must name exactly two endpoints"));
        };
        let (Some(a), Some(b)) = (a.as_str(), b.as_str()) else {
            return Err(err(at, "link endpoints must be strings"));
        };
        links.push((a.to_owned(), b.to_owned()));
    }
    Ok(TopologySpec::Inline {
        switches: names("switches", MAX_SWITCHES)?,
        hosts: names("hosts", MAX_HOSTS)?,
        links,
    })
}

/// Field names a query object may carry.
const QUERY_FIELDS: &[&str] = &[
    "label",
    "topology",
    "ts_count",
    "frame_bytes",
    "period_us",
    "seed",
    "deadline_us",
    "jitter_us",
    "max_lost",
    "duration_us",
];

fn parse_query(value: &Json, index: usize) -> Result<QosQuery, String> {
    let at = format!("queries[{index}]");
    if !matches!(value, Json::Obj(_)) {
        return Err(err(&at, "each query must be an object"));
    }
    reject_unknown(value, &at, QUERY_FIELDS)?;
    let jitter = match value.get("jitter_us") {
        None => None,
        Some(_) => Some(micros_field(value, &at, "jitter_us")?),
    };
    let max_lost = match value.get("max_lost") {
        None => 0,
        Some(_) => u64_field(value, &at, "max_lost")?,
    };
    Ok(QosQuery {
        label: str_field(value, &at, "label")?,
        topology: parse_topology(require(value, &at, "topology")?, &at)?,
        ts_count: at_most(
            u64_field(value, &at, "ts_count")?,
            MAX_TS_COUNT,
            &at,
            "ts_count",
        )? as u32,
        frame_bytes: u32_field(value, &at, "frame_bytes")?,
        period: {
            let micros = u64_field(value, &at, "period_us")?;
            at_least(micros, MIN_PERIOD_US, &at, "period_us")?;
            SimDuration::from_micros(at_most(micros, MAX_PERIOD_US, &at, "period_us")?)
        },
        seed: u64_field(value, &at, "seed")?,
        deadline: micros_field(value, &at, "deadline_us")?,
        jitter,
        max_lost,
        duration: SimDuration::from_micros(at_most(
            u64_field(value, &at, "duration_us")?,
            MAX_DURATION_US,
            &at,
            "duration_us",
        )?),
    })
}

/// Parses a strict-JSON batch request into its queries.
///
/// Schema: `{"queries": [{...}, ...]}` where each query carries `label`
/// (string), `topology` (a named preset `{"kind", "switches", "hosts"}`
/// or an inline `{"switches": [names], "hosts": [names], "links":
/// [[a, b], ...]}`), `ts_count`, `frame_bytes`, `period_us`, `seed`,
/// `deadline_us`, `duration_us` (non-negative integers) and optional
/// `jitter_us` / `max_lost`. Durations are whole microseconds.
///
/// # Errors
///
/// Lexical errors from the strict parser (trailing garbage and duplicate
/// keys included) and structural errors naming the offending query index
/// and field — unknown fields are rejected, not ignored — including a
/// field outside its admission limits ([`MAX_TS_COUNT`], [`MAX_SWITCHES`],
/// [`MAX_HOSTS`], [`MAX_LINKS`], [`MAX_DURATION_US`], [`MIN_PERIOD_US`],
/// [`MAX_PERIOD_US`]) and a duration whose nanoseconds overflow `u64`.
pub fn parse_batch(text: &str) -> Result<Vec<QosQuery>, String> {
    let root = parse(text)?;
    if !matches!(root, Json::Obj(_)) {
        return Err(err("request", "the batch must be a JSON object"));
    }
    reject_unknown(&root, "request", &["queries"])?;
    let Some(Json::Arr(raw)) = root.get("queries") else {
        return Err(err("request", "field \"queries\" must be an array"));
    };
    raw.iter()
        .enumerate()
        .map(|(index, value)| parse_query(value, index))
        .collect()
}

fn cache_json(stats: CacheStats) -> Json {
    Json::obj([
        ("hits", Json::Num(stats.hits as f64)),
        ("misses", Json::Num(stats.misses as f64)),
        ("entries", Json::Num(stats.entries as f64)),
        // Two decimals: enough for dashboards, still byte-stable.
        (
            "hit_rate",
            Json::Num((stats.hit_rate() * 100.0).round() / 100.0),
        ),
    ])
}

fn result_json(result: &QueryResult) -> Json {
    let mut members = vec![
        ("label".to_owned(), Json::Str(result.label.clone())),
        (
            "fingerprint".to_owned(),
            Json::Str(format!("{:016x}", result.fingerprint)),
        ),
    ];
    match &result.status {
        QueryStatus::Feasible(outcome) => {
            members.push(("status".to_owned(), Json::Str("feasible".to_owned())));
            let config = Json::obj(KNOBS.iter().map(|knob| {
                (
                    knob.name(),
                    Json::Num(f64::from(knob.value(&outcome.config))),
                )
            }));
            members.push(("config".to_owned(), config));
            members.push((
                "cost".to_owned(),
                Json::obj([
                    (
                        "bram36_blocks",
                        Json::Num(outcome.cost.bram36_blocks as f64),
                    ),
                    (
                        "register_bits",
                        Json::Num(outcome.cost.register_bits as f64),
                    ),
                ]),
            ));
            members.push((
                "slot_us".to_owned(),
                Json::Num(outcome.slot.as_micros_f64()),
            ));
            members.push((
                "bound_worst_us".to_owned(),
                Json::Num(outcome.bound_worst_us),
            ));
            members.push((
                "observed_worst_us".to_owned(),
                Json::Num(outcome.observed_worst_us),
            ));
            members.push(("margin_us".to_owned(), Json::Num(outcome.margin_us())));
            members.push(("sims".to_owned(), Json::Num(outcome.sims as f64)));
            members.push(("pruned".to_owned(), Json::Num(outcome.pruned as f64)));
        }
        QueryStatus::Infeasible { stage, reason } => {
            members.push(("status".to_owned(), Json::Str("infeasible".to_owned())));
            members.push(("stage".to_owned(), Json::Str(stage.clone())));
            members.push(("reason".to_owned(), Json::Str(reason.clone())));
        }
    }
    Json::Obj(members)
}

/// Answers `queries` on `engine` with a pool of `workers` threads and
/// renders the response tree. Results come back in request order; the
/// cache statistics are the engine's totals after the batch.
#[must_use]
pub fn run_batch(engine: &DseEngine, queries: &[QosQuery], workers: usize) -> Json {
    let results = run_sweep(queries, workers, |_, query| Ok(engine.answer(query)));
    let feasible = results
        .iter()
        .filter(|r| {
            matches!(
                r,
                Ok(QueryResult {
                    status: QueryStatus::Feasible(_),
                    ..
                })
            )
        })
        .count();
    let stats = engine.stats();
    Json::obj([
        (
            "results",
            Json::Arr(
                results
                    .iter()
                    .map(|outcome| match outcome {
                        Ok(result) => result_json(result),
                        // `answer` is total; a panic would surface here.
                        Err(e) => Json::obj([
                            ("status", Json::Str("error".to_owned())),
                            ("reason", Json::Str(e.to_string())),
                        ]),
                    })
                    .collect(),
            ),
        ),
        ("feasible", Json::Num(feasible as f64)),
        ("infeasible", Json::Num((queries.len() - feasible) as f64)),
        (
            "cache",
            Json::obj([
                ("plans", cache_json(stats.plans)),
                ("candidates", cache_json(stats.candidates)),
                ("answers", cache_json(stats.answers)),
            ]),
        ),
    ])
}

/// End to end: parse a request, answer it on a fresh engine, pretty-print
/// the response. Byte-deterministic for any `workers` value.
///
/// # Errors
///
/// Parse errors from [`parse_batch`], verbatim.
pub fn run_batch_text(text: &str, workers: usize) -> Result<String, String> {
    let queries = parse_batch(text)?;
    let engine = DseEngine::new();
    Ok(run_batch(&engine, &queries, workers).pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "queries": [
        {
          "label": "a",
          "topology": {"kind": "ring", "switches": 3, "hosts": 2},
          "ts_count": 4,
          "frame_bytes": 64,
          "period_us": 2000,
          "seed": 3,
          "deadline_us": 4000,
          "duration_us": 5000
        }
      ]
    }"#;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let queries = parse_batch(MINIMAL).expect("parses");
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].label, "a");
        assert_eq!(queries[0].max_lost, 0, "max_lost defaults to lossless");
        assert_eq!(queries[0].jitter, None);
        assert_eq!(queries[0].period, SimDuration::from_millis(2));
    }

    #[test]
    fn unknown_and_missing_fields_are_named_errors() {
        let unknown = MINIMAL.replace("\"seed\": 3", "\"seed\": 3, \"bogus\": 1");
        let e = parse_batch(&unknown).expect_err("unknown field");
        assert!(e.contains("queries[0]") && e.contains("bogus"), "{e}");

        let missing = MINIMAL.replace("\"seed\": 3,", "");
        let e = parse_batch(&missing).expect_err("missing field");
        assert!(e.contains("\"seed\""), "{e}");

        let e = parse_batch("[1, 2]").expect_err("non-object root");
        assert!(e.contains("must be a JSON object"), "{e}");
    }

    #[test]
    fn inline_topologies_parse() {
        let inline = MINIMAL.replace(
            r#"{"kind": "ring", "switches": 3, "hosts": 2}"#,
            r#"{"switches": ["s0"], "hosts": ["h0", "h1"],
                "links": [["h0", "s0"], ["s0", "h1"]]}"#,
        );
        let queries = parse_batch(&inline).expect("parses");
        assert!(matches!(queries[0].topology, TopologySpec::Inline { .. }));
        let bad = inline.replace(r#"["s0", "h1"]"#, r#"["s0"]"#);
        let e = parse_batch(&bad).expect_err("one-endpoint link");
        assert!(e.contains("exactly two endpoints"), "{e}");
    }

    const NAMED: &str = r#"{"kind": "ring", "switches": 3, "hosts": 2}"#;

    /// An inline topology of `switches` switches, `hosts` hosts and
    /// `links` links (parsing does not resolve link endpoints).
    fn inline(switches: u64, hosts: u64, links: u64) -> String {
        let names = |prefix: &str, n: u64| {
            let names: Vec<String> = (0..n).map(|i| format!("\"{prefix}{i}\"")).collect();
            names.join(", ")
        };
        let links = vec![r#"["h0", "s0"]"#; links as usize].join(", ");
        format!(
            r#"{{"switches": [{}], "hosts": [{}], "links": [{links}]}}"#,
            names("s", switches),
            names("h", hosts)
        )
    }

    /// `MINIMAL` with `from` replaced by `to` must be refused, naming
    /// the query and the field path.
    fn assert_refused(from: &str, to: &str, path: &str) {
        let e = parse_batch(&MINIMAL.replace(from, to)).expect_err("above the limit");
        assert!(
            e.contains("queries[0]") && e.contains(&format!("{path:?}")) && e.contains("limit"),
            "{e}"
        );
    }

    #[test]
    fn ts_count_above_its_limit_is_refused() {
        let over = format!("\"ts_count\": {}", MAX_TS_COUNT + 1);
        assert_refused("\"ts_count\": 4", &over, "ts_count");
        // Far beyond 32 bits is the same named refusal.
        assert_refused("\"ts_count\": 4", "\"ts_count\": 200000000000", "ts_count");
    }

    #[test]
    fn duration_above_its_limit_is_refused() {
        let over = format!("\"duration_us\": {}", MAX_DURATION_US + 1);
        assert_refused("\"duration_us\": 5000", &over, "duration_us");
    }

    #[test]
    fn period_below_its_limit_is_refused() {
        let under = format!("\"period_us\": {}", MIN_PERIOD_US - 1);
        assert_refused("\"period_us\": 2000", &under, "period_us");
        assert_refused("\"period_us\": 2000", "\"period_us\": 0", "period_us");
    }

    #[test]
    fn period_above_its_limit_is_refused() {
        let over = format!("\"period_us\": {}", MAX_PERIOD_US + 1);
        assert_refused("\"period_us\": 2000", &over, "period_us");
        assert_refused(
            "\"period_us\": 2000",
            "\"period_us\": 9007199254740992",
            "period_us",
        );
    }

    #[test]
    fn durations_beyond_the_nanosecond_range_are_refused() {
        // The first microsecond count whose nanoseconds overflow a u64.
        // The JSON layer reads integers exactly only up to 2^53, so it
        // refuses this one before the conversion; either way the error
        // names the field.
        const OVER: u64 = u64::MAX / 1_000 + 1;
        for (from, to, field) in [
            (
                "\"deadline_us\": 4000",
                format!("\"deadline_us\": {OVER}"),
                "deadline_us",
            ),
            (
                "\"seed\": 3",
                format!("\"seed\": 3, \"jitter_us\": {OVER}"),
                "jitter_us",
            ),
        ] {
            let e = parse_batch(&MINIMAL.replace(from, &to)).expect_err("overflows");
            assert!(e.contains("queries[0]") && e.contains(field), "{e}");
        }
        // The largest integer the JSON layer reads exactly still fits.
        let fits = MINIMAL.replace("\"deadline_us\": 4000", "\"deadline_us\": 9007199254740992");
        let queries = parse_batch(&fits).expect("fits in nanoseconds");
        assert_eq!(queries[0].deadline.as_nanos(), 9_007_199_254_740_992_000);
    }

    #[test]
    fn an_out_of_range_frame_size_is_a_structured_answer() {
        // `TsFlowSpec::new` refuses the size while the query is planned;
        // the batch answers with that refusal instead of panicking.
        for bytes in [63, 1523] {
            let text = MINIMAL.replace("\"frame_bytes\": 64", &format!("\"frame_bytes\": {bytes}"));
            let response = parse(&run_batch_text(&text, 1).expect("parses")).expect("valid JSON");
            let Some(Json::Arr(results)) = response.get("results") else {
                panic!("no results: {response:?}");
            };
            let result = &results[0];
            assert_eq!(
                result.get("status").and_then(Json::as_str),
                Some("infeasible")
            );
            assert_eq!(result.get("stage").and_then(Json::as_str), Some("plan"));
            let reason = result
                .get("reason")
                .and_then(Json::as_str)
                .expect("a reason");
            assert!(
                reason.contains(&format!("invalid frame size {bytes}B")),
                "{reason}"
            );
        }
    }

    #[test]
    fn named_switches_above_the_limit_are_refused() {
        let over = NAMED.replace(
            "\"switches\": 3",
            &format!("\"switches\": {}", MAX_SWITCHES + 1),
        );
        assert_refused(NAMED, &over, "topology.switches");
    }

    #[test]
    fn named_hosts_above_the_limit_are_refused() {
        let over = NAMED.replace("\"hosts\": 2", &format!("\"hosts\": {}", MAX_HOSTS + 1));
        assert_refused(NAMED, &over, "topology.hosts");
    }

    #[test]
    fn inline_switches_above_the_limit_are_refused() {
        assert_refused(NAMED, &inline(MAX_SWITCHES + 1, 2, 2), "topology.switches");
    }

    #[test]
    fn inline_hosts_above_the_limit_are_refused() {
        assert_refused(NAMED, &inline(1, MAX_HOSTS + 1, 2), "topology.hosts");
    }

    #[test]
    fn inline_links_above_the_limit_are_refused() {
        assert_refused(NAMED, &inline(1, 2, MAX_LINKS + 1), "topology.links");
    }

    #[test]
    fn every_limit_admits_its_boundary_value() {
        let at_limit = MINIMAL
            .replace("\"ts_count\": 4", &format!("\"ts_count\": {MAX_TS_COUNT}"))
            .replace(
                "\"duration_us\": 5000",
                &format!("\"duration_us\": {MAX_DURATION_US}"),
            );
        for period in [MIN_PERIOD_US, MAX_PERIOD_US] {
            let text = MINIMAL.replace("\"period_us\": 2000", &format!("\"period_us\": {period}"));
            let queries = parse_batch(&text).expect("a period at its limit parses");
            assert_eq!(queries[0].period, SimDuration::from_micros(period));
        }
        let named = at_limit.replace(
            NAMED,
            &format!(r#"{{"kind": "ring", "switches": {MAX_SWITCHES}, "hosts": {MAX_HOSTS}}}"#),
        );
        let queries = parse_batch(&named).expect("named preset at every limit parses");
        assert_eq!(queries[0].ts_count as u64, MAX_TS_COUNT);
        assert_eq!(
            queries[0].duration,
            SimDuration::from_micros(MAX_DURATION_US)
        );
        assert_eq!(
            queries[0].topology,
            TopologySpec::Named {
                kind: "ring".to_owned(),
                switches: MAX_SWITCHES as usize,
                hosts: MAX_HOSTS as usize,
            }
        );
        let inline = at_limit.replace(NAMED, &inline(MAX_SWITCHES, MAX_HOSTS, MAX_LINKS));
        let queries = parse_batch(&inline).expect("inline topology at every limit parses");
        let TopologySpec::Inline {
            switches,
            hosts,
            links,
        } = &queries[0].topology
        else {
            panic!("inline topology parsed as a preset");
        };
        assert_eq!(
            (switches.len(), hosts.len(), links.len()),
            (
                MAX_SWITCHES as usize,
                MAX_HOSTS as usize,
                MAX_LINKS as usize
            )
        );
    }

    #[test]
    fn batch_responses_are_worker_count_invariant() {
        let one = run_batch_text(MINIMAL, 1).expect("runs");
        let four = run_batch_text(MINIMAL, 4).expect("runs");
        assert_eq!(one, four);
        assert!(one.contains("\"status\": \"feasible\""), "{one}");
    }
}
