//! `dse_batch`: the design-space-search batch → answers path through
//! `run_batch`, on a fresh engine and a pool of two workers every pass.
//!
//! The seed draws the query parameters: about 60 unique queries over
//! ring, linear and star networks of 3–6 switches with 8–32 TS flows,
//! varied deadlines, a jitter target on every fourth query, and one
//! query in four repeated under a new label. The shape of the batch
//! (families, sizes, flow counts) is fixed; the seed picks deadlines,
//! jitter targets, the talker/listener draws, which queries repeat and
//! the order.

use crate::sim::SimSummary;
use crate::trace::{Tracer, PASS};
use crate::{PassOut, Workload};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use tsn_dse::{parse_batch, run_batch, DseEngine, EngineStats, QueryStatus};
use tsn_experiments::json::{parse, Json};
use tsn_sim::network::ConfigDelta;
use tsn_sim::run_sweep;
use tsn_types::SplitMix64;

/// Worker threads of the batch pool.
pub const WORKERS: usize = 2;

/// The batch request text for `seed`: `unique` distinct queries plus
/// `repeats` relabelled copies, shuffled.
#[must_use]
pub fn batch_text(seed: u64, unique: usize, repeats: usize) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xd5e0_0000_0000_0000);
    let mut queries: Vec<Json> = (0..unique)
        .map(|i| {
            let kind = ["ring", "linear", "star"][i % 3];
            let deadline_us = [1500, 2000, 3000, 4000][rng.gen_range(4) as usize];
            let jitter_us = (i % 4 == 3).then(|| [100, 130, 160][rng.gen_range(3) as usize]);
            let draw = rng.gen_range(1_000_000);
            query_json(
                &format!("q{i}"),
                kind,
                3 + (i / 3) % 4,
                2 + (i / 12) % 2,
                8 + 8 * ((i / 4) % 4) as u64,
                [64, 128, 256][(i / 2) % 3],
                draw,
                deadline_us,
                jitter_us,
            )
        })
        .collect();
    // Relabelled repeats of distinct originals.
    let mut pick: Vec<usize> = (0..unique).collect();
    for i in 0..repeats.min(unique) {
        let j = i + rng.gen_range((unique - i) as u64) as usize;
        pick.swap(i, j);
        let mut copy = queries[pick[i]].clone();
        if let Json::Obj(members) = &mut copy {
            members[0].1 = Json::Str(format!("q{}-again", pick[i]));
        }
        queries.push(copy);
    }
    for i in (1..queries.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        queries.swap(i, j);
    }
    Json::obj([("queries", Json::Arr(queries))]).pretty()
}

#[allow(clippy::too_many_arguments)]
fn query_json(
    label: &str,
    kind: &str,
    switches: usize,
    hosts: usize,
    ts_count: u64,
    frame_bytes: u64,
    seed: u64,
    deadline_us: u64,
    jitter_us: Option<u64>,
) -> Json {
    let num = |v: u64| Json::Num(v as f64);
    let mut members = vec![
        ("label".to_owned(), Json::Str(label.to_owned())),
        (
            "topology".to_owned(),
            Json::obj([
                ("kind", Json::Str(kind.to_owned())),
                ("switches", num(switches as u64)),
                ("hosts", num(hosts as u64)),
            ]),
        ),
        ("ts_count".to_owned(), num(ts_count)),
        ("frame_bytes".to_owned(), num(frame_bytes)),
        ("period_us".to_owned(), num(2000)),
        ("seed".to_owned(), num(seed)),
        ("deadline_us".to_owned(), num(deadline_us)),
        ("duration_us".to_owned(), num(4000)),
    ];
    if let Some(j) = jitter_us {
        members.push(("jitter_us".to_owned(), num(j)));
    }
    Json::Obj(members)
}

/// The `dse_batch` workload.
pub struct Batch {
    text: String,
    /// The first plain pass's response, which later plain passes must
    /// repeat byte for byte.
    first_response: Option<String>,
}

impl Batch {
    /// The workload for `seed`; `smoke` shrinks the batch to 8 queries.
    #[must_use]
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (unique, repeats) = if smoke { (6, 2) } else { (60, 20) };
        Batch {
            text: batch_text(seed, unique, repeats),
            first_response: None,
        }
    }
}

impl Workload for Batch {
    fn pass(&mut self, t: &Tracer, _check: bool) -> Result<PassOut, String> {
        let text = &self.text;
        let mut out = PassOut::default();
        let (queries, engine, stats, response) = t.span(PASS, || -> Result<_, String> {
            let start = Instant::now();
            let (queries, engine) = t.span("dse.parse", || {
                parse_batch(text).map(|q| (q, DseEngine::new()))
            })?;
            out.setup = start.elapsed();
            let (stats, response) = if t.enabled() {
                // The same pool `run_batch` runs, with the plan and the
                // search of every query in spans; the response is then
                // rendered from the warm engine.
                let answered = run_sweep(&queries, WORKERS, |_, q| {
                    t.span("dse.plan", || engine.plan(q));
                    Ok(t.span("dse.search", || engine.answer(q)))
                });
                if let Some(e) = answered.iter().find_map(|r| r.as_ref().err()) {
                    return Err(format!("query failed: {e}"));
                }
                let stats = engine.stats();
                let response = t.span("report", || run_batch(&engine, &queries, WORKERS).pretty());
                (stats, response)
            } else {
                let response = run_batch(&engine, &queries, WORKERS).pretty();
                (engine.stats(), response)
            };
            out.wall = start.elapsed();
            Ok((queries, engine, stats, response))
        })?;

        if !t.enabled() {
            match &self.first_response {
                None => self.first_response = Some(response.clone()),
                Some(first) if *first != response => {
                    return Err("the batch response changed between passes".into())
                }
                Some(_) => {}
            }
        }
        let root = parse(&response).map_err(|e| format!("response: {e}"))?;
        let Some(Json::Arr(results)) = root.get("results") else {
            return Err("response: no results array".into());
        };
        if results.len() != queries.len() {
            return Err("response: one result per query expected".into());
        }
        let status = |r: &Json| {
            r.get("status")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned()
        };
        let errors = results.iter().filter(|r| status(r) == "error").count() as u64;
        let mut bram = Vec::new();
        let mut seen = BTreeSet::new();
        let (mut sims, mut pruned) = (0.0, 0.0);
        for r in results.iter().filter(|r| status(r) == "feasible") {
            let num = |path: &[&str]| {
                path.iter()
                    .try_fold(r, |v, k| v.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            bram.push(num(&["cost", "bram36_blocks"]));
            let fingerprint = r.get("fingerprint").and_then(Json::as_str).unwrap_or("");
            if seen.insert(fingerprint.to_owned()) {
                sims += num(&["sims"]);
                pruned += num(&["pruned"]);
            }
        }
        let unique = stats.answers.misses.max(1) as f64;
        out.items = queries.len() as u64;
        out.failed = errors;
        out.ok_base = queries.len() as u64;
        out.not_ok = errors;
        out.bram36 = bram.iter().sum::<f64>() / bram.len().max(1) as f64;
        out.turnaround.push(Duration::from_secs_f64(
            out.wall.as_secs_f64() * WORKERS as f64 / queries.len().max(1) as f64,
        ));
        out.identity = Json::Arr(results.clone()).pretty();
        layer_counts(&mut out, &stats, sims / unique, pruned / unique);

        // Every feasible answer must meet its targets when simulated
        // again; these runs also give the DSE's simulator throughput.
        let mut confirmed = BTreeSet::new();
        for q in &queries {
            if !confirmed.insert(q.fingerprint()) {
                continue;
            }
            let QueryStatus::Feasible(outcome) = engine.answer(q).status else {
                continue;
            };
            let planned = engine.plan(q);
            let planned = planned
                .as_ref()
                .as_ref()
                .map_err(|e| format!("{}: plan: {e}", q.label))?;
            let t0 = Instant::now();
            let verdict = DseEngine::simulate(planned, &outcome.config);
            out.layer_times
                .push(("dse.sim_us", t0.elapsed().as_secs_f64() * 1e6));
            if !verdict.is_feasible() {
                return Err(format!(
                    "{}: the answer fails on re-simulation: {verdict:?}",
                    q.label
                ));
            }
            let network = planned
                .template
                .reconfigure(&ConfigDelta::resources(outcome.config.clone()))
                .map_err(|e| format!("{}: reconfigure: {e}", q.label))?;
            let t1 = Instant::now();
            let report = network.run();
            out.run += t1.elapsed();
            out.events += SimSummary::of(&report).events;
        }
        Ok(out)
    }

    fn workers(&self) -> usize {
        WORKERS
    }
}

fn layer_counts(out: &mut PassOut, stats: &EngineStats, sims: f64, pruned: f64) {
    out.layer.push(("dse.sims_per_query", sims));
    out.layer.push(("dse.pruned_per_query", pruned));
    out.layer
        .push(("dse.answers_hit_ratio", stats.answers.hit_rate()));
    out.layer
        .push(("dse.candidates_hit_ratio", stats.candidates.hit_rate()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_per_seed_and_parse() {
        assert_eq!(batch_text(3, 60, 20), batch_text(3, 60, 20));
        assert_ne!(batch_text(3, 60, 20), batch_text(4, 60, 20));
        let queries = parse_batch(&batch_text(3, 60, 20)).expect("parses");
        assert_eq!(queries.len(), 80);
        let unique: BTreeSet<u64> = queries.iter().map(tsn_dse::QosQuery::fingerprint).collect();
        assert_eq!(unique.len(), 60);
        let jitter: BTreeSet<u64> = queries
            .iter()
            .filter(|q| q.jitter.is_some())
            .map(tsn_dse::QosQuery::fingerprint)
            .collect();
        assert_eq!(
            jitter.len(),
            15,
            "every fourth unique query has a jitter target"
        );
    }
}
