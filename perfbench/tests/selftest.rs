//! The benchmark's own tests: deterministic inputs per seed, legal and
//! consistent names, and a smoke run of every workload at tiny sizes.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use perfbench::dse::batch_text;
use perfbench::record::{is_legal_name, Record};
use perfbench::{run, Args, END_TO_END, PER_LAYER, WORKLOADS};
use tsn_experiments::json::{parse, Json};

fn smoke(workload: &str, trace: bool) -> Record {
    let record = run(&Args {
        workload: workload.to_owned(),
        seed: 5,
        seconds: 0.0,
        trace,
        smoke: true,
    })
    .expect("the workload runs");
    assert!(record.correct, "{workload}: {:?}", record.errors);
    record
}

#[test]
fn generated_inputs_are_deterministic_per_seed() {
    assert_eq!(batch_text(11, 60, 20), batch_text(11, 60, 20));
    assert_ne!(batch_text(11, 60, 20), batch_text(12, 60, 20));
    // The fig2 background phase is drawn from the seed: two runs of one
    // seed simulate the same thing, another seed moves the background.
    let identity = |seed: u64| {
        let mut w = perfbench::fig2::Fig2::new(seed, true);
        let tracer = perfbench::trace::Tracer::new(false);
        perfbench::Workload::pass(&mut w, &tracer, false)
            .expect("fig2 smoke pass")
            .identity
    };
    assert_eq!(identity(3), identity(3));
    assert_ne!(identity(3), identity(4));
}

#[test]
fn names_are_legal_and_match_benchmark_json() {
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|d| &d.name))
        .chain(PER_LAYER.iter().map(|d| &d.name))
    {
        assert!(is_legal_name(name), "{name:?}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = parse(&text).expect("BENCHMARK.json is strict JSON");
    let names = |key: &str| -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = root.get(key) else {
            panic!("BENCHMARK.json: {key} must be an array");
        };
        items
            .iter()
            .map(|item| {
                let field = |f: &str| item.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let catalog = |defs: &[perfbench::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), catalog(END_TO_END));
    assert_eq!(names("per_layer"), catalog(PER_LAYER));
    let Some(Json::Arr(workloads)) = root.get("workloads") else {
        panic!("BENCHMARK.json: workloads must be an array");
    };
    let listed: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn every_workload_runs_at_smoke_size() {
    for workload in WORKLOADS {
        let record = smoke(workload, false);
        assert!(record.attempted >= 1);
        assert_eq!(record.failed, 0);
        let line = record
            .result_line()
            .expect("every end-to-end metric is present");
        let parsed = parse(&line).expect("the result line is strict JSON");
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("{workload}: no metrics");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} reads {value}"
            );
        }
    }
}

#[test]
fn traced_smoke_runs_cover_the_pass_with_layer_spans() {
    for workload in ["plant_10k_reconfig", "dse_batch"] {
        let record = smoke(workload, true);
        let names: Vec<&str> = record.layers.keys().map(String::as_str).collect();
        let mut catalog: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        catalog.sort_unstable();
        assert_eq!(
            names, catalog,
            "{workload}: the traced run reports exactly the catalog"
        );
        let coverage = &record.layers["layers.coverage"];
        assert!(
            coverage.samples > 0 && coverage.median >= 0.9,
            "{workload}: {coverage:?}"
        );
    }
}
