//! The benchmark's own tests: the percentile rule and printed sample
//! counts, failure counting, the traced tune runner's replay identity,
//! artifact comparison, and agreement between the code and
//! `BENCHMARK.json`.

use polyject_codegen::{compile, Config};
use polyject_core::Budget;
use polyject_gpusim::GpuModel;
use polyject_perfbench::artifact::{artifact_digest, in_process_reply, IGNORED_FIELDS};
use polyject_perfbench::expected::Expected;
use polyject_perfbench::ledger::PER_LAYER;
use polyject_perfbench::report::Report;
use polyject_perfbench::serve::account;
use polyject_perfbench::stats::{beyond, highest_supported, percentile, supports};
use polyject_perfbench::stream::{served_stream, Population, StreamItem};
use polyject_perfbench::tune::TracingRunner;
use polyject_perfbench::{Outcome, END_TO_END, WORKLOADS};
use polyject_serve::Json;
use polyject_tune::{beam_search, SerialRunner, TuneOptions, TuneRequest};

fn reply() -> Json {
    let kernel = polyject_ir::ops::transpose_2d(64, 64);
    let c = compile(&kernel, Config::Influenced).unwrap();
    in_process_reply(&kernel, Config::Influenced, &c, &GpuModel::v100()).unwrap()
}

fn with_field(reply: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(fields) = reply else {
        panic!("reply is an object")
    };
    let mut fields = fields.clone();
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => fields.push((key.to_string(), value)),
    }
    Json::Obj(fields)
}

#[test]
fn percentile_rule_needs_ten_samples_beyond() {
    // Nearest rank: the 90th percentile of 1..=100 is 90, with 10 above.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90), 90.0);
    assert_eq!(percentile(&v, 50), 50.0);
    assert_eq!(beyond(100, 90), 10);
    assert!(supports(100, 90));
    assert!(!supports(99, 90));
    assert_eq!(highest_supported(1000, 99), Some(99));
    assert_eq!(highest_supported(999, 99), Some(95));
    assert_eq!(highest_supported(200, 99), Some(95));
    assert_eq!(highest_supported(199, 99), Some(90));
    assert_eq!(highest_supported(100, 99), Some(90));
    assert_eq!(highest_supported(1000, 90), Some(90));
    assert_eq!(highest_supported(20, 99), Some(50));
    assert_eq!(highest_supported(19, 99), None);
}

#[test]
fn latency_lowers_the_tail_and_prints_sample_counts() {
    let mut out = Outcome::default();
    let samples: Vec<f64> = (0..250).map(f64::from).collect();
    out.latency("warm", &samples, 99);
    let names: Vec<&str> = out.report.notes.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        ["warm_p50_ms", "warm_p95_ms"],
        "p99 needs 1000 samples"
    );
    let e2e: Vec<&str> = out.e2e.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(e2e, ["p50_ms", "p90_ms"]);
    assert_eq!(out.report.failed, 0);

    out.report.attempted = 250;
    out.report.metrics = std::mem::take(&mut out.e2e);
    let text = out.report.render();
    assert!(text.contains("warm_p95_ms"), "{text}");
    // Two notes, two metrics and the error rate, each with its count.
    assert_eq!(text.matches(" n=250\n").count(), 5, "{text}");
    let last = text.lines().last().unwrap();
    let json = Json::parse(last).unwrap();
    assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(250));
    assert!(json.get("metrics").unwrap().get("p90_ms").is_some());

    // Too few samples for a p90 fails the run instead of naming a tail
    // the sample cannot support.
    let mut small = Outcome::default();
    small.latency("tune", &samples[..50], 90);
    assert_eq!(small.report.failed, 1);
}

#[test]
fn refused_and_wrong_replies_fail_and_carry_no_latency() {
    let good = reply();
    let item = |op| StreamItem { op, config: 2 };
    let mut expected = Expected::default();
    expected.artifacts.insert((0, 2), artifact_digest(&good));
    expected.artifacts.insert((1, 2), artifact_digest(&good));
    expected.artifacts.insert((2, 2), artifact_digest(&good));
    expected
        .artifacts
        .insert((3, 2), artifact_digest(&good) ^ 1);
    let overloaded = Json::parse(r#"{"status":"overloaded","queue_len":4}"#).unwrap();
    let error = Json::parse(r#"{"status":"error","message":"timed out"}"#).unwrap();
    let answered = vec![
        (item(0), good.clone(), 20.0),
        (item(1), overloaded, 1.0),
        (item(2), error, 2.0),
        (item(3), good, 3.0),
    ];
    let mut report = Report {
        attempted: 4,
        ..Report::default()
    };
    let latencies = account(&expected, &mut report, &answered);
    assert_eq!(latencies, [20.0]);
    assert_eq!(report.failed, 3);
    assert_eq!(report.error_rate(), 0.75);
    assert!(!report.correct());
}

#[test]
fn traced_runner_replays_the_serial_search() {
    let opts = TuneOptions::default();
    for kernel in [
        polyject_ir::ops::transpose_2d(256, 256),
        polyject_ir::ops::transpose_2d(96, 160),
    ] {
        let req = TuneRequest {
            kernel,
            config: Config::Influenced,
            gpu: GpuModel::v100(),
            budget: Budget::unlimited(),
        };
        let serial = beam_search(&req, &opts, &SerialRunner).unwrap();
        let runner = TracingRunner::default();
        let traced = beam_search(&req, &opts, &runner).unwrap();
        assert_eq!(traced.tuned.log_digest, serial.tuned.log_digest);
        assert_eq!(traced.log, serial.log);
        assert_eq!(runner.evals() as usize + 1, serial.log.len());
        assert!(runner.eval_ms() > 0.0);
    }
}

#[test]
fn artifact_comparison_ignores_exactly_the_nondeterministic_fields() {
    let base = reply();
    let d = artifact_digest(&base);
    for key in IGNORED_FIELDS {
        let changed = with_field(&base, key, Json::Str("anything".to_string()));
        assert_eq!(artifact_digest(&changed), d, "{key} must be ignored");
    }
    let Json::Obj(fields) = &base else { panic!() };
    for (key, value) in fields {
        let other = match value {
            Json::Str(s) => Json::Str(format!("{s} ")),
            Json::Num(x) => Json::Num(x + 1.0),
            Json::Bool(b) => Json::Bool(!b),
            _ => Json::Null,
        };
        let changed = with_field(&base, key, other);
        assert_ne!(artifact_digest(&changed), d, "{key} must be compared");
    }
    let Some(Json::Obj(timing)) = base.get("timing") else {
        panic!("timing object")
    };
    let mut timing = timing.clone();
    timing[0].1 = Json::Num(timing[0].1.as_f64().unwrap() * 2.0);
    assert_ne!(
        artifact_digest(&with_field(&base, "timing", Json::Obj(timing))),
        d
    );
    let extra = with_field(&base, "explain", Json::Str("new field".to_string()));
    assert_ne!(
        artifact_digest(&extra),
        d,
        "only the listed fields are ignored"
    );
}

#[test]
fn streams_follow_the_seed() {
    let pop = Population::new();
    assert_eq!(pop.unique.len(), 114);
    let a = served_stream(&pop, 7);
    let items: usize = a.iter().map(Vec::len).sum();
    assert_eq!(items, 324);
    let order = |s: &[Vec<StreamItem>]| -> Vec<usize> { s.iter().map(|b| b[0].op).collect() };
    assert_eq!(order(&a), order(&served_stream(&pop, 7)));
    assert!((0..20).any(|seed| order(&served_stream(&pop, seed)) != order(&a)));
}

#[test]
fn expected_file_round_trips() {
    let e = Expected::checked_in().unwrap();
    assert_eq!(e.rows.len(), 7);
    assert_eq!(e.artifacts.len(), 342);
    assert_eq!(e.tune.len(), 114);
    assert_eq!(e.render(), polyject_perfbench::expected::EXPECTED_TXT);
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.str_field("name").unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    };
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), pairs(&END_TO_END));
    assert_eq!(names("per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
