//! Short runs of every workload at full scale: the output checks must
//! pass, nothing may be lost, and the metrics each run emits must be
//! exactly the ones `BENCHMARK.json` declares. A half-second window
//! still holds every slice's minimum of rounds.

use std::collections::BTreeSet;

use nsxbench::gen::Workload;
use nsxbench::json::result_line;
use nsxbench::run::{run, Config, Outcome, LAT_CHUNK, SLICES};

/// The `name` values of one top-level array in `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn emitted(o: &Outcome) -> BTreeSet<String> {
    o.metrics.iter().map(|m| m.name.clone()).collect()
}

fn smoke(w: Workload, trace: bool) -> Outcome {
    let o = run(Config::new(w, 1, 0.5, trace));
    assert!(
        o.correct(),
        "{}: failed checks {:?}, {} of {} frames lost",
        w.name(),
        o.failures,
        o.failed,
        o.attempted
    );
    assert!(o.attempted >= (SLICES * LAT_CHUNK * 32) as u64);
    assert!(result_line(&o).starts_with("{\"correct\": true"));
    o
}

#[test]
fn every_workload_passes_its_checks_and_emits_the_declared_layer_metrics() {
    let want = declared("per_layer");
    for w in Workload::ALL {
        let o = smoke(w, true);
        assert_eq!(emitted(&o), want, "{}", w.name());
        assert_eq!(o.metric("loss_ratio"), Some(0.0));
        let expands = o.metric("miniflow.expands.h1").unwrap();
        if w.established() {
            assert_eq!(expands, 0.0, "{}: warm window expanded keys", w.name());
            assert_eq!(o.metric("dpif.upcall_share.h1"), Some(0.0));
        } else {
            assert!(expands > 0.0, "conn_setup upcalls every frame");
            assert!(o.metric("ct.commits.h2").unwrap() > 0.0);
        }
    }
}

#[test]
fn untraced_run_emits_the_declared_end_to_end_metrics() {
    let o = smoke(Workload::OverlayHot, false);
    assert_eq!(emitted(&o), declared("end_to_end"));
    assert!(o.metrics.iter().all(|m| m.value > 0.0), "{:?}", o.metrics);
}

#[test]
fn workload_names_match_benchmark_json() {
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), names);
}
