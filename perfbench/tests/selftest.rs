//! Harness self-test: every workload at minimal length on the exact
//! simulator backend. Checks that each metric `BENCHMARK.json` names is
//! emitted with its unit, that two runs with one seed agree on every
//! count, byte total and error, and that the reference check rejects
//! wrong outputs of the workloads' own magnitude.

use chet_hisa::json::{self, Json};
use chet_perfbench::backend::Sim;
use chet_perfbench::report::{check, result_line, Outcome, REL_TOLERANCE};
use chet_perfbench::{run, RunConfig, Workload};
use chet_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn config(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: Duration::ZERO,
        trace,
        root: root(),
        out_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    }
}

fn run_sim(workload: Workload, trace: bool) -> Outcome {
    run::<Sim>(&config(workload, trace)).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .expect("string field")
            .to_string()
    };
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// `(name, unit)` of every metric on a result line.
fn emitted(line: &Json) -> Vec<(String, String)> {
    match line.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, v)| {
                assert!(
                    v.get("value").and_then(Json::as_num).is_some(),
                    "{k} has no value"
                );
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect(),
        _ => panic!("result line has no metrics"),
    }
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

/// The per-layer values that must repeat exactly under one seed.
fn exact(o: &Outcome) -> Vec<(String, f64)> {
    o.per_layer
        .iter()
        .filter(|(k, _)| {
            k.ends_with(".count")
                || k.ends_with("_bytes")
                || [
                    "compiler.rotation_keys",
                    "compiler.degree",
                    "compiler.chain_len",
                ]
                .contains(&k.as_str())
                || k.as_str() == "check.max_abs_err"
        })
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_repeats_under_one_seed() {
    for workload in Workload::ALL {
        let untraced = run_sim(workload, false);
        assert_eq!(
            untraced.failed,
            0,
            "{}: {:?}",
            workload.name(),
            untraced.detail.get("errors")
        );
        let line = result_line(&untraced, false).expect("every end-to-end metric measured");
        assert_eq!(
            sorted(emitted(&line)),
            sorted(declared("end_to_end")),
            "{}",
            workload.name()
        );
        for (name, value) in &untraced.end_to_end {
            assert!(*value > 0.0, "{}: {name} reads {value}", workload.name());
        }

        let (a, b) = (run_sim(workload, true), run_sim(workload, true));
        let line = result_line(&a, true).expect("traced result line");
        assert_eq!(
            sorted(emitted(&line)),
            sorted(declared("per_layer")),
            "{}",
            workload.name()
        );
        assert!(!exact(&a).is_empty());
        assert_eq!(
            exact(&a),
            exact(&b),
            "{}: counts differ between runs",
            workload.name()
        );
        assert_eq!(a.detail.get("max_abs_err"), b.detail.get("max_abs_err"));
        if workload != Workload::ServeBatched {
            // One request in flight: the request count is fixed too.
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
            assert_eq!(a.detail.get("upload_bytes"), b.detail.get("upload_bytes"));
        }
    }
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    let declared: Vec<String> = {
        let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let spec = json::parse(&text).expect("parses");
        spec.get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    };
    assert!(declared.len() >= 2);
    for name in &declared {
        assert!(
            Workload::parse(name).is_some(),
            "BENCHMARK.json names unknown workload {name}"
        );
    }
}

#[test]
fn reference_check_rejects_wrong_outputs_of_small_magnitude() {
    let net = chet_networks::try_reduced("LeNet-5-small").expect("reduced network");
    for seed in 0..4 {
        let want = net.circuit.eval(&[net.sample_image(seed)]);
        let w = want.data();
        let shaped = |data: Vec<f64>| Tensor::new(want.shape().to_vec(), data);
        let scale = w.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(scale > 0.0);

        let exact = check(&want, &want);
        assert!(exact.ok && exact.max_abs_err == 0.0);
        assert_eq!(exact.ref_max_abs, scale);
        // Noise well inside the tolerance passes.
        let near = shaped(
            w.iter()
                .enumerate()
                .map(|(i, x)| x + if i % 2 == 0 { 0.5 } else { -0.5 } * REL_TOLERANCE * scale)
                .collect(),
        );
        assert!(check(&near, &want).ok);

        let zeroed = shaped(vec![0.0; w.len()]);
        assert!(
            !check(&zeroed, &want).ok,
            "seed {seed}: zeroed output passes"
        );
        let reversed = shaped(w.iter().rev().copied().collect());
        assert!(
            !check(&reversed, &want).ok,
            "seed {seed}: reversed classes pass"
        );
        let rotated = shaped(w.iter().cycle().skip(1).take(w.len()).copied().collect());
        assert!(
            !check(&rotated, &want).ok,
            "seed {seed}: rotated classes pass"
        );
        let mut nan = w.to_vec();
        nan[0] = f64::NAN;
        assert!(
            !check(&shaped(nan), &want).ok,
            "seed {seed}: NaN output passes"
        );
        let short = Tensor::new(vec![w.len() - 1], w[1..].to_vec());
        assert!(!check(&short, &want).ok);
    }
}
