//! Metric names, statistics, the reference check and provenance.

use chet_hisa::json::Json;
use chet_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// End-to-end metrics an untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Circuit-node kinds with a `runtime.kind.<op>.*` total (every executor
/// op name except the input node, which does no ciphertext work).
pub const NODE_KINDS: [&str; 8] = [
    "conv2d",
    "matmul",
    "avg_pool2d",
    "global_avg_pool",
    "activation",
    "batch_norm",
    "concat",
    "flatten",
];

/// Per-layer metrics a traced run reports: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("compiler.compile_ms", "ms"),
        ("compiler.rotation_keys", "count"),
        ("compiler.degree", "count"),
        ("compiler.chain_len", "count"),
        ("compiler.predicted_eval_ms", "ms"),
        ("compiler.cost_rel_err", "ratio"),
        ("ckks.keygen_ms", "ms"),
        ("ckks.evaluator_ms", "ms"),
        ("ckks.encrypt_ms", "ms"),
        ("ckks.decrypt_ms", "ms"),
        ("ckks.wire_encode_ms", "ms"),
        ("ckks.wire_decode_ms", "ms"),
        ("ckks.pool_miss", "count"),
        ("wire.upload_bytes", "bytes"),
        ("wire.download_bytes", "bytes"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for f in &crate::trace::FAMILIES[..8] {
        m.push((format!("hisa.{f}.count"), "count"));
        m.push((format!("hisa.{f}.ms"), "ms"));
    }
    m.push(("hisa.rot_hoisted_share".into(), "ratio"));
    m.push(("runtime.eval_ms".into(), "ms"));
    m.push(("runtime.node_sum_frac".into(), "ratio"));
    m.push(("runtime.degraded_rotations".into(), "count"));
    for k in NODE_KINDS {
        m.push((format!("runtime.kind.{k}.ms"), "ms"));
        m.push((format!("runtime.kind.{k}.predicted_ms"), "ms"));
    }
    for (n, u) in [
        ("serve.start_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.batch_width", "count"),
        ("serve.batch_eval_ms", "ms"),
        ("serve.journal_records_per_fsync", "ratio"),
        ("serve.retries", "count"),
        ("serve.degraded", "count"),
        ("serve.shed", "count"),
        ("check.max_abs_err", "abs"),
        ("trace.latency_p50_s", "s"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Largest |decrypted − reference| a verified response may show, as a
/// share of the reference's largest |output|.
pub const REL_TOLERANCE: f64 = 0.25;

/// Outcome of comparing one decrypted output with the plaintext
/// `Circuit::eval` reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    pub max_abs_err: f64,
    /// The reference's largest |output|: the scale the error is held to.
    pub ref_max_abs: f64,
    /// Gap between the reference's top two outputs.
    pub ref_margin: f64,
    pub ok: bool,
}

/// Passes when every output is within `REL_TOLERANCE * ref_max_abs` of the
/// reference. Where the reference's top two outputs lie more than twice
/// the measured error apart, that bound also fixes the predicted class.
pub fn check(got: &Tensor, want: &Tensor) -> Check {
    let (g, w) = (got.data(), want.data());
    let ref_max_abs = w.iter().map(|x| x.abs()).fold(0.0, f64::max);
    let mut sorted = w.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let ref_margin = if sorted.len() < 2 {
        f64::INFINITY
    } else {
        sorted[0] - sorted[1]
    };
    // `f64::max` skips NaN, so a non-finite output must not reach the fold.
    let max_abs_err = if g.len() == w.len() && g.iter().all(|x| x.is_finite()) {
        g.iter()
            .zip(w)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    Check {
        max_abs_err,
        ref_max_abs,
        ref_margin,
        ok: max_abs_err.is_finite() && max_abs_err <= REL_TOLERANCE * ref_max_abs,
    }
}

/// The worst of a run's reference checks, for the detail line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worst {
    pub max_abs_err: f64,
    /// Largest `max_abs_err / ref_max_abs`.
    pub max_rel_err: f64,
    pub min_ref_max_abs: f64,
    pub min_ref_margin: f64,
}

impl Default for Worst {
    fn default() -> Self {
        Worst {
            max_abs_err: 0.0,
            max_rel_err: 0.0,
            min_ref_max_abs: f64::INFINITY,
            min_ref_margin: f64::INFINITY,
        }
    }
}

impl Worst {
    pub fn of<'a>(checks: impl IntoIterator<Item = &'a Check>) -> Self {
        checks.into_iter().fold(Worst::default(), |w, c| Worst {
            max_abs_err: w.max_abs_err.max(c.max_abs_err),
            max_rel_err: w.max_rel_err.max(c.max_abs_err / c.ref_max_abs),
            min_ref_max_abs: w.min_ref_max_abs.min(c.ref_max_abs),
            min_ref_margin: w.min_ref_margin.min(c.ref_margin),
        })
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples above it,
/// as `(percentile, value)`; `None` when the sample is too small.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured: `git rev-parse HEAD` where the tree is a
/// repository, `"unknown"` elsewhere.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and bytes of every file under `crates/`, in path
/// order: names the measured source where no commit is at hand.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests whose outcome was awaited, the cold setup request included.
    pub attempted: u64,
    /// Requests that errored, were shed, took the degraded route or failed
    /// the reference check.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metric values by name (traced runs).
    pub per_layer: BTreeMap<String, f64>,
    /// Everything else worth recording: sample counts, the tail latency
    /// where the sample supports one, bytes, per-node tables.
    pub detail: BTreeMap<String, Json>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(name.to_string(), value);
    }
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_string(), value);
    }
    pub fn note(&mut self, name: &str, value: Json) {
        self.detail.insert(name.to_string(), value);
    }
    /// Records what every workload reports end to end: the result-line
    /// metrics, and in the detail line the sample counts, the tail latency
    /// where the sample supports one, every latency, `fail_frac`, and the
    /// worst reference check: `max_abs_err`, `max_rel_err`, the smallest
    /// reference scale and the smallest top-two margin. Call after
    /// `attempted` and `failed` are set.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        latencies: &[f64],
        served: usize,
        window_s: f64,
        worst: &Worst,
    ) {
        self.set("setup_s", setup_s);
        self.set("latency_p50_s", median(latencies));
        self.set("throughput_rps", served as f64 / window_s);
        self.set("peak_rss_mb", peak_rss_mb());
        self.samples("setup_s", 1);
        self.samples("latency_p50_s", latencies.len());
        self.samples("throughput_rps", served);
        if let Some((p, v)) = tail(latencies) {
            let mut t = valued(v, "s");
            if let Json::Obj(m) = &mut t {
                m.insert("percentile".into(), num(p));
            }
            self.note("latency_tail_s", t);
        }
        self.note(
            "latencies_s",
            Json::Arr(latencies.iter().map(|&l| num(l)).collect()),
        );
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.note("fail_frac", valued(fail_frac, "ratio"));
        self.note("max_abs_err", valued(worst.max_abs_err, "abs"));
        self.note("max_rel_err", valued(worst.max_rel_err, "ratio"));
        self.note("rel_tolerance", valued(REL_TOLERANCE, "ratio"));
        self.note("min_ref_max_abs", valued(worst.min_ref_max_abs, "abs"));
        self.note("min_ref_margin", valued(worst.min_ref_margin, "abs"));
    }

    pub fn samples(&mut self, name: &str, n: usize) {
        let entry = self
            .detail
            .entry("samples".into())
            .or_insert_with(|| Json::Obj(BTreeMap::new()));
        if let Json::Obj(m) = entry {
            m.insert(name.to_string(), Json::Num(n as f64));
        }
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// the run's kind (end-to-end when untraced, per-layer when traced) with
/// its unit. A per-layer metric whose layer the workload's path does not
/// cross reads 0; a missing end-to-end metric is an error.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<Json, String> {
    let mut metrics = BTreeMap::new();
    if trace {
        for (name, unit) in per_layer() {
            let value = outcome.per_layer.get(&name).copied().unwrap_or(0.0);
            metrics.insert(name, valued(value, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = outcome
                .end_to_end
                .get(name)
                .ok_or(format!("{name} was not measured"))?;
            metrics.insert(name.to_string(), valued(*value, unit));
        }
    }
    Ok(obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// A metric as printed: `{"value", "unit"}`.
pub fn valued(value: f64, unit: &str) -> Json {
    obj([("value", num(value)), ("unit", Json::Str(unit.into()))])
}

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(x: f64) -> Json {
    Json::Num(x)
}
