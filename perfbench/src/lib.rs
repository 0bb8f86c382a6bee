//! End-to-end benchmark of encrypted inference on the CHET stack.
//!
//! Two workloads, each driven by one generator thread from a seed:
//! * `lenet-small-e2e` runs the paper's Figure 3 client/server split one
//!   request at a time ([`e2e`]);
//! * `serve-batched` drives `InferenceService` in a closed loop that keeps
//!   16 requests in flight ([`serve`]).
//!
//! Every response is checked against the plaintext `Circuit::eval`
//! reference. An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) records spans per phase, circuit node and HISA call (see
//! [`trace`]) and reports the per-layer metrics derived from them.

pub mod backend;
pub mod e2e;
pub mod layers;
pub mod report;
pub mod serve;
pub mod trace;

use backend::Backend;
use chet_hisa::cost::{CostModel, ALL_OPS};
use chet_hisa::params::SchemeKind;
use chet_runtime::kernels::ScaleConfig;
use report::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LenetSmallE2e,
    ServeBatched,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::LenetSmallE2e, Workload::ServeBatched];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LenetSmallE2e => "lenet-small-e2e",
            Workload::ServeBatched => "serve-batched",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase; at least one timed request always runs.
    pub seconds: Duration,
    pub trace: bool,
    /// Root of the source tree (holds `crates/` and `BENCH_rns_ops.json`).
    pub root: PathBuf,
    /// Where traces and the serving store go.
    pub out_dir: PathBuf,
}

/// Runs one workload on backend `B`.
pub fn run<B: Backend>(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::LenetSmallE2e => e2e::run::<B>(cfg),
        Workload::ServeBatched => serve::run::<B>(cfg),
    }
}

/// Fixed-point scales every workload compiles with, as log2 of
/// `(P_c, P_w, P_u, P_m)`; reduced LeNet-5-small then selects N = 16384.
///
/// The mask scale matters on the RNS backend: at `P_m` = 2^12 or below
/// (e.g. `(25, 12, 12, 10)`, the scales the repository's examples use) the
/// decrypted LeNet-5-small output no longer depends on the input, while
/// `SimCkks` stays within 1e-2 of the reference. At `P_m` = 2^14 it is
/// within 10% of the reference's largest output.
pub fn scales() -> ScaleConfig {
    ScaleConfig::from_log2(30, 16, 12, 14)
}

/// Output precision requested from the compiler.
pub fn precision() -> f64 {
    2f64.powi(25)
}

/// Seed of request `i`'s image under run seed `seed`.
pub fn image_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i)
}

/// Times `f`, returning its result and the `[start, end]` interval.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    (out, start, Instant::now())
}

/// The RNS cost model with the calibrated constants from
/// `BENCH_rns_ops.json`, and where its constants came from.
pub fn cost_model(cfg: &RunConfig) -> (CostModel, &'static str) {
    let defaults = CostModel::for_scheme(SchemeKind::RnsCkks);
    let Ok(text) = std::fs::read_to_string(cfg.root.join("BENCH_rns_ops.json")) else {
        return (defaults, "defaults: no BENCH_rns_ops.json");
    };
    let Ok(v) = chet_hisa::json::parse(&text) else {
        return (defaults, "defaults: BENCH_rns_ops.json unparseable");
    };
    let mut model = defaults.clone();
    for op in ALL_OPS {
        match v
            .get("constants")
            .and_then(|o| o.get(&op.to_string()))
            .and_then(|c| c.as_num())
        {
            Some(c) if c.is_finite() && c > 0.0 => model.set_constant(op, c),
            _ => return (defaults, "defaults: BENCH_rns_ops.json incomplete"),
        }
    }
    (model, "BENCH_rns_ops.json")
}
