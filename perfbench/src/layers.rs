//! Per-layer metrics derived from a traced run's spans and from the
//! compiler's artifact.

use crate::report::{median, num, obj, Outcome, NODE_KINDS};
use crate::trace::{write_jsonl, Kind, Span, FAMILIES};
use crate::{cost_model, RunConfig};
use chet_compiler::ir::cost::estimate;
use chet_compiler::{extract_ir, CompiledCircuit, ExtractMode};
use chet_hisa::json::Json;
use chet_tensor::Circuit;
use std::collections::{BTreeMap, BTreeSet};

/// Node times must sum to this share of `runtime.eval_ms` or more: the
/// rest is the executor's own work outside every node.
pub const NODE_SUM_MIN: f64 = 0.98;

/// Parameters the compiler chose.
pub fn compiler(out: &mut Outcome, compiled: &CompiledCircuit) {
    let params = &compiled.params;
    out.layer(
        "compiler.rotation_keys",
        compiled.rotation_keys.steps(params.slots()).len() as f64,
    );
    out.layer("compiler.degree", params.degree as f64);
    out.layer("compiler.chain_len", params.modulus.chain_len() as f64);
}

/// `hisa.<family>.{count,ms}`: per unit of work (a request, or a batch on
/// the serving path), the median over `units` of each family's total.
/// Counts are rotation steps for the rotation families and calls
/// otherwise. `hisa.rot_hoisted_share` is the share of all rotation steps
/// in `units` that reached the backend in batched calls.
pub fn hisa_by_unit(out: &mut Outcome, spans: &[Span], units: &[u64]) {
    let mut per: BTreeMap<u64, BTreeMap<&str, (f64, f64)>> =
        units.iter().map(|&u| (u, BTreeMap::new())).collect();
    for s in spans.iter().filter(|s| s.kind == Kind::Hisa) {
        if let Some(m) = per.get_mut(&s.req) {
            let e = m.entry(&s.name).or_default();
            e.0 += f64::from(s.n);
            e.1 += s.ms();
        }
    }
    let column = |family: &str, pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        per.values()
            .map(|m| m.get(family).map_or(0.0, pick))
            .collect()
    };
    for family in &FAMILIES[..8] {
        out.layer(
            &format!("hisa.{family}.count"),
            median(&column(family, |e| e.0)),
        );
        out.layer(
            &format!("hisa.{family}.ms"),
            median(&column(family, |e| e.1)),
        );
    }
    let single: f64 = column(FAMILIES[0], |e| e.0).iter().sum();
    let hoisted: f64 = column(FAMILIES[1], |e| e.0).iter().sum();
    let steps = single + hoisted;
    out.layer(
        "hisa.rot_hoisted_share",
        if steps > 0.0 { hoisted / steps } else { 0.0 },
    );
}

/// The calibrated IR cost model's prediction for one solo inference:
/// total milliseconds, and milliseconds per circuit node.
pub fn predicted(
    out: &mut Outcome,
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    cfg: &RunConfig,
) -> Result<(f64, BTreeMap<usize, f64>), String> {
    let (model, source) = cost_model(cfg);
    out.note("cost_constants", Json::Str(source.into()));
    let ir = extract_ir(circuit, compiled, ExtractMode::Metadata).map_err(|e| e.to_string())?;
    let est = estimate(&ir, &model);
    let per_node = est
        .by_span
        .iter()
        .filter_map(|sc| sc.span.as_ref().map(|sp| (sp.op_index, sc.us / 1e3)))
        .collect();
    Ok((est.total_us / 1e3, per_node))
}

/// Sets `runtime.eval_ms` to the median of `eval_ms` and prices it against
/// the prediction.
pub fn eval_vs_predicted(out: &mut Outcome, eval_ms: &[f64], predicted_ms: f64) {
    let eval = median(eval_ms);
    out.layer("runtime.eval_ms", eval);
    out.layer("compiler.predicted_eval_ms", predicted_ms);
    out.layer(
        "compiler.cost_rel_err",
        if eval > 0.0 {
            (predicted_ms - eval).abs() / eval
        } else {
            0.0
        },
    );
}

/// Per-node measured and predicted times from the node spans of requests
/// `reqs` (whose evaluations took `eval_ms`), per-kind totals, and the
/// check that node times reconcile with the evaluation's wall time.
pub fn nodes(
    out: &mut Outcome,
    spans: &[Span],
    reqs: &[u64],
    eval_ms: &[f64],
    predicted: &BTreeMap<usize, f64>,
) -> Result<(), String> {
    let wanted: BTreeSet<u64> = reqs.iter().copied().collect();
    // (index, op) -> per-request ms; request -> node-time sum.
    let mut per_node: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.kind == Kind::Node && wanted.contains(&s.req))
    {
        let mut parts = s.name.splitn(3, '.').skip(1);
        let (Some(index), Some(op)) = (parts.next().and_then(|i| i.parse().ok()), parts.next())
        else {
            continue;
        };
        per_node
            .entry((index, op.to_string()))
            .or_default()
            .push(s.ms());
        *sums.entry(s.req).or_default() += s.ms();
    }
    let fracs: Vec<f64> = reqs
        .iter()
        .zip(eval_ms)
        .map(|(r, &e)| sums.get(r).copied().unwrap_or(0.0) / e)
        .collect();
    let frac = median(&fracs);
    out.layer("runtime.node_sum_frac", frac);
    if !(NODE_SUM_MIN..=1.0).contains(&frac) {
        return Err(format!(
            "node times sum to {frac:.4} of runtime.eval_ms, outside [{NODE_SUM_MIN}, 1]"
        ));
    }
    let mut table = BTreeMap::new();
    let mut kinds: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for ((index, op), times) in &per_node {
        let ms = median(times);
        let pred = predicted.get(index).copied().unwrap_or(0.0);
        table.insert(format!("runtime.node.{index}.{op}.ms"), num(ms));
        table.insert(format!("runtime.node.{index}.{op}.predicted_ms"), num(pred));
        let e = kinds.entry(op.as_str()).or_default();
        e.0 += ms;
        e.1 += pred;
    }
    for kind in NODE_KINDS {
        let (ms, pred) = kinds.get(kind).copied().unwrap_or_default();
        out.layer(&format!("runtime.kind.{kind}.ms"), ms);
        out.layer(&format!("runtime.kind.{kind}.predicted_ms"), pred);
    }
    out.note("nodes", Json::Obj(table));
    Ok(())
}

/// Writes the spans to `<out_dir>/trace-<workload>-seed<seed>.jsonl`.
pub fn write_trace(out: &mut Outcome, spans: &[Span], cfg: &RunConfig) -> Result<(), String> {
    let path = cfg.out_dir.join(format!(
        "trace-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    write_jsonl(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.note(
        "trace",
        obj([
            ("file", Json::Str(path.display().to_string())),
            ("spans", num(spans.len() as f64)),
        ]),
    );
    Ok(())
}
