//! The client/server workload (paper Figure 3): reduced LeNet-5-small on
//! one thread, one request in flight.
//!
//! Each request: the client encrypts (`try_encrypt_input`) and encodes
//! the ciphertexts for the wire; the server decodes them and evaluates on
//! the public-material evaluator; the result travels back the same way and
//! the client decrypts (`decrypt_tensor`) and checks it against the
//! plaintext reference.

use crate::backend::Backend;
use crate::layers;
use crate::report::{self, median, valued, Check, Outcome, Worst};
use crate::trace::{phase, Kind, NodeClock, Trace, Traced};
use crate::{image_seed, precision, scales, timed, RunConfig};
use chet_compiler::{CompiledCircuit, Compiler};
use chet_hisa::json::Json;
use chet_hisa::params::SchemeKind;
use chet_hisa::Hisa;
use chet_networks::Network;
use chet_runtime::ciphertensor::{decrypt_tensor, CipherTensor};
use chet_runtime::exec::{try_encrypt_input, try_run_encrypted_with, ExecControl};
use std::sync::Arc;
use std::time::Instant;

/// Rotation-bound, with nothing to fan out, so one thread.
const NETWORK: &str = "LeNet-5-small";
const THREADS: usize = 1;

/// One request's measurements.
struct Sample {
    req: u64,
    latency_s: f64,
    encrypt_ms: f64,
    wire_encode_ms: f64,
    wire_decode_ms: f64,
    eval_ms: f64,
    decrypt_ms: f64,
    up_bytes: usize,
    down_bytes: usize,
    check: Check,
    degraded_rotations: usize,
}

struct Session<'a, B: Backend> {
    net: &'a Network,
    compiled: &'a CompiledCircuit,
    client: B::Client,
    trace: Option<Arc<Trace>>,
    seed: u64,
}

impl<B: Backend> Session<'_, B> {
    /// Runs request `req` through the whole client → server → client path.
    fn request<S: Hisa<Ct = B::Ct>>(&mut self, server: &mut S, req: u64) -> Result<Sample, String> {
        let (circuit, plan) = (&self.net.circuit, &self.compiled.plan);
        let image = self.net.sample_image(image_seed(self.seed, req));
        let reference = circuit.eval(std::slice::from_ref(&image));
        let trace = self.trace.as_ref();
        let rid = trace.map_or(0, |t| t.fresh_id());
        let begin = Instant::now();

        let (enc, encrypt_ms) = phase(trace, req, rid, "encrypt", |_| {
            try_encrypt_input(&mut self.client, circuit, plan, &image)
        });
        let enc = enc.map_err(|e| format!("encrypt: {e}"))?;
        let (up, up_enc_ms) = phase(trace, req, rid, "wire_up_encode", |_| {
            enc.cts.iter().map(B::to_wire).collect::<Vec<_>>()
        });
        let (cts, up_dec_ms) = phase(trace, req, rid, "wire_up_decode", |_| {
            up.iter().map(B::from_wire).collect::<Result<Vec<_>, _>>()
        });
        let input = CipherTensor {
            layout: enc.layout.clone(),
            cts: cts?,
        };
        let up_bytes = up.iter().map(B::wire_len).sum();
        drop((up, enc));

        let (run, eval_ms) = phase(trace, req, rid, "evaluate", |id| match trace {
            Some(t) => {
                let mut clock = NodeClock::new(Arc::clone(t), req, id);
                let mut ctrl = ExecControl {
                    cancel: None,
                    observer: Some(&mut clock),
                };
                let run = try_run_encrypted_with(server, circuit, plan, input, &mut ctrl);
                clock.finish();
                run
            }
            None => try_run_encrypted_with(server, circuit, plan, input, &mut ExecControl::none()),
        });
        let (out, exec_report) = run.map_err(|e| format!("evaluate: {e}"))?;

        let (down, down_enc_ms) = phase(trace, req, rid, "wire_down_encode", |_| {
            out.cts.iter().map(B::to_wire).collect::<Vec<_>>()
        });
        let (cts, down_dec_ms) = phase(trace, req, rid, "wire_down_decode", |_| {
            down.iter().map(B::from_wire).collect::<Result<Vec<_>, _>>()
        });
        let result = CipherTensor {
            layout: out.layout.clone(),
            cts: cts?,
        };
        let down_bytes = down.iter().map(B::wire_len).sum();
        let (got, decrypt_ms) = phase(trace, req, rid, "decrypt", |_| {
            decrypt_tensor(&mut self.client, &result)
        });
        let (check, _) = phase(trace, req, rid, "verify", |_| {
            report::check(&got, &reference)
        });
        let end = Instant::now();
        if let Some(t) = trace {
            t.record(rid, 0, req, Kind::Phase, "request", begin, end);
        }
        Ok(Sample {
            req,
            latency_s: (end - begin).as_secs_f64(),
            encrypt_ms,
            wire_encode_ms: up_enc_ms + down_enc_ms,
            wire_decode_ms: up_dec_ms + down_dec_ms,
            eval_ms,
            decrypt_ms,
            up_bytes,
            down_bytes,
            check,
            degraded_rotations: exec_report.degraded_rotations,
        })
    }
}

/// What the request loop produced.
struct Driven {
    setup_s: f64,
    cold: Sample,
    timed: Vec<Result<Sample, String>>,
    timed_s: f64,
    pool_miss: u64,
}

/// The cold request (end of set-up), then the timed closed loop.
fn drive<B: Backend, S: Hisa<Ct = B::Ct>>(
    session: &mut Session<'_, B>,
    server: &mut S,
    cfg: &RunConfig,
    t0: Instant,
) -> Result<Driven, String> {
    let cold = session
        .request(server, 0)
        .map_err(|e| format!("cold request: {e}"))?;
    if !cold.check.ok {
        return Err(format!(
            "cold request fails the reference check: {:?}",
            cold.check
        ));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let miss0 = B::pool_stats().1;
    let start = Instant::now();
    let mut timed = Vec::new();
    let mut req = 1;
    while timed.is_empty() || start.elapsed() < cfg.seconds {
        timed.push(session.request(server, req));
        req += 1;
    }
    let timed_s = start.elapsed().as_secs_f64();
    Ok(Driven {
        setup_s,
        cold,
        timed,
        timed_s,
        pool_miss: B::pool_stats().1 - miss0,
    })
}

/// Runs the client/server workload.
pub fn run<B: Backend>(cfg: &RunConfig) -> Result<Outcome, String> {
    chet_runtime::par::set_threads(THREADS);
    let trace = cfg.trace.then(Trace::new);
    let t0 = Instant::now();
    let net = chet_networks::try_reduced(NETWORK).map_err(|e| e.to_string())?;
    let compiler = Compiler::new(SchemeKind::RnsCkks).with_output_precision(precision());
    let (compiled, c0, c1) = timed(|| compiler.compile(&net.circuit, &scales()));
    let compiled = compiled.map_err(|e| format!("{NETWORK} does not compile: {e}"))?;
    let (mut client, k0, k1) = timed(|| B::keygen(&compiled, cfg.seed));
    let (server, e0, e1) = timed(|| B::server(&mut client));
    if let Some(t) = &trace {
        t.record(t.fresh_id(), 0, 0, Kind::Phase, "compile", c0, c1);
        t.record(t.fresh_id(), 0, 0, Kind::Phase, "keygen", k0, k1);
        t.record(t.fresh_id(), 0, 0, Kind::Phase, "evaluator", e0, e1);
    }
    let mut session = Session::<B> {
        net: &net,
        compiled: &compiled,
        client,
        trace: trace.clone(),
        seed: cfg.seed,
    };
    let driven = match &trace {
        Some(t) => drive(
            &mut session,
            &mut Traced::new(server, Arc::clone(t)),
            cfg,
            t0,
        )?,
        None => {
            let mut server = server;
            drive(&mut session, &mut server, cfg, t0)?
        }
    };

    let mut out = Outcome::default();
    let mut errors = Vec::new();
    let mut ok = Vec::new();
    for r in &driven.timed {
        match r {
            Ok(s) => {
                if s.check.ok {
                    ok.push(s);
                } else {
                    errors.push(Json::Str(format!("request {}: {:?}", s.req, s.check)));
                }
            }
            Err(e) => errors.push(Json::Str(e.clone())),
        }
    }
    out.attempted = 1 + driven.timed.len() as u64;
    out.failed = errors.len() as u64;
    let worst = Worst::of(
        std::iter::once(&driven.cold)
            .chain(driven.timed.iter().flatten())
            .map(|s| &s.check),
    );
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_s).collect();
    out.end_to_end(driven.setup_s, &latencies, ok.len(), driven.timed_s, &worst);
    out.note("upload_bytes", valued(driven.cold.up_bytes as f64, "bytes"));
    out.note(
        "download_bytes",
        valued(driven.cold.down_bytes as f64, "bytes"),
    );
    out.note("errors", Json::Arr(errors));
    out.note("network", Json::Str(NETWORK.into()));

    if let Some(t) = &trace {
        let col = |f: fn(&Sample) -> f64| median(&ok.iter().map(|s| f(s)).collect::<Vec<_>>());
        out.layer("compiler.compile_ms", report::ms(c1 - c0));
        out.layer("ckks.keygen_ms", report::ms(k1 - k0));
        out.layer("ckks.evaluator_ms", report::ms(e1 - e0));
        out.layer("ckks.encrypt_ms", col(|s| s.encrypt_ms));
        out.layer("ckks.decrypt_ms", col(|s| s.decrypt_ms));
        out.layer("ckks.wire_encode_ms", col(|s| s.wire_encode_ms));
        out.layer("ckks.wire_decode_ms", col(|s| s.wire_decode_ms));
        out.layer("ckks.pool_miss", driven.pool_miss as f64);
        out.layer("wire.upload_bytes", driven.cold.up_bytes as f64);
        out.layer("wire.download_bytes", driven.cold.down_bytes as f64);
        out.layer(
            "runtime.degraded_rotations",
            col(|s| s.degraded_rotations as f64),
        );
        out.layer("check.max_abs_err", worst.max_abs_err);
        out.layer("trace.latency_p50_s", median(&latencies));
        let eval_ms: Vec<f64> = ok.iter().map(|s| s.eval_ms).collect();
        let reqs: Vec<u64> = ok.iter().map(|s| s.req).collect();
        out.samples("per_layer", ok.len());
        let spans = t.finish();
        let (predicted_ms, per_node) = layers::predicted(&mut out, &net.circuit, &compiled, cfg)?;
        layers::compiler(&mut out, &compiled);
        layers::eval_vs_predicted(&mut out, &eval_ms, predicted_ms);
        layers::hisa_by_unit(&mut out, &spans, &reqs);
        layers::nodes(&mut out, &spans, &reqs, &eval_ms, &per_node)?;
        layers::write_trace(&mut out, &spans, cfg)?;
    }
    Ok(out)
}
