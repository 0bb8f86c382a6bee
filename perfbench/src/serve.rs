//! The serving workload: `InferenceService` on reduced LeNet-5-small with
//! one worker, batches of up to 8, and the journal on, driven by a closed
//! loop that keeps 16 keyed requests in flight.

use crate::backend::Backend;
use crate::layers;
use crate::report::{self, median, num, Check, Outcome, Worst};
use crate::trace::{Kind, Span, Trace, Traced};
use crate::{image_seed, precision, scales, timed, RunConfig};
use chet_compiler::{CompiledCircuit, Compiler};
use chet_hisa::json::Json;
use chet_hisa::params::SchemeKind;
use chet_hisa::Hisa;
use chet_serve::{
    InferResponse, InferenceService, JournalConfig, ServeConfig, ServeError, ServiceStats,
    Submission, Ticket, WatchdogConfig,
};
use chet_tensor::Tensor;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests the generator keeps in flight.
pub const IN_FLIGHT: usize = 16;
/// Largest coalesced batch.
pub const MAX_BATCH: usize = 8;
/// How long the worker waits for stragglers to fill a batch.
pub const LINGER: Duration = Duration::from_millis(50);

/// Replies of one batch reach the generator within this of each other
/// (each waits for its journal record); batches take seconds.
const SETTLE: Duration = Duration::from_millis(200);

const NETWORK: &str = "LeNet-5-small";

/// Polls `ticket` until it resolves or `grace` passes.
fn poll_within(ticket: &Ticket, grace: Duration) -> Option<Result<InferResponse, ServeError>> {
    let until = Instant::now() + grace;
    loop {
        if let Some(r) = ticket.poll() {
            return Some(r);
        }
        if Instant::now() >= until {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Request {
    req: u64,
    submitted: Instant,
    reference: Tensor,
}

struct Pending {
    ticket: Ticket,
    request: Request,
}

/// One resolved request.
struct Done {
    submitted: Instant,
    completed: Instant,
    check: Check,
    degraded_rotations: usize,
}

/// Every request whose outcome was awaited: the verified or mismatched
/// responses, and one error per failed request.
#[derive(Default)]
struct Tally {
    attempted: u64,
    done: Vec<Done>,
    errors: Vec<Json>,
}

/// What the factory saw on the worker thread: keygen times and the
/// artifact the service compiled.
#[derive(Default)]
struct FactoryLog {
    keygen_ms: Vec<f64>,
    compiled: Option<CompiledCircuit>,
}

/// What the closed loop produced.
struct Driven {
    start_ms: f64,
    setup_end: Instant,
    window_end: Instant,
    tally: Tally,
    abandoned: usize,
    before: ServiceStats,
    after: ServiceStats,
    pool_miss: u64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts the service with a factory that times keygen and hands the
/// worker `wrap(backend)`, then runs the closed loop.
fn drive<B, H, W>(
    cfg: &RunConfig,
    store: &std::path::Path,
    log: &Arc<Mutex<FactoryLog>>,
    wrap: W,
) -> Result<Driven, String>
where
    B: Backend,
    H: Hisa + 'static,
    W: Fn(B::Client) -> H + Send + Sync + 'static,
{
    let net = chet_networks::try_reduced(NETWORK).map_err(|e| e.to_string())?;
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4 * IN_FLIGHT,
        max_batch: MAX_BATCH,
        max_linger: LINGER,
        threads: Some(1),
        store_dir: Some(store.to_path_buf()),
        key_seed: cfg.seed,
        journal: JournalConfig {
            enabled: true,
            ..JournalConfig::default()
        },
        // Keygen runs on the worker's first job and a batched node can take
        // seconds; the watchdog is not under test here.
        watchdog: WatchdogConfig {
            stall_timeout: Duration::from_secs(300),
            quarantine_after: Duration::from_secs(300),
            ..WatchdogConfig::default()
        },
        ..ServeConfig::default()
    };
    let seed = cfg.seed;
    let sink = Arc::clone(log);
    let factory = move |_worker: usize, compiled: &CompiledCircuit| {
        let (backend, k0, k1) = timed(|| B::keygen(compiled, seed));
        let mut l = lock(&sink);
        l.keygen_ms.push(report::ms(k1 - k0));
        l.compiled = Some(compiled.clone());
        wrap(backend)
    };
    let compiler = Compiler::new(SchemeKind::RnsCkks).with_output_precision(precision());
    let (svc, s0, s1) = timed(|| {
        InferenceService::start_with_compiler(
            compiler,
            net.circuit.clone(),
            scales(),
            config,
            factory,
        )
    });
    let svc = svc.map_err(|e| format!("service start: {e}"))?;

    let submit = |req: u64, image: Tensor, reference: Tensor| -> Result<Pending, String> {
        let submitted = Instant::now();
        match svc.submit_keyed(image, &format!("{seed}-{req}")) {
            Ok(Submission::Accepted(ticket)) => Ok(Pending {
                ticket,
                request: Request {
                    req,
                    submitted,
                    reference,
                },
            }),
            Ok(Submission::Duplicate(_)) => Err(format!("request {req}: unexpected duplicate")),
            Err(e) => Err(format!("request {req}: {e}")),
        }
    };
    let mut inflight = VecDeque::new();
    let mut tally = Tally::default();
    let mut next = 0u64;
    // Inputs and references are made before the first submission, so a
    // refill reaches the admission queue as one burst.
    let mut refill = |inflight: &mut VecDeque<Pending>, tally: &mut Tally| {
        let batch: Vec<(u64, Tensor, Tensor)> = (next..next + (IN_FLIGHT - inflight.len()) as u64)
            .map(|req| {
                let image = net.sample_image(image_seed(seed, req));
                let reference = net.circuit.eval(std::slice::from_ref(&image));
                (req, image, reference)
            })
            .collect();
        next += batch.len() as u64;
        for (req, image, reference) in batch {
            match submit(req, image, reference) {
                Ok(p) => inflight.push_back(p),
                Err(e) => {
                    tally.attempted += 1;
                    tally.errors.push(Json::Str(e));
                }
            }
        }
    };
    let resolve = |p: Request, result: Result<InferResponse, ServeError>, tally: &mut Tally| {
        let completed = Instant::now();
        tally.attempted += 1;
        match result {
            Ok(resp) if !resp.degraded => {
                let check = report::check(&resp.output, &p.reference);
                if !check.ok {
                    tally
                        .errors
                        .push(Json::Str(format!("request {}: {check:?}", p.req)));
                }
                tally.done.push(Done {
                    submitted: p.submitted,
                    completed,
                    check,
                    degraded_rotations: resp.report.degraded_rotations,
                });
            }
            Ok(_) => tally
                .errors
                .push(Json::Str(format!("request {}: degraded route", p.req))),
            Err(e) => tally
                .errors
                .push(Json::Str(format!("request {}: {e}", p.req))),
        }
    };

    refill(&mut inflight, &mut tally);
    let mut setup: Option<(Instant, ServiceStats, u64)> = None;
    let window_end = loop {
        let Some(front) = inflight.pop_front() else {
            return Err("no request in flight".into());
        };
        let result = front.ticket.wait();
        resolve(front.request, result, &mut tally);
        // Take the rest of the batch that just finished, so the window
        // closes on a batch boundary.
        while let Some(result) = inflight
            .front()
            .and_then(|p| poll_within(&p.ticket, SETTLE))
        {
            if let Some(p) = inflight.pop_front() {
                resolve(p.request, result, &mut tally);
            }
        }
        let now = Instant::now();
        match setup {
            None if tally.done.iter().any(|d| d.check.ok) => {
                setup = Some((now, svc.stats(), B::pool_stats().1));
            }
            None if tally.errors.len() >= IN_FLIGHT => {
                let first = tally.errors[0].render();
                return Err(format!("no verified response in set-up: {first}"));
            }
            Some((setup_end, ..))
                if now - setup_end >= cfg.seconds
                    && tally.done.iter().any(|d| d.submitted >= setup_end) =>
            {
                break now;
            }
            _ => {}
        }
        refill(&mut inflight, &mut tally);
    };
    let Some((setup_end, before, miss0)) = setup else {
        return Err("set-up never finished".into());
    };
    let after = svc.stats();
    let pool_miss = B::pool_stats().1 - miss0;
    let abandoned = inflight.len();
    for p in &inflight {
        p.ticket.cancel();
    }
    drop(inflight);
    svc.shutdown_with_deadline(Duration::from_secs(5));
    Ok(Driven {
        start_ms: report::ms(s1 - s0),
        setup_end,
        window_end,
        tally,
        abandoned,
        before,
        after,
        pool_miss,
    })
}

/// Runs the serving workload.
pub fn run<B: Backend>(cfg: &RunConfig) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let store = cfg
        .out_dir
        .join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).map_err(|e| format!("creating {}: {e}", store.display()))?;
    let log = Arc::new(Mutex::new(FactoryLog::default()));
    let trace = cfg.trace.then(Trace::batched);
    let driven = match &trace {
        Some(t) => {
            let t = Arc::clone(t);
            drive::<B, _, _>(cfg, &store, &log, move |h| Traced::new(h, Arc::clone(&t)))
        }
        None => drive::<B, _, _>(cfg, &store, &log, |h| h),
    };
    let _ = std::fs::remove_dir_all(&store);
    let d = driven?;

    let mut out = Outcome::default();
    let first_ok = d
        .tally
        .done
        .iter()
        .filter(|r| r.check.ok)
        .map(|r| r.completed)
        .min();
    let setup_s = (first_ok.unwrap_or(d.setup_end) - t0).as_secs_f64();
    let window_s = (d.window_end - d.setup_end).as_secs_f64();
    let served = d
        .tally
        .done
        .iter()
        .filter(|r| r.check.ok && r.completed > d.setup_end && r.completed <= d.window_end)
        .count();
    let sampled: Vec<&Done> = d
        .tally
        .done
        .iter()
        .filter(|r| r.check.ok && r.submitted >= d.setup_end)
        .collect();
    let latencies: Vec<f64> = sampled
        .iter()
        .map(|r| (r.completed - r.submitted).as_secs_f64())
        .collect();
    let worst = Worst::of(d.tally.done.iter().map(|r| &r.check));
    out.attempted = d.tally.attempted;
    out.failed = d.tally.errors.len() as u64;
    out.end_to_end(setup_s, &latencies, served, window_s, &worst);
    out.note("abandoned_at_end", num(d.abandoned as f64));
    out.note("errors", Json::Arr(d.tally.errors.clone()));
    out.note("network", Json::Str(NETWORK.into()));

    if let Some(t) = &trace {
        let (before, after) = (&d.before, &d.after);
        let delta = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.layer("serve.start_ms", d.start_ms);
        out.layer(
            "serve.batch_width",
            ratio(delta(|s| s.batched_requests), delta(|s| s.batches_formed)),
        );
        out.layer(
            "serve.journal_records_per_fsync",
            ratio(delta(|s| s.journal_records), delta(|s| s.journal_fsyncs)),
        );
        out.layer("serve.retries", after.retries as f64);
        out.layer("serve.degraded", after.degraded as f64);
        out.layer("serve.shed", after.shed as f64);
        out.layer("ckks.pool_miss", d.pool_miss as f64);
        out.layer("check.max_abs_err", worst.max_abs_err);
        out.layer("trace.latency_p50_s", median(&latencies));
        out.layer(
            "runtime.degraded_rotations",
            median(
                &sampled
                    .iter()
                    .map(|r| r.degraded_rotations as f64)
                    .collect::<Vec<_>>(),
            ),
        );

        let spans = t.finish();
        let (setup_ns, window_ns) = (t.ns(d.setup_end), t.ns(d.window_end));
        let mut calls: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.kind == Kind::Hisa) {
            calls.entry(s.parent).or_default().push(s);
        }
        let named = |batch: u64, name: &str| -> Vec<&Span> {
            calls.get(&batch).map_or(Vec::new(), |c| {
                c.iter().filter(|s| s.name == name).copied().collect()
            })
        };
        // A batch cancelled when the run ends never decrypts; the window's
        // batches are the completed ones that finished inside it.
        let completed: Vec<&Span> = spans
            .iter()
            .filter(|s| s.kind == Kind::Batch && !named(s.id, "decrypt").is_empty())
            .collect();
        let window: Vec<&Span> = completed
            .iter()
            .filter(|b| b.end_ns > setup_ns && b.end_ns <= window_ns)
            .copied()
            .collect();
        let ids: Vec<u64> = window.iter().map(|b| b.id).collect();
        out.samples("per_layer", ids.len());
        out.layer(
            "serve.batch_eval_ms",
            median(&window.iter().map(|b| b.ms()).collect::<Vec<_>>()),
        );
        // A request was served by the last batch to finish before its
        // reply; it waited from submission to that batch's first encrypt.
        let waits: Vec<f64> = sampled
            .iter()
            .filter_map(|r| {
                let done_ns = t.ns(r.completed);
                let b = completed.iter().rev().find(|b| b.end_ns <= done_ns)?;
                let encrypt = named(b.id, "encrypt").first()?.start_ns;
                Some((encrypt as f64 - t.ns(r.submitted) as f64) / 1e6)
            })
            .collect();
        out.layer("serve.queue_wait_ms", median(&waits));

        // Client-side work and evaluation proper within each batch.
        let total = |v: &[&Span]| v.iter().map(|s| s.ms()).sum::<f64>();
        let mut encrypt = Vec::new();
        let mut decrypt = Vec::new();
        let mut eval = Vec::new();
        for &id in &ids {
            let (enc, dec) = (named(id, "encrypt"), named(id, "decrypt"));
            encrypt.push(total(&enc));
            decrypt.push(total(&dec) + total(&named(id, "decode")));
            let last_encrypt = enc.iter().map(|s| s.end_ns).max();
            if let (Some(a), Some(b)) = (last_encrypt, dec.first()) {
                eval.push(b.start_ns.saturating_sub(a) as f64 / 1e6);
            }
        }
        out.layer("ckks.encrypt_ms", median(&encrypt));
        out.layer("ckks.decrypt_ms", median(&decrypt));
        layers::hisa_by_unit(&mut out, &spans, &ids);

        let log = lock(&log);
        out.layer(
            "ckks.keygen_ms",
            log.keygen_ms.first().copied().unwrap_or(0.0),
        );
        let net = chet_networks::try_reduced(NETWORK).map_err(|e| e.to_string())?;
        let compiler = Compiler::new(SchemeKind::RnsCkks).with_output_precision(precision());
        let (_, c0, c1) = timed(|| compiler.compile(&net.circuit, &scales()));
        out.layer("compiler.compile_ms", report::ms(c1 - c0));
        if let Some(compiled) = &log.compiled {
            let (predicted_ms, _) = layers::predicted(&mut out, &net.circuit, compiled, cfg)?;
            layers::compiler(&mut out, compiled);
            layers::eval_vs_predicted(&mut out, &eval, predicted_ms);
        }
        layers::write_trace(&mut out, &spans, cfg)?;
    }
    Ok(out)
}
