//! In-memory tracing for the benchmark's traced runs.
//!
//! Three sources feed one [`Trace`]:
//! * the benchmark's own code records a span around each phase it drives
//!   (compile, keygen, encrypt, wire hops, evaluate, decrypt, serve calls);
//! * [`NodeClock`], an [`ExecObserver`], records one span per circuit node;
//! * [`Traced`], a timing [`Hisa`] wrapper handed to the backend slot,
//!   records one span per HISA call, named by op family.
//!
//! Spans stay in memory and are written out once, when the run ends.
//! Untraced runs use none of this: they hand the executor the bare backend.

use chet_hisa::{Hisa, HisaError};
use chet_runtime::exec::ExecObserver;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// HISA op families the wrapper buckets calls into. The first eight are
/// the per-layer `hisa.<family>.*` metrics; the last three are the
/// client-side calls a serving worker also issues.
pub const FAMILIES: [&str; 11] = [
    "rotate",
    "rotate_hoisted",
    "mul",
    "mul_plain",
    "mul_scalar",
    "add",
    "rescale",
    "encode",
    "encrypt",
    "decrypt",
    "decode",
];

const ROTATE: &str = FAMILIES[0];
const ROTATE_HOISTED: &str = FAMILIES[1];
const MUL: &str = FAMILIES[2];
const MUL_PLAIN: &str = FAMILIES[3];
const MUL_SCALAR: &str = FAMILIES[4];
const ADD: &str = FAMILIES[5];
const RESCALE: &str = FAMILIES[6];
const ENCODE: &str = FAMILIES[7];
const ENCRYPT: &str = FAMILIES[8];
const DECRYPT: &str = FAMILIES[9];
const DECODE: &str = FAMILIES[10];

/// Span kind: a benchmark phase, a circuit node, a HISA call, or a batch
/// of coalesced requests as seen by a serving worker's backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Phase,
    Node,
    Hisa,
    Batch,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Node => "node",
            Kind::Hisa => "hisa",
            Kind::Batch => "batch",
        }
    }
}

/// One timed interval. `req` is shared by every span of one request (or,
/// on the serving path, of one batch); `parent` is the enclosing span's id
/// (0 at the root). Times are nanoseconds since the trace's epoch. `n` is
/// the rotation-step count of a HISA rotation call and 1 otherwise.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub kind: Kind,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub n: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Where HISA spans attach: the request id and parent span id the next
/// backend call belongs to.
#[derive(Debug, Clone, Copy, Default)]
struct Context {
    req: u64,
    parent: u64,
}

/// State a serving worker's wrapper keeps to cut its call stream into
/// batches: a batch opens at the first call after a `decrypt`/`decode`
/// (the input's encode) and ends at its last `decrypt`/`decode`.
#[derive(Debug, Default)]
struct Cohorts {
    open: Option<Span>,
    /// A `decrypt`/`decode` has run since the open batch began.
    drained: bool,
}

/// The span store shared by every recorder of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    ctx: Mutex<Context>,
    /// `Some` when the traced backend encrypts and decrypts itself and its
    /// call stream is cut into batches.
    cohorts: Option<Mutex<Cohorts>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every critical section leaves the data valid, so a poisoned lock is
    // still usable.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Trace {
    /// A trace whose HISA spans attach to the context set by [`Trace::enter`].
    pub fn new() -> Arc<Self> {
        Self::build(None)
    }

    /// A trace whose HISA spans attach to batches cut from the call stream.
    pub fn batched() -> Arc<Self> {
        Self::build(Some(Mutex::new(Cohorts::default())))
    }

    fn build(cohorts: Option<Mutex<Cohorts>>) -> Arc<Self> {
        Arc::new(Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            ctx: Mutex::new(Context::default()),
            cohorts,
        })
    }

    /// Nanoseconds since the trace's epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span with a pre-assigned id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        req: u64,
        kind: Kind,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            kind,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            n: 1,
        };
        lock(&self.spans).push(span);
    }

    /// Points subsequent HISA spans at `(req, parent)`.
    pub fn enter(&self, req: u64, parent: u64) {
        *lock(&self.ctx) = Context { req, parent };
    }

    fn context(&self) -> Context {
        *lock(&self.ctx)
    }

    fn hisa(&self, family: &'static str, n: u32, start: Instant, end: Instant) {
        let (req, parent) = match self.cohort(family, start, end) {
            Some(batch) => (batch, batch),
            None => {
                let c = self.context();
                (c.req, c.parent)
            }
        };
        let span = Span {
            id: self.fresh_id(),
            parent,
            req,
            kind: Kind::Hisa,
            name: Cow::Borrowed(family),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            n,
        };
        lock(&self.spans).push(span);
    }

    /// Batch bookkeeping for a backend that encrypts and decrypts itself
    /// (a serving worker). Returns the open batch's id, if any.
    fn cohort(&self, family: &'static str, start: Instant, end: Instant) -> Option<u64> {
        let mut c = lock(self.cohorts.as_ref()?);
        let client_out = family == DECRYPT || family == DECODE;
        if !client_out && (c.open.is_none() || c.drained) {
            if let Some(done) = c.open.take() {
                lock(&self.spans).push(done);
            }
            let id = self.fresh_id();
            c.open = Some(Span {
                id,
                parent: 0,
                req: id,
                kind: Kind::Batch,
                name: Cow::Borrowed("batch"),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                n: 1,
            });
            c.drained = false;
        }
        let end_ns = self.ns(end);
        c.drained |= client_out;
        c.open.as_mut().map(|b| {
            if client_out {
                b.end_ns = end_ns;
            }
            b.id
        })
    }

    /// Closes any open batch and returns every span, sorted by start time.
    pub fn finish(&self) -> Vec<Span> {
        if let Some(done) = self.cohorts.as_ref().and_then(|c| lock(c).open.take()) {
            lock(&self.spans).push(done);
        }
        let mut spans = std::mem::take(&mut *lock(&self.spans));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` as phase `name` of request `req` and returns its result and
/// wall time in milliseconds. When tracing, `f` receives the phase's span
/// id and HISA calls made inside it attach to the phase.
pub fn phase<T>(
    trace: Option<&Arc<Trace>>,
    req: u64,
    parent: u64,
    name: &'static str,
    f: impl FnOnce(u64) -> T,
) -> (T, f64) {
    let id = trace.map_or(0, |t| t.fresh_id());
    if let Some(t) = trace {
        t.enter(req, id);
    }
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    if let Some(t) = trace {
        t.record(id, parent, req, Kind::Phase, name, start, end);
    }
    (out, (end - start).as_secs_f64() * 1e3)
}

/// Writes spans as JSON lines: one object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"kind\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
            s.id,
            s.parent,
            s.req,
            s.kind.as_str(),
            chet_hisa::json::escape(&s.name),
            s.start_ns,
            s.end_ns,
            s.n
        )?;
    }
    out.flush()
}

/// Marks circuit-node boundaries: the executor calls `on_op` before each
/// node, so node `i` runs from its mark to the next one (the last node
/// ends when the run returns, see [`NodeClock::finish`]).
pub struct NodeClock {
    trace: Arc<Trace>,
    req: u64,
    parent: u64,
    open: Option<(u64, usize, String, Instant)>,
}

impl NodeClock {
    pub fn new(trace: Arc<Trace>, req: u64, parent: u64) -> Self {
        NodeClock {
            trace,
            req,
            parent,
            open: None,
        }
    }

    fn close(&mut self, at: Instant) {
        if let Some((id, index, op, start)) = self.open.take() {
            self.trace.record(
                id,
                self.parent,
                self.req,
                Kind::Node,
                format!("node.{index}.{op}"),
                start,
                at,
            );
        }
    }

    /// Closes the last node at the end of the run.
    pub fn finish(&mut self) {
        self.close(Instant::now());
        self.trace.enter(self.req, self.parent);
    }
}

impl ExecObserver for NodeClock {
    fn on_op(&mut self, op_index: usize, op: &str) {
        let now = Instant::now();
        self.close(now);
        let id = self.trace.fresh_id();
        self.trace.enter(self.req, id);
        self.open = Some((id, op_index, op.to_string(), now));
    }
}

/// Timing [`Hisa`] wrapper: forwards every call to the inner backend and
/// records a span per call. It forwards the batched rotation entry points
/// and `fork`/`join`, so the traced program hoists rotations and fans out
/// exactly as the untraced one does.
pub struct Traced<H> {
    inner: H,
    trace: Arc<Trace>,
}

impl<H: Hisa> Traced<H> {
    pub fn new(inner: H, trace: Arc<Trace>) -> Self {
        Traced { inner, trace }
    }

    fn time<T>(&mut self, family: &'static str, n: usize, f: impl FnOnce(&mut H) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.trace.hisa(family, n as u32, start, Instant::now());
        out
    }
}

impl<H: Hisa> Hisa for Traced<H> {
    type Ct = H::Ct;
    type Pt = H::Pt;

    fn slots(&self) -> usize {
        self.inner.slots()
    }
    fn encode(&mut self, values: &[f64], scale: f64) -> H::Pt {
        self.time(ENCODE, 1, |h| h.encode(values, scale))
    }
    fn decode(&mut self, p: &H::Pt) -> Vec<f64> {
        self.time(DECODE, 1, |h| h.decode(p))
    }
    fn encrypt(&mut self, p: &H::Pt) -> H::Ct {
        self.time(ENCRYPT, 1, |h| h.encrypt(p))
    }
    fn decrypt(&mut self, c: &H::Ct) -> H::Pt {
        self.time(DECRYPT, 1, |h| h.decrypt(c))
    }
    fn copy(&mut self, c: &H::Ct) -> H::Ct {
        self.inner.copy(c)
    }
    fn rot_left(&mut self, c: &H::Ct, x: usize) -> H::Ct {
        self.time(ROTATE, 1, |h| h.rot_left(c, x))
    }
    fn rot_right(&mut self, c: &H::Ct, x: usize) -> H::Ct {
        self.time(ROTATE, 1, |h| h.rot_right(c, x))
    }
    fn rot_left_many(&mut self, c: &H::Ct, steps: &[usize]) -> Vec<H::Ct> {
        self.time(ROTATE_HOISTED, steps.len(), |h| h.rot_left_many(c, steps))
    }
    fn rot_right_many(&mut self, c: &H::Ct, steps: &[usize]) -> Vec<H::Ct> {
        self.time(ROTATE_HOISTED, steps.len(), |h| h.rot_right_many(c, steps))
    }
    fn add(&mut self, a: &H::Ct, b: &H::Ct) -> H::Ct {
        self.time(ADD, 1, |h| h.add(a, b))
    }
    fn add_plain(&mut self, a: &H::Ct, p: &H::Pt) -> H::Ct {
        self.time(ADD, 1, |h| h.add_plain(a, p))
    }
    fn add_scalar(&mut self, a: &H::Ct, x: f64) -> H::Ct {
        self.time(ADD, 1, |h| h.add_scalar(a, x))
    }
    fn sub(&mut self, a: &H::Ct, b: &H::Ct) -> H::Ct {
        self.time(ADD, 1, |h| h.sub(a, b))
    }
    fn sub_plain(&mut self, a: &H::Ct, p: &H::Pt) -> H::Ct {
        self.time(ADD, 1, |h| h.sub_plain(a, p))
    }
    fn sub_scalar(&mut self, a: &H::Ct, x: f64) -> H::Ct {
        self.time(ADD, 1, |h| h.sub_scalar(a, x))
    }
    fn mul(&mut self, a: &H::Ct, b: &H::Ct) -> H::Ct {
        self.time(MUL, 1, |h| h.mul(a, b))
    }
    fn mul_plain(&mut self, a: &H::Ct, p: &H::Pt) -> H::Ct {
        self.time(MUL_PLAIN, 1, |h| h.mul_plain(a, p))
    }
    fn mul_scalar(&mut self, a: &H::Ct, x: f64, scale: f64) -> H::Ct {
        self.time(MUL_SCALAR, 1, |h| h.mul_scalar(a, x, scale))
    }
    fn rescale(&mut self, c: &H::Ct, divisor: f64) -> H::Ct {
        self.time(RESCALE, 1, |h| h.rescale(c, divisor))
    }
    fn max_rescale(&mut self, c: &H::Ct, ub: f64) -> f64 {
        self.inner.max_rescale(c, ub)
    }
    fn scale_of(&self, c: &H::Ct) -> f64 {
        self.inner.scale_of(c)
    }

    fn rot_left_assign(&mut self, c: &mut H::Ct, x: usize) {
        self.time(ROTATE, 1, |h| h.rot_left_assign(c, x))
    }
    fn rot_right_assign(&mut self, c: &mut H::Ct, x: usize) {
        self.time(ROTATE, 1, |h| h.rot_right_assign(c, x))
    }
    fn add_assign(&mut self, a: &mut H::Ct, b: &H::Ct) {
        self.time(ADD, 1, |h| h.add_assign(a, b))
    }
    fn add_plain_assign(&mut self, a: &mut H::Ct, p: &H::Pt) {
        self.time(ADD, 1, |h| h.add_plain_assign(a, p))
    }
    fn add_scalar_assign(&mut self, a: &mut H::Ct, x: f64) {
        self.time(ADD, 1, |h| h.add_scalar_assign(a, x))
    }
    fn sub_assign(&mut self, a: &mut H::Ct, b: &H::Ct) {
        self.time(ADD, 1, |h| h.sub_assign(a, b))
    }
    fn sub_plain_assign(&mut self, a: &mut H::Ct, p: &H::Pt) {
        self.time(ADD, 1, |h| h.sub_plain_assign(a, p))
    }
    fn sub_scalar_assign(&mut self, a: &mut H::Ct, x: f64) {
        self.time(ADD, 1, |h| h.sub_scalar_assign(a, x))
    }
    fn mul_assign(&mut self, a: &mut H::Ct, b: &H::Ct) {
        self.time(MUL, 1, |h| h.mul_assign(a, b))
    }
    fn mul_plain_assign(&mut self, a: &mut H::Ct, p: &H::Pt) {
        self.time(MUL_PLAIN, 1, |h| h.mul_plain_assign(a, p))
    }
    fn mul_scalar_assign(&mut self, a: &mut H::Ct, x: f64, scale: f64) {
        self.time(MUL_SCALAR, 1, |h| h.mul_scalar_assign(a, x, scale))
    }
    fn rescale_assign(&mut self, c: &mut H::Ct, divisor: f64) {
        self.time(RESCALE, 1, |h| h.rescale_assign(c, divisor))
    }

    fn try_encode(&mut self, values: &[f64], scale: f64) -> Result<H::Pt, HisaError> {
        self.time(ENCODE, 1, |h| h.try_encode(values, scale))
    }
    fn try_rot_left(&mut self, c: &H::Ct, x: usize) -> Result<H::Ct, HisaError> {
        self.time(ROTATE, 1, |h| h.try_rot_left(c, x))
    }
    fn try_rot_right(&mut self, c: &H::Ct, x: usize) -> Result<H::Ct, HisaError> {
        self.time(ROTATE, 1, |h| h.try_rot_right(c, x))
    }
    fn try_rot_left_many(&mut self, c: &H::Ct, steps: &[usize]) -> Result<Vec<H::Ct>, HisaError> {
        self.time(ROTATE_HOISTED, steps.len(), |h| {
            h.try_rot_left_many(c, steps)
        })
    }
    fn try_rot_right_many(&mut self, c: &H::Ct, steps: &[usize]) -> Result<Vec<H::Ct>, HisaError> {
        self.time(ROTATE_HOISTED, steps.len(), |h| {
            h.try_rot_right_many(c, steps)
        })
    }
    fn try_add(&mut self, a: &H::Ct, b: &H::Ct) -> Result<H::Ct, HisaError> {
        self.time(ADD, 1, |h| h.try_add(a, b))
    }
    fn try_add_plain(&mut self, a: &H::Ct, p: &H::Pt) -> Result<H::Ct, HisaError> {
        self.time(ADD, 1, |h| h.try_add_plain(a, p))
    }
    fn try_add_scalar(&mut self, a: &H::Ct, x: f64) -> Result<H::Ct, HisaError> {
        self.time(ADD, 1, |h| h.try_add_scalar(a, x))
    }
    fn try_sub(&mut self, a: &H::Ct, b: &H::Ct) -> Result<H::Ct, HisaError> {
        self.time(ADD, 1, |h| h.try_sub(a, b))
    }
    fn try_sub_plain(&mut self, a: &H::Ct, p: &H::Pt) -> Result<H::Ct, HisaError> {
        self.time(ADD, 1, |h| h.try_sub_plain(a, p))
    }
    fn try_sub_scalar(&mut self, a: &H::Ct, x: f64) -> Result<H::Ct, HisaError> {
        self.time(ADD, 1, |h| h.try_sub_scalar(a, x))
    }
    fn try_mul(&mut self, a: &H::Ct, b: &H::Ct) -> Result<H::Ct, HisaError> {
        self.time(MUL, 1, |h| h.try_mul(a, b))
    }
    fn try_mul_plain(&mut self, a: &H::Ct, p: &H::Pt) -> Result<H::Ct, HisaError> {
        self.time(MUL_PLAIN, 1, |h| h.try_mul_plain(a, p))
    }
    fn try_mul_scalar(&mut self, a: &H::Ct, x: f64, scale: f64) -> Result<H::Ct, HisaError> {
        self.time(MUL_SCALAR, 1, |h| h.try_mul_scalar(a, x, scale))
    }
    fn try_rescale(&mut self, c: &H::Ct, divisor: f64) -> Result<H::Ct, HisaError> {
        self.time(RESCALE, 1, |h| h.try_rescale(c, divisor))
    }

    fn available_rotations(&self) -> Option<BTreeSet<usize>> {
        self.inner.available_rotations()
    }
    fn fork(&mut self) -> Option<Self> {
        let child = self.inner.fork()?;
        Some(Traced {
            inner: child,
            trace: Arc::clone(&self.trace),
        })
    }
    fn join(&mut self, child: Self) {
        self.inner.join(child.inner);
    }
    fn cancel_requested(&self) -> bool {
        self.inner.cancel_requested()
    }
}
