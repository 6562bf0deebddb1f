//! In-memory span recording from the benchmark's side of each layer
//! boundary, plus the wrapper types that put spans around the public
//! [`ForecastModel`] and [`AnalysisScheme`] calls a driver makes.
//!
//! A [`Tracer`] belongs to one thread (one rank). Spans stay in a `Vec`
//! until the run ends; nothing is written while the workload runs.

use da_core::{AnalysisScheme, ForecastModel};
use stats::Ensemble;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Cycle id of spans recorded outside any cycle.
pub const NO_CYCLE: i64 = -1;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sqg.forecast_ensemble`.
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Cycle the span belongs to ([`NO_CYCLE`] outside cycles).
    pub cycle: i64,
    /// Work items the call processed (members, particles), 0 if none.
    pub count: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    cycle: Cell<i64>,
    open_cycle: Cell<Option<usize>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between ranks so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: RefCell::new(Vec::with_capacity(256)),
            stack: RefCell::new(Vec::new()),
            cycle: Cell::new(NO_CYCLE),
            open_cycle: Cell::new(None),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&self, name: &'static str, count: u64) -> usize {
        let start = self.now();
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start,
            end: start,
            parent: stack.last().copied(),
            cycle: self.cycle.get(),
            count,
        });
        stack.push(id);
        id
    }

    fn close(&self, id: usize) {
        let end = self.now();
        self.spans.borrow_mut()[id].end = end;
        let popped = self.stack.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close in LIFO order");
    }

    /// Opens a span that closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        self.enter_counted(name, 0)
    }

    /// Opens a span carrying a work count.
    pub fn enter_counted(&self, name: &'static str, count: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.open(name, count),
        }
    }

    /// Closes the open cycle span (if any) and opens a `cycle` span for
    /// cycle `cycle`. Cycle spans are delimited by the calls a driver
    /// makes, so one cycle ends where the next begins.
    pub fn begin_cycle(&self, cycle: i64) {
        self.end_cycle();
        self.cycle.set(cycle);
        self.open_cycle.set(Some(self.open("cycle", 0)));
    }

    /// Closes the open cycle span, if any.
    pub fn end_cycle(&self) {
        if let Some(id) = self.open_cycle.take() {
            self.close(id);
            self.cycle.set(NO_CYCLE);
        }
    }

    /// Consumes the tracer, returning its spans in opening order.
    ///
    /// # Panics
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<Span> {
        self.end_cycle();
        assert!(self.stack.borrow().is_empty(), "a span is still open");
        self.spans.into_inner()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.close(self.id);
    }
}

/// A forecast model that records a span around every call into the
/// wrapped model (named `sqg.*`: the SQG model is the one wrapped) and
/// otherwise behaves exactly like it. Each
/// `forecast_ensemble` call starts a new cycle span: drivers call it once
/// per cycle, first.
pub struct TracedModel<'t, M> {
    inner: M,
    tracer: &'t Tracer,
    cycles: i64,
}

impl<'t, M: ForecastModel> TracedModel<'t, M> {
    /// Wraps `inner`.
    pub fn new(inner: M, tracer: &'t Tracer) -> Self {
        TracedModel {
            inner,
            tracer,
            cycles: 0,
        }
    }
}

impl<M: ForecastModel> ForecastModel for TracedModel<'_, M> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn forecast(&mut self, state: &mut [f64], hours: f64) {
        let _s = self.tracer.enter_counted("sqg.forecast", 1);
        self.inner.forecast(state, hours);
    }

    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        self.tracer.begin_cycle(self.cycles);
        self.cycles += 1;
        let _s = self
            .tracer
            .enter_counted("sqg.forecast_ensemble", ensemble.members() as u64);
        self.inner.forecast_ensemble(ensemble, hours);
    }

    fn assimilate_feedback(&mut self, prev_analysis: &[f64], curr_analysis: &[f64]) {
        let _s = self.tracer.enter("sqg.assimilate_feedback");
        self.inner.assimilate_feedback(prev_analysis, curr_analysis);
    }

    fn save_state(&mut self) -> Option<Vec<u8>> {
        let _s = self.tracer.enter("sqg.save_state");
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        let _s = self.tracer.enter("sqg.load_state");
        self.inner.load_state(bytes)
    }
}

/// An analysis scheme that records a span around every call into the
/// wrapped scheme and otherwise behaves exactly like it. The `&self`
/// accessors (`name`, `rng_state`) are delegated without a span.
pub struct TracedScheme<'t, S> {
    inner: S,
    tracer: &'t Tracer,
}

impl<'t, S: AnalysisScheme> TracedScheme<'t, S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TracedScheme { inner, tracer }
    }
}

impl<S: AnalysisScheme> AnalysisScheme for TracedScheme<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn analyze(&mut self, forecast: &Ensemble, observation: &[f64]) -> Ensemble {
        let _s = self
            .tracer
            .enter_counted("ensf.analyze", forecast.members() as u64);
        self.inner.analyze(forecast, observation)
    }

    fn rng_state(&self) -> (u64, u64) {
        self.inner.rng_state()
    }

    fn set_rng_state(&mut self, epoch: u64, seed: u64) {
        let _s = self.tracer.enter("ensf.set_rng_state");
        self.inner.set_rng_state(epoch, seed);
    }

    fn reseed(&mut self, seed: u64) {
        let _s = self.tracer.enter("ensf.reseed");
        self.inner.reseed(seed);
    }
}

/// Per-cycle coverage: how much of each cycle span its child spans
/// explain.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleCoverage {
    /// Rank (lane) the cycle ran on.
    pub rank: usize,
    /// Cycle id.
    pub cycle: i64,
    /// Cycle span duration, seconds.
    pub span_s: f64,
    /// Direct children as `(name, summed seconds)`, in first-seen order.
    pub children: Vec<(&'static str, f64)>,
}

impl CycleCoverage {
    /// Seconds of the cycle span its children explain.
    pub fn attributed_s(&self) -> f64 {
        self.children.iter().map(|(_, s)| s).sum()
    }

    /// Seconds of the cycle span no child explains.
    pub fn unattributed_s(&self) -> f64 {
        self.span_s - self.attributed_s()
    }
}

/// Coverage of every cycle span in `spans` (recorded on `rank`).
pub fn coverage(rank: usize, spans: &[Span]) -> Vec<CycleCoverage> {
    let mut out = Vec::new();
    for (id, span) in spans.iter().enumerate().filter(|(_, s)| s.name == "cycle") {
        let mut children: Vec<(&'static str, f64)> = Vec::new();
        for child in spans.iter().filter(|s| s.parent == Some(id)) {
            match children.iter_mut().find(|(n, _)| *n == child.name) {
                Some((_, secs)) => *secs += child.secs(),
                None => children.push((child.name, child.secs())),
            }
        }
        out.push(CycleCoverage {
            rank,
            cycle: span.cycle,
            span_s: span.secs(),
            children,
        });
    }
    out
}

/// Measured cost of recording one span (open + close), in seconds: the
/// median of several batches of empty spans.
pub fn span_cost_s() -> f64 {
    const BATCH: usize = 20_000;
    let mut per_batch: Vec<f64> = (0..5)
        .map(|_| {
            let tracer = Tracer::new(Instant::now());
            let t = Instant::now();
            for _ in 0..BATCH {
                drop(std::hint::black_box(tracer.enter("calibrate")));
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(tracer.finish());
            secs / BATCH as f64
        })
        .collect();
    per_batch.sort_by(f64::total_cmp);
    per_batch[per_batch.len() / 2]
}
