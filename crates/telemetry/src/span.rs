//! Hierarchical RAII span timers.
//!
//! A [`SpanGuard`] measures wall-clock time from creation to drop and folds
//! the measurement into a process-global registry keyed by the span's
//! dotted path. Nesting is tracked per thread: opening `"analysis"` while
//! `"osse.cycle"` is active records under `"osse.cycle.analysis"`. A
//! thread spawned for part of a span's work starts with an empty path;
//! [`SpanParent`] carries the spawning thread's path over to it.
//!
//! The registry is sharded (path-hash → shard) so concurrent spans from
//! rayon workers rarely contend on the same lock.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

const SHARDS: usize = 16;

/// Aggregated timing for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Dotted span path, e.g. `"osse.cycle.analysis"`.
    pub path: String,
    /// Number of completed spans recorded under this path.
    pub count: u64,
    /// Total wall-clock seconds across all completions.
    pub total_secs: f64,
    /// Shortest single completion, seconds.
    pub min_secs: f64,
    /// Longest single completion, seconds.
    pub max_secs: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    count: u64,
    total_secs: f64,
    min_secs: f64,
    max_secs: f64,
}

struct Registry {
    shards: [Mutex<HashMap<String, Accum>>; SHARDS],
}

impl Registry {
    fn new() -> Self {
        Registry { shards: std::array::from_fn(|_| Mutex::new(HashMap::new())) }
    }

    fn shard_for(&self, path: &str) -> &Mutex<HashMap<String, Accum>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        &self.shards[(h as usize) % SHARDS]
    }

    fn record(&self, path: &str, secs: f64) {
        let mut shard = self.shard_for(path).lock();
        let a = shard.entry(path.to_string()).or_default();
        if a.count == 0 {
            a.min_secs = secs;
            a.max_secs = secs;
        } else {
            a.min_secs = a.min_secs.min(secs);
            a.max_secs = a.max_secs.max(secs);
        }
        a.count += 1;
        a.total_secs += secs;
    }
}

static REGISTRY: std::sync::LazyLock<Registry> = std::sync::LazyLock::new(Registry::new);

thread_local! {
    /// Stack of active span names on this thread, joined with '.' to form
    /// the full path of newly opened spans.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span!`](crate::span!); records on drop.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    /// `None` when telemetry is disabled — drop is then a no-op.
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    path: String,
    start: Instant,
}

/// Opens a span named `name` under the thread's current span path.
///
/// Use the [`span!`](crate::span!) macro rather than calling this directly.
#[inline]
pub fn span_enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join(".")
    });
    SpanGuard { active: Some(ActiveSpan { path, start: Instant::now() }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let secs = active.start.elapsed().as_secs_f64();
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            REGISTRY.record(&active.path, secs);
        }
    }
}

/// The span path open on some thread, captured with [`span_parent`] to
/// nest the spans of a worker thread under it.
#[derive(Debug, Clone, Default)]
pub struct SpanParent(Vec<&'static str>);

/// Captures the calling thread's open span path (empty when telemetry is
/// disabled, since then no span is pushed).
pub fn span_parent() -> SpanParent {
    SpanParent(SPAN_STACK.with(|stack| stack.borrow().clone()))
}

impl SpanParent {
    /// Opens the captured path on the calling thread until the guard
    /// drops, so spans opened meanwhile record under it. The path itself
    /// records nothing: its time belongs to the thread that opened it.
    pub fn adopt(&self) -> AdoptedParent {
        let depth = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let depth = stack.len();
            stack.extend_from_slice(&self.0);
            depth
        });
        AdoptedParent { depth }
    }
}

/// Guard returned by [`SpanParent::adopt`]; closes the adopted path on drop.
#[must_use = "the adopted path closes when the guard drops"]
pub struct AdoptedParent {
    depth: usize,
}

impl Drop for AdoptedParent {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| stack.borrow_mut().truncate(self.depth));
    }
}

/// Snapshot of all recorded span statistics, sorted by path.
pub fn span_snapshot() -> Vec<SpanStat> {
    let mut out = Vec::new();
    for shard in &REGISTRY.shards {
        for (path, a) in shard.lock().iter() {
            out.push(SpanStat {
                path: path.clone(),
                count: a.count,
                total_secs: a.total_secs,
                min_secs: a.min_secs,
                max_secs: a.max_secs,
            });
        }
    }
    out.sort_by(|x, y| x.path.cmp(&y.path));
    out
}

/// Clears all recorded span statistics.
pub fn reset_spans() {
    for shard in &REGISTRY.shards {
        shard.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_paths_and_counts() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _outer = crate::span!("outer");
            for _ in 0..3 {
                let _inner = crate::span!("inner");
            }
        }
        let snap = span_snapshot();
        let outer = snap.iter().find(|s| s.path == "outer").unwrap();
        let inner = snap.iter().find(|s| s.path == "outer.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 3);
        assert!(outer.total_secs >= inner.total_secs, "parent covers children");
        assert!(inner.min_secs <= inner.max_secs);
    }

    #[test]
    fn adopted_parent_nests_worker_spans() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_spans();
        {
            let _outer = crate::span!("outer");
            let parent = span_parent();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _adopted = parent.adopt();
                    let _inner = crate::span!("worker");
                });
            });
        }
        let paths: Vec<String> = span_snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(paths, ["outer", "outer.worker"]);
    }

    #[test]
    fn disabled_records_nothing() {
        let _lock = crate::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_spans();
        crate::set_enabled(false);
        {
            let _g = crate::span!("ghost");
        }
        crate::set_enabled(true);
        assert!(span_snapshot().iter().all(|s| s.path != "ghost"));
    }
}
