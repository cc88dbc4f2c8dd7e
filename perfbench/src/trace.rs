//! Spans around the benchmark's calls into the program, on a wall clock.
//!
//! Spans are buffered in call order while a cycle runs and recorded into a
//! [`cnr_obs::Obs`] handle when it ends, parents before children, so the
//! recorded forest satisfies [`cnr_obs::span::validate_tree`] (which needs
//! every parent id to precede its children's). Nothing here enters the
//! program: the spans sit at the benchmark's own call boundaries and in
//! the forwarding store wrapper.

use cnr_obs::{Obs, Span, SpanId, SpanKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Index of a buffered span within the current cycle.
pub type Node = usize;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Pending {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<Node>,
    kind: SpanKind,
    attrs: Vec<(&'static str, String)>,
}

/// The span buffer of a traced run.
pub struct Tracer {
    obs: Obs,
    pending: Mutex<Vec<Pending>>,
    /// Parent for spans the store wrapper records from worker threads.
    store_parent: AtomicUsize,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer on wall-clock time.
    pub fn new() -> Self {
        Self {
            obs: Obs::wall(),
            pending: Mutex::new(Vec::new()),
            store_parent: AtomicUsize::new(NO_PARENT),
        }
    }

    /// The handle spans are recorded into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Opens a sequential span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<Node>) -> Node {
        let now = self.obs.now();
        let mut p = self.pending.lock().expect("span buffer poisoned");
        p.push(Pending {
            name,
            start: now,
            end: now,
            parent,
            kind: SpanKind::Sync,
            attrs: Vec::new(),
        });
        p.len() - 1
    }

    /// Closes `node` now.
    pub fn end(&self, node: Node) {
        let now = self.obs.now();
        self.pending.lock().expect("span buffer poisoned")[node].end = now;
    }

    /// Annotates `node`.
    pub fn attr(&self, node: Node, key: &'static str, value: impl Into<String>) {
        self.pending.lock().expect("span buffer poisoned")[node]
            .attrs
            .push((key, value.into()));
    }

    /// Runs `f` inside a sequential span under `parent`; store calls made
    /// meanwhile become its children.
    pub fn scope<T>(&self, name: &'static str, parent: Option<Node>, f: impl FnOnce() -> T) -> T {
        let node = self.begin(name, parent);
        let previous = self.store_parent.swap(node, Ordering::SeqCst);
        let out = f();
        self.store_parent.store(previous, Ordering::SeqCst);
        self.end(node);
        out
    }

    /// Records a finished store call (possibly from a worker thread) as a
    /// concurrent child of the innermost open [`Tracer::scope`].
    pub fn store_call(&self, name: &'static str, start: Duration, bytes: u64) {
        let end = self.obs.now();
        let parent = match self.store_parent.load(Ordering::SeqCst) {
            NO_PARENT => None,
            p => Some(p),
        };
        self.pending
            .lock()
            .expect("span buffer poisoned")
            .push(Pending {
                name,
                start,
                end,
                parent,
                kind: SpanKind::Concurrent,
                attrs: vec![("bytes", bytes.to_string())],
            });
    }

    /// Current time on the tracer's clock.
    pub fn now(&self) -> Duration {
        self.obs.now()
    }

    /// Records every buffered span, parents first, and empties the buffer.
    pub fn flush(&self) {
        let pending = std::mem::take(&mut *self.pending.lock().expect("span buffer poisoned"));
        let mut ids: Vec<SpanId> = Vec::with_capacity(pending.len());
        for p in pending {
            let mut span = Span::new(p.name, p.start, p.end).with_kind(p.kind);
            if let Some(parent) = p.parent {
                span = span.with_parent(ids[parent]);
            }
            span.attrs = p.attrs;
            ids.push(self.obs.record(span));
        }
    }
}

/// Runs `f`, inside a [`Tracer::scope`] span when a tracer is given.
pub fn scoped<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<Node>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.scope(name, parent, f),
        None => f(),
    }
}

/// A `[start, end]` stamp pair.
type Interval = (Duration, Duration);

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<Interval>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<Interval> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every recorded span: its duration minus the part of it
/// its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, Duration> {
    let mut children: BTreeMap<SpanId, Vec<Interval>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map(union_len).unwrap_or_default();
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Per-root totals of self time by layer: for every root span named
/// `root`, the self time of its descendants summed per layer (the span
/// name up to its first `.`), plus the root's own self time under
/// `"unattributed"`. Concurrent siblings of one layer are merged by
/// union first, so a layer's total never exceeds the time it was busy.
pub fn layer_self_times(spans: &[Span], root: &str) -> Vec<BTreeMap<&'static str, Duration>> {
    let own = self_times(spans);
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_of = |s: &Span| {
        let mut id = s.id;
        let mut parent = s.parent;
        while let Some(p) = parent {
            id = p;
            parent = by_id[&p].parent;
        }
        id
    };
    // Concurrent spans of one layer under one parent: union, not sum.
    let mut concurrent: BTreeMap<(SpanId, SpanId, &'static str), Vec<Interval>> = BTreeMap::new();
    let mut per_root: BTreeMap<SpanId, BTreeMap<&'static str, Duration>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
    {
        per_root
            .entry(s.id)
            .or_default()
            .insert("unattributed", own[&s.id]);
    }
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let r = root_of(s);
        if !per_root.contains_key(&r) {
            continue;
        }
        let layer = layer_of(s.name);
        if s.kind == SpanKind::Concurrent {
            concurrent
                .entry((r, s.parent.expect("filtered"), layer))
                .or_default()
                .push((s.start, s.end));
        } else {
            *per_root
                .get_mut(&r)
                .expect("checked")
                .entry(layer)
                .or_default() += own[&s.id];
        }
    }
    for ((r, _, layer), intervals) in concurrent {
        *per_root
            .get_mut(&r)
            .expect("checked")
            .entry(layer)
            .or_default() += union_len(intervals);
    }
    per_root.into_values().collect()
}

/// The layer a span belongs to: its name up to the first `.`.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_form_a_valid_tree_with_reconciling_self_times() {
        let t = Tracer::new();
        let root = t.begin("cycle", None);
        t.scope("write.call", Some(root), || {
            let s = t.now();
            std::thread::sleep(Duration::from_millis(2));
            t.store_call("storage.put", s, 10);
        });
        t.end(root);
        t.flush();
        let spans = t.obs().spans();
        cnr_obs::span::validate_tree(&spans).expect("valid tree");
        let layers = layer_self_times(&spans, "cycle");
        assert_eq!(layers.len(), 1);
        let total: Duration = layers[0].values().sum();
        let root_span = spans.iter().find(|s| s.name == "cycle").unwrap();
        assert_eq!(
            total,
            root_span.duration(),
            "layer self times tile the root"
        );
        assert!(layers[0]["storage"] >= Duration::from_millis(2));
    }

    #[test]
    fn union_merges_overlaps() {
        let ms = Duration::from_millis;
        assert_eq!(
            union_len(vec![(ms(0), ms(5)), (ms(3), ms(8)), (ms(10), ms(11))]),
            ms(9)
        );
    }
}
