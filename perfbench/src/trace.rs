//! Outside-in span recorder.
//!
//! The benchmark times each layer by wrapping calls into its public
//! functions in a [`span`]. A span records `{name, start, end, parent,
//! session}`; spans are kept in memory (one recorder per thread) and
//! written out when the run ends. A layer's self time is its span's
//! duration minus the time its child spans cover. When recording is
//! off, [`span`] is a thread-local flag test around the call.

use betze::json::{json, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    session: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        session: 0,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Turns recording on or off for this thread. Turning it on clears
/// earlier spans.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.spans.clear();
        r.stack.clear();
        r.epoch = Instant::now();
    });
}

/// Tags the spans opened from now on with a session id.
pub fn set_session(session: u64) {
    RECORDER.with(|r| r.borrow_mut().session = session);
}

/// Runs `f` inside a span named `name` (when recording is on).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let index = r.spans.len();
        let span = Span {
            name,
            start: nanos_since(r.epoch),
            end: 0,
            parent: r.stack.last().copied(),
            session: r.session,
        };
        r.spans.push(span);
        r.stack.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = nanos_since(r.epoch);
            r.spans[index].end = end;
            r.stack.pop();
        });
    }
    out
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` with recording suspended (its calls record no spans).
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was_on = RECORDER.with(|r| std::mem::replace(&mut r.borrow_mut().on, false));
    let out = f();
    RECORDER.with(|r| r.borrow_mut().on = was_on);
    out
}

/// Takes this thread's recorded spans, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Appends spans recorded on another thread to this thread's list.
pub fn adopt(spans: Vec<Span>) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let offset = r.spans.len();
        r.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    });
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total: Duration,
    pub self_time: Duration,
}

/// Sums each span name's call count, total time and self time (the
/// span's duration minus its direct children's durations).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_time = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_time[parent] += span.end - span.start;
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_time) {
        let total = span.end - span.start;
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total += Duration::from_nanos(total);
        entry.self_time += Duration::from_nanos(total.saturating_sub(children));
    }
    out
}

/// The span list as JSON, one object per span.
pub fn dump(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": (s.name),
                    "start_ns": (s.start as i64),
                    "end_ns": (s.end as i64),
                    "parent": (s.parent.map_or(Value::Null, |p| Value::from(p as i64))),
                    "session": (s.session as i64),
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span("outer", || {
            span("inner", || std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(10));
        });
        let spans = take();
        set_enabled(false);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&spans);
        let outer = t["outer"];
        let inner = t["inner"];
        assert!(outer.total >= inner.total + Duration::from_millis(10));
        assert_eq!(outer.self_time, outer.total - inner.total);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        set_enabled(false);
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
    }
}
