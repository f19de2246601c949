//! In-memory span ledger for the traced run.
//!
//! A span names one layer, the run or submission it belongs to, its
//! parent span, and the host-time interval it covers. Fine-grained
//! calls (a channel evaluation, a queue operation) would need millions
//! of spans per run, so such calls accumulate into one span per parent:
//! `calls` counts them, `busy_ns` sums their durations, and
//! `start_ns`..`end_ns` covers the first to the last. A span timing a
//! single call has `calls == 1` and `busy_ns == end_ns - start_ns`.
//!
//! Every ledger shares one process-wide epoch, so ledgers filled on
//! different runner threads merge into one timeline.

use std::io::Write;
use std::sync::OnceLock;
// detlint:allow(D1) the benchmark measures host time by definition; this is its one clock
use std::time::Instant;

// detlint:allow(D1) the benchmark measures host time by definition; this is its one clock
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the process-wide epoch.
pub fn now_ns() -> u64 {
    // detlint:allow(D1) the benchmark measures host time by definition; this is its one clock
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}

/// Marks "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded span (or one accumulation of same-named calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `phy80211p.transmit_cached`.
    pub name: &'static str,
    /// Run index or submission number the span belongs to.
    pub id: u64,
    /// Index of the parent span in the same ledger, or [`ROOT`].
    pub parent: u32,
    /// First call's start, host ns since the epoch.
    pub start_ns: u64,
    /// Last call's end, host ns since the epoch.
    pub end_ns: u64,
    /// Calls accumulated into this span.
    pub calls: u64,
    /// Sum of the calls' durations, ns.
    pub busy_ns: u64,
}

/// Spans of one thread of work, later merged with [`Ledger::absorb`].
#[derive(Debug, Default)]
pub struct Ledger {
    spans: Vec<Span>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an accumulating span with no calls yet; feed it with
    /// [`Ledger::add`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: u32) -> u32 {
        let now = now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
            calls: 0,
            busy_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Accumulates one call `[start_ns, end_ns)` into span `slot`.
    pub fn add(&mut self, slot: u32, start_ns: u64, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(slot as usize) {
            if s.calls == 0 {
                s.start_ns = start_ns;
            }
            s.calls += 1;
            s.busy_ns += end_ns.saturating_sub(start_ns);
            s.end_ns = end_ns;
        }
    }

    /// Accumulates `n` back-to-back calls timed as one interval — for
    /// loops too tight to read the clock around every call.
    pub fn add_n(&mut self, slot: u32, start_ns: u64, end_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.add(slot, start_ns, end_ns);
        if let Some(s) = self.spans.get_mut(slot as usize) {
            s.calls += n.saturating_sub(1);
        }
    }

    /// Times `f` as one single-call span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let slot = self.open(name, id, parent);
        let t0 = now_ns();
        let out = f();
        self.add(slot, t0, now_ns());
        out
    }

    /// Records an already-measured single call.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let slot = self.open(name, id, parent);
        self.add(slot, start_ns, end_ns);
        slot
    }

    /// Moves `other`'s spans into this ledger, re-basing their parent
    /// indices.
    pub fn absorb(&mut self, other: Ledger) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// `(calls, busy_ns)` summed over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(c, b), s| (c + s.calls, b + s.busy_ns))
    }

    /// Mean duration of one `name` call in `unit_ns` units (e.g. 1e3
    /// for µs); 0 when the layer was never called.
    pub fn per_call(&self, name: &str, unit_ns: f64) -> f64 {
        let (calls, busy) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            busy as f64 / calls as f64 / unit_ns
        }
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated rows (header first).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the underlying writer.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "index\tname\tid\tparent\tstart_ns\tend_ns\tcalls\tbusy_ns"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns, s.calls, s.busy_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulating_span_sums_calls_and_spans_first_to_last() {
        let mut l = Ledger::new();
        let s = l.open("x", 3, ROOT);
        l.add(s, 10, 15);
        l.add(s, 20, 30);
        let span = &l.spans()[0];
        assert_eq!((span.calls, span.busy_ns), (2, 15));
        assert_eq!((span.start_ns, span.end_ns), (10, 30));
        assert_eq!(l.per_call("x", 1.0), 7.5);
        assert_eq!(l.per_call("missing", 1.0), 0.0);
        l.add_n(s, 30, 40, 0);
        l.add_n(s, 40, 50, 3);
        assert_eq!(l.total("x"), (5, 25));
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Ledger::new();
        a.record("a", 0, ROOT, 0, 1);
        let mut b = Ledger::new();
        let root = b.record("job", 1, ROOT, 0, 9);
        b.record("leaf", 1, root, 2, 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, ROOT);
        assert_eq!(a.total("leaf"), (1, 1));
    }
}
