//! The load generator: one dispatcher thread offering queries to a fresh
//! [`QueryEngine`] either closed-loop (a fixed number of clients, each
//! sending its next query when the previous one completes) or open-loop (a
//! Poisson schedule fixed in advance, each query charged from its intended
//! arrival time, so an engine stall is charged to every query it delays).
//!
//! Bookkeeping is fixed-size whatever the throughput — latency histograms,
//! a ring of in-flight timestamps, answers checked and dropped as they are
//! drained — so a faster engine does not raise the run's peak memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use rand::rngs::SmallRng;
use rand::Rng;
use spine::engine::{EngineConfig, MetricsSnapshot, QueryEngine, QueryOutcome, ServeIndex};
use strindex::Code;

use crate::util::{median, stream, Clock, SPIN_NS};

#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// `clients` clients, each sending its next query after its previous
    /// one is answered and it has thought for [`THINK`].
    Closed { clients: usize },
    /// Poisson arrivals at `rate` queries/s.
    Open { rate: f64 },
}

/// A closed-loop client thinks for an exponential time with mean this share
/// of its last latency before it sends again. Without it, two clients
/// answered in one batch send again together, the engine coalesces them
/// again, and the pair stays in one of two throughput regimes for seconds
/// at a time (measured on `lsm-mixed`: 35–67 qps across runs of one seed,
/// against 24–28 with the think time).
pub const THINK: f64 = 0.1;

/// Log-linear histogram of nanosecond values: exact below 1024, then 1024
/// buckets per power of two (relative error under 0.1 %).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Hist {
        Hist { counts: vec![0; (SUB as usize) * 40], n: 0 }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (v >> shift) - SUB) as usize
    }

    /// Midpoint of bucket `b`.
    fn value(b: usize) -> f64 {
        let b = b as u64;
        if b < SUB {
            return b as f64;
        }
        let shift = b / SUB - 1;
        let low = (SUB + b % SUB) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn of(values: impl IntoIterator<Item = u64>) -> Hist {
        let mut h = Hist::default();
        values.into_iter().for_each(|v| h.record(v));
        h
    }

    pub fn record(&mut self, v: u64) {
        let b = Self::bucket(v).min(self.counts.len() - 1);
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `q` in ns; 0 when empty.
    pub fn pct(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank && c > 0 {
                return Self::value(b);
            }
        }
        0.0
    }

    pub fn pct_us(&self, q: f64) -> f64 {
        self.pct(q) / 1e3
    }

    pub fn mean(&self) -> f64 {
        let sum: f64 =
            self.counts.iter().enumerate().map(|(b, &c)| c as f64 * Self::value(b)).sum();
        if self.n == 0 {
            0.0
        } else {
            sum / self.n as f64
        }
    }
}

/// One answered query: which entry of the query list, and when it was due,
/// sent and answered (run-clock nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub query: u32,
    pub intended_ns: u64,
    pub submit_ns: u64,
    pub done_ns: u64,
}

/// Windows a phase is cut into by intended time; the phase's figures are
/// medians over them, so a passing disturbance of the host moves one
/// window, not the result.
pub const WINDOWS: usize = 5;

pub struct Phase {
    /// Latency from the intended time: the submission when closed-loop,
    /// the scheduled arrival when open-loop.
    pub latency: Hist,
    /// The same, per window.
    pub windows: Vec<Hist>,
    /// How late the dispatcher submitted (0 when closed-loop).
    pub lag: Hist,
    /// Sum of submit → answer times, ns.
    pub busy_ns: f64,
    pub answered: u64,
    /// Answers the check rejected.
    pub failed: u64,
    pub start_ns: u64,
    /// When the last answer arrived.
    pub end_ns: u64,
    /// How long queries were offered.
    pub span_ns: u64,
    pub engine: MetricsSnapshot,
}

impl Phase {
    /// Answers per second over the whole phase.
    pub fn qps(&self) -> f64 {
        self.answered as f64 * 1e9 / (self.end_ns - self.start_ns).max(1) as f64
    }

    /// Answers per second in each window.
    pub fn qps_per_window(&self) -> Vec<f64> {
        let secs = self.span_ns as f64 / 1e9 / WINDOWS as f64;
        self.windows.iter().map(|w| w.count() as f64 / secs).collect()
    }

    /// Median over windows of the answers per second.
    pub fn window_qps(&self) -> f64 {
        median(&self.qps_per_window())
    }

    /// Median over windows of latency percentile `q`, in µs.
    pub fn window_pct_us(&self, q: f64) -> f64 {
        median(&self.windows.iter().map(|w| w.pct_us(q)).collect::<Vec<_>>())
    }
}

/// Timestamps of in-flight queries, by id modulo the ring size; the
/// engine's admission queue bounds how many can be outstanding.
const RING: usize = 1 << 16;
/// Answers are drained (checked, then dropped) once this many pile up.
const DRAIN_EVERY: u64 = 4096;

struct Gate {
    in_flight: usize,
    intended: Vec<u64>,
    submit: Vec<u64>,
    done: Vec<u64>,
    /// When each idle closed-loop client sends again.
    ready: Vec<u64>,
    closed: bool,
    thinking: SmallRng,
}

/// Offer `queries[order[i % order.len()]]` as the `i`-th query for
/// `seconds`, through a fresh engine with the default configuration over
/// `index`, then drain it. `check` sees every answer once. Open-loop
/// arrivals derive from `seed`.
#[allow(clippy::too_many_arguments)]
pub fn run_phase<S: ServeIndex + 'static>(
    index: Arc<S>,
    clock: Clock,
    queries: &[Vec<Code>],
    order: &[u32],
    arrivals: Arrivals,
    seconds: f64,
    seed: u64,
    check: &mut dyn FnMut(&Sent, &QueryOutcome) -> bool,
) -> Phase {
    assert!(!order.is_empty(), "empty query order");
    let engine = QueryEngine::new(index, EngineConfig::default());
    let gate = Arc::new((
        Mutex::new(Gate {
            in_flight: 0,
            intended: vec![0; RING],
            submit: vec![0; RING],
            done: vec![0; RING],
            ready: Vec::new(),
            closed: matches!(arrivals, Arrivals::Closed { .. }),
            thinking: stream(seed, "think"),
        }),
        Condvar::new(),
    ));
    let answers_seen = Arc::new(AtomicU64::new(0));
    {
        let gate = Arc::clone(&gate);
        let answers_seen = Arc::clone(&answers_seen);
        engine.set_completion_hook(move |id| {
            let t = clock.now_ns();
            let (lock, cv) = &*gate;
            let mut g = lock.lock().expect("completion gate poisoned");
            let slot = id as usize % RING;
            g.in_flight -= 1;
            g.done[slot] = t;
            if g.closed {
                let u: f64 = g.thinking.gen_range(0.0..1.0);
                let think = -(1.0 - u).ln() * THINK * (t - g.submit[slot]) as f64;
                g.ready.push(t + think as u64);
            }
            answers_seen.fetch_add(1, Ordering::Relaxed);
            cv.notify_all();
        });
    }
    let mut phase = Phase {
        latency: Hist::default(),
        windows: vec![Hist::default(); WINDOWS],
        lag: Hist::default(),
        busy_ns: 0.0,
        answered: 0,
        failed: 0,
        start_ns: clock.now_ns(),
        end_ns: 0,
        span_ns: (seconds * 1e9) as u64,
        engine: MetricsSnapshot::default(),
    };
    let end = phase.start_ns + phase.span_ns;
    let mut schedule = stream(seed, "arrivals");
    let mut next_due = phase.start_ns as f64;
    let mut submitted = 0u64;
    let mut drain = |phase: &mut Phase| {
        let results = engine.drain();
        let (lock, cv) = &*gate;
        let mut g = lock.lock().expect("completion gate poisoned");
        // The hook fires just after a result is published, so drain can
        // return a moment before the last stamps land.
        while g.in_flight > 0 {
            g = cv.wait(g).expect("completion gate poisoned");
        }
        for r in results {
            let slot = r.id as usize % RING;
            let s = Sent {
                query: order[r.id as usize % order.len()],
                intended_ns: g.intended[slot],
                submit_ns: g.submit[slot],
                done_ns: g.done[slot],
            };
            phase.latency.record(s.done_ns - s.intended_ns);
            let w = (s.intended_ns - phase.start_ns) as u128 * WINDOWS as u128
                / phase.span_ns.max(1) as u128;
            phase.windows[(w as usize).min(WINDOWS - 1)].record(s.done_ns - s.intended_ns);
            phase.busy_ns += (s.done_ns - s.submit_ns) as f64;
            phase.end_ns = phase.end_ns.max(s.done_ns);
            phase.answered += 1;
            if !check(&s, &r.outcome) {
                phase.failed += 1;
            }
        }
    };
    loop {
        let intended_ns = match arrivals {
            Arrivals::Closed { clients } => {
                let (lock, cv) = &*gate;
                let mut g = lock.lock().expect("completion gate poisoned");
                if submitted == 0 {
                    g.ready = vec![phase.start_ns; clients];
                }
                let batch_full = submitted - phase.answered >= DRAIN_EVERY;
                loop {
                    let now = clock.now_ns();
                    let next = g.ready.iter().copied().enumerate().min_by_key(|&(_, t)| t);
                    match next {
                        _ if batch_full && g.in_flight > 0 => {}
                        Some((i, t)) if t <= now => {
                            g.ready.swap_remove(i);
                            break;
                        }
                        Some((_, t)) if t - now <= SPIN_NS => {
                            drop(g);
                            clock.sleep_until(t);
                            g = lock.lock().expect("completion gate poisoned");
                            continue;
                        }
                        Some((_, t)) => {
                            let wait = std::time::Duration::from_nanos(t - now - SPIN_NS);
                            g = cv.wait_timeout(g, wait).expect("completion gate poisoned").0;
                            continue;
                        }
                        None => {}
                    }
                    // Answers that come within the spin window are picked
                    // up without a wake-up.
                    let seen = answers_seen.load(Ordering::Relaxed);
                    drop(g);
                    let spin_end = clock.now_ns() + SPIN_NS;
                    while answers_seen.load(Ordering::Relaxed) == seen && clock.now_ns() < spin_end
                    {
                        std::hint::spin_loop();
                    }
                    g = lock.lock().expect("completion gate poisoned");
                    if answers_seen.load(Ordering::Relaxed) == seen {
                        g = cv.wait(g).expect("completion gate poisoned");
                    }
                }
                drop(g);
                if batch_full {
                    drain(&mut phase);
                }
                let now = clock.now_ns();
                if now >= end {
                    break;
                }
                now
            }
            Arrivals::Open { rate } => {
                let u: f64 = schedule.gen_range(0.0..1.0);
                next_due += -(1.0 - u).ln() * 1e9 / rate;
                let due = next_due as u64;
                if due >= end {
                    break;
                }
                let idle = gate.0.lock().expect("completion gate poisoned").in_flight == 0;
                let pending = submitted - phase.answered;
                if (idle && pending >= DRAIN_EVERY) || pending as usize >= RING / 2 {
                    drain(&mut phase);
                }
                clock.sleep_until(due);
                due
            }
        };
        let submit_ns = clock.now_ns();
        {
            let mut g = gate.0.lock().expect("completion gate poisoned");
            let slot = submitted as usize % RING;
            g.intended[slot] = intended_ns;
            g.submit[slot] = submit_ns;
            g.in_flight += 1;
        }
        phase.lag.record(submit_ns - intended_ns);
        let query = order[submitted as usize % order.len()];
        let id = engine.submit(queries[query as usize].clone()).expect("Block policy never sheds");
        assert_eq!(id, submitted, "a fresh engine numbers queries from 0");
        submitted += 1;
    }
    drain(&mut phase);
    phase.engine = engine.metrics();
    phase
}
