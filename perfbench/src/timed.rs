//! The layer-timing scheduler wrapper of the traced run.
//!
//! [`Timed`] forwards every [`Scheduler`] method to the wrapped scheduler,
//! `round_policy` and `adopt_policy` included (the sharded driver swaps
//! policy stacks through `round_policy`, so a wrapper that dropped it
//! would change the run it measures). It times the calls the platform
//! makes into the scheduler layer and counts their outcomes; it never
//! alters an argument or a return value, so a traced run's simulated
//! outcome is bit-identical to the untraced one.

use esg_model::{Config, NodeId};
use esg_sim::{
    Capabilities, Outcome, PolicySpec, PolicyStack, QueueKey, RoundCtx, SchedCtx, Scheduler,
    SchedulerEvent, SchedulerStats,
};
use std::time::Instant;

/// What the traced run recorded at the scheduler boundary.
#[derive(Default)]
pub struct Ledger {
    /// Wall time of every `schedule_round` call, ns (saturating).
    pub round_ns: Vec<u32>,
    /// Total `schedule_round` wall time, ns.
    pub round_busy_ns: u64,
    /// Decisions the rounds returned.
    pub decisions: u64,
    /// Decisions that neither dispatched nor shed (empty candidates).
    pub skips: u64,
    /// `place` calls.
    pub place_calls: u64,
    /// `place` calls that found no node.
    pub place_fails: u64,
    /// Total `place` wall time, ns.
    pub place_busy_ns: u64,
    /// `on_event` calls.
    pub event_calls: u64,
    /// Total `on_event` wall time, ns.
    pub event_busy_ns: u64,
    /// Invocations whose final stage was dispatched (each completes when
    /// that task does, so after a drained run this counts completions,
    /// warm-up included).
    pub sink_dispatched: u64,
}

/// A scheduler wrapped with a [`Ledger`].
pub struct Timed<S> {
    inner: S,
    /// Sink stage of every application, `AppId` order.
    sinks: Vec<usize>,
    /// The recorded spans and counts.
    pub ledger: Ledger,
}

impl<S: Scheduler> Timed<S> {
    /// Wraps `inner`; `sinks[a]` is the single final stage of app `a`.
    pub fn new(inner: S, sinks: Vec<usize>) -> Timed<S> {
        Timed {
            inner,
            sinks,
            ledger: Ledger::default(),
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    // Not timed: the platform reaches `schedule` only through
    // `schedule_round`, whose span already covers it.
    fn schedule(&mut self, ctx: &SchedCtx<'_>) -> Outcome {
        self.inner.schedule(ctx)
    }

    fn place(&mut self, ctx: &SchedCtx<'_>, config: Config) -> Option<NodeId> {
        let t0 = Instant::now();
        let node = self.inner.place(ctx, config);
        self.ledger.place_busy_ns += elapsed_ns(t0);
        self.ledger.place_calls += 1;
        self.ledger.place_fails += u64::from(node.is_none());
        node
    }

    fn round_policy(&mut self) -> Option<&mut PolicyStack> {
        self.inner.round_policy()
    }

    fn adopt_policy(&mut self, spec: &PolicySpec) -> bool {
        self.inner.adopt_policy(spec)
    }

    fn schedule_round(&mut self, ctx: &RoundCtx<'_>) -> Vec<(QueueKey, Outcome)> {
        let t0 = Instant::now();
        let decisions = self.inner.schedule_round(ctx);
        let ns = elapsed_ns(t0);
        let ledger = &mut self.ledger;
        ledger.round_busy_ns += ns;
        ledger.round_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        ledger.decisions += decisions.len() as u64;
        ledger.skips += decisions
            .iter()
            .filter(|(_, o)| o.candidates.is_empty() && o.shed.is_none())
            .count() as u64;
        decisions
    }

    fn on_event(&mut self, event: &SchedulerEvent<'_>) {
        let t0 = Instant::now();
        self.inner.on_event(event);
        self.ledger.event_busy_ns += elapsed_ns(t0);
        self.ledger.event_calls += 1;
        if let SchedulerEvent::Dispatched {
            key, invocations, ..
        } = *event
        {
            if self.sinks[key.app.index()] == key.stage {
                self.ledger.sink_dispatched += invocations.len() as u64;
            }
        }
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}
