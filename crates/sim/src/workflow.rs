//! Workflow instances, jobs, and AFW queues.
//!
//! Each application invocation becomes a [`WorkflowInstance`] tracking one
//! job per DAG stage. A stage's job enters its app-function-wise (AFW)
//! queue (§3.1) once all predecessor stages complete; the controller drains
//! queues by dispatching batched tasks.

use crate::sched::JobView;
use esg_model::{AppId, AppSpec, InvocationId, NodeId, SimTime};

/// One job: one request at one stage of one invocation (§3.2 task model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job {
    /// Owning invocation.
    pub invocation: InvocationId,
    /// The invocation's slot in the platform's arena. Slots are recycled,
    /// so any dereference must check the slot still holds `invocation`
    /// (a shed invocation's sibling jobs can outlive it).
    pub slot: u32,
    /// Stage index within the app DAG.
    pub stage: usize,
    /// When the job entered its AFW queue.
    pub ready_at: SimTime,
    /// Node that produced this job's input (`None` for entry stages, whose
    /// input arrives from the gateway / remote storage).
    pub pred_node: Option<NodeId>,
}

/// An app-function-wise job queue: requests for the same function of the
/// same application (§3.1).
///
/// Each job's scheduler-facing [`JobView`] is built once, at enqueue, and
/// stored alongside the job: views are time-invariant (slack derives
/// from the round's `now_ms`), so rounds and placements borrow
/// [`views`](Self::views) in place instead of rebuilding them per step.
///
/// Storage is two parallel `Vec`s sharing a head offset. [`take`](Self::take)
/// advances the head rather than shifting the backlog. A push that would
/// grow the storage first reclaims the taken prefix when it is at least
/// a quarter of the storage, so each job moves O(1) times amortised and
/// the storage stays within a constant factor of the backlog.
#[derive(Clone, Debug, Default)]
pub struct AfwQueue {
    jobs: Vec<Job>,
    views: Vec<JobView>,
    /// Index of the oldest live job; `jobs[..head]` were already taken.
    head: usize,
}

impl AfwQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        AfwQueue::default()
    }

    /// Appends a job (jobs arrive in ready order) whose invocation
    /// arrived at `arrived` and must finish by `deadline`.
    pub fn push(&mut self, job: Job, arrived: SimTime, deadline: SimTime) {
        if self.head > 0
            && self.jobs.len() == self.jobs.capacity()
            && 4 * self.head >= self.jobs.len()
        {
            self.compact();
        }
        self.jobs.push(job);
        self.views.push(JobView::of(&job, arrived, deadline));
    }

    /// Removes and returns the first `n` jobs.
    pub fn take(&mut self, n: usize) -> Vec<Job> {
        let end = self.head + n.min(self.len());
        let out = self.jobs[self.head..end].to_vec();
        self.head = end;
        if self.head == self.jobs.len() {
            self.jobs.clear();
            self.views.clear();
            self.head = 0;
        }
        out
    }

    /// Removes and returns every queued job (admission shedding).
    pub fn take_all(&mut self) -> Vec<Job> {
        self.take(self.len())
    }

    /// Keeps only the jobs `f` accepts, preserving order (purging the
    /// sibling jobs of a shed invocation).
    pub fn retain(&mut self, mut f: impl FnMut(&Job) -> bool) {
        self.compact();
        let mut kept = 0;
        for i in 0..self.jobs.len() {
            if f(&self.jobs[i]) {
                self.jobs.swap(kept, i);
                self.views.swap(kept, i);
                kept += 1;
            }
        }
        self.jobs.truncate(kept);
        self.views.truncate(kept);
    }

    /// Drops the taken prefix.
    fn compact(&mut self) {
        self.jobs.drain(..self.head);
        self.views.drain(..self.head);
        self.head = 0;
    }

    /// Jobs currently queued, oldest first.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs[self.head..]
    }

    /// The queued jobs' scheduler-facing views, parallel to
    /// [`jobs`](Self::jobs).
    pub fn views(&self) -> &[JobView] {
        &self.views[self.head..]
    }

    /// Whether every view still describes the job at its position (same
    /// length, invocation, ready time and input node, in order).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn views_mirror_jobs(&self) -> bool {
        self.jobs.len() == self.views.len()
            && self.jobs().iter().zip(self.views()).all(|(j, v)| {
                v.invocation == j.invocation
                    && v.ready_at_ms == j.ready_at.as_ms()
                    && v.pred_node == j.pred_node
            })
    }

    /// Queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len() - self.head
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The oldest job's ready time.
    pub fn oldest_ready_at(&self) -> Option<SimTime> {
        self.jobs().first().map(|j| j.ready_at)
    }
}

/// The runtime state of one application invocation.
#[derive(Clone, Debug)]
pub struct WorkflowInstance {
    /// Invocation id.
    pub id: InvocationId,
    /// The application.
    pub app: AppId,
    /// Arrival time.
    pub arrived_at: SimTime,
    /// End-to-end deadline (arrival + SLO).
    pub deadline: SimTime,
    /// Per-stage count of incomplete predecessors.
    remaining_preds: Vec<u8>,
    /// Per-stage completion flag.
    done: Vec<bool>,
    /// Node each completed stage ran on (placement memory for locality).
    stage_node: Vec<Option<NodeId>>,
    /// Number of completed stages.
    completed: usize,
}

impl WorkflowInstance {
    /// Creates the instance for `app`'s DAG shape.
    pub fn new(
        id: InvocationId,
        app_id: AppId,
        app: &AppSpec,
        arrived_at: SimTime,
        slo: SimTime,
    ) -> WorkflowInstance {
        let n = app.num_stages();
        let mut remaining_preds = vec![0u8; n];
        for &(_, b) in &app.edges {
            remaining_preds[b] += 1;
        }
        WorkflowInstance {
            id,
            app: app_id,
            arrived_at,
            deadline: arrived_at + slo,
            remaining_preds,
            done: vec![false; n],
            stage_node: vec![None; n],
            completed: 0,
        }
    }

    /// Stage indices ready to enqueue at arrival (no predecessors).
    pub fn entry_stages(&self) -> Vec<usize> {
        self.remaining_preds
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks `stage` complete on `node`; returns the successor stages that
    /// became ready.
    pub fn complete_stage(&mut self, stage: usize, node: NodeId, app: &AppSpec) -> Vec<usize> {
        assert!(!self.done[stage], "stage {stage} completed twice");
        self.done[stage] = true;
        self.stage_node[stage] = Some(node);
        self.completed += 1;
        let mut ready = Vec::new();
        for &(a, b) in &app.edges {
            if a == stage {
                self.remaining_preds[b] -= 1;
                if self.remaining_preds[b] == 0 {
                    ready.push(b);
                }
            }
        }
        ready
    }

    /// True once every stage has completed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.completed == self.done.len()
    }

    /// Whether `stage` has completed.
    #[inline]
    pub fn stage_done(&self, stage: usize) -> bool {
        self.done[stage]
    }

    /// The node a completed stage ran on.
    #[inline]
    pub fn stage_node(&self, stage: usize) -> Option<NodeId> {
        self.stage_node[stage]
    }

    /// The input-producing node for `stage`: the node of its last-finishing
    /// predecessor if all predecessors ran on the same node, otherwise any
    /// differing node forces a remote transfer (`None` when preds are on
    /// multiple nodes is *not* used — we return the first pred's node and
    /// let the caller compare each). For entry stages returns `None`.
    pub fn pred_node(&self, stage: usize, app: &AppSpec) -> Option<NodeId> {
        let preds = app.preds(stage);
        if preds.is_empty() {
            return None;
        }
        // All predecessors must sit on the same node for a local hand-off;
        // otherwise report a node that differs from any single co-location
        // target only if all agree.
        let first = self.stage_node[preds[0]]?;
        if preds.iter().all(|&p| self.stage_node[p] == Some(first)) {
            Some(first)
        } else {
            // Mixed placement: no single local node exists. Report the
            // first pred's node; a dispatch to it still localises one edge.
            Some(first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppSpec, FnId};

    fn pipeline3() -> AppSpec {
        AppSpec::pipeline("p", vec![FnId(0), FnId(1), FnId(2)])
    }

    fn job(i: u64, pred: Option<NodeId>) -> Job {
        Job {
            invocation: InvocationId(i),
            slot: i as u32,
            stage: 0,
            ready_at: SimTime::from_ms(i as f64),
            pred_node: pred,
        }
    }

    /// Pushes `job` with an invocation that arrived 1 ms before it was
    /// ready and has a 100 ms deadline.
    fn push(q: &mut AfwQueue, job: Job) {
        let arrived = job.ready_at.saturating_since(SimTime::from_ms(1.0));
        q.push(job, arrived, arrived + SimTime::from_ms(100.0));
    }

    #[test]
    fn queue_fifo_semantics() {
        let mut q = AfwQueue::new();
        for i in 0..5u64 {
            push(&mut q, job(i, None));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.oldest_ready_at(), Some(SimTime::from_ms(0.0)));
        let taken = q.take(2);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].invocation, InvocationId(0));
        assert_eq!(q.len(), 3);
        // The views follow the jobs: built at push, taken with them.
        assert_eq!(q.views().len(), 3);
        assert_eq!(q.views()[0].invocation, InvocationId(2));
        assert_eq!(q.views()[0].ready_at_ms, 2.0);
        assert_eq!(q.views()[0].invocation_arrival_ms, 1.0);
        assert_eq!(q.views()[0].deadline_ms, 101.0);
        assert_eq!(q.oldest_ready_at(), Some(SimTime::from_ms(2.0)));
        // Taking more than available drains the queue.
        let rest = q.take(10);
        assert_eq!(rest.len(), 3);
        assert!(q.is_empty());
        assert!(q.views().is_empty());
        assert_eq!(q.oldest_ready_at(), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random push/take/take_all/retain sequences against a `VecDeque`
        /// model: the queue returns the model's jobs, and its views stay
        /// parallel to its jobs after every operation.
        #[test]
        fn views_stay_parallel_to_jobs(
            ops in proptest::collection::vec((0u8..8, 0usize..12), 1..160),
        ) {
            let mut q = AfwQueue::new();
            let mut model: std::collections::VecDeque<Job> = Default::default();
            let mut next = 0u64;
            for (op, arg) in ops {
                match op {
                    // Pushes dominate so the queue builds a backlog.
                    0..=3 => {
                        let pred = (arg % 3 != 0).then_some(NodeId(arg as u32));
                        let j = job(next, pred);
                        next += 1;
                        push(&mut q, j);
                        model.push_back(j);
                    }
                    4 | 5 => {
                        let want: Vec<Job> = model.drain(..arg.min(model.len())).collect();
                        proptest::prop_assert_eq!(q.take(arg), want);
                    }
                    6 => {
                        let want: Vec<Job> = model.drain(..).collect();
                        proptest::prop_assert_eq!(q.take_all(), want);
                    }
                    _ => {
                        let m = arg as u64 + 2;
                        q.retain(|j| j.invocation.0 % m != 0);
                        model.retain(|j| j.invocation.0 % m != 0);
                    }
                }
                proptest::prop_assert!(q.views_mirror_jobs());
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert!(q.jobs().iter().eq(model.iter()));
                for (v, j) in q.views().iter().zip(q.jobs()) {
                    let arrived = j.ready_at.saturating_since(SimTime::from_ms(1.0));
                    proptest::prop_assert_eq!(v.invocation_arrival_ms, arrived.as_ms());
                    proptest::prop_assert_eq!(
                        v.deadline_ms,
                        (arrived + SimTime::from_ms(100.0)).as_ms()
                    );
                }
            }
        }
    }

    #[test]
    fn linear_workflow_progression() {
        let app = pipeline3();
        let mut w = WorkflowInstance::new(
            InvocationId(1),
            AppId(0),
            &app,
            SimTime::from_ms(10.0),
            SimTime::from_ms(500.0),
        );
        assert_eq!(w.entry_stages(), vec![0]);
        assert!(!w.is_complete());
        let ready = w.complete_stage(0, NodeId(3), &app);
        assert_eq!(ready, vec![1]);
        assert_eq!(w.stage_node(0), Some(NodeId(3)));
        assert_eq!(w.pred_node(1, &app), Some(NodeId(3)));
        let ready = w.complete_stage(1, NodeId(4), &app);
        assert_eq!(ready, vec![2]);
        let ready = w.complete_stage(2, NodeId(4), &app);
        assert!(ready.is_empty());
        assert!(w.is_complete());
        assert_eq!(w.deadline, SimTime::from_ms(510.0));
    }

    #[test]
    fn diamond_join_waits_for_both_branches() {
        let app = AppSpec::dag(
            "d",
            vec![FnId(0), FnId(1), FnId(2), FnId(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let mut w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(100.0),
        );
        assert_eq!(w.entry_stages(), vec![0]);
        let r = w.complete_stage(0, NodeId(0), &app);
        assert_eq!(r, vec![1, 2]);
        let r = w.complete_stage(1, NodeId(1), &app);
        assert!(r.is_empty(), "join must wait for the second branch");
        let r = w.complete_stage(2, NodeId(1), &app);
        assert_eq!(r, vec![3]);
        // Both preds on node 1 -> local hand-off.
        assert_eq!(w.pred_node(3, &app), Some(NodeId(1)));
        let r = w.complete_stage(3, NodeId(1), &app);
        assert!(r.is_empty());
        assert!(w.is_complete());
    }

    #[test]
    fn entry_stage_has_no_pred_node() {
        let app = pipeline3();
        let w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(1.0),
        );
        assert_eq!(w.pred_node(0, &app), None);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let app = pipeline3();
        let mut w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(1.0),
        );
        w.complete_stage(0, NodeId(0), &app);
        w.complete_stage(0, NodeId(0), &app);
    }

    #[test]
    fn mixed_pred_nodes_reports_first() {
        let app = AppSpec::dag(
            "d",
            vec![FnId(0), FnId(1), FnId(2), FnId(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let mut w = WorkflowInstance::new(
            InvocationId(0),
            AppId(0),
            &app,
            SimTime::ZERO,
            SimTime::from_ms(100.0),
        );
        w.complete_stage(0, NodeId(0), &app);
        w.complete_stage(1, NodeId(1), &app);
        w.complete_stage(2, NodeId(2), &app);
        assert_eq!(w.pred_node(3, &app), Some(NodeId(1)));
    }
}
