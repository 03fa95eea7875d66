//! Work-proportional fan-out: the floor below which a superstep is not worth
//! a thread, and the parked per-run workers that serve the ones above it.
//!
//! GX-Plug's pipeline model (§III-A) sizes a block so that the fixed cost `a`
//! of a kernel launch is amortised by the work in the block.  Handing work to
//! another thread has a fixed cost too — one queue hop to wake the worker and
//! one to hear back, each a condition-variable wake-up — so the same rule
//! applies to threads: a superstep goes to workers only when it carries at
//! least the run's floor of active edges ([`floor_for`]); anything smaller
//! runs on the calling thread.  A serial
//! run is the same run with a floor of `usize::MAX`: it never lends, so it
//! never spawns.
//!
//! Nodes are lent through the one mechanism here, a [`Lane`] per node.  The
//! workers are **parked, not spawned per superstep**.
//! A [`Lane`] starts its thread at its first loan, on a [`Scope`] that
//! outlives the run, and the thread then sleeps on its job queue between
//! loans.  A compute
//! phase only holds its nodes for the length of one `compute` call, so a lane
//! cannot borrow them; instead the state is *lent by value*: it travels to
//! the worker inside the job and comes back with the result, which needs no
//! `unsafe` and no `'static` bound.  [`fan_out`] lends every state but one,
//! runs the last on the calling thread, and returns all of them in input
//! order — so callers that consume outputs in node order see exactly what a
//! serial loop would have produced.
//!
//! A job that panics does not take its loan down with it: the unwind is
//! caught on the worker, the state comes home, and the payload is handed to
//! the caller to re-raise once every other lane has reported.  A caller can
//! therefore never be left parked on a dead worker.

use crate::cluster::ExecutionMode;
use gxplug_ipc::queue::{sync_queue, QueueReceiver, QueueSender};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::{self, Scope};

/// Fewest active edges worth a thread hand-off.
///
/// Derived once, from two measurements on the 2-core reference box (the
/// sweep is recorded in CHANGES.md, PR 24).  A fanned-out superstep pays a
/// fixed ≈ 75 µs over a serial one (125 µs against 50 µs at 1 024 edges) —
/// about four of the ≈ 20 µs queue hops (`ipc.queue.hop_ns`): the wake-ups
/// out overlap, the ones back mostly do not — and the superstep path costs
/// ≈ 50 ns per active edge at these sizes (frontier scan, triplet fill,
/// `MSGGen`, `MSGMerge`, cache probe).  Four lanes on two cores take ≈ 0.3 of
/// that work off the critical path, so the hops are paid back from
/// 75 µs / (0.3 × 50 ns) = 5 000 edges on.  Measured, fanned-out PageRank
/// supersteps run 0.85x serial at 6 144 edges, 0.9–1.1x at 8 192 and
/// 1.1–1.4x from 10 240: the floor is the power of two at break-even.
const FAN_OUT_FLOOR: usize = 8_192;

/// Fewest active edges a run in `mode` hands to another thread: the measured
/// break-even when threading is on, and `usize::MAX` — never — for a serial
/// run.  Keyed on the amount of work alone, never on what the work is.
pub fn floor_for(mode: ExecutionMode) -> usize {
    match mode {
        ExecutionMode::Threaded => FAN_OUT_FLOOR,
        ExecutionMode::Serial => usize::MAX,
    }
}

/// Whether `active_edges` of superstep work pay for handing them to another
/// thread in a threaded run.
#[inline]
pub fn worth_fanning_out(active_edges: usize) -> bool {
    active_edges >= floor_for(ExecutionMode::Threaded)
}

/// What a lane hands back: the lent state, and what the job made of it (or
/// the payload of the panic that interrupted it).
pub type Returned<S, O> = (S, thread::Result<O>);

type Job<'scope, S, O> = Box<dyn FnOnce() -> Returned<S, O> + Send + 'scope>;

/// The caller's ends of a parked worker's job and result queues.
type Worker<'scope, S, O> = (
    QueueSender<Job<'scope, S, O>>,
    QueueReceiver<Returned<S, O>>,
);

/// Runs `job` over `state`, catching a panic so the state survives it.
fn run_caught<S, O>(mut state: S, job: impl FnOnce(&mut S) -> O) -> Returned<S, O> {
    let output = catch_unwind(AssertUnwindSafe(|| job(&mut state)));
    (state, output)
}

/// One parked worker thread, spawned at its first loan and reused for every
/// later one.
///
/// [`Lane::lend`] moves a state and a job onto the worker; [`Lane::take_back`]
/// blocks until the worker returns the state with the job's output.  The
/// worker exits when the lane is dropped, which must happen inside the
/// [`thread::scope`] it was spawned on (the scope joins it).
pub struct Lane<'scope, S, O> {
    worker: Option<Worker<'scope, S, O>>,
    spawns: usize,
}

impl<S, O> Default for Lane<'_, S, O> {
    fn default() -> Self {
        Self {
            worker: None,
            spawns: 0,
        }
    }
}

impl<S, O> fmt::Debug for Lane<'_, S, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane")
            .field("parked", &self.worker.is_some())
            .field("spawns", &self.spawns)
            .finish()
    }
}

impl<S, O> Lane<'_, S, O> {
    /// How many threads this lane has spawned so far: 0 until the first
    /// loan, 1 ever after.
    pub fn spawns(&self) -> usize {
        self.spawns
    }
}

impl<'scope, S, O> Lane<'scope, S, O>
where
    S: Send + 'scope,
    O: Send + 'scope,
{
    /// Lends `state` to the lane's worker — spawning it on `scope` if this is
    /// the first loan — which runs `job` over it.  Every loan must be
    /// followed by one [`Lane::take_back`].
    pub fn lend<'env, J>(&mut self, scope: &'scope Scope<'scope, 'env>, state: S, job: J)
    where
        J: FnOnce(&mut S) -> O + Send + 'scope,
    {
        let (jobs, _) = self.worker.get_or_insert_with(|| {
            self.spawns += 1;
            let (jobs, inbox) = sync_queue::<Job<'scope, S, O>>();
            let (outbox, done) = sync_queue();
            // The worker owns the only sender of `done`: should it die, the
            // queue disconnects and `take_back` fails instead of waiting.
            scope.spawn(move || {
                while let Ok(job) = inbox.recv() {
                    if outbox.send(job()).is_err() {
                        break;
                    }
                }
            });
            (jobs, done)
        });
        let job: Job<'scope, S, O> = Box::new(move || run_caught(state, job));
        if jobs.send(job).is_err() {
            panic!("a parked lane worker died between supersteps");
        }
    }

    /// Blocks until the worker hands the lent state back.
    ///
    /// # Panics
    /// Panics if nothing is on loan, or if the worker thread died with the
    /// loan outstanding.
    pub fn take_back(&mut self) -> Returned<S, O> {
        let (_, done) = self.worker.as_ref().expect("take_back follows lend");
        done.recv()
            .unwrap_or_else(|_| panic!("a parked lane worker died with a loan outstanding"))
    }
}

/// Runs `job` once over every state, concurrently: state `i` is lent to
/// `lanes[i]`, the last state stays on the calling thread, and all of them
/// are back — in input order, each with its output or the panic that
/// interrupted it — when the call returns.
///
/// # Panics
/// Panics if there are fewer lanes than states to lend (`states.len() - 1`).
pub fn fan_out<'a, 'scope: 'a, 'env, S, O, J>(
    scope: &'scope Scope<'scope, 'env>,
    lanes: impl IntoIterator<Item = &'a mut Lane<'scope, S, O>>,
    states: Vec<S>,
    job: J,
) -> Vec<Returned<S, O>>
where
    S: Send + 'scope,
    O: Send + 'scope,
    J: Fn(&mut S) -> O + Clone + Send + 'scope,
{
    let lent = states.len().saturating_sub(1);
    let mut lanes: Vec<&mut Lane<'scope, S, O>> = lanes.into_iter().take(lent).collect();
    assert_eq!(lanes.len(), lent, "one lane per lent state is required");
    let mut states = states.into_iter();
    let own = states.next_back();
    for (lane, state) in lanes.iter_mut().zip(states) {
        lane.lend(scope, state, job.clone());
    }
    let own = own.map(|state| run_caught(state, &job));
    let mut returned: Vec<Returned<S, O>> = lanes.into_iter().map(Lane::take_back).collect();
    returned.extend(own);
    returned
}

/// Hands every returned state to `home` (called with its input position),
/// then yields the outputs in input order.  If any job panicked, the first
/// payload in input order is re-raised — but only once every state is home,
/// so a panic never leaves a hole where a state was lent from.
pub fn settle<S, O>(returned: Vec<Returned<S, O>>, mut home: impl FnMut(usize, S)) -> Vec<O> {
    let mut outputs = Vec::with_capacity(returned.len());
    let mut first_panic = None;
    for (index, (state, output)) in returned.into_iter().enumerate() {
        home(index, state);
        match output {
            Ok(output) => outputs.push(output),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn the_floor_is_a_threshold_on_work_alone() {
        assert!(!worth_fanning_out(0));
        assert!(!worth_fanning_out(FAN_OUT_FLOOR - 1));
        assert!(worth_fanning_out(FAN_OUT_FLOOR));
        assert!(worth_fanning_out(usize::MAX));
    }

    #[test]
    fn a_serial_run_is_a_floor_no_work_reaches() {
        assert_eq!(floor_for(ExecutionMode::Threaded), FAN_OUT_FLOOR);
        assert_eq!(floor_for(ExecutionMode::Serial), usize::MAX);
    }

    #[test]
    fn states_come_home_in_order_and_workers_are_spawned_once() {
        thread::scope(|scope| {
            let mut lanes: Vec<Lane<'_, Vec<u32>, (usize, ThreadId)>> =
                (0..3).map(|_| Lane::default()).collect();
            let mut states: Vec<Vec<u32>> = (0..4).map(|i| vec![i]).collect();
            let mut workers: Vec<Vec<ThreadId>> = Vec::new();
            for round in 1..=5u32 {
                let returned = fan_out(scope, &mut lanes, states, move |state: &mut Vec<u32>| {
                    state.push(round);
                    (state.len(), thread::current().id())
                });
                workers.push(
                    returned
                        .iter()
                        .map(|(_, output)| output.as_ref().unwrap().1)
                        .collect(),
                );
                states = returned
                    .into_iter()
                    .map(|(state, output)| {
                        assert_eq!(output.unwrap().0, state.len());
                        state
                    })
                    .collect();
            }
            for (i, state) in states.iter().enumerate() {
                assert_eq!(
                    state,
                    &[i as u32, 1, 2, 3, 4, 5],
                    "state {i} kept its place"
                );
            }
            // Same four threads every round: three parked workers, spawned
            // once, plus the caller for the last state.
            assert!(workers.iter().all(|round| round == &workers[0]));
            assert_eq!(workers[0][3], thread::current().id());
            assert!(workers[0][..3].iter().all(|id| *id != workers[0][3]));
            assert_eq!(lanes.iter().map(Lane::spawns).sum::<usize>(), 3);
        });
    }

    #[test]
    fn a_panicking_job_returns_its_loan_and_leaves_the_lane_usable() {
        thread::scope(|scope| {
            let mut lanes: Vec<Lane<'_, u32, u32>> = vec![Lane::default()];
            let returned = fan_out(scope, &mut lanes, vec![7, 8], |state: &mut u32| {
                *state += 10;
                if *state == 17 {
                    panic!("lent job exploded");
                }
                *state
            });
            let (state, output) = &returned[0];
            assert_eq!(*state, 17, "the lent state survived the panic");
            let payload = output.as_ref().expect_err("the panic is reported");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"lent job exploded"));
            assert_eq!(returned[1].0, 18);
            assert_eq!(returned[1].1.as_ref().ok(), Some(&18));
            // The worker caught the unwind and is still parked on its queue.
            let again = fan_out(scope, &mut lanes, vec![1, 2], |state: &mut u32| *state * 2);
            let outputs: Vec<u32> = again.into_iter().map(|(_, o)| o.unwrap()).collect();
            assert_eq!(outputs, vec![2, 4]);
            assert_eq!(lanes[0].spawns(), 1);
        });
    }

    #[test]
    fn settle_brings_every_state_home_before_re_raising_the_first_panic() {
        let mut homed = Vec::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            thread::scope(|scope| {
                let mut lanes: Vec<Lane<'_, u32, u32>> = vec![Lane::default(), Lane::default()];
                let returned = fan_out(scope, &mut lanes, vec![1, 2, 3], |state: &mut u32| {
                    if *state >= 2 {
                        panic!("job {state} exploded");
                    }
                    *state
                });
                settle(returned, |index, state| homed.push((index, state)))
            })
        }));
        assert_eq!(homed, vec![(0, 1), (1, 2), (2, 3)]);
        let payload = result.expect_err("the panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("job 2 exploded"),
            "the first panic in input order wins"
        );
    }

    #[test]
    fn a_single_state_never_leaves_the_calling_thread() {
        thread::scope(|scope| {
            let mut lanes: Vec<Lane<'_, u32, ThreadId>> = Vec::new();
            let returned = fan_out(scope, &mut lanes, vec![1], |_: &mut u32| {
                thread::current().id()
            });
            assert_eq!(returned[0].1.as_ref().ok(), Some(&thread::current().id()));
        });
    }
}
