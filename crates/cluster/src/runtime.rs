//! The threaded shard set: shards as OS threads, uploads through a broker
//! thread.
//!
//! [`crate::ShardedSimulation`] *models* cluster parallelism — it steps the
//! shard pipelines one after another and reports "slowest shard" timings from
//! the cost model. [`ParallelShardedSimulation`] *executes* it: the same step
//! loop ([`crate::driver`]) drives a shard set in which every `ShardPipeline`
//! runs on its own OS thread (a shard actor), and an upload **broker** thread
//! owns the owner streams, seals them into per-step batches and routes the
//! resulting `StepUploads` to the shard threads through the same shuffle
//! routing the in-thread shard set uses.
//!
//! ```text
//!      step loop (driver thread)
//!      ┌── step t ──────▶ broker thread ── step job + uploads ──▶ shard thread 0..S-1
//!      │                  │  owner streams → per-step            │  ShardPipeline
//!      │                  │  batches → shuffle route             │  Transform+Shrink
//!      ◀── moves + step ──┘  (span broker.route)                 │  (span runtime.step)
//!      │   answer channels                                       │
//!      ◀─────────── step snapshots / query partials / partitions ┘
//! ```
//!
//! Every request to an actor is a closure over the actor's state (`&mut
//! ShardPipeline` for a shard) that answers on its own channel of the
//! request's answer type, so a reply can never be of the wrong kind.
//!
//! # The replay contract
//!
//! The threaded runtime replays the sequential driver **bit for bit** — same
//! analyst answers, same view share words (checked by fingerprint), same
//! ε-ledger, same padded sizes — at every shard count, on both workloads, co-
//! partitioned and shuffled. Since both drivers run one step loop, the contract
//! reduces to the two shard sets, and three mechanisms make it hold:
//!
//! * **Same randomness topology.** Each shard owns its pipeline (and its rngs)
//!   wholesale; the broker owns the arrival rngs and the shuffler. No rng is
//!   ever shared across threads, so no schedule can reorder draws.
//! * **Lockstep steps.** The loop releases step `t+1` only after every shard
//!   has answered for step `t`, mirroring the in-thread set's barrier. Within
//!   a step the shards genuinely run concurrently — that concurrency is
//!   invisible to the trajectory because shard states are disjoint.
//! * **Deterministic aggregation order.** Answers are collected indexed by
//!   shard, so sums, maxima and the secure-add merge see them in shard order
//!   no matter which thread finished first.
//!
//! Telemetry collectors installed on the driver thread are handed to every
//! worker (`incshrink_telemetry::current_collectors`), so the ε-ledger and
//! server-observable trace land in the same sinks as a sequential run. Events
//! from different `(step, shard)` coordinates may interleave differently under
//! different schedules; `incshrink_telemetry::audit::canonical_observable_trace`
//! recovers the schedule-independent order the equivalence tests compare.
//! `runtime.step` spans are stamped with the shard identity (one thread per
//! shard); *measured* wall-clock lives in those spans and in
//! [`RuntimeStats`], while simulated QET keeps coming from the cost model —
//! the two may disagree (host scheduling, cache effects), the traces may not.
//!
//! # Failure semantics
//!
//! A worker thread that panics mid-step drops its job queue, and with it every
//! queued request's answer channel; the driver notices the closed channel,
//! tears the whole actor system down (drops every job sender so no thread can
//! block forever), joins every thread, and re-raises the original panic
//! payload via `std::panic::resume_unwind` — never a hang on a dead channel.
//!
//! Party-level failures take the same road: when a shard runs its server pair
//! in [`PartyMode::Actor`]/[`PartyMode::Tcp`] and a party thread dies (its
//! channel reports `ChannelError::Disconnected`, or the TCP peer drops with
//! `UnexpectedEof`), the shard's next protocol round panics with
//! [`incshrink_mpc::PARTY_CRASH_MESSAGE`] inside the shard thread, which then
//! propagates through the exact teardown above.
//! [`ParallelShardedSimulation::with_injected_party_crash`] exercises that
//! path at a chosen step.
//!
//! [`PartyMode::Actor`]: incshrink_mpc::PartyMode::Actor
//! [`PartyMode::Tcp`]: incshrink_mpc::PartyMode::Tcp

use crate::driver::{export_buckets, shard_final, ClusterSimulation, Finished, ShardSet};
use crate::elastic::BucketMove;
use crate::sharded::ClusterRunReport;
use crate::shuffle::ShuffleState;
use incshrink::query::{Query, QueryOutcome};
use incshrink::{MigratedPartition, ShardPipeline, StepSnapshot};
use incshrink_telemetry::Collector;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A request queued on an actor thread: a closure over the actor's state.
type Job<T> = Box<dyn FnOnce(&mut T) + Send>;

/// Queue `request` on the actor behind `jobs`. Its answer arrives on the
/// returned receiver — or the receiver disconnects when the actor is dead or
/// dies first, because the request (holding the answer's sender) is dropped
/// with its queue. Each request answers once, so a one-slot channel never
/// blocks the actor.
fn ask<T, R: Send + 'static>(
    jobs: &Sender<Job<T>>,
    request: impl FnOnce(&mut T) -> R + Send + 'static,
) -> Receiver<R> {
    let (answer, receiver) = sync_channel(1);
    let _ = jobs.send(Box::new(move |state: &mut T| {
        let _ = answer.send(request(state));
    }));
    receiver
}

/// Run `state` on its own thread named `name`, executing queued jobs in order
/// until every job sender is gone. The driver's telemetry collectors are
/// re-installed for the thread's lifetime: the telemetry stack is
/// thread-local, and the ε-ledger entries and observable sizes this worker
/// emits belong in the same trace as the driver's.
fn spawn_actor<T: Send + 'static>(
    name: String,
    mut state: T,
    collectors: Vec<Arc<dyn Collector>>,
) -> (Sender<Job<T>>, JoinHandle<()>) {
    let (jobs, queue) = channel::<Job<T>>();
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _guards: Vec<_> = collectors
                .into_iter()
                .map(incshrink_telemetry::install)
                .collect();
            while let Ok(job) = queue.recv() {
                job(&mut state);
            }
        })
        .expect("spawn actor thread");
    (jobs, handle)
}

/// The broker thread's state: the shuffle state behind shuffled routing and a
/// job sender to every shard thread.
struct Broker {
    shards: Vec<Sender<Job<ShardPipeline>>>,
    shuffle: Option<ShuffleState>,
}

impl Broker {
    /// Seal and route step `t`'s owner streams and hand every shard its step
    /// job. Returns the shards' answer channels plus the step's bucket moves.
    fn release(&mut self, t: u64) -> (Vec<Receiver<StepSnapshot>>, Vec<BucketMove>) {
        let _span = incshrink_telemetry::span!("broker.route", step = t);
        let (uploads, moves) = ShuffleState::release(self.shuffle.as_mut(), self.shards.len(), t);
        let answers = self
            .shards
            .iter()
            .zip(uploads)
            .enumerate()
            .map(|(shard, (jobs, uploads))| {
                ask(jobs, move |pipeline: &mut ShardPipeline| {
                    // Scope exactly like the in-thread set; the extra
                    // `runtime.step` span carries this thread's measured
                    // wall-clock stamped with the shard identity.
                    let _shard_scope = incshrink_telemetry::shard_scope(shard as u64);
                    let _span =
                        incshrink_telemetry::span!("runtime.step", step = t, shard = shard as u64);
                    pipeline.step(t, uploads)
                })
            })
            .collect();
        (answers, moves)
    }
}

/// The threaded shard set: `S` shard actor threads plus the broker thread.
struct Actors {
    shards: Vec<Sender<Job<ShardPipeline>>>,
    broker: Sender<Job<Broker>>,
    /// Every worker thread, shard threads first.
    threads: Vec<JoinHandle<()>>,
    faults: Threaded,
}

impl Actors {
    /// Spawn one thread per pipeline plus the broker thread owning `shuffle`.
    fn spawn(
        pipelines: Vec<ShardPipeline>,
        shuffle: Option<ShuffleState>,
        faults: Threaded,
    ) -> Self {
        let collectors = incshrink_telemetry::current_collectors();
        let (shards, mut threads): (Vec<_>, Vec<_>) = pipelines
            .into_iter()
            .enumerate()
            .map(|(i, p)| spawn_actor(format!("incshrink-shard-{i}"), p, collectors.clone()))
            .unzip();
        let broker_state = Broker {
            shards: shards.clone(),
            shuffle,
        };
        let (broker, handle) =
            spawn_actor("incshrink-broker".to_string(), broker_state, collectors);
        threads.push(handle);
        Self {
            shards,
            broker,
            threads,
            faults,
        }
    }

    /// Drop every job sender, join every worker thread, and re-raise the first
    /// worker panic (if any). Returns the number of threads joined.
    fn teardown(&mut self) -> usize {
        // Replacing the broker's only sender drops it: the broker's job loop
        // ends and releases its shard senders, then clearing the driver's
        // ends every shard's loop.
        self.broker = channel().0;
        self.shards.clear();
        let mut joined = 0usize;
        let mut panic_payload = None;
        for handle in self.threads.drain(..) {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
            joined += 1;
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        joined
    }

    /// The answer on `receiver` — or, when its worker died, teardown and the
    /// worker's panic re-raised (a loud failure if it exited without one).
    fn recv<R>(&mut self, receiver: Receiver<R>) -> R {
        receiver.recv().unwrap_or_else(|_| {
            let _ = self.teardown();
            panic!("cluster worker exited unexpectedly mid-run");
        })
    }

    fn recv_all<R>(&mut self, receivers: Vec<Receiver<R>>) -> Vec<R> {
        receivers.into_iter().map(|r| self.recv(r)).collect()
    }

    /// Queue the injected faults due at the start of step `t`. They ride the
    /// shard's queue ahead of the step job, so the shard (or one of its
    /// parties) dies just before starting step `t`.
    fn inject_faults(&self, t: u64) {
        if let Some((shard, _)) = self.faults.injected_crash.filter(|&(_, at)| at == t) {
            let _ = self.shards[shard].send(Box::new(move |_: &mut ShardPipeline| {
                panic!("injected crash on shard {shard} at step {t}")
            }));
        }
        if let Some((shard, _)) = self.faults.injected_party_crash.filter(|&(_, at)| at == t) {
            // Actor/Tcp: the *next* protocol round panics.
            let _ = self.shards[shard].send(Box::new(ShardPipeline::inject_party_crash));
        }
    }
}

impl ShardSet for Actors {
    fn step(&mut self, t: u64) -> (Vec<StepSnapshot>, Vec<BucketMove>) {
        self.inject_faults(t);
        // Wait for the broker's dispatch before reading shard answers: a broker
        // that died mid-dispatch must be detected here, not by blocking on a
        // shard that never got work.
        let released = ask(&self.broker, move |broker: &mut Broker| broker.release(t));
        let (answers, moves) = self.recv(released);
        (self.recv_all(answers), moves)
    }

    fn query(&mut self, query: &Query, t: u64) -> Vec<QueryOutcome> {
        let partials = self
            .shards
            .iter()
            .map(|jobs| {
                let query = query.clone();
                ask(jobs, move |p: &mut ShardPipeline| p.answer(&query, t))
            })
            .collect();
        self.recv_all(partials)
    }

    fn export(&mut self, shard: usize, buckets: Vec<usize>) -> (MigratedPartition, usize) {
        let exported = ask(&self.shards[shard], move |p: &mut ShardPipeline| {
            export_buckets(p, &buckets)
        });
        self.recv(exported)
    }

    fn import(&mut self, shard: usize, partition: MigratedPartition, seed: u64) {
        let imported = ask(&self.shards[shard], move |p: &mut ShardPipeline| {
            p.import_partition(partition, seed);
        });
        self.recv(imported);
    }

    fn finish(mut self) -> Finished {
        let shuffle = ask(&self.broker, |b: &mut Broker| {
            ShuffleState::finish(b.shuffle.as_ref())
        });
        let shuffle = self.recv(shuffle);
        let finals = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, jobs)| ask(jobs, move |p: &mut ShardPipeline| shard_final(shard, p)))
            .collect();
        let shards = self.recv_all(finals);
        Finished {
            shards,
            shuffle,
            threads_joined: self.teardown(),
        }
    }
}

/// Measured (host) timing of one threaded cluster run — the counterpart of the
/// *modeled* QET/Transform/Shrink timings inside the [`ClusterRunReport`].
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Number of shard threads.
    pub shards: usize,
    /// Worker threads joined at the end of the run (`shards + 1` broker) — the
    /// soak test's no-leak witness.
    pub threads_joined: usize,
    /// Measured wall-clock per step (broker routing + concurrent shard
    /// advances + query scatter-gather + migrations).
    pub step_wall_secs: Vec<f64>,
    /// Measured wall-clock of the whole run loop, from after the threads are
    /// spawned to after they are joined.
    pub total_wall_secs: f64,
}

impl RuntimeStats {
    /// Mean measured wall-clock per step (end-of-run collection and thread
    /// joins excluded).
    #[must_use]
    pub fn mean_step_wall_secs(&self) -> f64 {
        if self.step_wall_secs.is_empty() {
            0.0
        } else {
            self.step_wall_secs.iter().sum::<f64>() / self.step_wall_secs.len() as f64
        }
    }
}

/// Result of one threaded cluster run: the simulated trajectory (identical to
/// the sequential driver's, by contract) plus measured runtime statistics.
#[derive(Debug, Clone)]
pub struct ParallelRunReport {
    /// The simulated cluster trajectory — compares equal to the sequential
    /// [`crate::ShardedSimulation`] run of the same configuration.
    pub report: ClusterRunReport,
    /// Measured wall-clock of the threaded execution.
    pub runtime: RuntimeStats,
}

/// The threaded mode of [`ClusterSimulation`], with its test hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threaded {
    ingest_chunk_seed: Option<u64>,
    injected_crash: Option<(usize, u64)>,
    injected_party_crash: Option<(usize, u64)>,
}

/// The threaded cluster driver: the sequential driver's constructor surface
/// and step loop, executed over `S` shard threads plus one broker thread.
pub type ParallelShardedSimulation = ClusterSimulation<Threaded>;

impl ClusterSimulation<Threaded> {
    /// Feed the broker's owner streams in randomly sized chunks (seeded by
    /// `seed`) instead of one slice per step. The trajectory is invariant in
    /// the chunking — that invariance is what the soak test hammers.
    #[must_use]
    pub fn with_ingest_chunk_seed(mut self, seed: u64) -> Self {
        self.mode.ingest_chunk_seed = Some(seed);
        self
    }

    /// Test hook: make shard `shard`'s thread panic at the start of step
    /// `step`, to exercise the teardown/propagation path.
    #[doc(hidden)]
    #[must_use]
    pub fn with_injected_crash(mut self, shard: usize, step: u64) -> Self {
        self.mode.injected_crash = Some((shard, step));
        self
    }

    /// Test hook: kill one of shard `shard`'s MPC party executors at the start
    /// of step `step`. Under [`PartyMode::Actor`]/[`PartyMode::Tcp`] a party
    /// thread exits and the next protocol round panics with
    /// `incshrink_mpc::PARTY_CRASH_MESSAGE`; in-process mode panics
    /// immediately. Exercises the contract that a dead *party* — a
    /// disconnected channel or TCP peer, not just a panicking shard thread —
    /// propagates to the driver through the same teardown path as
    /// [`Self::with_injected_crash`].
    ///
    /// [`PartyMode::Actor`]: incshrink_mpc::PartyMode::Actor
    /// [`PartyMode::Tcp`]: incshrink_mpc::PartyMode::Tcp
    #[doc(hidden)]
    #[must_use]
    pub fn with_injected_party_crash(mut self, shard: usize, step: u64) -> Self {
        self.mode.injected_party_crash = Some((shard, step));
        self
    }

    /// Run the threaded cluster simulation to completion.
    ///
    /// # Panics
    /// Panics on the same non-routable workloads as the sequential driver, and
    /// re-raises (via `std::panic::resume_unwind`) any panic from a worker
    /// thread after tearing the actor system down.
    #[must_use]
    pub fn run(self) -> ParallelRunReport {
        let chunk_seed = self.mode.ingest_chunk_seed;
        let (steps, pipelines, shuffle, faults) = self.prepare(chunk_seed);
        let (report, runtime) = steps.drive(Actors::spawn(pipelines, shuffle, faults));
        ParallelRunReport { report, runtime }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_step_wall_secs_averages_the_steps_not_the_whole_run() {
        let stats = RuntimeStats {
            shards: 2,
            threads_joined: 3,
            step_wall_secs: vec![0.25, 0.5, 0.75],
            // Finish round-trips and thread joins sit outside every step.
            total_wall_secs: 10.0,
        };
        assert!((stats.mean_step_wall_secs() - 0.5).abs() < 1e-12);
        let empty = RuntimeStats {
            step_wall_secs: Vec::new(),
            ..stats
        };
        assert_eq!(empty.mean_step_wall_secs(), 0.0);
    }
}
