//! Deterministic parallel simulation: the sharded executor.
//!
//! [`ShardedWorld`] runs one [`crate::world::World`] per shard of a
//! [`Partition`] under **conservative synchronization**: simulated time
//! advances in windows of the partition's lookahead `L`, every shard
//! processes its own events within the window, and cross-shard messages —
//! whose delivery delay is ≥ `L` by construction — are exchanged at a
//! barrier between windows, always landing in a *future* window of the
//! receiving shard. Completions, metrics and traces from all shards are
//! merged in a deterministic order afterwards.
//!
//! The whole pipeline is a pure function of `(topology, config, seed)`:
//! shard layout and seeds come from [`Partition`]/[`shard_seed`], message
//! order is indexed by source shard (never by worker), and the merge is
//! ordered — so results are **bitwise identical for any thread count**,
//! including 1. DESIGN.md §14 gives the full invariance argument and the
//! checklist for adding new cross-shard interactions.
//!
//! # Example
//!
//! ```
//! use graf_sim::exec::ShardedWorld;
//! use graf_sim::time::SimTime;
//! use graf_sim::topology::{ApiSpec, AppTopology, CallNode, ServiceSpec};
//! use graf_sim::world::SimConfig;
//!
//! let topo = AppTopology::new(
//!     "demo",
//!     vec![ServiceSpec::new("front", 1.0, 500), ServiceSpec::new("back", 2.0, 500)],
//!     vec![ApiSpec::new("get", CallNode::new(0).call(CallNode::new(1)))],
//! );
//! // Shard mode needs no client timeout and a nonzero return delay.
//! let cfg = SimConfig { request_timeout_us: None, return_us: 250, ..SimConfig::default() };
//! let mut w = ShardedWorld::new(topo, cfg, 7, 2);
//! w.add_instances(0.into(), 1, 1000.0, SimTime::ZERO);
//! w.add_instances(1.into(), 1, 1000.0, SimTime::ZERO);
//! for i in 0..10u64 {
//!     w.inject(0.into(), SimTime::from_millis(5.0 * i as f64));
//! }
//! w.run_until(SimTime::from_secs(1.0));
//! assert_eq!(w.stats().completed, 10);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use graf_metrics::WindowedLatency;
use graf_trace::{Trace, TraceId};

use crate::shard::{
    shard_seed, Partition, ShardCtx, ShardMsg, NO_CROSS_EDGES, REMOTE_FRAGMENT_API,
};
use crate::station::InstanceId;
use crate::time::{SimDuration, SimTime};
use crate::topology::{ApiId, AppTopology, ServiceId};
use crate::world::{Completion, SimConfig, World, WorldStats};

/// Upper bound on shard count: beyond this, services are grouped
/// ([`Partition::grouped`]) — more shards than cores only adds barrier and
/// mailbox overhead, never parallelism.
const MAX_SHARDS: usize = 32;

/// Merges per-shard completion streams into `out`, ordered by completion
/// time with ties broken by stream index — the executor's deterministic
/// reduction order (each input stream is already time-ordered because a
/// shard emits completions as its clock advances). The input streams are
/// drained (left empty, capacity kept).
///
/// ```
/// use graf_sim::exec::merge_completions;
/// use graf_sim::frame::RequestId;
/// use graf_sim::time::SimTime;
/// use graf_sim::world::Completion;
///
/// let c = |req: u64, end: u64| Completion {
///     request: RequestId(req),
///     api: 0.into(),
///     start: SimTime(0),
///     end: SimTime(end),
///     timed_out: false,
/// };
/// let mut streams = vec![vec![c(0, 10), c(1, 30)], vec![c(2, 10), c(3, 20)]];
/// let mut out = Vec::new();
/// merge_completions(&mut streams, &mut out);
/// // Tie at t=10 resolves to the lower stream index: 0 before 2.
/// let order: Vec<u64> = out.iter().map(|c| c.request.0).collect();
/// assert_eq!(order, vec![0, 2, 3, 1]);
/// assert!(streams.iter().all(|s| s.is_empty()), "inputs are drained");
/// ```
pub fn merge_completions(streams: &mut [Vec<Completion>], out: &mut Vec<Completion>) {
    let k = streams.len();
    let mut cursors = vec![0usize; k];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (i, s) in streams.iter().enumerate() {
            if cursors[i] < s.len() {
                let end = s[cursors[i]].end.0;
                // Strict `<` keeps the lowest stream index on ties.
                if best.is_none_or(|(be, _)| end < be) {
                    best = Some((end, i));
                }
            }
        }
        let Some((_, i)) = best else { break };
        out.push(streams[i][cursors[i]]);
        cursors[i] += 1;
    }
    for s in streams.iter_mut() {
        s.clear();
    }
}

/// Order-sensitive FNV-1a fingerprint of a completion stream. Two runs with
/// bitwise-identical merged output produce the same value; the determinism
/// tests and the `sim-identity` CI gate compare these across thread counts.
pub fn fingerprint_completions(completions: &[Completion]) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100000001b3)
    }
    let mut h: u64 = 0xcbf29ce484222325;
    for c in completions {
        h = mix(h, c.request.0);
        h = mix(h, c.api.0 as u64);
        h = mix(h, c.start.0);
        h = mix(h, c.end.0);
        h = mix(h, c.timed_out as u64);
    }
    h
}

/// Order-sensitive FNV-1a fingerprint of merged traces (ids, apis and every
/// span's coordinates). Companion to [`fingerprint_completions`] for the
/// trace side of the bit-identity gates.
pub fn fingerprint_traces(traces: &[Trace]) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100000001b3)
    }
    let mut h: u64 = 0xcbf29ce484222325;
    for t in traces {
        h = mix(h, t.id.0);
        h = mix(h, t.api as u64);
        for s in &t.spans {
            h = mix(h, s.span_id.0 as u64);
            h = mix(h, s.parent.map_or(u64::MAX, |p| p.0 as u64));
            h = mix(h, s.service as u64);
            h = mix(h, s.start_us);
            h = mix(h, s.end_us);
        }
    }
    h
}

/// A sense-reversing spin-then-yield barrier over std atomics.
///
/// `std::sync::Barrier` parks threads through a mutex+condvar; at the
/// executor's rate (two waits per lookahead window, hundreds of thousands
/// per simulated minute) wake-up latency would dominate the windows
/// themselves. Shard workers instead spin briefly — they have nothing else
/// to do, and windows are microseconds apart — then fall back to
/// `yield_now` so oversubscribed machines (more workers than cores) degrade
/// to context-switch cost per window instead of burning whole scheduler
/// timeslices spinning at each other. A worker that panics poisons the
/// barrier so its siblings panic too instead of waiting forever.
struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all `n` workers have called `wait` for this generation.
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.count.store(0, Ordering::Release);
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    panic!("a sibling shard worker panicked");
                }
                if spins < 64 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Poisons the barrier if the owning worker unwinds, releasing siblings
/// from their spin loops (they panic instead of hanging).
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// The sharded simulation: per-shard [`World`]s advancing in lookahead
/// windows, with deterministic cross-shard messaging and ordered merges.
///
/// The public surface mirrors [`World`] — inject, run, scale capacity,
/// observe — with calls routed to the shard owning the relevant service.
/// Differences from serial mode:
///
/// * `request_timeout_us` must be `None` and `return_us` ≥ 1 (asserted at
///   construction; see [`crate::world::SimConfig::return_us`]).
/// * Request ids are tagged with the owning shard in the top 16 bits, so
///   they differ from (but are as unique as) serial ids.
/// * [`ShardedWorld::in_flight`] counts remote-subtree proxy slots along
///   with real requests; it still reaches 0 exactly when everything drains.
/// * Merged trace span order is deterministic but differs from the serial
///   completion order (fragments concatenate in arrival order).
pub struct ShardedWorld {
    shards: Vec<World>,
    partition: Partition,
    threads: usize,
    /// `mailboxes[src][dst]`: messages from shard `src` to shard `dst`,
    /// written by `src` before the window barrier, drained by `dst` after
    /// it. Each cell has exactly one writer and one reader per window,
    /// phase-separated by the barrier, so the locks never contend.
    mailboxes: Vec<Vec<Mutex<Vec<ShardMsg>>>>,
    /// Shard owning each API's root service (arrivals route here).
    api_root_shard: Vec<usize>,
    now: SimTime,
    /// Coordinator-level end-to-end latency windows, fed by the ordered
    /// completion merge (per-shard `e2e` surfaces only see local roots).
    e2e: WindowedLatency,
    completions: Vec<Completion>,
    /// Per-shard drain buffers, recycled every merge.
    shard_drain: Vec<Vec<Completion>>,
    /// Trace fragments awaiting their group's root fragment, keyed by trace
    /// id. A `BTreeMap` so emission order is deterministic (ascending id),
    /// never hash order.
    pending_traces: BTreeMap<u64, Vec<Trace>>,
    /// Fully merged traces, ready to drain.
    traces: Vec<Trace>,
    /// Shard event total at the last observation flush.
    last_events: u64,
    obs: graf_obs::Obs,
}

impl ShardedWorld {
    /// Creates a sharded world for `topo` with `threads` workers.
    ///
    /// The partition is one shard per service (grouped down to
    /// `MAX_SHARDS` for larger topologies) — a pure function of the
    /// topology, so `threads` affects wall-clock only, never results.
    /// Shard `i` seeds its world with [`shard_seed`]`(seed, key(i))`.
    ///
    /// # Panics
    /// Panics when `threads == 0`, when the config keeps a client timeout
    /// or a zero `return_us`, or when a cross-shard callee has `base_us ==
    /// 0` (the conservative lookahead would collapse).
    pub fn new(topo: AppTopology, cfg: SimConfig, seed: u64, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be >= 1");
        assert!(
            cfg.request_timeout_us.is_none(),
            "sharded execution requires request_timeout_us: None"
        );
        assert!(cfg.return_us >= 1, "sharded execution requires return_us >= 1");
        let partition = if topo.num_services() <= MAX_SHARDS {
            Partition::per_service(&topo, cfg.return_us)
        } else {
            Partition::grouped(&topo, MAX_SHARDS, cfg.return_us)
        };
        let lookahead = partition.lookahead_us();
        assert!(
            lookahead >= 1,
            "conservative lookahead collapsed to 0: every cross-shard callee needs base_us >= 1"
        );
        let n = partition.num_shards();
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let mut w = World::new(topo.clone(), cfg.clone(), shard_seed(seed, partition.key(i)));
            w.shard_attach(ShardCtx::new(i as u32, partition.owners().to_vec(), n));
            shards.push(w);
        }
        let mailboxes = (0..n).map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect()).collect();
        let api_root_shard = topo.apis.iter().map(|a| partition.owner(a.tree.service)).collect();
        let e2e = WindowedLatency::new(cfg.window_us, cfg.retain_windows);
        Self {
            shards,
            partition,
            threads,
            mailboxes,
            api_root_shard,
            now: SimTime::ZERO,
            e2e,
            completions: Vec::new(),
            shard_drain: (0..n).map(|_| Vec::new()).collect(),
            pending_traces: BTreeMap::new(),
            traces: Vec::new(),
            last_events: 0,
            obs: graf_obs::Obs::disabled(),
        }
    }

    /// The partition driving this fleet.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Configured worker count (wall-clock only; results are invariant).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The application topology.
    pub fn topology(&self) -> &AppTopology {
        self.shards[0].topology()
    }

    /// The simulation config.
    pub fn config(&self) -> &SimConfig {
        self.shards[0].config()
    }

    /// Attaches an instrumentation handle to the coordinator only. It
    /// reports the summed processed-event count and queue depth after each
    /// run, exactly like the serial world's surface, and attributes wall
    /// time to `sim.exec.windows` (the parallel window loop) and
    /// `sim.exec.merge` (the ordered reduction). Per-shard worlds stay
    /// unobserved: they run on worker threads, and the phase tree's scope
    /// stack belongs to one thread at a time.
    pub fn set_obs(&mut self, obs: graf_obs::Obs) {
        self.obs = obs;
    }

    /// Aggregate counters, summed over shards. `injected`/`completed` count
    /// real requests only (remote-subtree proxies contribute no request
    /// statistics); `events` includes the remote-start and child-return
    /// events that exist only in shard mode.
    pub fn stats(&self) -> WorldStats {
        let mut total = WorldStats::default();
        for w in &self.shards {
            let s = w.stats();
            total.injected += s.injected;
            total.completed += s.completed;
            total.spans += s.spans;
            total.spans_dropped += s.spans_dropped;
            total.timeouts += s.timeouts;
            total.events += s.events;
        }
        total
    }

    /// Requests in flight, including remote-subtree proxy slots (one per
    /// cross-shard call currently executing). Reaches 0 exactly when all
    /// work and all in-transit messages have drained.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|w| w.in_flight()).sum()
    }

    /// Schedules one request of `api` to arrive at `t` on the shard owning
    /// the API's root service.
    pub fn inject(&mut self, api: ApiId, t: SimTime) {
        self.shards[self.api_root_shard[api.0 as usize]].inject(api, t);
    }

    /// Adds `n` instances to `service` on its owning shard (see
    /// [`World::add_instances`]). Returned ids are scoped to that shard.
    pub fn add_instances(
        &mut self,
        service: ServiceId,
        n: usize,
        quota_mc: f64,
        ready_at: SimTime,
    ) -> Vec<InstanceId> {
        self.shards[self.partition.owner(service)].add_instances(service, n, quota_mc, ready_at)
    }

    /// Removes up to `n` instances of `service` (see
    /// [`World::remove_instances`]).
    pub fn remove_instances(&mut self, service: ServiceId, n: usize) -> usize {
        self.shards[self.partition.owner(service)].remove_instances(service, n)
    }

    /// Vertically rescales `service`'s ready instances (see
    /// [`World::resize_instances`]).
    pub fn resize_instances(&mut self, service: ServiceId, quota_mc: f64) {
        self.shards[self.partition.owner(service)].resize_instances(service, quota_mc)
    }

    /// Instance counts of `service`: `(starting, ready, draining)`.
    pub fn instance_counts(&self, service: ServiceId) -> (usize, usize, usize) {
        self.shards[self.partition.owner(service)].instance_counts(service)
    }

    /// Total ready quota of `service` in millicores.
    pub fn ready_quota_mc(&self, service: ServiceId) -> f64 {
        self.shards[self.partition.owner(service)].ready_quota_mc(service)
    }

    /// End-to-end latency percentile over the trailing `k` windows of the
    /// *merged* completion stream.
    pub fn e2e_percentile(&self, k: usize, q: f64) -> Option<SimDuration> {
        self.e2e.percentile_trailing(self.now.as_micros(), k, q).map(SimDuration::from_micros)
    }

    /// Per-service latency percentile (from the owning shard; per-service
    /// surfaces live wholly on one shard and match serial bit-for-bit).
    pub fn service_percentile(&self, service: ServiceId, k: usize, q: f64) -> Option<SimDuration> {
        self.shards[self.partition.owner(service)].service_percentile(service, k, q)
    }

    /// CPU utilization of `service` over the trailing window of `dur`.
    pub fn service_utilization(&self, service: ServiceId, dur: SimDuration) -> Option<f64> {
        self.shards[self.partition.owner(service)].service_utilization(service, dur)
    }

    /// Mean used millicores of `service` over the trailing window of `dur`.
    pub fn service_used_mc(&self, service: ServiceId, dur: SimDuration) -> f64 {
        self.shards[self.partition.owner(service)].service_used_mc(service, dur)
    }

    /// Arrival rate (req/s) perceived by `service` over the trailing `k`
    /// windows.
    pub fn service_arrival_rate(&self, service: ServiceId, k: usize) -> f64 {
        self.shards[self.partition.owner(service)].service_arrival_rate(service, k)
    }

    /// Front-end arrival rate (req/s) of `api` over the trailing `k`
    /// windows.
    pub fn api_arrival_rate(&self, api: ApiId, k: usize) -> f64 {
        self.shards[self.api_root_shard[api.0 as usize]].api_arrival_rate(api, k)
    }

    /// Number of frames queued at `service` waiting for a ready instance.
    pub fn service_pending(&self, service: ServiceId) -> usize {
        self.shards[self.partition.owner(service)].service_pending(service)
    }

    /// Injects a contention anomaly on `service`'s shard (see
    /// [`World::inject_contention`]).
    pub fn inject_contention(
        &mut self,
        service: ServiceId,
        factor: f64,
        from: SimTime,
        until: SimTime,
    ) {
        self.shards[self.partition.owner(service)].inject_contention(service, factor, from, until)
    }

    /// Installs a span-drop fault window on **every** shard (spans complete
    /// wherever their frame runs; see [`World::inject_span_drop`]). Each
    /// shard draws drop decisions from its own seeded trace stream, so the
    /// fault stays bit-reproducible and thread-count invariant.
    pub fn inject_span_drop(&mut self, from: SimTime, until: SimTime, drop_prob: f64) {
        for w in &mut self.shards {
            w.inject_span_drop(from, until, drop_prob);
        }
    }

    /// Completed requests since the last drain, in merged order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Moves completed requests since the last drain into `out` (cleared
    /// first), swapping buffers like [`World::drain_completions_into`].
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        std::mem::swap(out, &mut self.completions);
    }

    /// Fully merged traces since the last drain, ascending by trace id
    /// within each merge round. A trace is emitted once its root fragment
    /// completes — at which point the conservative-window contract
    /// guarantees every remote fragment has already arrived (DESIGN.md §14).
    pub fn drain_traces(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.traces)
    }

    /// Processes all events up to and including `t`, then sets now = `t`,
    /// merges completions/metrics/traces, and reports telemetry.
    ///
    /// Time advances in lookahead windows; with more than one thread the
    /// shards of each window run on scoped workers (shard `i` on worker
    /// `i % threads` — any assignment works, results are invariant).
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot run backwards");
        let _exec_scope = self.obs.enter("sim.exec");
        let lookahead = self.partition.lookahead_us();
        let workers = self.threads.min(self.shards.len()).max(1);
        {
            let _windows = self.obs.enter("sim.exec.windows");
            self.obs.work(1);
            if workers == 1 {
                self.run_windows_inline(t, lookahead);
            } else {
                self.run_windows_parallel(t, lookahead, workers);
            }
        }
        self.now = t;
        {
            let _merge = self.obs.enter("sim.exec.merge");
            self.obs.work(1);
            self.merge_outputs();
        }
        if self.obs.is_enabled() {
            let events: u64 = self.shards.iter().map(|w| w.stats().events).sum();
            let delta = events - self.last_events;
            self.last_events = events;
            if delta > 0 {
                self.obs.counter_add("graf.sim.events", &[], delta);
            }
            let depth: usize = self.shards.iter().map(|w| w.shard_backlog()).sum();
            self.obs.gauge_set("graf.sim.queue_depth", &[], depth as f64);
        }
    }

    /// Runs windows until in-flight work and in-transit messages drain, or
    /// `limit` is reached (analog of [`World::run_to_quiescence`]).
    pub fn run_to_quiescence(&mut self, limit: SimTime) {
        while self.now < limit {
            let backlog: usize = self.shards.iter().map(|w| w.shard_backlog()).sum();
            if backlog == 0 {
                break;
            }
            let step = match self.partition.lookahead_us() {
                NO_CROSS_EDGES => limit.0.saturating_sub(self.now.0),
                l => l.saturating_mul(4),
            };
            self.run_until(SimTime(self.now.0.saturating_add(step.max(1)).min(limit.0)));
        }
    }

    /// Single-worker window loop: same schedule as the parallel one, no
    /// threads, no barriers. Bit-identical by construction — both loops
    /// execute the identical per-shard sequence of (deliver, run, publish,
    /// collect) steps in the identical order per shard.
    fn run_windows_inline(&mut self, t: SimTime, lookahead: u64) {
        let mut win = self.now.0;
        while win < t.0 {
            let w_end = SimTime(win.saturating_add(lookahead).min(t.0));
            for (i, w) in self.shards.iter_mut().enumerate() {
                w.shard_deliver_inbox();
                w.run_until(w_end);
                w.shard_publish(&self.mailboxes[i]);
            }
            for w in self.shards.iter_mut() {
                w.shard_collect(&self.mailboxes);
            }
            win = w_end.0;
        }
    }

    /// Multi-worker window loop. Two barriers per window: one between
    /// publish (each shard writes its own mailbox row) and collect (each
    /// shard drains its own column), one before the next window begins so
    /// no shard can start scheduling window `k+1` messages while another
    /// still collects window `k`'s — merging the two phases could otherwise
    /// interleave queue sequence numbers nondeterministically when
    /// deliveries from adjacent windows share a timestamp.
    fn run_windows_parallel(&mut self, t: SimTime, lookahead: u64, workers: usize) {
        let start = self.now.0;
        let end = t.0;
        let barrier = SpinBarrier::new(workers);
        let mailboxes = &self.mailboxes;
        // Deal shards round-robin onto workers. The assignment affects which
        // thread touches which world — nothing else: every loop below is
        // indexed by shard, and the mailbox phases are barrier-separated.
        let mut assignment: Vec<Vec<(usize, &mut World)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, w) in self.shards.iter_mut().enumerate() {
            assignment[i % workers].push((i, w));
        }
        std::thread::scope(|scope| {
            for mut mine in assignment {
                let barrier = &barrier;
                scope.spawn(move || {
                    let _poison = PoisonOnPanic(barrier);
                    let mut win = start;
                    while win < end {
                        let w_end = SimTime(win.saturating_add(lookahead).min(end));
                        for (i, w) in mine.iter_mut() {
                            w.shard_deliver_inbox();
                            w.run_until(w_end);
                            w.shard_publish(&mailboxes[*i]);
                        }
                        barrier.wait();
                        for (_, w) in mine.iter_mut() {
                            w.shard_collect(mailboxes);
                        }
                        barrier.wait();
                        win = w_end.0;
                    }
                });
            }
        });
    }

    /// The ordered reduction after a run: merge per-shard completions by
    /// `(end time, shard index)` into the coordinator stream and latency
    /// windows, then assemble cross-shard trace fragments into whole traces.
    fn merge_outputs(&mut self) {
        for (i, w) in self.shards.iter_mut().enumerate() {
            w.drain_completions_into(&mut self.shard_drain[i]);
        }
        let merged_from = self.completions.len();
        merge_completions(&mut self.shard_drain, &mut self.completions);
        for c in &self.completions[merged_from..] {
            self.e2e.record(c.end.as_micros(), c.latency_us());
        }
        // Collect finished trace fragments shard-major (deterministic), then
        // emit every group whose root fragment has arrived. Remote fragments
        // are marked by the sentinel api; the root fragment carries the real
        // one. Groups without a root stay pending — their root is still
        // running on some shard.
        let mut any = false;
        for w in self.shards.iter_mut() {
            for frag in w.traces_mut().drain_finished() {
                self.pending_traces.entry(frag.id.0).or_default().push(frag);
                any = true;
            }
        }
        if !any {
            return;
        }
        let ready: Vec<u64> = self
            .pending_traces
            .iter()
            .filter(|(_, frags)| frags.iter().any(|f| f.api != REMOTE_FRAGMENT_API))
            .map(|(&id, _)| id)
            .collect();
        for id in ready {
            let frags = self.pending_traces.remove(&id).expect("key collected above");
            let api = frags
                .iter()
                .find(|f| f.api != REMOTE_FRAGMENT_API)
                .map(|f| f.api)
                .expect("group has a root fragment");
            let mut spans = Vec::with_capacity(frags.iter().map(|f| f.spans.len()).sum());
            for frag in frags {
                spans.extend(frag.spans);
            }
            self.traces.push(Trace { id: TraceId(id), api, spans });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ApiSpec, CallNode, ChildMode, ServiceSpec};

    fn chain3() -> AppTopology {
        AppTopology::new(
            "chain3",
            vec![
                ServiceSpec::new("a", 1.0, 500).cv(0.0),
                ServiceSpec::new("b", 2.0, 250).cv(0.0),
                ServiceSpec::new("c", 1.0, 400).cv(0.0),
            ],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0).call(CallNode::new(1).call(CallNode::new(2))),
            )],
        )
    }

    fn shard_cfg() -> SimConfig {
        SimConfig { request_timeout_us: None, return_us: 200, ..SimConfig::default() }
    }

    fn run_sharded(threads: usize) -> (Vec<(u64, u64)>, u64, u64, u64) {
        let mut w = ShardedWorld::new(chain3(), shard_cfg(), 11, threads);
        for s in 0..3u16 {
            w.add_instances(ServiceId(s), 1, 1000.0, SimTime::ZERO);
        }
        for i in 0..50u64 {
            w.inject(ApiId(0), SimTime(i * 20_000));
        }
        w.run_until(SimTime::from_secs(3.0));
        w.run_to_quiescence(SimTime::from_secs(10.0));
        let done = w.drain_completions();
        let lat: Vec<(u64, u64)> = done.iter().map(|c| (c.start.0, c.latency_us())).collect();
        let traces = w.drain_traces();
        (lat, fingerprint_completions(&done), fingerprint_traces(&traces), w.stats().events)
    }

    #[test]
    fn sharded_run_completes_and_drains() {
        let mut w = ShardedWorld::new(chain3(), shard_cfg(), 5, 2);
        for s in 0..3u16 {
            w.add_instances(ServiceId(s), 1, 1000.0, SimTime::ZERO);
        }
        for i in 0..20u64 {
            w.inject(ApiId(0), SimTime(i * 10_000));
        }
        w.run_until(SimTime::from_secs(2.0));
        w.run_to_quiescence(SimTime::from_secs(5.0));
        assert_eq!(w.stats().completed, 20);
        assert_eq!(w.stats().injected, 20);
        assert_eq!(w.in_flight(), 0, "proxies and roots all drained");
        let traces = w.drain_traces();
        assert_eq!(traces.len(), 20, "full sampling: one merged trace per request");
        for t in traces {
            assert_eq!(t.spans.len(), 3, "three services, three spans");
            assert_eq!(t.spans.iter().filter(|s| s.is_root()).count(), 1);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let one = run_sharded(1);
        let two = run_sharded(2);
        let eight = run_sharded(8);
        assert_eq!(one, two, "1 vs 2 workers");
        assert_eq!(one, eight, "1 vs 8 workers");
    }

    #[test]
    fn sharded_matches_serial_with_same_return_delay() {
        // cv = 0 everywhere and full sampling: the serial world with the
        // same return_us is the exact differential reference (work draws
        // skip the RNG, so per-shard streams cannot diverge from serial).
        let mut serial = World::new(chain3(), shard_cfg(), 11);
        let mut sharded = ShardedWorld::new(chain3(), shard_cfg(), 11, 2);
        for s in 0..3u16 {
            serial.add_instances(ServiceId(s), 1, 1000.0, SimTime::ZERO);
            sharded.add_instances(ServiceId(s), 1, 1000.0, SimTime::ZERO);
        }
        for i in 0..40u64 {
            serial.inject(ApiId(0), SimTime(i * 25_000));
            sharded.inject(ApiId(0), SimTime(i * 25_000));
        }
        serial.run_until(SimTime::from_secs(5.0));
        sharded.run_until(SimTime::from_secs(3.0));
        sharded.run_to_quiescence(SimTime::from_secs(5.0));
        let mut a: Vec<(u64, u64, bool)> =
            serial.drain_completions().iter().map(|c| (c.start.0, c.end.0, c.timed_out)).collect();
        let mut b: Vec<(u64, u64, bool)> =
            sharded.drain_completions().iter().map(|c| (c.start.0, c.end.0, c.timed_out)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same completions as the serial reference");
        assert_eq!(serial.stats().spans, sharded.stats().spans);
    }

    #[test]
    fn parallel_fanout_crosses_shards() {
        // root -> (b ∥ c): both children are remote; outstanding counting
        // and Done-return plumbing must handle a multi-child stage.
        let topo = AppTopology::new(
            "fan",
            vec![
                ServiceSpec::new("root", 0.5, 300).cv(0.0),
                ServiceSpec::new("b", 5.0, 300).cv(0.0),
                ServiceSpec::new("c", 9.0, 300).cv(0.0),
            ],
            vec![ApiSpec::new(
                "get",
                CallNode::new(0)
                    .children_mode(ChildMode::Parallel, vec![CallNode::new(1), CallNode::new(2)]),
            )],
        );
        let mut w = ShardedWorld::new(topo, shard_cfg(), 3, 2);
        for s in 0..3u16 {
            w.add_instances(ServiceId(s), 1, 1000.0, SimTime::ZERO);
        }
        w.inject(ApiId(0), SimTime::from_millis(1.0));
        w.run_to_quiescence(SimTime::from_secs(2.0));
        let done = w.drain_completions();
        assert_eq!(done.len(), 1);
        // Parallel children: ≈ max(5, 9) ms + root work + hops + returns.
        let lat_ms = done[0].latency_us() as f64 / 1000.0;
        assert!((9.0..12.5).contains(&lat_ms), "parallel latency {lat_ms} ms");
    }
}
