//! The simulation engine: owns the clock, the event calendar, all resources
//! and all processes, and runs the event loop to completion.

use crate::event::{EventId, EventQueue};
use crate::process::{Block, Ctx, Immediate, Pid, ProcArena, Process};
use crate::resource::{
    KeyedLocks, LinkId, LockId, ResourceKind, ResourceNode, Server, ServerId, SharedBandwidth,
};
use crate::stats::{LinkStats, LockStats, ServerStats};
use crate::time::SimTime;

/// Events internal to the engine.
enum Ev {
    /// Resume a blocked/sleeping process.
    Resume(Pid),
    /// A server finished serving `pid` after holding a slot for `hold`.
    ServerDone {
        server: ServerId,
        pid: Pid,
        hold: SimTime,
    },
    /// Re-evaluate a shared-bandwidth link (some transfer may have finished).
    LinkTick { link: LinkId },
}

/// Calendar payload: the event plus the sim time it was scheduled at,
/// so the engine can attribute schedule→fire dwell time when probes
/// are on. One extra `SimTime` per queued event; no cost when
/// observability is disabled beyond the copy.
struct Scheduled {
    born: SimTime,
    ev: Ev,
}

/// Observability handles for the event-loop hot path. Registered once
/// per [`Simulation::run`] call (only when the global registry is
/// enabled) so the per-event work is plain atomic updates.
struct DesProbes {
    dequeue_resume: cumf_obs::Counter,
    dequeue_server_done: cumf_obs::Counter,
    dequeue_link_tick: cumf_obs::Counter,
    dwell_seconds: cumf_obs::Histogram,
    queue_occupancy: cumf_obs::Gauge,
}

impl DesProbes {
    fn new() -> Self {
        DesProbes {
            dequeue_resume: cumf_obs::counter(
                "cumf_des_dequeue_resume_total",
                "Resume events dequeued by the DES engine",
            ),
            dequeue_server_done: cumf_obs::counter(
                "cumf_des_dequeue_server_done_total",
                "ServerDone events dequeued by the DES engine",
            ),
            dequeue_link_tick: cumf_obs::counter(
                "cumf_des_dequeue_link_tick_total",
                "LinkTick events dequeued by the DES engine",
            ),
            dwell_seconds: cumf_obs::histogram(
                "cumf_des_event_dwell_seconds",
                "Sim-time from event schedule to fire (calendar dwell)",
            ),
            queue_occupancy: cumf_obs::gauge(
                "cumf_des_queue_occupancy",
                "Events pending in the DES calendar after each dequeue",
            ),
        }
    }

    /// Records one dequeue: event-type count, schedule→fire dwell, and
    /// the occupancy left behind in the calendar.
    fn observe(&self, ev: &Ev, born: SimTime, fired: SimTime, remaining: usize) {
        match ev {
            Ev::Resume(_) => self.dequeue_resume.inc(),
            Ev::ServerDone { .. } => self.dequeue_server_done.inc(),
            Ev::LinkTick { .. } => self.dequeue_link_tick.inc(),
        }
        self.dwell_seconds
            .record(fired.saturating_sub(born).as_secs());
        self.queue_occupancy.set(remaining as f64);
    }
}

/// Final report of a simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated time at which the run ended.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Per-server statistics.
    pub servers: Vec<ServerStats>,
    /// Per-link statistics.
    pub links: Vec<LinkStats>,
    /// Per-lock statistics.
    pub locks: Vec<LockStats>,
}

impl RunReport {
    /// Looks up a server's stats by name.
    pub fn server(&self, name: &str) -> Option<&ServerStats> {
        self.servers.iter().find(|s| s.name == name)
    }

    /// Looks up a link's stats by name.
    pub fn link(&self, name: &str) -> Option<&LinkStats> {
        self.links.iter().find(|l| l.name == name)
    }

    /// Looks up a lock array's stats by name.
    pub fn lock(&self, name: &str) -> Option<&LockStats> {
        self.locks.iter().find(|l| l.name == name)
    }
}

/// A discrete-event simulation: resources + processes + event calendar.
pub struct Simulation {
    clock: SimTime,
    queue: EventQueue<Scheduled>,
    processes: ProcArena,
    servers: Vec<Server>,
    links: Vec<SharedBandwidth>,
    link_tick: Vec<Option<EventId>>,
    locks: Vec<KeyedLocks>,
    immediates: Vec<Immediate>,
    events_processed: u64,
    live_processes: usize,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            processes: ProcArena::new(),
            servers: Vec::new(),
            links: Vec::new(),
            link_tick: Vec::new(),
            locks: Vec::new(),
            immediates: Vec::new(),
            events_processed: 0,
            live_processes: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedules an engine event, stamping it with the current clock so
    /// dwell time (schedule→fire) is attributable when probes are on.
    fn schedule_ev(&mut self, at: SimTime, ev: Ev) -> EventId {
        self.queue.schedule(
            at,
            Scheduled {
                born: self.clock,
                ev,
            },
        )
    }

    /// Adds an FCFS server with `capacity` parallel slots.
    pub fn add_server(&mut self, name: impl Into<String>, capacity: usize) -> ServerId {
        self.servers.push(Server::new(name, capacity));
        ServerId(self.servers.len() - 1)
    }

    /// Adds a processor-sharing link with `bytes_per_sec` total capacity.
    pub fn add_link(&mut self, name: impl Into<String>, bytes_per_sec: f64) -> LinkId {
        self.links.push(SharedBandwidth::new(name, bytes_per_sec));
        self.link_tick.push(None);
        LinkId(self.links.len() - 1)
    }

    /// Adds a keyed-lock array with `keys` independent exclusive locks.
    pub fn add_lock(&mut self, name: impl Into<String>, keys: usize) -> LockId {
        self.locks.push(KeyedLocks::new(name, keys));
        LockId(self.locks.len() - 1)
    }

    /// Exports the static resource graph of this simulation: one
    /// [`ResourceNode`] per registered server, link, and keyed-lock
    /// array, in registration order within each family.
    ///
    /// The `cumf-analyze` deadlock pass consumes this to cross-check its
    /// static wait-for models against the resources the shipped
    /// simulations actually register — a model naming a resource the
    /// engine does not register (or disagreeing on its capacity) fails
    /// the analysis instead of certifying a fiction.
    pub fn resource_topology(&self) -> Vec<ResourceNode> {
        let mut nodes = Vec::new();
        for s in &self.servers {
            nodes.push(ResourceNode {
                kind: ResourceKind::Server,
                name: s.name.clone(),
                slots: s.capacity(),
            });
        }
        for l in &self.links {
            nodes.push(ResourceNode {
                kind: ResourceKind::Link,
                name: l.name.clone(),
                slots: 0,
            });
        }
        for k in &self.locks {
            nodes.push(ResourceNode {
                kind: ResourceKind::Lock,
                name: k.name.clone(),
                slots: k.keys(),
            });
        }
        nodes
    }

    /// Spawns a process; it first resumes at time zero (or at the current
    /// time if spawned mid-run).
    pub fn spawn(&mut self, process: Box<dyn Process>) -> Pid {
        let pid = self.processes.insert(process);
        self.live_processes += 1;
        self.schedule_ev(self.clock, Ev::Resume(pid));
        if cumf_obs::enabled() {
            cumf_obs::counter(
                "cumf_des_processes_spawned_total",
                "Processes spawned into DES simulations",
            )
            .inc();
        }
        pid
    }

    /// Spawns a process that first resumes at absolute time `at`.
    pub fn spawn_at(&mut self, at: SimTime, process: Box<dyn Process>) -> Pid {
        assert!(at >= self.clock, "cannot spawn in the past");
        let pid = self.processes.insert(process);
        self.live_processes += 1;
        self.schedule_ev(at, Ev::Resume(pid));
        pid
    }

    /// Runs until the event calendar drains or `horizon` is reached.
    /// Returns the final statistics report.
    pub fn run(&mut self, horizon: Option<SimTime>) -> RunReport {
        let events_at_entry = self.events_processed;
        let probes = if cumf_obs::enabled() {
            Some(DesProbes::new())
        } else {
            None
        };
        let mut run_span = cumf_obs::span("des", "run");
        while let Some(next_time) = self.queue.peek_time() {
            if let Some(h) = horizon {
                if next_time > h {
                    self.clock = h;
                    break;
                }
            }
            let (time, sched) = self.queue.pop().expect("peeked event vanished");
            debug_assert!(time >= self.clock, "event calendar went backwards");
            self.clock = time;
            self.events_processed += 1;
            if let Some(p) = &probes {
                p.observe(&sched.ev, sched.born, time, self.queue.len());
            }
            // Fast path: `Resume` dominates every registered workload
            // (delays, lock hand-offs and child spawns all go through it),
            // so dispatch it before the full match — the virtual `resume`
            // call inside `step` is then the loop's only indirection.
            if let Ev::Resume(pid) = sched.ev {
                self.step(pid);
                continue;
            }
            match sched.ev {
                Ev::Resume(_) => unreachable!("handled by the fast path"),
                Ev::ServerDone { server, pid, hold } => {
                    self.record_service_span(server, hold);
                    if let Some((next_pid, hold)) = self.servers[server.0].complete(self.clock) {
                        let at = self.clock + hold;
                        self.schedule_ev(
                            at,
                            Ev::ServerDone {
                                server,
                                pid: next_pid,
                                hold,
                            },
                        );
                    }
                    self.step(pid);
                }
                Ev::LinkTick { link } => {
                    self.link_tick[link.0] = None;
                    self.links[link.0].update(self.clock);
                    let finished = self.links[link.0].take_finished();
                    self.reschedule_link(link);
                    for pid in finished {
                        self.step(pid);
                    }
                }
            }
        }
        if cumf_obs::enabled() {
            let events = self.events_processed - events_at_entry;
            cumf_obs::counter(
                "cumf_des_events_total",
                "Discrete events processed by the DES engine",
            )
            .add(events);
            cumf_obs::gauge(
                "cumf_des_sim_end_seconds",
                "Simulated end time of the most recent DES run, seconds",
            )
            .set(self.clock.as_secs());
            run_span.set_arg("events", events as f64);
        }
        drop(run_span);
        self.report()
    }

    /// Number of processes that have not yet returned [`Block::Done`].
    pub fn live_processes(&self) -> usize {
        self.live_processes
    }

    /// Drives one process forward until it issues a blocking request.
    fn step(&mut self, pid: Pid) {
        // Take the process out of the arena so `resume(&mut self)` cannot
        // alias the engine state it manipulates through `Ctx`.
        let mut process = match self.processes.take(pid) {
            Some(p) => p,
            // A resume may race with process completion only through engine
            // bugs; a stale or dead pid is a hard error (the generational
            // arena guarantees a recycled slot can never absorb it).
            None => panic!("resume for dead process {pid:?}"),
        };
        loop {
            let block = {
                let mut ctx = Ctx {
                    now: self.clock,
                    immediate: &mut self.immediates,
                };
                process.resume(&mut ctx)
            };
            self.drain_immediates();
            match block {
                Block::Delay(d) => {
                    self.schedule_ev(self.clock + d, Ev::Resume(pid));
                    break;
                }
                Block::Service { server, hold } => {
                    if self.servers[server.0].request(self.clock, pid, hold) {
                        let at = self.clock + hold;
                        self.schedule_ev(at, Ev::ServerDone { server, pid, hold });
                    }
                    break;
                }
                Block::Transfer { link, bytes } => {
                    if bytes <= 0.0 {
                        // Zero-byte transfers complete instantly: loop again.
                        continue;
                    }
                    self.links[link.0].update(self.clock);
                    self.links[link.0].add(pid, bytes);
                    self.reschedule_link(link);
                    break;
                }
                Block::AcquireKey { lock, key } => {
                    if self.locks[lock.0].acquire(pid, key) {
                        // Granted immediately: keep running.
                        continue;
                    }
                    break;
                }
                Block::Done => {
                    self.live_processes -= 1;
                    // Process dropped; its slot is recycled for the next
                    // spawn and the generation bump retires this pid.
                    self.processes.retire(pid);
                    return;
                }
            }
        }
        self.processes.restore(pid, process);
    }

    /// Records a completed server service period as a sim-clock trace span
    /// (one track per server). Called at the completion event, when both
    /// the start (`now - hold`) and the duration are known.
    fn record_service_span(&self, server: ServerId, hold: SimTime) {
        if cumf_obs::enabled() {
            let start = self.clock.as_secs() - hold.as_secs();
            cumf_obs::span_sim(
                "des",
                format!("service:{}", self.servers[server.0].name),
                server.0 as u32,
                start.max(0.0),
                hold.as_secs(),
                Vec::new(),
            );
        }
    }

    /// Applies non-blocking actions a process issued through its `Ctx`.
    fn drain_immediates(&mut self) {
        while let Some(action) = self.immediates.pop() {
            match action {
                Immediate::ReleaseKey { lock, key } => {
                    if let Some(waiter) = self.locks[lock.0].release(key) {
                        self.schedule_ev(self.clock, Ev::Resume(waiter));
                    }
                }
                Immediate::Spawn(process) => {
                    self.spawn(process);
                }
            }
        }
    }

    /// Re-schedules the single pending completion event of a link.
    fn reschedule_link(&mut self, link: LinkId) {
        if let Some(old) = self.link_tick[link.0].take() {
            self.queue.cancel(old);
        }
        if let Some(dt) = self.links[link.0].next_completion_in() {
            let id = self.schedule_ev(self.clock + dt, Ev::LinkTick { link });
            self.link_tick[link.0] = Some(id);
        }
    }

    /// Builds the statistics report as of the current clock.
    fn report(&mut self) -> RunReport {
        let now = self.clock;
        let total = now.as_secs();
        let servers = self
            .servers
            .iter_mut()
            .map(|s| {
                let mean_busy = s.busy_tw.mean(now);
                ServerStats {
                    name: s.name.clone(),
                    completed: s.completed,
                    mean_busy,
                    utilisation: if s.capacity() > 0 {
                        mean_busy / s.capacity() as f64
                    } else {
                        0.0
                    },
                    mean_wait: s.waits.mean(),
                    max_wait: s.waits.max(),
                    mean_queue_len: s.queue_tw.mean(now),
                }
            })
            .collect();
        let links = self
            .links
            .iter_mut()
            .map(|l| {
                l.update(now);
                LinkStats {
                    name: l.name.clone(),
                    bytes_transferred: l.bytes_done,
                    completed: l.completed,
                    busy_fraction: if total > 0.0 {
                        l.busy_time / total
                    } else {
                        0.0
                    },
                    achieved_bandwidth: if total > 0.0 {
                        l.bytes_done / total
                    } else {
                        0.0
                    },
                    busy_bandwidth: if l.busy_time > 0.0 {
                        l.bytes_done / l.busy_time
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let locks = self
            .locks
            .iter()
            .map(|l| LockStats {
                name: l.name.clone(),
                acquisitions: l.acquisitions,
                contended: l.contended,
            })
            .collect();
        RunReport {
            end_time: now,
            events: self.events_processed,
            servers,
            links,
            locks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A process that sleeps `n` times for `dt` then finishes, recording the
    /// time of each wake-up.
    struct Sleeper {
        n: usize,
        dt: SimTime,
        wakes: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
    }

    impl Process for Sleeper {
        fn resume(&mut self, ctx: &mut Ctx<'_>) -> Block {
            self.wakes.borrow_mut().push(ctx.now());
            if self.n == 0 {
                return Block::Done;
            }
            self.n -= 1;
            Block::Delay(self.dt)
        }
    }

    #[test]
    fn delays_advance_the_clock() {
        let wakes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.spawn(Box::new(Sleeper {
            n: 3,
            dt: t(1.5),
            wakes: wakes.clone(),
        }));
        let report = sim.run(None);
        assert_eq!(report.end_time, t(4.5));
        assert_eq!(
            *wakes.borrow(),
            vec![t(0.0), t(1.5), t(3.0), t(4.5)],
            "one wake at spawn plus one per delay"
        );
        assert_eq!(sim.live_processes(), 0);
    }

    /// A process that requests `rounds` service holds on a shared server.
    struct Contender {
        server: ServerId,
        hold: SimTime,
        rounds: usize,
        done_at: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
        started: bool,
    }

    impl Process for Contender {
        fn resume(&mut self, ctx: &mut Ctx<'_>) -> Block {
            if self.started {
                self.rounds -= 1;
                if self.rounds == 0 {
                    self.done_at.borrow_mut().push(ctx.now());
                    return Block::Done;
                }
            }
            self.started = true;
            Block::Service {
                server: self.server,
                hold: self.hold,
            }
        }
    }

    #[test]
    fn single_server_serialises_holds() {
        let done = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let server = sim.add_server("cs", 1);
        for _ in 0..4 {
            sim.spawn(Box::new(Contender {
                server,
                hold: t(1.0),
                rounds: 1,
                done_at: done.clone(),
                started: false,
            }));
        }
        let report = sim.run(None);
        // 4 jobs x 1s each on one server -> finishes at 1,2,3,4.
        assert_eq!(*done.borrow(), vec![t(1.0), t(2.0), t(3.0), t(4.0)]);
        let s = report.server("cs").unwrap();
        assert_eq!(s.completed, 4);
        assert!((s.utilisation - 1.0).abs() < 1e-9);
        // Waits: 0 + 1 + 2 + 3 = 6 over 4 jobs.
        assert!((s.mean_wait - 1.5).abs() < 1e-9);
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let done = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let server = sim.add_server("cs", 4);
        for _ in 0..4 {
            sim.spawn(Box::new(Contender {
                server,
                hold: t(1.0),
                rounds: 1,
                done_at: done.clone(),
                started: false,
            }));
        }
        let report = sim.run(None);
        assert_eq!(report.end_time, t(1.0));
        assert_eq!(*done.borrow(), vec![t(1.0); 4]);
    }

    /// A process that transfers `bytes` once over a link then finishes.
    struct Mover {
        link: LinkId,
        bytes: f64,
        finished_at: std::rc::Rc<std::cell::RefCell<Vec<SimTime>>>,
        started: bool,
    }

    impl Process for Mover {
        fn resume(&mut self, ctx: &mut Ctx<'_>) -> Block {
            if self.started {
                self.finished_at.borrow_mut().push(ctx.now());
                return Block::Done;
            }
            self.started = true;
            Block::Transfer {
                link: self.link,
                bytes: self.bytes,
            }
        }
    }

    #[test]
    fn bandwidth_is_shared_fairly() {
        let fin = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let link = sim.add_link("net", 100.0); // 100 B/s
        for _ in 0..2 {
            sim.spawn(Box::new(Mover {
                link,
                bytes: 100.0,
                finished_at: fin.clone(),
                started: false,
            }));
        }
        let report = sim.run(None);
        // Two 100 B transfers sharing 100 B/s finish together at t=2.
        assert_eq!(report.end_time, t(2.0));
        assert_eq!(fin.borrow().len(), 2);
        let l = report.link("net").unwrap();
        assert!((l.bytes_transferred - 200.0).abs() < 1e-6);
        assert!((l.achieved_bandwidth - 100.0).abs() < 1e-6);
        assert!((l.busy_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_transfers_slow_each_other() {
        let fin = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let link = sim.add_link("net", 100.0);
        sim.spawn(Box::new(Mover {
            link,
            bytes: 100.0,
            finished_at: fin.clone(),
            started: false,
        }));
        sim.spawn_at(
            t(0.5),
            Box::new(Mover {
                link,
                bytes: 100.0,
                finished_at: fin.clone(),
                started: false,
            }),
        );
        let report = sim.run(None);
        // Job A: 50 B alone (0.5 s), then shares: 50 B at 50 B/s -> done 1.5.
        // Job B: 50 B shared by 1.5, then alone: 50 B at 100 B/s -> done 2.0.
        let fin = fin.borrow();
        assert!((fin[0].as_secs() - 1.5).abs() < 1e-9);
        assert!((fin[1].as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(report.end_time, t(2.0));
    }

    /// Two workers ping-pong on a keyed lock.
    struct LockUser {
        lock: LockId,
        key: usize,
        hold: SimTime,
        rounds: usize,
        state: u8, // 0 = acquire, 1 = holding (delay), 2 = release+loop
        trace: std::rc::Rc<std::cell::RefCell<Vec<(usize, SimTime)>>>,
        id: usize,
    }

    impl Process for LockUser {
        fn resume(&mut self, ctx: &mut Ctx<'_>) -> Block {
            loop {
                match self.state {
                    0 => {
                        self.state = 1;
                        return Block::AcquireKey {
                            lock: self.lock,
                            key: self.key,
                        };
                    }
                    1 => {
                        // Lock acquired; hold it for a while.
                        self.trace.borrow_mut().push((self.id, ctx.now()));
                        self.state = 2;
                        return Block::Delay(self.hold);
                    }
                    2 => {
                        ctx.release_key(self.lock, self.key);
                        self.rounds -= 1;
                        if self.rounds == 0 {
                            return Block::Done;
                        }
                        self.state = 0;
                        continue;
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn keyed_lock_serialises_critical_sections() {
        let trace = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let lock = sim.add_lock("cols", 1);
        for id in 0..2 {
            sim.spawn(Box::new(LockUser {
                lock,
                key: 0,
                hold: t(1.0),
                rounds: 2,
                state: 0,
                trace: trace.clone(),
                id,
            }));
        }
        let report = sim.run(None);
        // 4 critical sections of 1 s must serialise: end at t=4.
        assert_eq!(report.end_time, t(4.0));
        let trace = trace.borrow();
        let times: Vec<f64> = trace.iter().map(|(_, t)| t.as_secs()).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0]);
        // FIFO handoff alternates the two workers.
        let ids: Vec<usize> = trace.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 0, 1]);
    }

    #[test]
    fn horizon_stops_the_run() {
        let wakes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.spawn(Box::new(Sleeper {
            n: 1000,
            dt: t(1.0),
            wakes: wakes.clone(),
        }));
        let report = sim.run(Some(t(10.5)));
        assert_eq!(report.end_time, t(10.5));
        assert_eq!(wakes.borrow().len(), 11); // t = 0..=10
        assert_eq!(sim.live_processes(), 1);
    }

    #[test]
    fn zero_byte_transfer_completes_instantly() {
        struct ZeroMover {
            link: LinkId,
            started: bool,
        }
        impl Process for ZeroMover {
            fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
                if self.started {
                    return Block::Done;
                }
                self.started = true;
                Block::Transfer {
                    link: self.link,
                    bytes: 0.0,
                }
            }
        }
        let mut sim = Simulation::new();
        let link = sim.add_link("net", 1.0);
        sim.spawn(Box::new(ZeroMover {
            link,
            started: false,
        }));
        let report = sim.run(None);
        assert_eq!(report.end_time, t(0.0));
    }

    #[test]
    fn spawned_child_processes_run() {
        struct Parent {
            link: LinkId,
            spawned: bool,
        }
        struct Child {
            link: LinkId,
            started: bool,
        }
        impl Process for Child {
            fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
                if self.started {
                    return Block::Done;
                }
                self.started = true;
                Block::Transfer {
                    link: self.link,
                    bytes: 100.0,
                }
            }
        }
        impl Process for Parent {
            fn resume(&mut self, ctx: &mut Ctx<'_>) -> Block {
                if !self.spawned {
                    self.spawned = true;
                    ctx.spawn(Box::new(Child {
                        link: self.link,
                        started: false,
                    }));
                }
                Block::Done
            }
        }
        let mut sim = Simulation::new();
        let link = sim.add_link("net", 100.0);
        sim.spawn(Box::new(Parent {
            link,
            spawned: false,
        }));
        let report = sim.run(None);
        assert_eq!(report.end_time, t(1.0));
        assert_eq!(report.link("net").unwrap().completed, 1);
    }

    /// Zero-duration zero-wait event storms must terminate (FIFO ordering).
    #[test]
    fn simultaneous_events_fire_in_fifo_order() {
        struct Tag {
            id: usize,
            wakes: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
        }
        impl Process for Tag {
            fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
                self.wakes.borrow_mut().push(self.id);
                Block::Done
            }
        }
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        for id in 0..16 {
            sim.spawn(Box::new(Tag {
                id,
                wakes: order.clone(),
            }));
        }
        sim.run(None);
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn resource_topology_exports_every_registered_resource() {
        let mut sim = Simulation::new();
        sim.add_server("scheduler", 1);
        sim.add_link("pcie", 1e9);
        sim.add_lock("columns", 64);
        sim.add_server("copy", 2);
        let topo = sim.resource_topology();
        assert_eq!(topo.len(), 4);
        let find = |name: &str| topo.iter().find(|n| n.name == name).unwrap();
        assert_eq!(find("scheduler").kind, ResourceKind::Server);
        assert_eq!(find("scheduler").slots, 1);
        assert_eq!(find("copy").slots, 2);
        assert_eq!(find("pcie").kind, ResourceKind::Link);
        assert_eq!(find("pcie").slots, 0, "PS links never block a requester");
        assert_eq!(find("columns").kind, ResourceKind::Lock);
        assert_eq!(find("columns").slots, 64);
    }
}
