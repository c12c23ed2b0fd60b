//! The SoC composition layer: a cycle-stepped [`Engine`] trait and a
//! [`Scheduler`] that ticks arbitrary engine sets on one shared clock.
//!
//! The paper's system is one synchronous SoC — traversal unit,
//! reclamation sweepers, CPU and page-table walker all tick against a
//! single DDR3 controller. Modelling each accelerator component as an
//! independently steppable process under a bulk-synchronous scheduler
//! is what makes multi-unit and overlapped-phase scenarios composable:
//! any set of [`Engine`]s can share a clock and a memory system under a
//! pluggable [`Policy`] (lockstep, round-robin datapath
//! time-multiplexing, or the §VII bandwidth throttle). The CPU
//! baseline's stop-the-world collector runs alone on the core's own
//! clock, so it is not an engine.
//!
//! The scheduler is generic over the context type `Ctx` handed to every
//! [`Engine::step`] call, so this crate stays free of heap/memory
//! dependencies; the concrete SoC context (one memory system plus the
//! scheduled heaps) lives downstream in `tracegc-heap`.
//!
//! # Clock protocol
//!
//! Each iteration the scheduler offers the current cycle to its engines
//! (under [`Pacing::FastForward`], only to the awake ones; see below)
//! and classifies the outcome:
//!
//! * some engine [`Advanced`](Progress::Advanced) — the clock moves one
//!   cycle; advancing engines are charged busy via [`Engine::note_busy`],
//!   stalled ones (asleep or not) one cycle of their
//!   [`Engine::stall_reason`].
//! * every live engine [`Stalled`](Progress::Stalled) — the clock moves
//!   according to the [`Pacing`] (see below): one cycle under
//!   [`Pacing::Lockstep`], straight to the earliest pending
//!   [`Engine::next_event_at`] under [`Pacing::FastForward`] — charging
//!   each engine its stall reason for the skipped span either way; with
//!   no pending event anywhere the run fails with a
//!   [`SimError::Deadlock`] carrying a per-engine stall dump (see below).
//! * an engine returns [`Done`](Progress::Done) — its completion cycle is
//!   recorded and it is never stepped again. The run ends when every
//!   non-[background](Engine::is_background) engine is done.
//!
//! # Pacing: lockstep vs fast-forward
//!
//! Orthogonal to the arbitration [`Policy`], a [`Pacing`] selects how the
//! clock advances between service rounds:
//!
//! * [`Pacing::Lockstep`] is the reference interpreter: the clock only
//!   ever advances one cycle at a time and every live engine is stepped
//!   at every service cycle. Trivially correct, and dead slow — most
//!   steps of a memory-bound SoC return [`Progress::Stalled`].
//! * [`Pacing::FastForward`] (the default) is event-driven: when a
//!   service round ends with every live engine stalled, the clock hops
//!   straight to the earliest strictly-future [`Engine::next_event_at`]
//!   without stepping anybody, charging each engine's ledger the
//!   skipped span under its current [`Engine::stall_reason`]. The
//!   `next_event_at` contract (see [`Engine::next_event_at`]) makes the
//!   skipped steps provably side-effect-free, so both pacings produce
//!   identical cycle counts, stall ledgers, trap cycles and completion
//!   times — an equivalence pinned by `tests/engine_equivalence.rs`
//!   across thousands of seeded (workload, config, fault-plan, policy)
//!   combinations.
//!
//! Fast-forward also keeps an *activity set* (the CCSS idea of stepping
//! only the components whose inputs changed), because the hop alone
//! never fires while any one engine works: with eight traversal units
//! on one DDR3 some unit nearly always has work, and every other unit
//! would be re-stepped each cycle only to stall again. An engine that
//! returns [`Progress::Stalled`] with a strictly future
//! [`Engine::next_event_at`] goes to *sleep*: the scheduler stores that
//! cycle and the engine's [`Engine::stall_reason`], and does not step
//! the engine again until the stored cycle comes due or
//! [`Engine::has_input`] reports input another engine left in the
//! context (a mailbox message, a latched memory fault). By the contract
//! each skipped step would have been a side-effect-free stall. A
//! sleeper is still charged one [`Engine::note_stall`] per service
//! round with the stored reason, which span-stability makes equal to
//! the live one, so ledgers and per-call trace events match the
//! stepped run; and the all-stall hop takes its minimum over the
//! stored cycles. [`Pacing::Lockstep`] never sleeps anybody and stays
//! the reference: every pacing wall compares fast-forward, sleeping
//! included, against it.
//!
//! The hop is clamped to the watchdog deadline so a livelocked engine
//! set trips the no-progress watchdog at the identical cycle (and with
//! the identical ledger dump) under both pacings. Under
//! [`Policy::RoundRobin`] a full grant round in which no engine advances
//! *parks* the arbiter: the time-multiplexed datapath goes idle, every
//! live engine is charged its own stall reason until the earliest
//! pending event, and the grant pointer holds, so the post-wake service
//! order continues the rotation exactly where it stopped — the rotation
//! is *hop-invariant*: no grant depends on the absolute cycle, so
//! however long the parked span and whatever the wake cycle, the skip
//! neither re-grants the engine just served nor swallows another
//! engine's turn. Fast-forward hops the parked span at
//! once, lockstep crawls it cycle by cycle; both charge identical
//! ledgers and resume at the identical grant, an equivalence pinned by
//! the randomized round-robin differential in
//! `tests/engine_equivalence.rs`. Under
//! [`Policy::Throttled`] the fast-forward hop is disabled — the clock
//! already advances in period-sized aligned jumps, and a mid-window hop
//! would let the two pacings step engines at different service cycles,
//! breaking pacing equivalence. Sleeping stays on there and is exact:
//! it moves no clock, and only skips steps at service cycles strictly
//! before a sleeper's event, which the contract makes side-effect-free
//! stalls under the same (span-stable) reason. Round-robin arbitration
//! never sleeps an engine; it already serves one engine per cycle.
//!
//! The process-wide default pacing is [`Pacing::FastForward`],
//! overridden per process via [`set_default_pacing`] (the experiment
//! driver's `--sched` flag), per scope via [`with_pacing`] (how the
//! differential tests run one driver both ways), and per scheduler via
//! [`Scheduler::pacing`]. A [`with_pacing`] scope reaches the workers
//! of [`run_partitions`] too.
//!
//! # Exec: bulk-synchronous partition parallelism
//!
//! Orthogonal to both [`Policy`] (who is served within a schedule) and
//! [`Pacing`] (how the clock advances between service rounds), an
//! [`Exec`] selects how many *host* worker threads execute independent
//! partitions. The partitioning rule is strict: engines that share a
//! scheduler context (one [`Scheduler::try_run`] call — in the SoC, one
//! DDR3 controller) interact at every service round through that
//! context, so a shared-context schedule is one indivisible partition.
//! What can run in parallel are *whole simulations* that provably never
//! exchange state — in the harness, whole experiments, each of which
//! builds every heap, memory system and unit it ticks from seeds.
//! [`run_partitions`] executes such work on up to `workers` threads
//! between two barriers (the fork at submission and the join before
//! results are read), returns results in partition order regardless of
//! OS scheduling, and short-circuits the work queue when any partition
//! panics.
//!
//! The process-wide default is [`Exec::Serial`], overridden via
//! [`set_default_exec`]; the harness seeds its `--jobs` default from
//! [`default_exec`].
//!
//! A no-progress watchdog replaces ad-hoc per-loop deadlock panics:
//! after [`DEFAULT_NO_PROGRESS_LIMIT`] cycles (configurable via
//! [`Scheduler::no_progress_limit`]) in which every engine stalled,
//! [`Scheduler::try_run`] returns a [`SimError::Deadlock`] whose dump
//! lists each engine's name, current stall reason, pending event and
//! [`StallAccounting`] ledger.
//!
//! # Examples
//!
//! ```
//! use tracegc_sim::sched::{Engine, Policy, Progress, Scheduler};
//!
//! /// Counts down one unit of work per cycle; `Ctx` is unused.
//! struct Countdown(u64);
//! impl Engine<()> for Countdown {
//!     fn name(&self) -> &'static str {
//!         "countdown"
//!     }
//!     fn step(&mut self, _now: u64, _ctx: &mut ()) -> Progress {
//!         if self.0 == 0 {
//!             return Progress::Done;
//!         }
//!         self.0 -= 1;
//!         Progress::Advanced
//!     }
//!     fn next_event_at(&self) -> Option<u64> {
//!         None
//!     }
//! }
//!
//! let mut e = Countdown(10);
//! let report = Scheduler::new(Policy::Lockstep)
//!     .try_run(&mut [&mut e], &mut (), 0)
//!     .unwrap();
//! assert_eq!(report.end, 10);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::fault::SimError;
use crate::metrics::{StallAccounting, StallReason};
use crate::Cycle;

/// What an [`Engine`] accomplished in one offered cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// The engine did work this cycle.
    Advanced,
    /// The engine could not make progress; consult
    /// [`Engine::next_event_at`] for when it might.
    Stalled,
    /// The engine has finished; it will not be stepped again.
    Done,
}

/// A cycle-stepped state machine the [`Scheduler`] can tick.
///
/// Implementations exist for the traversal unit, the reclamation
/// unit's sweeper array and the concurrent-mutator model (in their
/// owning crates); anything that can advance one cycle at a time
/// against shared state can join an SoC.
///
/// Engines that keep their own [`StallAccounting`] ledgers internally
/// (self-clocked engines like the sweeper array) leave the `note_*`
/// hooks as the default no-ops; externally-clocked engines route the
/// scheduler's charges into their ledger so the
/// `busy + Σ stalls == cycles` invariant holds per engine.
pub trait Engine<Ctx> {
    /// Short stable name, used in watchdog dumps and progress logs.
    fn name(&self) -> &'static str;

    /// Instance label for watchdog dumps: [`Engine::name`] plus any
    /// per-instance identity (heap index, tenant id, partition). A
    /// multi-unit deadlock dump that says `traversal` eight times is
    /// useless; one that says `traversal[tenant 3 social-graph]` names
    /// the culprit. Defaults to the bare name.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Offers the engine cycle `now`; the engine reports what it did.
    fn step(&mut self, now: Cycle, ctx: &mut Ctx) -> Progress;

    /// Earliest cycle at which a stalled engine could progress, if any.
    ///
    /// # Contract (load-bearing for [`Pacing::FastForward`])
    ///
    /// When a service round ends with every live engine stalled, the
    /// fast-forward scheduler skips *without stepping* every cycle
    /// strictly before the earliest reported event, so implementors
    /// must uphold (and `tests/engine_contract.rs` property-checks):
    ///
    /// * **Never late.** A stalled engine must never report an event
    ///   later than its true next state change: re-stepped at any cycle
    ///   strictly before the reported event it must return
    ///   [`Progress::Stalled`] again and be side-effect-free, absent
    ///   new external input. External wake sources (e.g. mailbox
    ///   traffic from a mutator) must themselves be scheduled engines
    ///   reporting their own events, so the cross-engine minimum covers
    ///   them, and the woken engine must report that input through
    ///   [`Engine::has_input`], so the fast-forward scheduler steps it
    ///   before its own promised event.
    /// * **Never stale.** An engine that just returned
    ///   [`Progress::Stalled`] at `now` must report an event `> now`
    ///   (or `None`). A past event is not "conservative": it masks the
    ///   engine's real future events behind the scheduler's minimum and
    ///   degrades fast-forward into a one-cycle crawl.
    /// * **Not stalled at the event.** Stepped at the reported cycle,
    ///   the engine must make progress (or finish) — events mark real
    ///   state changes, not guesses.
    /// * **Span-stable stall reasons.** [`Engine::stall_reason`] must
    ///   be constant over the skipped span, so one span-sized ledger
    ///   charge equals lockstep's per-cycle charges.
    ///
    /// `None` means "no self-scheduled wake": the scheduler must step
    /// the engine to discover progress, and deadlocks if every live
    /// engine is stalled with no event.
    fn next_event_at(&self) -> Option<Cycle>;

    /// Whether another engine has left input in `ctx` that this engine
    /// would act on at its next step. Under [`Pacing::FastForward`] a
    /// stalled engine that promised a future [`Engine::next_event_at`]
    /// is not stepped again before that event unless this returns
    /// `true`. Defaults to `false`: an engine that only another
    /// engine can unblock while it holds a promise must override it.
    fn has_input(&self, _ctx: &Ctx) -> bool {
        false
    }

    /// Why the engine cannot progress at `now` (used for stall charging
    /// and watchdog dumps). Defaults to [`StallReason::Idle`].
    fn stall_reason(&self, _now: Cycle) -> StallReason {
        StallReason::Idle
    }

    /// Charges `n` cycles of forward progress to the engine's ledger.
    /// Default no-op for self-accounting engines.
    fn note_busy(&mut self, _n: u64) {}

    /// Charges `span` stalled cycles starting at `now` to `reason`.
    /// Default no-op for self-accounting engines.
    fn note_stall(&mut self, _now: Cycle, _reason: StallReason, _span: u64) {}

    /// Background engines (e.g. a mutator) never finish and do not gate
    /// run completion.
    fn is_background(&self) -> bool {
        false
    }

    /// A snapshot of the engine's stall ledger for watchdog dumps.
    fn ledger(&self) -> Option<StallAccounting> {
        None
    }
}

/// How the [`Scheduler`] arbitrates its engines each cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Policy {
    /// Every live engine is offered every cycle, in registration order.
    Lockstep,
    /// One engine is served per cycle by a rotating grant pointer,
    /// modelling a single time-multiplexed datapath (§VII multi-process
    /// sharing). Unserved engines are charged
    /// [`StallReason::PortBusy`]; the rotation is hop-invariant across
    /// the arbiter's idle-span parking (see the module docs).
    RoundRobin,
    /// Lockstep, but engines are only offered cycles at multiples of
    /// `period` from the start cycle; skipped cycles are charged
    /// [`StallReason::Throttled`] (§VII bandwidth capping).
    Throttled {
        /// Cycles between consecutive service cycles (≥ 1).
        period: Cycle,
    },
}

/// How the scheduler's clock advances between service rounds (see the
/// module docs): `Lockstep` is the one-cycle-at-a-time reference
/// interpreter, `FastForward` (the default) hops the clock straight to
/// the earliest future [`Engine::next_event_at`]. Both produce
/// identical cycle counts and ledgers; only wall-clock differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Step every live engine at every service cycle; the clock only
    /// advances one cycle at a time.
    Lockstep,
    /// Event-driven: skip cycles, and steps of sleeping engines,
    /// provably free of state changes, charging the skipped span to
    /// each engine's stall ledger.
    FastForward,
}

impl Pacing {
    /// Parses a CLI spelling (`lockstep` / `fastforward`, with
    /// `fast-forward` accepted as an alias).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lockstep" => Some(Self::Lockstep),
            "fastforward" | "fast-forward" => Some(Self::FastForward),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Lockstep => "lockstep",
            Self::FastForward => "fastforward",
        }
    }
}

/// Process-wide default pacing, stored as `Pacing as u8`.
static DEFAULT_PACING: AtomicU8 = AtomicU8::new(Pacing::FastForward as u8);

thread_local! {
    /// Scoped override installed by [`with_pacing`]; beats the process
    /// default so parallel tests can pick a pacing without racing.
    static PACING_OVERRIDE: std::cell::Cell<Option<Pacing>> = const { std::cell::Cell::new(None) };
}

/// The pacing a [`Scheduler::new`] starts with: a [`with_pacing`] scope
/// if one is active, else the process default ([`set_default_pacing`],
/// falling back to [`Pacing::FastForward`]).
pub fn default_pacing() -> Pacing {
    PACING_OVERRIDE
        .with(std::cell::Cell::get)
        .unwrap_or_else(|| {
            if DEFAULT_PACING.load(Ordering::Relaxed) == Pacing::Lockstep as u8 {
                Pacing::Lockstep
            } else {
                Pacing::FastForward
            }
        })
}

/// Sets the process-wide default pacing (the experiment driver's
/// `--sched` flag calls this before spawning its worker pool).
pub fn set_default_pacing(p: Pacing) {
    DEFAULT_PACING.store(p as u8, Ordering::Relaxed);
}

/// Runs `f` with `p` as this thread's default pacing, restoring the
/// previous scope afterwards. Every `run_*` driver constructs its
/// scheduler via [`Scheduler::new`], so this is how the differential
/// tests run the same driver under both pacings without racing other
/// test threads on the process default.
pub fn with_pacing<R>(p: Pacing, f: impl FnOnce() -> R) -> R {
    let prev = PACING_OVERRIDE.with(|o| o.replace(Some(p)));
    let r = f();
    PACING_OVERRIDE.with(|o| o.set(prev));
    r
}

/// How many host worker threads execute independent partitions (see
/// the module docs): the execution axis orthogonal to [`Policy`] and
/// [`Pacing`]. Purely a wall-clock knob — every output is byte-identical
/// for every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Partitions run inline on the calling thread, in order.
    Serial,
    /// Partitions run on up to `workers` threads between barriers;
    /// results are still collected in partition order.
    Parallel {
        /// Worker-thread budget (≥ 2; 0/1 mean [`Exec::Serial`]).
        workers: usize,
    },
}

impl Exec {
    /// The `Exec` for a `--jobs N` worker budget: `0` and `1` are
    /// [`Exec::Serial`], anything larger [`Exec::Parallel`].
    pub fn from_workers(workers: usize) -> Self {
        if workers <= 1 {
            Self::Serial
        } else {
            Self::Parallel { workers }
        }
    }

    /// The worker-thread budget (1 for [`Exec::Serial`]).
    pub fn workers(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Parallel { workers } => workers,
        }
    }
}

/// Process-wide default exec, stored as its worker budget.
static DEFAULT_EXEC: AtomicUsize = AtomicUsize::new(1);

/// The process default exec ([`set_default_exec`], falling back to
/// [`Exec::Serial`]). The harness's `Options::default()` seeds its
/// worker budget from it.
pub fn default_exec() -> Exec {
    Exec::from_workers(DEFAULT_EXEC.load(Ordering::Relaxed))
}

/// Sets the process-wide default exec.
pub fn set_default_exec(e: Exec) {
    DEFAULT_EXEC.store(e.workers(), Ordering::Relaxed);
}

/// Sets the shared poison flag iff its owner is unwinding, so sibling
/// workers stop claiming new partitions once any partition panics.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// Executes independent partitions under `exec`, returning results in
/// partition order.
///
/// This is the bulk-synchronous superstep primitive behind the
/// harness's experiment pool (`--jobs`): the call is bracketed by two
/// barriers (workers fork on entry and all join before any result is
/// read), partitions are claimed dynamically from an atomic cursor so
/// long partitions do not strand workers behind a static split, and
/// each result lands in the slot of its input index, so the output
/// order — and therefore every downstream merge — is independent of
/// both `exec` and OS scheduling.
///
/// `f` receives the partition index alongside the item, so callers can
/// seed or label per-partition state without smuggling an index through
/// the item type. Every partition runs under the caller's
/// [`default_pacing`], including a [`with_pacing`] scope, which is
/// thread-local and would otherwise not reach the workers.
///
/// # Panics
///
/// A panic in `f` poisons the work queue: no *new* partition is claimed
/// afterwards (in-flight ones finish), and the panic propagates to the
/// caller once all workers have stopped.
pub fn run_partitions<T, U, F>(exec: Exec, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = exec.workers().clamp(1, n.max(1));
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Each input sits in its own slot so a worker can take ownership of
    // partition `i` without holding any shared lock while running `f`;
    // each output lands in the slot of the same index, which preserves
    // partition order no matter which worker finishes first.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let poison = AtomicBool::new(false);
    let pacing = default_pacing();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if poison.load(Ordering::SeqCst) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("a work slot is locked at most once")
                    .take()
                    .expect("the cursor hands out each index once");
                let guard = PoisonOnPanic(&poison);
                let result = with_pacing(pacing, || f(i, item));
                drop(guard);
                *out[i].lock().expect("a result slot is locked at most once") = Some(result);
            });
        }
    });

    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers have joined")
                .expect("every partition was executed")
        })
        .collect()
}

/// Charges `span` stalled cycles from `now` to `engine`: under the
/// reason it stored when it went to sleep, else its live
/// [`Engine::stall_reason`]. The two agree by the span-stability clause
/// of the [`Engine::next_event_at`] contract.
fn charge_stall<Ctx>(
    engine: &mut dyn Engine<Ctx>,
    asleep: Option<(Cycle, StallReason)>,
    now: Cycle,
    span: u64,
) {
    let reason = asleep.map_or_else(|| engine.stall_reason(now), |(_, r)| r);
    engine.note_stall(now, reason, span);
}

/// Default no-progress watchdog: fail after this many consecutive
/// cycles in which no engine advanced or finished.
pub const DEFAULT_NO_PROGRESS_LIMIT: Cycle = 10_000_000;

/// Outcome of one [`Scheduler::try_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocReport {
    /// Cycle the run began.
    pub start: Cycle,
    /// Cycle the last non-background engine finished.
    pub end: Cycle,
    /// Per-engine completion cycles, in registration order (background
    /// engines keep `start`).
    pub ends: Vec<Cycle>,
}

impl SocReport {
    /// Wall-clock cycles of the whole run.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// Ticks a set of [`Engine`]s on one shared clock under a [`Policy`].
///
/// The scheduler borrows the engines only for the duration of
/// [`Scheduler::try_run`], so callers keep ownership and can extract
/// engine-specific results afterwards.
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: Policy,
    pacing: Pacing,
    no_progress_limit: Cycle,
}

impl Scheduler {
    /// A scheduler with the given policy, the ambient
    /// [`default_pacing`] and the default watchdog.
    pub fn new(policy: Policy) -> Self {
        Self {
            policy,
            pacing: default_pacing(),
            no_progress_limit: DEFAULT_NO_PROGRESS_LIMIT,
        }
    }

    /// Overrides the pacing for this scheduler only.
    pub fn pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Overrides the no-progress watchdog threshold.
    pub fn no_progress_limit(mut self, cycles: Cycle) -> Self {
        self.no_progress_limit = cycles;
        self
    }

    /// Runs the engines to completion from cycle `start`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] (with the per-engine stall-reason
    /// and ledger dump) when every engine stalls with no pending event
    /// or the no-progress watchdog trips. Drivers of trusted engine
    /// sets, where a wedge is a simulator bug, `expect` it.
    ///
    /// # Panics
    ///
    /// Panics on caller errors: an empty engine set or no foreground
    /// engine.
    pub fn try_run<Ctx>(
        &self,
        engines: &mut [&mut dyn Engine<Ctx>],
        ctx: &mut Ctx,
        start: Cycle,
    ) -> Result<SocReport, SimError> {
        assert!(!engines.is_empty(), "scheduler needs at least one engine");
        assert!(
            engines.iter().any(|e| !e.is_background()),
            "scheduler needs a foreground engine to define completion"
        );
        match &self.policy {
            Policy::RoundRobin => self.run_round_robin(engines, ctx, start),
            Policy::Lockstep => self.run_synchronous(engines, ctx, start, 1),
            Policy::Throttled { period } => {
                self.run_synchronous(engines, ctx, start, (*period).max(1))
            }
        }
    }

    /// Lockstep / throttled: every live engine is offered every service
    /// cycle, in registration order, except a fast-forward sleeper (see
    /// the module docs).
    fn run_synchronous<Ctx>(
        &self,
        engines: &mut [&mut dyn Engine<Ctx>],
        ctx: &mut Ctx,
        start: Cycle,
        period: Cycle,
    ) -> Result<SocReport, SimError> {
        let n = engines.len();
        let mut done = vec![false; n];
        let mut ends = vec![start; n];
        let mut advanced = vec![false; n];
        // The activity set: under fast-forward, an engine that stalls
        // promising a strictly future event sleeps until that event
        // (or until another engine leaves it input), holding the event
        // and the stall reason it gave. Never set under lockstep.
        let mut asleep: Vec<Option<(Cycle, StallReason)>> = vec![None; n];
        let mut now = start;
        let mut last_progress = start;
        loop {
            advanced.iter_mut().for_each(|a| *a = false);
            let mut any_progress = false;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                if let Some((t, _)) = asleep[i] {
                    // The contract makes this step a side-effect-free
                    // `Stalled`: skip it.
                    if t > now && !engines[i].has_input(ctx) {
                        continue;
                    }
                    asleep[i] = None;
                }
                match engines[i].step(now, ctx) {
                    Progress::Done => {
                        done[i] = true;
                        ends[i] = now;
                        any_progress = true;
                    }
                    Progress::Advanced => {
                        advanced[i] = true;
                        any_progress = true;
                    }
                    Progress::Stalled if self.pacing == Pacing::FastForward => {
                        if let Some(t) = engines[i].next_event_at().filter(|&t| t > now) {
                            asleep[i] = Some((t, engines[i].stall_reason(now)));
                        }
                    }
                    Progress::Stalled => {}
                }
            }
            if (0..n).all(|i| done[i] || engines[i].is_background()) {
                break;
            }
            if any_progress {
                last_progress = now;
                for i in 0..n {
                    if done[i] {
                        continue;
                    }
                    if advanced[i] {
                        engines[i].note_busy(1);
                    } else {
                        charge_stall(&mut *engines[i], asleep[i], now, 1);
                    }
                }
                now += 1;
            } else {
                // Every live engine stalled. With no pending event
                // anywhere the set can never advance; otherwise the
                // pacing decides how far the clock moves before the
                // next service round.
                let wake = (0..n)
                    .filter(|&i| !done[i])
                    .filter_map(|i| {
                        asleep[i]
                            .map(|(t, _)| t)
                            .or_else(|| engines[i].next_event_at())
                    })
                    .min();
                match wake {
                    None => {
                        return Err(self.deadlock_report(
                            engines,
                            &done,
                            now,
                            "every engine is stalled with no pending event",
                        ))
                    }
                    // Fast-forward: every cycle strictly before the
                    // earliest reported event is provably another
                    // all-stall round (the `next_event_at` contract),
                    // so hop the clock straight there, charging each
                    // engine the span it would have been charged cycle
                    // by cycle. The hop is clamped to the watchdog
                    // deadline so livelocks trip at the same cycle
                    // (with the same ledger) as under lockstep.
                    // Disabled under the §VII throttle policy: there
                    // the clock already advances in period-sized
                    // aligned jumps, and a mid-window hop would let the
                    // two pacings step engines at different service
                    // cycles.
                    Some(t) if t > now && self.pacing == Pacing::FastForward && period == 1 => {
                        let deadline = last_progress
                            .saturating_add(self.no_progress_limit)
                            .saturating_add(1);
                        let t = t.min(deadline);
                        let span = t - now;
                        for i in (0..n).filter(|&i| !done[i]) {
                            charge_stall(&mut *engines[i], asleep[i], now, span);
                        }
                        now = t;
                    }
                    // Lockstep (or a stale event, or the throttle):
                    // charge this cycle and crawl.
                    Some(_) => {
                        for i in (0..n).filter(|&i| !done[i]) {
                            charge_stall(&mut *engines[i], asleep[i], now, 1);
                        }
                        now += 1;
                    }
                }
                if now - last_progress > self.no_progress_limit {
                    return Err(self.deadlock_report(
                        engines,
                        &done,
                        now,
                        "no engine made progress within the watchdog window",
                    ));
                }
            }
            // §VII throttle: align the clock to the next service cycle,
            // charging the gap so per-engine ledgers stay exact.
            if period > 1 {
                let rel = now - start;
                let aligned = start + rel.div_ceil(period) * period;
                if aligned > now {
                    let span = aligned - now;
                    for i in (0..n).filter(|&i| !done[i]) {
                        engines[i].note_stall(now, StallReason::Throttled, span);
                    }
                    now = aligned;
                }
            }
        }
        let end = (0..n)
            .filter(|&i| !engines[i].is_background())
            .map(|i| ends[i])
            .max()
            .expect("at least one foreground engine");
        Ok(SocReport { start, end, ends })
    }

    /// Round-robin: a single time-multiplexed datapath serves one
    /// engine per service cycle, rotating an explicit grant pointer. A
    /// full grant round without progress *parks* the arbiter until the
    /// earliest pending event; the grant pointer is carried across the
    /// parked span, so the rotation is hop-invariant (see the module
    /// docs): no grant depends on the absolute cycle.
    fn run_round_robin<Ctx>(
        &self,
        engines: &mut [&mut dyn Engine<Ctx>],
        ctx: &mut Ctx,
        start: Cycle,
    ) -> Result<SocReport, SimError> {
        let n = engines.len();
        assert!(
            engines.iter().all(|e| !e.is_background()),
            "round-robin arbitration has no background lane"
        );
        let mut done = vec![false; n];
        let mut ends = vec![start; n];
        let mut now = start;
        let mut grant = (start % n as u64) as usize;
        let mut idle_round = 0usize;
        let mut parked = false;
        let mut last_progress = start;
        loop {
            if parked {
                // The datapath is idle: a full grant round found every
                // live engine stalled. Wait for the earliest pending
                // event without rotating the grant — nobody is being
                // served, so every engine is charged its *own* stall
                // reason, not PortBusy.
                let wake = (0..n)
                    .filter(|&j| !done[j])
                    .filter_map(|j| engines[j].next_event_at())
                    .min();
                let t = match wake {
                    None => {
                        return Err(self.deadlock_report(
                            engines,
                            &done,
                            now,
                            "every engine is stalled with no pending event",
                        ))
                    }
                    Some(t) => t,
                };
                if t <= now {
                    // A stale event: charge one idle cycle and resume
                    // service (the passed event may unblock a step).
                    for j in (0..n).filter(|&j| !done[j]) {
                        let reason = engines[j].stall_reason(now);
                        engines[j].note_stall(now, reason, 1);
                    }
                    now += 1;
                    parked = false;
                    idle_round = 0;
                } else {
                    // Fast-forward hops the parked span at once;
                    // lockstep crawls it one cycle at a time. Both
                    // charge every live engine its own (span-stable)
                    // stall reason over the identical span and resume
                    // at the identical grant, so the pacings agree
                    // cycle-for-cycle and ledger-for-ledger. The hop is
                    // clamped to the watchdog deadline so a livelock
                    // trips at the same cycle with the same dump.
                    let deadline = last_progress
                        .saturating_add(self.no_progress_limit)
                        .saturating_add(1);
                    let hop = if self.pacing == Pacing::FastForward {
                        t.min(deadline)
                    } else {
                        now + 1
                    };
                    let span = hop - now;
                    for j in (0..n).filter(|&j| !done[j]) {
                        let reason = engines[j].stall_reason(now);
                        engines[j].note_stall(now, reason, span);
                    }
                    now = hop;
                    if now >= t {
                        parked = false;
                        idle_round = 0;
                    }
                }
                if now - last_progress > self.no_progress_limit {
                    return Err(self.deadlock_report(
                        engines,
                        &done,
                        now,
                        "no engine made progress within the watchdog window",
                    ));
                }
                continue;
            }
            let idx = grant;
            let mut progress = false;
            if !done[idx] {
                match engines[idx].step(now, ctx) {
                    Progress::Done => {
                        done[idx] = true;
                        ends[idx] = now;
                        progress = true;
                    }
                    Progress::Advanced => progress = true,
                    Progress::Stalled => {}
                }
            }
            if done.iter().all(|&d| d) {
                break;
            }
            if progress {
                last_progress = now;
                idle_round = 0;
                if !done[idx] {
                    engines[idx].note_busy(1);
                }
                for j in (0..n).filter(|&j| j != idx && !done[j]) {
                    engines[j].note_stall(now, StallReason::PortBusy, 1);
                }
                now += 1;
            } else {
                idle_round += 1;
                if idle_round >= n {
                    // A full round with no progress: park the arbiter.
                    // This slot's cycle becomes the first parked cycle
                    // (charged by the parked handler above), and the
                    // grant advances exactly once — the slot was
                    // consumed — so service resumes at the rotation
                    // successor whatever the wake cycle's parity.
                    parked = true;
                } else {
                    for j in (0..n).filter(|&j| !done[j]) {
                        let reason = if j == idx {
                            engines[j].stall_reason(now)
                        } else {
                            StallReason::PortBusy
                        };
                        engines[j].note_stall(now, reason, 1);
                    }
                    now += 1;
                }
                if now - last_progress > self.no_progress_limit {
                    return Err(self.deadlock_report(
                        engines,
                        &done,
                        now,
                        "no engine made progress within the watchdog window",
                    ));
                }
            }
            grant = (grant + 1) % n;
        }
        let end = *ends.iter().max().expect("non-empty");
        Ok(SocReport { start, end, ends })
    }

    /// Builds the [`SimError::Deadlock`] carrying the per-engine
    /// stall-reason and ledger dump.
    fn deadlock_report<Ctx>(
        &self,
        engines: &[&mut dyn Engine<Ctx>],
        done: &[bool],
        now: Cycle,
        why: &str,
    ) -> SimError {
        let mut msg = format!("scheduler deadlock at cycle {now}: {why}\n");
        for (i, e) in engines.iter().enumerate() {
            if done[i] {
                msg.push_str(&format!("  [{i}] {}: done\n", e.label()));
                continue;
            }
            msg.push_str(&format!(
                "  [{i}] {}: stalled on {}, next_event={:?}",
                e.label(),
                e.stall_reason(now).name(),
                e.next_event_at()
            ));
            if let Some(ledger) = e.ledger() {
                msg.push_str(&format!(" — busy={}", ledger.busy_cycles()));
                for (reason, cycles) in ledger.breakdown() {
                    if cycles > 0 {
                        msg.push_str(&format!(" {}={cycles}", reason.name()));
                    }
                }
            }
            msg.push('\n');
        }
        SimError::Deadlock { at: now, dump: msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy engine: does `work` units, one per cycle, optionally only
    /// when `gate` divides `now`; self-reports a ledger.
    struct Toy {
        name: &'static str,
        work: u64,
        gate: u64,
        ledger: StallAccounting,
        background: bool,
    }

    impl Toy {
        fn new(name: &'static str, work: u64) -> Self {
            Self {
                name,
                work,
                gate: 1,
                ledger: StallAccounting::default(),
                background: false,
            }
        }
    }

    impl Engine<Vec<&'static str>> for Toy {
        fn name(&self) -> &'static str {
            self.name
        }
        fn step(&mut self, now: Cycle, log: &mut Vec<&'static str>) -> Progress {
            if self.work == 0 && !self.background {
                return Progress::Done;
            }
            if !now.is_multiple_of(self.gate) {
                return Progress::Stalled;
            }
            log.push(self.name);
            self.work = self.work.saturating_sub(1);
            Progress::Advanced
        }
        fn next_event_at(&self) -> Option<Cycle> {
            // Toys with `gate == 1` never stall while live, so the
            // scheduler never consults this.
            None
        }
        fn stall_reason(&self, _now: Cycle) -> StallReason {
            StallReason::MemLatency
        }
        fn note_busy(&mut self, n: u64) {
            self.ledger.busy(n);
        }
        fn note_stall(&mut self, _now: Cycle, reason: StallReason, span: u64) {
            self.ledger.stall(reason, span);
        }
        fn is_background(&self) -> bool {
            self.background
        }
        fn ledger(&self) -> Option<StallAccounting> {
            Some(self.ledger)
        }
    }

    #[test]
    fn lockstep_single_engine_runs_to_completion() {
        let mut e = Toy::new("a", 5);
        let mut log = Vec::new();
        let report = Scheduler::new(Policy::Lockstep)
            .try_run(&mut [&mut e], &mut log, 100)
            .unwrap();
        assert_eq!(report.start, 100);
        assert_eq!(report.end, 105);
        assert_eq!(report.ends, vec![105]);
        assert_eq!(report.cycles(), 5);
        assert_eq!(e.ledger.busy_cycles(), 5);
        assert_eq!(e.ledger.total_stalled(), 0);
    }

    #[test]
    fn lockstep_ends_track_each_engine_and_ledgers_cover_spans() {
        let mut a = Toy::new("a", 3);
        let mut b = Toy::new("b", 7);
        let mut log = Vec::new();
        let report = Scheduler::new(Policy::Lockstep)
            .try_run(&mut [&mut a, &mut b], &mut log, 0)
            .unwrap();
        assert_eq!(report.ends, vec![3, 7]);
        assert_eq!(report.end, 7);
        // Each engine's ledger covers exactly its live span.
        assert_eq!(a.ledger.total(), 3);
        assert_eq!(b.ledger.total(), 7);
        assert_eq!(b.ledger.busy_cycles(), 7);
    }

    #[test]
    fn round_robin_serves_one_engine_per_cycle() {
        let mut a = Toy::new("a", 2);
        let mut b = Toy::new("b", 2);
        let mut log = Vec::new();
        let report = Scheduler::new(Policy::RoundRobin)
            .try_run(&mut [&mut a, &mut b], &mut log, 0)
            .unwrap();
        // Interleaved service: a@0 b@1 a@2 b@3, Done on the next served
        // cycle each.
        assert_eq!(log, vec!["a", "b", "a", "b"]);
        assert_eq!(report.ends, vec![4, 5]);
        // Unserved live cycles are charged to the shared port.
        assert!(a.ledger.stalled(StallReason::PortBusy) > 0);
        assert_eq!(a.ledger.total(), 4);
        assert_eq!(b.ledger.total(), 5);
    }

    #[test]
    fn throttled_charges_skipped_cycles() {
        let mut a = Toy::new("a", 4);
        let mut log = Vec::new();
        let report = Scheduler::new(Policy::Throttled { period: 4 })
            .try_run(&mut [&mut a], &mut log, 0)
            .unwrap();
        // Service at 0,4,8,12; Done observed at 16.
        assert_eq!(report.end, 16);
        assert_eq!(a.ledger.busy_cycles(), 4);
        assert_eq!(a.ledger.stalled(StallReason::Throttled), 12);
        assert_eq!(a.ledger.total(), 16);
    }

    #[test]
    fn background_engines_do_not_gate_completion() {
        let mut fg = Toy::new("fg", 3);
        let mut bg = Toy::new("bg", 0);
        bg.background = true;
        let mut log = Vec::new();
        let report = Scheduler::new(Policy::Lockstep)
            .try_run(&mut [&mut bg, &mut fg], &mut log, 0)
            .unwrap();
        assert_eq!(report.end, 3);
        assert_eq!(report.ends, vec![0, 3]);
    }

    #[test]
    fn deadlock_dump_uses_instance_labels() {
        struct Tenant(usize);
        impl Engine<()> for Tenant {
            fn name(&self) -> &'static str {
                "traversal"
            }
            fn label(&self) -> String {
                format!("traversal[tenant {}]", self.0)
            }
            fn step(&mut self, _now: Cycle, _ctx: &mut ()) -> Progress {
                Progress::Stalled
            }
            fn next_event_at(&self) -> Option<Cycle> {
                None
            }
        }
        let (mut a, mut b) = (Tenant(0), Tenant(3));
        let err = Scheduler::new(Policy::Lockstep)
            .try_run(&mut [&mut a, &mut b], &mut (), 0)
            .unwrap_err();
        match &err {
            SimError::Deadlock { dump, .. } => {
                assert!(dump.contains("traversal[tenant 0]"));
                assert!(dump.contains("traversal[tenant 3]"));
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn try_run_reports_deadlock_without_panicking() {
        struct Stuck;
        impl Engine<()> for Stuck {
            fn name(&self) -> &'static str {
                "stuck"
            }
            fn step(&mut self, _now: Cycle, _ctx: &mut ()) -> Progress {
                Progress::Stalled
            }
            fn next_event_at(&self) -> Option<Cycle> {
                None
            }
        }
        let mut e = Stuck;
        let err = Scheduler::new(Policy::Lockstep)
            .try_run(&mut [&mut e], &mut (), 7)
            .unwrap_err();
        match &err {
            SimError::Deadlock { at, dump } => {
                assert_eq!(*at, 7);
                assert!(dump.contains("scheduler deadlock at cycle 7"));
                assert!(dump.contains("stuck"));
                assert!(dump.contains("no pending event"));
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn try_run_reports_watchdog_trip_with_ledger_dump() {
        struct Livelock(StallAccounting);
        impl Engine<()> for Livelock {
            fn name(&self) -> &'static str {
                "livelock"
            }
            fn step(&mut self, _now: Cycle, _ctx: &mut ()) -> Progress {
                Progress::Stalled
            }
            fn next_event_at(&self) -> Option<Cycle> {
                Some(u64::MAX)
            }
            fn note_stall(&mut self, _now: Cycle, reason: StallReason, span: u64) {
                self.0.stall(reason, span);
            }
            fn ledger(&self) -> Option<StallAccounting> {
                Some(self.0)
            }
        }
        let mut e = Livelock(StallAccounting::default());
        let err = Scheduler::new(Policy::Lockstep)
            .no_progress_limit(1000)
            .try_run(&mut [&mut e], &mut (), 0)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("watchdog"));
        // The dump includes the engine's stall ledger.
        assert!(msg.contains("livelock"));
        assert!(msg.contains("idle="));
    }

    #[test]
    fn try_run_round_robin_reports_deadlock() {
        struct Stuck;
        impl Engine<()> for Stuck {
            fn name(&self) -> &'static str {
                "stuck"
            }
            fn step(&mut self, _now: Cycle, _ctx: &mut ()) -> Progress {
                Progress::Stalled
            }
            fn next_event_at(&self) -> Option<Cycle> {
                None
            }
        }
        let (mut a, mut b) = (Stuck, Stuck);
        let err = Scheduler::new(Policy::RoundRobin)
            .try_run(&mut [&mut a, &mut b], &mut (), 0)
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    #[should_panic(expected = "foreground engine")]
    fn all_background_is_rejected() {
        let mut bg = Toy::new("bg", 0);
        bg.background = true;
        let mut log = Vec::new();
        Scheduler::new(Policy::Lockstep)
            .try_run(&mut [&mut bg], &mut log, 0)
            .unwrap();
    }

    /// Stalls until `wake`, then does `work` units on its served slots,
    /// logging each service.
    struct Waker {
        name: &'static str,
        wake: Cycle,
        work: u64,
    }

    impl Engine<Vec<(&'static str, Cycle)>> for Waker {
        fn name(&self) -> &'static str {
            self.name
        }
        fn step(&mut self, now: Cycle, log: &mut Vec<(&'static str, Cycle)>) -> Progress {
            if self.work == 0 {
                return Progress::Done;
            }
            if now < self.wake {
                return Progress::Stalled;
            }
            log.push((self.name, now));
            self.work -= 1;
            Progress::Advanced
        }
        fn next_event_at(&self) -> Option<Cycle> {
            Some(self.wake)
        }
    }

    #[test]
    fn round_robin_rotation_is_hop_invariant_across_idle_spans() {
        // a is served at 0, b at 1; both stall until 11, parking the
        // arbiter. Hop-invariance: after the wake the rotation resumes
        // at a (the successor of b's consumed slot), not at the slot the
        // wake cycle's parity would pick (`11 % 2` serves b, swallowing
        // a's turn).
        let run = |pacing: Pacing| {
            let mut a = Waker {
                name: "a",
                wake: 11,
                work: 1,
            };
            let mut b = Waker {
                name: "b",
                wake: 11,
                work: 1,
            };
            let mut log = Vec::new();
            let report = Scheduler::new(Policy::RoundRobin)
                .pacing(pacing)
                .try_run(&mut [&mut a, &mut b], &mut log, 0)
                .unwrap();
            (log, report.ends)
        };
        let (log, ends) = run(Pacing::FastForward);
        assert_eq!(
            log,
            vec![("a", 11), ("b", 12)],
            "post-park service must continue the rotation at a"
        );
        assert_eq!(ends, vec![13, 14]);
        // The parked span is a pure arbitration event: both pacings
        // must serve the identical slots and finish at the same cycles.
        assert_eq!(run(Pacing::Lockstep), (log, ends));
    }

    #[test]
    fn round_robin_parked_crawl_and_hop_charge_identical_ledgers() {
        // Same shape as above, but with ledgered engines: the lockstep
        // crawl's per-cycle charges must sum to exactly the
        // fast-forward span charge, per engine and per reason.
        struct Ledgered {
            wake: Cycle,
            work: u64,
            ledger: StallAccounting,
        }
        impl Engine<()> for Ledgered {
            fn name(&self) -> &'static str {
                "ledgered"
            }
            fn step(&mut self, now: Cycle, _ctx: &mut ()) -> Progress {
                if self.work == 0 {
                    return Progress::Done;
                }
                if now < self.wake {
                    return Progress::Stalled;
                }
                self.work -= 1;
                Progress::Advanced
            }
            fn next_event_at(&self) -> Option<Cycle> {
                Some(self.wake)
            }
            fn stall_reason(&self, _now: Cycle) -> StallReason {
                StallReason::MemLatency
            }
            fn note_busy(&mut self, n: u64) {
                self.ledger.busy(n);
            }
            fn note_stall(&mut self, _now: Cycle, reason: StallReason, span: u64) {
                self.ledger.stall(reason, span);
            }
        }
        let run = |pacing: Pacing| {
            let mut a = Ledgered {
                wake: 40,
                work: 2,
                ledger: StallAccounting::default(),
            };
            let mut b = Ledgered {
                wake: 41,
                work: 1,
                ledger: StallAccounting::default(),
            };
            let report = Scheduler::new(Policy::RoundRobin)
                .pacing(pacing)
                .try_run(&mut [&mut a, &mut b], &mut (), 0)
                .unwrap();
            (report.ends, a.ledger, b.ledger)
        };
        let (ff_ends, ff_a, ff_b) = run(Pacing::FastForward);
        let (ls_ends, ls_a, ls_b) = run(Pacing::Lockstep);
        assert_eq!(ff_ends, ls_ends);
        assert_eq!(ff_a, ls_a);
        assert_eq!(ff_b, ls_b);
        // Per-engine closure over its live span.
        assert_eq!(ff_a.total(), ff_ends[0]);
        assert_eq!(ff_b.total(), ff_ends[1]);
    }

    /// Stalls until `wake`, or until the inbox (the context) holds a
    /// message if it reports that input, then does one unit of work
    /// and finishes; counts how often it is stepped.
    struct Sleeper {
        wake: Cycle,
        reports_input: bool,
        worked: bool,
        steps: u64,
        ledger: StallAccounting,
    }

    impl Sleeper {
        fn new(wake: Cycle, reports_input: bool) -> Self {
            Self {
                wake,
                reports_input,
                worked: false,
                steps: 0,
                ledger: StallAccounting::default(),
            }
        }
    }

    impl Engine<Vec<Cycle>> for Sleeper {
        fn name(&self) -> &'static str {
            "sleeper"
        }
        fn step(&mut self, now: Cycle, inbox: &mut Vec<Cycle>) -> Progress {
            self.steps += 1;
            if self.worked {
                return Progress::Done;
            }
            if now < self.wake && inbox.is_empty() {
                return Progress::Stalled;
            }
            inbox.clear();
            self.worked = true;
            Progress::Advanced
        }
        fn next_event_at(&self) -> Option<Cycle> {
            Some(self.wake)
        }
        fn has_input(&self, inbox: &Vec<Cycle>) -> bool {
            self.reports_input && !inbox.is_empty()
        }
        fn stall_reason(&self, _now: Cycle) -> StallReason {
            StallReason::MemLatency
        }
        fn note_busy(&mut self, n: u64) {
            self.ledger.busy(n);
        }
        fn note_stall(&mut self, _now: Cycle, reason: StallReason, span: u64) {
            self.ledger.stall(reason, span);
        }
    }

    /// Works `work` cycles, posting one message to the inbox at `send`.
    struct Sender {
        work: u64,
        send: Cycle,
    }

    impl Engine<Vec<Cycle>> for Sender {
        fn name(&self) -> &'static str {
            "sender"
        }
        fn step(&mut self, now: Cycle, inbox: &mut Vec<Cycle>) -> Progress {
            if self.work == 0 {
                return Progress::Done;
            }
            if now == self.send {
                inbox.push(now);
            }
            self.work -= 1;
            Progress::Advanced
        }
        fn next_event_at(&self) -> Option<Cycle> {
            None
        }
    }

    #[test]
    fn fast_forward_sleeps_a_stalled_engine_while_another_works() {
        // The sleeper stalls at 0 promising 50 while the sender works
        // to 100, so the all-stall hop never fires. Fast-forward steps
        // the sleeper only at 0, at its event and when it finishes;
        // lockstep steps it every cycle. Both charge the same ledger.
        let run = |pacing: Pacing| {
            let mut sleeper = Sleeper::new(50, true);
            let mut sender = Sender {
                work: 100,
                send: Cycle::MAX,
            };
            let report = Scheduler::new(Policy::Lockstep)
                .pacing(pacing)
                .try_run(&mut [&mut sleeper, &mut sender], &mut Vec::new(), 0)
                .unwrap();
            (report.ends, sleeper.ledger, sleeper.steps)
        };
        let (ff_ends, ff_ledger, ff_steps) = run(Pacing::FastForward);
        let (ls_ends, ls_ledger, ls_steps) = run(Pacing::Lockstep);
        assert_eq!(ff_ends, vec![51, 100]);
        assert_eq!(ff_ends, ls_ends);
        assert_eq!(ff_ledger, ls_ledger);
        assert_eq!(ff_ledger.stalled(StallReason::MemLatency), 50);
        assert_eq!((ff_steps, ls_steps), (3, 52));
    }

    #[test]
    fn has_input_wakes_a_sleeper_before_its_event() {
        // The sleeper promises 1000, but the sender posts to its inbox
        // at 10; the sleeper, registered first, sees it at 11. Under
        // fast-forward only `has_input` can wake it in time: one that
        // does not report its input sleeps through the message.
        let run = |pacing: Pacing, reports_input: bool| {
            let mut sleeper = Sleeper::new(1000, reports_input);
            let mut sender = Sender { work: 20, send: 10 };
            let report = Scheduler::new(Policy::Lockstep)
                .pacing(pacing)
                .try_run(&mut [&mut sleeper, &mut sender], &mut Vec::new(), 0)
                .unwrap();
            (report.ends, sleeper.ledger)
        };
        let lockstep = run(Pacing::Lockstep, true);
        assert_eq!(lockstep.0, vec![12, 20]);
        assert_eq!(run(Pacing::FastForward, true), lockstep);
        assert_eq!(run(Pacing::Lockstep, false), lockstep);
        assert_eq!(run(Pacing::FastForward, false).0, vec![1001, 20]);
    }

    #[test]
    fn exec_from_workers_folds_trivial_budgets_to_serial() {
        assert_eq!(Exec::from_workers(0), Exec::Serial);
        assert_eq!(Exec::from_workers(1), Exec::Serial);
        assert_eq!(Exec::from_workers(4), Exec::Parallel { workers: 4 });
        assert_eq!(Exec::Serial.workers(), 1);
        assert_eq!(Exec::Parallel { workers: 8 }.workers(), 8);
    }

    #[test]
    fn with_pacing_reaches_run_partitions_workers() {
        let seen = with_pacing(Pacing::Lockstep, || {
            run_partitions(Exec::Parallel { workers: 2 }, vec![(); 4], |_, ()| {
                default_pacing()
            })
        });
        assert_eq!(seen, vec![Pacing::Lockstep; 4]);
    }

    #[test]
    fn run_partitions_preserves_partition_order_for_any_worker_count() {
        // Owned, non-Copy items; no items at all; and more workers than
        // items (the budget is clamped) all keep partition order.
        for n in [0, 2, 23] {
            let items: Vec<String> = (0..n).map(|x| x.to_string()).collect();
            let label = |i: usize, s: String| format!("{i}:{s}");
            let serial = run_partitions(Exec::Serial, items.clone(), label);
            assert_eq!(serial.len(), n);
            for workers in [2, 3, 8] {
                let par = run_partitions(Exec::Parallel { workers }, items.clone(), label);
                assert_eq!(par, serial, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn run_partitions_panic_poisons_the_work_queue() {
        use std::sync::atomic::AtomicBool;
        // Two workers, four partitions. Partition 0 blocks until
        // partition 1 has started, then lingers long enough for 1's
        // panic to poison the queue; partitions 2 and 3 must never
        // start.
        let started: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_partitions(
                Exec::Parallel { workers: 2 },
                vec![0usize, 1, 2, 3],
                |_, i| {
                    started[i].store(true, Ordering::SeqCst);
                    match i {
                        0 => {
                            while !started[1].load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(100));
                        }
                        1 => panic!("partition 1 failed"),
                        _ => {}
                    }
                    i
                },
            )
        }));
        assert!(r.is_err(), "the partition panic must propagate");
        assert!(
            !started[2].load(Ordering::SeqCst) && !started[3].load(Ordering::SeqCst),
            "partitions after the panic must not be started"
        );
    }
}
