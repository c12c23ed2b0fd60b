//! The shared memory port: one controller, many requesters, full accounting.
//!
//! [`MemSystem`] wraps either the DDR3 model or the latency–bandwidth pipe
//! behind a single interface and layers on the instrumentation the paper's
//! figures need: per-[`Source`] request and byte counters
//! (Fig. 18b), a windowed [`BandwidthMeter`] (Fig. 16), and inter-request
//! gap tracking (Fig. 17b reports one request every 8.66 cycles).

use tracegc_sim::fault::{EccOutcome, FaultInjector, FaultStats, SimError};
use tracegc_sim::{BandwidthMeter, Cycle};

use crate::ddr3::{Ddr3Config, Ddr3Model, Ddr3Stats};
use crate::pipe::{PipeConfig, PipeModel};
use crate::req::{AccessKind, MemReq, Source};

/// Aggregated controller statistics.
#[derive(Debug, Clone)]
pub struct MemStats {
    /// Requests per source (indexed by [`Source::index`]).
    pub requests_by_source: [u64; Source::ALL.len()],
    /// Bytes per source.
    pub bytes_by_source: [u64; Source::ALL.len()],
    /// Total requests.
    pub total_requests: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Cycle of the first scheduled request.
    pub first_request_at: Option<Cycle>,
    /// Presentation cycle of the most recent request.
    pub last_request_at: Cycle,
    /// Sum of presentation-time gaps between consecutive requests, for the
    /// mean-issue-interval statistic of Fig. 17b.
    pub gap_sum: u64,
}

impl Default for MemStats {
    fn default() -> Self {
        Self {
            requests_by_source: [0; Source::ALL.len()],
            bytes_by_source: [0; Source::ALL.len()],
            total_requests: 0,
            total_bytes: 0,
            first_request_at: None,
            last_request_at: 0,
            gap_sum: 0,
        }
    }
}

impl MemStats {
    /// Requests issued by `source`.
    pub fn requests(&self, source: Source) -> u64 {
        self.requests_by_source[source.index()]
    }

    /// Bytes moved by `source`.
    pub fn bytes(&self, source: Source) -> u64 {
        self.bytes_by_source[source.index()]
    }

    /// Mean cycles between consecutive request presentations (Fig. 17b).
    pub fn mean_issue_interval(&self) -> f64 {
        if self.total_requests <= 1 {
            0.0
        } else {
            self.gap_sum as f64 / (self.total_requests - 1) as f64
        }
    }
}

enum Controller {
    Ddr3(Ddr3Model),
    Pipe(PipeModel),
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Controller::Ddr3(_) => f.write_str("Controller::Ddr3"),
            Controller::Pipe(_) => f.write_str("Controller::Pipe"),
        }
    }
}

/// The SoC's single memory controller with full per-source accounting.
///
/// # Examples
///
/// ```
/// use tracegc_mem::{MemReq, MemSystem, Source};
///
/// let mut mem = MemSystem::pipe(Default::default());
/// mem.schedule(&MemReq::read(0, 64, Source::Tracer), 0);
/// assert_eq!(mem.stats().requests(Source::Tracer), 1);
/// ```
#[derive(Debug)]
pub struct MemSystem {
    controller: Controller,
    stats: MemStats,
    meter: BandwidthMeter,
    /// Optional fault source ([`FaultSite::Mem`]); `None` in clean runs.
    ///
    /// [`FaultSite::Mem`]: tracegc_sim::fault::FaultSite::Mem
    fault: Option<FaultInjector>,
    /// First unrecoverable memory fault, latched until a requester
    /// polls [`MemSystem::take_fault`] and escalates it to a trap.
    pending_fault: Option<SimError>,
}

/// Bandwidth-meter window: 50 µs at 1 GHz, fine enough for Fig. 16's
/// time-series plot over multi-millisecond pauses.
const METER_WINDOW: Cycle = 50_000;

impl MemSystem {
    /// Creates a DDR3-backed memory system (Table I defaults via
    /// `Ddr3Config::default()`).
    pub fn ddr3(cfg: Ddr3Config) -> Self {
        Self {
            controller: Controller::Ddr3(Ddr3Model::new(cfg)),
            stats: MemStats::default(),
            meter: BandwidthMeter::new(METER_WINDOW),
            fault: None,
            pending_fault: None,
        }
    }

    /// Creates the idealized latency–bandwidth pipe system (Fig. 17).
    pub fn pipe(cfg: PipeConfig) -> Self {
        Self {
            controller: Controller::Pipe(PipeModel::new(cfg)),
            stats: MemStats::default(),
            meter: BandwidthMeter::new(METER_WINDOW),
            fault: None,
            pending_fault: None,
        }
    }

    /// Attaches a fault injector; every subsequently scheduled request
    /// rolls for delays, drops (timeout + bounded retry with backoff)
    /// and, on reads, ECC bit flips. Injectors with all-zero rates
    /// never draw, so attaching one does not perturb a clean run.
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.fault = Some(inj);
    }

    /// What fired so far at this site, when an injector is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Detaches the fault injector, returning it (with its accumulated
    /// statistics). The software-fallback mark path runs on recovered
    /// memory: after a trap the driver detaches injection so the
    /// fallback provably completes instead of re-faulting forever.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.fault.take()
    }

    /// Takes the latched unrecoverable fault (uncorrectable ECC or an
    /// exhausted retry budget), if any. Requesters poll this once per
    /// cycle and escalate to a structured trap.
    pub fn take_fault(&mut self) -> Option<SimError> {
        self.pending_fault.take()
    }

    /// Peeks at the latched unrecoverable fault without clearing it.
    pub fn pending_fault(&self) -> Option<&SimError> {
        self.pending_fault.as_ref()
    }

    /// Schedules a request presented at `earliest`; returns the
    /// response-ready cycle.
    ///
    /// With a fault injector attached, the returned cycle includes any
    /// injected delays, ECC-correction penalties and timeout/backoff
    /// retries; unrecoverable outcomes additionally latch a
    /// [`SimError`] for [`MemSystem::take_fault`] (the returned timing
    /// then marks when the failure became architecturally visible).
    pub fn schedule(&mut self, req: &MemReq, earliest: Cycle) -> Cycle {
        debug_assert!(req.is_aligned(), "misaligned request {req:?}");
        let done = match self.fault.is_some() {
            false => self.dispatch(req, earliest),
            true => self.dispatch_faulted(req, earliest),
        };
        let s = &mut self.stats;
        s.requests_by_source[req.source.index()] += 1;
        s.bytes_by_source[req.source.index()] += req.bytes as u64;
        s.total_requests += 1;
        s.total_bytes += req.bytes as u64;
        if s.first_request_at.is_none() {
            s.first_request_at = Some(earliest);
        } else {
            s.gap_sum += earliest.saturating_sub(s.last_request_at);
        }
        s.last_request_at = s.last_request_at.max(earliest);
        self.meter.record(done, req.bytes as u64);
        done
    }

    /// One clean pass through the controller timing model.
    fn dispatch(&mut self, req: &MemReq, present: Cycle) -> Cycle {
        match &mut self.controller {
            Controller::Ddr3(m) => m.schedule(req, present),
            Controller::Pipe(m) => m.schedule(req, present),
        }
    }

    /// The faulted request path: rolls per attempt for a dropped
    /// response (requester times out, backs off, retries) and — on
    /// reads — an ECC bit flip (corrected in-line, detected-and-
    /// retried, or uncorrectable). Unrecoverable outcomes latch a
    /// [`SimError`]; the request still completes with defined timing so
    /// the simulation stays cycle-deterministic while the requester
    /// escalates.
    fn dispatch_faulted(&mut self, req: &MemReq, earliest: Cycle) -> Cycle {
        let is_read = matches!(req.kind, AccessKind::Read | AccessKind::Amo);
        let mut present = earliest;
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let done = self.dispatch(req, present);
            let inj = self.fault.as_mut().expect("fault injector present");
            let cfg = *inj.config();
            let backoff = (attempts as u64 - 1) * cfg.retry_backoff_cycles;
            if inj.drop_response() {
                if attempts > cfg.max_retries {
                    inj.note_timeout();
                    self.latch(SimError::MemTimeout {
                        at: present + cfg.timeout_cycles,
                        addr: req.addr,
                        attempts,
                    });
                    return present + cfg.timeout_cycles;
                }
                inj.note_retry();
                present = present + cfg.timeout_cycles + backoff;
                continue;
            }
            let ecc = if is_read {
                inj.ecc_read()
            } else {
                EccOutcome::Clean
            };
            match ecc {
                EccOutcome::Clean => {
                    return match inj.delay_response() {
                        Some(d) => done + d,
                        None => done,
                    }
                }
                EccOutcome::Corrected => return done + cfg.ecc_correct_cycles,
                EccOutcome::Detected => {
                    if attempts > cfg.max_retries {
                        inj.note_timeout();
                        self.latch(SimError::MemTimeout {
                            at: done,
                            addr: req.addr,
                            attempts,
                        });
                        return done;
                    }
                    inj.note_retry();
                    present = done + backoff;
                }
                EccOutcome::Uncorrectable => {
                    self.latch(SimError::EccUncorrectable {
                        at: done,
                        addr: req.addr,
                    });
                    return done;
                }
            }
        }
    }

    /// Latches the first unrecoverable fault (later ones are dropped —
    /// the first trap freezes the requester anyway).
    fn latch(&mut self, err: SimError) {
        if self.pending_fault.is_none() {
            self.pending_fault = Some(err);
        }
    }

    /// Aggregated per-source statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The bandwidth-over-time meter (Fig. 16).
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// DDR3-level stats when backed by the DDR3 model (activates, row hits
    /// and conflicts feed the energy model of Fig. 23).
    pub fn ddr3_stats(&self) -> Option<Ddr3Stats> {
        match &self.controller {
            Controller::Ddr3(m) => Some(m.stats()),
            Controller::Pipe(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::MemReq;

    #[test]
    fn per_source_accounting() {
        let mut mem = MemSystem::pipe(PipeConfig::default());
        mem.schedule(&MemReq::read(0, 64, Source::Tracer), 0);
        mem.schedule(&MemReq::read(64, 8, Source::Marker), 10);
        mem.schedule(&MemReq::amo(128, Source::Marker), 20);
        let s = mem.stats();
        assert_eq!(s.requests(Source::Tracer), 1);
        assert_eq!(s.requests(Source::Marker), 2);
        assert_eq!(s.bytes(Source::Tracer), 64);
        assert_eq!(s.bytes(Source::Marker), 16);
        assert_eq!(s.total_requests, 3);
        assert_eq!(s.total_bytes, 80);
    }

    #[test]
    fn mean_issue_interval_reflects_gaps() {
        let mut mem = MemSystem::pipe(PipeConfig::default());
        for i in 0..10u64 {
            mem.schedule(&MemReq::read(i * 64, 64, Source::Tracer), i * 10);
        }
        assert!((mem.stats().mean_issue_interval() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn meter_accumulates_bytes() {
        let mut mem = MemSystem::ddr3(Ddr3Config::default());
        for i in 0..4u64 {
            mem.schedule(&MemReq::read(i * 64, 64, Source::Sweeper), 0);
        }
        assert_eq!(mem.meter().total_bytes(), 256);
    }

    use tracegc_sim::fault::{FaultConfig, FaultPlan, FaultSite};

    fn injector(cfg: FaultConfig) -> tracegc_sim::fault::FaultInjector {
        FaultPlan::new(cfg).injector(FaultSite::Mem)
    }

    #[test]
    fn zero_rate_injector_does_not_perturb_timing() {
        let mut clean = MemSystem::ddr3(Ddr3Config::default());
        let mut faulted = MemSystem::ddr3(Ddr3Config::default());
        faulted.set_fault_injector(injector(FaultConfig::zero_rates(9)));
        for i in 0..50u64 {
            let req = MemReq::read(i * 4096, 64, Source::Tracer);
            let t = i * 7;
            assert_eq!(clean.schedule(&req, t), faulted.schedule(&req, t));
        }
        assert!(faulted.pending_fault().is_none());
        assert_eq!(faulted.fault_stats().unwrap().total(), 0);
    }

    #[test]
    fn dropped_responses_retry_with_backoff_then_time_out() {
        let mut mem = MemSystem::ddr3(Ddr3Config::default());
        mem.set_fault_injector(injector(FaultConfig {
            drop_rate: 1.0,
            max_retries: 2,
            timeout_cycles: 100,
            retry_backoff_cycles: 10,
            ..FaultConfig::default()
        }));
        let done = mem.schedule(&MemReq::read(0, 64, Source::Marker), 0);
        // Attempt 1 at 0, retry at 100, retry at 210; the third attempt
        // exhausts the budget and times out at 210 + 100.
        assert_eq!(done, 310);
        let stats = *mem.fault_stats().unwrap();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.timeouts, 1);
        match mem.take_fault() {
            Some(SimError::MemTimeout { attempts, addr, .. }) => {
                assert_eq!(attempts, 3);
                assert_eq!(addr, 0);
            }
            other => panic!("expected MemTimeout, got {other:?}"),
        }
        // The latch is cleared once taken.
        assert!(mem.take_fault().is_none());
    }

    #[test]
    fn uncorrectable_ecc_poisons_reads_only() {
        let cfg = FaultConfig {
            bit_flip_rate: 1.0,
            ecc_detect_weight: 0.0,
            ecc_uncorrectable_weight: 1.0,
            ..FaultConfig::default()
        };
        let mut mem = MemSystem::ddr3(Ddr3Config::default());
        mem.set_fault_injector(injector(cfg));
        // Writes carry no ECC read path.
        mem.schedule(&MemReq::write(0, 64, Source::MarkQueue), 0);
        assert!(mem.pending_fault().is_none());
        mem.schedule(&MemReq::read(64, 64, Source::Tracer), 10);
        assert!(matches!(
            mem.take_fault(),
            Some(SimError::EccUncorrectable { addr: 64, .. })
        ));
    }

    #[test]
    fn corrected_ecc_costs_latency_but_no_fault() {
        let cfg = FaultConfig {
            bit_flip_rate: 1.0,
            ecc_detect_weight: 0.0,
            ecc_uncorrectable_weight: 0.0,
            ecc_correct_cycles: 4,
            ..FaultConfig::default()
        };
        let mut clean = MemSystem::ddr3(Ddr3Config::default());
        let mut faulted = MemSystem::ddr3(Ddr3Config::default());
        faulted.set_fault_injector(injector(cfg));
        let req = MemReq::read(0, 64, Source::Tracer);
        let base = clean.schedule(&req, 0);
        assert_eq!(faulted.schedule(&req, 0), base + 4);
        assert!(faulted.pending_fault().is_none());
        assert_eq!(faulted.fault_stats().unwrap().ecc_corrected, 1);
    }

    #[test]
    fn delayed_responses_arrive_late_but_intact() {
        let cfg = FaultConfig {
            delay_rate: 1.0,
            delay_cycles: 77,
            ..FaultConfig::default()
        };
        let mut clean = MemSystem::ddr3(Ddr3Config::default());
        let mut faulted = MemSystem::ddr3(Ddr3Config::default());
        faulted.set_fault_injector(injector(cfg));
        let req = MemReq::read(0, 64, Source::Sweeper);
        let base = clean.schedule(&req, 0);
        assert_eq!(faulted.schedule(&req, 0), base + 77);
        assert!(faulted.pending_fault().is_none());
        assert_eq!(faulted.fault_stats().unwrap().delayed, 1);
    }

    #[test]
    fn ddr3_stats_only_for_ddr3() {
        let mem = MemSystem::ddr3(Ddr3Config::default());
        assert!(mem.ddr3_stats().is_some());
        let pipe = MemSystem::pipe(PipeConfig::default());
        assert!(pipe.ddr3_stats().is_none());
    }

    use crate::pipe::PipeConfig;
}
