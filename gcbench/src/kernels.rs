//! Layer kernels: host time per operation of layers the workloads reach
//! only inside other layers' calls, timed directly through their public
//! API on seeded inputs.

use std::hint::black_box;
use std::time::Instant;

use tracegc_hwgc::{MarkQueue, MarkQueueConfig};
use tracegc_mem::ddr3::Ddr3Config;
use tracegc_mem::{MemReq, MemSystem, PhysMem, Source};
use tracegc_sim::rng::{Rng, StdRng};
use tracegc_vmem::{Requester, TlbConfig, Translator};
use tracegc_workloads::generate_heap;
use tracegc_workloads::spec::by_name;

use crate::spans::Tracer;

/// Requests the DDR3 kernel keeps in flight (Table I's 16 reads).
const OUTSTANDING: usize = 16;

/// `MemSystem::schedule` on DDR3 over a mixed stream: two 64-byte
/// Tracer reads for every 8-byte Marker AMO, at random addresses, with
/// at most [`OUTSTANDING`] requests in flight. Returns ns per request.
pub fn mem_ns_per_req(t: &mut Tracer, seed: u64, n: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0D3);
    let reqs: Vec<MemReq> = (0..n)
        .map(|i| {
            if i % 3 == 2 {
                MemReq::amo(rng.random_range(0..1u64 << 24) * 8, Source::Marker)
            } else {
                MemReq::read(rng.random_range(0..1u64 << 21) * 64, 64, Source::Tracer)
            }
        })
        .collect();
    let mut mem = MemSystem::ddr3(Ddr3Config::default());
    let mut done = [0u64; OUTSTANDING];
    let start = Instant::now();
    t.span("mem.kernel", || {
        let mut now = 0;
        for (i, r) in reqs.iter().enumerate() {
            let slot = i % OUTSTANDING;
            now = (now + 1).max(done[slot]);
            done[slot] = mem.schedule(black_box(r), now);
        }
    });
    black_box(done);
    start.elapsed().as_nanos() as f64 / n as f64
}

/// `Translator::translate` over a generated heap's address space: the
/// marker and tracer alternately translate random objects, with the
/// TLBs flushed every 4096 translations as at the start of a pause.
/// Returns ns per translation.
pub fn vmem_ns_per_translate(t: &mut Tracer, seed: u64, n: usize) -> Result<f64, String> {
    let mut spec = by_name("avrora")
        .expect("avrora is a DaCapo spec")
        .scaled(0.1);
    spec.seed ^= seed;
    let w = generate_heap(&spec, tracegc_heap::LayoutKind::Bidirectional);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EB);
    let vas: Vec<u64> = (0..n)
        .map(|_| w.objects[rng.random_range(0..w.objects.len())].addr())
        .collect();
    let mut tr = Translator::new(w.heap.address_space(), TlbConfig::default());
    let mut mem = MemSystem::ddr3(Ddr3Config::default());
    let start = Instant::now();
    let res = t.span("vmem.kernel", || {
        let mut now = 0;
        for (i, &va) in vas.iter().enumerate() {
            if i % 4096 == 0 {
                tr.flush();
            }
            let who = if i % 2 == 0 {
                Requester::Marker
            } else {
                Requester::Tracer
            };
            let (pa, at) = tr
                .translate(who, black_box(va), now, &mut mem, &w.heap.phys)
                .map_err(|e| e.to_string())?;
            black_box(pa);
            now = at + 1;
        }
        Ok::<(), String>(())
    });
    let ns = start.elapsed().as_nanos() as f64 / n as f64;
    res.map(|()| ns)
}

/// `MarkQueue` enqueue / dequeue with a spill-engine tick per step, in
/// bursts four times the main queue's capacity so every burst spills
/// to memory and fills back. Returns ns per enqueue or dequeue.
pub fn markq_ns_per_op(t: &mut Tracer, seed: u64, bursts: usize) -> Result<f64, String> {
    let cfg = MarkQueueConfig::baseline(0);
    let burst = cfg.main_entries * 4;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A2C);
    let vas: Vec<u64> = (0..burst)
        .map(|_| 0x4000_0000 + rng.random_range(0..1u64 << 24) * 8)
        .collect();
    let mut q = MarkQueue::new(cfg);
    let mut mem = MemSystem::ddr3(Ddr3Config::default());
    let mut phys = PhysMem::new(cfg.spill_bytes * 2);
    let mut ops = 0u64;
    let start = Instant::now();
    let res = t.span("hwgc.markq.kernel", || {
        let mut now = 0;
        let mut tick = |q: &mut MarkQueue, now: &mut u64| {
            q.tick(*now, &mut mem, &mut phys, None, &mut true);
            *now += 1;
        };
        for _ in 0..bursts {
            for &va in &vas {
                let mut spins = 0;
                while !q.enqueue(black_box(va)) {
                    tick(&mut q, &mut now);
                    spins += 1;
                    if spins > 1_000_000 {
                        return Err("mark queue never accepted an entry".to_string());
                    }
                }
                tick(&mut q, &mut now);
                ops += 1;
            }
            let mut spins = 0;
            while !q.is_empty() {
                match q.dequeue() {
                    Some(v) => {
                        black_box(v);
                        ops += 1;
                    }
                    None => {
                        spins += 1;
                        if spins > 10_000_000 {
                            return Err("mark queue never drained".to_string());
                        }
                    }
                }
                tick(&mut q, &mut now);
            }
        }
        Ok(())
    });
    let ns = start.elapsed().as_nanos() as f64 / ops.max(1) as f64;
    if q.stats().spill_writes == 0 {
        return Err("mark queue kernel never spilled".to_string());
    }
    res.map(|()| ns)
}
