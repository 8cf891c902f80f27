//! Microbenchmarks of the simulator substrates: event engine, DRAM and
//! LLC models, statistics, and the KV hash index.
//!
//! Runs on the in-tree harness (`snic_bench::timing`); tune with
//! `BENCH_SAMPLES` / `BENCH_WARMUP`.

use memsys::{DramSim, DramSpec, LlcSim, LlcSpec, MemOp, MemSystem};
use simnet::engine::{Engine, Step};
use simnet::rng::SimRng;
use simnet::stats::Histogram;
use simnet::time::Nanos;
use snic_bench::timing::Bench;
use snic_kvstore::index::HashIndex;

/// Shard engines in the Table-2 rack: one per machine.
const RACK_ENGINES: usize = 23;
/// Standing events per rack engine: between the mean pending counts of
/// the 23-machine rack at seed 1, 2.1 on `rack_services` and 176 on
/// `rack_verbs`.
const RACK_DEPTH: usize = 16;
/// Epoch length that visits each rack engine for about three pops.
const RACK_EPOCH_NS: u64 = 400;

/// `dense` is a burst drain of one engine; `shardlike` mimics one shard:
/// a pool of far-out timeouts parked while the hot path pops one
/// near-term event at a time, each pop rescheduling a successor.
/// `rack_interleaved` is the rack's own traffic: 23 engines holding
/// 80-byte events (the size of the cluster shard's event) visited
/// round-robin each epoch, so every engine is cold when its turn comes;
/// each visit peeks and pops up to the epoch deadline, and each pop
/// schedules a successor 450 ns-4 us ahead (the rack schedules 1.0 event
/// per pop in steady state).
fn bench_engine(b: &Bench) {
    b.run("engine/dense_10k", || {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10_000u32 {
            eng.schedule(Nanos::new((i as u64 * 37) % 5000), i).unwrap();
        }
        let mut n = 0;
        eng.run(|_, _, _| {
            n += 1;
            Step::Continue
        });
        n
    });
    b.run("engine/shardlike_10k", || {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..200u32 {
            eng.schedule(Nanos::new(100_000 + i as u64), i).unwrap();
        }
        eng.schedule(Nanos::new(1), 999).unwrap();
        let mut n = 0u64;
        while n < 10_000 {
            let (now, _) = eng.pop().unwrap();
            let _ = eng.peek_time();
            eng.schedule(now + Nanos::new(450), 999).unwrap();
            if n.is_multiple_of(16) {
                eng.schedule(now + Nanos::new(100_000), 7).unwrap();
            }
            n += 1;
        }
        n
    });
    let mut rng = SimRng::seed(1);
    let delays: Vec<Nanos> = (0..4096)
        .map(|_| Nanos::new(450 + rng.uniform_u64(3551)))
        .collect();
    b.run_batched(
        "engine/rack_interleaved",
        || {
            let mut next = 0;
            (0..RACK_ENGINES)
                .map(|e| {
                    let mut eng: Engine<[u64; 10]> = Engine::new();
                    for i in 0..RACK_DEPTH {
                        next = (next + 1) % delays.len();
                        eng.schedule(delays[next], [(e * RACK_DEPTH + i) as u64; 10])
                            .unwrap();
                    }
                    eng
                })
                .collect::<Vec<_>>()
        },
        |mut rack| {
            let (mut pops, mut next, mut deadline) = (0usize, 0usize, Nanos::ZERO);
            while pops < 10_000 {
                deadline += Nanos::new(RACK_EPOCH_NS);
                for eng in &mut rack {
                    eng.run_until(deadline, |eng, now, mut ev| {
                        ev[0] += 1;
                        next = (next + 1) % delays.len();
                        eng.schedule(now + delays[next], ev).unwrap();
                        pops += 1;
                        Step::Continue
                    });
                }
            }
            pops
        },
    );
}

fn bench_dram(b: &Bench) {
    b.run_batched(
        "memsys/soc_random_64b_x1k",
        || (MemSystem::soc_like(), SimRng::seed(1)),
        |(mut mem, mut rng)| {
            let mut done = Nanos::ZERO;
            for _ in 0..1000 {
                let a = rng.addr_in_range(0, 1 << 20, 64);
                done = done.max(mem.dma_access(Nanos::ZERO, a, 64, MemOp::Write));
            }
            done
        },
    );
    // A cold-LLC read probes a miss and streams from DRAM.
    b.run_batched("memsys/host_stream_1mb", MemSystem::host_like, |mut mem| {
        mem.dma_access(Nanos::ZERO, 0, 1 << 20, MemOp::Read)
    });
    // 1000 random 4 KB reads straight to host DDR4: each spreads over
    // all 8 channels, one row segment per channel.
    let mut dram = DramSim::new(DramSpec::host_ddr4());
    let mut rng = SimRng::seed(1);
    b.run("memsys/dram_read_4kb", || {
        let mut done = Nanos::ZERO;
        for _ in 0..1000 {
            let a = rng.addr_in_range(0, 1 << 30, 64);
            done = done.max(dram.access(Nanos::ZERO, a, 4096, MemOp::Read));
        }
        done
    });
}

/// The host LLC: the 64-line DDIO write allocate that a path-① 4 KB
/// WRITE lands as (random 64 B-aligned targets in 1 GiB, as a cluster
/// stream draws them), and what building a host memory system costs —
/// every simulated machine builds one.
fn bench_llc(b: &Bench) {
    b.run_batched(
        "memsys/host_ddio_write_4kb_x1k",
        || (MemSystem::host_like(), SimRng::seed(1)),
        |(mut mem, mut rng)| {
            let mut done = Nanos::ZERO;
            for _ in 0..1000 {
                let a = rng.addr_in_range(0, 1 << 30, 64);
                done = done.max(mem.dma_access(Nanos::ZERO, a, 4096, MemOp::Write));
            }
            done
        },
    );
    b.run("memsys/host_like_new", MemSystem::host_like);

    // The tag walk alone, on an LLC whose every set is already full, so
    // no sample pays for first-touch page fills: 1000 random 4 KB
    // writes (64 lines each) that miss and evict.
    let mut llc = LlcSim::new(LlcSpec::xeon_like());
    for a in (0..2 * LlcSpec::xeon_like().capacity).step_by(4096) {
        llc.access(Nanos::ZERO, a, 4096);
    }
    let mut rng = SimRng::seed(1);
    b.run("memsys/llc_write_4kb_miss", || {
        let mut done = Nanos::ZERO;
        for _ in 0..1000 {
            let a = rng.addr_in_range(1 << 30, 1 << 30, 64);
            done = done.max(llc.access(Nanos::ZERO, a, 4096));
        }
        done
    });
    // A client's READ completions: 1000 writes of the same 4 KB at
    // address 0.
    b.run("memsys/llc_write_4kb_repeat", || {
        let mut done = Nanos::ZERO;
        for _ in 0..1000 {
            done = done.max(llc.access(Nanos::ZERO, 0, 4096));
        }
        done
    });
}

fn bench_stats(b: &Bench) {
    b.run("stats/histogram_record_10k", || {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(Nanos::new(1 + (i * 7919) % 100_000));
        }
        h.percentile(99.0)
    });
}

fn bench_index(b: &Bench) {
    let mut idx = HashIndex::new(16 << 10, 0);
    for k in 0..40_000u64 {
        idx.insert(k, k * 64, 64).unwrap();
    }
    let mut k = 0u64;
    b.run("kvstore/index_lookup", || {
        k = (k + 9973) % 40_000;
        idx.lookup(k).unwrap().probes
    });
}

fn main() {
    let b = Bench::from_env(20);
    bench_engine(&b);
    bench_dram(&b);
    bench_llc(&b);
    bench_stats(&b);
    bench_index(&b);
}
