//! Microbenchmarks of the simulator substrates: event engine, DRAM and
//! LLC models, statistics, and the KV hash index.
//!
//! Runs on the in-tree harness (`snic_bench::timing`); tune with
//! `BENCH_SAMPLES` / `BENCH_WARMUP`.

use memsys::{DramSim, DramSpec, LlcSim, LlcSpec, MemOp, MemSystem};
use simnet::engine::{BaselineEngine, Engine, Step};
use simnet::rng::SimRng;
use simnet::stats::Histogram;
use simnet::time::Nanos;
use snic_bench::timing::Bench;
use snic_kvstore::index::HashIndex;

/// The same series on both engines, so the wheel/heap delta is visible
/// in one run. `dense` is a burst drain; `shardlike` mimics a cluster
/// shard: a pool of far-out timeouts parked while the hot path pops one
/// near-term event at a time, each pop rescheduling a successor.
macro_rules! engine_series {
    ($b:expr, $tag:literal, $eng:ty) => {
        $b.run(concat!("engine/", $tag, "/dense_10k"), || {
            let mut eng: $eng = <$eng>::new();
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
        $b.run(concat!("engine/", $tag, "/shardlike_10k"), || {
            let mut eng: $eng = <$eng>::new();
            for i in 0..200u32 {
                eng.schedule(Nanos::new(100_000 + i as u64), i).unwrap();
            }
            eng.schedule(Nanos::new(1), 999).unwrap();
            let mut n = 0u64;
            while n < 10_000 {
                let (now, _) = eng.pop().unwrap();
                let _ = eng.peek_time();
                eng.schedule(now + Nanos::new(450), 999).unwrap();
                if n % 16 == 0 {
                    eng.schedule(now + Nanos::new(100_000), 7).unwrap();
                }
                n += 1;
            }
            n
        });
    };
}

fn bench_engine(b: &Bench) {
    engine_series!(b, "wheel", Engine<u32>);
    engine_series!(b, "heap", BaselineEngine<u32>);
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
