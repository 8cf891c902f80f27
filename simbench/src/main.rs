//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary and the simulated-output digest,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The traced run also writes its spans to
//! `out/spans-<workload>-s<seed>.json` in this package's directory.

use simbench::trace::CountingAlloc;
use simbench::workload::{fnv32, Workload};
use simbench::{run, Config};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage(why: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "simbench: {why}\nusage: simbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage(&format!("bad seed '{value}'"))),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage(&format!("bad seconds '{value}'"))),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace '{value}'")),
                })
            }
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    let cfg = Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    };
    let name = cfg.workload.name();

    let report = run(&cfg);

    println!(
        "simbench {name} seed {} {}: {} iterations measured, {} calls attempted, failed_frac {}",
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        report.iterations,
        report.attempted,
        report.failed_frac()
    );
    for f in &report.failures {
        println!("FAILED {name}: {f}");
    }
    if let Some((pct, secs)) = report.tail {
        println!(
            "run_s_tail {secs} s: p{pct} of {} iterations",
            report.iterations
        );
    }
    if let Some(d) = &report.digest {
        println!("digest fnv32 {:08x}:\n{d}", fnv32(d.as_bytes()));
    }
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{name}-s{}.json", cfg.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.trace.to_json()))
        {
            Ok(()) => println!(
                "{} spans written to {}",
                report.trace.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("simbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json());
}
