//! Long-horizon churn soak: streams a seeded scenario corpus through a
//! live 2-shard `netdag serve` daemon over real loopback TCP —
//! admission solve, structural checks, the daemon's own validate op,
//! LWB bus replay under the scenario's loss process with mobility
//! phases, node churn and link-failure re-admission, and a
//! `batch_solve` cache revisit per group — then writes the
//! `BENCH_soak.json` summary (scenarios/sec, invariant-violation count,
//! per-family solve-node histograms joined from the daemon's access
//! log, the shutdown SLO verdict), stamped with where it was measured,
//! to the workspace root.
//!
//! The run *gates* on its invariants: any violation, a failed SLO
//! check, or a cache-starved revisit leg fails the bench. Every
//! violation prints a `netdag soak --seed … --index …` recipe that
//! reproduces the failure bit-identically.
//!
//! Set `NETDAG_BENCH_FAST=1` (or `NETDAG_SOAK_FAST=1`) for the CI smoke
//! mode: a reduced corpus and single-shot criterion sampling.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use netdag_scenario::{
    generate, run_soak, soak_serve_config, spawn_daemon, ScenarioParams, SoakConfig,
};
use netdag_serve::protocol::{Request, STATUS_OK};
use netdag_serve::Client;

fn fast_mode() -> bool {
    ["NETDAG_BENCH_FAST", "NETDAG_SOAK_FAST"]
        .iter()
        .any(|k| std::env::var_os(k).is_some_and(|v| v != "0"))
}

fn bench_soak(c: &mut Criterion) {
    let fast = fast_mode();
    let cfg = SoakConfig {
        scenarios: if fast { 24 } else { 1000 },
        ..SoakConfig::default()
    };

    let log_path = std::env::temp_dir().join(format!("netdag-bench-soak-{}", std::process::id()));
    let (addr, server) = spawn_daemon(soak_serve_config(2, 2, Some(log_path.clone())))
        .expect("daemon binds a loopback port");
    let started = Instant::now();
    let mut report = run_soak(addr, &cfg).expect("soak transport");
    let wall_s = started.elapsed().as_secs_f64();
    let mut client = Client::connect(addr).expect("connect");
    let bye = client.send(&Request::op("shutdown")).expect("round trip");
    assert_eq!(bye.status, STATUS_OK);
    let serve_report = server.join().expect("server thread").expect("serve exits");
    report
        .join_access_log(&log_path)
        .expect("access log parses");
    let _ = std::fs::remove_file(&log_path);

    for v in &report.violations {
        eprintln!("violation: {v}");
    }
    assert!(
        report.violations.is_empty(),
        "{} soak invariant violation(s)",
        report.violations.len()
    );
    assert!(report.solved > 0, "corpus must contain solvable scenarios");
    assert_eq!(
        report.validated, report.solved,
        "every admitted schedule validates its contract"
    );
    assert!(
        report.revisit_hit_rate() > 0.9,
        "cache revisit leg must be cache-served (hit rate {:.4})",
        report.revisit_hit_rate()
    );
    let slo = serve_report.slo.expect("soak config arms the SLO gate");
    assert!(slo.passed(), "the soak SLO gate failed:\n{}", slo.summary());

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soak.json");
    std::fs::write(
        path,
        netdag_bench::stamp_provenance(&report.summary_json(fast, wall_s, Some(&slo.to_json()))),
    )
    .expect("write BENCH_soak.json");
    eprintln!(
        "soak: {} scenarios in {wall_s:.2} s ({:.1}/s), 0 violations → {path}",
        report.scenarios,
        report.scenarios as f64 / wall_s.max(1e-9)
    );

    // Criterion view: pure corpus generation throughput (the part of
    // the soak that must stay negligible next to solving).
    let params = ScenarioParams::default();
    let mut group = c.benchmark_group("soak");
    group.sample_size(10);
    group.bench_function("generate_scenario", |b| {
        let mut index = 0u64;
        b.iter(|| {
            index += 1;
            generate(2020, index, &params)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_soak);
criterion_main!(benches);
