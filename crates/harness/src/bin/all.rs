//! Runs every experiment and prints the full evaluation report.
//!
//! `--jobs N` (or `SDO_JOBS`) fans the independent simulations out across
//! worker threads, and `--metrics <path>` dumps the merged metric
//! snapshot of the suite plus the penetration test. The binary also
//! re-checks three byte-identities on every run, exiting nonzero if one
//! breaks: the suite run serially renders the same Figure 6 as the
//! pooled one, the DRAM-bound kernels give the same per-run CSV with
//! quiescence fast-forward on and off, and a warm result store replays
//! the cold store's CSV without simulating anything. Host-time
//! throughput is the repository benchmark's job (`benchmark/`).
use sdo_harness::cli::{BinSpec, CommonArgs, CLIENT, JOBS, METRICS, NO_SKIP};
use sdo_harness::engine::JobPool;
use sdo_harness::experiments::{
    fig6_report, fig7_report, fig8_report, pentest, pentest_metrics, pentest_report,
    run_suite_on, table3_report, SuiteResults,
};
use sdo_harness::export::runs_csv;
use sdo_harness::{Runner, SimConfig, Variant};
use sdo_workloads::{suite, workload_class, Workload};

const SPEC: BinSpec = BinSpec {
    name: "all",
    about: "Runs every experiment (suite, figures, tables, pentest) and prints the full report.",
    usage_args: "[options]",
    options: &[JOBS, METRICS, NO_SKIP, CLIENT],
};

fn main() {
    let args = CommonArgs::parse(&SPEC);
    args.reject_positionals(&SPEC);
    let pool = args.pool;

    let cfg = args.sim_config(SimConfig::table_i());
    let runner = args.runner(&SPEC, SimConfig::table_i());
    let kernels = suite();
    let run = |runner: &Runner, kernels: &[Workload], pool: &JobPool| -> SuiteResults {
        run_suite_on(runner, kernels, pool).unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()))
    };

    // The suite, serially and through the pool. Byte-identical by
    // construction; check it every run rather than asserting it in a
    // comment.
    let serial_results = run(&runner, &kernels, &JobPool::serial());
    let results = run(&runner, &kernels, &pool);
    assert_eq!(
        fig6_report(&serial_results),
        fig6_report(&results),
        "parallel suite diverged from the serial baseline"
    );

    let outcomes = pentest(runner.simulator(), &pool)
        .unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()));

    let mut report = String::new();
    report.push_str(&cfg.render_table_i());
    report.push_str("\n\n");
    report.push_str(&Variant::render_table_ii());
    report.push('\n');
    report.push_str(&fig6_report(&results));
    report.push_str(&fig7_report(&results));
    report.push_str(&fig8_report(&results));
    report.push_str(&table3_report(&results));
    report.push('\n');
    report.push_str(&pentest_report(&outcomes));
    println!("{report}");

    let mut metrics = results.metrics();
    metrics.merge(&pentest_metrics(&outcomes));
    args.write_metrics(&SPEC, &metrics);

    // Fast-forward is cycle-exact: the DRAM-bound kernels, where most
    // cycles are skipped, must give the same runs with skipping on and
    // off.
    let dram: Vec<Workload> =
        kernels.iter().filter(|w| workload_class(w.name()) == "dram_bound").cloned().collect();
    let skipping = |on: bool| Runner::local(SimConfig::table_i().with_fast_forward(on));
    let skip_results = run(&skipping(true), &dram, &pool);
    let noskip_results = run(&skipping(false), &dram, &pool);
    assert_eq!(
        runs_csv(&skip_results),
        runs_csv(&noskip_results),
        "fast-forward changed simulated results"
    );

    // Cache soundness: the identical suite batch against a cold
    // content-addressed store (simulate + save), then against the warm
    // store it just filled (pure loads, zero simulations).
    let store_dir = std::env::temp_dir().join(format!("sdo-all-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store_path = store_dir.to_string_lossy().into_owned();
    let store_runner = || {
        Runner::with_store(cfg, &store_path).unwrap_or_else(|e| SPEC.runtime_error(&e.to_string()))
    };
    let cold_results = run(&store_runner(), &kernels, &pool);
    let warm_runner = store_runner();
    let warm_results = run(&warm_runner, &kernels, &pool);
    assert_eq!(warm_runner.misses(), 0, "warm-store rerun executed simulations");
    assert_eq!(
        runs_csv(&cold_results),
        runs_csv(&warm_results),
        "warm-store results diverged from the cold pass"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}
