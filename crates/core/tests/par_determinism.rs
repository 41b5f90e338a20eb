//! Cross-thread-count determinism: every sweep routed through
//! `desim::par::par_map` must render byte-identical JSON whether it ran
//! serially (`SIM_THREADS=1`) or on a multi-worker pool. This is the
//! contract the parallel executor exists to uphold — thread interleaving
//! may change wall-clock, never output.
//!
//! The thread count is pinned with `desim::par::with_threads` rather than
//! by mutating `SIM_THREADS`, so concurrently-running tests cannot race on
//! process-global environment.

use desim::par::with_threads;
use ecn_delay_core::experiments::{ext_incast, fig11, fig12, fig18, fig20, fig3, fig4, fig9};
use ecn_delay_core::ToJson;

fn quick_fig3() -> fig3::Fig3Config {
    fig3::Fig3Config {
        flow_counts: vec![2, 10, 64],
        delays_us: vec![4.0, 85.0],
        r_ai_mbps: vec![10.0, 40.0],
        kmax_kb: vec![200.0, 1000.0],
        panel_bc_delay_us: 85.0,
    }
}

#[test]
fn fig3_byte_identical_across_thread_counts() {
    let serial = with_threads(1, || fig3::run(&quick_fig3()))
        .to_json()
        .render_pretty();
    let par4 = with_threads(4, || fig3::run(&quick_fig3()))
        .to_json()
        .render_pretty();
    assert!(!serial.is_empty());
    assert_eq!(serial, par4, "fig3 JSON differs between 1 and 4 workers");
}

#[test]
fn fig4_trace_byte_identical_across_thread_counts() {
    // Full DDE integrations per panel — exercises the flat-buffer History
    // hot path under both execution modes.
    let cfg = fig4::Fig4Config {
        delays_us: vec![85.0],
        flow_counts: vec![2, 10],
        duration_s: 0.02,
    };
    let serial = with_threads(1, || fig4::run(&cfg))
        .to_json()
        .render_pretty();
    let par3 = with_threads(3, || fig4::run(&cfg))
        .to_json()
        .render_pretty();
    assert_eq!(serial, par3, "fig4 JSON differs between 1 and 3 workers");
}

#[test]
fn fig11_byte_identical_across_thread_counts() {
    let cfg = fig11::Fig11Config {
        flow_counts: vec![2, 16, 40, 64],
    };
    let serial = with_threads(1, || fig11::run(&cfg))
        .to_json()
        .render_pretty();
    let par4 = with_threads(4, || fig11::run(&cfg))
        .to_json()
        .render_pretty();
    assert_eq!(serial, par4, "fig11 JSON differs between 1 and 4 workers");
    // The threshold scan over ordered results must agree too.
    let a = with_threads(1, || fig11::run(&cfg)).instability_threshold;
    let b = with_threads(4, || fig11::run(&cfg)).instability_threshold;
    assert_eq!(a, b);
}

#[test]
fn fig12_byte_identical_across_thread_counts() {
    let cfg = fig12::Fig12Config {
        duration_a_s: 0.05,
        duration_bc_s: 0.05,
        n_stable: 4,
        n_unstable: 16,
    };
    let serial = with_threads(1, || fig12::run(&cfg))
        .to_json()
        .render_pretty();
    let par2 = with_threads(2, || fig12::run(&cfg))
        .to_json()
        .render_pretty();
    assert_eq!(serial, par2, "fig12 JSON differs between 1 and 2 workers");
}

#[test]
fn fig18_byte_identical_across_thread_counts() {
    let cfg = fig18::Fig18Config {
        flow_counts: vec![2, 10, 64],
        q_ref_kb: 100.0,
        duration_s: 0.01,
    };
    let serial = with_threads(1, || fig18::run(&cfg))
        .to_json()
        .render_pretty();
    let par3 = with_threads(3, || fig18::run(&cfg))
        .to_json()
        .render_pretty();
    assert_eq!(serial, par3, "fig18 JSON differs between 1 and 3 workers");
}

#[test]
fn fig9_byte_identical_across_thread_counts() {
    let cfg = fig9::Fig9Config { duration_s: 0.02 };
    let serial = with_threads(1, || fig9::run(&cfg))
        .to_json()
        .render_pretty();
    let par3 = with_threads(3, || fig9::run(&cfg))
        .to_json()
        .render_pretty();
    assert_eq!(serial, par3, "fig9 JSON differs between 1 and 3 workers");
}

#[test]
fn fig20_byte_identical_across_thread_counts() {
    // Four independent integrations, two of them jittered: the jitter is a
    // pure function of (seed, t), so the worker count cannot reach it.
    let cfg = fig20::Fig20Config {
        duration_s: 0.02,
        ..Default::default()
    };
    let serial = with_threads(1, || fig20::run(&cfg))
        .to_json()
        .render_pretty();
    let par3 = with_threads(3, || fig20::run(&cfg))
        .to_json()
        .render_pretty();
    assert_eq!(serial, par3, "fig20 JSON differs between 1 and 3 workers");
}

#[test]
fn ext_incast_byte_identical_across_thread_counts() {
    // The fat-tree incast sweep: per-cell FCT digests fold every bit the
    // engine produced, so equal JSON here is bit-identity of the whole
    // simulation — ECMP path choices, marking decisions, event order.
    let cfg = ext_incast::ExtIncastConfig {
        k: 4,
        protocols: vec![ecn_delay_core::scenarios::Protocol::Dcqcn],
        sender_counts: vec![8, 24],
        bytes_per_sender: 8_000,
        ..Default::default()
    };
    // `wall_ms` is the one machine-dependent field in the result (persisted
    // as a scaling probe, excluded from every identity contract) — zero it
    // before rendering.
    let scrub = |mut res: ext_incast::ExtIncastResult| {
        for c in &mut res.cells {
            c.wall_ms = 0.0;
        }
        res.to_json().render_pretty()
    };
    let serial = scrub(with_threads(1, || ext_incast::run(&cfg)));
    let par4 = scrub(with_threads(4, || ext_incast::run(&cfg)));
    assert_eq!(
        serial, par4,
        "ext_incast JSON differs between 1 and 4 workers"
    );
}

/// The telemetry layer's own determinism contract: with time-series and the
/// flight recorder enabled, their exported JSONL is byte-identical across
/// worker counts.
///
/// The obs sinks are process-global and other tests in this binary run
/// concurrently, so the sweep runs under a distinctive parent trace context
/// and the comparison filters exported lines to this test's own context
/// subtree (every timeseries/flight line carries `"ctx"` for exactly this
/// reason). Metrics — global unfilterable sums — are deliberately out of
/// scope here; `obs-smoke` in CI compares them across whole processes.
#[test]
fn telemetry_byte_identical_across_thread_counts() {
    const PARENT: u64 = 7_777;
    let cfg = ext_incast::ExtIncastConfig {
        k: 4,
        protocols: vec![ecn_delay_core::scenarios::Protocol::Dcqcn],
        sender_counts: vec![8, 24],
        bytes_per_sender: 8_000,
        ..Default::default()
    };
    let ctx_of = |line: &str| -> Option<u64> {
        let rest = line.split("\"ctx\": ").nth(1)?;
        rest.split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let lo = PARENT * obs::trace::CONTEXT_STRIDE + 1;
    let hi = PARENT * obs::trace::CONTEXT_STRIDE + obs::trace::CONTEXT_STRIDE;
    let mine = move |out: &str| -> String {
        out.lines()
            .filter(|l| ctx_of(l).is_some_and(|c| (lo..=hi).contains(&c)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let run_with = |threads: usize| -> (String, String) {
        // Fresh sinks per run: the (name, key, ctx) aggregates would
        // otherwise accumulate across the two sweeps.
        obs::timeseries::reset();
        obs::flight::reset();
        obs::timeseries::enable();
        obs::flight::enable();
        with_threads(threads, || {
            obs::trace::with_context(PARENT, || {
                let _ = ext_incast::run(&cfg);
            })
        });
        obs::timeseries::disable();
        obs::flight::disable();
        let ts = mine(&obs::timeseries::export_jsonl());
        let fl = mine(&obs::flight::export_jsonl());
        (ts, fl)
    };
    let (ts1, fl1) = run_with(1);
    let (ts4, fl4) = run_with(4);
    assert!(
        ts1.contains("netsim.queue_bytes") && ts1.contains("\"kind\": \"hist\""),
        "time-series capture must be non-trivial:\n{ts1}"
    );
    assert!(
        fl1.contains("\"kind\": \"dispatch\"") && fl1.contains("\"by\": "),
        "flight capture must carry causal back-pointers:\n{fl1}"
    );
    assert_eq!(
        ts1, ts4,
        "time-series JSONL differs between 1 and 4 workers"
    );
    assert_eq!(fl1, fl4, "flight JSONL differs between 1 and 4 workers");
}
