//! The delayed-prefix history changes no result: a TIMELY-family model
//! records only its queue (`DdeSystem::history_dim` = 1), and integrating
//! it that way must give the same trace, bit for bit, as integrating it
//! through a wrapper that records the whole state (the trait default).

use fluid::dde::{integrate_dde_with_prehistory, DdeOptions, DdeSystem};
use fluid::{History, Trace};
use models::jitter::Jitter;
use models::pi::PatchedTimelyPiFluid;
use models::{PatchedTimelyFluid, PatchedTimelyParams, TimelyFluid, TimelyParams};

/// A model with its history prefix hidden: the driver falls back to the
/// default and records every component.
struct FullHistory<M>(M);

impl<M: DdeSystem> DdeSystem for FullHistory<M> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]) {
        self.0.rhs(t, x, hist, dxdt);
    }
    fn min_delay(&self) -> f64 {
        self.0.min_delay()
    }
    fn project(&mut self, t: f64, x: &mut [f64]) {
        self.0.project(t, x);
    }
}

/// Every recorded knot of a trace, as raw bits: `t` then the state row.
fn trace_bits(tr: &Trace) -> Vec<u64> {
    let mut bits = Vec::with_capacity(tr.len() * (tr.dim() + 1));
    for (i, &t) in tr.times().iter().enumerate() {
        bits.push(t.to_bits());
        bits.extend(tr.state(i).iter().map(|v| v.to_bits()));
    }
    bits
}

/// Integrate `model` for 20 ms from `x0` with its queue-only history and
/// with the full one; the traces must be bitwise equal.
fn assert_prefix_invisible<M: DdeSystem + Clone>(model: M, x0: &[f64]) {
    assert_eq!(
        model.history_dim(),
        1,
        "the TIMELY family records the queue"
    );
    assert_eq!(FullHistory(model.clone()).history_dim(), model.dim());
    let opts = DdeOptions {
        step: 1e-6,
        record_every: 5,
        history_horizon_s: 0.015,
    };
    let prefix = integrate_dde_with_prehistory(&mut model.clone(), x0, x0, 0.0, 0.02, &opts);
    let full = integrate_dde_with_prehistory(&mut FullHistory(model), x0, x0, 0.0, 0.02, &opts);
    assert_eq!(prefix.len(), full.len());
    assert!(
        trace_bits(&prefix) == trace_bits(&full),
        "queue-only history must not change the trace"
    );
}

/// Queue empty, gradients zero, flow `i` at `rates[i]`, with flows of
/// `flow_dim` components from component 1.
fn x0(rates: &[f64], flow_dim: usize) -> Vec<f64> {
    let mut x = vec![0.0; 1 + flow_dim * rates.len()];
    for (i, &r) in rates.iter().enumerate() {
        x[1 + flow_dim * i] = r;
    }
    x
}

#[test]
fn patched_timely_unequal_start() {
    let p = PatchedTimelyParams::default_10g();
    let c = p.base.capacity_pps();
    assert_prefix_invisible(PatchedTimelyFluid::new(p, 2), &x0(&[0.7 * c, 0.3 * c], 2));
}

#[test]
fn patched_timely_sixteen_flows() {
    let p = PatchedTimelyParams::default_10g();
    let r = p.base.capacity_pps() / 16.0;
    assert_prefix_invisible(PatchedTimelyFluid::new(p, 16), &x0(&[r; 16], 2));
}

#[test]
fn patched_timely_with_jitter() {
    let p = PatchedTimelyParams::default_10g();
    let c = p.base.capacity_pps();
    let m = PatchedTimelyFluid::new(p, 2).with_jitter(Jitter::uniform(100e-6, 20e-6, 7));
    assert_prefix_invisible(m, &x0(&[0.5 * c, 0.5 * c], 2));
}

#[test]
fn timely_late_start() {
    let p = TimelyParams::default_10g();
    let c = p.capacity_pps();
    let m = TimelyFluid::new(p, 2).with_start_times(vec![0.0, 0.01]);
    assert_prefix_invisible(m, &x0(&[0.5 * c, 0.5 * c], 2));
}

#[test]
fn patched_timely_pi() {
    let p = PatchedTimelyParams::default_10g();
    let gains = PatchedTimelyPiFluid::default_gains(&p, 300.0);
    let c = p.base.capacity_pps();
    let rates = [0.9 * c, 0.1 * c];
    let mut x = x0(&rates, 3);
    // Each flow's PI state starts consistent with its own rate, as in
    // `simulate_with_rates`.
    for (i, &r) in rates.iter().enumerate() {
        x[3 + 3 * i] = p.base.delta_pps() / (p.base.beta * r);
    }
    assert_prefix_invisible(PatchedTimelyPiFluid::new(p, gains, 2), &x);
}
