//! PI-controller variants (paper §5.2, Eq 32, Figures 18 and 19).
//!
//! The integral controller drives the queue error `e = q − q_ref` to zero:
//! `dp/dt = K₁·de/dt + K₂·e`. Where the controller runs decides what it can
//! deliver — this is the operational content of **Theorem 6**:
//!
//! * [`DcqcnPiFluid`] — PI marking **at the switch** replaces RED. The
//!   marking probability `p` is a shared signal, so the DCQCN fixed point
//!   keeps fair rates *and* the queue is pinned at `q_ref` regardless of the
//!   number of flows (Figure 18);
//! * [`PatchedTimelyPiFluid`] — PI **at each end host** computes a private
//!   `p_i` from delay samples and uses it in place of the queue-error term
//!   of Eq 29. The integral action still pins the queue at `q_ref`, but the
//!   per-flow `p_i` can settle anywhere consistent with `ΣR_i = C`, so the
//!   rate split is arbitrary (Figure 19) — fairness or fixed delay, never
//!   both, when delay is the only feedback.

use crate::dcqcn::{flow_block_rhs, project_flow_block, DcqcnParams};
use crate::patched_timely::{eq29_band, PatchedTimelyParams};
use crate::timely::{family_lane_project, family_lane_rhs, RateLaw, TimelyConsts, QUEUE_ONLY};
use crate::units;
use fluid::batch::{lane_of, LaneSystem};
use fluid::dde::{integrate_dde_with_prehistory, DdeOptions, DdeSystem};
use fluid::history::History;
use fluid::trace::Trace;

/// Gains and reference for the PI controller (Eq 32).
#[derive(Debug, Clone)]
pub struct PiGains {
    /// Proportional-on-derivative gain `K₁` (per packet).
    pub k1: f64,
    /// Integral gain `K₂` (per packet-second).
    pub k2: f64,
    /// Reference queue `q_ref` in packets.
    pub q_ref_pkts: f64,
}

/// DCQCN with PI marking at the switch (Figure 18).
///
/// State layout: `x\[0\] = q`, `x\[1\] = p` (marking probability), flow `i` at
/// `x[2+3i..5+3i] = (R_C, R_T, α)`.
#[derive(Debug, Clone)]
pub struct DcqcnPiFluid {
    /// DCQCN parameters (RED thresholds unused; `p` comes from the PI loop).
    pub params: DcqcnParams,
    /// PI gains.
    pub gains: PiGains,
    /// Number of flows.
    pub n_flows: usize,
    /// Scratch buffer for the delayed state in `rhs` (one `eval_all` instead
    /// of one `eval` per component).
    scratch: Vec<f64>,
}

impl DcqcnPiFluid {
    /// Gains that stabilize the 40 Gbps configuration across 2–64 flows,
    /// the flow counts of Figure 18 (its tests check the pinned queue and
    /// fair rates at these gains).
    pub fn default_gains(params: &DcqcnParams, q_ref_kb: f64) -> PiGains {
        PiGains {
            k1: 5e-5,
            k2: 5e-3,
            q_ref_pkts: units::kb_to_pkts(q_ref_kb, params.packet_bytes),
        }
    }

    /// New model.
    pub fn new(params: DcqcnParams, gains: PiGains, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        DcqcnPiFluid {
            params,
            gains,
            n_flows,
            scratch: vec![0.0; 2 + 3 * n_flows],
        }
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        2 + 3 * self.n_flows
    }

    /// Index of flow `i`'s current rate.
    pub fn rc_index(&self, i: usize) -> usize {
        2 + 3 * i
    }

    /// Index of flow `i`'s target rate.
    pub fn rt_index(&self, i: usize) -> usize {
        3 + 3 * i
    }

    /// Index of flow `i`'s α.
    pub fn alpha_index(&self, i: usize) -> usize {
        4 + 3 * i
    }

    /// Simulate from line-rate start (DCQCN semantics), queue empty,
    /// marking probability starting at 0.
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let line = self.params.capacity_pps();
        let mut x0 = vec![0.0; self.state_dim()];
        for i in 0..self.n_flows {
            x0[self.rc_index(i)] = line;
            x0[self.rt_index(i)] = line;
            x0[self.alpha_index(i)] = 1.0;
        }
        let step = (self.params.feedback_delay_s() / 4.0).min(1e-6);
        let record_every = ((duration_s / step) / 4000.0).ceil().max(1.0) as usize;
        let opts = DdeOptions {
            step,
            record_every,
            history_horizon_s: self.params.feedback_delay_s() * 4.0 + 10.0 * step,
        };
        integrate_dde_with_prehistory(self, &x0.clone(), &x0.clone(), 0.0, duration_s, &opts)
    }
}

impl LaneSystem for DcqcnPiFluid {
    fn lane_dim(&self) -> usize {
        self.state_dim()
    }

    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        // All delayed lookups share the time `td`: fetch the lane's whole
        // delayed state with one `locate` instead of one per component.
        let mut delayed = std::mem::take(&mut self.scratch);
        let p = &self.params;
        let cap = p.capacity_pps();
        let td = t - p.feedback_delay_s();
        hist.eval_strided(td, lane, stride, self.state_dim(), &mut delayed);
        let p_delayed = delayed[1].clamp(0.0, 1.0); // component 1 is p

        let q = lane_of(0, lane, stride);
        let pp = lane_of(1, lane, stride);
        let sum_rates: f64 = (0..self.n_flows)
            .map(|i| x[lane_of(self.rc_index(i), lane, stride)])
            .sum();
        // State layout: component 0 is the queue, component 1 is p.
        let dq = if x[q] <= 0.0 && sum_rates < cap {
            0.0
        } else {
            sum_rates - cap
        };
        dxdt[q] = dq; // component 0 is the queue
                      // Eq 32: PI marking replaces RED. Anti-windup: freeze integration
                      // against the [0,1] bounds.
        let e = x[q] - self.gains.q_ref_pkts; // component 0 is the queue
        let mut dp = self.gains.k1 * dq + self.gains.k2 * e;
        // Component 1 is p.
        if (x[pp] >= 1.0 && dp > 0.0) || (x[pp] <= 0.0 && dp < 0.0) {
            dp = 0.0;
        }
        dxdt[pp] = dp; // component 1 is p

        // The PI-supplied p drives DCQCN's own per-flow dynamics.
        let n = self.n_flows;
        flow_block_rhs(p, n, 2, p_delayed, x, lane, stride, &delayed, dxdt);
        self.scratch = delayed;
    }

    fn min_delay(&self) -> f64 {
        self.params.feedback_delay_s()
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let q = lane_of(0, lane, stride);
        let pp = lane_of(1, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        x[pp] = x[pp].clamp(0.0, 1.0); // component 1 is p
        project_flow_block(&self.params, self.n_flows, 2, x, lane, stride);
    }
}

impl DdeSystem for DcqcnPiFluid {
    fn dim(&self) -> usize {
        self.state_dim()
    }

    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]) {
        self.lane_rhs(t, x, 0, 1, hist, dxdt);
    }

    fn min_delay(&self) -> f64 {
        LaneSystem::min_delay(self)
    }

    fn history_dim(&self) -> usize {
        LaneSystem::history_dim(self)
    }

    fn project(&mut self, t: f64, x: &mut [f64]) {
        self.lane_project(t, x, 0, 1);
    }
}

/// Patched TIMELY with an end-host PI controller (Figure 19).
///
/// State layout: `x\[0\] = q`; flow `i` at `x[1+3i..4+3i] = (R_i, g_i, p_i)`.
#[derive(Debug, Clone)]
pub struct PatchedTimelyPiFluid {
    /// Patched-TIMELY parameters (the queue-error term of Eq 29 is replaced
    /// by the PI variable `p_i`).
    pub params: PatchedTimelyParams,
    /// PI gains; `q_ref_pkts` is the delay target (the paper uses 300 KB).
    pub gains: PiGains,
    /// Number of flows.
    pub n_flows: usize,
}

impl PatchedTimelyPiFluid {
    /// Gains that pin the queue for the 10 Gbps configuration.
    pub fn default_gains(params: &PatchedTimelyParams, q_ref_kb: f64) -> PiGains {
        PiGains {
            k1: 5e-5,
            k2: 5e-2,
            q_ref_pkts: units::kb_to_pkts(q_ref_kb, params.base.packet_bytes),
        }
    }

    /// New model.
    pub fn new(params: PatchedTimelyParams, gains: PiGains, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        PatchedTimelyPiFluid {
            params,
            gains,
            n_flows,
        }
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        1 + 3 * self.n_flows
    }

    /// Index of flow `i`'s rate.
    pub fn rate_index(&self, i: usize) -> usize {
        1 + 3 * i
    }

    /// Index of flow `i`'s gradient.
    pub fn grad_index(&self, i: usize) -> usize {
        2 + 3 * i
    }

    /// Index of flow `i`'s internal PI variable `p_i`.
    pub fn p_index(&self, i: usize) -> usize {
        3 + 3 * i
    }

    /// Simulate with explicit initial rates (pps).
    ///
    /// Each flow's internal PI variable starts at the value consistent with
    /// its own rate, `p_i(0) = δ/(β·R_i(0))` — what a flow's integrator
    /// would hold after running alone at that rate. This is the honest
    /// initial condition for staggered real-world flows, and it exposes the
    /// Theorem 6 degeneracy directly: the per-flow PI states differ, their
    /// *differences are invariant* (every `dp_i/dt` sees only the shared
    /// queue error), so the system settles on an unfair member of the
    /// infinite fixed-point family while the queue is still pinned at
    /// `q_ref`.
    pub fn simulate_with_rates(&mut self, initial_rates_pps: &[f64], duration_s: f64) -> Trace {
        assert_eq!(initial_rates_pps.len(), self.n_flows);
        let base = self.params.base.clone();
        let mut x0 = vec![0.0; self.state_dim()];
        for (i, &r) in initial_rates_pps.iter().enumerate() {
            x0[self.rate_index(i)] = r;
            x0[self.p_index(i)] = base.delta_pps() / (base.beta * r.max(1.0));
        }
        let base = &self.params.base;
        let step = (base.d_prop_s() / 2.0).min(1e-6);
        let horizon = base.tau_feedback(self.gains.q_ref_pkts * 6.0)
            + base.tau_star(base.min_rate_pps())
            + 10.0 * step;
        let record_every = ((duration_s / step) / 4000.0).ceil().max(1.0) as usize;
        let opts = DdeOptions {
            step,
            record_every,
            history_horizon_s: horizon,
        };
        integrate_dde_with_prehistory(self, &x0.clone(), &x0.clone(), 0.0, duration_s, &opts)
    }
}

impl RateLaw for PatchedTimelyPiFluid {
    const FLOW_DIM: usize = 3;

    /// Eq 29 with the flow's PI variable `p_i` replacing `(q − q′)/q′`.
    fn band_rate(&self, k: &TimelyConsts, s: &[f64], _qd1: f64, tau: f64) -> f64 {
        eq29_band(k, s, tau, s[2]) // s = [R, g, p_i]
    }

    /// End-host PI on the measured delay (Eq 32 with `e` from delayed queue
    /// observations; `de/dt` estimated from successive samples).
    fn private_rhs(&self, qd1: f64, qd2: f64, tau: f64, out: &mut [f64]) {
        let e = qd1 - self.gains.q_ref_pkts;
        let dedt = (qd1 - qd2) / tau;
        out[0] = self.gains.k1 * dedt + self.gains.k2 * e; // out = [dp_i/dt]
    }
}

impl LaneSystem for PatchedTimelyPiFluid {
    fn lane_dim(&self) -> usize {
        self.state_dim()
    }

    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        family_lane_rhs(
            &self.params.base,
            &*self,
            self.n_flows,
            t,
            0.0,
            x,
            lane,
            stride,
            hist,
            dxdt,
        );
    }

    fn min_delay(&self) -> f64 {
        self.params.base.tau_feedback(0.0)
    }

    fn history_dim(&self) -> usize {
        QUEUE_ONLY
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        family_lane_project(&self.params.base, self.n_flows, 3, x, lane, stride);
        for i in 0..self.n_flows {
            // p_i is an internal feedback variable; keep it bounded like a
            // probability-scaled signal.
            let pi = lane_of(self.p_index(i), lane, stride);
            x[pi] = x[pi].clamp(-100.0, 100.0);
        }
    }
}

impl DdeSystem for PatchedTimelyPiFluid {
    fn dim(&self) -> usize {
        self.state_dim()
    }

    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]) {
        self.lane_rhs(t, x, 0, 1, hist, dxdt);
    }

    fn min_delay(&self) -> f64 {
        LaneSystem::min_delay(self)
    }

    fn history_dim(&self) -> usize {
        LaneSystem::history_dim(self)
    }

    fn project(&mut self, t: f64, x: &mut [f64]) {
        self.lane_project(t, x, 0, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcqcn_pi_pins_queue_independent_of_n() {
        // Figure 18: queue stabilizes at q_ref for any number of flows.
        let params = DcqcnParams::default_40g();
        let gains = DcqcnPiFluid::default_gains(&params, 100.0);
        let q_ref = gains.q_ref_pkts;
        for n in [2usize, 10] {
            let mut m = DcqcnPiFluid::new(params.clone(), gains.clone(), n);
            let tr = m.simulate(0.25);
            let q_tail = tr.mean_from(0, 0.2);
            assert!(
                (q_tail - q_ref).abs() / q_ref < 0.15,
                "N={n}: queue {q_tail:.1} vs q_ref {q_ref:.1}"
            );
        }
    }

    #[test]
    fn dcqcn_pi_keeps_fairness() {
        // Figure 18: flows converge to the same fair rate under PI marking.
        let params = DcqcnParams::default_40g();
        let gains = DcqcnPiFluid::default_gains(&params, 100.0);
        let mut m = DcqcnPiFluid::new(params, gains, 4);
        let tr = m.simulate(0.25);
        let fair = m.params.capacity_pps() / 4.0;
        for i in 0..4 {
            let r = tr.mean_from(m.rc_index(i), 0.2);
            assert!(
                (r - fair).abs() / fair < 0.1,
                "flow {i} rate {r:.0} vs fair {fair:.0}"
            );
        }
    }

    #[test]
    fn timely_pi_pins_queue_but_not_fairness() {
        // Figure 19 / Theorem 6: the queue is controlled to q_ref (300 KB)
        // but an asymmetric start persists — delay-only feedback cannot
        // give both.
        let params = PatchedTimelyParams::default_10g();
        let gains = PatchedTimelyPiFluid::default_gains(&params, 300.0);
        let q_ref = gains.q_ref_pkts;
        let c = params.base.capacity_pps();
        let mut m = PatchedTimelyPiFluid::new(params, gains, 2);
        let tr = m.simulate_with_rates(&[0.9 * c, 0.1 * c], 0.6);
        let q_tail = tr.mean_from(0, 0.5);
        assert!(
            (q_tail - q_ref).abs() / q_ref < 0.2,
            "queue {q_tail:.1} vs q_ref {q_ref:.1}"
        );
        let r0 = tr.mean_from(m.rate_index(0), 0.5);
        let r1 = tr.mean_from(m.rate_index(1), 0.5);
        // Utilization holds...
        assert!(((r0 + r1) - c).abs() / c < 0.15, "sum {}", r0 + r1);
        // ...but the split stays skewed (no convergence to fairness).
        assert!(
            r0 / (r0 + r1) > 0.6,
            "unfair split should persist: {} / {}",
            r0,
            r1
        );
    }
}
