//! The TIMELY fluid model (paper §4, Figure 7, Table 2).
//!
//! TIMELY adjusts rate from RTT samples (Algorithm 1): additive increase
//! below `T_low`, multiplicative decrease above `T_high`, and in between a
//! gradient rule — increase when the EWMA RTT gradient is ≤ 0, decrease
//! proportionally to the gradient otherwise. The fluid translation (Eqs
//! 20–24) has two structural properties proven in the paper and verified by
//! this module's tests:
//!
//! * **Theorem 3** — as published the system has *no* fixed point: at any
//!   candidate equilibrium `g_i = 0` forces `dR_i/dt = δ/τ* ≠ 0`;
//! * **Theorem 4** — flipping the tie (`g ≤ 0` → `g < 0`, Eq 28) yields
//!   *infinitely many* fixed points: any rate split with `Σ R_i = C` and
//!   `C·T_low < q < C·T_high` is an equilibrium, so fairness is accidental
//!   (Figure 9: the outcome depends on starting conditions).
//!
//! A key modelling point from §5.2: the feedback delay `τ′` **includes the
//! queueing delay** (Eq 24) because the RTT sample reflects the queue at
//! packet arrival. This is the structural disadvantage against ECN's
//! egress marking, and it is faithfully implemented here via a
//! state-dependent history lookup.

use crate::jitter::Jitter;
use crate::units;
use fluid::batch::{lane_of, LaneSystem};
use fluid::dde::{integrate_dde_with_prehistory, DdeOptions, DdeSystem};
use fluid::history::History;
use fluid::trace::Trace;

/// TIMELY parameters (Table 2 + the recommended values of footnote 4).
#[derive(Debug, Clone)]
pub struct TimelyParams {
    /// Packet size in bytes (the model's packet unit; also the MTU of Eq 24).
    pub packet_bytes: f64,
    /// Bottleneck bandwidth `C` in Gbps.
    pub capacity_gbps: f64,
    /// EWMA smoothing factor `α` for the RTT gradient.
    pub ewma_alpha: f64,
    /// Additive-increase step `δ` in Mbps.
    pub delta_mbps: f64,
    /// Multiplicative-decrease factor `β`.
    pub beta: f64,
    /// Low RTT threshold `T_low` in µs.
    pub t_low_us: f64,
    /// High RTT threshold `T_high` in µs.
    pub t_high_us: f64,
    /// Minimum RTT `D_minRTT` used for gradient normalization, in µs.
    pub d_min_rtt_us: f64,
    /// Propagation delay `D_prop` in µs.
    pub d_prop_us: f64,
    /// Burst (segment) size `Seg` in KB.
    pub seg_kb: f64,
    /// When true, rate increases on a zero gradient (`g ≤ 0`, Algorithm 1
    /// line 9 as published — Theorem 3). When false, uses the `<` variant
    /// of Eq 28 (Theorem 4).
    pub tie_increases: bool,
    /// Minimum rate floor in Mbps.
    pub min_rate_mbps: f64,
}

impl TimelyParams {
    /// The values recommended in \[21\] and used for the paper's validation
    /// (footnote 4): C = 10 Gbps, β = 0.8, α = 0.875, T_low = 50 µs,
    /// T_high = 500 µs, D_minRTT = 20 µs; δ = 10 Mbps (§4.2).
    pub fn default_10g() -> Self {
        TimelyParams {
            packet_bytes: 1000.0,
            capacity_gbps: 10.0,
            ewma_alpha: 0.875,
            delta_mbps: 10.0,
            beta: 0.8,
            t_low_us: 50.0,
            t_high_us: 500.0,
            d_min_rtt_us: 20.0,
            d_prop_us: 4.0,
            seg_kb: 16.0,
            tie_increases: true,
            min_rate_mbps: 10.0,
        }
    }

    /// Capacity in packets/second.
    pub fn capacity_pps(&self) -> f64 {
        units::gbps_to_pps(self.capacity_gbps, self.packet_bytes)
    }

    /// `δ` in packets/second.
    pub fn delta_pps(&self) -> f64 {
        units::mbps_to_pps(self.delta_mbps, self.packet_bytes)
    }

    /// Queue level corresponding to `T_low` (packets): `C·T_low`.
    pub fn q_low_pkts(&self) -> f64 {
        self.capacity_pps() * units::us_to_s(self.t_low_us)
    }

    /// Queue level corresponding to `T_high` (packets): `C·T_high`.
    pub fn q_high_pkts(&self) -> f64 {
        self.capacity_pps() * units::us_to_s(self.t_high_us)
    }

    /// Segment size in packets.
    pub fn seg_pkts(&self) -> f64 {
        self.seg_kb * 1000.0 / self.packet_bytes
    }

    /// `D_minRTT` in seconds.
    pub fn d_min_rtt_s(&self) -> f64 {
        units::us_to_s(self.d_min_rtt_us)
    }

    /// `D_prop` in seconds.
    pub fn d_prop_s(&self) -> f64 {
        units::us_to_s(self.d_prop_us)
    }

    /// Rate-update interval `τ*` for a flow at rate `r` (Eq 23):
    /// `max(Seg/R, D_minRTT)`.
    pub fn tau_star(&self, r: f64) -> f64 {
        (self.seg_pkts() / r.max(1e-3)).max(self.d_min_rtt_s())
    }

    /// Feedback delay `τ′` for queue `q` (Eq 24): `q/C + MTU/C + D_prop` —
    /// queueing delay *included*, unlike ECN.
    pub fn tau_feedback(&self, q: f64) -> f64 {
        let c = self.capacity_pps();
        q.max(0.0) / c + 1.0 / c + self.d_prop_s()
    }

    /// Minimum rate in packets/second.
    pub fn min_rate_pps(&self) -> f64 {
        units::mbps_to_pps(self.min_rate_mbps, self.packet_bytes)
    }
}

/// The TIMELY fluid model for `N` flows over one bottleneck.
///
/// State layout: `x\[0\] = q`; flow `i` occupies `x[1+2i] = R_i`,
/// `x[2+2i] = g_i`.
#[derive(Debug, Clone)]
pub struct TimelyFluid {
    /// Model parameters.
    pub params: TimelyParams,
    /// Number of flows.
    pub n_flows: usize,
    /// Per-flow start times in seconds (flows contribute nothing and stay
    /// frozen before their start; Figure 9b starts one flow 10 ms late).
    pub start_times: Vec<f64>,
    /// Optional feedback-delay jitter on `τ′` (Figure 20).
    pub jitter: Option<Jitter>,
}

impl TimelyFluid {
    /// New model; all flows start at t = 0.
    pub fn new(params: TimelyParams, n_flows: usize) -> Self {
        assert!(n_flows >= 1);
        TimelyFluid {
            params,
            n_flows,
            start_times: vec![0.0; n_flows],
            jitter: None,
        }
    }

    /// Set per-flow start times (Figure 9b).
    pub fn with_start_times(mut self, starts: Vec<f64>) -> Self {
        assert_eq!(starts.len(), self.n_flows);
        self.start_times = starts;
        self
    }

    /// Attach feedback-delay jitter (Figure 20).
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        1 + 2 * self.n_flows
    }

    /// Index of flow `i`'s rate.
    pub fn rate_index(&self, i: usize) -> usize {
        1 + 2 * i
    }

    /// Index of flow `i`'s gradient.
    pub fn grad_index(&self, i: usize) -> usize {
        2 + 2 * i
    }

    /// Simulate with explicit initial rates (packets/second). Gradients
    /// start at 0 and the queue empty.
    pub fn simulate_with_rates(&mut self, initial_rates_pps: &[f64], duration_s: f64) -> Trace {
        assert_eq!(initial_rates_pps.len(), self.n_flows);
        let mut x0 = vec![0.0; self.state_dim()];
        for (i, &r) in initial_rates_pps.iter().enumerate() {
            x0[self.rate_index(i)] = r;
        }
        let step = (self.params.d_prop_s() / 2.0).min(1e-6);
        // History must reach back τ' + τ* at the largest plausible queue.
        let horizon = self.params.tau_feedback(self.params.q_high_pkts() * 4.0)
            + self.params.tau_star(self.params.min_rate_pps())
            + self.jitter.as_ref().map_or(0.0, Jitter::max_extra)
            + 10.0 * step;
        let record_every = ((duration_s / step) / 4000.0).ceil().max(1.0) as usize;
        let opts = DdeOptions {
            step,
            record_every,
            history_horizon_s: horizon,
        };
        integrate_dde_with_prehistory(self, &x0.clone(), &x0.clone(), 0.0, duration_s, &opts)
    }

    /// Simulate with the paper's default start: each flow at `C/N`
    /// ("a new flow starts at rate C/(N+1)"; with N simultaneous flows the
    /// validation uses 1/N of link bandwidth).
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let r0 = self.params.capacity_pps() / self.n_flows as f64;
        let rates = vec![r0; self.n_flows];
        self.simulate_with_rates(&rates, duration_s)
    }

    /// Per-flow rate series in Gbps.
    pub fn rates_gbps(&self, trace: &Trace, flow: usize) -> Vec<(f64, f64)> {
        trace
            .series(self.rate_index(flow))
            .into_iter()
            .map(|(t, pps)| (t, units::pps_to_gbps(pps, self.params.packet_bytes)))
            .collect()
    }

    /// Queue series in KB.
    pub fn queue_kb(&self, trace: &Trace) -> Vec<(f64, f64)> {
        trace
            .series(0)
            .into_iter()
            .map(|(t, pkts)| (t, units::pkts_to_kb(pkts, self.params.packet_bytes)))
            .collect()
    }

    /// The rate derivative of Eq 21 for one flow, given the delayed queue
    /// observations: the unmemoized form, exposed for the Theorem 3/4 tests
    /// and the reference the shared TIMELY-family kernel is checked against.
    // simlint: allow(unit-suffix) — returns dR/dt in pps/s, a compound dimension no suffix names
    pub fn rate_rhs(&self, r: f64, g: f64, q_delayed: f64) -> f64 {
        let p = &self.params;
        let tau = p.tau_star(r);
        let q_low = p.q_low_pkts();
        let q_high = p.q_high_pkts();
        if q_delayed < q_low {
            p.delta_pps() / tau
        } else if q_delayed > q_high {
            -(p.beta / tau) * (1.0 - q_high / q_delayed) * r
        } else {
            let increase_on_tie = if p.tie_increases { g <= 0.0 } else { g < 0.0 };
            if increase_on_tie {
                p.delta_pps() / tau
            } else {
                -(g.max(0.0) * p.beta / tau) * r
            }
        }
    }
}

impl RateLaw for TimelyFluid {
    const FLOW_DIM: usize = 2;

    fn started(&self, flow: usize, t: f64) -> bool {
        t >= self.start_times[flow]
    }

    /// Algorithm 1's gradient rule: increase on a non-positive gradient
    /// (strictly negative under Eq 28), else decrease in proportion to it.
    fn band_rate(&self, k: &TimelyConsts, s: &[f64], _qd1: f64, tau: f64) -> f64 {
        let (r, g) = (s[0], s[1]); // s = [R, g]
        let increase_on_tie = if self.params.tie_increases {
            g <= 0.0
        } else {
            g < 0.0
        };
        if increase_on_tie {
            k.delta_pps / tau
        } else {
            -(g.max(0.0) * k.beta / tau) * r
        }
    }
}

impl LaneSystem for TimelyFluid {
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
        let extra = self.jitter.as_ref().map_or(0.0, |j| j.extra(t));
        family_lane_rhs(
            &self.params,
            &*self,
            self.n_flows,
            t,
            extra,
            x,
            lane,
            stride,
            hist,
            dxdt,
        );
    }

    fn min_delay(&self) -> f64 {
        // τ' at an empty queue: MTU/C + D_prop.
        self.params.tau_feedback(0.0)
    }

    fn history_dim(&self) -> usize {
        QUEUE_ONLY
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        family_lane_project(&self.params, self.n_flows, 2, x, lane, stride);
    }
}

/// Largest per-flow state of the TIMELY family: `(R, g, p)` under PI.
const MAX_FLOW_DIM: usize = 3;

/// The TIMELY family reads only the delayed queue (component 0) through the
/// history — `q(t − τ′)` and `q(t − τ′ − τ*)` in Eqs 22, 24 and 29 — so its
/// models record just that prefix.
pub(crate) const QUEUE_ONLY: usize = 1;

/// The parameter-derived constants of a TIMELY-family RHS, computed once per
/// call by the same expressions as the [`TimelyParams`] accessors, so each
/// value is bit-identical to the per-flow re-derivation it replaces.
pub(crate) struct TimelyConsts {
    /// Capacity `C`.
    pub(crate) c_pps: f64,
    /// `MTU/C`: one packet's transmission time.
    mtu_s: f64,
    d_prop_s: f64,
    seg_pkts: f64,
    d_min_rtt_s: f64,
    /// `C·T_low`.
    pub(crate) q_low_pkts: f64,
    /// `C·T_high`.
    pub(crate) q_high_pkts: f64,
    /// Additive-increase step `δ`.
    pub(crate) delta_pps: f64,
    /// Multiplicative-decrease factor `β`.
    pub(crate) beta: f64,
    ewma_alpha: f64,
    /// `C·D_minRTT`, Eq 22's gradient normalization.
    grad_scale_pkts: f64,
}

impl TimelyConsts {
    pub(crate) fn new(p: &TimelyParams) -> Self {
        let c_pps = p.capacity_pps();
        TimelyConsts {
            c_pps,
            mtu_s: 1.0 / c_pps,
            d_prop_s: p.d_prop_s(),
            seg_pkts: p.seg_pkts(),
            d_min_rtt_s: p.d_min_rtt_s(),
            q_low_pkts: p.q_low_pkts(),
            q_high_pkts: p.q_high_pkts(),
            delta_pps: p.delta_pps(),
            beta: p.beta,
            ewma_alpha: p.ewma_alpha,
            grad_scale_pkts: c_pps * p.d_min_rtt_s(),
        }
    }

    /// [`TimelyParams::tau_star`].
    fn tau_star(&self, r: f64) -> f64 {
        (self.seg_pkts / r.max(1e-3)).max(self.d_min_rtt_s)
    }

    /// [`TimelyParams::tau_feedback`].
    fn tau_feedback(&self, q: f64) -> f64 {
        q.max(0.0) / self.c_pps + self.mtu_s + self.d_prop_s
    }
}

/// The per-model part of a TIMELY-family flow: the rate law in the gradient
/// band `C·T_low ≤ q(t − τ′) ≤ C·T_high`, plus any law-private state. The
/// queue equation, the delayed lookups, the two threshold regimes and the
/// gradient EWMA of Eq 22 are shared ([`family_lane_rhs`]).
pub(crate) trait RateLaw {
    /// State components per flow: `(R, g)` and then the law's private ones
    /// (at most [`MAX_FLOW_DIM`] in all).
    const FLOW_DIM: usize;

    /// Whether flow `flow` sends at time `t`; an unstarted flow is frozen
    /// and adds nothing to the queue. Default: always.
    fn started(&self, _flow: usize, _t: f64) -> bool {
        true
    }

    /// `dR/dt` in the gradient band for flow state `s = [R, g, …]`, delayed
    /// queue `qd1 = q(t − τ′)` and update interval `tau = τ*(R)`.
    fn band_rate(&self, k: &TimelyConsts, s: &[f64], qd1: f64, tau: f64) -> f64;

    /// Derivatives of the private components `s[2..]` into `out`
    /// (`qd2 = q(t − τ′ − τ*)`). Default: none.
    fn private_rhs(&self, _qd1: f64, _qd2: f64, _tau: f64, _out: &mut [f64]) {}
}

/// The TIMELY-family RHS over one lane: the queue (component 0, Eq 20) and
/// then `n_flows` blocks of `L::FLOW_DIM` components from component 1.
/// Shared by [`TimelyFluid`], patched TIMELY and patched TIMELY-PI, which
/// differ only in their [`RateLaw`]. `extra_delay_s` is added to `τ′`
/// (feedback jitter, Figure 20). The constants derived from `p` are
/// computed once per call ([`TimelyConsts`]), not once per flow.
///
/// A flow's derivative is a pure function of its own state, its start flag
/// and values shared by the whole lane, so it is memoized on the previous
/// flow's exact bits: the N flows of a symmetric run pay one evaluation,
/// bit-unchanged.
#[allow(clippy::too_many_arguments)]
pub(crate) fn family_lane_rhs<L: RateLaw>(
    p: &TimelyParams,
    law: &L,
    n_flows: usize,
    t: f64,
    extra_delay_s: f64,
    x: &[f64],
    lane: usize,
    stride: usize,
    hist: &History,
    dxdt: &mut [f64],
) {
    let k = &TimelyConsts::new(p);
    let w = L::FLOW_DIM;
    let q_lane = lane_of(0, lane, stride);
    // Eq 24: the feedback delay includes the *current* queueing delay — the
    // delayed lookup time is per-lane because each lane has its own queue.
    let tau_fb = k.tau_feedback(x[q_lane]) + extra_delay_s;
    let qd1 = hist.eval(t - tau_fb, q_lane).max(0.0);

    // Flows at equal rates share the same delayed lookup time; cache the
    // last one so the common symmetric case does one `locate` per
    // distinct delayed time instead of one per flow.
    let mut qd2_cache = (f64::NAN, 0.0);
    // The memo: the first component and start flag of the previous flow,
    // whose derivatives are already in `dxdt`.
    let mut prev: Option<(usize, bool)> = None;
    let mut s = [0.0; MAX_FLOW_DIM];
    // Eq 20's arrival rate, summed in flow order within the same pass.
    let mut sum_rates = 0.0;
    for i in 0..n_flows {
        let first = 1 + w * i;
        let started = law.started(i, t);
        if started {
            sum_rates += x[lane_of(first, lane, stride)];
        }
        if let Some((pf, p_started)) = prev {
            let same = |j: usize| {
                x[lane_of(first + j, lane, stride)].to_bits()
                    == x[lane_of(pf + j, lane, stride)].to_bits()
            };
            if started == p_started && (0..w).all(same) {
                for j in 0..w {
                    dxdt[lane_of(first + j, lane, stride)] = dxdt[lane_of(pf + j, lane, stride)];
                }
                continue;
            }
        }
        prev = Some((first, started));
        let mut out = [0.0; MAX_FLOW_DIM];
        if started {
            for (j, sj) in s[..w].iter_mut().enumerate() {
                *sj = x[lane_of(first + j, lane, stride)];
            }
            // Every flow state starts (R, g); `out` is (dR/dt, dg/dt, …).
            let (r, g) = (s[0], s[1]);
            let tau = k.tau_star(r);
            let t2 = t - tau_fb - tau;
            // simlint: allow(float-cmp) — memo key: only a bitwise-identical t2 may reuse the cache
            let qd2 = if t2 == qd2_cache.0 {
                qd2_cache.1
            } else {
                let v = hist.eval(t2, q_lane).max(0.0);
                qd2_cache = (t2, v);
                v
            };
            // The two threshold regimes are common to the family; the
            // gradient band is the rate law's.
            out[0] = if qd1 < k.q_low_pkts {
                k.delta_pps / tau
            } else if qd1 > k.q_high_pkts {
                -(k.beta / tau) * (1.0 - k.q_high_pkts / qd1) * r
            } else {
                law.band_rate(k, &s[..w], qd1, tau)
            };
            // Eq 22: EWMA of the normalized queue (≈ RTT) difference.
            out[1] = k.ewma_alpha / tau * (-g + (qd1 - qd2) / k.grad_scale_pkts);
            law.private_rhs(qd1, qd2, tau, &mut out[2..w]);
        }
        for (j, &d) in out[..w].iter().enumerate() {
            dxdt[lane_of(first + j, lane, stride)] = d;
        }
    }
    // State component 0 is the shared queue.
    dxdt[q_lane] = if x[q_lane] <= 0.0 && sum_rates < k.c_pps {
        0.0
    } else {
        sum_rates - k.c_pps
    };
}

/// Clamp one TIMELY-family lane (layout as in [`family_lane_rhs`]): the
/// queue non-negative, rates to `[floor, line]` and the normalized gradient
/// to `[−10, 10]`. Private per-flow components are the caller's.
pub(crate) fn family_lane_project(
    p: &TimelyParams,
    n_flows: usize,
    flow_dim: usize,
    x: &mut [f64],
    lane: usize,
    stride: usize,
) {
    let line = p.capacity_pps();
    let floor = p.min_rate_pps();
    let q = lane_of(0, lane, stride);
    x[q] = x[q].max(0.0); // component 0 is the queue
    for i in 0..n_flows {
        let ri = lane_of(1 + flow_dim * i, lane, stride);
        x[ri] = x[ri].clamp(floor, line);
        // Gradient is a normalized dimensionless signal; keep it sane.
        let gi = lane_of(2 + flow_dim * i, lane, stride);
        x[gi] = x[gi].clamp(-10.0, 10.0);
    }
}

impl DdeSystem for TimelyFluid {
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
    fn thresholds_in_packets() {
        let p = TimelyParams::default_10g();
        // 10 Gbps, 1 KB packets → C = 1.25e6 pps; T_low = 50 µs → 62.5 pkts.
        assert!((p.q_low_pkts() - 62.5).abs() < 1e-9);
        assert!((p.q_high_pkts() - 625.0).abs() < 1e-9);
    }

    #[test]
    fn tau_star_respects_floor() {
        let p = TimelyParams::default_10g();
        // Fast flow: Seg/R below D_minRTT → floor at D_minRTT.
        let fast = p.capacity_pps();
        assert!((p.tau_star(fast) - p.d_min_rtt_s()).abs() < 1e-12);
        // Slow flow: Seg/R dominates.
        let slow = p.capacity_pps() / 100.0;
        assert!(p.tau_star(slow) > p.d_min_rtt_s());
    }

    #[test]
    fn feedback_delay_includes_queueing() {
        let p = TimelyParams::default_10g();
        let empty = p.tau_feedback(0.0);
        let full = p.tau_feedback(625.0);
        // 625 pkts at 1.25e6 pps = 500 µs of extra queueing delay.
        assert!((full - empty - 500e-6).abs() < 1e-9);
    }

    #[test]
    fn theorem3_no_fixed_point() {
        // At any candidate equilibrium (dq = 0, dg = 0 ⇒ g = 0), the rate
        // derivative is δ/τ* > 0 in the gradient region — no fixed point.
        let m = TimelyFluid::new(TimelyParams::default_10g(), 2);
        let q_mid = (m.params.q_low_pkts() + m.params.q_high_pkts()) / 2.0;
        for r in [1e4, 1e5, 6.25e5] {
            let drdt = m.rate_rhs(r, 0.0, q_mid);
            assert!(drdt > 0.0, "dR/dt must be δ/τ* > 0 at g = 0, got {drdt}");
        }
    }

    #[test]
    fn theorem4_infinite_fixed_points_under_strict_tie() {
        // With the < variant (Eq 28), g = 0 gives dR/dt = 0 for *any* rate
        // split — infinitely many fixed points.
        let mut params = TimelyParams::default_10g();
        params.tie_increases = false;
        let m = TimelyFluid::new(params, 2);
        let q_mid = (m.params.q_low_pkts() + m.params.q_high_pkts()) / 2.0;
        for r in [1e4, 2e5, 1e6] {
            let drdt = m.rate_rhs(r, 0.0, q_mid);
            assert_eq!(drdt, 0.0, "any rate is an equilibrium under Eq 28");
        }
    }

    #[test]
    fn regime_boundaries() {
        let m = TimelyFluid::new(TimelyParams::default_10g(), 1);
        let p = &m.params;
        // Below T_low: increase regardless of gradient.
        assert!(m.rate_rhs(1e5, 5.0, p.q_low_pkts() * 0.5) > 0.0);
        // Above T_high: multiplicative decrease regardless of gradient.
        assert!(m.rate_rhs(1e5, -5.0, p.q_high_pkts() * 2.0) < 0.0);
        // Middle with positive gradient: decrease proportional to g.
        let d1 = m.rate_rhs(1e5, 0.5, p.q_low_pkts() * 2.0);
        let d2 = m.rate_rhs(1e5, 1.0, p.q_low_pkts() * 2.0);
        assert!(d1 < 0.0 && d2 < d1, "decrease scales with gradient");
    }

    #[test]
    fn different_initial_conditions_reach_different_splits() {
        // Figure 9: same protocol, different starting rates ⇒ different
        // long-run rate splits (arbitrary unfairness).
        let params = TimelyParams::default_10g();
        let c = params.capacity_pps();

        let mut m1 = TimelyFluid::new(params.clone(), 2);
        let tr1 = m1.simulate_with_rates(&[c * 0.5, c * 0.5], 0.15);
        let mut m2 = TimelyFluid::new(params.clone(), 2);
        let tr2 = m2.simulate_with_rates(&[c * 0.7, c * 0.3], 0.15);

        let split = |m: &TimelyFluid, tr: &Trace| {
            let r0 = tr.mean_from(m.rate_index(0), 0.1);
            let r1 = tr.mean_from(m.rate_index(1), 0.1);
            r0 / (r0 + r1)
        };
        let s1 = split(&m1, &tr1);
        let s2 = split(&m2, &tr2);
        // Equal start stays (roughly) symmetric; unequal start stays skewed.
        assert!((s1 - 0.5).abs() < 0.1, "equal start split {s1}");
        assert!(s2 > 0.55, "unequal start should persist, split {s2}");
    }

    #[test]
    fn late_start_flow_is_frozen_then_active() {
        let params = TimelyParams::default_10g();
        let c = params.capacity_pps();
        let mut m = TimelyFluid::new(params, 2).with_start_times(vec![0.0, 0.01]);
        let tr = m.simulate_with_rates(&[c * 0.5, c * 0.5], 0.03);
        // Before t = 10 ms the second flow's rate must not have moved.
        let early: Vec<(f64, f64)> = tr
            .series(m.rate_index(1))
            .into_iter()
            .filter(|&(t, _)| t < 0.009)
            .collect();
        for &(_, r) in &early {
            assert!((r - c * 0.5).abs() < 1e-6, "frozen before start");
        }
        // After start it evolves (queue pressure from flow 0 exists).
        let late = tr.mean_from(m.rate_index(1), 0.025);
        assert!(
            (late - c * 0.5).abs() > 1e3,
            "flow 1 must react after start"
        );
    }

    #[test]
    fn jitter_runs_are_deterministic_per_seed() {
        use crate::jitter::Jitter;
        let params = TimelyParams::default_10g();
        let run = |seed: u64| {
            let mut m = TimelyFluid::new(params.clone(), 2)
                .with_jitter(Jitter::uniform(50e-6, 10e-6, seed));
            let tr = m.simulate(0.02);
            tr.last_state().unwrap().to_vec()
        };
        assert_eq!(run(1), run(1), "same seed, same trajectory");
        let a = run(1);
        let b = run(2);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 0.0, "different seeds should diverge");
    }

    #[test]
    fn utilization_reaches_capacity() {
        // Whatever the fairness, TIMELY keeps the link busy: Σ rates ≈ C
        // once the queue is nonempty in steady operation.
        let params = TimelyParams::default_10g();
        let c = params.capacity_pps();
        let mut m = TimelyFluid::new(params, 4);
        let tr = m.simulate(0.2);
        let sum: f64 = (0..4).map(|i| tr.mean_from(m.rate_index(i), 0.15)).sum();
        assert!((sum - c).abs() / c < 0.1, "aggregate {sum} vs capacity {c}");
    }

    /// A history of one `stride`-wide block whose only recorded component
    /// is the queue, on [0, 20 ms] at 10 µs knots: `lane`'s queue is random
    /// in `[lo, hi]`, the other lanes' NaN.
    fn queue_history(
        rng: &mut desim::SimRng,
        lane: usize,
        stride: usize,
        lo: f64,
        hi: f64,
    ) -> History {
        let mut row = vec![f64::NAN; stride];
        row[lane] = rng.uniform(lo, hi);
        let mut h = History::new(0.0, &row);
        for k in 1..=2000 {
            row[lane] = rng.uniform(lo, hi);
            h.push(k as f64 * 10e-6, &row);
        }
        h
    }

    /// `n` flow states `[R, g, p]`: all equal, all distinct, two
    /// alternating, equal `R` with distinct `(g, p)`, or equal `(R, g)`
    /// with distinct `p` — so the kernel's memo hits, misses and
    /// alternates, and a memo keyed on too little is caught. `idle` keeps
    /// `ΣR < C`.
    fn random_flow_states(
        rng: &mut desim::SimRng,
        p: &TimelyParams,
        n: usize,
        idle: bool,
    ) -> Vec<[f64; 3]> {
        let (floor, line) = (p.min_rate_pps(), p.capacity_pps());
        let top = if idle { 0.9 * line / n as f64 } else { line };
        let state = |rng: &mut desim::SimRng| {
            let g = match rng.next_below(4) {
                0 => 0.0,
                1 => [-0.25, 0.25][rng.next_below(2) as usize],
                _ => rng.uniform(-1.0, 1.0),
            };
            [rng.uniform(floor, top), g, rng.uniform(-2.0, 2.0)]
        };
        let shared = [state(rng), state(rng)];
        let mode = rng.next_below(5);
        (0..n)
            .map(|i| {
                let mut s = state(rng);
                match mode {
                    0 => s = shared[0],
                    1 => {}
                    2 => s = shared[i % 2],
                    3 => s[0] = shared[0][0],
                    _ => s[..2].copy_from_slice(&shared[0][..2]),
                }
                s
            })
            .collect()
    }

    /// `sys.lane_rhs` at `t` for lane `lane` of a `stride`-wide block whose
    /// other lanes hold NaN, returned dense.
    fn lane_rhs_dense<S: LaneSystem>(
        sys: &mut S,
        t: f64,
        x: &[f64],
        hist: &History,
        lane: usize,
        stride: usize,
    ) -> Vec<f64> {
        let dim = x.len();
        let mut xb = vec![f64::NAN; dim * stride];
        for (c, &v) in x.iter().enumerate() {
            xb[lane_of(c, lane, stride)] = v;
        }
        let mut dx = vec![f64::NAN; dim * stride];
        sys.lane_rhs(t, &xb, lane, stride, hist, &mut dx);
        (0..dim).map(|c| dx[lane_of(c, lane, stride)]).collect()
    }

    /// An unmemoized per-flow evaluation `(state, qd1, qd2, out)`.
    type FlowRef<'a> = dyn Fn(&[f64], f64, f64, &mut [f64]) + 'a;

    /// The slow reference over a dense lane state with flows of `w`
    /// components from component 1: Eq 20's queue row, then for each
    /// started flow its own `hist.eval` lookups and one unmemoized `flow`
    /// evaluation `(state, qd1, qd2, out)`.
    #[allow(clippy::too_many_arguments)]
    fn reference_rhs(
        p: &TimelyParams,
        w: usize,
        started: &dyn Fn(usize) -> bool,
        t: f64,
        extra: f64,
        x: &[f64],
        hist: &History,
        q_comp: usize,
        flow: &FlowRef<'_>,
    ) -> Vec<f64> {
        let n = (x.len() - 1) / w;
        let c = p.capacity_pps();
        let tau_fb = p.tau_feedback(x[0]) + extra;
        let qd1 = hist.eval(t - tau_fb, q_comp).max(0.0);
        let mut want = vec![0.0; x.len()];
        let sum_rates: f64 = (0..n).filter(|&i| started(i)).map(|i| x[1 + w * i]).sum();
        want[0] = if x[0] <= 0.0 && sum_rates < c {
            0.0
        } else {
            sum_rates - c
        };
        for i in (0..n).filter(|&i| started(i)) {
            let f = 1 + w * i;
            let tau = p.tau_star(x[f]);
            let qd2 = hist.eval(t - tau_fb - tau, q_comp).max(0.0);
            flow(&x[f..f + w], qd1, qd2, &mut want[f..f + w]);
        }
        want
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
    }

    #[test]
    fn family_kernel_matches_unmemoized_reference() {
        // TIMELY, patched TIMELY and patched TIMELY-PI through the shared
        // memoized flow loop, against one unmemoized `rate_rhs`/`flow_rhs`
        // evaluation plus `hist.eval` lookups per flow, bit for bit.
        use crate::patched_timely::{PatchedTimelyFluid, PatchedTimelyParams};
        use crate::pi::PatchedTimelyPiFluid;
        let pp = PatchedTimelyParams::default_10g();
        let gains = PatchedTimelyPiFluid::default_gains(&pp, 300.0);
        let t = 0.02;
        let mut rng = desim::SimRng::new(0x7111_e1f0);
        for case in 0..300 {
            let n = 1 + rng.next_below(8) as usize;
            let stride = 1 + rng.next_below(3) as usize;
            let lane = rng.next_below(stride as u64) as usize;
            let idle = rng.next_below(3) == 0;
            // An empty queue with ΣR both below and above C covers both
            // sides of Eq 20's empty-queue branch.
            let q = if rng.next_below(3) == 0 {
                0.0
            } else {
                rng.uniform(0.0, 1250.0)
            };
            let region = rng.next_below(3);
            let jitter = (rng.next_below(2) == 0)
                .then(|| Jitter::uniform(100e-6, 20e-6, rng.next_below(1000)));
            let extra = jitter.as_ref().map_or(0.0, |j| j.extra(t));
            let what = format!("case {case}: n={n} q={q} region={region} lane={lane}/{stride}");
            let states = random_flow_states(&mut rng, &pp.base, n, idle);
            let dense = |w: usize| {
                let mut x = vec![q];
                for s in &states {
                    x.extend_from_slice(&s[..w]);
                }
                x
            };
            // `qd1` below `C·T_low`, in the gradient band, or above `C·T_high`.
            let (q_low, q_high) = (pp.base.q_low_pkts(), pp.base.q_high_pkts());
            let (lo, hi) = match region {
                0 => (-5.0, q_low - 1e-9),
                1 => (q_low, q_high),
                _ => (q_high + 1e-9, 2.0 * q_high),
            };
            let hist = queue_history(&mut rng, lane, stride, lo, hi);
            let q_comp = lane_of(0, lane, stride);

            // TIMELY: the gradient rule, with flows starting before, at or
            // after `t` (alternating, so equal states differ only in it).
            let mut tp = TimelyParams::default_10g();
            tp.tie_increases = rng.next_below(2) == 0;
            let starts: Vec<f64> = match rng.next_below(3) {
                0 => vec![0.0; n],
                1 => (0..n).map(|i| [0.0, t + 1e-3][i % 2]).collect(),
                _ => (0..n)
                    .map(|_| [0.0, t, t + 1e-3][rng.next_below(3) as usize])
                    .collect(),
            };
            let mut m = TimelyFluid::new(tp.clone(), n).with_start_times(starts.clone());
            if let Some(j) = &jitter {
                m = m.with_jitter(j.clone());
            }
            let x = dense(2);
            let want = reference_rhs(
                &tp,
                2,
                &|i| t >= starts[i],
                t,
                extra,
                &x,
                &hist,
                q_comp,
                &|s, qd1, qd2, out| {
                    let tau = tp.tau_star(s[0]);
                    out[0] = m.rate_rhs(s[0], s[1], qd1);
                    out[1] = tp.ewma_alpha / tau
                        * (-s[1] + (qd1 - qd2) / (tp.capacity_pps() * tp.d_min_rtt_s()));
                },
            );
            let got = lane_rhs_dense(&mut m.clone(), t, &x, &hist, lane, stride);
            assert_bits(&got, &want, &format!("TIMELY {what}"));

            // Patched TIMELY: Eq 29 with the Eq 30 weight.
            let mut m = PatchedTimelyFluid::new(pp.clone(), n);
            if let Some(j) = &jitter {
                m = m.with_jitter(j.clone());
            }
            let want = reference_rhs(
                &pp.base,
                2,
                &|_| true,
                t,
                extra,
                &x,
                &hist,
                q_comp,
                &|s, qd1, qd2, out| PatchedTimelyFluid::flow_rhs(&pp, s[0], s[1], qd1, qd2, out),
            );
            let got = lane_rhs_dense(&mut m, t, &x, &hist, lane, stride);
            assert_bits(&got, &want, &format!("patched {what}"));

            // Patched TIMELY-PI: Eq 29 with the end-host PI state, Eq 32.
            let mut m = PatchedTimelyPiFluid::new(pp.clone(), gains.clone(), n);
            let x = dense(3);
            let b = &pp.base;
            let want = reference_rhs(
                b,
                3,
                &|_| true,
                t,
                0.0,
                &x,
                &hist,
                q_comp,
                &|s, qd1, qd2, out| {
                    let (r, g, p_i) = (s[0], s[1], s[2]);
                    let tau = b.tau_star(r);
                    out[0] = if qd1 < b.q_low_pkts() {
                        b.delta_pps() / tau
                    } else if qd1 > b.q_high_pkts() {
                        -(b.beta / tau) * (1.0 - b.q_high_pkts() / qd1) * r
                    } else {
                        let w = PatchedTimelyParams::weight(g);
                        (1.0 - w) * b.delta_pps() / tau - w * b.beta * r / tau * p_i
                    };
                    out[1] = b.ewma_alpha / tau
                        * (-g + (qd1 - qd2) / (b.capacity_pps() * b.d_min_rtt_s()));
                    out[2] = gains.k1 * ((qd1 - qd2) / tau) + gains.k2 * (qd1 - gains.q_ref_pkts);
                },
            );
            let got = lane_rhs_dense(&mut m, t, &x, &hist, lane, stride);
            assert_bits(&got, &want, &format!("PI {what}"));
        }
    }
}
