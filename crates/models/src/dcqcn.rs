//! The DCQCN fluid model (paper §3, Figure 1, Table 1).
//!
//! The model tracks, per flow `i`, the current rate `R_C`, target rate `R_T`
//! and the DCTCP-style reduction factor `α`, plus one shared bottleneck
//! queue `q`. The switch marks packets with the RED profile of Eq 3; marks
//! reach the sender after the control-loop delay `τ*` (which is *constant*
//! because modern switches mark on egress — the paper's central ECN-vs-delay
//! observation, §5.2).
//!
//! Implemented here:
//!
//! * [`DcqcnFluid::simulate`] — integrate Eqs 3–7 (per-flow extension of
//!   §3.1) as a DDE; regenerates Figures 2 and 4;
//! * [`DcqcnFluid::fixed_point`] — Theorem 1: the unique fixed point via
//!   monotone root-finding on Eq 11 (with Eqs 9, 10, 12);
//! * [`DcqcnParams::p_star_approx`] — the Taylor closed form of Eq 14;
//! * [`DcqcnFluid::loop_transfer`] / [`DcqcnFluid::margin_report`] — the
//!   linearized open loop of Appendix A evaluated numerically; regenerates
//!   the phase-margin curves of Figure 3 including their non-monotonicity
//!   in the number of flows.

use crate::jitter::Jitter;
use crate::units;
use control::complex::Complex64;
use control::linearize::{self, JacobianCache};
use control::margins::{phase_margin_adaptive, MarginReport};
use control::roots;
use control::DelayLtiEvaluator;
use faults::SimError;
use fluid::batch::{lane_of, pack_lanes, try_integrate_dde_batch, LaneBatch, LaneSystem};
use fluid::dde::{integrate_dde_with_prehistory, DdeOptions, DdeSystem};
use fluid::history::History;
use fluid::trace::Trace;
use std::cell::RefCell;

/// DCQCN parameters (Table 1), stored in human units and converted to packet
/// units on demand.
#[derive(Debug, Clone)]
pub struct DcqcnParams {
    /// Packet size in bytes (the model's "packet" unit).
    pub packet_bytes: f64,
    /// Bottleneck bandwidth `C` in Gbps.
    pub capacity_gbps: f64,
    /// RED lower threshold `K_min` in KB.
    pub kmin_kb: f64,
    /// RED upper threshold `K_max` in KB.
    pub kmax_kb: f64,
    /// RED maximum marking probability `P_max` at `K_max`.
    pub p_max: f64,
    /// DCTCP gain `g` of Eq 1.
    pub g: f64,
    /// Rate-increase step `R_AI` in Mbps (fixed at 40 Mbps in the paper).
    pub r_ai_mbps: f64,
    /// Fast-recovery steps `F` (fixed at 5).
    pub fast_recovery_steps: f64,
    /// Byte counter `B` for rate increase, in MB.
    pub byte_counter_mb: f64,
    /// Timer `T` for rate increase, in µs.
    pub timer_us: f64,
    /// CNP generation timer `τ` in µs.
    pub cnp_timer_us: f64,
    /// α-update interval `τ'` in µs (Eq 2 interval).
    pub alpha_timer_us: f64,
    /// Control-loop (feedback) delay `τ*` in µs.
    pub feedback_delay_us: f64,
    /// Minimum rate floor in Mbps (numerical guard; hardware has one too).
    pub min_rate_mbps: f64,
}

impl DcqcnParams {
    /// Defaults from \[31\] on a 40 Gbps bottleneck (the hardware DCQCN was
    /// designed for); used by the analysis figures.
    pub fn default_40g() -> Self {
        DcqcnParams {
            packet_bytes: 1000.0,
            capacity_gbps: 40.0,
            kmin_kb: 5.0,
            kmax_kb: 200.0,
            p_max: 0.01,
            g: 1.0 / 256.0,
            r_ai_mbps: 40.0,
            fast_recovery_steps: 5.0,
            byte_counter_mb: 10.0,
            timer_us: 55.0,
            cnp_timer_us: 50.0,
            alpha_timer_us: 55.0,
            feedback_delay_us: 4.0,
            min_rate_mbps: 10.0,
        }
    }

    /// Defaults on a 10 Gbps bottleneck (the FCT case-study topology,
    /// Figure 13, uses 10 Gbps links).
    pub fn default_10g() -> Self {
        DcqcnParams {
            capacity_gbps: 10.0,
            ..Self::default_40g()
        }
    }

    /// Bottleneck capacity in packets/second.
    pub fn capacity_pps(&self) -> f64 {
        units::gbps_to_pps(self.capacity_gbps, self.packet_bytes)
    }

    /// `K_min` in packets.
    pub fn kmin_pkts(&self) -> f64 {
        units::kb_to_pkts(self.kmin_kb, self.packet_bytes)
    }

    /// `K_max` in packets.
    pub fn kmax_pkts(&self) -> f64 {
        units::kb_to_pkts(self.kmax_kb, self.packet_bytes)
    }

    /// `R_AI` in packets/second.
    pub fn r_ai_pps(&self) -> f64 {
        units::mbps_to_pps(self.r_ai_mbps, self.packet_bytes)
    }

    /// Byte counter `B` in packets.
    pub fn byte_counter_pkts(&self) -> f64 {
        self.byte_counter_mb * 1e6 / self.packet_bytes
    }

    /// Increase timer `T` in seconds.
    pub fn timer_s(&self) -> f64 {
        units::us_to_s(self.timer_us)
    }

    /// CNP timer `τ` in seconds.
    pub fn cnp_timer_s(&self) -> f64 {
        units::us_to_s(self.cnp_timer_us)
    }

    /// α-update interval `τ'` in seconds.
    pub fn alpha_timer_s(&self) -> f64 {
        units::us_to_s(self.alpha_timer_us)
    }

    /// Feedback delay `τ*` in seconds.
    pub fn feedback_delay_s(&self) -> f64 {
        units::us_to_s(self.feedback_delay_us)
    }

    /// Minimum rate in packets/second.
    pub fn min_rate_pps(&self) -> f64 {
        units::mbps_to_pps(self.min_rate_mbps, self.packet_bytes)
    }

    /// RED marking probability for a queue of `q` packets (Eq 3).
    pub fn red_probability(&self, q: f64) -> f64 {
        let kmin = self.kmin_pkts();
        let kmax = self.kmax_pkts();
        if q <= kmin {
            0.0
        } else if q <= kmax {
            (q - kmin) / (kmax - kmin) * self.p_max
        } else {
            1.0
        }
    }

    /// The RED slope `dp/dq` in the interior region (per packet), which is
    /// the feedback gain of the linearized loop.
    pub fn red_slope(&self) -> f64 {
        self.p_max / (self.kmax_pkts() - self.kmin_pkts())
    }

    /// Closed-form approximation of the fixed-point marking probability
    /// (Eq 14): `p* ≈ ∛( R_AI·N²/(τ'·C²) · (1/B + N/(T·C))² )`.
    pub fn p_star_approx(&self, n_flows: usize) -> f64 {
        let n = n_flows as f64;
        let c = self.capacity_pps();
        let lead = self.r_ai_pps() * n * n / (self.alpha_timer_s() * c * c);
        let inner = 1.0 / self.byte_counter_pkts() + n / (self.timer_s() * c);
        (lead * inner * inner).cbrt()
    }
}

/// `(1 − p)^e` computed stably for small `p`.
fn pow1m(p: f64, e: f64) -> f64 {
    pow1m_ln(p, (-p).ln_1p(), e)
}

/// [`pow1m`] with the log `l = ln(1 − p)` precomputed. Every power helper is
/// a function of `e · l`, so an N-flow RHS evaluation hoists the single
/// `ln_1p` out of the per-flow loop; the product multiplies in the same
/// order as the fused form, so the result is bitwise unchanged.
fn pow1m_ln(p: f64, l: f64, e: f64) -> f64 {
    if p >= 1.0 {
        return 0.0;
    }
    (e * l).exp()
}

/// `1 − (1 − p)^e` computed stably for small `p`.
fn one_minus_pow(p: f64, e: f64) -> f64 {
    one_minus_pow_ln(p, (-p).ln_1p(), e)
}

/// [`one_minus_pow`] with `l = ln(1 − p)` precomputed (see [`pow1m_ln`]).
fn one_minus_pow_ln(p: f64, l: f64, e: f64) -> f64 {
    if p >= 1.0 {
        return 1.0;
    }
    -(e * l).exp_m1()
}

/// `p / ((1 − p)^{−e} − 1)`, the expected per-event probability factor in
/// the rate-increase terms (Eq 12's `b` and `d`). Limit `1/e` as `p → 0`.
fn rate_event_factor(p: f64, e: f64) -> f64 {
    rate_event_factor_ln(p, (-p).ln_1p(), e)
}

/// [`rate_event_factor`] with `l = ln(1 − p)` precomputed (see [`pow1m_ln`]).
fn rate_event_factor_ln(p: f64, l: f64, e: f64) -> f64 {
    let e = e.max(1e-9);
    if p < 1e-12 {
        return 1.0 / e;
    }
    if p >= 1.0 {
        return 0.0;
    }
    let denom = (-e * l).exp_m1();
    p / denom
}

/// Marking terms shared by every flow at one delayed time: the log
/// `l = ln(1 − p_delayed)` plus the byte-counter event factors `b` and `c`
/// of Eq 12, which depend only on `p_delayed` (never on the flow's own
/// rate). Hoisting them out of the per-flow loop removes most of the
/// transcendental calls from an N-flow RHS evaluation without changing a
/// bit of the arithmetic.
struct MarkTerms {
    /// Delayed marking probability `p(t − τ*)`.
    p_delayed: f64,
    /// `ln(1 − p_delayed)`.
    l: f64,
    /// Eq 12's `b`: byte-counter event factor.
    b: f64,
    /// Eq 12's `c`: post-fast-recovery byte-counter increase factor.
    c: f64,
}

/// The per-flow transcendental factors of Eqs 5–7, functions of the flow's
/// delayed rate only (given the shared [`MarkTerms`]). Flows with the
/// bitwise-same delayed rate — e.g. every flow of a symmetric run — share
/// one computation; see the memo in the RHS flow loop.
struct FlowTerms {
    /// Delayed rate clamped non-negative, as used by every factor.
    rcd: f64,
    /// Eq 7's CNP-window cut probability `1 − (1 − p)^{τ·R_C(t−τ*)}`.
    a: f64,
    /// Eq 12's `d`: timer event factor.
    d: f64,
    /// Eq 12's `e`: post-fast-recovery timer increase factor.
    e: f64,
    /// Eq 5's marking estimate `1 − (1 − p)^{τ'·R_C(t−τ*)}`.
    alpha_pow: f64,
}

impl FlowTerms {
    fn new(p: &DcqcnParams, mk: &MarkTerms, rc_delayed: f64) -> Self {
        let tau = p.cnp_timer_s();
        let tau_prime = p.alpha_timer_s();
        let f = p.fast_recovery_steps;
        let t_tmr = p.timer_s();
        let rcd = rc_delayed.max(0.0);
        let a = one_minus_pow_ln(mk.p_delayed, mk.l, tau * rcd);
        let d = rate_event_factor_ln(mk.p_delayed, mk.l, t_tmr * rcd);
        let e = pow1m_ln(mk.p_delayed, mk.l, f * t_tmr * rcd) * d;
        let alpha_pow = one_minus_pow_ln(mk.p_delayed, mk.l, tau_prime * rcd);
        FlowTerms {
            rcd,
            a,
            d,
            e,
            alpha_pow,
        }
    }
}

impl MarkTerms {
    fn new(p: &DcqcnParams, p_delayed: f64) -> Self {
        let l = (-p_delayed).ln_1p();
        let b_cnt = p.byte_counter_pkts();
        let b = rate_event_factor_ln(p_delayed, l, b_cnt);
        let c = pow1m_ln(p_delayed, l, p.fast_recovery_steps * b_cnt) * b;
        MarkTerms { p_delayed, l, b, c }
    }
}

/// The unique fixed point of Theorem 1.
#[derive(Debug, Clone)]
pub struct DcqcnFixedPoint {
    /// Marking probability `p*` solving Eq 11.
    pub p_star: f64,
    /// Queue length `q*` in packets (Eq 9). When `p* > P_max` the RED
    /// profile cannot realize `p*` in its linear region and the physical
    /// queue saturates near `K_max`; see `saturated`.
    pub q_star_pkts: f64,
    /// Queue length in KB for reporting.
    pub q_star_kb: f64,
    /// Per-flow rate `R_C* = C/N` in packets/second (Eq 13).
    pub rate_per_flow_pps: f64,
    /// Per-flow target rate `R_T*` in packets/second.
    pub target_rate_pps: f64,
    /// Fixed-point `α*` (Eq 10).
    pub alpha_star: f64,
    /// True when `p* > P_max`, i.e. the operating point lies beyond the RED
    /// linear region (queue pinned near `K_max`). The linearized analysis
    /// still uses the RED slope, following the paper.
    pub saturated: bool,
}

/// The delay-independent half of the DCQCN linearization: fixed point plus
/// central-difference Jacobian blocks of the per-flow subsystem. See
/// [`DcqcnFluid::lin_parts`] for what the parts depend on (and, crucially,
/// what they don't), and [`DcqcnFluid::margin_report_cached`] for the grid
/// sweeps that reuse them through a [`JacobianCache`].
#[derive(Debug, Clone)]
pub struct DcqcnLinParts {
    /// Fixed-point per-flow state `[R_C*, R_T*, α*]`.
    pub x_star: [f64; 3],
    /// Fixed-point marking probability `p*` (Eq 11).
    pub p_star: f64,
    /// `A₀ = ∂f/∂(R_C, R_T, α)` at the fixed point (3×3).
    pub a0: Vec<Vec<f64>>,
    /// Delayed-rate column `∂f/∂R_C(t−τ*)`.
    pub a1_col: Vec<f64>,
    /// Delayed-marking column `∂f/∂p(t−τ*)`.
    pub b_col: Vec<f64>,
}

/// The DCQCN fluid model for `N` flows over one bottleneck.
///
/// State layout: `x\[0\] = q` (packets); flow `i` occupies
/// `x[1+3i..4+3i] = (R_C, R_T, α)`.
///
/// ```
/// use models::dcqcn::{DcqcnFluid, DcqcnParams};
///
/// let m = DcqcnFluid::new(DcqcnParams::default_40g(), 4);
/// let fp = m.fixed_point();            // Theorem 1
/// assert!((fp.rate_per_flow_pps - m.params.capacity_pps() / 4.0).abs() < 1e-6);
/// assert!(m.margin_report().is_stable()); // 4 µs loop: stable
/// ```
#[derive(Debug, Clone)]
pub struct DcqcnFluid {
    /// Model parameters.
    pub params: DcqcnParams,
    /// Number of flows at the bottleneck.
    pub n_flows: usize,
    /// Optional feedback-delay jitter process (Figure 20).
    pub jitter: Option<Jitter>,
    /// Scratch row for whole-state delayed lookups (`History::eval_all`):
    /// the RHS needs the queue plus every flow's rate at the same delayed
    /// time, and this buffer keeps that one-locate lookup allocation-free.
    scratch: Vec<f64>,
}

impl DcqcnFluid {
    /// New model with the given parameters and flow count.
    pub fn new(params: DcqcnParams, n_flows: usize) -> Self {
        assert!(n_flows >= 1, "need at least one flow");
        DcqcnFluid {
            params,
            n_flows,
            jitter: None,
            scratch: vec![0.0; 1 + 3 * n_flows],
        }
    }

    /// Attach feedback-delay jitter (uniform over `[0, amplitude]` seconds,
    /// resampled every `interval` seconds; deterministic per seed).
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// State dimension: shared queue + 3 per flow.
    pub fn state_dim(&self) -> usize {
        1 + 3 * self.n_flows
    }

    /// Index of flow `i`'s current rate in the state vector.
    pub fn rc_index(&self, i: usize) -> usize {
        1 + 3 * i
    }

    /// Index of flow `i`'s target rate.
    pub fn rt_index(&self, i: usize) -> usize {
        2 + 3 * i
    }

    /// Index of flow `i`'s α.
    pub fn alpha_index(&self, i: usize) -> usize {
        3 + 3 * i
    }

    /// Per-flow derivative given the flow's current state, its delayed rate
    /// and the delayed marking probability. This closure *is* the model; the
    /// linearization differentiates it numerically, and it is the unmemoized
    /// reference for [`flow_block_rhs`].
    #[allow(clippy::too_many_arguments)]
    fn flow_rhs(
        p: &DcqcnParams,
        rc: f64,
        rt: f64,
        alpha: f64,
        rc_delayed: f64,
        p_delayed: f64,
        out: &mut [f64],
    ) {
        let mk = MarkTerms::new(p, p_delayed);
        let ft = FlowTerms::new(p, &mk, rc_delayed);
        Self::flow_rhs_from_terms(p, &mk, &ft, rc, rt, alpha, out);
    }

    /// The Eq 5–7 combination step: all transcendental factors arrive
    /// precomputed in `mk` (per delayed time) and `ft` (per delayed rate),
    /// leaving only multiply-adds per flow.
    fn flow_rhs_from_terms(
        p: &DcqcnParams,
        mk: &MarkTerms,
        ft: &FlowTerms,
        rc: f64,
        rt: f64,
        alpha: f64,
        out: &mut [f64],
    ) {
        let tau = p.cnp_timer_s();
        let tau_prime = p.alpha_timer_s();
        let r_ai = p.r_ai_pps();
        // Eq 7: rate decrease (CNP-driven) + averaging toward target on
        // byte-counter and timer events.
        out[0] = -rc * alpha / (2.0 * tau) * ft.a + (rt - rc) / 2.0 * ft.rcd * (mk.b + ft.d);
        // Eq 6: target collapses to R_C on decrease; additive increase after
        // fast recovery on both byte-counter and timer events.
        out[1] = -(rt - rc) / tau * ft.a + r_ai * ft.rcd * (mk.c + ft.e);
        // Eq 5: α tracks the marking probability seen over τ'.
        out[2] = p.g / tau_prime * (ft.alpha_pow - alpha);
    }

    /// Theorem 1: solve Eq 11 for the unique `p*`, then recover `q*`, `α*`
    /// and `R_T*` (Eqs 9, 10 and the `dR_T/dt = 0` balance).
    pub fn fixed_point(&self) -> DcqcnFixedPoint {
        let p = &self.params;
        let rc_star = p.capacity_pps() / self.n_flows as f64;
        let tau = p.cnp_timer_s();
        let tau_prime = p.alpha_timer_s();
        let f = p.fast_recovery_steps;
        let b_cnt = p.byte_counter_pkts();
        let t_tmr = p.timer_s();
        let r_ai = p.r_ai_pps();

        let lhs = |pp: f64| -> f64 {
            let a = one_minus_pow(pp, tau * rc_star);
            let alpha = one_minus_pow(pp, tau_prime * rc_star);
            let b = rate_event_factor(pp, b_cnt);
            let c = pow1m(pp, f * b_cnt) * b;
            let d = rate_event_factor(pp, t_tmr * rc_star);
            let e = pow1m(pp, f * t_tmr * rc_star) * d;
            let denom = (b + d) * (c + e);
            let val = if denom > 0.0 && denom.is_finite() {
                a * a * alpha / denom
            } else {
                f64::INFINITY
            };
            // As p → 1 the increase-event factors vanish and the LHS
            // diverges; clamp to keep the bracket usable for the solver.
            if val.is_finite() {
                val
            } else {
                1e300
            }
        };
        let rhs = tau * tau * r_ai * rc_star;
        // The LHS is monotone increasing in p (paper, proof of Theorem 1):
        // bracket and bisect via Brent.
        let p_star = roots::brent(|pp| lhs(pp) - rhs, 1e-10, 0.999, 1e-14)
            // simlint: allow(panic, no-unwrap-sim) — Theorem 1 guarantees the bracket; a miss is a model bug
            .expect("Eq 11 must bracket a root: LHS(0) < RHS < LHS(1)");

        let q_star_pkts = p_star / p.p_max * (p.kmax_pkts() - p.kmin_pkts()) + p.kmin_pkts(); // Eq 9
        let alpha_star = one_minus_pow(p_star, tau_prime * rc_star); // Eq 10
        let a = one_minus_pow(p_star, tau * rc_star);
        let b = rate_event_factor(p_star, b_cnt);
        let c = pow1m(p_star, f * b_cnt) * b;
        let d = rate_event_factor(p_star, t_tmr * rc_star);
        let e = pow1m(p_star, f * t_tmr * rc_star) * d;
        let target_rate_pps = rc_star + tau * r_ai * rc_star * (c + e) / a.max(1e-300);

        DcqcnFixedPoint {
            p_star,
            q_star_pkts,
            q_star_kb: units::pkts_to_kb(q_star_pkts, p.packet_bytes),
            rate_per_flow_pps: rc_star,
            target_rate_pps,
            alpha_star,
            saturated: p_star > p.p_max,
        }
    }

    /// The fixed-point and Jacobian blocks that feed [`Self::loop_transfer`].
    ///
    /// These depend on `(N, C, R_AI, τ, τ', F, B, T, g)` but **not** on the
    /// RED profile or the feedback delay (Eq 11 never references them), so
    /// grid sweeps that vary only delay / `K_max` / `P_max` can share one
    /// `DcqcnLinParts` across many margin evaluations — that is exactly what
    /// [`Self::margin_report_cached`] does via a [`JacobianCache`] keyed on
    /// [`Self::lin_parts_key`].
    pub fn lin_parts(&self) -> DcqcnLinParts {
        let fp = self.fixed_point();
        let p = self.params.clone();

        let x_star = [fp.rate_per_flow_pps, fp.target_rate_pps, fp.alpha_star];
        let rcd_star = fp.rate_per_flow_pps;
        let p_star = fp.p_star;

        // A0 = ∂f/∂(rc, rt, α) at the fixed point.
        let p_a0 = p.clone();
        let a0 = linearize::jacobian(
            move |x: &[f64], out: &mut [f64]| {
                // x = [rc, rt, α]: the per-flow state layout
                DcqcnFluid::flow_rhs(&p_a0, x[0], x[1], x[2], rcd_star, p_star, out)
            },
            &x_star,
            3,
        );
        // A1 column (delay τ*): only the delayed R_C column is nonzero.
        let p_a1 = p.clone();
        let x0 = x_star;
        let a1_col = linearize::derivative_column(
            move |rcd: f64, out: &mut [f64]| {
                // x0 = [rc, rt, α]: the per-flow state layout
                DcqcnFluid::flow_rhs(&p_a1, x0[0], x0[1], x0[2], rcd, p_star, out)
            },
            rcd_star,
            3,
        );
        // b (delay τ*): ∂f/∂p_delayed.
        let p_b = p.clone();
        let b_col = linearize::derivative_column(
            move |pd: f64, out: &mut [f64]| {
                // x0 = [rc, rt, α]: the per-flow state layout
                DcqcnFluid::flow_rhs(&p_b, x0[0], x0[1], x0[2], rcd_star, pd, out)
            },
            p_star,
            3,
        );

        DcqcnLinParts {
            x_star,
            p_star,
            a0,
            a1_col,
            b_col,
        }
    }

    /// Cache key for [`Self::lin_parts`]: every parameter the linearization
    /// actually reads. Two configs with equal keys have bitwise-equal parts.
    pub fn lin_parts_key(&self) -> Vec<f64> {
        let p = &self.params;
        vec![
            self.n_flows as f64,
            p.capacity_pps(),
            p.r_ai_pps(),
            p.cnp_timer_s(),
            p.alpha_timer_s(),
            p.fast_recovery_steps,
            p.byte_counter_pkts(),
            p.timer_s(),
            p.g,
        ]
    }

    /// Assemble the open-loop transfer closure from precomputed parts (see
    /// [`Self::lin_parts`]); delay and RED slope come from `self`.
    fn loop_transfer_from_parts(&self, parts: DcqcnLinParts) -> impl Fn(f64) -> Option<Complex64> {
        let n = self.n_flows as f64;
        let tau_star = self.params.feedback_delay_s();
        let k_red = self.params.red_slope();

        let mut a1 = vec![vec![0.0; 3]; 3];
        for (row, &v) in a1.iter_mut().zip(&parts.a1_col) {
            row[0] = v; // column 0 = the delayed R_C state
        }
        let sys = control::DelayLti {
            a0: parts.a0,
            delayed_a: vec![(tau_star, a1)],
            b: vec![(tau_star, parts.b_col)],
            c: vec![1.0, 0.0, 0.0],
            d: 0.0,
        };
        // The margin sweep evaluates L at thousands of frequencies; reuse
        // the LU buffers across calls (bit-identical to the allocating
        // path). RefCell because phase_margin wants Fn, not FnMut.
        let ev = RefCell::new(DelayLtiEvaluator::new(sys));

        move |omega: f64| {
            let h = ev.borrow_mut().freq_response(omega)?; // δR_C / δp
            let integ = Complex64::from_re(n) / Complex64::j(omega); // δq/δR_C
                                                                     // Negative-feedback convention: L = −(RED slope)·(N/s)·H.
            Some(-(h * integ).scale(k_red))
        }
    }

    /// Open-loop transfer function `L(jω)` of the linearized system around
    /// the fixed point (Appendix A, computed numerically).
    ///
    /// The loop is broken at the marking probability: the per-flow (R_C,
    /// R_T, α) subsystem responds to `δp(t − τ*)` (and to its own delayed
    /// rate `δR_C(t − τ*)`); N flows feed the queue integrator `N/s`; RED
    /// closes the loop with slope `P_max/(K_max − K_min)`.
    pub fn loop_transfer(&self) -> impl Fn(f64) -> Option<Complex64> {
        self.loop_transfer_from_parts(self.lin_parts())
    }

    /// Phase-margin report for this configuration (one point of Figure 3).
    pub fn margin_report(&self) -> MarginReport {
        let l = self.loop_transfer();
        phase_margin_adaptive(l, 1e1, 1e7, 3000)
    }

    /// [`Self::margin_report`] with the linearization served from `cache`.
    ///
    /// Used by grid sweeps (fig3) where neighboring grid points share
    /// `(N, C, R_AI, …)` and differ only in delay or RED profile. With the
    /// cache's `tol = 0.0` the result is bitwise identical to the uncached
    /// path.
    pub fn margin_report_cached(&self, cache: &mut JacobianCache<DcqcnLinParts>) -> MarginReport {
        let parts = cache.get_or_insert_with(&self.lin_parts_key(), || self.lin_parts());
        let l = self.loop_transfer_from_parts(parts);
        phase_margin_adaptive(l, 1e1, 1e7, 3000)
    }

    /// Integrate the fluid model (Eqs 3–7) for `duration_s` seconds.
    ///
    /// Flows start at line rate with `α = 1` and an empty queue, exactly as
    /// the protocol specifies ("DCQCN does not have slow start. Senders
    /// start at line rate."). Returns the full state trace.
    pub fn simulate(&mut self, duration_s: f64) -> Trace {
        let step = (self.params.feedback_delay_s() / 4.0).min(1e-6);
        self.simulate_with_step(duration_s, step)
    }

    /// Integrate with an explicit step size (tests use this for convergence
    /// checks).
    pub fn simulate_with_step(&mut self, duration_s: f64, step_s: f64) -> Trace {
        let line_rate = self.params.capacity_pps();
        let mut x0 = vec![0.0; self.state_dim()];
        for i in 0..self.n_flows {
            x0[self.rc_index(i)] = line_rate;
            x0[self.rt_index(i)] = line_rate;
            x0[self.alpha_index(i)] = 1.0;
        }
        let record_every = ((duration_s / step_s) / 4000.0).ceil().max(1.0) as usize;
        let horizon = (self.params.feedback_delay_s()
            + self.jitter.as_ref().map_or(0.0, Jitter::max_extra))
            * 4.0
            + 10.0 * step_s;
        let opts = DdeOptions {
            step: step_s,
            record_every,
            history_horizon_s: horizon,
        };
        let pre = x0.clone();
        integrate_dde_with_prehistory(self, &x0.clone(), &pre, 0.0, duration_s, &opts)
    }

    /// Integrate a batch of DCQCN configurations in lockstep over one
    /// struct-of-arrays state block (see [`fluid::batch`]).
    ///
    /// Every lane starts at line rate with `α = 1` and an empty queue,
    /// exactly like [`DcqcnFluid::simulate`], and each lane's trace (or
    /// [`SimError::Divergence`]) is bit-identical to the scalar
    /// `simulate` of the same config — a diverging lane never aborts its
    /// batchmates. Lanes must share the flow count and derive the same
    /// lockstep step size from their feedback delays (callers group sweep
    /// points accordingly); the history horizon is the maximum over lanes,
    /// which affects only memory, never values.
    pub fn simulate_batch(
        models: Vec<DcqcnFluid>,
        duration_s: f64,
    ) -> Vec<Result<Trace, SimError>> {
        assert!(!models.is_empty(), "batch needs at least one lane");
        let lane_step = |m: &DcqcnFluid| (m.params.feedback_delay_s() / 4.0).min(1e-6);
        // `models[0]` is safe: non-emptiness asserted above.
        let step_s = lane_step(&models[0]);
        for m in &models {
            assert!(
                lane_step(m).to_bits() == step_s.to_bits(),
                "lanes must share the lockstep step size"
            );
        }
        let record_every = ((duration_s / step_s) / 4000.0).ceil().max(1.0) as usize;
        let horizon = models
            .iter()
            .map(|m| {
                (m.params.feedback_delay_s() + m.jitter.as_ref().map_or(0.0, Jitter::max_extra))
                    * 4.0
                    + 10.0 * step_s
            })
            .fold(0.0, f64::max);
        let x0s: Vec<Vec<f64>> = models
            .iter()
            .map(|m| {
                let line_rate = m.params.capacity_pps();
                let mut x0 = vec![0.0; m.state_dim()];
                for i in 0..m.n_flows {
                    x0[m.rc_index(i)] = line_rate;
                    x0[m.rt_index(i)] = line_rate;
                    x0[m.alpha_index(i)] = 1.0;
                }
                x0
            })
            .collect();
        let packed = pack_lanes(&x0s);
        let opts = DdeOptions {
            step: step_s,
            record_every,
            history_horizon_s: horizon,
        };
        let mut batch = LaneBatch::new(models);
        try_integrate_dde_batch(&mut batch, &packed, &packed, 0.0, duration_s, &opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience: extract per-flow rates in Gbps and queue in KB from a
    /// trace produced by [`DcqcnFluid::simulate`].
    pub fn rates_gbps(&self, trace: &Trace, flow: usize) -> Vec<(f64, f64)> {
        trace
            .series(self.rc_index(flow))
            .into_iter()
            .map(|(t, pps)| (t, units::pps_to_gbps(pps, self.params.packet_bytes)))
            .collect()
    }

    /// Queue-length series in KB.
    pub fn queue_kb(&self, trace: &Trace) -> Vec<(f64, f64)> {
        trace
            .series(0)
            .into_iter()
            .map(|(t, pkts)| (t, units::pkts_to_kb(pkts, self.params.packet_bytes)))
            .collect()
    }
}

impl LaneSystem for DcqcnFluid {
    fn lane_dim(&self) -> usize {
        self.state_dim()
    }

    /// The DCQCN RHS as a batch-lane kernel: this lane's component `c` lives
    /// at `lane_of(c, lane, stride)` of the strided block. The scalar
    /// [`DdeSystem`] path is the `lane = 0, stride = 1` call of this same
    /// code, which is what makes the batched integrator bit-identical at
    /// B = 1.
    fn lane_rhs(
        &mut self,
        t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        hist: &History,
        dxdt: &mut [f64],
    ) {
        // All delayed quantities (queue + every flow's rate) live at the same
        // delayed time, so fetch the whole lane row with one knot search.
        let mut delayed = std::mem::take(&mut self.scratch);
        let td = self.delayed_instant(t);
        hist.eval_strided(td, lane, stride, self.state_dim(), &mut delayed);
        self.lane_rhs_with_delayed(x, lane, stride, &delayed, dxdt);
        self.scratch = delayed;
    }

    fn min_delay(&self) -> f64 {
        // Jitter only adds delay, so the base feedback delay is the minimum.
        self.params.feedback_delay_s()
    }

    fn lane_delay_at(&self, t: f64) -> Option<f64> {
        Some(self.delayed_instant(t))
    }

    fn lane_rhs_prefetched(
        &mut self,
        _t: f64,
        x: &[f64],
        lane: usize,
        stride: usize,
        _hist: &History,
        delayed: &[f64],
        dxdt: &mut [f64],
    ) {
        // Gather this lane's slice of the prefetched block row (hot in
        // cache, unlike the wide history rows the strided eval walks); the
        // values are bit-identical to an `eval_strided` at the same instant.
        let mut scratch = std::mem::take(&mut self.scratch);
        for (c, s) in scratch.iter_mut().enumerate() {
            *s = delayed[lane_of(c, lane, stride)];
        }
        self.lane_rhs_with_delayed(x, lane, stride, &scratch, dxdt);
        self.scratch = scratch;
    }

    fn lane_project(&mut self, _t: f64, x: &mut [f64], lane: usize, stride: usize) {
        let q = lane_of(0, lane, stride);
        x[q] = x[q].max(0.0); // component 0 is the queue
        project_flow_block(&self.params, self.n_flows, 1, x, lane, stride);
    }
}

impl DcqcnFluid {
    /// The single delayed instant every lookup at time `t` uses.
    fn delayed_instant(&self, t: f64) -> f64 {
        let extra = self.jitter.as_ref().map_or(0.0, |j| j.extra(t));
        let delay = self.params.feedback_delay_s() + extra;
        t - delay
    }

    /// The RHS arithmetic after the delayed lane row has been fetched
    /// (`delayed` is lane-local dense, length `state_dim`); shared by the
    /// history-querying and block-prefetched paths so they cannot drift.
    fn lane_rhs_with_delayed(
        &self,
        x: &[f64],
        lane: usize,
        stride: usize,
        delayed: &[f64],
        dxdt: &mut [f64],
    ) {
        let p = &self.params;
        let cap = p.capacity_pps();

        // Eq 4: queue integrates excess arrival rate (projection keeps q ≥ 0).
        let sum_rates: f64 = (0..self.n_flows)
            .map(|i| x[lane_of(self.rc_index(i), lane, stride)])
            .sum();
        // State component 0 is the shared queue.
        let q = x[lane_of(0, lane, stride)];
        dxdt[lane_of(0, lane, stride)] = if q <= 0.0 && sum_rates < cap {
            0.0
        } else {
            sum_rates - cap
        };

        // RED (Eq 3) on the delayed queue (component 0) is this model's
        // marking source.
        let p_delayed = p.red_probability(delayed[0].max(0.0));
        let n = self.n_flows;
        flow_block_rhs(p, n, 1, p_delayed, x, lane, stride, delayed, dxdt);
    }
}

/// The DCQCN per-flow RHS (Eqs 5–7) over one lane's flow block, shared by
/// every marking source: RED in [`DcqcnFluid`] (`first = 1`) and PI at the
/// switch in [`crate::pi::DcqcnPiFluid`] (`first = 2`). Flow `i`'s
/// `(R_C, R_T, α)` sit at components `first + 3i ..= first + 3i + 2`;
/// `delayed` is the lane's dense delayed state and `p_delayed` the marking
/// probability the source derived from it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn flow_block_rhs(
    p: &DcqcnParams,
    n_flows: usize,
    first: usize,
    p_delayed: f64,
    x: &[f64],
    lane: usize,
    stride: usize,
    delayed: &[f64],
    dxdt: &mut [f64],
) {
    let mk = MarkTerms::new(p, p_delayed);
    // The FlowTerms factors depend only on the flow's delayed rate, and
    // symmetric flows carry bitwise-identical trajectories, so memoize on
    // the exact rate bits: an N-flow symmetric run pays the transcendental
    // cost once instead of N times, with unchanged bits.
    let mut out = [0.0; 3];
    let mut memo: Option<(u64, FlowTerms)> = None;
    for i in 0..n_flows {
        let c = first + 3 * i;
        let rci = lane_of(c, lane, stride);
        let rti = lane_of(c + 1, lane, stride);
        let ali = lane_of(c + 2, lane, stride);
        let (rc, rt, alpha) = (x[rci], x[rti], x[ali]);
        let rc_delayed = delayed[c];
        let ft = match &memo {
            Some((bits, ft)) if *bits == rc_delayed.to_bits() => ft,
            _ => {
                &memo
                    .insert((rc_delayed.to_bits(), FlowTerms::new(p, &mk, rc_delayed)))
                    .1
            }
        };
        DcqcnFluid::flow_rhs_from_terms(p, &mk, ft, rc, rt, alpha, &mut out);
        let [d_rc, d_rt, d_alpha] = out;
        dxdt[rci] = d_rc;
        dxdt[rti] = d_rt;
        dxdt[ali] = d_alpha;
    }
}

/// Clamp one lane's DCQCN flow block (layout as in [`flow_block_rhs`]) to
/// its physical ranges, auditing α and `R_C` in debug builds.
pub(crate) fn project_flow_block(
    p: &DcqcnParams,
    n_flows: usize,
    first: usize,
    x: &mut [f64],
    lane: usize,
    stride: usize,
) {
    let line = p.capacity_pps();
    let floor = p.min_rate_pps();
    for i in 0..n_flows {
        let c = first + 3 * i;
        let rc = lane_of(c, lane, stride);
        let rt = lane_of(c + 1, lane, stride);
        let al = lane_of(c + 2, lane, stride);
        x[rc] = x[rc].clamp(floor, line);
        x[rt] = x[rt].clamp(floor, line);
        x[al] = x[al].clamp(0.0, 1.0);
        desim::invariants::unit_interval("dcqcn fluid alpha", x[al]);
        desim::invariants::finite_rate("dcqcn fluid rc_pps", x[rc]);
    }
}

impl DdeSystem for DcqcnFluid {
    fn dim(&self) -> usize {
        self.state_dim()
    }

    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]) {
        // The scalar path is the single-lane special case of the lane kernel.
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
    fn red_profile_matches_eq3() {
        let p = DcqcnParams::default_40g();
        assert_eq!(p.red_probability(0.0), 0.0);
        assert_eq!(p.red_probability(p.kmin_pkts()), 0.0);
        let mid = (p.kmin_pkts() + p.kmax_pkts()) / 2.0;
        assert!((p.red_probability(mid) - p.p_max / 2.0).abs() < 1e-12);
        assert!((p.red_probability(p.kmax_pkts()) - p.p_max).abs() < 1e-12);
        assert_eq!(p.red_probability(p.kmax_pkts() + 1.0), 1.0);
    }

    #[test]
    fn stable_power_helpers() {
        // Against direct evaluation at moderate p.
        let p = 0.01;
        let e = 100.0;
        assert!((pow1m(p, e) - 0.99f64.powf(100.0)).abs() < 1e-12);
        assert!((one_minus_pow(p, e) - (1.0 - 0.99f64.powf(100.0))).abs() < 1e-12);
        // Limits at p → 0.
        assert!((rate_event_factor(0.0, 50.0) - 0.02).abs() < 1e-12);
        assert!((one_minus_pow(0.0, 1e6)).abs() < 1e-12);
        // rate_event_factor continuity near 0.
        let f1 = rate_event_factor(1e-13, 50.0);
        let f2 = rate_event_factor(1e-11, 50.0);
        assert!((f1 - f2).abs() < 1e-6);
    }

    #[test]
    fn eq11_lhs_is_monotone_in_p() {
        // The uniqueness proof hinges on monotonicity; verify numerically.
        let m = DcqcnFluid::new(DcqcnParams::default_40g(), 4);
        let p = &m.params;
        let rc = p.capacity_pps() / 4.0;
        let tau = p.cnp_timer_s();
        let lhs = |pp: f64| {
            let a = one_minus_pow(pp, tau * rc);
            let alpha = one_minus_pow(pp, p.alpha_timer_s() * rc);
            let b = rate_event_factor(pp, p.byte_counter_pkts());
            let c = pow1m(pp, 5.0 * p.byte_counter_pkts()) * b;
            let d = rate_event_factor(pp, p.timer_s() * rc);
            let e = pow1m(pp, 5.0 * p.timer_s() * rc) * d;
            a * a * alpha / ((b + d) * (c + e))
        };
        let mut prev = lhs(1e-8);
        for k in 1..200 {
            let pp = 1e-8 + k as f64 * (0.9 / 200.0);
            let cur = lhs(pp);
            assert!(cur >= prev, "LHS not monotone at p = {pp}");
            prev = cur;
        }
    }

    #[test]
    fn fixed_point_rates_are_fair_share() {
        for n in [1usize, 2, 10, 64] {
            let m = DcqcnFluid::new(DcqcnParams::default_40g(), n);
            let fp = m.fixed_point();
            let expect = m.params.capacity_pps() / n as f64;
            assert!((fp.rate_per_flow_pps - expect).abs() < 1e-6);
            assert!(fp.p_star > 0.0 && fp.p_star < 1.0);
            assert!(fp.alpha_star > 0.0 && fp.alpha_star < 1.0);
            assert!(fp.target_rate_pps >= fp.rate_per_flow_pps);
        }
    }

    #[test]
    fn eq14_approximates_exact_p_star() {
        // The paper: "Numerical analysis shows that p* is typically very
        // close to 0", and Eq 14 is the O(p^4) Taylor approximation.
        for n in [2usize, 5, 10] {
            let m = DcqcnFluid::new(DcqcnParams::default_40g(), n);
            let exact = m.fixed_point().p_star;
            let approx = m.params.p_star_approx(n);
            let rel = (exact - approx).abs() / exact;
            // The O(p⁴) truncation is coarse at larger N where p* grows;
            // the paper only claims the approximation for p* "very close
            // to 0".
            assert!(
                rel < 0.4,
                "N={n}: exact {exact:.6}, approx {approx:.6}, rel {rel:.3}"
            );
        }
    }

    #[test]
    fn fixed_point_queue_grows_with_flows() {
        // Eq 14: p* (hence q*) increases with N — the motivation for the PI
        // controller in §5.
        let q: Vec<f64> = [2usize, 8, 32]
            .iter()
            .map(|&n| {
                DcqcnFluid::new(DcqcnParams::default_40g(), n)
                    .fixed_point()
                    .q_star_pkts
            })
            .collect();
        assert!(q[0] < q[1] && q[1] < q[2], "q* = {q:?}");
    }

    #[test]
    fn rhs_is_zero_at_fixed_point() {
        let mut m = DcqcnFluid::new(DcqcnParams::default_40g(), 2);
        let fp = m.fixed_point();
        let mut x = vec![fp.q_star_pkts];
        for _ in 0..2 {
            x.extend_from_slice(&[fp.rate_per_flow_pps, fp.target_rate_pps, fp.alpha_star]);
        }
        let hist = History::new(0.0, &x);
        let mut dx = vec![0.0; x.len()];
        // Evaluate at a time far enough that delayed lookups hit pre-history
        // (which equals the fixed point).
        m.rhs(1.0, &x, &hist, &mut dx);
        // Queue derivative: ΣR = C exactly.
        assert!(dx[0].abs() < 1e-3, "dq/dt = {}", dx[0]);
        // Rate derivatives are zero relative to the rate scale.
        let scale = fp.rate_per_flow_pps;
        for i in 0..2 {
            assert!(
                dx[1 + 3 * i].abs() / scale < 1e-6,
                "dRc/dt = {}",
                dx[1 + 3 * i]
            );
            assert!(
                dx[2 + 3 * i].abs() / scale < 1e-6,
                "dRt/dt = {}",
                dx[2 + 3 * i]
            );
            assert!(dx[3 + 3 * i].abs() < 1e-9, "dα/dt = {}", dx[3 + 3 * i]);
        }
    }

    #[test]
    fn two_flows_converge_to_fair_share_at_low_delay() {
        // Figure 4, left column: τ* = 4 µs is stable.
        let params = DcqcnParams::default_40g();
        let mut m = DcqcnFluid::new(params.clone(), 2);
        let tr = m.simulate(0.05);
        let fp = m.fixed_point();
        let last = tr.last_state().unwrap();
        for i in 0..2 {
            let rel = (last[m.rc_index(i)] - fp.rate_per_flow_pps).abs() / fp.rate_per_flow_pps;
            assert!(rel < 0.05, "flow {i} rate off by {rel}");
        }
        // Queue settles near q*.
        let q_tail = tr.mean_from(0, 0.04);
        assert!(
            (q_tail - fp.q_star_pkts).abs() / fp.q_star_pkts < 0.25,
            "queue mean {q_tail} vs q* {}",
            fp.q_star_pkts
        );
    }

    #[test]
    fn unequal_initial_rates_converge_fair() {
        // Theorem 2's conclusion, checked in the fluid model: different
        // starting rates end at the same rate.
        let params = DcqcnParams::default_40g();
        let mut m = DcqcnFluid::new(params, 2);
        let line = m.params.capacity_pps();
        let mut x0 = vec![0.0; m.state_dim()];
        x0[m.rc_index(0)] = line;
        x0[m.rt_index(0)] = line;
        x0[m.alpha_index(0)] = 1.0;
        x0[m.rc_index(1)] = line * 0.1;
        x0[m.rt_index(1)] = line * 0.1;
        x0[m.alpha_index(1)] = 1.0;
        let opts = DdeOptions {
            step: 1e-6,
            record_every: 50,
            history_horizon_s: 0.01,
        };
        let tr = integrate_dde_with_prehistory(&mut m, &x0.clone(), &x0.clone(), 0.0, 0.1, &opts);
        let last = tr.last_state().unwrap();
        let r0 = last[m.rc_index(0)];
        let r1 = last[m.rc_index(1)];
        assert!(
            (r0 - r1).abs() / (r0 + r1) < 0.05,
            "rates did not converge: {r0} vs {r1}"
        );
    }

    #[test]
    fn stable_at_low_delay_unstable_at_10_flows_high_delay() {
        // The paper's headline non-monotonicity (Figures 3a, 4): with
        // τ* = 85 µs, N = 10 oscillates while N = 2 settles.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;

        let mut m10 = DcqcnFluid::new(p.clone(), 10);
        let tr10 = m10.simulate(0.12);
        let fp10 = m10.fixed_point();
        let osc10 = tr10.peak_to_peak_from(0, 0.08) / fp10.q_star_pkts.max(1.0);

        let mut m2 = DcqcnFluid::new(p.clone(), 2);
        let tr2 = m2.simulate(0.12);
        let fp2 = m2.fixed_point();
        let osc2 = tr2.peak_to_peak_from(0, 0.08) / fp2.q_star_pkts.max(1.0);

        assert!(
            osc10 > 2.0 * osc2,
            "expected N=10 much less stable: osc10 = {osc10:.3}, osc2 = {osc2:.3}"
        );
    }

    #[test]
    fn margin_report_stable_at_small_delay() {
        let m = DcqcnFluid::new(DcqcnParams::default_40g(), 2);
        let rep = m.margin_report();
        assert!(
            rep.is_stable(),
            "2 flows at 4 µs must be stable, pm = {:?}",
            rep.phase_margin_deg
        );
    }

    #[test]
    fn margin_nonmonotonic_in_flow_count_at_high_delay() {
        // Figure 3(a): at τ* = 85–100 µs the phase margin dips around
        // N ≈ 10 and recovers for large N.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let pm = |n: usize| {
            DcqcnFluid::new(p.clone(), n)
                .margin_report()
                .phase_margin_deg
                .unwrap_or(180.0)
        };
        let pm2 = pm(2);
        let pm10 = pm(10);
        let pm64 = pm(64);
        assert!(
            pm10 < pm2 && pm10 < pm64,
            "non-monotonicity missing: pm2={pm2:.1}, pm10={pm10:.1}, pm64={pm64:.1}"
        );
        assert!(
            pm10 < 0.0,
            "N=10 at 85us should be unstable, pm10={pm10:.1}"
        );
    }

    #[test]
    fn smaller_rai_improves_stability() {
        // Figure 3(b): smaller R_AI stabilizes.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let pm_default = DcqcnFluid::new(p.clone(), 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        p.r_ai_mbps = 10.0;
        let pm_small = DcqcnFluid::new(p, 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        assert!(
            pm_small > pm_default,
            "R_AI=10: {pm_small:.1} vs R_AI=40: {pm_default:.1}"
        );
    }

    #[test]
    fn larger_kmax_improves_stability() {
        // Figure 3(c): larger K_max (gentler RED slope) stabilizes.
        let mut p = DcqcnParams::default_40g();
        p.feedback_delay_us = 85.0;
        let pm_default = DcqcnFluid::new(p.clone(), 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        p.kmax_kb = 1000.0;
        let pm_big = DcqcnFluid::new(p, 10)
            .margin_report()
            .phase_margin_deg
            .unwrap_or(180.0);
        assert!(
            pm_big > pm_default,
            "Kmax=1MB: {pm_big:.1} vs 200KB: {pm_default:.1}"
        );
    }

    /// Fill the flow block at `first` of a dense current and delayed state
    /// with random values. The delayed rates are all equal, all distinct or
    /// drawn from two values, so the `FlowTerms` memo hits, misses and
    /// alternates; `idle` keeps `ΣR_C < C`.
    fn random_flows(
        rng: &mut desim::SimRng,
        p: &DcqcnParams,
        n: usize,
        first: usize,
        idle: bool,
        x: &mut [f64],
        delayed: &mut [f64],
    ) {
        let (floor, line) = (p.min_rate_pps(), p.capacity_pps());
        let top = if idle { 0.9 * line / n as f64 } else { line };
        let shared = [rng.uniform(floor, line), rng.uniform(floor, line)];
        let mode = rng.next_below(3);
        for i in 0..n {
            let c = first + 3 * i;
            x[c] = rng.uniform(floor, top);
            x[c + 1] = rng.uniform(floor, line);
            x[c + 2] = rng.next_f64();
            delayed[c] = match mode {
                0 => shared[0],
                1 => rng.uniform(floor, line),
                _ => shared[rng.next_below(2) as usize],
            };
            delayed[c + 1] = rng.uniform(floor, line);
            delayed[c + 2] = rng.next_f64();
        }
    }

    /// `sys.lane_rhs` for lane `lane` of a `stride`-wide block whose other
    /// lanes hold NaN, returned dense. At `t = 0` every delayed lookup falls
    /// in the pre-history, which is `delayed` exactly.
    fn lane_rhs_dense<S: LaneSystem>(
        sys: &mut S,
        x: &[f64],
        delayed: &[f64],
        lane: usize,
        stride: usize,
    ) -> Vec<f64> {
        let dim = x.len();
        let mut xb = vec![f64::NAN; dim * stride];
        let mut db = vec![f64::NAN; dim * stride];
        for c in 0..dim {
            xb[lane_of(c, lane, stride)] = x[c];
            db[lane_of(c, lane, stride)] = delayed[c];
        }
        let hist = History::new(0.0, &db);
        let mut dx = vec![f64::NAN; dim * stride];
        sys.lane_rhs(0.0, &xb, lane, stride, &hist, &mut dx);
        (0..dim).map(|c| dx[lane_of(c, lane, stride)]).collect()
    }

    /// The slow reference: the queue row of Eq 4, then one unmemoized
    /// [`DcqcnFluid::flow_rhs`] per flow of the block at `first`.
    fn reference_rhs(
        p: &DcqcnParams,
        n: usize,
        first: usize,
        p_delayed: f64,
        x: &[f64],
        delayed: &[f64],
    ) -> Vec<f64> {
        let mut want = vec![0.0; x.len()];
        let sum_rates: f64 = (0..n).map(|i| x[first + 3 * i]).sum();
        let cap = p.capacity_pps();
        want[0] = if x[0] <= 0.0 && sum_rates < cap {
            0.0
        } else {
            sum_rates - cap
        };
        for i in 0..n {
            let c = first + 3 * i;
            let (rc, rt, alpha) = (x[c], x[c + 1], x[c + 2]);
            DcqcnFluid::flow_rhs(p, rc, rt, alpha, delayed[c], p_delayed, &mut want[c..c + 3]);
        }
        want
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
    }

    #[test]
    fn flow_kernel_matches_unmemoized_reference() {
        // Both marking sources of the shared flow kernel (RED and PI at the
        // switch) against one unmemoized `flow_rhs` call per flow, bit for
        // bit, with `p` at 0, in the interior and saturated at 1.
        use crate::pi::DcqcnPiFluid;
        let p = DcqcnParams::default_40g();
        let gains = DcqcnPiFluid::default_gains(&p, 100.0);
        let (kmin, kmax) = (p.kmin_pkts(), p.kmax_pkts());
        let mut rng = desim::SimRng::new(0x0dcc_0f10);
        for case in 0..600 {
            let n = 1 + rng.next_below(8) as usize;
            let idle = rng.next_below(4) == 0;
            let stride = 1 + rng.next_below(3) as usize;
            let lane = rng.next_below(stride as u64) as usize;
            let region = rng.next_below(3);
            // An empty queue with ΣR_C both below and above C covers both
            // sides of Eq 4's empty-queue branch.
            let empty = rng.next_below(3) == 0;
            let q = if empty {
                0.0
            } else {
                rng.uniform(0.0, 2.0 * kmax)
            };
            let what = format!("case {case}: n={n} idle={idle} q={q} region={region}");

            // RED: p is Eq 3 of the delayed queue.
            let mut red = DcqcnFluid::new(p.clone(), n);
            let mut x = vec![q; red.state_dim()];
            let mut d = x.clone();
            random_flows(&mut rng, &p, n, 1, idle, &mut x, &mut d);
            d[0] = match region {
                0 => rng.uniform(-1.0, kmin),
                1 => 0.5 * (kmin + kmax) + rng.uniform(-0.4, 0.4) * (kmax - kmin),
                _ => rng.uniform(1.5 * kmax, 2.0 * kmax),
            };
            let p_red = p.red_probability(d[0].max(0.0));
            assert_eq!(p_red == 0.0, region == 0, "{what}");
            assert_eq!(p_red == 1.0, region == 2, "{what}");
            let want = reference_rhs(&p, n, 1, p_red, &x, &d);
            let got = lane_rhs_dense(&mut red, &x, &d, lane, stride);
            assert_bits(&got, &want, &format!("RED {what}"));

            // PI: p is its own state component, clamped to [0, 1].
            let mut pi = DcqcnPiFluid::new(p.clone(), gains.clone(), n);
            let mut x = vec![q; pi.state_dim()];
            let mut d = x.clone();
            random_flows(&mut rng, &p, n, 2, idle, &mut x, &mut d);
            x[1] = [0.0, rng.next_f64(), 1.0][rng.next_below(3) as usize];
            d[1] = match region {
                0 => [0.0, -rng.next_f64()][rng.next_below(2) as usize],
                1 => rng.uniform(0.01, 0.99),
                _ => [1.0, 1.0 + rng.next_f64()][rng.next_below(2) as usize],
            };
            let mut want = reference_rhs(&p, n, 2, d[1].clamp(0.0, 1.0), &x, &d);
            let mut dp = gains.k1 * want[0] + gains.k2 * (x[0] - gains.q_ref_pkts);
            if (x[1] >= 1.0 && dp > 0.0) || (x[1] <= 0.0 && dp < 0.0) {
                dp = 0.0;
            }
            want[1] = dp;
            let got = lane_rhs_dense(&mut pi, &x, &d, lane, stride);
            assert_bits(&got, &want, &format!("PI {what}"));
        }
    }
}
