//! Fixed-step RK4 integration of delay differential equations.
//!
//! The method of steps: the right-hand side receives the accumulated
//! [`History`] and performs its own delayed lookups (`hist.eval(t - d, c)`),
//! which naturally supports multiple, heterogeneous and *state-dependent*
//! delays (TIMELY's feedback delay `τ′ = q/C + MTU/C + D_prop` depends on the
//! queue itself). Intra-step RK stages query the history too; lookups past
//! the last knot return the latest value, so accuracy demands steps no larger
//! than the smallest delay — the integrator asserts a sane ratio.
//!
//! The history records only the state prefix the model reads delayed
//! ([`DdeSystem::history_dim`], the whole state by default). The TIMELY
//! family reads nothing but the delayed queue, so its histories hold one
//! component per knot instead of `1 + 2N`; which values the RHS sees, and
//! so every output bit, is unchanged.

use crate::history::History;
use crate::trace::Trace;
use faults::SimError;

/// Divergence-watchdog threshold on the state max-norm. The physical states
/// here are queues in packets/bytes (≤ 1e7) and rates in bits/second (≤ 1e11);
/// anything past this bound is numerical blow-up, not physics.
pub const DIVERGENCE_NORM: f64 = 1e12;

/// A delay differential system `dx/dt = f(t, x(t), history)`.
pub trait DdeSystem {
    /// State dimension.
    fn dim(&self) -> usize;

    /// Evaluate the derivative. `x` is the current state; delayed values are
    /// obtained from `hist` (which includes the pre-`t0` initial function).
    /// `&mut self` allows models that carry RNG state (feedback jitter in
    /// Figure 20).
    fn rhs(&mut self, t: f64, x: &[f64], hist: &History, dxdt: &mut [f64]);

    /// The smallest delay the model will ever query, used for a step-size
    /// sanity check. Return `f64::INFINITY` for delay-free systems.
    fn min_delay(&self) -> f64;

    /// How many leading state components the right-hand side reads through
    /// the [`History`]; the driver records only that prefix of each knot.
    /// Default: the whole state. A model whose delayed terms see only its
    /// first component (the TIMELY family reads just the queue) declares 1,
    /// which shrinks the history by the state dimension without changing a
    /// value it reads.
    fn history_dim(&self) -> usize {
        self.dim()
    }

    /// Optional state projection applied after every step (e.g. clamping the
    /// queue length and rates to be non-negative, as the physical system
    /// enforces). Default: no projection.
    fn project(&mut self, _t: f64, _x: &mut [f64]) {}
}

/// Options for [`integrate_dde`].
#[derive(Debug, Clone)]
pub struct DdeOptions {
    /// Fixed step size (seconds).
    pub step: f64,
    /// Record every n-th step into the output trace.
    pub record_every: usize,
    /// Trim history older than this horizon (seconds) behind the current
    /// time; must exceed the largest delay the model queries. `f64::INFINITY`
    /// disables trimming.
    pub history_horizon_s: f64,
}

impl Default for DdeOptions {
    fn default() -> Self {
        DdeOptions {
            step: 1e-6,
            record_every: 10,
            history_horizon_s: 0.01,
        }
    }
}

/// `tmp = x + coeff·k`: the RK intermediate-stage state. Elementwise over
/// the flat slice, so the same kernel serves the scalar path and the batched
/// `[state_dim × B]` struct-of-arrays block (lanes are adjacent in memory,
/// which is what lets rustc auto-vectorize across the batch).
#[inline]
pub(crate) fn stage_state(tmp: &mut [f64], x: &[f64], coeff: f64, k: &[f64]) {
    for ((t, &xi), &ki) in tmp.iter_mut().zip(x).zip(k) {
        *t = xi + coeff * ki;
    }
}

/// `x += h/6 · (k1 + 2k2 + 2k3 + k4)`: the classic RK4 combination.
/// Elementwise like [`stage_state`], shared by the scalar and batched paths.
#[inline]
pub(crate) fn rk4_combine(x: &mut [f64], h: f64, k1: &[f64], k2: &[f64], k3: &[f64], k4: &[f64]) {
    let w = h / 6.0;
    for i in 0..x.len() {
        x[i] += w * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// The watchdog's view of a state: whether every component is finite and,
/// if so, its max-norm. A non-finite state's norm is never reported (the
/// watchdog reports NaN), and over finite values the maximum does not
/// depend on the order it is taken in, so eight interleaved partial maxima
/// (which vectorize) give bitwise the value of the sequential fold from 0.
#[inline]
fn watchdog_norm(x: &[f64]) -> (f64, bool) {
    let mut part = [0.0f64; 8];
    let mut finite = true;
    let mut chunks = x.chunks_exact(8);
    for chunk in &mut chunks {
        for (p, &xi) in part.iter_mut().zip(chunk) {
            let a = xi.abs();
            finite &= a < f64::INFINITY;
            *p = if a > *p { a } else { *p };
        }
    }
    for (p, &xi) in part.iter_mut().zip(chunks.remainder()) {
        let a = xi.abs();
        finite &= a < f64::INFINITY;
        *p = if a > *p { a } else { *p };
    }
    let norm = part
        .iter()
        .fold(0.0, |m: f64, &p| if p > m { p } else { m });
    (norm, finite)
}

/// Integrate the DDE from `t0` to `t1` starting at `x0`, with constant
/// pre-history equal to `x0`.
///
/// ```
/// use fluid::dde::{integrate_dde, DdeOptions, DdeSystem};
/// use fluid::history::History;
///
/// // dx/dt = -x(t-1), x ≡ 1 for t ≤ 0: x(1) = 0 exactly.
/// struct UnitDelay;
/// impl DdeSystem for UnitDelay {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&mut self, t: f64, _x: &[f64], h: &History, dx: &mut [f64]) {
///         dx[0] = -h.eval(t - 1.0, 0);
///     }
///     fn min_delay(&self) -> f64 { 1.0 }
/// }
/// let opts = DdeOptions { step: 1e-3, record_every: 1, history_horizon_s: f64::INFINITY };
/// let tr = integrate_dde(&mut UnitDelay, &[1.0], 0.0, 1.0, &opts);
/// assert!(tr.last_state().unwrap()[0].abs() < 1e-6);
/// ```
pub fn integrate_dde<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Trace {
    integrate_dde_with_prehistory(sys, x0, x0, t0, t1, opts)
}

/// Integrate with an explicit constant pre-history `pre` (may differ from the
/// initial state, e.g. "queue was empty but rates were at line rate").
///
/// Panics on invalid options or divergence; sweep drivers that must survive
/// individual bad points use [`try_integrate_dde_with_prehistory`].
pub fn integrate_dde_with_prehistory<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    pre: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Trace {
    try_integrate_dde_with_prehistory(sys, x0, pre, t0, t1, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`integrate_dde`]: structured errors instead of panics.
pub fn try_integrate_dde<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Trace, SimError> {
    try_integrate_dde_with_prehistory(sys, x0, x0, t0, t1, opts)
}

/// Fallible variant of [`integrate_dde_with_prehistory`].
///
/// Returns [`SimError::InvalidConfig`] for a bad window/step/dimension and
/// [`SimError::Divergence`] when the watchdog detects NaN/Inf or an exploding
/// state (max-norm beyond [`DIVERGENCE_NORM`]). On divergence the error
/// carries the time, state norm and last step so the caller can record the
/// failed point and continue the sweep.
pub fn try_integrate_dde_with_prehistory<S: DdeSystem>(
    sys: &mut S,
    x0: &[f64],
    pre: &[f64],
    t0: f64,
    t1: f64,
    opts: &DdeOptions,
) -> Result<Trace, SimError> {
    let n = sys.dim();
    if x0.len() != n || pre.len() != n {
        return Err(SimError::config(
            "integrate_dde",
            format!(
                "state dimension mismatch: system dim {n}, x0 len {}, pre len {}",
                x0.len(),
                pre.len()
            ),
        ));
    }
    if !(opts.step > 0.0 && opts.step.is_finite() && t1 >= t0) {
        return Err(SimError::config(
            "integrate_dde",
            format!(
                "bad integration window: step {} over [{t0}, {t1}]",
                opts.step
            ),
        ));
    }
    let min_delay = sys.min_delay();
    if !(min_delay.is_infinite() || opts.step <= min_delay) {
        return Err(SimError::config(
            "integrate_dde",
            format!(
                "step {} exceeds smallest delay {min_delay}; results would be inconsistent",
                opts.step
            ),
        ));
    }
    let m = sys.history_dim();
    if m > n {
        return Err(SimError::config(
            "integrate_dde",
            format!("history prefix {m} exceeds state dimension {n}"),
        ));
    }

    // Only the delayed prefix `x[..m]` is recorded: the RHS never reads
    // further through the history.
    let mut hist = History::new(t0, &pre[..m]);
    // simlint: allow(float-cmp) — exact-by-design: only a bitwise-identical pre-history skips the knot
    if pre != x0 {
        // The state jumps to x0 at t0; represent as a knot at t0 replacing
        // the pre value (History replaces same-time knots).
        hist.push(t0, &x0[..m]);
    }

    let record_every = opts.record_every.max(1);
    let mut x = x0.to_vec();
    let mut trace = Trace::new(n);
    trace.push(t0, &x);

    let steps = ((t1 - t0) / opts.step).ceil() as usize;
    let mut t = t0;
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut tmp = vec![0.0; n];

    let _span = obs::span::enter(obs::Phase::Integrate);
    for step in 1..=steps {
        let h = (t1 - t).min(opts.step);
        sys.rhs(t, &x, &hist, &mut k1);
        stage_state(&mut tmp, &x, 0.5 * h, &k1);
        sys.rhs(t + 0.5 * h, &tmp, &hist, &mut k2);
        stage_state(&mut tmp, &x, 0.5 * h, &k2);
        sys.rhs(t + 0.5 * h, &tmp, &hist, &mut k3);
        stage_state(&mut tmp, &x, h, &k3);
        sys.rhs(t + h, &tmp, &hist, &mut k4);
        rk4_combine(&mut x, h, &k1, &k2, &k3, &k4);
        t += h;
        sys.project(t, &mut x);
        // Divergence watchdog: NaN/Inf or an exploding state bails with a
        // structured diagnostic instead of taking the whole process down.
        let (norm, finite) = watchdog_norm(&x);
        if !finite || norm > DIVERGENCE_NORM {
            let state_norm = if finite { norm } else { f64::NAN };
            obs::metrics::counter_inc("fluid.watchdog_trips");
            if obs::trace::enabled() {
                obs::trace::record(
                    t,
                    obs::Event::WatchdogTrip {
                        step: step as u64,
                        state_norm,
                    },
                );
            }
            let err = SimError::Divergence {
                context: "dde integration".into(),
                t_s: t,
                state_norm,
                last_step_s: h,
                step: step as u64,
            };
            // Flight-recorder post-mortem: mark the trip in the causal ring
            // and, if a dump path is armed, write the black box to disk
            // before the error propagates.
            obs::flight::record(t, "watchdog", state_norm, obs::flight::current_cause());
            obs::flight::dump_on_error(&err.to_string());
            obs::metrics::counter_add("fluid.dde_steps", step as u64 - 1);
            return Err(err);
        }
        hist.push(t, &x[..m]);
        if opts.history_horizon_s.is_finite() {
            hist.trim_before(t - opts.history_horizon_s);
        }
        if step % record_every == 0 || step == steps {
            trace.push(t, &x);
            if obs::timeseries::enabled() {
                // Downsampled trajectory envelope at the trace cadence: the
                // window spans `record_every` steps' worth of recordings.
                obs::timeseries::sample(
                    "fluid.state_norm",
                    0,
                    (record_every as f64) * opts.step * 8.0,
                    t,
                    norm,
                );
                obs::timeseries::observe("fluid.state_norm", 0, norm);
            }
        }
        if obs::trace::enabled() {
            obs::trace::record(
                t,
                obs::Event::DdeStep {
                    step: step as u64,
                    dim: n as u64,
                },
            );
        }
    }
    // Counted once per integration, not per step: with metrics on, each
    // counter update takes the registry lock.
    obs::metrics::counter_add("fluid.dde_steps", steps as u64);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dx/dt = -x(t − 1): the classic test DDE. With constant pre-history
    /// x ≡ 1, the exact solution on [0,1] is x(t) = 1 − t, and on [1,2]
    /// x(t) = 1 − t + (t−1)²/2.
    struct UnitDelay;
    impl DdeSystem for UnitDelay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&mut self, t: f64, _x: &[f64], hist: &History, dxdt: &mut [f64]) {
            dxdt[0] = -hist.eval(t - 1.0, 0);
        }
        fn min_delay(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn matches_method_of_steps_exact_solution() {
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = integrate_dde(&mut UnitDelay, &[1.0], 0.0, 2.0, &opts);
        for i in 0..tr.len() {
            let t = tr.times()[i];
            let x = tr.state(i)[0];
            let exact = if t <= 1.0 {
                1.0 - t
            } else {
                1.0 - t + (t - 1.0) * (t - 1.0) / 2.0
            };
            assert!((x - exact).abs() < 1e-6, "t={t}: {x} vs {exact}");
        }
    }

    #[test]
    fn zero_delay_reduces_to_ode() {
        struct Decay;
        impl DdeSystem for Decay {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, t: f64, _x: &[f64], hist: &History, dxdt: &mut [f64]) {
                dxdt[0] = -hist.eval(t, 0);
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
        }
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 100,
            history_horizon_s: 0.1,
        };
        let tr = integrate_dde(&mut Decay, &[1.0], 0.0, 1.0, &opts);
        let last = tr.last_state().unwrap()[0];
        // History-based lookup lags by one step for the "current" value, so
        // accuracy is ~O(h); just confirm it tracks e^{-1} closely.
        assert!((last - (-1.0f64).exp()).abs() < 1e-2, "got {last}");
    }

    #[test]
    fn projection_clamps_state() {
        struct Drain;
        impl DdeSystem for Drain {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, _t: f64, _x: &[f64], _h: &History, dxdt: &mut [f64]) {
                dxdt[0] = -10.0;
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
            fn project(&mut self, _t: f64, x: &mut [f64]) {
                x[0] = x[0].max(0.0);
            }
        }
        let opts = DdeOptions {
            step: 0.01,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = integrate_dde(&mut Drain, &[0.5], 0.0, 1.0, &opts);
        assert_eq!(tr.last_state().unwrap()[0], 0.0);
        for i in 0..tr.len() {
            assert!(tr.state(i)[0] >= 0.0);
        }
    }

    #[test]
    fn prehistory_differs_from_initial_state() {
        // dx/dt = -x(t-1); pre-history 2 but x0 = 0: derivative is -2 for
        // t in [0,1) regardless of the current state.
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = integrate_dde_with_prehistory(&mut UnitDelay, &[0.0], &[2.0], 0.0, 0.5, &opts);
        let last = tr.last_state().unwrap()[0];
        assert!((last - (-1.0)).abs() < 1e-6, "got {last}");
    }

    #[test]
    fn history_trimming_does_not_change_result() {
        let run = |horizon: f64| {
            let opts = DdeOptions {
                step: 1e-3,
                record_every: 1,
                history_horizon_s: horizon,
            };
            integrate_dde(&mut UnitDelay, &[1.0], 0.0, 3.0, &opts)
                .last_state()
                .unwrap()[0]
        };
        let full = run(f64::INFINITY);
        let trimmed = run(1.5); // > max delay of 1.0
        assert!((full - trimmed).abs() < 1e-12);
    }

    /// dx₀/dt = −x₁(t − 1), dx₁/dt = −x₀(t − 1), declaring `prefix`
    /// delayed components.
    struct CrossDelay {
        prefix: usize,
    }
    impl DdeSystem for CrossDelay {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&mut self, t: f64, _x: &[f64], hist: &History, dxdt: &mut [f64]) {
            dxdt[0] = -hist.eval(t - 1.0, 1);
            dxdt[1] = -hist.eval(t - 1.0, 0);
        }
        fn min_delay(&self) -> f64 {
            1.0
        }
        fn history_dim(&self) -> usize {
            self.prefix
        }
    }

    #[test]
    fn full_history_prefix_integrates() {
        let opts = DdeOptions {
            step: 1e-2,
            record_every: 1,
            history_horizon_s: 2.0,
        };
        let tr = integrate_dde(&mut CrossDelay { prefix: 2 }, &[1.0, 0.5], 0.0, 1.0, &opts);
        // On [0, 1] the delayed terms are the constant pre-history.
        let last = tr.last_state().unwrap();
        assert!(
            (last[0] - 0.5).abs() < 1e-9 && (last[1] + 0.5).abs() < 1e-9,
            "{last:?}"
        );
    }

    #[test]
    #[should_panic(expected = "component out of range")]
    fn reading_past_the_declared_history_prefix_panics() {
        // Component 1 is read delayed but not declared: the history holds
        // only component 0, and `History::eval`'s range check trips.
        let opts = DdeOptions {
            step: 1e-2,
            record_every: 1,
            history_horizon_s: 2.0,
        };
        integrate_dde(&mut CrossDelay { prefix: 1 }, &[1.0, 0.5], 0.0, 1.0, &opts);
    }

    #[test]
    fn history_prefix_longer_than_state_is_config_error() {
        let opts = DdeOptions {
            step: 1e-2,
            record_every: 1,
            history_horizon_s: 2.0,
        };
        let e = try_integrate_dde(&mut CrossDelay { prefix: 3 }, &[1.0, 0.5], 0.0, 1.0, &opts)
            .unwrap_err();
        assert!(e.to_string().contains("history prefix 3"), "{e}");
    }

    #[test]
    #[should_panic(expected = "exceeds smallest delay")]
    fn oversized_step_rejected() {
        let opts = DdeOptions {
            step: 2.0,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        integrate_dde(&mut UnitDelay, &[1.0], 0.0, 4.0, &opts);
    }

    #[test]
    fn try_variant_reports_oversized_step_as_config_error() {
        let opts = DdeOptions {
            step: 2.0,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let e = try_integrate_dde(&mut UnitDelay, &[1.0], 0.0, 4.0, &opts).unwrap_err();
        assert!(!e.is_divergence());
        assert!(e.to_string().contains("exceeds smallest delay"), "{e}");
    }

    #[test]
    fn step_equal_to_min_delay_is_accepted_and_accurate() {
        // The boundary case step == min_delay: with x ≡ 1 pre-history the
        // delayed term is piecewise linear, which RK4 over the interpolated
        // history integrates exactly — x(1) = 0 and x(2) = -1/2.
        let opts = DdeOptions {
            step: 1.0,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = try_integrate_dde(&mut UnitDelay, &[1.0], 0.0, 2.0, &opts).unwrap();
        assert_eq!(tr.len(), 3);
        assert!((tr.state(1)[0]).abs() < 1e-9, "x(1) = {}", tr.state(1)[0]);
        assert!(
            (tr.state(2)[0] + 0.5).abs() < 1e-9,
            "x(2) = {}",
            tr.state(2)[0]
        );
    }

    /// dx/dt = gain·x: explosive for large positive gain, the canonical
    /// watchdog fodder.
    struct Explosive {
        gain: f64,
    }
    impl DdeSystem for Explosive {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&mut self, _t: f64, x: &[f64], _h: &History, dxdt: &mut [f64]) {
            dxdt[0] = self.gain * x[0];
        }
        fn min_delay(&self) -> f64 {
            f64::INFINITY
        }
    }

    #[test]
    fn watchdog_trips_on_exploding_state() {
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let e =
            try_integrate_dde(&mut Explosive { gain: 1e3 }, &[1.0], 0.0, 1.0, &opts).unwrap_err();
        assert!(e.is_divergence(), "{e}");
        let faults::SimError::Divergence {
            t_s,
            state_norm,
            last_step_s,
            step,
            ..
        } = e
        else {
            unreachable!()
        };
        // e^{1000 t} crosses 1e12 near t ≈ 0.0276: the watchdog must fire
        // long before the nominal end of the window, while still finite.
        assert!(t_s < 0.1, "tripped at t = {t_s}");
        assert!(state_norm > DIVERGENCE_NORM && state_norm.is_finite());
        assert_eq!(last_step_s, 1e-3);
        assert!(step > 0);
    }

    #[test]
    fn watchdog_trips_on_nan_rhs() {
        struct NanRhs;
        impl DdeSystem for NanRhs {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, _t: f64, _x: &[f64], _h: &History, dxdt: &mut [f64]) {
                dxdt[0] = f64::NAN;
            }
            fn min_delay(&self) -> f64 {
                f64::INFINITY
            }
        }
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let e = try_integrate_dde(&mut NanRhs, &[1.0], 0.0, 1.0, &opts).unwrap_err();
        let faults::SimError::Divergence {
            state_norm, step, ..
        } = e
        else {
            panic!("expected divergence, got {e}");
        };
        assert!(state_norm.is_nan(), "NaN states report a NaN norm");
        assert_eq!(step, 1, "NaN must be caught on the very first step");
    }

    #[test]
    fn stable_system_unaffected_by_watchdog() {
        // Same machinery, contracting dynamics: Ok, identical to before.
        let opts = DdeOptions {
            step: 1e-3,
            record_every: 1,
            history_horizon_s: f64::INFINITY,
        };
        let tr = try_integrate_dde(&mut Explosive { gain: -1.0 }, &[1.0], 0.0, 1.0, &opts).unwrap();
        let last = tr.last_state().unwrap()[0];
        assert!((last - (-1.0f64).exp()).abs() < 1e-6, "got {last}");
    }
}
