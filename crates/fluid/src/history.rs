//! Dense solution history with linear interpolation, for delayed lookups.
//!
//! A DDE right-hand side needs `x_c(t − d)` for various components `c` and
//! delays `d` (possibly state-dependent, as in TIMELY's Eq 24). [`History`]
//! stores `(t, state)` knots as the integration advances and answers
//! interpolated queries. Queries before the recorded range fall back to the
//! *initial function* — a constant pre-history equal to the initial state by
//! default, which matches both models' initial conditions (constant rates and
//! empty queue before `t0`).
//!
//! Storage is a single flat `Vec<f64>` with stride `dim`, so [`History::push`]
//! is one `extend_from_slice` (no per-knot allocation) and a whole-state
//! lookup ([`History::eval_all`]) locates the bracketing knot pair **once**
//! and interpolates every component from the two rows — the N-flow DCQCN RHS
//! needs the queue plus all N delayed rates at the same delayed time, which
//! would otherwise pay N+1 independent searches. [`History::trim_before`]
//! advances a logical front offset and only compacts the buffers once the
//! dead prefix dominates, amortizing the `drain` that used to run every step.
//!
//! A history need not hold the whole model state: the DDE drivers record
//! only the leading components a model reads delayed (its declared
//! `history_dim`, the queue alone for the TIMELY family), and a read past
//! that prefix trips [`History::eval`]'s range check.
//!
//! Locating the bracketing knot pair starts from a cursor left by the
//! previous query, which serves monotone sweeps by a short forward walk.
//! On a cursor miss — a lookup far behind or ahead, as TIMELY's
//! `q(t − τ′)` / `q(t − τ′ − τ*)` pairs alternate — the knot index is
//! guessed from the mean knot spacing and corrected by a walk of at most
//! eight knots, so a fixed-step integration's far lookups cost O(1);
//! a grid too irregular for the guess falls back to binary search.

/// Longest correction walk [`History::guess_locate`] takes from its
/// mean-spacing guess before it falls back to binary search.
const MAX_WALK: usize = 8;

/// Interpolated solution history for DDE integration.
#[derive(Debug, Clone)]
pub struct History {
    dim: usize,
    /// Knot times; indices `< front` are trimmed (logically dead).
    times: Vec<f64>,
    /// Flat knot states, stride `dim`, same logical front as `times`.
    states: Vec<f64>,
    /// Physical index of the first live knot.
    front: usize,
    /// Values returned for queries at `t <= times[front]`.
    pre: Vec<f64>,
    /// Physical index hint for monotone query patterns (typical in
    /// integration).
    cursor: std::cell::Cell<usize>,
}

impl History {
    /// New history with the given pre-`t0` constant state.
    pub fn new(t0: f64, initial: &[f64]) -> Self {
        History {
            dim: initial.len(),
            times: vec![t0],
            states: initial.to_vec(),
            front: 0,
            pre: initial.to_vec(),
            cursor: std::cell::Cell::new(0),
        }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `idx` (physical) of the flat state buffer.
    #[inline]
    fn row(&self, idx: usize) -> &[f64] {
        &self.states[idx * self.dim..(idx + 1) * self.dim]
    }

    /// Append a knot. Times must be non-decreasing.
    pub fn push(&mut self, t: f64, state: &[f64]) {
        assert_eq!(state.len(), self.dim);
        // In bounds: the history is seeded with one knot at construction and
        // never shrinks below it.
        let last = self.times[self.times.len() - 1];
        assert!(t >= last, "history times must be non-decreasing");
        // simlint: allow(float-cmp) — exact-by-design: only the bitwise-same instant replaces a knot
        if t == last {
            // Replace the knot (refinement of the same instant).
            let off = self.states.len() - self.dim;
            self.states[off..].copy_from_slice(state);
        } else {
            self.times.push(t);
            self.states.extend_from_slice(state);
        }
    }

    /// Earliest retained time.
    pub fn t_front(&self) -> f64 {
        self.times[self.front] // front < times.len() by construction
    }

    /// Latest recorded time.
    pub fn t_back(&self) -> f64 {
        // In bounds: seeded non-empty at construction, never shrinks below 1.
        self.times[self.times.len() - 1]
    }

    /// Interpolated value of component `c` at time `t`.
    ///
    /// * `t <= t_front()` → pre-history constant.
    /// * `t >= t_back()`  → latest value (constant extrapolation). This is
    ///   what makes intra-step stage evaluations well-defined when a delay is
    ///   smaller than the step size; the integrator keeps steps below the
    ///   smallest delay, so this path only smooths sub-step lookups.
    pub fn eval(&self, t: f64, c: usize) -> f64 {
        assert!(c < self.dim, "component out of range");
        if t <= self.times[self.front] {
            // front < times.len() by construction
            return self.pre[c];
        }
        let n = self.times.len();
        if t >= self.times[n - 1] {
            // non-empty by construction
            return self.row(n - 1)[c];
        }
        let idx = self.locate(t);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (v0, v1) = (self.row(idx)[c], self.row(idx + 1)[c]);
        if t1 == t0 {
            return v1;
        }
        let w = (t - t0) / (t1 - t0);
        v0 + w * (v1 - v0)
    }

    /// Interpolate **every** component at time `t` into `out` (length
    /// `dim`), locating the bracketing knot pair once. Bit-identical to
    /// calling [`History::eval`] per component — the interpolation arithmetic
    /// is the same — at a single search instead of `dim`.
    pub fn eval_all(&self, t: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "output slice dimension mismatch");
        let _span = obs::span::enter(obs::Phase::Locate);
        if t <= self.times[self.front] {
            // front < times.len() by construction
            out.copy_from_slice(&self.pre);
            return;
        }
        let n = self.times.len();
        if t >= self.times[n - 1] {
            // non-empty by construction
            out.copy_from_slice(self.row(n - 1));
            return;
        }
        let idx = self.locate(t);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (r0, r1) = (self.row(idx), self.row(idx + 1));
        if t1 == t0 {
            out.copy_from_slice(r1);
            return;
        }
        let w = (t - t0) / (t1 - t0);
        for ((o, &v0), &v1) in out.iter_mut().zip(r0).zip(r1) {
            *o = v0 + w * (v1 - v0);
        }
    }

    /// Interpolate the `count` components `offset, offset + stride,
    /// offset + 2·stride, …` at time `t` into `out[..count]`, locating the
    /// bracketing knot pair **once** for the whole strided slice.
    ///
    /// This is the batched-lane access pattern (see `fluid::batch`): a lane's
    /// state lives at components `lane, lane + B, lane + 2B, …` of a
    /// `[state_dim × B]` struct-of-arrays history row, so one call fetches a
    /// full per-lane delayed state with a single search. Bit-identical to
    /// calling [`History::eval`] per component — the interpolation arithmetic
    /// is the same.
    pub fn eval_strided(
        &self,
        t: f64,
        offset: usize,
        stride: usize,
        count: usize,
        out: &mut [f64],
    ) {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(
            count == 0 || offset + (count - 1) * stride < self.dim,
            "strided component range out of bounds"
        );
        assert!(out.len() >= count, "output slice too short");
        // A dense full-row request (the scalar path: stride 1 over every
        // component) takes the contiguous-zip loop of `eval_all` — same
        // per-component arithmetic, better codegen than indexed gathers.
        if stride == 1 && offset == 0 && count == self.dim {
            return self.eval_all(t, &mut out[..count]);
        }
        let _span = obs::span::enter(obs::Phase::Locate);
        if t <= self.times[self.front] {
            // front < times.len() by construction
            for (k, o) in out[..count].iter_mut().enumerate() {
                *o = self.pre[offset + k * stride];
            }
            return;
        }
        let n = self.times.len();
        if t >= self.times[n - 1] {
            // non-empty by construction
            let r = self.row(n - 1);
            for (k, o) in out[..count].iter_mut().enumerate() {
                *o = r[offset + k * stride];
            }
            return;
        }
        let idx = self.locate(t);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let (r0, r1) = (self.row(idx), self.row(idx + 1));
        if t1 == t0 {
            for (k, o) in out[..count].iter_mut().enumerate() {
                *o = r1[offset + k * stride];
            }
            return;
        }
        let w = (t - t0) / (t1 - t0);
        for (k, o) in out[..count].iter_mut().enumerate() {
            let c = offset + k * stride;
            let (v0, v1) = (r0[c], r1[c]);
            *o = v0 + w * (v1 - v0);
        }
    }

    /// Find physical `idx` with `times[idx] <= t < times[idx+1]`, exploiting
    /// monotone query locality via a cursor; on a cursor miss, jump to the
    /// knot the mean spacing predicts ([`History::guess_locate`]).
    fn locate(&self, t: f64) -> usize {
        let n = self.times.len();
        let mut idx = self.cursor.get().clamp(self.front, n - 2);
        if self.times[idx] <= t {
            // Walk forward a few steps before giving up on the cursor.
            let mut walked = 0;
            while idx + 1 < n - 1 && self.times[idx + 1] <= t {
                idx += 1;
                walked += 1;
                if walked > 8 {
                    idx = self.guess_locate(t);
                    break;
                }
            }
        } else {
            idx = self.guess_locate(t);
        }
        self.cursor.set(idx);
        idx
    }

    /// The bracket of `t` from the mean knot spacing of the live range,
    /// corrected by a short walk. A fixed-step integration lays its knots
    /// on a near-uniform grid, so the guess is the bracket or one knot off
    /// and a far lookup costs O(1) instead of a binary search. Times are
    /// strictly increasing (a same-time push replaces the knot), so the
    /// bracket is unique and this returns exactly what [`History::bsearch`]
    /// does; a walk longer than [`MAX_WALK`] knots (a non-uniform grid)
    /// falls back to it, keeping the worst case O(log n).
    fn guess_locate(&self, t: f64) -> usize {
        if t.is_nan() {
            return self.bsearch(t);
        }
        let (lo, hi) = (self.front, self.times.len() - 2);
        let mut idx = self.spacing_guess(t);
        for _ in 0..MAX_WALK {
            if self.times[idx] > t {
                if idx == lo {
                    break;
                }
                idx -= 1;
            } else if idx < hi && self.times[idx + 1] <= t {
                idx += 1;
            } else {
                return idx;
            }
        }
        self.bsearch(t)
    }

    /// The bracket start the mean knot spacing of the live range predicts
    /// for `t`, clamped to a valid bracket start.
    fn spacing_guess(&self, t: f64) -> usize {
        let (lo, hi) = (self.front, self.times.len() - 2);
        let (t_lo, t_hi) = (self.times[lo], self.times[hi + 1]);
        let frac = (t - t_lo) / (t_hi - t_lo);
        // `as` saturates (negative → 0), and the clamp keeps the guess in
        // range; a bad guess only costs the fallback.
        ((frac * (hi + 1 - lo) as f64) as usize)
            .saturating_add(lo)
            .min(hi)
    }

    /// Reference locate by binary search over the live knots; the oracle
    /// for [`History::guess_locate`] and its fallback.
    fn bsearch(&self, t: f64) -> usize {
        let hi = self.times.len() - 2;
        match self.times[self.front..].binary_search_by(|probe| probe.total_cmp(&t)) {
            Ok(i) => (self.front + i).min(hi),
            Err(i) => (self.front + i).saturating_sub(1).clamp(self.front, hi),
        }
    }

    /// Drop knots older than `t_keep` (all strictly earlier than the knot
    /// preceding `t_keep`), bounding memory for long integrations. The
    /// pre-history constant is preserved for queries that still reach back
    /// before the trimmed front (they return the oldest retained knot's
    /// segment or the pre constant).
    ///
    /// Trimming only advances the logical front; the buffers are compacted
    /// in chunks once the dead prefix outgrows the live suffix, so the cost
    /// of the copy is amortized O(1) per retired knot.
    pub fn trim_before(&mut self, t_keep: f64) {
        // Keep one knot at or before t_keep so interpolation at t_keep works:
        // the new front is the last knot at or before t_keep. Walk to it
        // from the old front: the front only advances, so each knot is
        // passed once and a per-step trim costs O(1) amortized.
        let mut front = self.front;
        while front + 1 < self.times.len() && self.times[front + 1] <= t_keep {
            front += 1;
        }
        if front == self.front {
            return;
        }
        self.front = front;
        self.pre
            .copy_from_slice(&self.states[self.front * self.dim..(self.front + 1) * self.dim]);
        if self.cursor.get() < self.front {
            self.cursor.set(self.front);
        }
        // Compact once the dead prefix dominates (and is big enough for the
        // copy to be worth it).
        if self.front > 256 && self.front * 2 > self.times.len() {
            let _span = obs::span::enter(obs::Phase::Compact);
            let dropped = self.front;
            self.times.drain(..self.front);
            self.states.drain(..self.front * self.dim);
            self.cursor.set(self.cursor.get() - self.front);
            self.front = 0;
            obs::metrics::counter_inc("fluid.history_compactions");
            obs::trace::record(
                t_keep,
                obs::Event::HistoryCompaction {
                    dropped_rows: dropped as u64,
                    retained_rows: self.times.len() as u64,
                },
            );
        }
    }

    /// Number of retained knots.
    pub fn len(&self) -> usize {
        self.times.len() - self.front
    }

    /// Always false: a history holds at least the initial knot.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_history() -> History {
        // x(t) = 2t on [0, 10], pre-history x = 0.
        let mut h = History::new(0.0, &[0.0]);
        for i in 1..=10 {
            let t = i as f64;
            h.push(t, &[2.0 * t]);
        }
        h
    }

    #[test]
    fn interpolates_linearly() {
        let h = linear_history();
        assert_eq!(h.eval(3.5, 0), 7.0);
        assert_eq!(h.eval(0.25, 0), 0.5);
        assert_eq!(h.eval(9.99, 0), 19.98);
    }

    #[test]
    fn pre_history_constant() {
        let h = linear_history();
        assert_eq!(h.eval(-5.0, 0), 0.0);
        assert_eq!(h.eval(0.0, 0), 0.0);
    }

    #[test]
    fn extrapolates_latest() {
        let h = linear_history();
        assert_eq!(h.eval(42.0, 0), 20.0);
    }

    #[test]
    fn replacing_same_time_knot() {
        let mut h = History::new(0.0, &[1.0]);
        h.push(1.0, &[5.0]);
        h.push(1.0, &[6.0]); // refine
        assert_eq!(h.eval(1.0, 0), 6.0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn monotone_and_random_queries_agree() {
        let h = linear_history();
        // Monotone sweep (uses cursor) then random jumps (binary search).
        for i in 0..100 {
            let t = i as f64 * 0.1;
            assert!((h.eval(t, 0) - 2.0 * t).abs() < 1e-12);
        }
        for &t in &[9.5, 0.1, 5.5, 2.2, 8.8, 0.9] {
            assert!((h.eval(t, 0) - 2.0 * t).abs() < 1e-12);
        }
    }

    #[test]
    fn trim_preserves_interpolation_after_cut() {
        let mut h = linear_history();
        h.trim_before(5.0);
        assert!(h.len() <= 6);
        assert_eq!(h.eval(7.5, 0), 15.0);
        assert_eq!(h.eval(5.0, 0), 10.0);
    }

    #[test]
    fn trim_then_query_before_front_returns_new_pre() {
        let mut h = linear_history();
        h.trim_before(5.0);
        // Queries at or before the new front return the oldest retained knot.
        assert_eq!(h.eval(1.0, 0), 10.0);
        assert_eq!(h.t_front(), 5.0);
    }

    #[test]
    fn multi_component() {
        let mut h = History::new(0.0, &[1.0, -1.0]);
        h.push(2.0, &[3.0, -3.0]);
        assert_eq!(h.eval(1.0, 0), 2.0);
        assert_eq!(h.eval(1.0, 1), -2.0);
    }

    #[test]
    fn eval_all_matches_eval_per_component() {
        let mut h = History::new(0.0, &[1.0, -1.0, 0.5]);
        for i in 1..=20 {
            let t = i as f64 * 0.5;
            h.push(t, &[1.0 + t, -1.0 - t * t, 0.5 * t]);
        }
        let mut out = vec![0.0; 3];
        for i in -4..30 {
            let t = i as f64 * 0.37;
            h.eval_all(t, &mut out);
            for (c, &o) in out.iter().enumerate() {
                assert_eq!(o, h.eval(t, c), "t={t} c={c}");
            }
        }
    }

    #[test]
    fn eval_all_matches_eval_on_random_knots() {
        // Random (sorted) knot times and random states: eval_all must agree
        // with per-component eval to the last bit, including after trims.
        let mut rng = desim::SimRng::new(0xB0B);
        let dim = 7;
        let init: Vec<f64> = (0..dim).map(|_| rng.next_f64()).collect();
        let mut h = History::new(0.0, &init);
        let mut t = 0.0;
        let mut out = vec![0.0; dim];
        for step in 0..500 {
            t += rng.next_f64() * 0.1;
            let state: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
            h.push(t, &state);
            if step % 97 == 0 {
                h.trim_before(t - 1.0);
            }
            // Query a batch of random times straddling the whole range.
            for _ in 0..4 {
                let tq = rng.next_f64() * (t + 1.0) - 0.5;
                h.eval_all(tq, &mut out);
                for (c, &o) in out.iter().enumerate() {
                    let direct = h.eval(tq, c);
                    assert!(
                        o.to_bits() == direct.to_bits(),
                        "t={tq} c={c}: {o} vs {direct}"
                    );
                }
            }
        }
    }

    #[test]
    fn eval_strided_matches_eval_per_component() {
        // Strided lane access must agree with per-component eval to the last
        // bit, across pre-history, interior and extrapolation regions, and
        // after trims — this is the oracle for the batched SoA lane layout.
        let mut rng = desim::SimRng::new(0xBA7C);
        let lanes = 4;
        let lane_dim = 3;
        let dim = lanes * lane_dim;
        let init: Vec<f64> = (0..dim).map(|_| rng.next_f64()).collect();
        let mut h = History::new(0.0, &init);
        let mut t = 0.0;
        let mut out = vec![0.0; lane_dim];
        for step in 0..300 {
            t += rng.next_f64() * 0.1;
            let state: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
            h.push(t, &state);
            if step % 83 == 0 {
                h.trim_before(t - 1.0);
            }
            for _ in 0..3 {
                let tq = rng.next_f64() * (t + 1.0) - 0.5;
                for lane in 0..lanes {
                    h.eval_strided(tq, lane, lanes, lane_dim, &mut out);
                    for (k, &o) in out.iter().enumerate() {
                        let direct = h.eval(tq, lane + k * lanes);
                        assert!(
                            o.to_bits() == direct.to_bits(),
                            "t={tq} lane={lane} k={k}: {o} vs {direct}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn long_run_trim_compacts_storage() {
        // Push far more knots than the horizon retains; the physical buffers
        // must stay bounded (compaction) while interpolation stays correct.
        let mut h = History::new(0.0, &[0.0]);
        for i in 1..=20_000 {
            let t = i as f64 * 1e-3;
            h.push(t, &[2.0 * t]);
            h.trim_before(t - 0.5);
        }
        assert!(h.len() < 600, "live window bounded, len = {}", h.len());
        // Physical storage is at most ~2x the live window after compaction.
        assert!(
            h.times.capacity() < 20_000,
            "storage must not grow with total pushes: cap {}",
            h.times.capacity()
        );
        let t = 19.75;
        assert!((h.eval(t, 0) - 2.0 * t).abs() < 1e-9);
    }

    /// Knots at t = 0, 1, …, n−1 with x = 2t.
    fn ramp_history(n: usize) -> History {
        let mut h = History::new(0.0, &[0.0]);
        for i in 1..n {
            let t = i as f64;
            h.push(t, &[2.0 * t]);
        }
        h
    }

    #[test]
    fn trim_at_exact_compaction_boundary() {
        // Compaction requires front > 256 AND front * 2 > times.len().
        // front == 256 sits exactly on the first boundary: no compaction.
        let mut h = ramp_history(601);
        h.trim_before(256.0);
        assert_eq!(h.front, 256, "at the boundary the front only advances");
        assert_eq!(h.len(), 601 - 256);
        // front == 257 passes the first test but 257*2 = 514 < 601: the dead
        // prefix does not dominate yet, still no compaction.
        h.trim_before(257.0);
        assert_eq!(h.front, 257);
        // Interpolation across the retained range is unaffected.
        assert_eq!(h.eval(300.5, 0), 601.0);
        assert_eq!(h.t_front(), 257.0);
    }

    #[test]
    fn trim_just_past_compaction_boundary_compacts() {
        // 513 knots: front = 257 satisfies both front > 256 and
        // 2*257 = 514 > 513, so this trim must physically compact.
        let mut h = ramp_history(513);
        h.trim_before(257.0);
        assert_eq!(h.front, 0, "compaction resets the physical front");
        assert_eq!(h.len(), 513 - 257);
        assert_eq!(h.times.len(), h.len(), "dead prefix physically dropped");
        assert_eq!(h.eval(400.25, 0), 800.5);
        // Queries behind the new front return the oldest retained knot.
        assert_eq!(h.eval(0.0, 0), 2.0 * 257.0);
    }

    /// Knot grids for the locate oracle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Grid {
        /// Fixed step, accumulated like the integrators' `t += h`.
        Uniform,
        /// Each knot moved by up to 0.4 of a step.
        Jittered,
        /// Spacing growing 0.4% per knot: the mean-spacing guess lands far
        /// from the bracket and the bounded walk must fall back.
        Geometric,
        /// Uniform, trimmed every push so the front advances and the
        /// buffers compact.
        Compacted,
        /// Uniform, every 7th knot replaced by a same-time push.
        Replaced,
        /// Uniform, closed by a short last step (the integrators' final
        /// `h = t1 − t`).
        PartialLast,
    }

    const GRIDS: [Grid; 6] = [
        Grid::Uniform,
        Grid::Jittered,
        Grid::Geometric,
        Grid::Compacted,
        Grid::Replaced,
        Grid::PartialLast,
    ];

    /// A history of random `dim`-component states on `grid`.
    fn oracle_history(rng: &mut desim::SimRng, grid: Grid, dim: usize) -> History {
        let row = |rng: &mut desim::SimRng| -> Vec<f64> {
            (0..dim).map(|_| rng.uniform(-50.0, 50.0)).collect()
        };
        let step = 1e-6;
        let n = 3000;
        let mut h = History::new(0.0, &row(rng));
        let mut t = 0.0;
        for i in 1..=n {
            t = match grid {
                Grid::Jittered => (i as f64 + rng.uniform(-0.4, 0.4)) * step,
                Grid::Geometric => step * 1.004f64.powi(i as i32),
                _ => t + step,
            };
            h.push(t, &row(rng));
            match grid {
                Grid::Compacted => h.trim_before(t - 500.0 * step),
                Grid::Replaced if i % 7 == 0 => h.push(t, &row(rng)),
                _ => {}
            }
        }
        if grid == Grid::PartialLast {
            h.push(t + 0.3 * step, &row(rng));
        }
        if grid == Grid::Compacted {
            assert!(h.times.len() < n, "the compacted grid must have compacted");
        }
        h
    }

    /// [`History::eval`] with the bracket found by the reference binary
    /// search; the same interpolation arithmetic.
    fn reference_eval(h: &History, t: f64, c: usize) -> f64 {
        let n = h.times.len();
        if t <= h.times[h.front] {
            return h.pre[c];
        }
        if t >= h.times[n - 1] {
            return h.row(n - 1)[c];
        }
        let idx = h.bsearch(t);
        let (t0, t1) = (h.times[idx], h.times[idx + 1]);
        let (v0, v1) = (h.row(idx)[c], h.row(idx + 1)[c]);
        if t1 == t0 {
            return v1;
        }
        let w = (t - t0) / (t1 - t0);
        v0 + w * (v1 - v0)
    }

    /// Query times over the live range and a margin past each end, in one
    /// of three orders: random, monotone, or alternating near/far (the
    /// `q(t − τ′)` / `q(t − τ′ − τ*)` pattern of the TIMELY models).
    fn oracle_queries(rng: &mut desim::SimRng, h: &History, order: usize) -> Vec<f64> {
        let (lo, hi) = (h.t_front(), h.t_back());
        let span = hi - lo;
        let count = 600;
        let mut qs = Vec::with_capacity(2 * count + 1);
        for k in 0..count {
            let frac = (k as f64 + rng.next_f64()) / count as f64;
            match order {
                0 => qs.push(lo + rng.uniform(-0.05, 1.05) * span),
                1 => qs.push(lo + frac * span),
                _ => {
                    let near = lo + frac * span;
                    qs.push(near);
                    qs.push(near - rng.uniform(0.0, 0.5) * span);
                }
            }
        }
        qs.push(f64::NAN);
        qs
    }

    #[test]
    fn locate_matches_binary_search_oracle() {
        // The cursor + mean-spacing locate against the reference binary
        // search, on the bracket index and on `eval`/`eval_strided` bits,
        // over every grid and query order.
        let mut rng = desim::SimRng::new(0x10CA7E);
        let (lanes, lane_dim) = (3, 2);
        let dim = lanes * lane_dim;
        let mut out = vec![0.0; lane_dim];
        for grid in GRIDS {
            let mut far_guesses = 0;
            for order in 0..3 {
                let h = oracle_history(&mut rng, grid, dim);
                for t in oracle_queries(&mut rng, &h, order) {
                    let what = format!("{grid:?} order {order} t={t}");
                    if t > h.t_front() && t < h.t_back() {
                        let want = h.bsearch(t);
                        assert_eq!(h.locate(t), want, "locate: {what}");
                        assert_eq!(h.guess_locate(t), want, "guess_locate: {what}");
                        if h.spacing_guess(t).abs_diff(want) > MAX_WALK {
                            far_guesses += 1;
                        }
                    }
                    for c in 0..dim {
                        let want = reference_eval(&h, t, c);
                        let got = h.eval(t, c);
                        assert_eq!(got.to_bits(), want.to_bits(), "eval c={c}: {what}");
                    }
                    for lane in 0..lanes {
                        h.eval_strided(t, lane, lanes, lane_dim, &mut out);
                        for (k, &got) in out.iter().enumerate() {
                            let want = reference_eval(&h, t, lane + k * lanes);
                            assert_eq!(got.to_bits(), want.to_bits(), "strided: {what}");
                        }
                    }
                }
            }
            // On a near-uniform grid the guess is within the walk, so a far
            // lookup costs O(1); the geometric grid exercises the fallback.
            if grid == Grid::Geometric {
                assert!(far_guesses > 0, "geometric grid must hit the fallback");
            } else {
                assert_eq!(far_guesses, 0, "{grid:?}: guess outside the walk");
            }
        }
    }

    #[test]
    fn trim_matches_partition_point_reference() {
        // The forward-walking trim against the binary-search rule it
        // replaced: the new front is the last knot at or before `t_keep`,
        // for steady, jumping, backward and NaN cut points, across
        // compactions.
        let mut rng = desim::SimRng::new(0x7219);
        let mut h = History::new(0.0, &[0.0]);
        let mut t = 0.0;
        for i in 1..=5000 {
            t += rng.uniform(0.5, 1.5);
            h.push(t, &[t]);
            let t_keep = match rng.next_below(8) {
                0 => t - rng.uniform(0.0, 400.0),
                1 => h.t_front() - 1.0,
                2 if i % 50 == 0 => f64::NAN,
                _ => t - 100.0,
            };
            let live = &h.times[h.front..];
            let keep = live.partition_point(|&u| u <= t_keep).saturating_sub(1);
            let want = live[keep];
            h.trim_before(t_keep);
            assert_eq!(h.t_front(), want, "knot {i}, t_keep {t_keep}");
            assert_eq!(h.pre, [want], "pre-history is the front knot");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_regression() {
        let mut h = History::new(0.0, &[0.0]);
        h.push(2.0, &[1.0]);
        h.push(1.0, &[1.0]);
    }
}
