//! The L-BFGS implementation: a resumable, evaluation-inverted step machine
//! with a strong-Wolfe line search.
//!
//! [`LbfgsDriver`] never calls the objective itself: it exposes the next
//! point it needs evaluated ([`LbfgsDriver::pending`]), the caller supplies
//! the value and gradient ([`LbfgsDriver::supply`]), and the driver advances
//! its internal state until it needs the next evaluation or finishes. That
//! shape serves both callers:
//!
//! * [`LbfgsDriver::run`] (and [`Lbfgs::minimize`] on top of it) evaluates
//!   each pending point with [`Objective::value_and_gradient_into`] — the
//!   solo embedding path and offline training;
//! * the batched embedding path steps `B` drivers in lockstep and evaluates
//!   their pending points together in one fused kernel sweep.
//!
//! Both walk the same code, so the batched path's outputs are bit-identical
//! to the per-request path's. Between a (re)start and completion there is
//! always **exactly one pending evaluation**, so a lockstep loop over `B`
//! drivers evaluates exactly `B` points per round.
//!
//! All working storage lives in the driver. [`LbfgsDriver::restart`] reuses
//! it for the next problem, so repeated optimisations (restarts, per-sample
//! fine-tuning) allocate nothing beyond the returned result vector.

use crate::lbfgs::Lbfgs;
use crate::objective::{dot, norm, Objective, OptimizeResult};

const C1: f64 = 1e-4;
const C2: f64 = 0.9;
const MAX_EVALS: usize = 40;
const MAX_BRACKET: usize = 10;

/// Where the driver is inside one strong-Wolfe line search.
#[derive(Debug, Clone, Copy)]
enum LineStage {
    /// Bracketing phase (Nocedal & Wright Algorithm 3.5), step `i` of
    /// [`MAX_BRACKET`].
    Bracket {
        i: usize,
        alpha_prev: f64,
        f_prev: f64,
    },
    /// Bisection zoom (Algorithm 3.6) on the interval `(lo, hi)`.
    Zoom { lo: f64, f_lo: f64, hi: f64 },
}

/// In-flight line-search bookkeeping.
#[derive(Debug, Clone, Copy)]
struct LineState {
    /// Value at the line-search origin.
    f0: f64,
    /// Directional derivative at the origin.
    d_phi0: f64,
    /// Step whose evaluation is currently pending.
    alpha: f64,
    /// Evaluations consumed by this search, bounded by [`MAX_EVALS`].
    evals: usize,
    stage: LineStage,
}

/// What evaluation the driver is waiting for.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting for the value/gradient at the initial point.
    Initial,
    /// Waiting for a line-search candidate.
    Line(LineState),
    /// Waiting for the conservative fallback step after a failed search.
    Fallback,
    /// Finished; the result is available.
    Done,
}

/// Resumable L-BFGS optimisation over one problem: ask [`pending`], answer
/// with [`supply`], repeat until [`is_done`] — or let [`run`] do that
/// against an [`Objective`]. See the module docs.
///
/// [`pending`]: LbfgsDriver::pending
/// [`supply`]: LbfgsDriver::supply
/// [`is_done`]: LbfgsDriver::is_done
/// [`run`]: LbfgsDriver::run
///
/// # Examples
///
/// One driver reused across problems of different dimensions:
///
/// ```
/// use enq_optim::{FnObjective, Lbfgs, LbfgsDriver};
///
/// let shifted = FnObjective::new(1, |x| (x[0] - 0.5).powi(2), |x| vec![2.0 * (x[0] - 0.5)]);
/// let sphere = FnObjective::new(
///     2,
///     |x| x.iter().map(|v| v * v).sum(),
///     |x| x.iter().map(|v| 2.0 * v).collect(),
/// );
/// let mut driver = LbfgsDriver::new(Lbfgs::default(), &[5.0]);
/// assert!((driver.run(&shifted).x[0] - 0.5).abs() < 1e-6);
/// driver.restart(Lbfgs::default(), &[1.0, -2.0]);
/// assert!(driver.run(&sphere).value < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LbfgsDriver {
    params: Lbfgs,
    n: usize,
    memory: usize,
    /// Current iterate and its gradient.
    x: Vec<f64>,
    g: Vec<f64>,
    /// Accepted next iterate (scratch for the curvature-pair update).
    new_x: Vec<f64>,
    /// Gradient at the most recently supplied line-search evaluation.
    new_g: Vec<f64>,
    /// Two-loop recursion scratch.
    q: Vec<f64>,
    direction: Vec<f64>,
    /// The point whose evaluation is pending.
    point: Vec<f64>,
    /// Gradient buffer [`LbfgsDriver::run`] evaluates into.
    eval_g: Vec<f64>,
    alphas: Vec<f64>,
    s_hist: Vec<Vec<f64>>,
    y_hist: Vec<Vec<f64>>,
    rho_hist: Vec<f64>,
    hist_len: usize,
    hist_head: usize,
    f: f64,
    evaluations: usize,
    /// Outer iterations started so far.
    iterations: usize,
    converged: bool,
    phase: Phase,
}

impl LbfgsDriver {
    /// Starts an optimisation of an `x0.len()`-dimensional problem from
    /// `x0`. The first pending evaluation is `x0` itself.
    pub fn new(params: Lbfgs, x0: &[f64]) -> Self {
        let mut driver = Self {
            params: params.clone(),
            n: 0,
            memory: 0,
            x: Vec::new(),
            g: Vec::new(),
            new_x: Vec::new(),
            new_g: Vec::new(),
            q: Vec::new(),
            direction: Vec::new(),
            point: Vec::new(),
            eval_g: Vec::new(),
            alphas: Vec::new(),
            s_hist: Vec::new(),
            y_hist: Vec::new(),
            rho_hist: Vec::new(),
            hist_len: 0,
            hist_head: 0,
            f: 0.0,
            evaluations: 0,
            iterations: 0,
            converged: false,
            phase: Phase::Done,
        };
        driver.restart(params, x0);
        driver
    }

    /// Starts a new optimisation from `x0`, discarding the current one and
    /// reusing this driver's buffers: they are resized only when the problem
    /// dimension or memory depth grows, so a warm driver restarts without
    /// allocating.
    pub fn restart(&mut self, params: Lbfgs, x0: &[f64]) {
        let n = x0.len();
        let memory = params.memory.max(1);
        let zeroed = |v: &mut Vec<f64>, len: usize| {
            v.clear();
            v.resize(len, 0.0);
        };
        for v in [
            &mut self.g,
            &mut self.new_x,
            &mut self.new_g,
            &mut self.q,
            &mut self.direction,
            &mut self.eval_g,
        ] {
            zeroed(v, n);
        }
        self.x.clear();
        self.x.extend_from_slice(x0);
        self.point.clear();
        self.point.extend_from_slice(x0);
        zeroed(&mut self.alphas, memory);
        zeroed(&mut self.rho_hist, memory);
        self.s_hist.resize_with(memory, Vec::new);
        self.y_hist.resize_with(memory, Vec::new);
        for v in self.s_hist.iter_mut().chain(self.y_hist.iter_mut()) {
            zeroed(v, n);
        }
        self.params = params;
        self.n = n;
        self.memory = memory;
        self.hist_len = 0;
        self.hist_head = 0;
        self.f = 0.0;
        self.evaluations = 0;
        self.iterations = 0;
        self.converged = false;
        self.phase = Phase::Initial;
    }

    /// Runs the optimisation to completion, evaluating every pending point
    /// with [`Objective::value_and_gradient_into`], and returns the result.
    /// Allocates only the returned result vector.
    ///
    /// # Panics
    ///
    /// Panics if the objective's dimension differs from the starting
    /// point's.
    pub fn run(&mut self, objective: &dyn Objective) -> OptimizeResult {
        assert_eq!(
            objective.dimension(),
            self.n,
            "initial point has wrong dimension"
        );
        let mut gradient = std::mem::take(&mut self.eval_g);
        while let Some(point) = self.pending() {
            let value = objective.value_and_gradient_into(point, &mut gradient);
            self.supply(value, &gradient);
        }
        self.eval_g = gradient;
        self.result()
            .expect("the loop ends only once the driver is done")
    }

    /// Returns the point awaiting evaluation, or `None` once finished.
    pub fn pending(&self) -> Option<&[f64]> {
        match self.phase {
            Phase::Done => None,
            _ => Some(&self.point),
        }
    }

    /// True once the optimisation has terminated and [`LbfgsDriver::result`]
    /// is available.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Supplies the objective value and gradient at the pending point and
    /// advances to the next pending evaluation (or completion).
    ///
    /// # Panics
    ///
    /// Panics if the driver is already done or `gradient.len()` differs from
    /// the problem dimension.
    pub fn supply(&mut self, value: f64, gradient: &[f64]) {
        assert_eq!(gradient.len(), self.n, "gradient has wrong dimension");
        assert!(!self.is_done(), "supply called on a finished driver");
        self.evaluations += 1;
        match self.phase {
            Phase::Done => unreachable!(),
            Phase::Initial => {
                self.f = value;
                self.g.copy_from_slice(gradient);
                self.begin_iteration();
            }
            Phase::Line(mut st) => {
                self.new_g.copy_from_slice(gradient);
                st.evals += 1;
                let slope = dot(&self.new_g, &self.direction);
                match st.stage {
                    LineStage::Bracket {
                        i,
                        alpha_prev,
                        f_prev,
                    } => {
                        self.step_bracket(st, value, slope, i, alpha_prev, f_prev);
                    }
                    LineStage::Zoom { lo, f_lo, hi } => {
                        self.step_zoom(st, value, slope, lo, f_lo, hi);
                    }
                }
            }
            Phase::Fallback => {
                if value >= self.f {
                    self.converged = true; // cannot make progress
                    self.phase = Phase::Done;
                    return;
                }
                self.x.copy_from_slice(&self.point);
                self.g.copy_from_slice(gradient);
                self.f = value;
                self.begin_iteration();
            }
        }
    }

    /// Returns the optimisation result once [`LbfgsDriver::is_done`].
    pub fn result(&self) -> Option<OptimizeResult> {
        if !self.is_done() {
            return None;
        }
        Some(OptimizeResult {
            gradient_norm: norm(&self.g),
            x: self.x.clone(),
            value: self.f,
            iterations: self.iterations,
            evaluations: self.evaluations,
            converged: self.converged,
        })
    }

    /// Top of the outer iteration: budget and convergence checks, then the
    /// two-loop recursion for the search direction.
    fn begin_iteration(&mut self) {
        if self.iterations == self.params.max_iterations {
            self.phase = Phase::Done;
            return;
        }
        self.iterations += 1;
        if norm(&self.g) < self.params.gradient_tolerance {
            self.converged = true;
            self.phase = Phase::Done;
            return;
        }

        // Two-loop recursion for the search direction d = -H·g.
        let memory = self.memory;
        self.q.copy_from_slice(&self.g);
        for k in (0..self.hist_len).rev() {
            let idx = (self.hist_head + k) % memory;
            let rho = self.rho_hist[idx];
            let alpha = rho * dot(&self.s_hist[idx], &self.q);
            for (qi, yi) in self.q.iter_mut().zip(self.y_hist[idx].iter()) {
                *qi -= alpha * yi;
            }
            self.alphas[k] = alpha;
        }
        let gamma = if self.hist_len > 0 {
            let idx = (self.hist_head + self.hist_len - 1) % memory;
            let yy = dot(&self.y_hist[idx], &self.y_hist[idx]);
            if yy > 1e-16 {
                dot(&self.s_hist[idx], &self.y_hist[idx]) / yy
            } else {
                1.0
            }
        } else {
            1.0
        };
        for qi in self.q.iter_mut() {
            *qi *= gamma;
        }
        for k in 0..self.hist_len {
            let idx = (self.hist_head + k) % memory;
            let rho = self.rho_hist[idx];
            let beta = rho * dot(&self.y_hist[idx], &self.q);
            let alpha = self.alphas[k];
            for (qi, si) in self.q.iter_mut().zip(self.s_hist[idx].iter()) {
                *qi += (alpha - beta) * si;
            }
        }
        for (di, qi) in self.direction.iter_mut().zip(self.q.iter()) {
            *di = -qi;
        }
        self.start_line_search();
    }

    /// Starts the strong-Wolfe line search (Nocedal & Wright, Algorithms
    /// 3.5/3.6 with bisection-based zoom) along `direction`, or falls back
    /// to a small gradient step when `direction` is not a descent direction.
    fn start_line_search(&mut self) {
        let initial_step = if self.hist_len == 0 {
            (1.0 / norm(&self.direction).max(1e-12)).min(1.0)
        } else {
            1.0
        };
        let d_phi0 = dot(&self.g, &self.direction);
        if d_phi0 >= 0.0 {
            // Not a descent direction: refuse to search along it.
            self.enter_fallback();
            return;
        }
        let alpha = initial_step.max(1e-12);
        let st = LineState {
            f0: self.f,
            d_phi0,
            alpha,
            evals: 0,
            stage: LineStage::Bracket {
                i: 0,
                alpha_prev: 0.0,
                f_prev: self.f,
            },
        };
        self.request_line_point(st);
    }

    /// Forms `point = x + α·d` and parks in the line phase.
    fn request_line_point(&mut self, st: LineState) {
        for ((p, xi), di) in self
            .point
            .iter_mut()
            .zip(self.x.iter())
            .zip(self.direction.iter())
        {
            *p = xi + st.alpha * di;
        }
        self.phase = Phase::Line(st);
    }

    /// One bracketing step, fed with the evaluation at `st.alpha`.
    fn step_bracket(
        &mut self,
        mut st: LineState,
        f_alpha: f64,
        slope_alpha: f64,
        i: usize,
        alpha_prev: f64,
        f_prev: f64,
    ) {
        let alpha = st.alpha;
        if f_alpha > st.f0 + C1 * alpha * st.d_phi0 || (i > 0 && f_alpha >= f_prev) {
            self.enter_zoom(st, alpha_prev, f_prev, alpha);
            return;
        }
        if slope_alpha.abs() <= -C2 * st.d_phi0 {
            self.accept_step(alpha, f_alpha);
            return;
        }
        if slope_alpha >= 0.0 {
            self.enter_zoom(st, alpha, f_alpha, alpha_prev);
            return;
        }
        if i + 1 == MAX_BRACKET {
            // Bracket budget exhausted without an interval: search fails.
            self.enter_fallback();
            return;
        }
        st.stage = LineStage::Bracket {
            i: i + 1,
            alpha_prev: alpha,
            f_prev: f_alpha,
        };
        st.alpha = alpha * 2.0;
        self.request_line_point(st);
    }

    /// Starts (or refuses to start) the zoom phase on `(lo, hi)`.
    fn enter_zoom(&mut self, mut st: LineState, lo: f64, f_lo: f64, hi: f64) {
        if st.evals >= MAX_EVALS {
            self.enter_fallback();
            return;
        }
        st.stage = LineStage::Zoom { lo, f_lo, hi };
        st.alpha = 0.5 * (lo + hi);
        self.request_line_point(st);
    }

    /// One zoom step, fed with the evaluation at the midpoint `st.alpha`.
    fn step_zoom(
        &mut self,
        mut st: LineState,
        f_mid: f64,
        slope_mid: f64,
        mut lo: f64,
        mut f_lo: f64,
        mut hi: f64,
    ) {
        let mid = st.alpha;
        if f_mid > st.f0 + C1 * mid * st.d_phi0 || f_mid >= f_lo {
            hi = mid;
        } else {
            if slope_mid.abs() <= -C2 * st.d_phi0 {
                self.accept_step(mid, f_mid);
                return;
            }
            if slope_mid * (hi - lo) >= 0.0 {
                hi = lo;
            }
            lo = mid;
            f_lo = f_mid;
        }
        if (hi - lo).abs() < 1e-14 {
            // Interval collapsed; accept the best point found so far (its
            // gradient is already in `new_g`).
            self.accept_step(mid, f_mid);
            return;
        }
        if st.evals >= MAX_EVALS {
            self.enter_fallback();
            return;
        }
        st.stage = LineStage::Zoom { lo, f_lo, hi };
        st.alpha = 0.5 * (lo + hi);
        self.request_line_point(st);
    }

    /// Line search succeeded: curvature-pair update and convergence check,
    /// then the next iteration.
    fn accept_step(&mut self, step: f64, new_f: f64) {
        for ((nx, xi), di) in self
            .new_x
            .iter_mut()
            .zip(self.x.iter())
            .zip(self.direction.iter())
        {
            *nx = xi + step * di;
        }
        let mut sy = 0.0;
        for i in 0..self.n {
            sy += (self.new_x[i] - self.x[i]) * (self.new_g[i] - self.g[i]);
        }
        if sy > 1e-12 {
            let memory = self.memory;
            let slot = if self.hist_len == memory {
                let oldest = self.hist_head;
                self.hist_head = (self.hist_head + 1) % memory;
                oldest
            } else {
                (self.hist_head + self.hist_len) % memory
            };
            let s_buf = &mut self.s_hist[slot];
            let y_buf = &mut self.y_hist[slot];
            for i in 0..self.n {
                s_buf[i] = self.new_x[i] - self.x[i];
                y_buf[i] = self.new_g[i] - self.g[i];
            }
            self.rho_hist[slot] = 1.0 / sy;
            if self.hist_len < memory {
                self.hist_len += 1;
            }
        }

        let value_change = (self.f - new_f).abs();
        std::mem::swap(&mut self.x, &mut self.new_x);
        std::mem::swap(&mut self.g, &mut self.new_g);
        self.f = new_f;
        if value_change < self.params.value_tolerance * (1.0 + self.f.abs()) {
            self.converged = true;
            self.phase = Phase::Done;
            return;
        }
        self.begin_iteration();
    }

    /// Line search failed: request the conservative gradient step
    /// `x − (1e-4 / max(‖g‖, 1))·g`.
    fn enter_fallback(&mut self) {
        let step = 1e-4 / norm(&self.g).max(1.0);
        for ((p, xi), gi) in self.point.iter_mut().zip(self.x.iter()).zip(self.g.iter()) {
            *p = xi - step * gi;
        }
        self.phase = Phase::Fallback;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;
    use std::cell::Cell;

    /// Steps a driver to completion by hand through `pending`/`supply`, the
    /// way the batched embedding path drives its lanes.
    fn run_driver(params: Lbfgs, objective: &dyn Objective, x0: &[f64]) -> OptimizeResult {
        let mut driver = LbfgsDriver::new(params, x0);
        let mut gradient = vec![0.0; x0.len()];
        let mut rounds = 0usize;
        while let Some(point) = driver.pending() {
            let point = point.to_vec();
            let value = objective.value_and_gradient_into(&point, &mut gradient);
            driver.supply(value, &gradient);
            rounds += 1;
            assert!(rounds < 100_000, "driver failed to terminate");
        }
        driver.result().unwrap()
    }

    /// A pinned [`OptimizeResult`], floats as `f64::to_bits`.
    ///
    /// The pins were captured from the loop-owning solo L-BFGS that the
    /// batched path's driver used to be checked against, before the two
    /// were folded into this driver. They keep that implementation's
    /// trajectories checked bit for bit.
    struct Golden {
        x: &'static [u64],
        value: u64,
        gradient_norm: u64,
        iterations: usize,
        evaluations: usize,
        converged: bool,
    }

    fn assert_golden(result: &OptimizeResult, golden: &Golden, case: &str) {
        assert_eq!(result.iterations, golden.iterations, "{case}: iterations");
        assert_eq!(
            result.evaluations, golden.evaluations,
            "{case}: evaluations"
        );
        assert_eq!(result.converged, golden.converged, "{case}: converged");
        assert_eq!(result.value.to_bits(), golden.value, "{case}: value");
        assert_eq!(
            result.gradient_norm.to_bits(),
            golden.gradient_norm,
            "{case}: gradient norm"
        );
        let x: Vec<u64> = result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(x, golden.x, "{case}: x");
    }

    /// Checks both ways of running the driver against one pin.
    fn assert_both_match(params: Lbfgs, objective: &dyn Objective, x0: &[f64], golden: &Golden) {
        let case = format!("x0 = {x0:?}, max_iterations = {}", params.max_iterations);
        assert_golden(&params.minimize(objective, x0), golden, &case);
        assert_golden(&run_driver(params, objective, x0), golden, &case);
    }

    fn rosenbrock() -> impl Objective {
        FnObjective::new(
            2,
            |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            |x: &[f64]| {
                vec![
                    -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                    200.0 * (x[1] - x[0] * x[0]),
                ]
            },
        )
    }

    fn sphere() -> impl Objective {
        FnObjective::new(
            2,
            |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| 2.0 * v).collect(),
        )
    }

    #[test]
    fn driver_matches_minimize_bitwise() {
        let goldens = [
            (
                [-1.2, 1.0],
                Golden {
                    x: &[0x3ff0000000f7ec0d, 0x3ff0000001d5bcf9],
                    value: 0x3c7fa51888bba0d0,
                    gradient_norm: 0x3e87ac3c46928854,
                    iterations: 34,
                    evaluations: 46,
                    converged: true,
                },
            ),
            (
                [3.0, -5.0],
                Golden {
                    x: &[0x3fefffffffe9f2f3, 0x3fefffffffd1b494],
                    value: 0x3bee3829bd29c800,
                    gradient_norm: 0x3e3d6ac6689e6095,
                    iterations: 35,
                    evaluations: 50,
                    converged: true,
                },
            ),
            (
                [0.0, 0.0],
                Golden {
                    x: &[0x3ff00000014915f1, 0x3ff000000286befc],
                    value: 0x3c7da07584264f10,
                    gradient_norm: 0x3e7649deeb6ad94b,
                    iterations: 21,
                    evaluations: 29,
                    converged: true,
                },
            ),
        ];
        for (x0, golden) in &goldens {
            assert_both_match(Lbfgs::default(), &rosenbrock(), x0, golden);
        }
    }

    #[test]
    fn driver_matches_on_trigonometric_objective() {
        // Similar structure to EnQode's fidelity loss.
        let obj = FnObjective::new(
            3,
            |x: &[f64]| 3.0 - x.iter().map(|v| v.cos()).sum::<f64>(),
            |x: &[f64]| x.iter().map(|v| v.sin()).collect(),
        );
        let golden = Golden {
            x: &[0xbdfdad4a31991200, 0xbe13a07ce41b1a00, 0x3e1db53b23985600],
            value: 0x0000000000000000,
            gradient_norm: 0x3e222f7057102edc,
            iterations: 4,
            evaluations: 5,
            converged: true,
        };
        assert_both_match(Lbfgs::default(), &obj, &[0.5, -0.4, 0.3], &golden);
    }

    #[test]
    fn driver_matches_under_tight_budgets() {
        let goldens = [
            (
                0usize,
                Golden {
                    x: &[0xbff3333333333333, 0x3ff0000000000000],
                    value: 0x4038333333333332,
                    gradient_norm: 0x406d1bc4191bf161,
                    iterations: 0,
                    evaluations: 1,
                    converged: false,
                },
            ),
            (
                1,
                Golden {
                    x: &[0xbfeefe4397306758, 0x3ff182f76e34d0c9],
                    value: 0x40194936117b3c7c,
                    gradient_norm: 0x40502e114e3dc61f,
                    iterations: 1,
                    evaluations: 4,
                    converged: false,
                },
            ),
            (
                2,
                Golden {
                    x: &[0xbff04408df588353, 0x3ff11c95f0a6a771],
                    value: 0x4010c8e6f650d4ae,
                    gradient_norm: 0x40299f6a0318b038,
                    iterations: 2,
                    evaluations: 5,
                    converged: false,
                },
            ),
            (
                5,
                Golden {
                    x: &[0xbff03059a2726d37, 0x3ff0a82d41ba5433],
                    value: 0x40104f2dd52105b7,
                    gradient_norm: 0x401247619f3dcabd,
                    iterations: 5,
                    evaluations: 8,
                    converged: false,
                },
            ),
        ];
        for (max_iterations, golden) in &goldens {
            let params = Lbfgs {
                max_iterations: *max_iterations,
                gradient_tolerance: 1e-20,
                value_tolerance: 0.0,
                memory: 3,
            };
            assert_both_match(params, &rosenbrock(), &[-1.2, 1.0], golden);
        }
    }

    #[test]
    fn driver_converges_immediately_at_minimum() {
        let golden = Golden {
            x: &[0, 0],
            value: 0,
            gradient_norm: 0,
            iterations: 1,
            evaluations: 1,
            converged: true,
        };
        assert_both_match(Lbfgs::default(), &sphere(), &[0.0, 0.0], &golden);
    }

    #[test]
    fn counts_every_objective_evaluation() {
        // `f(x) = -x` has no minimum: every line search exhausts its bracket
        // budget and falls back to a small gradient step, so the count must
        // include the evaluations of failed searches too.
        let calls = Cell::new(0usize);
        let unbounded = FnObjective::new(
            1,
            |x: &[f64]| {
                calls.set(calls.get() + 1);
                -x[0]
            },
            |_: &[f64]| vec![-1.0],
        );
        let result = Lbfgs::with_max_iterations(5).minimize(&unbounded, &[0.0]);
        assert_eq!(result.iterations, 5);
        assert_eq!(result.evaluations, calls.get());
        assert_eq!(result.evaluations, 56, "1 + 5 x (10 bracket + 1 fallback)");
    }

    /// Feeds exact evaluations of `objective` to a fresh driver until its
    /// first line search accepts a step. Returns the driver, the line-search
    /// state of the accepting evaluation, and the accepted point.
    fn first_accepted_step(
        objective: &dyn Objective,
        x0: &[f64],
    ) -> (LbfgsDriver, LineState, Vec<f64>) {
        let mut driver = LbfgsDriver::new(Lbfgs::default(), x0);
        let mut gradient = vec![0.0; x0.len()];
        loop {
            let phase = driver.phase;
            let point = driver.pending().expect("driver finished early").to_vec();
            let value = objective.value_and_gradient_into(&point, &mut gradient);
            driver.supply(value, &gradient);
            assert!(
                !matches!(driver.phase, Phase::Fallback),
                "the line search failed"
            );
            let searching = matches!(driver.phase, Phase::Line(_)) && driver.iterations == 1;
            if let (Phase::Line(st), false) = (phase, searching) {
                return (driver, st, point);
            }
        }
    }

    #[test]
    fn finds_wolfe_step_on_quadratic() {
        let obj = sphere();
        let x = [1.0, 1.0];
        let (f0, g0) = obj.value_and_gradient(&x);
        let (driver, st, accepted) = first_accepted_step(&obj, &x);
        assert!(st.alpha > 0.0);
        assert!(driver.f < f0);
        // The driver moved to the accepted point and its gradient buffer
        // holds ∇f there.
        assert_eq!(driver.x, accepted);
        assert_eq!(driver.g, obj.gradient(&accepted));
        // The first direction is steepest descent; the accepted step meets
        // the strong-Wolfe curvature condition along it.
        let slope: f64 = driver.g.iter().zip(&g0).map(|(g, d)| -g * d).sum();
        assert!(slope.abs() <= -C2 * st.d_phi0);
    }

    #[test]
    fn rejects_ascent_direction() {
        let obj = sphere();
        let x = [1.0, 1.0];
        let (f0, g0) = obj.value_and_gradient(&x);
        let mut driver = LbfgsDriver::new(Lbfgs::default(), &x);
        driver.supply(f0, &g0);
        assert!(matches!(driver.phase, Phase::Line(_)));
        // Point the search uphill: the driver refuses to search along it and
        // requests the conservative fallback step instead.
        driver.direction.copy_from_slice(&g0);
        driver.start_line_search();
        assert!(matches!(driver.phase, Phase::Fallback));
        let step = 1e-4 / norm(&g0).max(1.0);
        let fallback: Vec<f64> = x.iter().zip(&g0).map(|(xi, gi)| xi - step * gi).collect();
        assert_eq!(driver.pending().unwrap(), fallback.as_slice());
    }

    #[test]
    fn satisfies_armijo_condition() {
        let obj = sphere();
        let x = [3.0, -2.0];
        let (f0, g0) = obj.value_and_gradient(&x);
        let (driver, st, _) = first_accepted_step(&obj, &x);
        assert_eq!(st.f0, f0);
        assert_eq!(st.d_phi0, -dot(&g0, &g0));
        assert!(driver.f <= st.f0 + C1 * st.alpha * st.d_phi0 + 1e-12);
    }
}
