//! The iterative Crank–Nicholson time integrator.
//!
//! The paper lists ICN among Cactus's method-of-lines integrators; the
//! standard three-iteration form is second-order accurate and stable for
//! hyperbolic systems at CFL ≤ 1/√3 in 3D:
//!
//! ```text
//! u⁽¹⁾ = uⁿ + dt · R(uⁿ)
//! u⁽²⁾ = uⁿ + dt · R((uⁿ + u⁽¹⁾)/2)
//! uⁿ⁺¹ = uⁿ + dt · R((uⁿ + u⁽²⁾)/2)
//! ```

use crate::grid::{Grid3, NFIELDS};

/// Right-hand-side evaluations per ICN step.
pub(crate) const ICN_ITERATIONS: usize = 3;

/// One ICN step: advances `state` by `dt`, calling `fill_ghosts` before
/// each RHS evaluation (this is where boundary conditions and halo
/// exchanges plug in) and `rhs(state, out)` to evaluate derivatives.
pub fn icn_step(
    state: &mut Grid3,
    dt: f64,
    mut fill_ghosts: impl FnMut(&mut Grid3),
    mut rhs: impl FnMut(&Grid3, &mut Grid3),
) {
    let base = state.clone();
    let mut deriv = Grid3::new(state.nx, state.ny, state.nz, state.ghost);
    for iter in 0..ICN_ITERATIONS {
        let mut eval_point = icn_midpoint(&base, state, iter);
        fill_ghosts(&mut eval_point);
        rhs(&eval_point, &mut deriv);
        icn_update(state, &base, &deriv, dt);
    }
}

/// Where ICN iteration `iter` evaluates the RHS: the midpoint of `base`
/// and the current iterate `state`, which for the first iteration is
/// just the base state.
pub(crate) fn icn_midpoint(base: &Grid3, state: &Grid3, iter: usize) -> Grid3 {
    let mut mid = base.clone();
    if iter > 0 {
        for f in 0..NFIELDS {
            let cur = state.field(f);
            for (m, c) in mid.field_mut(f).iter_mut().zip(cur) {
                *m = 0.5 * (*m + *c);
            }
        }
    }
    mid
}

/// Close an ICN iteration: `state = base + dt · deriv` (the interior
/// matters; ghosts are refreshed before the next evaluation).
pub(crate) fn icn_update(state: &mut Grid3, base: &Grid3, deriv: &Grid3, dt: f64) {
    for f in 0..NFIELDS {
        let b = base.field(f);
        let d = deriv.field(f);
        for ((s, b), d) in state.field_mut(f).iter_mut().zip(b).zip(d) {
            *s = *b + dt * *d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar ODE u' = λu embedded in field 0, point (0,0,0).
    fn scalar_rhs(lambda: f64) -> impl FnMut(&Grid3, &mut Grid3) {
        move |s: &Grid3, out: &mut Grid3| {
            let v = s.get(0, 0, 0, 0);
            out.set(0, 0, 0, 0, lambda * v);
            for f in 1..NFIELDS {
                out.set(f, 0, 0, 0, 0.0);
            }
        }
    }

    #[test]
    fn matches_exponential_to_second_order() {
        let lambda = -1.0;
        let dt = 0.1;
        let mut g = Grid3::new(1, 1, 1, 0);
        g.set(0, 0, 0, 0, 1.0);
        for _ in 0..10 {
            icn_step(&mut g, dt, |_| {}, scalar_rhs(lambda));
        }
        let exact = (lambda * 1.0f64).exp();
        let got = g.get(0, 0, 0, 0);
        assert!((got - exact).abs() < 1e-3, "{got} vs {exact}");
    }

    #[test]
    fn halving_dt_quarters_the_error() {
        let lambda = -2.0;
        let run = |dt: f64, steps: usize| {
            let mut g = Grid3::new(1, 1, 1, 0);
            g.set(0, 0, 0, 0, 1.0);
            for _ in 0..steps {
                icn_step(&mut g, dt, |_| {}, scalar_rhs(lambda));
            }
            (g.get(0, 0, 0, 0) - (lambda * dt * steps as f64).exp()).abs()
        };
        let e1 = run(0.1, 10);
        let e2 = run(0.05, 20);
        let order = (e1 / e2).log2();
        assert!(order > 1.7, "ICN must be ~2nd order, measured {order}");
    }

    #[test]
    fn zero_rhs_is_identity() {
        let mut g = Grid3::new(2, 2, 2, 1);
        g.set(3, 1, 1, 1, 5.0);
        icn_step(
            &mut g,
            0.5,
            |_| {},
            |_, out| {
                for f in 0..NFIELDS {
                    out.field_mut(f).iter_mut().for_each(|x| *x = 0.0);
                }
            },
        );
        assert_eq!(g.get(3, 1, 1, 1), 5.0);
    }

    #[test]
    fn ghost_fill_called_each_iteration() {
        let mut g = Grid3::new(1, 1, 1, 0);
        let mut calls = 0;
        icn_step(
            &mut g,
            0.1,
            |_| calls += 1,
            |_, out| {
                for f in 0..NFIELDS {
                    out.set(f, 0, 0, 0, 0.0);
                }
            },
        );
        assert_eq!(calls, 3, "one ghost fill per ICN iteration");
    }
}
