import math

import numpy as np
import pytest

from conewave.fields import (
    DiscreteField,
    ManufacturedField,
    PotentialSpec,
    box_operator,
    constant_field,
    gaussian_pulse,
    gradient_norm_sq,
    nonlinear_residual,
    ode_field,
    polynomial_gaussian,
    read_snapshot,
    signed_power,
    traveling_bump,
    write_snapshot,
    zero_field,
)
from conewave.cli import _offcenter_gaussian
from conewave.exact_solutions import OdeSolution
from tests_helpers import closures_jet


def linear_field(n=1):
    return ManufacturedField(
        n,
        closures_jet(
            lambda t, r: t + r,
            lambda t, r: np.ones(np.broadcast(t, r).shape),
            lambda t, r: np.ones(np.broadcast(t, r).shape),
            lambda t, r: (n - 1) / r * np.ones(np.broadcast(t, r).shape)),
        label="t+r",
    )


class TestPotential:
    def test_constant(self):
        V = PotentialSpec.constant(2.0)
        assert V.value(0.3, 1.2) == 2.0
        assert V.gradient(0.3, 1.2) == (0.0, 0.0)
        assert V.bound == 2.0

    def test_perturbed_unit_gradient_profile(self):
        V = PotentialSpec(kind="perturbed", c0=1.0, eps=0.3,
                          center=(0.0, 1.0), width=0.5)
        tt = np.linspace(-2, 2, 101)
        rr = np.linspace(0, 3, 101)
        T, R = np.meshgrid(tt, rr)
        Vt, Vr = V.gradient(T, R)
        assert np.max(np.hypot(Vt, Vr)) <= abs(V.eps) + 1e-12
        assert np.all(V.value(T, R) >= 1.0 / V.bound - 1e-12)

    def test_slab_smallness_enforced(self):
        with pytest.raises(ValueError):
            PotentialSpec.perturbed(1.0, 0.5, (0.0, 1.0), 0.5, alpha=0.1,
                                    t_star=1.0)
        V = PotentialSpec.perturbed(1.0, 0.05, (0.0, 1.0), 0.5, alpha=0.1,
                                    t_star=1.0)
        assert V.max_gradient_times(1.0) <= 0.1

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            PotentialSpec(kind="perturbed", c0=0.5, eps=1.0,
                          center=(0.0, 0.0), width=1.0)


class TestGradientNormSq:
    def test_constant_is_zero(self):
        assert gradient_norm_sq(constant_field(3.0, 3), 0.5, 1.0) == 0.0

    def test_ode_field_p2(self):
        # d_t phi* = 12 (-t)^{-3} at t = -1 gives 144
        assert gradient_norm_sq(ode_field(2.0, 3), -1.0, 0.7) == pytest.approx(144.0)

    def test_linear_field(self):
        assert gradient_norm_sq(linear_field(), 0.2, 1.5) == pytest.approx(2.0)


class TestBoxOperator:
    def test_t_squared(self):
        f = ManufacturedField(
            3,
            closures_jet(
                lambda t, r: t * t + 0.0 * r,
                lambda t, r: 2.0 * t + 0.0 * r,
                lambda t, r: np.zeros(np.broadcast(t, r).shape),
                lambda t, r: -2.0 + 0.0 * (t + r)),
        )
        assert box_operator(f, 0.3, 1.0) == pytest.approx(-2.0)

    def test_r_squared_discrete(self):
        # box r^2 = 2n for the radial Laplacian; exercised through the
        # discrete stencil including the regularized axis
        n = 3
        r = np.linspace(0.0, 2.0, 129)
        times = np.array([0.0, 0.01, 0.02])
        phi = np.vstack([r * r] * 3)
        phit = np.zeros_like(phi)
        fld = DiscreteField(times, r, phi, phit, n)
        assert box_operator(fld, 0.01, r[4]) == pytest.approx(6.0, rel=1e-9)
        assert box_operator(fld, 0.01, 0.0) == pytest.approx(6.0, rel=1e-9)

    def test_ode_solution_closed_form(self):
        # box phi* = -|phi*| phi* for p = 2: at t = -1 that is -36
        f = ode_field(2.0, 3)
        assert box_operator(f, -1.0, 0.3) == pytest.approx(-36.0)

    def test_discrete_errors(self):
        r = np.linspace(0.0, 1.0, 65)
        times = np.array([0.0, 0.01, 0.02])
        fld = DiscreteField(times, r, np.zeros((3, 65)), np.zeros((3, 65)), 3)
        with pytest.raises(IndexError):
            box_operator(fld, 0.0, r[3])   # first level: no centered stencil
        with pytest.raises(IndexError):
            box_operator(fld, 0.01, r[-1])  # outer boundary


class TestNonlinearResidual:
    def test_zero_field(self):
        V = PotentialSpec.constant(1.0)
        assert nonlinear_residual(zero_field(3), V, 2.0, 0.5, 1.0) == 0.0

    def test_constant_field(self):
        V = PotentialSpec.constant(1.0)
        c = 1.7
        val = nonlinear_residual(constant_field(c, 3), V, 2.0, 0.5, 1.0)
        assert val == pytest.approx(c ** 2)

    def test_ode_solution_exact_zero(self):
        V = PotentialSpec.constant(1.0)
        for p in (1.5, 2.0, 3.0):
            val = nonlinear_residual(ode_field(p, 3), V, p, -0.7, 0.2)
            assert val == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p,n", [(1.5, 3), (2.0, 3), (3.0, 2)])
    def test_discrete_residual_second_order(self, p, n):
        # sample phi* on grids and check the stencil residual vanishes at
        # second order in the spacing
        sol = OdeSolution(p)
        V = PotentialSpec.constant(1.0)
        errs = []
        hs = (2e-3, 1e-3, 5e-4)
        for h in hs:
            times = np.array([-1.0 - h, -1.0, -1.0 + h])
            r = np.arange(9) * h
            phi = np.vstack([np.full_like(r, sol.value(t)) for t in times])
            phit = np.vstack([np.full_like(r, sol.dvalue(t)) for t in times])
            fld = DiscreteField(times, r, phi, phit, n)
            errs.append(abs(nonlinear_residual(fld, V, p, -1.0, r[2])))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestManufacturedDerivatives:
    @pytest.mark.parametrize("field", [
        gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5),
        polynomial_gaussian(3, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3),
        traveling_bump(3, 1.0, 0.4, 1.5, 0.3),
        ode_field(2.0, 3),
    ], ids=["gauss", "polygauss", "travel", "ode"])
    def test_derivatives_match_finite_differences(self, field):
        t0, r0 = (-0.5, 0.8) if field.label.startswith("ode") else (0.25, 0.9)
        hs = np.array([1e-2, 1e-3, 1e-4])
        for k, axis in ((1, "t"), (2, "r")):
            errs = []
            for h in hs:
                if axis == "t":
                    fd = (field.value(t0 + h, r0) - field.value(t0 - h, r0)) / (2 * h)
                else:
                    fd = (field.value(t0, r0 + h) - field.value(t0, r0 - h)) / (2 * h)
                errs.append(abs(fd - field.jet(t0, r0)[k]) + 1e-300)
            if max(errs) < 1e-13:
                continue  # exactly-linear direction: nothing to fit
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert slope == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("field", [
        gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5),
        polynomial_gaussian(2, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3),
        traveling_bump(3, 1.0, 0.4, 1.5, 0.3),
    ], ids=["gauss", "polygauss", "travel"])
    def test_box_matches_stencil(self, field):
        t0, r0 = 0.25, 0.9
        h = 1e-4
        n = field.dim
        phitt = (field.value(t0 + h, r0) - 2 * field.value(t0, r0)
                 + field.value(t0 - h, r0)) / h ** 2
        phirr = (field.value(t0, r0 + h) - 2 * field.value(t0, r0)
                 + field.value(t0, r0 - h)) / h ** 2
        phir = (field.value(t0, r0 + h) - field.value(t0, r0 - h)) / (2 * h)
        stencil = -phitt + phirr + (n - 1) / r0 * phir
        assert field.jet(t0, r0)[3] == pytest.approx(stencil, rel=1e-5, abs=1e-6)

    def test_gaussian_box_regular_at_axis(self):
        field = gaussian_pulse(3, 1.0, 0.0, 1.0, 0.5)
        val = field.jet(0.0, 0.0)[3]
        # -d_tt + n d_rr at the axis for the even gaussian
        expected = (1.0 / 1.0 ** 2) - 3 * (1.0 / 0.5 ** 2)
        assert val == pytest.approx(expected * field.value(0.0, 0.0))


class TestSignedPower:
    def test_odd_extension(self):
        assert signed_power(-2.0, 1.5) == pytest.approx(-(2.0 ** 1.5))
        assert signed_power(0.0, 1.5) == 0.0

    def test_matches_plain_power_for_positive(self):
        assert signed_power(1.7, 2.0) == pytest.approx(1.7 ** 2)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snap.dat"
        r = np.linspace(0, 2, 33)
        phi = np.sin(r) * 1e-5
        phit = np.cos(r) * math.pi
        write_snapshot(path, 3, 2.0, -0.625, r, phi, phit)
        n, p, t, r2, phi2, phit2 = read_snapshot(str(path))
        assert (n, p, t) == (3, 2.0, -0.625)
        np.testing.assert_array_equal(r2, r)
        np.testing.assert_array_equal(phi2, phi)
        np.testing.assert_array_equal(phit2, phit)

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("nonsense\n1 2 3\n")
        with pytest.raises(ValueError):
            read_snapshot(str(path))

    def test_field_from_snapshot_files(self, tmp_path):
        r = np.linspace(0, 1, 17)
        paths = []
        for i, t in enumerate((0.0, 0.1)):
            path = tmp_path / f"s{i}.dat"
            write_snapshot(path, 2, 2.0, t, r, r * t, r * 0)
            paths.append(str(path))
        fld = DiscreteField.from_snapshot_files(paths)
        assert fld.dim == 2
        assert fld.value(0.05, 0.5) == pytest.approx(0.025)


class TestDiscreteFieldEvaluation:
    def test_reproduces_bilinear_functions(self):
        r = np.linspace(0, 2, 41)
        times = np.array([0.0, 0.5, 1.0])
        phi = np.vstack([3.0 * t + 2.0 * r for t in times])
        phit = np.vstack([np.full_like(r, 3.0) for _ in times])
        fld = DiscreteField(times, r, phi, phit, 1)
        assert fld.value(0.25, 0.33) == pytest.approx(3 * 0.25 + 2 * 0.33)
        assert fld.jet(0.7, 1.0)[1] == pytest.approx(3.0)
        assert fld.jet(0.7, 1.3)[2] == pytest.approx(2.0)

    def test_even_extension(self):
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0]), r, (r * r)[None, :],
                            np.zeros((1, 11)), 3)
        assert fld.value(0.0, -0.5) == fld.value(0.0, 0.5)

    def test_out_of_range_raises(self):
        r = np.linspace(0, 1, 11)
        fld = DiscreteField(np.array([0.0, 1.0]), r, np.zeros((2, 11)),
                            np.zeros((2, 11)), 3)
        with pytest.raises(ValueError):
            fld.value(2.0, 0.5)
        with pytest.raises(ValueError):
            fld.value(0.5, 1.5)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DiscreteField(np.array([0.0]), np.array([0.5, 1.0]),
                          np.zeros((1, 2)), np.zeros((1, 2)), 3)


# --------------------------------------------------------------------------
# Bit identity of the jets with per-component closures evaluated one by one
# --------------------------------------------------------------------------

def _gaussian_closures(n, A, tc, wt, wr):
    def phi(t, r):
        return A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2) - r * r / (2 * wr ** 2))

    def phi_t(t, r):
        return -(t - tc) / wt ** 2 * phi(t, r)

    def phi_r(t, r):
        return -r / wr ** 2 * phi(t, r)

    def box(t, r):
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * phi(t, r)
        phirr = (r * r / wr ** 4 - 1.0 / wr ** 2) * phi(t, r)
        return -phitt + phirr - (n - 1) / wr ** 2 * phi(t, r)

    return phi, phi_t, phi_r, box


def _polynomial_closures(n, A, tc, wt, wr, c1, c2):
    b_phi, b_phi_t, b_phi_r, b_box = _gaussian_closures(n, A, tc, wt, wr)

    def q(t):
        return 1.0 + c1 * (t - tc) + c2 * (t - tc) ** 2

    def dq(t):
        return c1 + 2.0 * c2 * (t - tc)

    def phi(t, r):
        return q(t) * b_phi(t, r)

    def phi_t(t, r):
        return dq(t) * b_phi(t, r) + q(t) * b_phi_t(t, r)

    def phi_r(t, r):
        return q(t) * b_phi_r(t, r)

    def box(t, r):
        g = b_phi(t, r)
        gt = b_phi_t(t, r)
        gtt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * g
        phitt = 2.0 * c2 * g + 2.0 * dq(t) * gt + q(t) * gtt
        return -phitt + q(t) * (b_box(t, r) + gtt)

    return phi, phi_t, phi_r, box


def _travel_closures(n, A, v, d, w):
    def arg(t, r):
        return r - v * t - d

    def phi(t, r):
        return A * np.exp(-arg(t, r) ** 2 / (2 * w * w))

    def phi_t(t, r):
        return v * arg(t, r) / (w * w) * phi(t, r)

    def phi_r(t, r):
        return -arg(t, r) / (w * w) * phi(t, r)

    def box(t, r):
        s = arg(t, r)
        sec = (s * s / w ** 4 - 1.0 / (w * w)) * phi(t, r)
        return -(v * v) * sec + sec + (n - 1) / r * phi_r(t, r)

    return phi, phi_t, phi_r, box


def _offcenter_closures(n, A, tc, rc, wt, wr):
    def phi(t, r):
        return A * np.exp(-(t - tc) ** 2 / (2 * wt ** 2)
                          - (r - rc) ** 2 / (2 * wr ** 2))

    def phi_t(t, r):
        return -(t - tc) / wt ** 2 * phi(t, r)

    def phi_r(t, r):
        return -(r - rc) / wr ** 2 * phi(t, r)

    def box(t, r):
        phitt = ((t - tc) ** 2 / wt ** 4 - 1.0 / wt ** 2) * phi(t, r)
        phirr = ((r - rc) ** 2 / wr ** 4 - 1.0 / wr ** 2) * phi(t, r)
        return -phitt + phirr + (n - 1) / r * phi_r(t, r)

    return phi, phi_t, phi_r, box


def _ode_closures(p):
    sol = OdeSolution(p)
    C, k = sol.amplitude, sol.k
    return (lambda t, r: C * (-t) ** (-k) + 0.0 * np.asarray(r, dtype=float),
            lambda t, r: C * k * (-t) ** (-k - 1) + 0.0 * np.asarray(r, dtype=float),
            lambda t, r: np.zeros(np.broadcast(t, r).shape),
            lambda t, r: -C * k * (k + 1) * (-t) ** (-k - 2)
            + 0.0 * np.asarray(r, dtype=float))


def _constant_closures(c):
    return (lambda t, r: np.full(np.broadcast(t, r).shape, float(c)),) + tuple(
        lambda t, r: np.zeros(np.broadcast(t, r).shape) for _ in range(3))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def _quadrature_like_points(t_lo, t_hi, r_lo, r_hi):
    """A broadcast time column against a radial mesh, as the bulk loop
    passes them, plus a scalar point."""
    tn = np.linspace(t_lo, t_hi, 37)
    R = np.linspace(r_lo, r_hi, 41)[None, :] * np.ones((37, 1))
    T = np.broadcast_to(tn[:, None], R.shape)
    return [(T, R), (float(tn[5]), float(R[0, 7]))]


class TestJetBitIdentity:
    CASES = [
        ("gauss", gaussian_pulse(3, 1.2, 0.3, 0.7, 0.5),
         _gaussian_closures(3, 1.2, 0.3, 0.7, 0.5), (-0.4, 0.9, 0.0, 2.0)),
        ("polygauss", polynomial_gaussian(2, 0.8, -0.2, 0.6, 0.7, c1=0.4, c2=-0.3),
         _polynomial_closures(2, 0.8, -0.2, 0.6, 0.7, 0.4, -0.3),
         (-0.5, 0.5, 0.0, 1.5)),
        ("travel", traveling_bump(3, 1.0, 0.4, 1.5, 0.3),
         _travel_closures(3, 1.0, 0.4, 1.5, 0.3), (-0.3, 0.6, 0.5, 2.5)),
        ("offgauss", _offcenter_gaussian(2, 0.7, 0.1, 1.3, 0.25, 0.3),
         _offcenter_closures(2, 0.7, 0.1, 1.3, 0.25, 0.3), (-0.2, 0.4, 0.6, 2.0)),
        ("ode", ode_field(2.5, 3), _ode_closures(2.5), (-1.0, -0.05, 0.0, 1.0)),
        ("zero", zero_field(3), _constant_closures(0.0), (-1.0, 1.0, 0.0, 1.0)),
        ("constant", constant_field(1.7, 3), _constant_closures(1.7),
         (-1.0, 1.0, 0.0, 1.0)),
    ]

    @pytest.mark.parametrize("field,closures,box_",
                             [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_jet_matches_closures(self, field, closures, box_):
        for t, r in _quadrature_like_points(*box_):
            jet = field.jet(t, r)
            ta, ra = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
            for got, closure in zip(jet, closures):
                assert_same_bits(got, closure(ta, ra))
            assert_same_bits(field.value(t, r), closures[0](ta, ra))


def _reference_eval(fld, table, t, r):
    """Bilinear interpolation of one table, written out per table."""
    t = np.asarray(t, dtype=float)
    r = np.abs(np.asarray(r, dtype=float))
    t, r = np.broadcast_arrays(t, r)
    if fld.times.size == 1:
        m = np.zeros(t.shape, dtype=int)
        th = np.zeros(t.shape)
    else:
        m = np.clip(np.searchsorted(fld.times, t, side="right") - 1,
                    0, fld.times.size - 2)
        th = np.clip((t - fld.times[m])
                     / (fld.times[m + 1] - fld.times[m]), 0.0, 1.0)
    x = np.clip(r / fld.dr, 0.0, fld.r.size - 1 - 1e-12)
    j = np.minimum(x.astype(int), fld.r.size - 2)
    fr = x - j
    m2 = np.minimum(m + 1, fld.times.size - 1)
    lo = table[m, j] * (1.0 - fr) + table[m, j + 1] * fr
    hi = table[m2, j] * (1.0 - fr) + table[m2, j + 1] * fr
    out = lo * (1.0 - th) + hi * th
    return out if out.shape else float(out)


class TestDiscreteJetBitIdentity:
    @staticmethod
    def _field(levels):
        rng = np.random.default_rng(5)
        r = np.linspace(0.0, 2.0, 65)
        times = np.sort(rng.uniform(-1.0, 0.0, levels)) if levels > 1 \
            else np.array([-0.5])
        phi = rng.standard_normal((levels, r.size))
        phit = rng.standard_normal((levels, r.size))
        return DiscreteField(times, r, phi, phit, 3)

    @staticmethod
    def _points(fld):
        rng = np.random.default_rng(11)
        tn = np.concatenate([rng.uniform(fld.times[0], fld.times[-1], 30),
                             fld.times, [fld.times[-1]]])
        R = np.concatenate([rng.uniform(-2.0, 2.0, 40),
                            fld.r[[0, 1, 31, -2, -1]]])[None, :] \
            * np.ones((tn.size, 1))
        T = np.broadcast_to(tn[:, None], R.shape)
        return [(T, R), (float(fld.times[-1]), 2.0), (float(tn[0]), 0.3)]

    @pytest.mark.parametrize("levels", [1, 2, 9])
    def test_jet_and_value_match_per_table_interpolation(self, levels):
        fld = self._field(levels)
        tables = (fld.phi, fld.phi_t,
                  np.vstack([fld.phi_r_level(m) for m in range(levels)]))
        for t, r in self._points(fld):
            for got, table in zip(fld.jet(t, r), tables):
                assert_same_bits(got, _reference_eval(fld, table, t, r))
            assert_same_bits(fld.value(t, r), _reference_eval(fld, fld.phi, t, r))
