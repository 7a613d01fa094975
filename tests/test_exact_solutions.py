import math

import numpy as np
import pytest

from conewave.energetics import annulus_quantity, weighted_ball_quantity, slab_quantity
from conewave.exact_solutions import (
    InitialDataSpec,
    OdeSolution,
    annulus_scaling_constant,
    ball_quantity_ode,
    ode_field,
    slab_scaling_constant,
    smoothstep,
)
from conewave.fields import ArgumentError
from conewave.quadrature import QuadratureSpec
from tests_helpers import write_level

# closed forms frozen from the independent derivation (see oracles below)
ANNULUS_GRAD_N3_P2 = 65.97344572538566
ANNULUS_PHI_N3_P2 = 16.493361431346415
MZ_N3_P2 = 36.839761486073584


class TestOdeSolution:
    def test_p2_values(self):
        sol = OdeSolution(2.0)
        assert (sol.value(-1.0), sol.dvalue(-1.0)) == pytest.approx((6.0, 12.0))

    def test_p3_values(self):
        sol = OdeSolution(3.0)
        assert sol.value(-1.0) == pytest.approx(math.sqrt(2.0))
        assert sol.dvalue(-1.0) == pytest.approx(math.sqrt(2.0))

    def test_decay_at_early_times(self):
        sol = OdeSolution(2.0)
        assert sol.value(-1e6) < 1e-10 and sol.dvalue(-1e6) < 1e-16

    def test_rejects_nonnegative_time(self):
        with pytest.raises(ValueError):
            OdeSolution(2.0).value(0.0)
        with pytest.raises(ValueError):
            OdeSolution(2.0).dvalue(0.0)
        with pytest.raises(ValueError):
            OdeSolution(0.9)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_a_non_finite_exponent(self, p):
        # before: p = inf gave amplitude nan ** 0 = 1 and k = 0
        with pytest.raises(ValueError, match="finite"):
            OdeSolution(p)

    def test_ode_identity_at_random_samples(self):
        # d_tt phi* = |phi*|^{p-1} phi* to 1e-10 relative, 100 samples
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = rng.uniform(1.2, 3.5)
            t = -(10.0 ** rng.uniform(-2, 2))
            sol = OdeSolution(p)
            lhs = -float(ode_field(p).jet(t, 0.0)[3])  # box phi* = -d_tt phi*
            rhs = float(sol.value(t)) ** p
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_printed_constant_without_square_fails_ode(self):
        # regression for the documented misprint: C^{p-1} = 2(p+1)/(p-1)
        # does not satisfy the blow-up ODE (p = 3 check)
        p = 3.0
        k = 2.0 / (p - 1.0)
        C_bad = (2.0 * (p + 1.0) / (p - 1.0)) ** (1.0 / (p - 1.0))
        t = -1.0
        lhs = C_bad * k * (k + 1.0) * (-t) ** (-k - 2.0)
        rhs = (C_bad * (-t) ** (-k)) ** p
        assert abs(lhs - rhs) > 0.1 * abs(rhs)

    def test_threshold_crossing(self):
        sol = OdeSolution(2.0)
        t = sol.threshold_crossing(1e6)
        assert sol.value(t) == pytest.approx(1e6)


class TestScalingConstants:
    def test_annulus_n3_p2(self):
        cg, cp = annulus_scaling_constant(2.0, 3, 0.25, 0.5)
        assert cg == pytest.approx(ANNULUS_GRAD_N3_P2, rel=1e-12)
        assert cp == pytest.approx(ANNULUS_PHI_N3_P2, rel=1e-12)

    def test_empty_annulus(self):
        assert annulus_scaling_constant(2.0, 3, 0.3, 0.3) == (0.0, 0.0)

    def test_annulus_n1(self):
        cg, _ = annulus_scaling_constant(2.0, 1, 0.2, 0.4)
        assert cg == pytest.approx(144.0 * 2.0 * 0.2, rel=1e-12)

    def test_annulus_constancy_by_quadrature(self):
        # oracle: integrate the weighted annulus integrals of phi* at three
        # times; the spread must stay within 0.1% (or the quadrature error)
        field = ode_field(2.0)
        q = QuadratureSpec()
        cg, cp = annulus_scaling_constant(2.0, 3, 0.25, 0.5)
        expected = cg + cp
        for t in (-1.0, -0.1, -0.01):
            [(val, err)] = annulus_quantity(field, 0.25, 0.5, [t], 2.0, 3, q)
            assert val == pytest.approx(expected, rel=max(1e-3, err / expected))

    def test_slab_gamma_to_one_vanishes(self):
        cg, cp = slab_scaling_constant(2.0, 3, 0.25, 1.0 + 1e-12)
        assert cg == pytest.approx(0.0, abs=1e-8)
        assert cp == pytest.approx(0.0, abs=1e-8)

    def test_slab_constancy_by_quadrature(self):
        field = ode_field(2.0)
        q = QuadratureSpec()
        cg, cp = slab_scaling_constant(2.0, 3, 0.25, 1.5)
        expected = cg + cp
        for ts in (-0.8, -0.2):
            (val, err), _ = slab_quantity(field, 0.25, 1.5, ts, 2.0, 3, q)
            assert val == pytest.approx(expected, rel=max(1e-3, err / expected))

    def test_slab_exponent_identity(self):
        # weighted slab integrals of phi* are t-independent exactly when the
        # exponents take the displayed values; verify the algebra by scaling
        p, n = 2.2, 3
        sol = OdeSolution(p)
        k = sol.k
        # grad integrand scales like u^{n - 2k - 2} du over u in the window,
        # so the window integral scales like |t*|^{n - 2k - 1}
        expo_grad = n - 2 * k - 1
        assert -n + 1 + 4.0 / (p - 1.0) + expo_grad == pytest.approx(0.0)
        expo_phi = n - 2 * k + 1
        assert -n - 1 + 4.0 / (p - 1.0) + expo_phi == pytest.approx(0.0)


class TestMzQuantity:
    def test_frozen_value(self):
        assert ball_quantity_ode(2.0, 3) == pytest.approx(MZ_N3_P2, rel=1e-12)

    def test_t_independent_by_quadrature(self):
        field = ode_field(2.0)
        q = QuadratureSpec()
        for t in (-0.5, -0.1, -0.02):
            [(val, err)] = weighted_ball_quantity(field, [t], 2.0, 3, q)
            assert val == pytest.approx(MZ_N3_P2, rel=1e-6 + err)

    def test_gradient_term_contributes_zero(self):
        # spatial homogeneity: quantity equals the two t-derivative terms
        sol = OdeSolution(2.0)
        from conewave.quadrature import ball_volume
        expected = sol.amplitude * (1 + sol.k) * math.sqrt(ball_volume(3))
        assert ball_quantity_ode(2.0, 3) == pytest.approx(expected)

    def test_exact_self_similarity(self):
        # the three terms from the closed form of phi* at each t: phi* and
        # d_t phi* are constant on B(0, -t), and d_r phi* vanishes
        from conewave.quadrature import ball_volume

        sol, n, k = OdeSolution(2.0), 3, OdeSolution(2.0).k
        for t in (-0.4, -0.2, -0.01):
            root_vol = math.sqrt(ball_volume(n) * (-t) ** n)
            val = ((-t) ** (k - 0.5 * n) * sol.value(t) * root_vol
                   + (-t) ** (k + 1.0 - 0.5 * n) * sol.dvalue(t) * root_vol)
            assert val == pytest.approx(ball_quantity_ode(2.0, n), rel=1e-13)


class TestInitialData:
    def test_truncated_profile(self):
        data = InitialDataSpec.truncated_ode(2.0, 0.25, p=2.0)
        r = np.array([0.0, 1.0, 2.0, 2.125, 2.25, 3.0])
        phi, phit = data.evaluate(-1.0, r)
        assert phi[0] == phi[1] == phi[2] == 6.0
        assert 0.0 < phi[3] < 6.0
        assert phi[4] == phi[5] == 0.0
        assert phit[0] == 12.0 and phit[5] == 0.0

    def test_second_differences_bounded_uniformly(self):
        # C^2 join: second radial differences stay bounded as the grid
        # refines, for every ramp width in [0.05, 0.5]
        for w in (0.05, 0.1, 0.25, 0.5):
            data = InitialDataSpec.truncated_ode(2.0, w, p=2.0)
            caps = []
            for h in (1e-3, 1e-4):
                r = np.arange(1.8 / h, 2.6 / h) * h
                phi, _ = data.evaluate(-1.0, r)
                d2 = np.abs(np.diff(phi, 2)) / h ** 2
                caps.append(d2.max())
            assert caps[1] <= 1.05 * caps[0] + 1e-9

    def test_gaussian_compact_support(self):
        data = InitialDataSpec.gaussian(1e-3, 0.5)
        r = np.array([2.9, 3.0, 3.5])
        phi, phit = data.evaluate(1.0, r)
        assert phi[1] == 0.0 and phi[2] == 0.0
        assert np.all(phit == 0.0)
        assert data.support_radius == 3.0

    def test_file_data_has_no_known_support(self):
        # before: support_radius raised ValueError
        assert InitialDataSpec.file("snap.dat").support_radius is None

    @pytest.mark.parametrize("M,w", [(math.inf, 0.25), (2.0, math.inf)])
    def test_a_non_finite_truncation_is_refused(self, M, w):
        # before: accepted, and M = inf evaluated the untruncated ODE data
        with pytest.raises(ValueError, match="needs finite M > 0 and w > 0"):
            InitialDataSpec.truncated_ode(M, w)

    @pytest.mark.parametrize("M,w", [(1e308, 0.25), (2.0, 1e-310)])
    def test_a_ramp_quotient_past_the_float_range_is_clipped(self, M, w):
        # before: `overflow encountered in divide`; the +-inf quotient is
        # the limit smoothstep clips, so the ramp is exact
        r = np.array([0.0, 1.0, 2.0, 3.0])
        phi, _ = InitialDataSpec.truncated_ode(M, w).evaluate(-1.0, r)
        assert phi.tolist() == [6.0, 6.0, 6.0, 6.0 if M > 3.0 else 0.0]

    @pytest.mark.parametrize("amplitude", [math.inf, -math.inf])
    def test_a_non_finite_gaussian_amplitude_is_refused(self, amplitude):
        # before: accepted, and evaluate gave nan at r >= 6 s (inf * 0)
        with pytest.raises(ValueError, match="amplitude must be finite"):
            InitialDataSpec.gaussian(amplitude, 0.5)

    @pytest.mark.parametrize("width", [math.nan, 1e-200, 1e300])
    def test_a_gaussian_width_without_a_finite_nonzero_square_is_refused(
            self, width):
        # before: accepted; nan gave nan data, and the square 2 width^2 of
        # 1e-200 underflows to 0 (nan at r = 0) and of 1e300 overflows
        with pytest.raises(ArgumentError) as err:
            InitialDataSpec.gaussian(1.0, width)
        assert err.value.names == ("width",)

    def test_a_gaussian_past_the_float_range_is_zero_without_a_warning(self):
        # before: `overflow encountered in multiply` from r * r, and with
        # the quotient (r - 5 s)/s also `in scalar divide`
        phi, _ = InitialDataSpec.gaussian(1e-3, 1e-150).evaluate(
            0.0, np.array([0.0, 1e-151, 1e200, 1e300]))
        assert phi[0] == 1e-3 and 0.0 < phi[1] < 1e-3
        assert phi[2:].tolist() == [0.0, 0.0]

    def test_file_round_trip(self, tmp_path):
        r = np.linspace(0, 2, 33)
        path = write_level(tmp_path, 3, 2.0, -1.0, r, np.sin(r), np.cos(r))
        data = InitialDataSpec.file(str(path))
        phi, phit = data.evaluate(-1.0, r)
        np.testing.assert_allclose(phi, np.sin(r))
        with pytest.raises(ValueError):
            data.evaluate(0.0, r)  # wrong start time

    def test_smoothstep_endpoints(self):
        assert smoothstep(-1.0) == 0.0
        assert smoothstep(2.0) == 1.0
        assert smoothstep(0.5) == pytest.approx(0.5)
