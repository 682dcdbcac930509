import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ifmsim import operators
from ifmsim.evolution import closed_form_no_particle
from ifmsim.operators import (
    NOT_B,
    Basis,
    absorption,
    projector,
    rotator2,
    rotator3,
    rotator_eigen,
    rotator_power,
    switching_angle,
)


def _assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))


class TestRotator2:
    def test_zero_angle(self):
        assert np.array_equal(rotator2(0.0), np.eye(2))

    def test_quarter_turn(self):
        assert_allclose(rotator2(np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    def test_action_on_h(self):
        theta = 0.81
        out = rotator2(theta) @ np.array([1.0, 0.0])
        assert_allclose(out, [np.cos(theta), np.sin(theta)], atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            rotator2(np.inf)

    # numpy reads None as NaN; an angle that is not a number is named by its
    # type, as float(None) names it, not reported as a non-finite angle
    @pytest.mark.parametrize(
        "call",
        [
            lambda: rotator2(None),
            lambda: rotator2([0.1, None]),
            lambda: closed_form_no_particle(None, 3),
        ],
        ids=["rotator2", "rotator2-element", "closed_form_no_particle"],
    )
    def test_a_non_number_angle_raises_a_type_error_naming_its_type(self, call):
        with pytest.raises(TypeError, match="not 'NoneType'$"):
            call()


class TestRotatorEigen:
    def test_zero_angle_eigenvalues(self):
        eig = rotator_eigen(0.0)
        assert_allclose(eig.values, [1.0, 1.0], atol=0)

    def test_quarter_turn_eigenvalues(self):
        eig = rotator_eigen(np.pi / 2)
        assert_allclose(eig.values, [-1j, 1j], atol=1e-15)

    def test_pairing_and_unit_norm(self):
        theta = 1.234
        eig = rotator_eigen(theta)
        r = rotator2(theta)
        for k in range(2):
            v = eig.vectors[:, k]
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-13
            assert np.abs(r @ v - eig.values[k] * v).max() <= 1e-13

    def test_phase_convention(self):
        eig = rotator_eigen(0.6)
        first = eig.vectors[0, :]
        assert np.all(first.imag == 0.0)
        assert np.all(first.real > 0.0)

    def test_reconstruction_over_grid(self):
        worst = 0.0
        for theta in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
            eig = rotator_eigen(theta)
            recon = sum(
                eig.values[k] * np.outer(eig.vectors[:, k], eig.vectors[:, k].conj())
                for k in range(2)
            )
            worst = max(worst, np.abs(recon - rotator2(theta)).max())
        assert worst <= 1e-13


class TestRotatorPower:
    def test_zeroth_power(self):
        assert np.array_equal(rotator_power(0.3, 0), np.eye(2))

    def test_switching_walks_h_to_v(self):
        for n in (1, 5, 24, 100):
            out = rotator_power(switching_angle(n), n) @ np.array([1.0, 0.0])
            assert np.abs(out - np.array([0.0, 1.0])).max() <= 1e-12

    def test_matches_iterated_multiplication(self):
        theta = 0.3
        acc = np.eye(2, dtype=complex)
        r1 = rotator2(theta)
        for _ in range(7):
            acc = r1 @ acc
        assert np.abs(rotator_power(theta, 7) - acc).max() <= 1e-12

    def test_power_addition(self):
        rng = np.random.default_rng(6)
        theta = 0.377
        for _ in range(25):
            m, n = int(rng.integers(0, 1001)), int(rng.integers(0, 1001))
            combined = rotator_power(theta, m + n)
            split = rotator_power(theta, m) @ rotator_power(theta, n)
            assert np.abs(combined - split).max() <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            rotator_power(0.3, -1)


class TestRotator3:
    def test_zero_angle(self):
        assert np.array_equal(rotator3(0.0), np.eye(3))

    def test_absorbed_state_untouched(self):
        ket_b = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(rotator3(1.1) @ ket_b, ket_b)

    def test_embeds_rotator2(self):
        theta = 0.52
        assert np.array_equal(rotator3(theta)[:2, :2], rotator2(theta))

    def test_unitarity_random_angles(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(0, 2 * np.pi, 100):
            u = rotator3(theta)
            assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-13


class TestAbsorption:
    def test_zero_is_identity(self):
        assert np.array_equal(absorption(0.0), np.eye(3))

    def test_full_absorption_swaps_v_and_b(self):
        ab = absorption(1.0)
        ket_v = np.array([0.0, 1.0, 0.0])
        ket_b = np.array([0.0, 0.0, 1.0])
        assert_allclose(ab @ ket_v, ket_b, atol=0)
        assert_allclose(ab @ ket_b, -ket_v, atol=0)

    def test_half_absorption_entries(self):
        ab = absorption(0.5)
        root_half = np.sqrt(0.5)
        assert_allclose(ab[1, 1], root_half, atol=0)
        assert_allclose(ab[1, 2], -root_half, atol=0)
        assert_allclose(ab[2, 1], root_half, atol=0)
        assert_allclose(ab[2, 2], root_half, atol=0)

    def test_unitarity_over_grid(self):
        for a in np.linspace(0.0, 1.0, 101):
            ab = absorption(a)
            assert np.abs(ab @ ab.conj().T - np.eye(3)).max() <= 1e-13

    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            absorption(bad)


class TestProjector:
    def test_diagonals(self):
        assert np.array_equal(projector(Basis.H), np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(projector(Basis.V), np.diag([0.0, 1.0, 0.0]))
        assert np.array_equal(projector(Basis.B), np.diag([0.0, 0.0, 1.0]))
        assert np.array_equal(projector(NOT_B), np.diag([1.0, 1.0, 0.0]))

    def test_completeness(self):
        assert np.array_equal(projector(Basis.B) + projector(NOT_B), np.eye(3))

    def test_h_plus_v_is_not_b(self):
        assert np.array_equal(
            projector(Basis.H) + projector(Basis.V), projector(NOT_B)
        )

    def test_idempotence(self):
        for label in (Basis.H, Basis.V, Basis.B, NOT_B):
            p = projector(label)
            assert np.array_equal(p @ p, p)

    def test_mutual_orthogonality(self):
        labels = [Basis.H, Basis.V, Basis.B]
        for x in labels:
            for y in labels:
                if x != y:
                    assert np.array_equal(
                        projector(x) @ projector(y), np.zeros((3, 3))
                    )

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            projector(7)


class TestSwitchingAngle:
    def test_values(self):
        assert switching_angle(1) == np.pi / 2
        assert switching_angle(2) == np.pi / 4
        assert switching_angle(24) == np.pi / 48

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="positive"):
            switching_angle(bad)


class TestStackedConstructors:
    """Array arguments give (..., d, d) stacks, each matrix bit for bit the
    scalar call's, and a bad element raises the scalar message."""

    THETAS = np.random.default_rng(15).uniform(-7.0, 7.0, 24).reshape(4, 6)

    @pytest.mark.parametrize("build", [rotator2, rotator3])
    def test_rotators(self, build):
        out = build(self.THETAS)
        d = build(0.0).shape[-1]
        assert out.shape == (4, 6, d, d)
        for idx in np.ndindex(self.THETAS.shape):
            assert np.array_equal(out[idx], build(float(self.THETAS[idx])))

    def test_absorption(self):
        a = np.concatenate([[0.0, 1e-12, 1.0], np.random.default_rng(16).uniform(0.0, 1.0, 21)])
        out = absorption(a)
        assert out.shape == (24, 3, 3)
        for i, av in enumerate(a):
            assert np.array_equal(out[i], absorption(float(av)))

    def test_rotator_power_with_array_n(self):
        n = np.arange(0, 401)
        out = rotator_power(self.THETAS[0, :, None], n)
        assert out.shape == (6, 401, 2, 2)
        for i, j in np.ndindex(6, 401):
            assert np.array_equal(out[i, j], rotator_power(float(self.THETAS[0, i]), int(n[j])))
        scalar_theta = rotator_power(0.3, n)
        for j in range(401):
            assert np.array_equal(scalar_theta[j], rotator_power(0.3, int(n[j])))

    @pytest.mark.parametrize("bad", [-1, 2.5, np.nan, np.inf])
    def test_rotator_power_rejects_a_bad_n_element(self, bad):
        with pytest.raises(ValueError, match="^n must be a non-negative integer$"):
            rotator_power(0.3, np.array([1.0, 4.0, bad, 7.0]))

    def test_switching_angle_with_array_n(self):
        # counts above 2^53 round to a float on the way in, in both calls alike
        n = np.array([*range(1, 4097), 2**53 + 1, 2**53 + 3, 2**62 + 1, 2**63 - 1])
        expected = [switching_angle(int(k)) for k in n]
        for arg in (n, n.astype(float), n.tolist()):
            out = switching_angle(arg)
            assert out.shape == (4100,)
            _assert_same_bits(out, np.array(expected))
        assert switching_angle(n.reshape(4, 1025)).shape == (4, 1025)

    @pytest.mark.parametrize("n", [24, 24.0, np.int64(24), np.array(24)], ids=repr)
    def test_switching_angle_of_a_scalar_is_a_float(self, n):
        assert type(switching_angle(n)) is float
        assert switching_angle(n) == np.pi / 48

    @pytest.mark.parametrize("bad", [0, -1, 2.5, np.nan, np.inf])
    def test_switching_angle_rejects_a_bad_n_element(self, bad):
        with pytest.raises(ValueError, match="^cycle count must be a positive integer$"):
            switching_angle(np.array([1.0, 4.0, bad, 7.0]))

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan, np.inf], ids=str)
    def test_bad_absorption_element_raises_its_scalar_message(self, bad):
        message = f"absorption probability must be in [0, 1], got {bad!r}"
        for arg in (np.array([0.2, bad, 0.7, -5.0]), bad):
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                absorption(arg)

    EIGEN_THETAS = np.concatenate(
        [[0.0, -0.0, np.pi / 2, np.pi, 1e-300, -1e-300], THETAS.ravel()]
    )

    def test_rotator_eigen_rows_equal_scalar_calls(self):
        eig = rotator_eigen(self.EIGEN_THETAS.reshape(5, 6))
        assert eig.values.shape == (5, 6, 2)
        assert eig.vectors.shape == (5, 6, 2, 2)
        for idx, theta in zip(np.ndindex(5, 6), self.EIGEN_THETAS):
            one = rotator_eigen(float(theta))
            _assert_same_bits(eig.values[idx], one.values)
            _assert_same_bits(eig.vectors[idx], one.vectors)

    @pytest.mark.parametrize("theta", [0.3, np.float64(-0.0), np.array(2.5)], ids=str)
    def test_rotator_eigen_scalar_keeps_its_shapes(self, theta):
        eig = rotator_eigen(theta)
        assert eig.values.shape == (2,)
        assert eig.vectors.shape == (2, 2)
        assert eig.values.flags.writeable and eig.vectors.flags.writeable

    def test_rotator_eigen_arrays_are_fresh(self):
        first, second = rotator_eigen(self.THETAS), rotator_eigen(self.THETAS)
        for arr in (first.values, first.vectors):
            assert arr.flags.writeable
        assert not np.shares_memory(first.vectors, second.vectors)
        first.vectors[..., 1, 0] = 0.0  # writing one result leaves the next call alone
        assert np.array_equal(rotator_eigen(self.THETAS).vectors, second.vectors)

    @pytest.mark.parametrize(
        "build",
        [rotator2, rotator3, lambda t: rotator_power(t, 3), lambda t: rotator_eigen(t).values],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_angle_element_raises_its_scalar_message(self, build, bad):
        thetas = self.THETAS.copy()
        thetas[2, 3] = bad
        for arg in (thetas, bad):
            with pytest.raises(ValueError, match="^angle must be finite$"):
                build(arg)
