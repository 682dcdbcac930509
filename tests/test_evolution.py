import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ifmsim import linalg, sweep
from ifmsim.evolution import (
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    CycleConfig,
    ParticleModel,
    Probabilities,
    _evolve_one,
    _evolve_stack,
    closed_form_no_particle,
    closed_form_perfect_absorber,
    evolve,
    initial_state,
    kraus_operators,
    probabilities,
    step_coherent,
    step_collapse,
)
from ifmsim.operators import rotator3, switching_angle


def _rho_b():
    rho = np.zeros((3, 3), dtype=complex)
    rho[2, 2] = 1.0
    return rho


class TestCycleConfig:
    def test_accepts_model_strings(self):
        cfg = CycleConfig(model="collapse", a=0.5, n=3)
        assert cfg.model is ParticleModel.COLLAPSE

    def test_auto_theta(self):
        cfg = CycleConfig(model="coherent", a=1.0, n=24)
        assert cfg.resolved_theta() == math.pi / 48

    def test_explicit_theta(self):
        cfg = CycleConfig(model="coherent", a=1.0, n=24, theta=0.25)
        assert cfg.resolved_theta() == 0.25

    def test_absent_forces_zero_absorption(self):
        assert CycleConfig(model="absent", a=0.7, n=5).a == 0.0

    @pytest.mark.parametrize("bad_n", [0, -1])
    def test_rejects_bad_cycle_count(self, bad_n):
        with pytest.raises(ValueError, match="positive"):
            CycleConfig(model="coherent", a=0.5, n=bad_n)

    @pytest.mark.parametrize("bad_a", [-0.01, 1.01, np.nan])
    def test_rejects_bad_absorption(self, bad_a):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CycleConfig(model="coherent", a=bad_a, n=1)

    def test_rejects_nonfinite_theta(self):
        with pytest.raises(ValueError, match="finite"):
            CycleConfig(model="coherent", a=0.5, n=1, theta=np.inf)


class TestInitialState:
    def test_is_h_projector(self):
        assert np.array_equal(initial_state(), np.diag([1.0, 0.0, 0.0]))

    def test_probabilities(self):
        assert probabilities(initial_state()) == Probabilities(1.0, 0.0, 0.0)


class TestStepCoherent:
    def test_half_half_split_at_full_absorption(self):
        # one cycle from |H><H| at theta=pi/4, a=1: the rotation moves half
        # the population onto V, full absorption converts it to B
        out = step_coherent(initial_state(), np.pi / 4, 1.0)
        assert_allclose(out, np.diag([0.5, 0.0, 0.5]), atol=1e-15)

    def test_zero_absorption_is_unitary_conjugation(self, make_state):
        theta = 0.83
        u = rotator3(theta)
        for _ in range(10):
            rho = make_state()
            # restrict to a B-free input: zero the third row and column
            rho[2, :] = 0.0
            rho[:, 2] = 0.0
            rho /= np.trace(rho).real
            expected = u @ rho @ u.conj().T
            assert np.abs(step_coherent(rho, theta, 0.0) - expected).max() <= 1e-15

    def test_absorbed_state_is_exact_fixed_point(self):
        for theta, a in [(0.0, 0.0), (0.9, 0.4), (np.pi / 2, 1.0)]:
            assert np.array_equal(step_coherent(_rho_b(), theta, a), _rho_b())

    def test_rejects_invalid_states(self):
        with pytest.raises(ValueError, match="3x3"):
            step_coherent(np.eye(2), 0.1, 0.5)
        with pytest.raises(ValueError, match="Hermitian"):
            bad = initial_state()
            bad[0, 1] = 0.5
            step_coherent(bad, 0.1, 0.5)
        with pytest.raises(ValueError, match="trace"):
            step_coherent(2.0 * initial_state(), 0.1, 0.5)
        with pytest.raises(ValueError, match="positive semidefinite"):
            step_coherent(np.diag([2.0, 0.0, -1.0]).astype(complex), 0.1, 0.5)

    def test_rejects_bad_absorption(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            step_coherent(initial_state(), 0.1, 1.5)

    def test_dephasing_zeroes_cross_block_coherences(self, make_state):
        out = step_coherent(make_state(), 0.7, 0.3)
        assert np.all(out[2, :2] == 0.0)
        assert np.all(out[:2, 2] == 0.0)


class TestStepCollapse:
    def test_rejects_bad_absorption(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            step_collapse(initial_state(), 0.1, -0.5)

    def test_absorbed_state_is_exact_fixed_point(self):
        for theta, a in [(0.0, 0.0), (0.9, 0.4), (np.pi / 2, 1.0)]:
            assert np.array_equal(step_collapse(_rho_b(), theta, a), _rho_b())

    def test_matches_coherent_at_zero(self, make_state):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rho = make_state()
            theta = rng.uniform(0, np.pi)
            gap = np.abs(
                step_collapse(rho, theta, 0.0) - step_coherent(rho, theta, 0.0)
            ).max()
            assert gap <= 1e-13

    def test_matches_coherent_at_one(self, make_state):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rho = make_state()
            theta = rng.uniform(0, np.pi)
            gap = np.abs(
                step_collapse(rho, theta, 1.0) - step_coherent(rho, theta, 1.0)
            ).max()
            assert gap <= 1e-12


def _perturbed(i, j, value, base=None):
    rho = initial_state() if base is None else np.array(base, dtype=complex)
    rho[i, j] = value
    return rho


# One input per validity check of the step kernels, in the order they run,
# with the message each must raise; the last two fail two checks at once and
# must report the earlier one.
INVALID_STATES = {
    "shape": (np.eye(2), "expected a 3x3 density matrix, got shape (2, 2)"),
    "finite": (_perturbed(1, 1, np.nan), "density matrix entries must be finite"),
    "hermitian": (_perturbed(0, 1, 1.5 * HERMITICITY_TOL), "density matrix must be Hermitian"),
    "trace-real": (
        _perturbed(0, 0, 1.0 + 2.0 * TRACE_TOL),
        "density matrix must have unit trace",
    ),
    "trace-imaginary": (
        np.diag([1.0, 0.0, 0.0]) + 0.4j * HERMITICITY_TOL * np.eye(3),
        "density matrix must have unit trace",
    ),
    "psd": (
        np.diag([1.0 + 2.0 * PSD_TOL, 0.0, -2.0 * PSD_TOL]),
        "density matrix must be positive semidefinite",
    ),
    "shape-before-finite": (np.full((2, 2), np.nan), "expected a 3x3 density matrix"),
    "hermitian-before-trace": (
        _perturbed(0, 1, 0.5, base=2.0 * initial_state()),
        "density matrix must be Hermitian",
    ),
}


class TestStateValidation:
    @pytest.mark.parametrize("step", [step_coherent, step_collapse], ids=["coherent", "collapse"])
    @pytest.mark.parametrize("case", list(INVALID_STATES))
    def test_rejects_each_invalid_input(self, step, case):
        rho, message = INVALID_STATES[case]
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            step(rho, 0.1, 0.5)

    @pytest.mark.parametrize("step", [step_coherent, step_collapse], ids=["coherent", "collapse"])
    def test_accepts_deviations_within_tolerance(self, step):
        for rho in (
            _perturbed(0, 1, 0.5 * HERMITICITY_TOL),
            np.diag([1.0 + 0.5 * PSD_TOL, 0.0, -0.5 * PSD_TOL]),
        ):
            out = step(rho, 0.1, 0.5)
            assert out.shape == (3, 3)


STEPS = pytest.mark.parametrize(
    "step", [step_coherent, step_collapse], ids=["coherent", "collapse"]
)


class TestStackedSteps:
    """The step kernels on (..., 3, 3) stacks: every output matrix is bit for
    bit the step of that matrix alone, and a bad element anywhere in a stack
    raises what it raises alone."""

    @staticmethod
    def _grid(make_state, k=40):
        rng = np.random.default_rng(14)
        rho = np.array([make_state() for _ in range(k)])
        rho[::5] = _rho_b()
        theta = rng.uniform(-7.0, 7.0, k)
        a = rng.uniform(0.0, 1.0, k)
        a[:12] = np.resize([0.0, 1e-12, 1.0], 12)
        return rho, theta, a

    @STEPS
    def test_rows_equal_single_steps(self, step, make_state):
        rho, theta, a = self._grid(make_state)
        out = step(rho, theta, a)
        assert out.shape == rho.shape
        for i in range(len(rho)):
            assert np.array_equal(out[i], step(rho[i], theta[i], a[i]))

    @STEPS
    def test_scalar_parameters_broadcast_over_the_stack(self, step, make_state):
        rho, theta, a = self._grid(make_state)
        for t, av in ((0.7, 0.3), (theta, 0.0), (0.7, a), (np.float64(0.7), 1.0)):
            out = step(rho, t, av)
            tb, ab = np.broadcast_to(t, len(rho)), np.broadcast_to(av, len(rho))
            for i in range(len(rho)):
                assert np.array_equal(out[i], step(rho[i], tb[i], ab[i]))

    @STEPS
    def test_one_state_broadcasts_over_parameters(self, step, make_state):
        rho, theta, a = self._grid(make_state)
        out = step(rho[1], theta.reshape(4, 10), a.reshape(4, 10))
        assert out.shape == (4, 10, 3, 3)
        for i, j in np.ndindex(4, 10):
            assert np.array_equal(out[i, j], step(rho[1], theta[10 * i + j], a[10 * i + j]))

    @STEPS
    @pytest.mark.parametrize("case", list(INVALID_STATES))
    def test_invalid_state_inside_a_stack(self, step, case, make_state):
        bad, message = INVALID_STATES[case]
        if np.shape(bad) == (3, 3):
            stack = np.array([make_state() for _ in range(5)])
            stack[3] = bad
        else:
            # a matrix of another shape cannot sit among 3x3 states
            stack = np.array([bad, bad])
            message = f"expected a 3x3 density matrix, got shape {stack.shape}"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            step(stack, 0.1, 0.5)

    @STEPS
    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf], ids=str)
    def test_bad_absorption_element_raises_its_scalar_message(self, step, bad, make_state):
        rho, theta, a = self._grid(make_state)
        a[7], a[30] = bad, 2.0
        message = f"absorption probability must be in [0, 1], got {bad!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            step(rho, theta, a)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            step(rho[7], theta[7], bad)

    @STEPS
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_angle_element_raises_its_scalar_message(self, step, bad, make_state):
        rho, theta, a = self._grid(make_state)
        theta[19] = bad
        for args in ((rho, theta, a), (rho[19], bad, a[19])):
            with pytest.raises(ValueError, match="^angle must be finite$"):
                step(*args)


class TestChannelProperties:
    def test_trace_hermiticity_psd_preserved(self, make_state):
        rng = np.random.default_rng(10)
        for _ in range(200):
            rho = make_state()
            theta, a = rng.uniform(0, np.pi), rng.uniform(0, 1)
            for step in (step_coherent, step_collapse):
                out = step(rho, theta, a)
                assert abs(np.trace(out) - np.trace(rho)) <= 1e-13
                assert np.abs(out - out.conj().T).max() <= 1e-12
                assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_absorbed_population_never_decreases(self, make_state):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = make_state()
            theta, a = rng.uniform(0, np.pi), rng.uniform(0, 1)
            for step in (step_coherent, step_collapse):
                out = step(rho, theta, a)
                assert out[2, 2].real >= rho[2, 2].real - 1e-13


class TestKrausOperators:
    @pytest.mark.parametrize("model", [ParticleModel.COHERENT, ParticleModel.COLLAPSE])
    def test_completeness(self, model):
        rng = np.random.default_rng(12)
        for _ in range(25):
            theta, a = rng.uniform(0, np.pi), rng.uniform(0, 1)
            total = sum(k.conj().T @ k for k in kraus_operators(model, theta, a))
            assert np.abs(total - np.eye(3)).max() <= 1e-13

    def test_absent_equals_coherent_at_zero(self):
        for ka, kc in zip(
            kraus_operators(ParticleModel.ABSENT, 0.4, 0.9),
            kraus_operators(ParticleModel.COHERENT, 0.4, 0.0),
        ):
            assert np.array_equal(ka, kc)

    def test_absent_checks_absorption_like_cycle_config(self):
        message = "absorption probability must be in [0, 1], got 5.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            CycleConfig(model="absent", a=5.0, n=3)
        with pytest.raises(ValueError, match=re.escape(message)):
            kraus_operators("absent", 0.3, 5.0)

    @pytest.mark.parametrize("model", [ParticleModel.COHERENT, ParticleModel.COLLAPSE])
    def test_steps_equal_generic_kraus_application(self, model, make_state):
        rng = np.random.default_rng(13)
        step = step_coherent if model is ParticleModel.COHERENT else step_collapse
        for _ in range(30):
            rho = make_state()
            theta, a = rng.uniform(0, np.pi), rng.uniform(0, 1)
            ks = kraus_operators(model, theta, a)
            generic = sum(k @ rho @ k.conj().T for k in ks)
            assert np.abs(step(rho, theta, a) - generic).max() <= 1e-14


class TestStackedKraus:
    """`kraus_operators` on arrays: every operator is a (..., 3, 3) stack whose
    matrices are bit for bit the scalar call's, and a scalar call keeps its
    (3, 3) shapes; every array returned is fresh and writable."""

    THETAS = np.concatenate(
        [
            [0.0, -0.0, np.pi / 2, np.pi, 1e-300, -1e-300, 0.4, 1.1],
            np.random.default_rng(17).uniform(-7.0, 7.0, 32),
        ]
    )
    AS = np.concatenate(
        [
            [0.0, 1.0, 1e-12, 1.0 - 1e-16, 0.0, 1.0, 1e-12, 1.0 - 1e-16],
            np.random.default_rng(18).uniform(0.0, 1.0, 32),
        ]
    )

    @pytest.mark.parametrize("model", list(ParticleModel), ids=str)
    def test_rows_equal_scalar_calls(self, model):
        ks = kraus_operators(model, self.THETAS.reshape(5, 8), self.AS.reshape(5, 8))
        for idx, theta, a in zip(np.ndindex(5, 8), self.THETAS, self.AS):
            single = kraus_operators(model, float(theta), float(a))
            assert len(ks) == len(single)
            for k, one in zip(ks, single):
                assert k.shape == (5, 8, 3, 3)
                _assert_same_bits(k[idx], one, (model, theta, a))

    @pytest.mark.parametrize("model", list(ParticleModel), ids=str)
    def test_parameters_broadcast(self, model):
        theta, a = self.THETAS[:6, None], self.AS[None, 8:12]
        for t, av, shape in ((theta, a, (6, 4)), (theta, 0.3, (6, 1)), (0.7, a, (1, 4))):
            ks = kraus_operators(model, t, av)
            tb, ab = np.broadcast_arrays(t, av)
            for k_i, k in enumerate(ks):
                assert k.shape == shape + (3, 3)
                for idx in np.ndindex(shape):
                    one = kraus_operators(model, float(tb[idx]), float(ab[idx]))[k_i]
                    _assert_same_bits(k[idx], one, (model, idx))

    @pytest.mark.parametrize("model", list(ParticleModel), ids=str)
    @pytest.mark.parametrize(
        "theta,a", [(0.4, 0.3), (np.float64(0.4), np.array(0.3)), (THETAS[:7], AS[:7])], ids=str
    )
    def test_arrays_are_fresh_and_writable(self, model, theta, a):
        ks = kraus_operators(model, theta, a)
        for k in ks:
            assert k.shape == np.shape(theta) + (3, 3)
            assert k.flags.writeable
        for i, j in itertools.combinations(range(len(ks)), 2):
            assert not np.shares_memory(ks[i], ks[j])
        again = kraus_operators(model, theta, a)
        for k in ks:
            k[...] = np.nan  # writing one result leaves the next call alone
        for k, fresh in zip(kraus_operators(model, theta, a), again):
            assert np.array_equal(k, fresh)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan, math.inf], ids=str)
    def test_bad_absorption_element_raises_its_scalar_message(self, bad):
        a = self.AS.copy()
        a[9], a[20] = bad, 2.0
        message = f"absorption probability must be in [0, 1], got {bad!r}"
        for model in ParticleModel:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                kraus_operators(model, self.THETAS, a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=str)
    def test_non_finite_angle_element_raises_its_scalar_message(self, bad):
        theta = self.THETAS.copy()
        theta[11] = bad
        for model in ParticleModel:
            with pytest.raises(ValueError, match="^angle must be finite$"):
                kraus_operators(model, theta, self.AS)


class TestEvolve:
    def test_absent_switches_to_v(self):
        for n in (1, 10, 100):
            probs, _ = evolve(CycleConfig(model="absent", a=0.0, n=n))
            assert abs(probs.p_v - 1.0) <= 1e-10
            assert probs.p_b == 0.0

    def test_bomb_survival_closed_form(self):
        for n in (1, 24, 100):
            cfg = CycleConfig(model="coherent", a=1.0, n=n)
            probs, _ = evolve(cfg)
            expected = closed_form_perfect_absorber(cfg.resolved_theta(), n)
            assert np.abs(np.asarray(probs) - np.asarray(expected)).max() <= 1e-12

    def test_quarter_turn_explosion(self):
        probs, _ = evolve(CycleConfig(model="coherent", a=1.0, n=1, theta=np.pi / 2))
        assert_allclose(np.asarray(probs), [0.0, 0.0, 1.0], atol=1e-12)

    def test_returns_probabilities_and_state(self):
        probs, rho = evolve(CycleConfig(model="collapse", a=0.5, n=5))
        assert isinstance(probs, Probabilities)
        assert rho.shape == (3, 3)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    def test_probability_sum_over_parameter_grid(self):
        for model in ParticleModel:
            for a in (0.0, 0.3, 1.0):
                for n in (1, 13, 77):
                    probs, _ = evolve(CycleConfig(model=model, a=a, n=n))
                    assert abs(sum(probs) - 1.0) <= 1e-10


class TestEngineMatchesReferenceSteps:
    """evolve against step_coherent / step_collapse iterated from |H><H|."""

    ABSORPTIONS = (0.0, 1e-12, 1e-6, 0.3, 0.5, 0.99, 1.0)
    CHECKPOINTS = (1, 2, 24, 137, 1000)

    @staticmethod
    def _assert_matches(cfg, reference):
        _, rho = evolve(cfg)
        assert rho.shape == (3, 3) and rho.dtype == complex
        assert np.abs(rho - reference).max() <= 1e-12, cfg
        assert linalg.is_hermitian(rho, HERMITICITY_TOL)
        assert abs(np.trace(rho) - 1.0) <= TRACE_TOL
        assert linalg.is_psd(rho, PSD_TOL)

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_grid(self, model):
        step = step_collapse if model is ParticleModel.COLLAPSE else step_coherent
        absorptions = (0.0,) if model is ParticleModel.ABSENT else self.ABSORPTIONS
        for a in absorptions:
            # explicit theta: one reference run, compared at each checkpoint
            for theta in (0.3, 2.5):
                rho = initial_state()
                for n in range(1, self.CHECKPOINTS[-1] + 1):
                    rho = step(rho, theta, a)
                    if n in self.CHECKPOINTS:
                        cfg = CycleConfig(model=model, a=a, n=n, theta=theta)
                        self._assert_matches(cfg, rho)
            # auto theta changes with n, so each n gets its own reference run
            for n in self.CHECKPOINTS[:-1]:
                cfg = CycleConfig(model=model, a=a, n=n)
                rho = initial_state()
                for _ in range(n):
                    rho = step(rho, cfg.resolved_theta(), a)
                self._assert_matches(cfg, rho)


def _reference(mpmath, model, theta, a, n):
    """(p_h, p_v, p_b) after n cycles: T**n e_1 by binary powering at 50 digits."""
    with mpmath.workdps(50):
        t, a = mpmath.mpf(theta), mpmath.mpf(a)
        cos, sin, keep = mpmath.cos(t), mpmath.sin(t), 1 - a
        q = keep if model is ParticleModel.COLLAPSE else mpmath.sqrt(keep)
        cc, ss, cs = cos * cos, sin * sin, cos * sin
        power = mpmath.matrix(
            [
                [cc, -2 * cs, ss, 0],
                [q * cs, q * (cc - ss), -q * cs, 0],
                [keep * ss, 2 * keep * cs, keep * cc, 0],
                [a * ss, 2 * a * cs, a * cc, 1],
            ]
        )
        state = mpmath.matrix([1, 0, 0, 0])
        while n:
            if n & 1:
                state = power * state
            n >>= 1
            if n:
                power = power * power
        return state[0], state[2], state[3]


class TestEngineAccuracy:
    """The engine against a 50-digit reference, and its rows at cycle counts up to 1e12."""

    MODELS = (ParticleModel.COHERENT, ParticleModel.COLLAPSE)
    ABSORPTIONS = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0)
    COUNTS = (24, 100, 10**3, 10**4, 10**6, 10**8)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
    def test_auto_theta_grid_against_high_precision(self, model):
        mpmath = pytest.importorskip("mpmath")
        for a in self.ABSORPTIONS:
            for n in self.COUNTS:
                cfg = CycleConfig(model=model, a=a, n=n)
                probs, _ = evolve(cfg)
                exact = _reference(mpmath, model, cfg.resolved_theta(), a, n)
                for name, p, e in zip(Probabilities._fields, probs, exact):
                    err = abs(mpmath.mpf(p) - e)
                    assert err <= 2e-15, (name, a, n, float(err))
                    if name != "p_h" and e != 0:
                        assert err <= 4e-15 * abs(e), (name, a, n, float(err / e))

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_auto_theta_rows_up_to_1e12(self, model):
        counts = [10**k for k in range(1, 13)] + [2**40 - 1]
        for a in (0.0, 1e-12, 1e-6, 0.5, 1.0 - 1e-9, 1.0):
            records = sweep._Sweep([a], counts, model, None).records()
            for n, record in zip(counts, records):
                probs = (record.p_h, record.p_v, record.p_b)
                assert all(0.0 <= p <= 1.0 + 2**-52 for p in probs), (a, n, probs)
                assert abs(sum(probs) - 1.0) <= sweep._SUM_TOL
                assert probs == tuple(evolve(CycleConfig(model=model, a=a, n=n))[0])


def _assert_same_bits(row, expected, context):
    assert np.array_equal(row, expected), context
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(row)), np.signbit(part(expected))), context


class TestStackedEngine:
    """Each row of the stacked driver equals the float driver on its own config, bit for bit."""

    ABSORPTIONS = (0.0, 1e-12, 0.3, 0.5, 1.0 - 1e-9, 1.0)
    THETAS = (None, 0.3, 2.5, -2.5)
    # one bit, all bits and mixed bits set, from a single level to ten
    COUNTS = (1, 2, 3, 4, 5, 7, 8, 16, 17, 250, 1000)

    def _assert_rows_are_single(self, model, thetas, ns, rows):
        assert rows.shape == (4, len(ns), len(self.ABSORPTIONS))
        for g, (t, n) in enumerate(zip(thetas, ns)):
            for k, a in enumerate(self.ABSORPTIONS):
                single = _evolve_one(model, t, a, n)
                assert all(type(x) is float for x in single)
                _assert_same_bits(rows[:, g, k], np.array(single), (a, t, n))

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_rows_equal_single_configs(self, model):
        for theta in self.THETAS:
            for n in self.COUNTS:
                t = switching_angle(n) if theta is None else theta
                rows = _evolve_stack(model, (t,), self.ABSORPTIONS, (n,))
                self._assert_rows_are_single(model, (t,), (n,), rows)

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_shuffled_mixed_counts_in_one_call(self, model):
        groups = [
            (switching_angle(n) if theta is None else theta, n)
            for n in self.COUNTS
            for theta in self.THETAS
        ]
        np.random.default_rng(12).shuffle(groups)
        thetas, ns = zip(*groups)
        rows = _evolve_stack(model, thetas, self.ABSORPTIONS, ns)
        self._assert_rows_are_single(model, thetas, ns, rows)

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_counts_beyond_int64(self, model):
        n = 2**70 + 3
        rows = _evolve_stack(model, (1e-22,), self.ABSORPTIONS, (n,))
        self._assert_rows_are_single(model, (1e-22,), (n,), rows)

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_count_past_int64_among_small_counts(self, model):
        # np.array(ns) is float64 here, which cannot hold 2**63 + 5: a count
        # array for the bit planes must not come from numpy's inference
        thetas, ns = (0.3, 1e-20, 2.5), (1, 2**63 + 5, 3)
        rows = _evolve_stack(model, thetas, self.ABSORPTIONS, ns)
        self._assert_rows_are_single(model, thetas, ns, rows)

    def test_groups_past_their_top_bit_raise_no_warning(self):
        # Rows near theta = pi/2 with small counts are squared on for the
        # 2**70 + 3 row's 71 levels; their deviations overflow there.
        half = math.pi / 2
        thetas = (half, 1e-22, half - 1e-9, half + 1e-7, 0.3)
        ns = (1, 2**70 + 3, 3, 2, 17)
        for model in ParticleModel:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = _evolve_stack(model, thetas, self.ABSORPTIONS, ns)
            assert np.isfinite(rows).all()
            self._assert_rows_are_single(model, thetas, ns, rows)

    def test_evolve_reads_the_engine_row(self):
        cfg = CycleConfig(model="collapse", a=0.3, n=17, theta=2.5)
        h, c, v, b = _evolve_one(cfg.model, 2.5, 0.3, 17)
        probs, rho = evolve(cfg)
        assert tuple(probs) == (h, v, b)
        assert (rho[0, 0], rho[0, 1], rho[1, 0], rho[1, 1], rho[2, 2]) == (h, c, c, v, b)


class TestProbabilities:
    def test_mixed_state(self):
        rho = np.diag([0.5, 0.0, 0.5]).astype(complex)
        assert probabilities(rho) == Probabilities(0.5, 0.0, 0.5)

    def test_clamps_negative_dust(self):
        rho = np.diag([1.0, -1e-13, 1e-13]).astype(complex)
        probs = probabilities(rho)
        assert probs.p_v == 0.0
        assert probs.p_b == 1e-13

    def test_leaves_real_violations_visible(self):
        rho = np.diag([1.0, -1e-11, 1e-11]).astype(complex)
        assert probabilities(rho).p_v == -1e-11

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            probabilities(np.eye(2))


class TestClosedForms:
    def test_no_particle_trivial(self):
        assert closed_form_no_particle(0.7, 0) == Probabilities(1.0, 0.0, 0.0)

    def test_no_particle_switch(self):
        probs = closed_form_no_particle(np.pi / 48, 24)
        assert abs(probs.p_v - 1.0) <= 1e-12

    def test_perfect_absorber_trivial(self):
        assert closed_form_perfect_absorber(0.7, 0) == Probabilities(1.0, 0.0, 0.0)

    def test_perfect_absorber_below_ten_percent(self):
        probs = closed_form_perfect_absorber(np.pi / 48, 24)
        assert 0.0 < probs.p_b < 0.10

    def test_no_particle_matches_evolution(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            theta = float(rng.uniform(0.0, np.pi))
            n = int(rng.integers(1, 200))
            probs, _ = evolve(CycleConfig(model="absent", a=0.0, n=n, theta=theta))
            expected = closed_form_no_particle(theta, n)
            assert np.abs(np.asarray(probs) - np.asarray(expected)).max() <= 1e-10

    def test_perfect_absorber_matches_evolution(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            theta = float(rng.uniform(0.0, np.pi))
            n = int(rng.integers(1, 200))
            probs, _ = evolve(CycleConfig(model="coherent", a=1.0, n=n, theta=theta))
            expected = closed_form_perfect_absorber(theta, n)
            assert np.abs(np.asarray(probs) - np.asarray(expected)).max() <= 1e-12

    def test_no_particle_angle_beyond_the_float_range_names_the_limit(self):
        limit = (
            "accumulated angle n*theta must be no larger in magnitude than "
            "1.7976931348623157e+308"
        )
        for theta in (7.0, -7.0):
            with pytest.raises(ValueError, match="^" + re.escape(limit) + "$"):
                closed_form_no_particle(theta, int(sys.float_info.max))
        assert closed_form_no_particle(0.3, int(sys.float_info.max)).p_b == 0.0

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("fn", [closed_form_no_particle, closed_form_perfect_absorber])
    def test_rejects_non_finite_theta(self, fn, theta):
        with pytest.raises(ValueError, match="^angle must be finite$"):
            fn(theta, 3)

    @pytest.mark.parametrize("fn", [closed_form_no_particle, closed_form_perfect_absorber])
    def test_rejects_negative_n(self, fn):
        with pytest.raises(ValueError, match="non-negative"):
            fn(0.3, -1)
