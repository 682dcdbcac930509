import dataclasses
import json
import math

import numpy as np
import pytest

import ifmsim.operators
from ifmsim import evolution, linalg, oracle, sweep, verify
from ifmsim.verify import CheckResult, render_report, run_checks

EXPECTED_NAMES = [
    "operator-unitarity",
    "projector-algebra",
    "rotator-closed-form",
    "kraus-completeness",
    "trace-preservation",
    "positivity-preservation",
    "absorbed-state-fixed-point",
    "absorbed-population-monotone",
    "limiting-closed-forms",
    "perfect-switching",
    "model-equivalence-extremes",
    "oracle-concordance",
]

PINNED_REPORT = (
    "PASS operator-unitarity: max |U U^+ - I| = 2.220e-16 (tol 1e-13)\n"
    "PASS projector-algebra: completeness, idempotence, orthogonality exact\n"
    "PASS rotator-closed-form: power dev 7.711e-14 (tol 1e-12), "
    "eigen reconstruction dev 2.220e-16 (tol 1e-13)\n"
    "PASS kraus-completeness: max |sum K^+K - I| = 4.441e-16 (tol 1e-13)\n"
    "PASS trace-preservation: max trace drift 3.331e-16 (tol 1e-13)\n"
    "PASS positivity-preservation: max hermiticity dev 8.680e-17 (tol 1e-12), "
    "min eigenvalue 6.694e-04 (floor -1e-10)\n"
    "PASS absorbed-state-fixed-point: |B><B| invariant exactly, both models\n"
    "PASS absorbed-population-monotone: max decrease 0.000e+00 (tol 1e-13)\n"
    "PASS limiting-closed-forms: max closed-form deviation 9.798e-15 over N = 1..100 (tol 1e-10)\n"
    "PASS perfect-switching: min p_v = 1.000000000000 over N = 1..100 with auto theta (needs >= 1-1e-10)\n"
    "PASS model-equivalence-extremes: max step gap 0.000e+00 at a=0, 0.000e+00 at a=1 (tol 1e-12)\n"
    "PASS oracle-concordance: max |z| = 2.250 over 3 cells at 20000 trajectories (tol 4)\n"
    "all 12 checks passed\n"
)


def _by_name(results):
    return {r.name: r for r in results}


class TestRunChecks:
    def test_all_pass_on_healthy_build(self):
        results = run_checks()
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_names_and_order(self):
        assert [r.name for r in run_checks()] == EXPECTED_NAMES

    def test_deterministic_report(self):
        assert render_report(run_checks()) == render_report(run_checks())

    def test_report_is_pinned(self):
        # Every figure of the healthy report, to the digits it prints.
        assert render_report(run_checks()) == PINNED_REPORT

    def test_step_kernel_calls_per_run(self, monkeypatch):
        # Each kernel steps a stack: the 200 shared samples once, the 20 of
        # absorbed-state-fixed-point once, and the 200 of
        # model-equivalence-extremes once per absorption extreme.  A loop
        # over samples would call each kernel hundreds of times.
        calls = {"step_coherent": 0, "step_collapse": 0}
        for name in calls:
            real = getattr(evolution, name)

            def counted(rho, theta, a, _real=real, _name=name):
                calls[_name] += 1
                return _real(rho, theta, a)

            monkeypatch.setattr(evolution, name, counted)
        run_checks()
        assert calls == {"step_coherent": 4, "step_collapse": 4}

    def test_kraus_and_eigen_calls_per_run(self, monkeypatch):
        # kraus-completeness builds each model's 25 Kraus sets as one stack,
        # and rotator-closed-form decomposes its 100 angles in one call.
        calls = {"kraus_operators": 0, "rotator_eigen": 0}
        for module, name in ((evolution, "kraus_operators"), (ifmsim.operators, "rotator_eigen")):
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        run_checks()
        assert calls == {"kraus_operators": 2, "rotator_eigen": 1}

    def test_absent_sweep_runs_once_per_run(self, monkeypatch):
        # limiting-closed-forms and perfect-switching share one absent sweep
        calls = []
        real = sweep.sweep_cycles

        def counted(a, n_max, model, theta=None):
            calls.append((a, n_max, model))
            return real(a, n_max, model, theta)

        monkeypatch.setattr(sweep, "sweep_cycles", counted)
        results = run_checks()
        assert sorted(calls) == [(0.0, 100, "absent"), (1.0, 100, "coherent")]
        assert render_report(results) == PINNED_REPORT


class TestRenderReport:
    def test_line_format(self):
        report = render_report(run_checks())
        lines = report.splitlines()
        assert len(lines) == len(EXPECTED_NAMES) + 1
        for line, name in zip(lines, EXPECTED_NAMES):
            assert line.startswith(f"PASS {name}: ")
        assert lines[-1] == f"all {len(EXPECTED_NAMES)} checks passed"
        assert report.endswith("\n")
        assert "\r" not in report

    def test_failure_summary(self):
        results = [
            CheckResult("alpha", True, "fine"),
            CheckResult("beta", False, "broke"),
            CheckResult("gamma", False, "broke too"),
        ]
        lines = render_report(results).splitlines()
        assert lines[1] == "FAIL beta: broke"
        assert lines[-1] == "2 of 3 checks failed"


class TestMutationSensitivity:
    """Seed known bugs and confirm a named check, and only the right
    check, turns red."""

    def test_absorber_sign_flip_caught_by_unitarity(self, monkeypatch):
        # Flip the sign of the emission coupling in the absorber matrix.
        # The step routines project out the absorbed amplitude before the
        # operator's third column can act, so every density-matrix result
        # is bit-identical under this bug and trace preservation still
        # holds.  Only the direct operator audit can see it.
        real_absorption = ifmsim.operators.absorption

        def crooked(a):
            m = real_absorption(a)
            m[..., 1, 2] = -m[..., 1, 2]
            return m

        monkeypatch.setattr(ifmsim.operators, "absorption", crooked)
        results = _by_name(run_checks())
        assert not results["operator-unitarity"].passed
        assert results["trace-preservation"].passed
        assert results["kraus-completeness"].passed
        assert results["limiting-closed-forms"].passed

    @staticmethod
    def _only_failure(name):
        results = _by_name(run_checks())
        assert not results[name].passed
        assert [r.name for r in results.values() if not r.passed] == [name]
        return results

    def test_scaled_kraus_branch_caught_by_completeness(self, monkeypatch):
        # Shrink one Kraus operator of every set: sum K^+K falls short of I.
        # The step kernels do not use the Kraus sets, so only the
        # completeness audit can see it.
        real = evolution.kraus_operators

        def scaled(model, theta, a):
            ks = real(model, theta, a)
            ks[1] *= 0.99
            return ks

        monkeypatch.setattr(evolution, "kraus_operators", scaled)
        self._only_failure("kraus-completeness")

    def test_eigenvector_phase_flip_caught_by_closed_form(self, monkeypatch):
        # Flip the phase of the |V> component of the first eigenvector:
        # (1, i)/sqrt(2) becomes (1, -i)/sqrt(2), still a unit vector but
        # the partner of the other eigenvalue, so the reconstruction fails.
        real = ifmsim.operators.rotator_eigen

        def flipped(theta):
            eig = real(theta)
            eig.vectors[..., 1, 0] *= -1.0
            return eig

        monkeypatch.setattr(ifmsim.operators, "rotator_eigen", flipped)
        detail = self._only_failure("rotator-closed-form")["rotator-closed-form"].detail
        assert "power dev 7.711e-14" in detail  # the power half still holds

    def test_wrong_switching_angle_caught(self, monkeypatch):
        monkeypatch.setattr(
            ifmsim.operators, "switching_angle", lambda n: math.pi / n
        )
        results = _by_name(run_checks())
        assert not results["perfect-switching"].passed

    def test_broken_rotator_reported_as_raise(self, monkeypatch):
        def boom(theta):
            raise RuntimeError("rotator unavailable")

        monkeypatch.setattr(ifmsim.operators, "rotator3", boom)
        results = _by_name(run_checks())
        assert not results["trace-preservation"].passed
        assert results["trace-preservation"].detail.startswith(
            "raised RuntimeError"
        )
        report = render_report(list(results.values()))
        assert "checks failed" in report.splitlines()[-1]

    def test_lossy_channel_caught_by_trace_check(self, monkeypatch):
        # Shrink the absorption coupling itself, so amplitude leaves the
        # not-absorbed sector without fully arriving in the absorbed one.
        real_absorption = ifmsim.operators.absorption

        def leaky(a):
            m = real_absorption(a)
            m[..., 2, 1] *= 0.9
            return m

        monkeypatch.setattr(ifmsim.operators, "absorption", leaky)
        results = _by_name(run_checks())
        assert not results["trace-preservation"].passed

    @staticmethod
    def _mutate_steps(monkeypatch, mutate):
        for name in ("step_coherent", "step_collapse"):
            real = getattr(evolution, name)

            def mutated(rho, theta, a, _real=real):
                return mutate(_real(rho, theta, a))

            monkeypatch.setattr(evolution, name, mutated)

    def test_population_back_from_b_caught_by_monotonicity(self, monkeypatch):
        # Move the absorbed population back to H: trace and positivity hold,
        # only the absorbed population decreases.
        def leak_back(out):
            out = out.copy()
            out[..., 0, 0] += out[..., 2, 2]
            out[..., 2, 2] = 0.0
            return out

        self._mutate_steps(monkeypatch, leak_back)
        results = _by_name(run_checks())
        assert not results["absorbed-population-monotone"].passed
        assert results["trace-preservation"].passed
        assert results["positivity-preservation"].passed

    def test_nan_absorbed_population_caught_by_monotonicity(self, monkeypatch):
        def nan_b(out):
            out = out.copy()
            out[..., 2, 2] = np.nan
            return out

        self._mutate_steps(monkeypatch, nan_b)
        monotone = _by_name(run_checks())["absorbed-population-monotone"]
        assert not monotone.passed
        assert monotone.detail == "max decrease nan (tol 1e-13)"

    def test_anti_hermitian_part_caught_by_positivity(self, monkeypatch):
        skew = np.zeros((3, 3))
        skew[0, 1], skew[1, 0] = 1e-11, -1e-11

        self._mutate_steps(monkeypatch, lambda out: out + skew)
        results = _by_name(run_checks())
        positivity = results["positivity-preservation"]
        assert not positivity.passed
        assert "max hermiticity dev 2.000e-11" in positivity.detail
        assert results["trace-preservation"].passed
        assert results["absorbed-population-monotone"].passed

    def test_raising_step_kernel_fails_each_shared_check(self, monkeypatch):
        def boom(rho, theta, a):
            raise RuntimeError("kernel unavailable")

        monkeypatch.setattr(evolution, "step_collapse", boom)
        results = _by_name(run_checks())
        for name in (
            "trace-preservation",
            "positivity-preservation",
            "absorbed-population-monotone",
        ):
            assert not results[name].passed, name
            assert results[name].detail == "raised RuntimeError: kernel unavailable"
        assert results["rotator-closed-form"].passed

        # Step outputs are not kept between runs, so nothing of the broken
        # kernel reaches an unpatched run.
        monkeypatch.undo()
        assert all(r.passed for r in run_checks())

    def test_raising_absent_sweep_fails_each_check_that_shares_it(self, monkeypatch):
        real = sweep.sweep_cycles

        def absent_breaks(a, n_max, model, theta=None):
            if model == "absent":
                raise RuntimeError("sweep unavailable")
            return real(a, n_max, model, theta)

        monkeypatch.setattr(sweep, "sweep_cycles", absent_breaks)
        results = run_checks()
        assert [r.name for r in results] == EXPECTED_NAMES
        failed = {r.name: r.detail for r in results if not r.passed}
        assert failed == {
            "limiting-closed-forms": "raised RuntimeError: sweep unavailable",
            "perfect-switching": "raised RuntimeError: sweep unavailable",
        }


class TestCheckResult:
    def test_frozen(self):
        result = CheckResult("name", True, "detail")
        with pytest.raises(AttributeError):
            result.passed = False

    @pytest.mark.parametrize("sabotage", [None, "crooked", "raising"])
    def test_passed_is_a_bool_and_results_serialise(self, monkeypatch, sabotage):
        # Several checks compare a numpy deviation with a tolerance; the
        # result still holds a Python bool, so it serialises to JSON.
        real_absorption = ifmsim.operators.absorption

        def crooked(a):
            m = real_absorption(a)
            m[..., 1, 2] = -m[..., 1, 2]
            return m

        def raising(a):
            raise RuntimeError("absorber unavailable")

        if sabotage is not None:
            monkeypatch.setattr(
                ifmsim.operators, "absorption", {"crooked": crooked, "raising": raising}[sabotage]
            )
        results = run_checks()
        assert all(r.passed for r in results) == (sabotage is None)
        for r in results:
            assert type(r.passed) is bool, r.name
            assert json.loads(json.dumps(dataclasses.asdict(r))) == dataclasses.asdict(r)

    def test_oracle_concordance_has_z_detail(self):
        results = _by_name(run_checks())
        assert "max |z|" in results["oracle-concordance"].detail


class TestStackedReductions:
    def test_shared_checks_match_per_matrix_loops(self):
        # Reference: the per-output loops the stacked checks replaced.  The
        # arithmetic per matrix is the same, so the figures must be equal.
        # Every sample gains absorbed population, so the monotone detail
        # also shows the decrease floored at 0.
        rhos, outs = verify._step_outputs()
        dev, herm_dev, min_eig, worst, ok = 0.0, 0.0, np.inf, 0.0, True
        for rho, out in zip(rhos, outs):
            dev = max(dev, abs(np.trace(out) - np.trace(rho)))
            herm_dev = max(herm_dev, np.abs(out - out.conj().T).max())
            ok &= linalg.is_hermitian(out, evolution.HERMITICITY_TOL)
            eigs = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
            min_eig = min(min_eig, eigs.min())
            ok &= linalg.is_psd(out, evolution.PSD_TOL)
            worst = max(worst, float(rho[2, 2].real - out[2, 2].real))
        results = _by_name(run_checks())
        assert results["trace-preservation"].detail == (
            f"max trace drift {dev:.3e} (tol 1e-13)"
        )
        assert results["positivity-preservation"].detail == (
            f"max hermiticity dev {herm_dev:.3e} (tol 1e-12), "
            f"min eigenvalue {min_eig:.3e} (floor -1e-10)"
        )
        assert results["positivity-preservation"].passed == ok
        assert results["absorbed-population-monotone"].detail == (
            f"max decrease {worst:.3e} (tol 1e-13)"
        )


def _assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(expected)))


class TestRandomStates:
    """`_random_states` takes each sample's draws in order from one call, so
    a stack of samples is the sequence of its one-sample calls, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_call_equals_one_sample_calls(self, seed):
        ranges = ((0.0, np.pi), (0.0, 1.0))
        stream, stacked_stream = oracle._Stream(seed), oracle._Stream(seed)
        samples = [verify._random_states(stream, 1, *ranges) for _ in range(300)]
        expected = [np.concatenate(field) for field in zip(*samples)]
        got = verify._random_states(stacked_stream, 300, *ranges)
        assert len(got) == 3
        for field, reference in zip(got, expected):
            _assert_same_bits(field, reference)
        # both streams stop at the same draw
        _assert_same_bits(stacked_stream.random(3), stream.random(3))

    def test_count_one_without_ranges_repeats_the_state_sequence(self):
        stream, stacked_stream = oracle._Stream(4), oracle._Stream(4)
        (expected,) = verify._random_states(stacked_stream, 200)
        for reference in expected:
            (rho,) = verify._random_states(stream, 1)
            assert rho.shape == (1, 3, 3)
            _assert_same_bits(rho[0], reference)
        _assert_same_bits(stacked_stream.random(3), stream.random(3))

    def test_a_numpy_generator_is_a_source(self):
        theta, rho = verify._random_states(np.random.default_rng(5), 50, (0.0, np.pi))
        u = np.random.default_rng(5).random(50 * 19).reshape(50, 19)
        _assert_same_bits(theta, np.pi * u[:, 0])
        g = ((2.0 * u[:, 1:10] - 1.0) + 1j * (2.0 * u[:, 10:] - 1.0)).reshape(50, 3, 3)
        reference = g @ verify._dagger(g)
        reference /= np.trace(reference, axis1=1, axis2=2).real[:, None, None]
        _assert_same_bits(rho, reference)
        assert np.linalg.eigvalsh(rho).min() > 0.0


class TestSeedIsolation:
    def test_module_rng_does_not_leak_global_state(self):
        np.random.seed(123)
        before = np.random.random()
        np.random.seed(123)
        run_checks()
        after = np.random.random()
        assert before == after
