"""Self-contained invariant suite: named checks over the whole pipeline.

Each check exercises one property the simulator is built on (operator
unitarity, channel trace preservation, positivity, closed-form agreement,
model equivalence at the extremes, Monte Carlo concordance).  All sampling
is seeded, so two runs produce byte-identical reports.

Seeded samples come from the oracle's counter-based streams: a check that
samples reads trajectory 0 of seed _RNG_SEED + k through oracle._Stream,
so numpy.random is never loaded.  Every sample is exact IEEE arithmetic
on 53-bit integer draws, so the report is the same on every platform.

Seeded samples are drawn in a fixed order, and then built, stepped,
multiplied and reduced as stacks: the step kernels, the Kraus sets and the
operator constructors take (..., d, d) stacks, so no check loops over its
samples to call them.

The suite is one table, ``_CHECKS``: each row is a check's name, the
function that returns its (passed, detail), and the shared input it takes,
or None.  ``run_checks`` walks the rows in order.  The trace, positivity
and absorbed-population checks share one set of step outputs, both step
kernels run once on the same seeded samples; the limiting-closed-forms and
perfect-switching checks share one absent N = 1..100 sweep.  The first row
that names an input makes it and the later rows reuse it, so each input is
made once per run when it succeeds; an input that raises fails each check
that names it.

Operators and evolution steps are reached through their modules on purpose:
replacing, say, ``operators.absorption`` with a broken variant makes the
corresponding check fail by name, which is how the suite's own sensitivity
is tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolution, linalg, operators, oracle, sweep

__all__ = ["CheckResult", "run_checks", "render_report"]

_RNG_SEED = 20240917


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dagger(m) -> np.ndarray:
    """Conjugate transpose of every matrix of a (..., d, d) stack."""
    return m.conj().swapaxes(-1, -2)


def _random_states(source, count: int, *ranges) -> tuple[np.ndarray, ...]:
    """`count` seeded samples: one float array per (lo, hi) range, then their states.

    One source.random(count * (len(ranges) + 18)) call draws them all.
    Each sample takes its uniforms u in order: one per range, read as
    lo + (hi - lo) * u, then the 18 entries 2u - 1 of G = N0 + i N1, each
    uniform on [-1, 1); its state is G G^+ at unit trace.  So `count`
    samples in one call equal `count` calls of one sample, bit for bit.
    The source is an oracle._Stream or anything with its random(size),
    such as a numpy Generator.
    """
    u = source.random(count * (len(ranges) + 18)).reshape(count, -1)
    params = [lo + (hi - lo) * u[:, i] for i, (lo, hi) in enumerate(ranges)]
    entries = 2.0 * u[:, len(ranges) :].reshape(count, 2, 3, 3) - 1.0
    g = entries[:, 0] + 1j * entries[:, 1]
    rho = g @ _dagger(g)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return (*params, rho)


def _check_operator_unitarity() -> tuple[bool, str]:
    thetas = 2.0 * np.pi * oracle._Stream(_RNG_SEED).random(100)
    dev = max(
        np.abs(u @ _dagger(u) - np.eye(u.shape[-1])).max()
        for u in (
            operators.rotator2(thetas),
            operators.rotator3(thetas),
            operators.absorption(np.linspace(0.0, 1.0, 101)),
        )
    )
    return dev <= 1e-13, f"max |U U^+ - I| = {dev:.3e} (tol 1e-13)"


def _check_projector_algebra() -> tuple[bool, str]:
    labels = [operators.Basis.H, operators.Basis.V, operators.Basis.B]
    ps = {lab: operators.projector(lab) for lab in labels}
    m_nb = operators.projector(operators.NOT_B)
    ok = np.array_equal(ps[operators.Basis.B] + m_nb, np.eye(3))
    ok &= np.array_equal(ps[operators.Basis.H] + ps[operators.Basis.V], m_nb)
    for x in labels:
        ok &= np.array_equal(ps[x] @ ps[x], ps[x])
        ok &= np.array_equal(ps[x], ps[x].conj().T)
        for y in labels:
            if x != y:
                ok &= np.array_equal(ps[x] @ ps[y], np.zeros((3, 3)))
    return ok, "completeness, idempotence, orthogonality exact"


def _check_rotator_closed_form() -> tuple[bool, str]:
    thetas = np.array([0.3, np.pi / 7.0, 1.0, 2.5, np.pi / 2.0])
    r1 = operators.rotator2(thetas)
    # gaps[n - 1]: the closed-form n-th power less the product of n left
    # multiplications by r1, for every angle at once
    gaps = operators.rotator_power(thetas, np.arange(1, 401)[:, None])
    acc = np.empty_like(gaps)  # acc[n - 1]: n left multiplications by r1
    np.matmul(r1, np.eye(2, dtype=complex), out=acc[0])
    for n in range(1, 400):
        np.matmul(r1, acc[n - 1], out=acc[n])
    gaps -= acc
    power_dev = np.abs(gaps).max()
    thetas = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    eig = operators.rotator_eigen(thetas)
    values, vectors = eig.values, eig.vectors  # (100, 2), (100, 2, 2)
    # sum over k of values[k] * outer(v_k, v_k^*), for every angle at once
    terms = values[:, None, None, :] * (vectors[:, :, None, :] * vectors.conj()[:, None, :, :])
    recon_dev = np.abs(terms.sum(axis=-1) - operators.rotator2(thetas)).max()
    return (
        power_dev <= 1e-12 and recon_dev <= 1e-13,
        f"power dev {power_dev:.3e} (tol 1e-12), "
        f"eigen reconstruction dev {recon_dev:.3e} (tol 1e-13)",
    )


def _check_kraus_completeness() -> tuple[bool, str]:
    stream = oracle._Stream(_RNG_SEED + 1)
    dev = 0.0
    for model in (evolution.ParticleModel.COHERENT, evolution.ParticleModel.COLLAPSE):
        theta, a = np.pi * stream.random(25), stream.random(25)
        total = sum(_dagger(k) @ k for k in evolution.kraus_operators(model, theta, a))
        dev = max(dev, np.abs(total - np.eye(3)).max())
    return dev <= 1e-13, f"max |sum K^+K - I| = {dev:.3e} (tol 1e-13)"


def _step_outputs() -> tuple[np.ndarray, np.ndarray]:
    """(rhos, outs): 200 seeded samples through both step kernels, stacked.

    Each is a (400, 3, 3) stack: ``outs[k]`` is the coherent and
    ``outs[200 + k]`` the collapse step of sample k, whose state is
    ``rhos[k] == rhos[200 + k]``.
    """
    stream = oracle._Stream(_RNG_SEED + 2)
    theta, a, rho = _random_states(stream, 200, (0.0, np.pi), (0.0, 1.0))
    outs = np.concatenate(
        [evolution.step_coherent(rho, theta, a), evolution.step_collapse(rho, theta, a)]
    )
    return np.concatenate([rho, rho]), outs


def _check_trace_preservation(rhos, outs) -> tuple[bool, str]:
    drift = np.trace(outs, axis1=1, axis2=2) - np.trace(rhos, axis1=1, axis2=2)
    dev = np.abs(drift).max()
    return dev <= 1e-13, f"max trace drift {dev:.3e} (tol 1e-13)"


def _check_positivity_preservation(rhos, outs) -> tuple[bool, str]:
    outs_h = _dagger(outs)
    herm_dev = np.abs(outs - outs_h).max()
    ok = linalg.is_hermitian(outs, evolution.HERMITICITY_TOL)
    min_eig = np.linalg.eigvalsh(0.5 * (outs + outs_h)).min()
    ok &= linalg.is_psd(outs, evolution.PSD_TOL)
    return (
        ok,
        f"max hermiticity dev {herm_dev:.3e} (tol 1e-12), "
        f"min eigenvalue {min_eig:.3e} (floor -1e-10)",
    )


def _check_absorbed_fixed_point() -> tuple[bool, str]:
    rho_b = np.zeros((3, 3), dtype=complex)
    rho_b[2, 2] = 1.0
    stream = oracle._Stream(_RNG_SEED + 3)
    theta, a = np.pi * stream.random(20), stream.random(20)
    ok = (evolution.step_coherent(rho_b, theta, a) == rho_b).all()
    ok &= (evolution.step_collapse(rho_b, theta, a) == rho_b).all()
    return ok, "|B><B| invariant exactly, both models"


def _check_absorbed_monotone(rhos, outs) -> tuple[bool, str]:
    # np.maximum keeps a NaN decrease, so a NaN output fails the check
    worst = float(np.maximum(0.0, rhos[:, 2, 2].real - outs[:, 2, 2].real).max())
    return worst <= 1e-13, f"max decrease {worst:.3e} (tol 1e-13)"


def _absent_sweep() -> tuple[list]:
    """(rows,): the absent N = 1..100 sweep at the switching angle, as records."""
    return (sweep.sweep_cycles(0.0, 100, "absent"),)


def _check_limiting_closed_forms(absent) -> tuple[bool, str]:
    rows = [*absent, *sweep.sweep_cycles(1.0, 100, "coherent")]
    evolved = [(r.p_h, r.p_v, r.p_b) for r in rows]
    exact = [
        *(evolution.closed_form_no_particle(r.theta, r.n) for r in rows[:100]),
        *(evolution.closed_form_perfect_absorber(r.theta, r.n) for r in rows[100:]),
    ]
    dev = np.abs(np.array(evolved) - np.array(exact)).max()
    return (
        dev <= 1e-10,
        f"max closed-form deviation {dev:.3e} over N = 1..100 (tol 1e-10)",
    )


def _check_perfect_switching(absent) -> tuple[bool, str]:
    min_pv = min(1.0, *(r.p_v for r in absent))
    return (
        min_pv >= 1.0 - 1e-10,
        f"min p_v = {min_pv:.12f} over N = 1..100 with auto theta (needs >= 1-1e-10)",
    )


def _check_model_equivalence() -> tuple[bool, str]:
    stream = oracle._Stream(_RNG_SEED + 4)
    devs = {}
    for a in (0.0, 1.0):
        theta, rho = _random_states(stream, 100, (0.0, np.pi))
        devs[a] = np.abs(
            evolution.step_coherent(rho, theta, a) - evolution.step_collapse(rho, theta, a)
        ).max()
    return (
        devs[0.0] <= 1e-12 and devs[1.0] <= 1e-12,
        f"max step gap {devs[0.0]:.3e} at a=0, {devs[1.0]:.3e} at a=1 (tol 1e-12)",
    )


def _check_oracle_concordance() -> tuple[bool, str]:
    cells = [
        (evolution.ParticleModel.COHERENT, 0.5, 10),
        (evolution.ParticleModel.COLLAPSE, 0.5, 10),
        (evolution.ParticleModel.COHERENT, 1.0, 24),
    ]
    worst = 0.0
    for model, a, n in cells:
        cfg = evolution.CycleConfig(model=model, a=a, n=n)
        exact, _ = evolution.evolve(cfg)
        est = oracle.estimate(oracle.TrajectoryConfig(cycle=cfg, trajectories=20000, seed=0))
        worst = max(worst, float(np.abs(oracle.compare(est, exact)).max()))
    return (
        worst <= oracle._Z_LIMIT,
        f"max |z| = {worst:.3f} over 3 cells at 20000 trajectories (tol {oracle._Z_LIMIT:g})",
    )


# (name, check, shared input): a check takes no arguments when its input is
# None, else the arguments its input function returns.
_CHECKS = [
    ("operator-unitarity", _check_operator_unitarity, None),
    ("projector-algebra", _check_projector_algebra, None),
    ("rotator-closed-form", _check_rotator_closed_form, None),
    ("kraus-completeness", _check_kraus_completeness, None),
    ("trace-preservation", _check_trace_preservation, _step_outputs),
    ("positivity-preservation", _check_positivity_preservation, _step_outputs),
    ("absorbed-state-fixed-point", _check_absorbed_fixed_point, None),
    ("absorbed-population-monotone", _check_absorbed_monotone, _step_outputs),
    ("limiting-closed-forms", _check_limiting_closed_forms, _absent_sweep),
    ("perfect-switching", _check_perfect_switching, _absent_sweep),
    ("model-equivalence-extremes", _check_model_equivalence, None),
    ("oracle-concordance", _check_oracle_concordance, None),
]


def run_checks() -> list[CheckResult]:
    """Run every named check, in table order; deterministic order and content.

    A check that raises counts as a failure of that check rather than
    aborting the suite: broken inputs must yield a named FAIL line.  A
    shared input is made by the first check that names it and kept for the
    later ones, so it is made once per call when it succeeds; an input that
    raises fails each check that names it.  Nothing is kept between calls.
    """
    inputs = {None: ()}  # each shared input's arguments, once made
    results = []
    for name, check, make in _CHECKS:
        try:
            if make not in inputs:
                inputs[make] = make()
            passed, detail = check(*inputs[make])
            result = CheckResult(name, bool(passed), detail)
        except Exception as exc:
            result = CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
        results.append(result)
    return results


def render_report(results) -> str:
    """One PASS/FAIL line per check plus a summary line, LF terminated."""
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    if failed:
        lines.append(f"{failed} of {len(results)} checks failed")
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines) + "\n"
