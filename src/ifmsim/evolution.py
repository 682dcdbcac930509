"""Per-cycle channel evolution of a photon interrogating a particle.

The photon starts in |H><H| and goes through N identical cycles.  Each cycle
rotates the polarization by theta, couples |V> to the absorbed state |B> with
interaction probability ``a``, and ends with a projective measurement of the
{|B>, not-|B>} subspaces.  Two particle models are implemented:

* ``COHERENT`` -- the particle acts as a coherent absorber.  One cycle maps

      rho' = M_B rho M_B^+  +  Ab U M_nb rho M_nb^+ U^+ Ab^+

  followed by the {M_B, M_nb} projective dephasing (zeroing coherences
  between |B> and the rest).  Without that dephasing the emission term of
  ``Ab`` could coherently return amplitude from |B> in later cycles; the
  per-cycle measurement is exactly what makes absorption irreversible.

* ``COLLAPSE`` -- the particle itself acts as a projective which-arm
  measurement with probability ``a`` per cycle and does nothing otherwise.
  One cycle applies the Kraus set

      { M_B,  sqrt(1-a) U_nb,  sqrt(a) M_H U_nb,  sqrt(a) S U_nb }

  with U_nb = U M_nb and S = |B><V| (photon found in the particle's arm is
  absorbed).

* ``ABSENT`` -- no particle in the arm; identical to COHERENT with a = 0.

Both steps are trace preserving, positivity preserving, keep |B><B| as an
exact fixed point, and never decrease the |B> population.

``evolve`` does not iterate those steps.  The {B, not-B} dephasing zeroes
the coherences between |B> and the rest every cycle, and every operator
(rotation, absorption, projectors) is real, so a state reached from |H><H|
is always

      [[h, c, 0],
       [c, v, 0],
       [0, 0, b]]

with four real numbers.  One cycle of any model is then a real 4x4 linear
map T(model, theta, a) on (h, c, v, b) -- the Liouville form of the
per-cycle channel -- and N cycles are T**N applied to e_1 = (1, 0, 0, 0).
With u = R rho R^T the rotated {H, V} block, a cycle keeps u_HH, keeps
(1-a) u_VV in |V>, moves a u_VV into |B> and scales the coherence u_HV by
q: sqrt(1-a) for the coherent absorber (an amplitude), 1-a for the
collapse model (a mixture of no-op and which-arm measurement).

The engine carries every power as I + E, the identity plus a deviation.
T is close to I when theta and a are small, and its entries near 1 would
lose the information the evolution needs (cos^2 theta rounds to 1 for
theta below ~1e-8).  So D = T - I is built directly, with no entry that
cancels: cos^2 - 1 = -sin^2, q(cos^2 - sin^2) - 1 = (q-1)(1 - 2 sin^2) -
2 sin^2, (1-a) cos^2 - 1 = -a cos^2 - sin^2, and q - 1 = -a/(1 + sqrt(1-a))
for the coherent absorber.  |B> is absorbing, so D's b column is zero and
it has 12 live entries: the 3x3 {h, c, v} block and the row into b, which
gives a small p_b its relative accuracy.  Squaring is E <- 2E + E.E, and
since the powers T**(2**k) commute, a set bit of N is applied to the
state's deviation y from e_1, y <- y + E(e_1 + y), rather than to a
product of matrices.  With the switching angle a row stays within a few
ulps of the exact value (checked to N = 1e8 against 50 digits); with an
explicit theta the problem itself is conditioned as N |theta| eps, so a
large explicit theta * N stays inaccurate, and nothing rejects it.

The arithmetic is plain ``*`` and ``+`` over the 12 entries, each one
IEEE-rounded operation whether it runs on Python floats or elementwise on
numpy arrays, and two drivers share it.  ``_evolve_one`` walks one
config's bits in one loop on 16 local Python floats, E's 12 entries and
the state's 4 (``evolve``, ``run_single``).  ``_evolve_stack`` holds the
deviations of G (theta, N) groups times K absorptions as one (12, G, K)
stack: every level squares the whole stack, in the float driver's order
of operations, and applies it where the group's count has that bit.  Both
drivers take cos and sin from ``math``, one angle at a time, since numpy's
may round differently.  So a sweep makes one stacked call, and every row
of it is bit for bit the float driver's result for its own config.
Groups past their top bit are squared on, and may overflow, unread;
levels where no count has a bit apply nothing.

The 3x3 step kernels ``step_coherent`` / ``step_collapse`` stay as the
validated reference that the engine is tested against.  They take a
(..., 3, 3) stack of states with angles and absorptions broadcast over it,
validate the whole stack in one pass, and step every matrix exactly as a
lone 3x3 input is stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import operators

__all__ = [
    "ParticleModel",
    "CycleConfig",
    "Probabilities",
    "initial_state",
    "step_coherent",
    "step_collapse",
    "evolve",
    "probabilities",
    "closed_form_no_particle",
    "closed_form_perfect_absorber",
    "kraus_operators",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
]

# Default state-validity tolerances: double-precision accumulation over the
# cycle counts used here stays well inside these.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

# Tiny negative diagonal entries within this band are clamped to 0 when
# reading probabilities; the state itself is never modified.
_CLAMP_TOL = 1e-12


class ParticleModel(Enum):
    """Which object sits in the interrogated arm."""

    COHERENT = "coherent"
    COLLAPSE = "collapse"
    ABSENT = "absent"


class Probabilities(NamedTuple):
    """Outcome probabilities (photon in H, photon in V, photon absorbed)."""

    p_h: float
    p_v: float
    p_b: float


# ParticleModel members and their string values, each to its member: the
# common inputs skip the Enum call, and anything else still reaches it.
_MODELS = {**{m: m for m in ParticleModel}, **{m.value: m for m in ParticleModel}}

_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class CycleConfig:
    """One interrogation experiment.

    Parameters
    ----------
    model : ParticleModel or its string value
    a : float
        Interaction (absorption) probability per cycle, in [0, 1].  Forced
        to 0 for the ABSENT model.
    n : int
        Number of cycles, >= 1.
    theta : float or None
        Per-cycle rotation in radians; None selects the switching angle
        pi/(2n) that walks |H> to |V> when nothing absorbs.
    """

    model: ParticleModel
    a: float
    n: int
    theta: float | None = None

    def __init__(self, model: ParticleModel, a: float, n: int, theta: float | None = None) -> None:
        # Checked in the order model, n, a, theta; each field is set once.
        try:
            m = _MODELS.get(model)
        except TypeError:
            m = None
        if m is None:
            m = ParticleModel(model)
        n = operators._check_count(n, 1, "cycle count n must be a positive integer")
        a = operators._check_probability(a)
        if theta is not None:
            theta = operators._as_float(theta)
            if not math.isfinite(theta):
                raise ValueError("theta must be finite")
        _setattr(self, "model", m)
        _setattr(self, "a", 0.0 if m is ParticleModel.ABSENT else a)
        _setattr(self, "n", n)
        _setattr(self, "theta", theta)

    # as in a generated __init__: the object None, not the string PEP 563 makes
    __init__.__annotations__["return"] = None

    def resolved_theta(self) -> float:
        """The rotation angle actually used: explicit theta, or pi/(2n)."""
        return operators.switching_angle(self.n) if self.theta is None else self.theta


def initial_state() -> np.ndarray:
    """The starting state |H><H|."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _require_density_matrix(rho) -> np.ndarray:
    """Validate rho as a (..., 3, 3) stack of density matrices; return it as a complex array.

    One pass over the whole stack, in order: shape, finite entries,
    Hermiticity within HERMITICITY_TOL, unit trace within TRACE_TOL, and no
    eigenvalue below -PSD_TOL.  The first check any matrix fails raises.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 density matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("density matrix entries must be finite")
    if (np.abs(m - m.conj().swapaxes(-1, -2)) > HERMITICITY_TOL).any():
        raise ValueError("density matrix must be Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    if ((np.abs(tr.real - 1.0) > TRACE_TOL) | (np.abs(tr.imag) > TRACE_TOL)).any():
        raise ValueError("density matrix must have unit trace")
    if (np.linalg.eigvalsh(m) < -PSD_TOL).any():
        raise ValueError("density matrix must be positive semidefinite")
    return m


def step_coherent(rho, theta, a) -> np.ndarray:
    """One cycle of the coherent-absorber channel on valid density matrices.

    `rho` is one 3x3 state or a (..., 3, 3) stack; `theta` and `a` are
    scalars or arrays broadcast over the stack.  Each output matrix is bit
    for bit the step of that matrix alone.

    Raises
    ------
    ValueError
        If rho violates the density-matrix invariants or a is outside [0, 1].
    """
    m = _require_density_matrix(rho)
    k = operators.absorption(a) @ operators.rotator3(theta)
    survivor = m.copy()
    survivor[..., 2, :] = 0.0
    survivor[..., :, 2] = 0.0
    out = k @ survivor @ k.conj().swapaxes(-1, -2)
    out[..., 2, 2] += m[..., 2, 2]
    # projective {B, not-B} dephasing
    out[..., 2, :2] = 0.0
    out[..., :2, 2] = 0.0
    return out


def step_collapse(rho, theta, a) -> np.ndarray:
    """One cycle of the measuring-particle channel on valid density matrices.

    Takes stacks and broadcasts `theta` and `a` as ``step_coherent`` does.

    Raises
    ------
    ValueError
        If rho violates the density-matrix invariants or a is outside [0, 1].
    """
    m = _require_density_matrix(rho)
    av = operators._check_probabilities(a)
    u_nb = operators.rotator3(theta) @ operators.projector(operators.NOT_B)
    # Kraus set {M_B, sqrt(1-a) U_nb, sqrt(a) M_H U_nb, sqrt(a) S U_nb} by
    # entries; the last three act on rho_u = U_nb rho U_nb^+ in the {H, V} block
    rho_u = u_nb @ m @ u_nb.conj().swapaxes(-1, -2)
    out = (1.0 - av)[..., None, None] * rho_u
    out[..., 0, 0] += av * rho_u[..., 0, 0]  # M_H branch: photon found in H, particle intact
    out[..., 2, 2] += av * rho_u[..., 1, 1]  # S branch: photon found in V, absorbed
    out[..., 2, 2] += m[..., 2, 2]  # M_B: already-absorbed population is frozen
    return out


def _absorber(model: ParticleModel, a, sqrt=math.sqrt) -> tuple:
    """(a, 1 - a, q, q - 1), q the coherence's factor: sqrt(1 - a), or 1 - a for collapse.

    ``a`` is a float, or with ``sqrt=np.sqrt`` an array; both square roots
    are correctly rounded, so each element is bit for bit its float's.
    """
    keep = 1.0 - a
    if model is ParticleModel.COLLAPSE:
        return a, keep, keep, -a
    q = sqrt(keep)
    return a, keep, q, -a / (1.0 + q)


def _deviation(cos, sin, absorber):
    """D = T - I, rows h, c, v, b over columns h, c, v (its b column is 0); broadcasts."""
    a, keep, q, q_dev = absorber
    cc, ss, cs = cos * cos, sin * sin, cos * sin
    two_cs = 2.0 * cs
    return (
        -ss, -two_cs, ss,
        q * cs, q_dev * (1.0 - 2.0 * ss) - 2.0 * ss, -q * cs,
        keep * ss, keep * two_cs, -a * cc - ss,
        a * ss, a * two_cs, a * cc,
    )  # fmt: skip


def _evolve_one(model: ParticleModel, theta: float, a: float, n: int) -> tuple:
    """(h, c, v, b) after n cycles: n's bits lowest first, E = T**(2**level) - I squared a level."""
    e = _deviation(math.cos(theta), math.sin(theta), _absorber(model, a))
    hh, hc, hv, ch, cc, cv, vh, vc, vv, bh, bc, bv = e
    h = c = v = b = 0.0
    while True:
        if n & 1:  # y <- y + E(e_1 + y)
            h1 = 1.0 + h
            h, c, v, b = (
                h + (hc * c + hv * v + hh * h1),
                c + (cc * c + cv * v + ch * h1),
                v + (vc * c + vv * v + vh * h1),
                b + (bc * c + bv * v + bh * h1),
            )
        if n < 2:
            return 1.0 + h, c, v, b
        n >>= 1
        hh, hc, hv, ch, cc, cv, vh, vc, vv, bh, bc, bv = (  # E <- 2E + E.E
            2.0 * hh + (hh * hh + hc * ch + hv * vh),
            2.0 * hc + (hh * hc + hc * cc + hv * vc),
            2.0 * hv + (hh * hv + hc * cv + hv * vv),
            2.0 * ch + (ch * hh + cc * ch + cv * vh),
            2.0 * cc + (ch * hc + cc * cc + cv * vc),
            2.0 * cv + (ch * hv + cc * cv + cv * vv),
            2.0 * vh + (vh * hh + vc * ch + vv * vh),
            2.0 * vc + (vh * hc + vc * cc + vv * vc),
            2.0 * vv + (vh * hv + vc * cv + vv * vv),
            2.0 * bh + (bh * hh + bc * ch + bv * vh),
            2.0 * bc + (bh * hc + bc * cc + bv * vc),
            2.0 * bv + (bh * hv + bc * cv + bv * vv),
        )


def _evolve_stack(model: ParticleModel, thetas, a_values, ns) -> np.ndarray:
    """``_evolve_one``, bit for bit, for ns[g] cycles at thetas[g] per absorption: (4, G, K)."""
    trig = np.array([(math.cos(t), math.sin(t)) for t in thetas]).T[:, :, None]
    absorber = _absorber(model, np.array(a_values, dtype=float)[None, :], np.sqrt)
    e = np.empty((12, len(thetas), len(a_values)))
    for out, x in zip(e, _deviation(*trig, absorber)):
        out[...] = x
    w = e.reshape(4, 3, *e.shape[1:])  # a view of E as its 4 x 3 matrix
    top = max(ns).bit_length()
    counts = np.frombuffer(b"".join(n.to_bytes(top // 8 + 1, "little") for n in ns), np.uint8)
    bits = np.unpackbits(counts.reshape(len(ns), -1).T, axis=0, count=top, bitorder="little")
    # each level's set-bit mask over the whole (G, K) stack, contiguous: a (G, 1)
    # mask broadcast over K makes copyto's inner loops K long
    masks = np.repeat(bits.view(bool)[:, :, None], len(a_values), axis=2)
    y = np.zeros((4, *e.shape[1:]))
    with np.errstate(over="ignore", invalid="ignore"):  # groups past their top bit
        for level, mask in enumerate(masks):
            if level:
                sq = w[:, :1] * w[:1]
                sq += w[:, 1:2] * w[1:2]
                sq += w[:, 2:3] * w[2:3]
                w += w  # 2E exactly, as 2.0 * x
                w += sq
            if mask.any():  # _evolve_one's set bit through E's 4 x 3 view, in its order
                t = w[:, 1] * y[1]
                t += w[:, 2] * y[2]
                t += w[:, 0] * (1.0 + y[0])
                t += y
                np.copyto(y, t, where=mask)
    y[0] += 1.0
    return y


def evolve(config: CycleConfig) -> tuple[Probabilities, np.ndarray]:
    """Run config.n cycles from |H><H|; return final probabilities and state.

    Computes T**n e_1 for the model's 4x4 transfer matrix T, carried as the
    identity plus a deviation (see the module docstring for why four real
    numbers carry the whole state), and rebuilds the 3x3 complex density
    matrix from it.  The cost grows as log n.  The result agrees with
    iterating ``step_coherent`` / ``step_collapse`` n times to within
    floating-point rounding; with an explicit theta, the problem's own
    conditioning, ~n |theta| eps, bounds the accuracy at large n.
    """
    h, c, v, b = _evolve_one(config.model, config.resolved_theta(), config.a, config.n)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2] = h, v, b
    rho[0, 1] = rho[1, 0] = c
    return probabilities(rho), rho


def probabilities(rho) -> Probabilities:
    """Diagonal of rho as (p_h, p_v, p_b), real parts.

    Floating-point dust within -1e-12 of zero is clamped to 0 in the returned
    triple only; the state is untouched.
    """
    m = np.asarray(rho, dtype=complex)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 density matrix, got shape {m.shape}")
    diagonal = m.diagonal().real.tolist()
    return Probabilities(*(0.0 if -_CLAMP_TOL <= p < 0.0 else p for p in diagonal))


def closed_form_no_particle(theta: float, n: int) -> Probabilities:
    """Outcome probabilities with nothing in the arm: n plain rotations.

    (cos^2(n theta), sin^2(n theta), 0), with the accumulated angle taken
    as the float product theta * n and reduced modulo 2*pi before the trig
    evaluation.  The phase is exact only where that product is, a double
    times n with no rounding; else it is off by up to half an ulp of
    n*theta, about 1.1e-16 * |n*theta| radians, which grows with n:
    against 80-digit mpmath p_h is off by 1.17e-9 at (theta, n) = (0.3,
    1e8) and 9.14e-2 at (2.5, 1e15).  An exact reduction is ROADMAP item
    21.  ValueError if theta is not finite or n*theta is beyond the float
    range.
    """
    n = operators._check_float_count(n, 0, "n must be a non-negative integer")
    angle = float(operators._check_angle(theta)) * n
    if not math.isfinite(angle):
        raise ValueError(
            "accumulated angle n*theta must be no larger in magnitude than "
            f"{operators._MAX_COUNT!r}"
        )
    phi = math.fmod(angle, 2.0 * math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return Probabilities(c * c, s * s, 0.0)


def closed_form_perfect_absorber(theta: float, n: int) -> Probabilities:
    """Exact outcome probabilities against a perfect absorber (a = 1).

    Each cycle the photon survives in |H> with probability cos^2(theta), so
    (cos^{2n}(theta), 0, 1 - cos^{2n}(theta)).  ValueError if theta is not
    finite.
    """
    n = operators._check_float_count(n, 0, "n must be a non-negative integer")
    # 2.0 * n rounds as 2 * n does; near the count limit it is inf rather
    # than an OverflowError, and cos**inf is the power's limit
    p_h = math.cos(operators._check_angle(theta)) ** (2.0 * n)
    return Probabilities(p_h, 0.0, 1.0 - p_h)


def kraus_operators(model: ParticleModel, theta, a) -> list[np.ndarray]:
    """The Kraus set whose map equals one cycle of the given model.

    Satisfies sum_i K_i^+ K_i = I; applying sum_i K_i rho K_i^+ reproduces
    the corresponding step function exactly.  `theta` and `a` are scalars
    or arrays broadcast against each other: each operator is then a
    (..., 3, 3) stack, one matrix per element, bit for bit that element's
    scalar call.  A scalar call gives (3, 3) matrices through the same
    code.  Every returned array is fresh and writable.
    """
    model = ParticleModel(model)
    av = operators._check_probabilities(a)  # checked for every model, as CycleConfig does
    a_eff = np.zeros_like(av) if model is ParticleModel.ABSENT else av
    m_b = np.zeros(np.broadcast_shapes(np.shape(theta), av.shape) + (3, 3), dtype=complex)
    m_b[..., operators.Basis.B, operators.Basis.B] = 1.0
    m_nb = operators.projector(operators.NOT_B)
    if model is ParticleModel.COLLAPSE:
        u_nb = operators.rotator3(theta) @ m_nb
        m_h = operators.projector(operators.Basis.H)
        s = np.zeros((3, 3), dtype=complex)
        s[operators.Basis.B, operators.Basis.V] = 1.0
        return [
            m_b,
            np.sqrt(1.0 - a_eff)[..., None, None] * u_nb,
            np.sqrt(a_eff)[..., None, None] * (m_h @ u_nb),
            np.sqrt(a_eff)[..., None, None] * (s @ u_nb),
        ]
    # coherent (and absent): survivor branch followed by {B, not-B} dephasing
    branch = operators.absorption(a_eff) @ operators.rotator3(theta) @ m_nb
    return [m_b, m_b @ branch, m_nb @ branch]
