"""Property test: the transfer-matrix engine against the reference step kernels."""

import math

import numpy as np
import pytest

from ifmsim.evolution import (
    CycleConfig,
    ParticleModel,
    evolve,
    initial_state,
    step_coherent,
    step_collapse,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    model=st.sampled_from(list(ParticleModel)),
    a=st.floats(0.0, 1.0),
    theta=st.none() | st.floats(-math.pi, math.pi),
    n=st.integers(1, 300),
)
@hypothesis.example(model=ParticleModel.COHERENT, a=0.0, theta=None, n=300)
@hypothesis.example(model=ParticleModel.COLLAPSE, a=1.0, theta=None, n=300)
@hypothesis.example(model=ParticleModel.COHERENT, a=1e-12, theta=0.3, n=137)
@hypothesis.example(model=ParticleModel.COLLAPSE, a=1e-12, theta=-2.5, n=1)
def test_evolve_matches_iterated_step_kernels(model, a, theta, n):
    cfg = CycleConfig(model=model, a=a, n=n, theta=theta)
    step = step_collapse if cfg.model is ParticleModel.COLLAPSE else step_coherent
    rho = initial_state()
    for _ in range(n):
        rho = step(rho, cfg.resolved_theta(), cfg.a)
    _, got = evolve(cfg)
    assert np.abs(got - rho).max() <= 1e-12
