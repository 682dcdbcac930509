import numpy as np
import pytest

from ifmsim import linalg
from ifmsim.evolution import CycleConfig, ParticleModel, evolve
from ifmsim.operators import rotator2


class TestIsHermitian:
    def test_identity(self):
        assert linalg.is_hermitian(np.eye(3), 1e-12)

    def test_rotation_is_not(self):
        assert not linalg.is_hermitian(rotator2(np.pi / 4), 1e-12)

    def test_evolved_states_stay_hermitian(self):
        for n in (1, 7, 40):
            _, rho = evolve(CycleConfig(model=ParticleModel.COHERENT, a=0.35, n=n))
            assert linalg.is_hermitian(rho, 1e-12)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError, match="tol"):
            linalg.is_hermitian(np.eye(3), 0.0)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_unsupported_dimension(self, dim):
        with pytest.raises(ValueError, match="dimensions"):
            linalg.is_hermitian(np.eye(dim))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.is_hermitian(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            linalg.is_hermitian(bad)


class TestIsPsd:
    def test_identity(self):
        assert linalg.is_psd(np.eye(3), 1e-10)

    def test_negative_identity(self):
        assert not linalg.is_psd(-np.eye(3), 1e-10)

    def test_requires_hermitian_input(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.is_psd(rotator2(np.pi / 3), 1e-10)

    def test_evolved_states_stay_psd(self, make_state):
        rng = np.random.default_rng(5)
        from ifmsim.evolution import step_coherent, step_collapse

        for _ in range(50):
            rho = make_state()
            theta, a = rng.uniform(0, np.pi), rng.uniform(0, 1)
            assert linalg.is_psd(step_coherent(rho, theta, a), 1e-10)
            assert linalg.is_psd(step_collapse(rho, theta, a), 1e-10)


def _stack(rng, k, dim):
    g = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    return g @ g.conj().swapaxes(1, 2)


class TestStacks:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_matrix_passes(self, dim):
        stack = _stack(np.random.default_rng(dim), 50, dim)
        assert linalg.is_hermitian(stack, 1e-12)
        assert linalg.is_psd(stack, 1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_non_hermitian_matrix_gives_false(self, dim):
        stack = _stack(np.random.default_rng(dim), 50, dim)
        stack[17, 0, 1] += 1e-9
        assert not linalg.is_hermitian(stack, 1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_negative_matrix_gives_false(self, dim):
        stack = _stack(np.random.default_rng(dim), 50, dim)
        stack[31] = -np.eye(dim)
        assert not linalg.is_psd(stack, 1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_is_psd_requires_every_matrix_hermitian(self, dim):
        stack = _stack(np.random.default_rng(dim), 50, dim)
        stack[49, 1, 0] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.is_psd(stack, 1e-10)

    @pytest.mark.parametrize("check", [linalg.is_hermitian, linalg.is_psd])
    def test_unsupported_dimension(self, check):
        with pytest.raises(ValueError, match="dimensions"):
            check(np.broadcast_to(np.eye(4), (5, 4, 4)))

    @pytest.mark.parametrize("check", [linalg.is_hermitian, linalg.is_psd])
    @pytest.mark.parametrize("shape", [(5, 2, 3), (3,)])
    def test_rejects_non_square(self, check, shape):
        with pytest.raises(ValueError, match="square"):
            check(np.ones(shape))
