import numpy as np
import pytest

from remest import solver_a, solver_b


@pytest.fixture(scope="session")
def bd_avg():
    """Birth-death instance p=0.3, average-cost regime."""
    return solver_a.bd_spec(0.3, 1.0)


@pytest.fixture(scope="session")
def bd_09():
    return solver_a.bd_spec(0.3, 0.9)


@pytest.fixture(scope="session")
def gm_unit():
    """Unit-variance Gaussian instance, a=1, average-cost regime."""
    return solver_b.gauss_markov_spec(1.0)


@pytest.fixture
def solve_log(monkeypatch):
    """Thresholds of the ``solver_b.fredholm_solve`` calls made during the test."""
    log = []
    real = solver_b.fredholm_solve

    def logged(kernel, rhs, k, *args, **kwargs):
        log.append(k)
        return real(kernel, rhs, k, *args, **kwargs)

    monkeypatch.setattr(solver_b, "fredholm_solve", logged)
    return log


def random_valid_pmf(rng: np.random.Generator, max_halfwidth: int = 3) -> dict[int, float]:
    """Symmetric unimodal pmf with p_0 < 1, as a raw offset->mass map."""
    half = int(rng.integers(1, max_halfwidth + 1))
    raw = np.sort(rng.uniform(0.05, 1.0, size=half + 1))[::-1]
    probs = {0: float(raw[0])}
    for i in range(1, half + 1):
        probs[i] = float(raw[i])
        probs[-i] = float(raw[i])
    total = sum(probs.values())
    return {n: p / total for n, p in probs.items()}
