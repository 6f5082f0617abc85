import numpy as np
import pytest

from mdgp import DistanceMatrix, Instance
from mdgp.cli import worked_example_instance

TOL = 1e-9


def random_instance(seed: int, n: int, G: int, a: int, b: int, low: float = 0.0) -> Instance:
    """Seeded instance with uniform distances in [low, 100)."""
    rng = np.random.default_rng(seed)
    cond = rng.uniform(low, 100.0, size=n * (n - 1) // 2)
    return Instance(DistanceMatrix(n, cond), G, a, b)


def seeded_cases(count: int, n_range=(5, 9), groups=(2, 3)):
    """Deterministic ((seed, n, G, a, b), ...) grid with feasible bounds."""
    cases = []
    seed = 0
    for rep in range(10):
        for n in range(n_range[0], n_range[1] + 1):
            for G in groups:
                amax = n // G
                bmin = -(-n // G)
                for a in sorted({1, amax}):
                    for b in sorted({bmin, min(n, bmin + 1)}):
                        if a <= b:
                            cases.append((seed, n, G, a, b))
                            seed += 1
                        if len(cases) >= count:
                            return cases
    return cases


@pytest.fixture
def worked_instance() -> Instance:
    return worked_example_instance()
