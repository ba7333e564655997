import math

import numpy as np
import pytest
from hypothesis import strategies as st

from ellip1d import QuadratureRule, builtin_problem, constant_field
from ellip1d.problems import Problem, ScalarField


@pytest.fixture(scope="session")
def rule3():
    return QuadratureRule.gauss(3)


@pytest.fixture(scope="session")
def rule5():
    return QuadratureRule.gauss(5)


@pytest.fixture(scope="session")
def ex1():
    return builtin_problem("ex1")


@pytest.fixture(scope="session")
def ex2():
    return builtin_problem("ex2")


@pytest.fixture(scope="session")
def ex3():
    return builtin_problem("ex3")


@pytest.fixture(scope="session")
def ex4():
    return builtin_problem("ex4")


def tridiagonal_matvec(system, x):
    """A x for a TridiagonalSystem's matrix; used for residual checks."""
    y = system.diag * x
    y[:-1] += system.sup * x[1:]
    y[1:] += system.sub * x[:-1]
    return y


def explicit_tail(psi: float, m: int) -> float:
    """sum_{j>m} (-psi)^j / j! as math.fsum of each term computed on its own.

    For |psi| <= 3 the forty terms leave out less than 1e-28 of the tail.
    """
    return math.fsum((-psi) ** j / math.factorial(j) for j in range(m + 1, m + 41))


def unit_problem(f=None, alpha=0.0, beta=0.0, name="unit"):
    """Problem with kappa = 1 and the given data; u0 is its exact solution."""
    return Problem(
        name=name,
        length=1.0,
        kappa=constant_field(1.0),
        f=f if f is not None else constant_field(1.0),
        alpha=alpha,
        beta=beta,
    )


def field(fn, description=""):
    return ScalarField(lambda x: np.broadcast_to(np.asarray(fn(x), float), x.shape),
                       description)


def _trig(c, length):
    """c[0] + sum_j (c[2j-1] cos + c[2j] sin)(j pi x / length)."""
    def fn(x):
        t = np.pi * x / length
        out = np.full(x.shape, c[0])
        for j in range(1, len(c) // 2 + 1):
            out = out + c[2 * j - 1] * np.cos(j * t) + c[2 * j] * np.sin(j * t)
        return out
    return fn


@st.composite
def positive_problems(draw, max_n, psi_amp):
    """(problem, N) with kappa = exp(psi), psi a random degree-2 trig
    polynomial whose coefficients lie in [-psi_amp, psi_amp], and random
    alpha, beta and trig-polynomial f with coefficients in [-1, 1]."""
    unit = st.integers(-100, 100).map(lambda i: i / 100)
    five = st.lists(unit, min_size=5, max_size=5)
    length = draw(st.sampled_from([0.5, 1.0, 3.0]))
    psi = _trig([psi_amp * c for c in draw(five)], length)
    problem = Problem(
        name="random",
        length=length,
        kappa=field(lambda x: np.exp(psi(x))),
        f=field(_trig(draw(five), length)),
        alpha=draw(unit),
        beta=draw(unit),
    )
    return problem, draw(st.integers(1, max_n))
