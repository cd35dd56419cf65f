import pytest

from sigmafp import lp


@pytest.fixture()
def solved_lps(monkeypatch):
    """Every problem handed to `lp.solve` during the test, in call order."""
    solved = []
    real_solve = lp.solve

    def counting_solve(problem):
        solved.append(problem)
        return real_solve(problem)

    monkeypatch.setattr(lp, "solve", counting_solve)
    return solved


@pytest.fixture()
def simplex_pivots(monkeypatch):
    """A one-item list counting the simplex's pivots during the test."""
    count = [0]
    real_pivot = lp.pivot

    def counting_pivot(rows, r, c):
        count[0] += 1
        real_pivot(rows, r, c)

    monkeypatch.setattr(lp, "pivot", counting_pivot)
    return count
