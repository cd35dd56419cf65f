import pytest

from sigmafp import linalg, lp


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

    def counting_pivot(rows, r, c, d):
        count[0] += 1
        return real_pivot(rows, r, c, d)

    monkeypatch.setattr(lp, "pivot", counting_pivot)
    return count


@pytest.fixture()
def exact_ranks(monkeypatch):
    """Matrices handed to the exact fallback `linalg.rank`, in call order."""
    seen = []
    real_rank = linalg.rank

    def counting_rank(m):
        seen.append(m)
        return real_rank(m)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    return seen


@pytest.fixture()
def exact_rrefs(monkeypatch):
    """Matrices handed to `linalg.rref`, in call order."""
    seen = []
    real_rref = linalg.rref

    def counting_rref(m):
        seen.append(m)
        return real_rref(m)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    return seen
