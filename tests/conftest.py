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
