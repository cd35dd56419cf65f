import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import enumerate_vertices
from sigmafp import lp
from sigmafp.decisions import run_measure_experiment
from sigmafp.formats import load_fixture

F = Fraction


def test_simple_max():
    problem = lp.LinearProgram(
        num_vars=1,
        constraints=(lp.constraint([1], lp.LE, 3),),
        objective=(F(1),),
        sense="max",
        nonneg_vars=frozenset({0}),
    )
    out = lp.solve(problem)
    assert out.status == "optimal"
    assert out.point == (F(3),)
    assert out.value == F(3)


def test_infeasible_with_farkas():
    problem = lp.feasibility(
        1, [lp.constraint([1], lp.GE, 1), lp.constraint([1], lp.LE, 0)]
    )
    out = lp.solve(problem)
    assert out.status == "infeasible"
    # multipliers (1, 1): 1*(x >= 1) + 1*(x <= 0) aggregates to 0 >= 1
    assert out.farkas == (F(1), F(1))
    assert lp.verify_farkas(problem, out.farkas)


def _simplex_line_distance_lp():
    # min t with lam on the 2-simplex, s free, |lam1 - s| <= t, |lam2 + s| <= t:
    # L-infinity distance of conv{e1, e2} to span{(1, -1)}.
    # vars: lam1, lam2, s, t
    cons = [
        lp.constraint([1, 1, 0, 0], lp.EQ, 1),
        lp.constraint([1, 0, -1, -1], lp.LE, 0),
        lp.constraint([1, 0, -1, 1], lp.GE, 0),
        lp.constraint([0, 1, 1, -1], lp.LE, 0),
        lp.constraint([0, 1, 1, 1], lp.GE, 0),
    ]
    return lp.LinearProgram(
        num_vars=4,
        constraints=tuple(cons),
        objective=(F(0), F(0), F(0), F(1)),
        sense="min",
        nonneg_vars=frozenset({0, 1}),
    )


def test_distance_lp_brute_force_grid():
    """Independent oracle for the frozen 1/2: min-max over a fine grid."""
    best = None
    steps = 20
    for i in range(steps + 1):
        lam1 = F(i, steps)
        lam2 = 1 - lam1
        for j in range(-2 * steps, 2 * steps + 1):
            s = F(j, steps)
            val = max(abs(lam1 - s), abs(lam2 + s))
            best = val if best is None else min(best, val)
    assert best == F(1, 2)


def test_distance_lp_value():
    out = lp.solve(_simplex_line_distance_lp())
    assert out.status == "optimal"
    assert out.value == F(1, 2)
    lam1, lam2, s, t = out.point
    assert lam1 + lam2 == 1 and t == F(1, 2)


def test_unbounded_returns_verified_ray():
    problem = lp.LinearProgram(
        num_vars=2,
        constraints=(lp.constraint([1, -1], lp.LE, 1),),
        objective=(F(1), F(0)),
        sense="max",
        nonneg_vars=frozenset({0, 1}),
    )
    out = lp.solve(problem)
    assert out.status == "unbounded"
    assert lp.verify_ray(problem, out.ray)
    assert lp.verify_point(problem, out.point)


def test_free_variables_and_equalities():
    # x free, y >= 0: x + y = 2, x <= -1  ->  optimal y at least 3
    problem = lp.LinearProgram(
        num_vars=2,
        constraints=(
            lp.constraint([1, 1], lp.EQ, 2),
            lp.constraint([1, 0], lp.LE, -1),
        ),
        objective=(F(0), F(1)),
        sense="min",
        nonneg_vars=frozenset({1}),
    )
    out = lp.solve(problem)
    assert out.status == "optimal"
    assert out.value == F(3)
    assert lp.verify_point(problem, out.point)


def test_pure_feasibility_point_verified():
    problem = lp.feasibility(
        2,
        [
            lp.constraint([1, 1], lp.GE, 1),
            lp.constraint([1, -2], lp.EQ, 0),
        ],
        nonneg_vars=[0, 1],
    )
    out = lp.solve(problem)
    assert out.status == "feasible"
    assert lp.verify_point(problem, out.point)


def test_deterministic():
    problem = _simplex_line_distance_lp()
    assert lp.solve(problem) == lp.solve(problem)


def test_redundant_equalities_dropped():
    # duplicate equality rows leave an artificial basic at zero with no
    # structural pivot; the row must be dropped, not crash phase 2
    problem = lp.LinearProgram(
        num_vars=2,
        constraints=(
            lp.constraint([1, 1], lp.EQ, 1),
            lp.constraint([1, 1], lp.EQ, 1),
            lp.constraint([2, 2], lp.EQ, 2),
        ),
        objective=(F(1), F(0)),
        sense="max",
        nonneg_vars=frozenset({0, 1}),
    )
    out = lp.solve(problem)
    assert out.status == "optimal"
    assert out.value == F(1)


def test_beale_degenerate_lp_reaches_optimum():
    # Beale (1955): Dantzig's rule cycles on this degenerate LP from the
    # slack basis.  Every row here is "<=" with a nonnegative right-hand
    # side, so phase 1 starts on exactly that basis and phase 2 runs from
    # it: the test pins Bland's anti-cycling rule.
    problem = lp.LinearProgram(
        num_vars=4,
        constraints=(
            lp.constraint([F(1, 4), -60, F(-1, 25), 9], lp.LE, 0),
            lp.constraint([F(1, 2), -90, F(-1, 50), 3], lp.LE, 0),
            lp.constraint([0, 0, 1, 0], lp.LE, 1),
        ),
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        sense="max",
        nonneg_vars=frozenset(range(4)),
    )
    out = lp.solve(problem)
    assert out.status == "optimal"
    assert out.value == F(1, 20)
    assert out.point == (F(1, 25), F(0), F(1), F(0))


def test_malformed_rejected():
    with pytest.raises(ValueError):
        lp.LinearProgram(num_vars=2, constraints=(lp.constraint([1], lp.LE, 0),))
    with pytest.raises(ValueError):
        lp.constraint([1], "<", 0)


def test_farkas_rejects_wrong_multipliers():
    problem = lp.feasibility(
        1, [lp.constraint([1], lp.GE, 1), lp.constraint([1], lp.LE, 0)]
    )
    assert not lp.verify_farkas(problem, (F(1), F(0)))
    assert not lp.verify_farkas(problem, (F(-1), F(1)))


def _starts_on_slack(c: lp.Constraint) -> bool:
    return (c.relation == lp.LE and c.rhs >= 0) or (c.relation == lp.GE and c.rhs <= 0)


def _seeded_feasibility_lps():
    """400 small feasibility LPs over x >= 0: mixed "<=", ">=" and "=" rows
    with integer coefficients and right-hand sides of every sign."""
    rnd = random.Random(8)
    for _ in range(400):
        n = rnd.randint(1, 3)
        constraints = tuple(
            lp.constraint(
                [rnd.randint(-3, 3) for _ in range(n)],
                rnd.choice([lp.LE, lp.LE, lp.GE, lp.GE, lp.EQ]),
                rnd.randint(-3, 3),
            )
            for _ in range(rnd.randint(1, 4))
        )
        yield lp.feasibility(n, constraints, nonneg_vars=range(n))


def test_feasibility_from_slack_start_matches_vertex_oracle(simplex_pivots):
    # Mixed "<=", ">=" and "=" rows with right-hand sides of every sign:
    # the verdict must agree with vertex enumeration, and both kinds of
    # certificate must verify, whichever rows start on their slacks.
    seen = {"all_on_slack": 0, "infeasible": 0, "slack_row_in_farkas": 0}
    for problem in _seeded_feasibility_lps():
        constraints = problem.constraints
        simplex_pivots[0] = 0
        out = lp.solve(problem)
        if out.status == "infeasible":
            assert not enumerate_vertices(problem)
            assert lp.verify_farkas(problem, out.farkas)
            seen["infeasible"] += 1
            seen["slack_row_in_farkas"] += any(
                y != 0 and _starts_on_slack(c) for y, c in zip(out.farkas, constraints)
            )
        else:
            assert out.status == "feasible" and enumerate_vertices(problem)
            assert lp.verify_point(problem, out.point)
        if all(_starts_on_slack(c) for c in constraints):
            # the slack basis is feasible: phase 1 has nothing to do
            assert out.status == "feasible" and simplex_pivots[0] == 0
            seen["all_on_slack"] += 1
    assert all(v >= 20 for v in seen.values()), seen


def _seeded_general_lps():
    """300 small LPs over the paths `measure` seldom takes: each row with its
    own denominators, "<=", ">=" and "=" rows, many of them degenerate
    (right-hand side 0), free variables, duplicated rows, and a fractional
    objective under max and min, or none."""
    rnd = random.Random(12)
    for _ in range(300):
        n = rnd.randint(1, 3)
        constraints = []
        for _ in range(rnd.randint(1, 3)):
            den = rnd.choice([1, 2, 3, 4, 6])
            constraints.append(lp.constraint(
                [F(rnd.randint(-4, 4), den) for _ in range(n)],
                rnd.choice([lp.LE, lp.GE, lp.EQ, lp.EQ]),
                0 if rnd.random() < 0.3 else F(rnd.randint(-4, 4), rnd.choice([1, den])),
            ))
        if rnd.random() < 0.4:
            constraints.insert(rnd.randint(0, len(constraints)), rnd.choice(constraints))
        objective = None
        if rnd.random() < 0.8:
            objective = tuple(F(rnd.randint(-3, 3), rnd.choice([1, 2, 5])) for _ in range(n))
        yield lp.LinearProgram(
            num_vars=n,
            constraints=tuple(constraints),
            objective=objective,
            sense=rnd.choice(["max", "min"]),
            nonneg_vars=frozenset(j for j in range(n) if rnd.random() < 0.6),
        )


def _split_free_variables(problem):
    """The same LP over nonnegative variables only: a free x_j is x+ - x-."""
    columns = [(j, s) for j in range(problem.num_vars)
               for s in ((1,) if j in problem.nonneg_vars else (1, -1))]

    def split(v):
        return tuple(s * v[j] for j, s in columns)

    return lp.LinearProgram(
        num_vars=len(columns),
        constraints=tuple(lp.Constraint(split(c.coeffs), c.relation, c.rhs)
                          for c in problem.constraints),
        objective=None if problem.objective is None else split(problem.objective),
        sense=problem.sense,
        nonneg_vars=frozenset(range(len(columns))),
    )


def test_general_lps_match_vertex_oracle(monkeypatch):
    # The integer tableau is exact only from its denominator prod(s_i): the
    # rows' different denominators, the scaled objective, the free
    # variables' column pairs, the dropped duplicate rows and the
    # drive-out pivots on negative entries must all leave the verdict and
    # optimum of vertex enumeration, with verified certificates.
    seen = Counter()
    real_pivot = lp.pivot
    real_drive_out = lp._Tableau.drive_out_artificials

    def recording_pivot(rows, r, c, d):
        # the simplex pivots on positive entries only; drive-out on any
        seen["negative pivot"] += rows[r][c] < 0
        return real_pivot(rows, r, c, d)

    def recording_drive_out(tab):
        kept = len(tab.rows)
        real_drive_out(tab)
        seen["row dropped"] += len(tab.rows) < kept

    monkeypatch.setattr(lp, "pivot", recording_pivot)
    monkeypatch.setattr(lp._Tableau, "drive_out_artificials", recording_drive_out)
    for problem in _seeded_general_lps():
        out = lp.solve(problem)
        split = _split_free_variables(problem)
        vertices = enumerate_vertices(split)
        seen[out.status, problem.sense] += 1
        seen["free variables"] += len(problem.nonneg_vars) < problem.num_vars
        if out.status == "infeasible":
            assert not vertices and lp.verify_farkas(problem, out.farkas), problem
            continue
        assert vertices and lp.verify_point(problem, out.point), problem
        if out.status == "unbounded":
            assert lp.verify_ray(problem, out.ray), problem
        elif out.status == "optimal":
            values = [lp.vec_dot(split.objective, v) for v in vertices]
            best = max(values) if problem.sense == "max" else min(values)
            assert out.value == best, problem
        else:
            assert out.status == "feasible" and problem.objective is None
    assert min(seen.values()) >= 10 and len(seen) == 11, seen


def test_measure_rows_keep_their_simplex_pivots(simplex_pivots):
    # The LPs `measure` builds have no row that starts on its slack, so the
    # slack start leaves their pivot sequences exactly as they were.  They
    # are the maximal pieces' slice LPs; `measure` names no witness.
    for fixture, k in (("f1", 1), ("f2", 4), ("f3", 1), ("f4", 2), ("f4", 3)):
        run_measure_experiment(load_fixture(fixture), k, 200, 42)
    assert simplex_pivots[0] == 1165


def dense_verify_farkas(problem, mult):
    """Reference Farkas check: every row and every coefficient, zeros included."""
    if len(mult) != len(problem.constraints):
        return False
    agg = [F(0)] * problem.num_vars
    beta = F(0)
    for y, c in zip(mult, problem.constraints):
        if c.relation != lp.EQ and y < 0:
            return False
        s = -1 if c.relation == lp.GE else 1
        for j, a in enumerate(c.coeffs):
            agg[j] += y * s * a
        beta += y * s * c.rhs
    for j, a in enumerate(agg):
        if (a < 0) if j in problem.nonneg_vars else (a != 0):
            return False
    return beta < 0


def _perturbed_multipliers(mult, rnd):
    m = len(mult)
    yield mult
    yield tuple(2 * y for y in mult)
    for i in range(m):
        for delta in (F(1), F(-1), F(1, 2)):
            yield mult[:i] + (mult[i] + delta,) + mult[i + 1:]
        yield mult[:i] + (F(0),) + mult[i + 1:]
        # a negative multiplier after rows whose multiplier is zero
        yield (F(0),) * i + (F(-1),) + mult[i + 1:]
    yield tuple(F(rnd.choice([0, 0, 1, -1, 2])) for _ in range(m))


def test_verify_farkas_matches_dense_reference_on_seeded_lps():
    rnd = random.Random(9)
    verdicts = {True: 0, False: 0}
    negative_after_zeros = 0
    for problem in _seeded_feasibility_lps():
        out = lp.solve(problem)
        base = out.farkas if out.status == "infeasible" else (F(1),) * len(problem.constraints)
        free = lp.feasibility(problem.num_vars, problem.constraints)
        for p in (problem, free):
            for mult in _perturbed_multipliers(base, rnd):
                expected = dense_verify_farkas(p, mult)
                assert lp.verify_farkas(p, mult) == expected, (p, mult)
                verdicts[expected] += 1
                first = next((i for i, y in enumerate(mult) if y), None)
                if (first and mult[first] < 0
                        and p.constraints[first].relation != lp.EQ):
                    assert not lp.verify_farkas(p, mult)
                    negative_after_zeros += 1
        assert not lp.verify_farkas(problem, base[:-1])
    assert min(verdicts.values()) >= 100 and negative_after_zeros >= 100, (
        verdicts, negative_after_zeros)


def test_solve_leaves_its_lp_unchanged():
    problems = list(_seeded_feasibility_lps())[:100] + [_simplex_line_distance_lp()]
    for problem in problems:
        before = pickle.loads(pickle.dumps(problem))
        lp.solve(problem)
        assert problem == before
        assert all(type(c.coeffs) is tuple for c in problem.constraints)
