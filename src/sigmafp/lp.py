"""Exact rational linear programming with verifiable certificates.

A two-phase tableau simplex on an integer tableau.  The tableau is one
matrix: a row per constraint over the structural, slack and artificial
columns, each row ending in its right-hand side.  While the simplex runs, the
reduced-cost row z sits below the constraint rows, and every pivot is
`linalg.pivot` over all of them, the same fraction-free Gauss-Jordan step
that `rref` uses.  Bland's pivoting rule (lowest eligible index enters,
ratio ties broken by lowest basic index) guarantees termination and makes
every outcome deterministic.  Phase 1 starts from the slack basis where it
can: each row is negated if that makes its right-hand side nonnegative (at
right-hand side 0, if that gives its slack coefficient +1), an inequality
row whose slack then has coefficient +1 starts on that slack, and only the
other rows get an artificial variable.  Phase 1 ends with -z[-1] as its
optimum, and when that is above zero the phase-1 dual, read off each row's
starting column as y_i = 1 - z[artificial i] or y_i = -z[slack i], is a
Farkas certificate of infeasibility.  Unbounded phase-2 runs return an
explicit improving ray.

The tableau holds the rational rows times one positive integer d, which
`pivot` divides by.  Row i scaled by s_i, the lcm of its denominators, is an
integer row starting on the basic column s_i e_i, so d starts at prod(s_i),
the determinant of that basis: Sylvester's identity makes each division
exact from there, and not from the lcm of the s_i or from 1.  The phase-2
objective is scaled by its lcm, which keeps every reduced cost's sign; the
ratio test compares integer cross products; a drive-out pivot on a negative
entry negates every row.  `Fraction`s are built only for the point, the ray
and the Farkas multipliers, so every value, pivot and certificate is that of
the rational simplex.  The reduced-cost row and `verify_farkas` skip zeros.

Outcomes are meant to be re-checked by substitution: `verify_point`,
`verify_farkas`, and `verify_ray` perform those exact checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .linalg import Vector, pivot, vec_dot, vector

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Constraint:
    coeffs: Vector
    relation: str
    rhs: Fraction


def constraint(coeffs, relation: str, rhs) -> Constraint:
    if relation not in _RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    return Constraint(vector(coeffs), relation, Fraction(rhs))


@dataclass(frozen=True)
class LinearProgram:
    """num_vars variables; objective is optional (absent = pure feasibility).

    Variables listed in nonneg_vars are constrained >= 0; the rest are free.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: Vector | None = None
    sense: str = "max"
    nonneg_vars: frozenset[int] = frozenset()

    def __post_init__(self):
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError("constraint length != num_vars")
            if c.relation not in _RELATIONS:
                raise ValueError(f"unknown relation {c.relation!r}")
        if self.objective is not None and len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        if any(j < 0 or j >= self.num_vars for j in self.nonneg_vars):
            raise ValueError("nonneg_vars index out of range")


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    point: Vector | None = None
    value: Fraction | None = None
    farkas: Vector | None = None
    ray: Vector | None = None


def feasibility(num_vars, constraints, nonneg_vars=()) -> LinearProgram:
    return LinearProgram(
        num_vars=num_vars,
        constraints=tuple(constraints),
        nonneg_vars=frozenset(nonneg_vars),
    )


class _Tableau:
    """Standard-form tableau: one row per equality over nonnegative columns,
    with the row's right-hand side as its last entry."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        # Structural columns: one per nonnegative variable, a +/- pair per
        # free variable.
        self.col_var: list[tuple[int, int]] = []
        for j in range(lp.num_vars):
            self.col_var.append((j, 1))
            if j not in lp.nonneg_vars:
                self.col_var.append((j, -1))
        self.n_struct = slack = len(self.col_var)
        # A row is negated when that makes its right-hand side positive, or
        # its slack coefficient +1 at right-hand side 0.  A row whose slack
        # then has coefficient +1 ("<=" kept, ">=" negated) starts on it;
        # every other row gets an artificial column, numbered in row order.
        self.row_sign = [
            -1 if c.rhs < 0 or (c.rhs == 0 and c.relation == GE) else 1
            for c in lp.constraints
        ]
        on_slack = [
            c.relation == (LE if sign == 1 else GE)
            for c, sign in zip(lp.constraints, self.row_sign)
        ]
        self.art0 = art = slack + sum(c.relation != EQ for c in lp.constraints)
        self.n_cols = self.art0 + on_slack.count(False)
        # d starts at prod(s_i), the determinant of the scaled starting basis.
        self.d = d = prod(lcm(c.rhs.denominator, *(a.denominator for a in c.coeffs))
                          for c in lp.constraints)
        self.rows: list[list[int]] = []
        self.basis: list[int] = []
        for c, sign, starts_on_slack in zip(lp.constraints, self.row_sign, on_slack):
            row = [0] * (self.n_cols + 1)
            for col, (j, s) in enumerate(self.col_var):
                a = c.coeffs[j]
                if a:
                    row[col] = s * sign * a.numerator * (d // a.denominator)
            row[-1] = abs(c.rhs.numerator) * (d // c.rhs.denominator)
            if c.relation != EQ:  # one slack per inequality, in row order
                row[slack] = d if starts_on_slack else -d
                if starts_on_slack:
                    self.basis.append(slack)
                slack += 1
            if not starts_on_slack:
                row[art] = d
                self.basis.append(art)
                art += 1
            self.rows.append(row)
        self.start_basis = tuple(self.basis)

    def _run(self, cost: list[int], allowed: list[int]) -> tuple[str, int, list[int]]:
        """Bland simplex to optimality, on integer costs.

        The reduced-cost row z = d (c - c_B B^-1 A, -c_B B^-1 b) rides below
        the constraint rows and is pivoted with them.  Returns ("optimal",
        -1, z) or ("unbounded", entering column, z).
        """
        rows = self.rows
        basis = self.basis
        m = len(rows)
        z = [self.d * c for c in cost] + [0]
        for r, b in enumerate(basis):
            cb = cost[b]
            if cb:
                for j, x in enumerate(rows[r]):
                    if x:
                        z[j] -= cb * x
        rows.append(z)
        while True:
            z = rows[m]
            entering = next((j for j in allowed if z[j] < 0), None)
            if entering is None:
                return "optimal", -1, rows.pop()
            # The least ratio b / a over a > 0, ties to the lower basic index.
            best, best_a, best_b = -1, 1, 0
            for r in range(m):
                a = rows[r][entering]
                if a > 0:
                    b = rows[r][-1]
                    gap = b * best_a - best_b * a
                    if best < 0 or gap < 0 or (gap == 0 and basis[r] < basis[best]):
                        best, best_a, best_b = r, a, b
            if best < 0:
                return "unbounded", entering, rows.pop()
            self.d = pivot(rows, best, entering, self.d)
            basis[best] = entering

    def point(self) -> Vector:
        x = [ZERO] * self.lp.num_vars
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                j, s = self.col_var[b]
                x[j] += s * Fraction(self.rows[r][-1], self.d)
        return tuple(x)

    def ray(self, entering: int) -> Vector:
        d = [ZERO] * self.lp.num_vars
        j, s = self.col_var[entering] if entering < self.n_struct else (None, 0)
        if j is not None:
            d[j] += s
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                jj, ss = self.col_var[b]
                d[jj] -= ss * Fraction(self.rows[r][entering], self.d)
        return tuple(d)

    def farkas(self, z: list[int]) -> Vector:
        """Original-constraint multipliers from the phase-1 reduced costs z/d.

        Row i's starting basic column began as e_i, so its reduced cost is
        its phase-1 cost minus y_i for the phase-1 dual y = c_B B^-1: y_i =
        1 - z[artificial i] for a row that started on an artificial column,
        y_i = -z[slack i] for a row that started on its slack.  The
        translation below turns y into multipliers that aggregate the
        original constraints into an exact contradiction (see verify_farkas
        for the convention).
        """
        mult = []
        for c, sign, b in zip(self.lp.constraints, self.row_sign, self.start_basis):
            zb = Fraction(z[b], self.d)
            u = sign * (ONE - zb if b >= self.art0 else -zb)
            mult.append(u if c.relation == GE else -u)
        return tuple(mult)

    def drive_out_artificials(self) -> None:
        r = 0
        while r < len(self.rows):
            if self.basis[r] >= self.art0:
                col = next(
                    (j for j in range(self.art0) if self.rows[r][j] != 0),
                    None,
                )
                if col is None:
                    # Redundant constraint: drop the row.
                    del self.rows[r], self.basis[r]
                    continue
                self.d = pivot(self.rows, r, col, self.d)
                if self.d < 0:
                    self.rows = [[-a for a in row] for row in self.rows]
                    self.d = -self.d
                self.basis[r] = col
            r += 1


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact status with a certificate: point, optimum, Farkas vector, or ray."""
    tab = _Tableau(lp)
    phase1_cost = [0] * tab.art0 + [1] * (tab.n_cols - tab.art0)
    non_artificial = list(range(tab.art0))
    status, _, z = tab._run(phase1_cost, non_artificial)
    if status != "optimal":  # phase 1 is bounded below by zero
        raise RuntimeError(f"internal error: phase 1 ended {status}")
    if z[-1] < 0:  # the phase-1 optimum -z[-1] is positive: no feasible point
        farkas = tab.farkas(z)
        if not verify_farkas(lp, farkas):
            raise RuntimeError("internal error: invalid Farkas certificate")
        return LpOutcome(status="infeasible", farkas=farkas)
    tab.drive_out_artificials()
    if lp.objective is None:
        point = tab.point()
        if not verify_point(lp, point):
            raise RuntimeError("internal error: infeasible point reported feasible")
        return LpOutcome(status="feasible", point=point)
    # The objective times the lcm of its denominators, a positive scale.
    scale = (-1 if lp.sense == "max" else 1) * lcm(*(a.denominator for a in lp.objective))
    phase2_cost = [0] * tab.n_cols
    for col, (j, s) in enumerate(tab.col_var):
        a = lp.objective[j]
        phase2_cost[col] = s * a.numerator * (scale // a.denominator)
    status, entering, _ = tab._run(phase2_cost, non_artificial)
    point = tab.point()
    if not verify_point(lp, point):
        raise RuntimeError("internal error: infeasible point reported feasible")
    if status == "unbounded":
        ray = tab.ray(entering)
        if not verify_ray(lp, ray):
            raise RuntimeError("internal error: invalid unbounded ray")
        return LpOutcome(status="unbounded", point=point, ray=ray)
    return LpOutcome(status="optimal", point=point, value=vec_dot(lp.objective, point))


def constraint_holds(c: Constraint, x: Vector) -> bool:
    lhs = vec_dot(c.coeffs, x)
    if c.relation == LE:
        return lhs <= c.rhs
    if c.relation == GE:
        return lhs >= c.rhs
    return lhs == c.rhs


def verify_point(lp: LinearProgram, x: Vector) -> bool:
    if len(x) != lp.num_vars:
        return False
    if any(x[j] < 0 for j in lp.nonneg_vars):
        return False
    return all(constraint_holds(c, x) for c in lp.constraints)


def verify_farkas(lp: LinearProgram, mult: Vector) -> bool:
    """Check that the multipliers aggregate to an exact contradiction.

    Convention: multiplier y_i >= 0 scales constraint i kept as "<="
    (">=" rows are negated first; "=" rows take either sign).  The aggregate
    c.x <= beta must have c zero on free variables, c >= 0 on nonnegative
    ones, and beta < 0 -- impossible for any feasible x.
    """
    if len(mult) != len(lp.constraints):
        return False
    agg = [ZERO] * lp.num_vars
    beta = ZERO
    for y, c in zip(mult, lp.constraints):
        if c.relation != EQ and y < 0:
            return False
        if not y:
            continue
        ys = -y if c.relation == GE else y
        for j, a in enumerate(c.coeffs):
            if a:
                agg[j] += ys * a
        if c.rhs:
            beta += ys * c.rhs
    for j, a in enumerate(agg):
        if j in lp.nonneg_vars:
            if a < 0:
                return False
        elif a != 0:
            return False
    return beta < 0


def verify_ray(lp: LinearProgram, d: Vector) -> bool:
    """Check d is a recession direction that strictly improves the objective."""
    if lp.objective is None or len(d) != lp.num_vars:
        return False
    if any(d[j] < 0 for j in lp.nonneg_vars):
        return False
    for c in lp.constraints:
        v = vec_dot(c.coeffs, d)
        if c.relation == LE and v > 0:
            return False
        if c.relation == GE and v < 0:
            return False
        if c.relation == EQ and v != 0:
            return False
    gain = vec_dot(lp.objective, d)
    return gain > 0 if lp.sense == "max" else gain < 0
