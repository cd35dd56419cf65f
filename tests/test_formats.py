import json
from fractions import Fraction

import pytest

from sigmafp.errors import ProblemFormatError
from sigmafp.formats import (
    MeasureReport,
    fixture_text,
    load_fixture,
    parse_problem,
    parse_rational,
    parse_subspace,
    serialize_problem,
    serialize_report,
    serialize_subspace,
)
from sigmafp.linalg import Subspace

F = Fraction


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-2/5") == F(-2, 5)
    assert parse_rational("4/6") == F(2, 3)
    for bad in ("1/0", "1.5", "+3", " 1", "1 /2", "a", 2, None, "--1", "1/-2", "1" * 5000,
                "\u0661", "\u0663/\u0664", "\uff11", "1\n"):
        with pytest.raises(ProblemFormatError):
            parse_rational(bad)


def test_fixture_f1_parses():
    p = load_fixture("f1")
    assert p.total_dim == 2
    assert p.max_rank == 1
    assert [f.name for f in p.factors] == ["a", "b"]


def test_fixture_f3_polycyclic_factor():
    p = load_fixture("f3")
    assert p.total_dim == 3
    assert not p.factors[2].sigma_c.pieces
    assert p.factors[0].sigma_c.pieces


def test_all_fixtures_load():
    dims = {"f1": 2, "f2": 6, "f3": 3, "f4": 4}
    for name, n in dims.items():
        assert load_fixture(name).total_dim == n
    with pytest.raises(ProblemFormatError):
        fixture_text("f9")


def test_problem_round_trip():
    for name in ("f1", "f2", "f3", "f4"):
        text = fixture_text(name)
        p = parse_problem(text)
        text2 = serialize_problem(p)
        assert parse_problem(text2) == p
        assert serialize_problem(parse_problem(text2)) == text2


def test_parse_problem_errors():
    with pytest.raises(ProblemFormatError, match="line 1"):
        parse_problem("{not json")
    with pytest.raises(ProblemFormatError, match="factors"):
        parse_problem("{}")
    with pytest.raises(ProblemFormatError, match="rank"):
        parse_problem('{"factors": [{"name": "a", "sigma_c": []}]}')
    with pytest.raises(ProblemFormatError, match="zero denominator"):
        parse_problem(
            '{"factors": [{"name": "a", "rank": 1, "sigma_c": [{"generators": [["1/0"]]}]}]}'
        )
    with pytest.raises(ProblemFormatError, match="nonzero"):
        parse_problem(
            '{"factors": [{"name": "a", "rank": 2, "sigma_c": [{"generators": [["0", "0"]]}]}]}'
        )
    with pytest.raises(ProblemFormatError, match=r"generators\[0\]"):
        parse_problem(
            '{"factors": [{"name": "a", "rank": 2, "sigma_c": [{"generators": [["1"]]}]}]}'
        )


def test_subspace_round_trip():
    s = Subspace.span([[1, -1], [2, 0]])
    text = serialize_subspace(s)
    assert parse_subspace(text) == s
    # any spanning set is canonicalised
    assert parse_subspace('{"basis": [["2", "2"]]}') == Subspace.span([[1, 1]])
    zero = parse_subspace('{"ambient_dim": 3, "basis": []}')
    assert zero == Subspace.zero(3)
    with pytest.raises(ProblemFormatError):
        parse_subspace('{"basis": []}')
    with pytest.raises(ProblemFormatError):
        parse_subspace('{"basis": [["1", "0"]]}', ambient_dim=3)


def test_report_round_trip_and_determinism():
    report = MeasureReport(
        k=4,
        samples=100,
        seed=42,
        vsp_failures=0,
        nonfp_count=3,
        theorem_a_applicable=True,
        gamma_dim=2,
        elapsed_ms=17,
    )
    text = serialize_report(report)
    assert MeasureReport(**json.loads(text)) == report
    assert serialize_report(report) == text
    assert text.index('"elapsed_ms"') < text.index('"gamma_dim"')  # sorted keys
