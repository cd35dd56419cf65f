import json

import pytest

from sigmafp import cli, cones
from sigmafp.cli import main
from sigmafp.formats import fixture_text


@pytest.fixture()
def f1(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(fixture_text("f1"))
    return str(path)


def subspace_file(tmp_path, rows, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"basis": [[str(e) for e in r] for r in rows]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fp_fp_point(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [[1, -1]])
    code, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub])
    assert code == 0
    assert "check-fp [Lemma: Γ ∩ S° = {0}] → finitely presented" in out


def test_check_fp_nonfp_point(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [[1, 1]])
    code, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub])
    assert code == 0
    assert "NOT finitely presented" in out
    assert "witness ray = (1, 1)" in out


def test_check_fp_certify(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [[1, -1]])
    code, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub, "--certify"])
    assert code == 0
    assert "δ = 1/4" in out


def test_check_vsp(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [[1, 0]])
    code, out, _ = run(capsys, ["check-vsp", f1, "--subspace", sub])
    assert code == 0
    assert "NOT a virtual subdirect product" in out


def test_check_vsp_builds_no_rref(f1, tmp_path, capsys, exact_rrefs):
    # the parsed S° is kept on its rows scaled to integers, and the vsp test
    # reads their residues mod P: no RREF basis is built
    lemma = "check-vsp [Lemma: S° ∩ G_i* = {0} for each i] → "
    for rows, verdict in (
        ([[1, -1]], "virtual subdirect product"),
        ([[1, 0]], "NOT a virtual subdirect product"),
        ([["1/2", 3]], "virtual subdirect product"),
    ):
        sub = subspace_file(tmp_path, rows)
        assert run(capsys, ["check-vsp", f1, "--subspace", sub]) == (0, lemma + verdict + "\n", "")
    assert exact_rrefs == []


def test_check_fp_precondition_exit_code(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [[1, 0]])
    code, _, err = run(capsys, ["check-fp", f1, "--subspace", sub])
    assert code == 3
    assert "precondition" in err


def test_oversized_subspace_is_a_file_error(f1, tmp_path, capsys):
    # f1 has N = 2 and max rank 1, so S° may have dimension at most 1
    sub = subspace_file(tmp_path, [[1, 0], [0, 1]])
    for argv in (["check-vsp", f1], ["check-fp", f1], ["check-fp", f1, "--certify"]):
        code, out, err = run(capsys, argv + ["--subspace", sub])
        assert (code, out) == (2, "")
        assert err == (
            "error: subspace of dimension 2 leaves k=0 below the maximal factor rank 1; "
            "its dimension can be at most 1\n"
        )


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"factors": [{"name": "a", "rank": 1, "sigma_c": [{"generators": [["1/0"]]}]}]}')
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "zero denominator" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["gamma", "/nonexistent/problem.json"])
    assert code == 2
    assert "cannot read" in err


def test_file_that_is_not_utf8_is_a_file_error(f1, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"basis": [["1", "\xff"]]}')
    for argv in (["gamma", str(bad)], ["check-fp", f1, "--subspace", str(bad)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out
        assert err == f"error: cannot read {bad}: not UTF-8 (invalid start byte at byte 18)\n"


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "nontame.json"
    bad.write_text(
        json.dumps(
            {
                "factors": [
                    {"name": "a", "rank": 1, "sigma_c": [
                        {"generators": [["1"]]},
                        {"generators": [["-1"]]},
                    ]},
                    {"name": "b", "rank": 1, "sigma_c": [{"generators": [["1"]]}]},
                ]
            }
        )
    )
    code, out, _ = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "ERROR" in out and "not tame" in out
    # non-validate commands refuse the same data at exit 2
    code, _, err = run(capsys, ["gamma", str(bad)])
    assert code == 2


def test_usage_error_exit_code(f1, capsys):
    assert run(capsys, ["measure", f1, "--k", "1", "--samples", "10"])[0] == 1  # no --seed
    assert run(capsys, ["nonexistent-command"])[0] == 1
    # k out of range inside the library surfaces as usage
    assert run(capsys, ["nonfp-witness", f1, "--k", "5"])[0] == 1
    assert run(capsys, ["nonfp-box", f1, "--k", "3"]) == (
        1, "", "usage error: k must satisfy 1 <= k <= 2, got 3\n")


def test_refusal_exit_code(f1, tmp_path, capsys):
    f2 = tmp_path / "f2.json"
    f2.write_text(fixture_text("f2"))
    code, _, err = run(capsys, ["nonfp-box", str(f2), "--k", "4"])
    assert code == 4
    assert "refused" in err


def test_gamma_output(f1, capsys):
    code, out, _ = run(capsys, ["gamma", f1])
    assert code == 0
    assert "dim 2, 3 pieces" in out


def test_gamma_builds_no_rref_on_f4(tmp_path, capsys, exact_rrefs):
    # f4's Γ has pieces with dependent generators; their spans, and so the
    # piece dimensions, are read off integer rows with no RREF basis built
    cones._cone_span.cache_clear()
    path = tmp_path / "f4.json"
    path.write_text(fixture_text("f4"))
    code, out, _ = run(capsys, ["gamma", str(path)])
    assert code == 0 and out.startswith("gamma [Γ = Σ^c + Σ^c] → dim 3, 6 pieces\n")
    assert exact_rrefs == []


def test_tame_and_validate(f1, capsys):
    code, out, _ = run(capsys, ["tame", f1])
    assert code == 0
    assert "all factors tame" in out
    code, out, _ = run(capsys, ["validate", f1])
    assert code == 0
    assert "→ OK" in out


def test_construct_rho_output(f1, capsys):
    code, out, _ = run(capsys, ["construct-rho", f1])
    assert code == 0
    assert "verified: true" in out
    assert "finitely presented" in out


def test_construct_rho_decides_each_factor_tame_once_on_f1(f1, capsys, solved_lps):
    code, _, _ = run(capsys, ["construct-rho", f1])
    assert code == 0
    # tameness, decided once per factor, and the sign scan's line test for
    # rho = -1 (also its post-check) all meet independent generators and
    # solve no LP; one slice LP decides the point's check-fp
    assert len(solved_lps) == 1


def test_construct_rho_names_no_witness_on_f4(tmp_path, capsys, monkeypatch):
    # The gap scan rejects a candidate direction on the verdict alone: the
    # scan stops at the maximal pieces and names no witness ray.
    scans = []
    real_witness = cones._Scan.witness

    def counting_witness(self, piece):
        scans.append(piece[0])
        return real_witness(self, piece)

    monkeypatch.setattr(cones._Scan, "witness", counting_witness)
    path = tmp_path / "f4.json"
    path.write_text(fixture_text("f4"))
    code, out, _ = run(capsys, ["construct-rho", str(path)])
    assert code == 0 and "gap-scan" in out
    assert scans == []


def test_nonfp_commands(f1, capsys):
    code, out, _ = run(capsys, ["nonfp-witness", f1, "--k", "1"])
    assert code == 0
    assert "S° basis rows: (1, 1)" in out
    code, out, _ = run(capsys, ["nonfp-box", f1, "--k", "1"])
    assert code == 0
    assert out.count("NOT finitely presented") == 10


def test_byte_identical_output(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [[1, -1]])
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub, "--certify"])
        outputs.add(out)
    assert len(outputs) == 1


def test_measure_output_and_jobs(f1, capsys):
    def report_without_elapsed(argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        data = json.loads(out)
        data.pop("elapsed_ms")
        return json.dumps(data, sort_keys=True)

    base = ["measure", f1, "--k", "1", "--samples", "40", "--seed", "3"]
    serial = report_without_elapsed(base)
    again = report_without_elapsed(base)
    parallel = report_without_elapsed(base + ["--jobs", "4"])
    assert serial == again == parallel


def test_warnings_go_to_stderr(tmp_path, capsys):
    warny = tmp_path / "warn.json"
    warny.write_text(
        json.dumps(
            {
                "factors": [
                    {
                        "name": "big",
                        "rank": 3,
                        "sigma_c": [
                            {"generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
                        ],
                    }
                ]
            }
        )
    )
    code, out, err = run(capsys, ["gamma", str(warny)])
    assert code == 0
    assert "WARNING" in err and "WARNING" not in out


def test_boolean_counts_rejected(tmp_path, capsys):
    # JSON true is a Python int; it must not pass as a rank or a dimension
    bad = tmp_path / "bool_rank.json"
    bad.write_text(json.dumps({"factors": [{"name": "a", "rank": True, "sigma_c": []}]}))
    code, out, err = run(capsys, ["validate", str(bad)])
    assert code == 2
    assert "rank: must be a positive integer" in err and "max rank" not in out
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"factors": [{"name": "a", "rank": 1, "sigma_c": []}]}))
    sub = tmp_path / "bool_dim.json"
    sub.write_text(json.dumps({"basis": [], "ambient_dim": True}))
    code, _, err = run(capsys, ["check-vsp", str(one), "--subspace", str(sub)])
    assert code == 2
    assert "'ambient_dim' must be a positive integer" in err


def test_overlong_rational_is_a_parse_error(f1, tmp_path, capsys):
    sub = subspace_file(tmp_path, [["1" * 5000, 1]])
    code, _, err = run(capsys, ["check-fp", f1, "--subspace", sub])
    assert code == 2
    assert "basis[0][0]" in err and "too long" in err


def test_certify_skipped_on_nonfp_point(f1, tmp_path, capsys, monkeypatch):
    def not_called(*args):
        raise AssertionError("a certificate was attempted on a non-FP point")

    monkeypatch.setattr(cli, "openness_certificate", not_called)
    sub = subspace_file(tmp_path, [[1, 1]])
    code, out, err = run(capsys, ["check-fp", f1, "--subspace", sub, "--certify"])
    assert code == 3
    assert "NOT finitely presented; witness ray = (1, 1)" in out
    assert err == "precondition failed: certificates exist only for FP points\n"


def test_internal_error_exit_code(f1, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("internal error: constructed point decided FP")

    monkeypatch.setattr(cli, "construct_nonfp_witness", broken)
    code, out, err = run(capsys, ["nonfp-witness", f1, "--k", "1"])
    assert (code, out) == (5, "")
    assert err == "internal error: constructed point decided FP\n"


def test_measure_seed_out_of_range_exit_code(f1, capsys):
    base = ["measure", f1, "--k", "1", "--samples", "5", "--seed"]
    for seed in ("-1", str(1 << 64)):
        code, out, err = run(capsys, base + [seed])
        assert (code, out) == (1, "")
        assert err == "usage error: seed must lie in [0, 2**64)\n"
    assert run(capsys, base + [str((1 << 64) - 1)])[0] == 0


def test_measure_nonpositive_jobs_exit_code(f1, capsys):
    for jobs in ("0", "-3"):
        argv = ["measure", f1, "--k", "1", "--samples", "4", "--seed", "1", "--jobs", jobs]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "usage error: jobs must be positive\n"


def test_check_fp_solves_one_slice_lp_on_f1(f1, tmp_path, capsys, solved_lps):
    sub = subspace_file(tmp_path, [[1, -1]])
    code, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub])
    assert code == 0
    assert "check-fp [Lemma: Γ ∩ S° = {0}] → finitely presented" in out
    # each factor's single generator settles its tameness with no LP; one
    # slice LP decides the point
    assert len(solved_lps) == 1


def test_one_parser_serves_successive_calls(f1, tmp_path, capsys):
    # The parser is built once per process; an option given to one call
    # must not carry over to the next.
    sub = subspace_file(tmp_path, [[1, -1]])
    assert run(capsys, ["check-fp", f1])[0] == 1  # no --subspace
    code, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub, "--certify"])
    assert code == 0 and "certificate [" in out and "vsp margin:" in out
    code, out, _ = run(capsys, ["check-fp", f1, "--subspace", sub])
    assert code == 0
    assert out == "check-fp [Lemma: Γ ∩ S° = {0}] → finitely presented\n"
    assert cli._build_parser() is cli._build_parser()
