"""Golden tests for the command-line frontend.

Each documented example is pinned byte for byte where the contract fixes
the text, and structurally where only the data is fixed.  JSON output is
checked to re-parse into the exact values the library produces, and the
table mode is checked to be a projection of the same data.
"""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import hookw
import hookw.cli as cli
from hookw._record import replace
from hookw.curves import TruncationCurve
from hookw.exact import PoleError, RatFunc, parse_ratfunc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def fam(tag, n, m):
    return hookw.HookFamily.from_tag(tag, n, m)


class TestSweepSpec:
    def test_parse(self):
        assert cli.parse_sweep("n=0..3,m=0..3", ("n", "m")) == {
            "n": (0, 3),
            "m": (0, 3),
        }
        assert cli.parse_sweep(" r=2 ", ("n", "r")) == {"r": (2, 2)}
        assert cli.parse_sweep("", ("n",)) == {}

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            cli.parse_sweep("q=0..3", ("n", "m"))
        with pytest.raises(ValueError):
            cli.parse_sweep("n=0..3,n=1..2", ("n",))
        with pytest.raises(ValueError):
            cli.parse_sweep("n=3..0", ("n",))
        with pytest.raises(ValueError):
            cli.parse_sweep("n0..3", ("n",))

    def test_spec_cap_and_size(self):
        spec = cli.SweepSpec({"n": (0, 3), "m": (1, 2)})
        assert spec.size == 8
        assert list(spec.values("m")) == [1, 2]
        assert spec.text() == "n=0..3, m=1..2"
        with pytest.raises(ValueError):
            cli.SweepSpec({"n": (0, 99), "m": (0, 99)}, max_cells=100)
        with pytest.raises(ValueError):
            cli.SweepSpec({"n": (3, 0)})


class TestCharge:
    def test_rational_psi_golden(self, capsys):
        code, out, err = run(
            capsys, "charge", "--family", "2B", "--n", "1", "--m", "1", "--psi", "1"
        )
        assert code == 0
        assert out == "c = -25/2\n"

    def test_symbolic_matches_library(self, capsys):
        payload = run_json(
            capsys, "charge", "--family", "2B", "--n", "1", "--m", "1", "--json"
        )
        assert payload["psi"] is None
        assert parse_ratfunc(payload["c"]) == hookw.central_charge(fam("2B", 1, 1))

    def test_json_and_table_agree(self, capsys):
        payload = run_json(
            capsys,
            "charge", "--family", "2C", "--n", "0", "--m", "1",
            "--psi", "3/10", "--json",
        )
        code, out, _ = run(
            capsys, "charge", "--family", "2C", "--n", "0", "--m", "1", "--psi", "3/10"
        )
        assert code == 0
        assert out == f"c = {payload['c']}\n"
        expected = hookw.central_charge(fam("2C", 0, 1)).eval({"psi": F(3, 10)})
        assert F(payload["c"]) == expected

    def test_pole_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "charge", "--family", "2B", "--n", "1", "--m", "1", "--psi", "1/2"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_malformed_psi(self, capsys):
        code, _, err = run(
            capsys, "charge", "--family", "2B", "--n", "1", "--m", "1", "--psi", "1/0"
        )
        assert code == 2
        code, _, err = run(
            capsys, "charge", "--family", "2B", "--n", "1", "--m", "1", "--psi", "0.5"
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["charge", "curve"])
    def test_negative_rational_psi_after_a_space(self, capsys, command):
        # argparse alone takes "-2/7" for an option and exits 2.
        base = (command, "--family", "2B", "--n", "0", "--m", "1")
        spaced = run(capsys, *base, "--psi", "-2/7")
        attached = run(capsys, *base, "--psi=-2/7")
        assert spaced[0] == attached[0] == 0
        assert spaced[1] == attached[1] != ""
        assert run(capsys, *base, "--psi", "-2/7", "--json")[1] == run(
            capsys, *base, "--json", "--psi=-2/7"
        )[1]
        assert run(capsys, *base, "--ps", "-2/7")[1] == attached[1]
        code, out, _ = run(capsys, *base, "--psi", "-0.5")
        assert (code, out) == (2, "")

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "charge", "--family", "9X", "--n", "1", "--m", "1")
        assert code == 2


class TestDescribe:
    def test_json_fields(self, capsys):
        payload = run_json(
            capsys, "describe", "--family", "2B", "--n", "1", "--m", "1", "--json"
        )
        case = hookw.describe(fam("2B", 1, 1))
        assert payload == {
            "family": "2B",
            "n": 1,
            "m": 1,
            "w_kind": case.w_kind,
            "w": case.w_text,
            "coset_kind": case.coset_kind,
            "coset": case.coset_text,
            "orbifold": case.orbifold,
            "notes": list(case.notes),
        }

    def test_table_is_projection(self, capsys):
        payload = run_json(
            capsys, "describe", "--family", "1C", "--n", "2", "--m", "1", "--json"
        )
        code, out, _ = run(capsys, "describe", "--family", "1C", "--n", "2", "--m", "1")
        assert code == 0
        assert payload["w"] in out and payload["coset"] in out


class TestGentype:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "gentype", "--family", "2C", "--n", "0", "--m", "1")
        assert code == 0
        assert "type = W(2)" in out
        assert "max weight = 2" in out

    def test_json(self, capsys):
        payload = run_json(
            capsys, "gentype", "--family", "2B", "--n", "1", "--m", "1", "--json"
        )
        assert payload["max_weight"] == hookw.max_generator_weight(fam("2B", 1, 1))
        profile = hookw.generator_profile(fam("2B", 1, 1))
        assert payload["type"] == hookw.profile_text(profile)
        assert payload["weights"] == [[str(w), c] for w, c in profile]

    def test_undefined_case(self, capsys):
        code, _, err = run(capsys, "gentype", "--family", "1B", "--n", "0", "--m", "0")
        assert code == 2
        assert "error:" in err


class TestCurve:
    def test_symbolic_round_trip(self, capsys):
        payload = run_json(
            capsys, "curve", "--family", "2C", "--n", "0", "--m", "1", "--json"
        )
        curve = hookw.phi(fam("2C", 0, 1))
        assert parse_ratfunc(payload["c"]) == curve.c
        assert parse_ratfunc(payload["lambda"]) == curve.lam
        assert payload["source"] == curve.source

    def test_rational_psi(self, capsys):
        payload = run_json(
            capsys,
            "curve", "--family", "2B", "--n", "0", "--m", "1",
            "--psi", "1/8", "--json",
        )
        curve = hookw.phi(fam("2B", 0, 1))
        assert F(payload["c"]) == curve.c.eval({"psi": F(1, 8)})
        assert F(payload["lambda"]) == curve.lam.eval({"psi": F(1, 8)})

    def test_free_field_slice(self, capsys):
        payload = run_json(
            capsys, "curve", "--family", "1O", "--n", "0", "--m", "0", "--json"
        )
        assert payload["lambda"] is None
        code, out, _ = run(capsys, "curve", "--family", "1O", "--n", "0", "--m", "0")
        assert code == 0
        assert "free-field slice" in out


class TestSing:
    def test_value(self, capsys):
        payload = run_json(
            capsys,
            "sing", "--algebra", "sp", "--object", "principal",
            "--rank", "1", "--u", "3", "--v", "2", "--json",
        )
        expected = hookw.sing_weight_general("sp", hookw.PRINCIPAL_W, 1, 3, 2)
        assert F(payload["weight"]) == expected
        code, out, _ = run(
            capsys,
            "sing", "--algebra", "sp", "--object", "principal",
            "--rank", "1", "--u", "3", "--v", "2",
        )
        assert out == f"weight = {payload['weight']}\n"

    def test_bad_rank(self, capsys):
        code, _, err = run(
            capsys,
            "sing", "--algebra", "so_odd", "--object", "affine",
            "--rank", "0", "--u", "3", "--v", "2",
        )
        assert code == 2


class TestIntersect:
    def test_target_kind(self, capsys):
        payload = run_json(
            capsys,
            "intersect", "--family", "2B", "--n", "0", "--m", "1",
            "--target", "sp", "--r", "1", "--json",
        )
        assert payload["target"] == {
            "kind": "sp",
            "r": 1,
            "family": "2C",
            "n": "0",
            "m": "1",
        }
        assert not payload["identity_component"]
        assert {"psi1": "1/8", "psi2": "3/8", "c": "-21/4", "lambda": "4/385",
                "degenerate": False} in payload["points"]

    def test_self_intersection_is_identity_component(self, capsys):
        payload = run_json(
            capsys,
            "intersect", "--family", "2B", "--n", "0", "--m", "1",
            "--family2", "2B", "--n2", "0", "--m2", "1", "--json",
        )
        assert payload["identity_component"] is True
        assert payload["points"] == []

    def test_table_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "intersect", "--family", "2B", "--n", "0", "--m", "1",
            "--target", "sp", "--r", "1",
        )
        assert code == 0
        assert "psi1=1/8 psi2=3/8 c=-21/4 lambda=4/385" in out
        assert "identity component: no" in out

    def test_rank_below_the_target_minimum_is_a_usage_error(self, capsys):
        # sp(-6) or so(0) has no curve to meet; the refusal is the one
        # verify_coincidence gives for the same kind and rank.
        for kind, r in (("sp", -3), ("sp", 0), ("so_even", 0), ("so_even", 1), ("osp", 0)):
            code, out, err = run(
                capsys,
                "intersect", "--family", "2B", "--n", "0", "--m", "1",
                "--target", kind, "--r", str(r),
            )
            entry = hookw.coincidence_table("2B", kind)[0]
            with pytest.raises(ValueError) as info:
                hookw.verify_coincidence(entry, 0, 1, r)
            assert (code, out, err) == (2, "", f"error: {info.value}\n")
            assert str(hookw.TARGETS[kind].min_r) in err

    def test_usage_needs_exactly_one_target(self, capsys):
        code, _, err = run(
            capsys, "intersect", "--family", "2B", "--n", "0", "--m", "1"
        )
        assert code == 2
        code, _, err = run(
            capsys,
            "intersect", "--family", "2B", "--n", "0", "--m", "1",
            "--target", "sp", "--r", "1", "--family2", "2C", "--n2", "0", "--m2", "1",
        )
        assert code == 2


class TestVerify:
    def test_trialities_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "trialities", "--sweep", "n=0..3,m=0..3")
        assert code == 0
        assert "passed: 9" in out
        assert "failed: 0" in out
        assert out.rstrip().endswith("result: ok")

    def test_coincidences_small_sweep(self, capsys):
        payload = run_json(
            capsys,
            "verify", "coincidences", "--sweep", "n=0..1,m=0..1,r=1..2", "--json",
        )
        assert payload["ok"] is True
        assert payload["passed"] == 205
        assert payload["failed"] == 0
        assert payload["failures"] == []
        assert payload["sweep"] == {"n": [0, 1], "m": [0, 1], "r": [1, 2]}

    def test_charges_partial_sweep_override(self, capsys):
        payload = run_json(capsys, "verify", "charges", "--sweep", "n=0..1", "--json")
        assert payload["sweep"] == {"n": [0, 1], "m": [0, 4]}
        assert payload["ok"] is True

    def test_singular_small(self, capsys):
        payload = run_json(
            capsys, "verify", "singular", "--sweep", "n=1..2,u=2..6,v=1..3", "--json"
        )
        assert payload["ok"] is True and payload["passed"] > 0

    def test_unknown_sweep_variable(self, capsys):
        code, _, err = run(capsys, "verify", "trialities", "--sweep", "r=1..2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "suite, sweep, var, least, lo",
        [
            ("charges", "n=-1..-1,m=0..1", "n", 0, -1),
            ("charges", "n=-1..-1,m=2..2", "n", 0, -1),
            ("coincidences", "n=-1..0", "n", 0, -1),
            ("trialities", "m=-2..3", "m", 0, -2),
            ("singular", "n=0..2", "n", 1, 0),
            ("singular", "v=-1..1", "v", 1, -1),
            ("singular", "v=0..2", "v", 1, 0),
        ],
    )
    def test_range_below_the_least_value_is_a_usage_error(
        self, capsys, suite, sweep, var, least, lo
    ):
        # Refused before any cell runs, never counted as skips.
        code, out, err = run(capsys, "verify", suite, "--sweep", sweep)
        assert code == 2 and out == ""
        assert err == f"error: {var} must be at least {least}, got {lo}\n"

    def test_cell_cap(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "trialities", "--sweep", "n=0..99,m=0..99", "--max-cells", "100",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "suite, sweep, cells",
        [
            ("coincidences", "n=0..1,m=0..1,r=1..1", 48 * 4),
            ("charges", "n=0..1,m=0..1", 8 * 4),
            ("singular", "n=1..1,u=2..3,v=1..2", 4 * 4),
        ],
    )
    def test_cell_cap_counts_cells_not_grid_points(self, capsys, suite, sweep, cells):
        # Each grid point of these suites is one cell per entry, tag or
        # algebra; the cap and its message count the cells.
        argv = ["verify", suite, "--sweep", sweep, "--json", "--max-cells"]
        payload = run_json(capsys, *argv, str(cells))
        assert payload["passed"] + payload["skipped"] + payload["failed"] == cells
        code, out, err = run(capsys, *argv, str(cells - 1))
        assert code == 2 and out == ""
        assert f"sweep has {cells} cells, above the cap of {cells - 1}" in err

    def test_out_of_universe_formula_is_a_failure_not_a_skip(self, capsys, monkeypatch):
        index = dict(cli._entry_index())
        name = "1B-sp(1)"
        index[name] = replace(index[name], psi=index[name].psi * RatFunc.var("psi"))
        monkeypatch.setattr(cli, "_entry_index", lambda: index)
        monkeypatch.delenv("HOOKW_WORKERS", raising=False)
        code, out, _ = run(
            capsys,
            "verify", "coincidences", "--sweep", "n=1..1,m=1..1,r=2..2", "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["failed"] == 1 and payload["passed"] + payload["skipped"] == 47
        (failure,) = payload["failures"]
        assert failure.startswith(f"{name} at (n=1, m=1, r=2): ")
        assert "mentions psi" in failure

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._RUNNERS, "trialities", lambda cell: ("fail", f"cell {cell}")
        )
        code, out, _ = run(
            capsys, "verify", "trialities", "--sweep", "n=1..1,m=1..1"
        )
        assert code == 1
        assert "fail: cell (1, 1)" in out
        assert "result: FAIL" in out

    def test_exact_error_is_a_failure_not_a_skip(self, capsys, monkeypatch):
        def pole(entry, n, m, r):
            raise PoleError("denominator vanishes")

        monkeypatch.setattr(cli, "_cell_check", pole)
        code, out, _ = run(
            capsys,
            "verify", "coincidences", "--sweep", "n=1..1,m=1..1,r=2..2", "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert (payload["passed"], payload["skipped"], payload["failed"]) == (0, 0, 48)
        assert all("denominator vanishes" in f for f in payload["failures"])

    def test_value_error_is_a_failure_not_a_skip(self, capsys, monkeypatch):
        def broken(self, p, q):
            raise ValueError("evaluation broke")

        monkeypatch.setattr(TruncationCurve, "_sums", broken)
        code, out, _ = run(
            capsys,
            "verify", "coincidences", "--sweep", "n=0..1,m=0..1,r=1..2", "--json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["passed"] == 0 and payload["failed"] > 0
        assert all("evaluation broke" in f for f in payload["failures"])

    def test_worker_pool_is_deterministic(self, capsys, monkeypatch):
        argv = ["verify", "coincidences", "--sweep", "n=0..1,m=0..1,r=1..1", "--json"]
        code, serial, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("HOOKW_WORKERS", "2")
        code, pooled, _ = run(capsys, *argv)
        assert code == 0
        assert pooled == serial

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # Checked through _worker_count alone, so no process is started.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("HOOKW_WORKERS", "100000")
        assert cli._worker_count() == 3
        monkeypatch.setenv("HOOKW_WORKERS", "2")
        assert cli._worker_count() == 2
        monkeypatch.delenv("HOOKW_WORKERS")
        assert cli._worker_count() == 1
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        monkeypatch.setenv("HOOKW_WORKERS", "4")
        assert cli._worker_count() == 1

    def test_bad_worker_count(self, capsys, monkeypatch):
        monkeypatch.setenv("HOOKW_WORKERS", "junk")
        code, _, err = run(capsys, "verify", "trialities", "--sweep", "n=1..1,m=1..1")
        assert code == 2
        monkeypatch.setenv("HOOKW_WORKERS", "0")
        code, _, err = run(capsys, "verify", "trialities", "--sweep", "n=1..1,m=1..1")
        assert code == 2


class TestRationalPoints:
    def test_witness_golden(self, capsys):
        payload = run_json(
            capsys,
            "rational-points", "--family", "2B", "--n", "0", "--m", "1",
            "--r", "1..3", "--json",
        )
        assert {
            "family": "2B",
            "n": 0,
            "m": 1,
            "psi": "1/8",
            "theorem": "osp-principal-1",
            "conditions": ["gcd(2,3)=1"],
            "partner": {"algebra": "sp(2)", "s": "-13/8"},
            "status": "certified",
        } in payload

    def test_r_range_filter(self, capsys):
        wide = run_json(
            capsys,
            "rational-points", "--family", "2B", "--n", "0", "--m", "1",
            "--r", "1..3", "--json",
        )
        narrow = run_json(
            capsys,
            "rational-points", "--family", "2B", "--n", "0", "--m", "1",
            "--r", "2..3", "--json",
        )
        # The r-indexed statement at r = 1 is gone; the same psi may still
        # appear via statements that are not indexed by r.
        assert all(w["theorem"] != "osp-principal-1" or w["psi"] != "1/8" for w in narrow)
        assert len(narrow) < len(wide)

    def test_table_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "rational-points", "--family", "2B", "--n", "0", "--m", "1", "--r", "1..1",
        )
        assert code == 0
        assert "osp-principal-1: psi = 1/8  partner = sp(2) at s = -13/8" in out
        assert "conditions: gcd(2,3)=1" in out

    def test_conjectural_flag(self, capsys):
        plain = run_json(
            capsys,
            "rational-points", "--family", "2B", "--n", "0", "--m", "2",
            "--r", "1..2", "--pq-bound", "6", "--json",
        )
        assert all(w["status"] == "certified" for w in plain)
        full = run_json(
            capsys,
            "rational-points", "--family", "2B", "--n", "0", "--m", "2",
            "--r", "1..2", "--pq-bound", "6", "--include-conjectural", "--json",
        )
        assert any(w["status"] == "conjectural" for w in full)

    def test_uncatalogued_family(self, capsys):
        code, _, err = run(
            capsys,
            "rational-points", "--family", "1B", "--n", "2", "--m", "2", "--r", "1..2",
        )
        assert code == 2


class TestGTFactors:
    def test_type_c_golden(self, capsys):
        payload = run_json(
            capsys, "gt-factors", "--series", "C", "--n", "1", "--k", "1", "--json"
        )
        assert payload == [
            {
                "series": "C",
                "kind": "pair",
                "label": "F_1(1)",
                "algebra": "sp(2)",
                "orbifold": False,
                "levels": ["-7/5", "-8/5"],
                "tag": "gt-C",
            }
        ]

    def test_table_mode(self, capsys):
        code, out, _ = run(capsys, "gt-factors", "--series", "D", "--n", "1", "--k", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "H: rank-one Heisenberg"
        assert lines[1].startswith("D_3(1): osp(1|2)^Z2  levels = (-5/6)")
        assert "[gt-BD-odd]" in lines[1]

    def test_bad_series(self, capsys):
        code, _, _ = run(capsys, "gt-factors", "--series", "A", "--n", "1", "--k", "1")
        assert code == 2


class TestLoopCaps:
    """Each looping option is capped at parse time, before any loop runs."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("the loop ran")

    def test_rational_points(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rational_points", self._refuse)
        base = ("rational-points", "--family", "2B", "--n", "0", "--m", "1")
        for extra, message in (
            (("--r", "1..1001"), "upper end at most 1000, got 1001"),
            (("--pq-bound", "101"), "at most 100, got 101"),
        ):
            code, out, err = run(capsys, *base, *extra)
            assert code == 2
            assert out == ""
            assert message in err
        seen = []
        monkeypatch.setattr(cli, "rational_points", lambda fam, **kw: seen.append(kw) or ())
        assert run(capsys, *base, "--r", "1..1000", "--pq-bound", "100")[0] == 0
        assert seen[0]["r_bound"] == 1000 and seen[0]["pq_bound"] == 100

    def test_gt_factors(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gelfand_tsetlin_factors", self._refuse)
        for n, k in (("1001", "1"), ("1", "1001")):
            code, _, err = run(capsys, "gt-factors", "--series", "D", "--n", n, "--k", k)
            assert code == 2
            assert "at most 1000, got 1001" in err

    def test_sing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sing_weight_general", self._refuse)
        base = ("sing", "--algebra", "sp", "--object", "affine")
        for rank, u, v in (("201", "3", "2"), ("1", "1000001", "2"), ("1", "3", "1000001")):
            code, _, err = run(capsys, *base, "--rank", rank, "--u", u, "--v", v)
            assert code == 2
            assert "at most" in err
        code, _, err = run(capsys, *base, "--rank", "x", "--u", "3", "--v", "2")
        assert code == 2
        assert "invalid int value: 'x'" in err

    def test_gentype(self, capsys, monkeypatch):
        # generator_profile loops over the weights 2, 4, ..., 2m.
        monkeypatch.setattr(cli, "generator_profile", self._refuse)
        code, out, err = run(capsys, "gentype", "--family", "2B", "--n", "0", "--m", "1001")
        assert code == 2
        assert out == ""
        assert "at most 1000, got 1001" in err
        seen = []
        monkeypatch.setattr(cli, "generator_profile", lambda f: seen.append(f) or ())
        assert run(capsys, "gentype", "--family", "2B", "--n", "0", "--m", "1000")[0] == 0
        assert seen == [fam("2B", 0, 1000)]

    # The plain int options, each sizing no loop: the family parameters
    # (but gentype's --m), intersect's rank and second member, and the
    # sweep cap of verify itself.
    _SIZE_NO_LOOP = {
        *((command, option)
          for command in ("charge", "describe", "curve", "intersect", "rational-points")
          for option in ("--n", "--m")),
        ("gentype", "--n"),
        ("intersect", "--r"),
        ("intersect", "--n2"),
        ("intersect", "--m2"),
        ("verify", "--max-cells"),
    }

    def test_every_uncapped_int_option_sizes_no_loop(self):
        actions = cli.build_parser()._actions
        (commands,) = (a.choices for a in actions if isinstance(a, argparse._SubParsersAction))
        uncapped = {
            (command, a.option_strings[-1])
            for command, parser in commands.items()
            for a in parser._actions
            if a.type is int
        }
        assert uncapped == self._SIZE_NO_LOOP


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_json_on_stdout_errors_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "charge", "--family", "2B", "--n", "-1", "--m", "1", "--json"
        )
        assert code == 2
        assert out == ""
        assert err != ""

    @pytest.mark.parametrize(
        "argv, code",
        [(["verify", "trialities", "--sweep", "n=1..1,m=1..1"], 0), (["verify", "bogus"], 2)],
    )
    def test_python_dash_m_hookw_is_the_cli(self, argv, code):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env.pop("HOOKW_WORKERS", None)
        runs = [
            subprocess.run(
                [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True
            )
            for module in ("hookw", "hookw.cli")
        ]
        assert [(done.stdout, done.returncode) for done in runs] == [
            (runs[1].stdout, code)
        ] * 2
        assert code == 2 or "result: ok" in runs[0].stdout
