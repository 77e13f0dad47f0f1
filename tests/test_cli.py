import json
import math

import numpy as np
import pytest

from volterra_control import adjoint, backward, forward, lattice, verify
from volterra_control.cli import COMMANDS, main
from volterra_control.scenario import fixture_path, load_scenario

from test_scenario import FIXTURES, NEAR_TORUS


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path)])


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


# (dotted key edited in lq.json, its new value, the field the error names)
MALFORMED = [
    ("constraint", {"type": "ball", "center": [0.0]}, "constraint.radius"),
    ("constraint", {"type": "halfspaces", "normals": [[1.0]]}, "constraint.offsets"),
    ("constraint", {"type": "quadratics"}, "constraint.terms"),
    ("constraint", {"type": "quadratics", "terms": [1]}, "constraint.terms[0]"),
    ("constraint", {"type": "mystery"}, "constraint.type"),
    ("constraint", {"type": "torus"}, "constraint.type"),  # lq has l = 1
    ("coefficients", [1], "coefficients"),
    ("coefficients.b.kernel.scale", [1, 2], "b.kernel.scale"),
    ("tolerances.picard_max_iter", 0, "tolerances.picard_max_iter"),
    ("coefficients.b.x", [[0.3], [0.2, 0.1]], "b.x"),
    ("coefficients.b.x", "abc", "b.x"),
    ("seed", "abc", "scenario.seed"),
    ("grid.N", 4.5, "grid.N"),
    ("tolerances.picard_tol", "x", "tolerances.picard_tol"),
    ("coefficients.b.x", [[math.nan]], "b.x"),
    ("coefficients.phi.const", [math.nan], "phi.const"),
    ("constraint", {"type": "ball", "center": [0.0], "radius": math.nan},
     "constraint.radius"),
    ("tolerances.nc_tol", math.nan, "tolerances.nc_tol"),
    ("constraint", {"type": "halfspaces", "normals": [[1.0]], "offsets": [math.inf]},
     "constraint.offsets"),
    ("tolerances.activity_tol", -1e-8, "tolerances.activity_tol"),
    ("coefficients.g.kernel.power", -1, "g.kernel.power"),
    ("", [], "scenario"),  # the whole file is a list
    ("coefficients.b.kernel.kappa", -1e6, "b.kernel.kappa"),  # exp(-kappa T) overflows
    # an empty region: u <= -1 and u >= 1
    ("constraint", {"type": "halfspaces", "normals": [[1.0], [-1.0]],
                    "offsets": [-1.0, -1.0]}, "constraint"),
    # a quadratics region without a closed-form projection, and no initial_control
    ("constraint", {"type": "quadratics", "terms": [{"quad": [[2.0]], "const": -1.0}]},
     "constraint"),
]


# (what replaces a valid argument, the text the one stderr line names);
# "{tmp}" is the test's directory, which holds a plain file and a
# scenario that is not UTF-8 text
USAGE_ERRORS = [
    (["--N", "19"], "--N"), (["--N", "0"], "--N"), (["--N", "-3"], "--N"),
    (["--seed", "-1"], "--seed"),
    (["--tol", "nan"], "--tol"), (["--tol", "inf"], "--tol"), (["--tol", "-1"], "--tol"),
    (["--eps-sweep", "1"], "--eps-sweep"),
    (["--scenario", "{tmp}"], "{tmp}"),
    (["--scenario", "{tmp}/latin1.json"], "{tmp}/latin1.json"),
    (["--out", "{tmp}/file"], "--out"), (["--out", "{tmp}/file/reports"], "--out"),
]


class TestExitCodes:
    def test_check_duality_on_lq_fixture(self, tmp_path, capsys):
        code = run(tmp_path, "check-duality", "--scenario",
                   str(fixture_path("lq")), "--N", "6")
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "gap1" in out

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = run(tmp_path, "check-duality", "--scenario", "/missing.json")
        assert code == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["converge", "check-duality", "simulate"])
    @pytest.mark.parametrize("bad,named", USAGE_ERRORS,
                             ids=[" ".join(bad) for bad, _ in USAGE_ERRORS])
    def test_bad_override_or_path_is_a_usage_error(self, tmp_path, capsys, command,
                                                   bad, named):
        (tmp_path / "file").write_text("not a directory")
        (tmp_path / "latin1.json").write_bytes('{"seed": "\u00e9"}'.encode("latin-1"))
        option, value = bad[0], bad[1].format(tmp=tmp_path)
        argv = {"--scenario": str(fixture_path("lq")), "--N": "4",
                "--out": str(tmp_path / "reports"), option: value}
        code = main([command, *(x for kv in argv.items() for x in kv)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert named.format(tmp=tmp_path) in line, line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "latin1.json"]
        assert (tmp_path / "file").read_text() == "not a directory"

    def test_unknown_command_usage_error(self, tmp_path):
        assert main(["frobnicate", "--scenario", "x"]) == 2

    def test_check_nc_non_optimal_fixture_fails(self, tmp_path, capsys):
        code = run(tmp_path, "check-nc", "--scenario", str(fixture_path("lq")),
                   "--N", "4")
        assert code == 1
        assert "worst minValue" in capsys.readouterr().out

    def test_optimize_then_certifies(self, tmp_path):
        code = run(tmp_path, "optimize", "--scenario", str(fixture_path("lq")),
                   "--N", "4", "--tol", "1e-6")
        assert code == 0

    def test_converge_passes(self, tmp_path):
        code = run(tmp_path, "converge", "--scenario",
                   str(fixture_path("lq")), "--N", "4", "--eps-sweep", "5")
        assert code == 0
        json.loads(next(tmp_path.glob("converge-*.json")).read_text(),
                   parse_constant=_reject_constant)

    def test_degenerate_fbsde(self, tmp_path):
        code = run(tmp_path, "degenerate-fbsde", "--scenario",
                   str(fixture_path("fbsde")), "--N", "6")
        assert code == 0

    def test_degenerate_rejects_time_varying(self, tmp_path, capsys):
        code = run(tmp_path, "degenerate-fbsde", "--scenario",
                   str(fixture_path("lq")))
        assert code == 2
        assert "time-invariant" in capsys.readouterr().err

    def test_simulate_writes_reports(self, tmp_path):
        code = run(tmp_path, "simulate", "--scenario", str(fixture_path("lq")),
                   "--N", "4")
        assert code == 0
        json_files = list(tmp_path.glob("simulate-*.json"))
        csv_files = list(tmp_path.glob("simulate-*.csv"))
        assert len(json_files) == 1 and len(csv_files) == 1
        doc = json.loads(json_files[0].read_text())
        assert "cost" in doc["report"]
        assert csv_files[0].read_text().startswith("level,sup_X,sup_Y")


class TestMalformedScenario:
    @pytest.mark.parametrize("key,value,field", MALFORMED,
                             ids=[f"{k}={v!r}" for k, v, _ in MALFORMED])
    def test_exit_2_names_the_field(self, tmp_path, capsys, key, value, field):
        doc = json.loads(fixture_path("lq").read_text())
        if key:
            *path, last = key.split(".")
            entry = doc
            for part in path:
                entry = entry.setdefault(part, {})
            entry[last] = value
        else:
            doc = value
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        for command in ("simulate", "check-nc"):
            code = run(tmp_path, command, "--scenario", str(scenario), "--N", "4")
            err = capsys.readouterr().err
            assert code == 2, err
            assert "Traceback" not in err
            [line] = err.splitlines()
            assert line.startswith(f"scenario error: {field}: "), line

    def test_initial_control_outside_region(self, tmp_path, capsys):
        doc = json.loads(fixture_path("annulus").read_text())
        doc["initial_control"] = [0.1, 0.0]  # inside the hole of the annulus
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        code = run(tmp_path, "simulate", "--scenario", str(scenario))
        err = capsys.readouterr().err
        assert code == 2, err
        [line] = err.splitlines()
        assert line.startswith("scenario error: initial_control: "), line

    def test_near_identity_quadratics_needs_initial_control(self, tmp_path, capsys):
        # not the torus, so no closed-form projection gives a default control
        doc = json.loads(fixture_path("annulus").read_text())
        doc["constraint"] = {"type": "quadratics", "terms": NEAR_TORUS}
        del doc["initial_control"]
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        code = run(tmp_path, "simulate", "--scenario", str(scenario))
        err = capsys.readouterr().err
        assert code == 2, err
        [line] = err.splitlines()
        assert line.startswith("scenario error: constraint: "), line


class TestSmoke:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_on_every_fixture(self, tmp_path, capsys, command, fixture):
        code = run(tmp_path, command, "--scenario", str(fixture_path(fixture)),
                   "--N", "4")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command == "degenerate-fbsde" and not load_scenario(
                fixture_path(fixture)).coeffs.time_invariant:
            assert code == 2
            assert err.startswith("scenario error: degenerate-fbsde needs a"
                                  " time-invariant scenario"), err
        elif command == "optimize":
            assert code == 0, err
        else:
            assert code in (0, 1), err


class TestBranchesReachedFromTheCli:
    """Each numeric branch below runs for at least one shipped fixture under
    ``optimize`` and ``converge`` at its own N, counted by wrappers around
    the elimination and the kernel helpers."""

    def test_every_branch_is_reached(self, tmp_path, monkeypatch):
        seen = set()
        eliminate = lattice._eliminate

        def counted_eliminate(lhs, rhs, level):
            d = rhs.shape[0]
            if d >= 2 and lhs.shape[-1] > 1:
                seen.add("per-node elimination, d >= 2")
            elif d >= 2 and not np.array_equal(lhs[..., 0], np.eye(d)):
                seen.add("constant non-identity elimination, d >= 2")
            return eliminate(lhs, rhs, level)

        terms, depth = backward.kernel_terms, []

        def counted_terms(tree, kernel, i, j, vecs, factor=None, transpose=False):
            span = i if type(i) is range else j
            cut = slice(span.start, span.stop)
            pair = (cut, j) if span is i else (i, cut)
            if span and not depth and backward.family_of(kernel, *pair) is None:
                seen.add(f"per-pair kernel_terms, transpose={transpose}")
            return terms(tree, kernel, i, j, vecs, factor, transpose)

        kernel_sum = backward.kernel_sum

        def counted_sum(tree, kernel, rows, j, stack):
            if backward.family_of(kernel, slice(rows.start, rows.stop), j) is None:
                seen.add("per-pair kernel_sum")
            depth.append(1)
            try:
                return kernel_sum(tree, kernel, rows, j, stack)
            finally:
                depth.pop()

        monkeypatch.setattr(lattice, "_eliminate", counted_eliminate)
        for module in (backward, adjoint, forward, verify):
            monkeypatch.setattr(module, "kernel_terms", counted_terms)
        for module in (backward, adjoint):
            monkeypatch.setattr(module, "kernel_sum", counted_sum)
        for fixture in FIXTURES:
            for command in ("optimize", "converge"):
                assert run(tmp_path, command, "--scenario", str(fixture_path(fixture))) == 0
        assert seen == {"constant non-identity elimination, d >= 2",
                        "per-node elimination, d >= 2",
                        "per-pair kernel_terms, transpose=False",
                        "per-pair kernel_terms, transpose=True",
                        "per-pair kernel_sum"}


class TestCheckNcSchema:
    def test_annulus_report_columns_and_keys(self, tmp_path):
        code = run(tmp_path, "check-nc", "--scenario",
                   str(fixture_path("annulus")))
        assert code == 1  # the default control is not stationary
        header, *rows = next(tmp_path.glob("check-nc-*.csv")).read_text() \
            .splitlines()
        assert header == "level,node,minValue,cone_kind"
        assert len(rows) == (1 << 5) - 1  # every node of the N = 5 fixture
        assert {row.split(",")[3] for row in rows} <= {"full", "polyhedral"}
        report = json.loads(next(tmp_path.glob("check-nc-*.json")).read_text())
        assert set(report["report"]) == {
            "worst_value", "worst_level", "worst_node", "sup_gradient",
            "tolerance", "passed"}


class TestDeterminism:
    def test_identical_config_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["check-nc", "--scenario", str(fixture_path("lq")),
                         "--N", "4", "--seed", "5", "--out", str(out)])
            assert code == 1
        fa = sorted(a.iterdir())
        fb = sorted(b.iterdir())
        assert [f.name for f in fa] == [f.name for f in fb]
        for x, y in zip(fa, fb):
            assert x.read_bytes() == y.read_bytes()

    def test_existing_reports_not_modified(self, tmp_path):
        run(tmp_path, "simulate", "--scenario", str(fixture_path("lq")),
            "--N", "4")
        target = next(tmp_path.glob("simulate-*.json"))
        before = target.stat().st_mtime_ns
        target_bytes = target.read_bytes()
        run(tmp_path, "simulate", "--scenario", str(fixture_path("lq")),
            "--N", "4")
        assert target.read_bytes() == target_bytes
        assert target.stat().st_mtime_ns == before

    def test_mode_continuum_accepted(self, tmp_path):
        code = run(tmp_path, "check-duality", "--scenario",
                   str(fixture_path("lq")), "--N", "4", "--mode", "continuum")
        assert code == 0
