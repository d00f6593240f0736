import concurrent.futures
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from steinb import config
from steinb.cli import (
    ScenarioFileError,
    emit_csv,
    emit_json,
    emit_md,
    load_scenarios,
    main,
    run_all,
)
from steinb.harness import Scenario, builtin_scenarios, run_laws, run_scenario

GOOD_LINES = """\
# demo scenario file
{"id": "exp-sca-h-sqrt", "family": "exponential", "role": {"kind": "scale", "value": 1.0}, "test_function": {"name": "sqrt"}}

{"id": "gamma3-sca", "family": "gamma", "role": {"kind": "scale", "value": 1.0}, "shape": 3, "test_function": {"coefficients": [0, 1]}}
"""


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("scn") / "demo.jsonl"
    p.write_text(GOOD_LINES)
    return p


@pytest.fixture(scope="module")
def sqrt_results():
    return [run_scenario(s) for s in load_scenarios_text(GOOD_LINES)]


def load_scenarios_text(text):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "scn.jsonl"
        p.write_text(text)
        return load_scenarios(p)


class TestScenarioFile:
    def test_load(self, demo_file):
        scenarios = load_scenarios(demo_file)
        assert [s.scenario_id for s in scenarios] == ["exp-sca-h-sqrt", "gamma3-sca"]
        assert scenarios[1].structural == (("shape", 3.0),)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFileError):
            load_scenarios(tmp_path / "nope.jsonl")

    def test_bad_json(self):
        with pytest.raises(ScenarioFileError):
            load_scenarios_text('{"id": "x", family: broken}\n')

    def test_duplicate_ids(self):
        line = '{"id": "a", "family": "poisson", "role": {"kind": "theta", "value": 1.0}}\n'
        with pytest.raises(ScenarioFileError):
            load_scenarios_text(line + line)

    @pytest.mark.parametrize("tolerances", ['5', '{"identity": "loose"}', '{"identity": [1e-6]}'])
    def test_malformed_tolerances_are_parse_errors(self, tmp_path, capsys, tolerances):
        p = tmp_path / "scn.jsonl"
        p.write_text('{"id": "a", "family": "poisson", "role": {"kind": "theta", "value": 1.0}, '
                     f'"tolerances": {tolerances}}}\n')
        assert main(["check", str(p)]) == 2
        assert f"{p}:1:" in capsys.readouterr().err

    def test_identity_tolerance_is_read_as_a_number(self, tmp_path, capsys):
        p = tmp_path / "scn.jsonl"
        p.write_text('{"id": "a", "family": "poisson", "role": {"kind": "theta", "value": 1.0}, '
                     '"tolerances": {"identity": "1e-6"}}\n')
        assert load_scenarios(p)[0].identity_tol == 1e-6
        assert main(["check", str(p)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("line", [
        '{"id": "p", "family": "poisson", "role": {"kind": "theta", "value": Infinity}}',
        '{"id": "b", "family": "binomial", "role": {"kind": "theta", "value": 0.5}, "n": Infinity}',
        '{"id": "b", "family": "binomial", "role": {"kind": "theta", "value": 0.5}, "n": NaN}',
        '{"id": "e", "family": "exponential", "role": {"kind": "scale", "value": Infinity}}',
        '{"id": "g", "family": "gaussian", "role": {"kind": "location", "value": Infinity}}',
        '{"id": "a", "family": "gamma", "role": {"kind": "scale", "value": 1.0}, "shape": Infinity}',
        '{"id": "s", "family": "sas-gaussian", "role": {"kind": "skew", "value": -Infinity}}',
    ], ids=["poisson-rate-inf", "binomial-n-inf", "binomial-n-nan", "exponential-scale-inf",
            "gaussian-location-inf", "gamma-shape-inf", "sas-skew-minus-inf"])
    def test_non_finite_family_constants_are_validation_errors(self, tmp_path, capsys, line):
        p = tmp_path / "scn.jsonl"
        p.write_text(line + "\n")
        assert main(["check", str(p)]) == 2
        assert "must be" in capsys.readouterr().err


class TestEmission:
    def test_json_roundtrip(self, sqrt_results):
        text = emit_json(sqrt_results)
        parsed = json.loads(text)
        assert emit_json_like(parsed) == text
        assert parsed[0]["scenario"] == "exp-sca-h-sqrt"

    def test_json_csv_numeric_agreement(self, sqrt_results):
        parsed = json.loads(emit_json(sqrt_results))
        rows = list(csv.DictReader(io.StringIO(emit_csv(sqrt_results))))
        for obj, row in zip(parsed, rows):
            for key in ("lower", "variance", "upper"):
                jv, cv = obj[key], row[key]
                if jv == "inf":
                    assert cv == "inf"
                    continue
                assert f"{float(cv):.15g}" == f"{float(jv):.15g}"
            comp_values = {c["name"]: c["value"] for c in obj["comparators"]}
            for chunk in filter(None, row["comparators"].split(";")):
                name, _, value = chunk.split(":")
                jv = comp_values[name]
                if jv == "inf":
                    assert value == "inf"
                else:
                    assert f"{float(value):.15g}" == f"{float(jv):.15g}"

    def test_md_table(self, sqrt_results):
        text = emit_md(sqrt_results)
        assert text.startswith("| scenario |")
        assert "exp-sca-h-sqrt" in text


def emit_json_like(parsed):
    return json.dumps(parsed, indent=2, sort_keys=True) + "\n"


class TestCommands:
    def test_check_builtin_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "all passed" in out

    def test_check_wrong_parameter_fails(self, tmp_path, capsys):
        # the Poisson operator built at rate 1, checked under rate-2 weights
        p = tmp_path / "scn.jsonl"
        p.write_text(
            '{"id": "poisson-wrong-rate", "family": "poisson", '
            '"role": {"kind": "theta", "value": 1.0}, "law": {"value": 2.0}}\n'
        )
        assert main(["check", str(p)]) == 1
        assert "False" in capsys.readouterr().out

    def test_check_unsupported_scenario_errors(self, tmp_path, capsys):
        p = tmp_path / "scn.jsonl"
        p.write_text(
            '{"id": "exp-loc", "family": "exponential", '
            '"role": {"kind": "location", "value": 0.0}}\n'
        )
        assert main(["check", str(p)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_check_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.jsonl"]) == 2

    def test_check_parse_error(self, tmp_path):
        p = tmp_path / "scn.jsonl"
        p.write_text("not json at all\n")
        assert main(["check", str(p)]) == 2

    def test_check_unknown_family(self, tmp_path):
        p = tmp_path / "scn.jsonl"
        p.write_text('{"id": "x", "family": "cauchy", "role": {"kind": "location", "value": 0}}\n')
        assert main(["check", str(p)]) == 2

    def test_check_report_out(self, demo_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", str(demo_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {entry["scenario"] for entry in payload} == {"exp-sca-h-sqrt", "gamma3-sca"}
        assert all(c["pass"] for entry in payload for c in entry["identity_checks"])

    def test_bounds_json_out(self, demo_file, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", str(demo_file), "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        by_id = {r["scenario"]: r for r in report}
        row = by_id["exp-sca-h-sqrt"]
        assert row["lower"] == pytest.approx(math.pi / 16, abs=1e-8)
        assert row["variance"] == pytest.approx(1 - math.pi / 4, abs=1e-8)
        assert row["upper"] == pytest.approx(0.25, abs=1e-10)
        comps = {c["name"]: c["value"] for c in row["comparators"]}
        assert comps["klaassen_exp_upper"] == "inf"

    def test_bounds_csv_and_md(self, demo_file, tmp_path, capsys):
        assert main(["bounds", str(demo_file), "--format", "csv"]) == 0
        assert "scenario,lower,variance,upper" in capsys.readouterr().out
        assert main(["bounds", str(demo_file), "--format", "md"]) == 0
        assert capsys.readouterr().out.startswith("| scenario |")

    def test_bounds_jobs_parallel_matches_serial(self, demo_file, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert main(["bounds", str(demo_file), "--out", str(serial)]) == 0
        assert main(["bounds", str(demo_file), "--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()

    def test_bounds_probe_scenarios_end_as_error_rows(self, tmp_path, capsys):
        # an underflowing Poisson pmf and an overflowing binomial coefficient
        # become typed error rows; the good line still gets its report
        probes = Path(__file__).parent / "data" / "probe_scenarios.jsonl"
        out = tmp_path / "probes.json"
        assert main(["bounds", str(probes), "--out", str(out)]) == 1
        rows = {r["scenario"]: r for r in json.loads(out.read_text())}
        assert rows["poisson-theta-800"]["error"].startswith("ZeroDivisionError:")
        assert rows["binomial-n-2000"]["error"].startswith("OverflowError:")
        assert [r for r in rows.values() if "error" not in r] == [rows["gauss-loc-h-linear"]]
        assert rows["gauss-loc-h-linear"]["lower"] == pytest.approx(1.0, abs=1e-10)

    def test_check_out_error_rows_carry_the_bounds_error(self, tmp_path, capsys):
        probes = Path(__file__).parent / "data" / "probe_scenarios.jsonl"
        checks, bounds = tmp_path / "checks.json", tmp_path / "bounds.json"
        assert main(["check", str(probes), "--out", str(checks)]) == 1
        assert main(["bounds", str(probes), "--format", "json", "--out", str(bounds)]) == 1
        check_rows = {r["scenario"]: r for r in json.loads(checks.read_text())}
        bound_rows = {r["scenario"]: r for r in json.loads(bounds.read_text())}
        for sid in ("poisson-theta-800", "binomial-n-2000"):
            assert check_rows[sid] == {"scenario": sid, "error": bound_rows[sid]["error"], "identity_checks": []}
        assert "error" not in check_rows["gauss-loc-h-linear"]
        good = check_rows["gauss-loc-h-linear"]["identity_checks"]
        assert good and all(c["pass"] for c in good)

    def test_check_out_writes_the_json_of_its_results(self, tmp_path, capsys):
        # check --out is emit_json of the check results: report-less rows,
        # error rows included
        probes = Path(__file__).parent / "data" / "probe_scenarios.jsonl"
        out = tmp_path / "checks.json"
        assert main(["check", str(probes), "--out", str(out)]) == 1
        runner = functools.partial(run_laws, tol=config.resolve_tol(None), with_report=False)
        assert out.read_text() == emit_json(run_all(load_scenarios(probes), runner, jobs=1))

    @pytest.mark.parametrize("fmt,lines", [
        ("csv", ["binomial-n-2000,,,,error:OverflowError: int too large to convert to float,,",
                 "poisson-theta-800,,,,error:ZeroDivisionError: float division by zero,,"]),
        ("md", ["| binomial-n-2000 | - | - | - | error: OverflowError: int too large to convert to float | |",
                "| poisson-theta-800 | - | - | - | error: ZeroDivisionError: float division by zero | |"]),
    ])
    def test_bounds_csv_and_md_error_rows(self, capsys, fmt, lines):
        probes = Path(__file__).parent / "data" / "probe_scenarios.jsonl"
        assert main(["bounds", str(probes), "--format", fmt]) == 1
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "error" in line] == lines

    @pytest.mark.parametrize("command,code", [("bounds", 1), ("check", 1), ("fisher", 0)])
    def test_a_law_whose_constants_overflow_ends_as_an_error_row(self, tmp_path, capsys, command, code):
        # lgamma(1e308) overflows while the gamma law is built: the scenario
        # ends as a typed error row, not as a traceback.
        p = tmp_path / "scn.jsonl"
        p.write_text('{"id": "gamma-shape-huge", "family": "gamma", "role": {"kind": "scale", "value": 1.0}, '
                     '"shape": 1e308, "test_function": {"name": "linear"}}\n')
        out = tmp_path / "out.json"
        assert main([command, str(p), "--out", str(out)]) == code
        [row] = json.loads(out.read_text())
        assert row["scenario"] == "gamma-shape-huge"
        assert row["error"] == "OverflowError: math range error"

    def test_fisher_table(self, demo_file, capsys):
        assert main(["fisher", str(demo_file)]) == 0
        out = capsys.readouterr().out
        assert "exp-sca-h-sqrt" in out and "decreasing" in out

    def test_fisher_handles_unsupported_role(self, tmp_path, capsys):
        p = tmp_path / "scn.jsonl"
        p.write_text(
            '{"id": "exp-loc", "family": "exponential", '
            '"role": {"kind": "location", "value": 0.0}}\n'
        )
        assert main(["fisher", str(p)]) == 0
        assert "UnsupportedRole" in capsys.readouterr().out

    def test_paper_table_list(self, capsys):
        assert main(["paper-table", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "fisher-gauss-skew" in out
        assert "exp-sqrt-chain" in out

    def test_paper_table_loosened_tolerance_still_judged(self, capsys):
        # row tolerances are pinned, so a coarse quadrature run must still be
        # judged against them and exit cleanly either way
        code = main(["paper-table", "--tol", "1e-3"])
        assert code in (0, 1)
        capsys.readouterr()

    def test_tol_reaches_the_identity_checks(self, tmp_path, monkeypatch, capsys, count_cells):
        p = tmp_path / "scn.jsonl"
        p.write_text('{"id": "gauss-loc", "family": "gaussian", "role": {"kind": "location", "value": 0.0}}\n')
        out = tmp_path / "checks.json"
        seen = {}
        for label, argv, env in (("default", [], None), ("flag", ["--tol", "1e-6"], None),
                                 ("env", [], "1e-6")):
            if env is None:
                monkeypatch.delenv("STEINB_TOL", raising=False)
            else:
                monkeypatch.setenv("STEINB_TOL", env)
            before = count_cells()
            assert main(["check", str(p), "--out", str(out), *argv]) == 0
            seen[label] = (capsys.readouterr().out, out.read_text(), count_cells() - before)
        values = {label: [c["value"] for c in json.loads(text)[0]["identity_checks"]]
                  for label, (_, text, _) in seen.items()}
        assert values["flag"] != values["default"]
        assert seen["flag"][2] < seen["default"][2]
        assert seen["env"] == seen["flag"]

    def test_tol_flag_beats_env(self, demo_file, tmp_path, monkeypatch):
        from steinb import config

        monkeypatch.setenv(config.TOL_ENV_VAR, "1e-6")
        assert config.resolve_tol(None) == 1e-6
        assert config.resolve_tol(1e-11) == 1e-11
        monkeypatch.delenv(config.TOL_ENV_VAR)
        assert config.resolve_tol(None) == config.QUAD.request_tol


SHARED_LAWS = """\
{"id": "g-linear", "family": "gaussian", "role": {"kind": "location", "value": 0.5}, "sigma": 2.0}
{"id": "g-square", "family": "gaussian", "role": {"kind": "location", "value": 0.5}, "sigma": 2.0, "test_function": {"name": "square"}}
{"id": "g-wrong-law", "family": "gaussian", "role": {"kind": "location", "value": 0.5}, "sigma": 2.0, "law": {"value": 0.8}}
{"id": "g-loose", "family": "gaussian", "role": {"kind": "location", "value": 0.5}, "sigma": 2.0, "tolerances": {"identity": 1e-6}, "test_function": {"name": "square"}}
{"id": "p-linear", "family": "poisson", "role": {"kind": "theta", "value": 2.5}}
{"id": "p-square", "family": "poisson", "role": {"kind": "theta", "value": 2.5}, "test_function": {"name": "square"}}
{"id": "e-linear", "family": "exponential", "role": {"kind": "scale", "value": 1.5}}
{"id": "e-sqrt", "family": "exponential", "role": {"kind": "scale", "value": 1.5}, "test_function": {"name": "sqrt"}}
"""
# Three laws; five identity suites, as the gaussian law's wrong-law and
# looser-threshold lines each make a suite of their own.
SHARED_LAWS_SUITES = 5


class TestLawGroups:
    """A command runs what depends on the law alone once per law, and each
    scenario's result is still the one it gets alone."""

    COMMANDS = {"check": ["check", "--out"], "bounds": ["bounds", "--format", "json", "--out"]}

    @pytest.fixture
    def shared(self, tmp_path):
        p = tmp_path / "shared.jsonl"
        p.write_text(SHARED_LAWS)
        return p

    def _out(self, argv, out, capsys):
        main(argv + [str(out)])
        capsys.readouterr()
        return out.read_text()

    @pytest.mark.parametrize("command", ["check", "bounds"])
    def test_grouped_runs_write_the_bytes_of_one_scenario_runs(self, shared, tmp_path, capsys, command):
        head, out = self.COMMANDS[command], tmp_path / "out.json"
        rows = []
        for i, line in enumerate(SHARED_LAWS.splitlines()):
            alone = tmp_path / f"alone{i}.jsonl"
            alone.write_text(line + "\n")
            rows += json.loads(self._out([head[0], str(alone), *head[1:]], out, capsys))
        expected = json.dumps(sorted(rows, key=lambda r: r["scenario"]), indent=2, sort_keys=True) + "\n"
        # Under --jobs 3 the gaussian law's four lines are more than a third
        # of the eight, so they run in two pieces, each with its own memo.
        for jobs in ("1", "2", "3"):
            assert self._out([head[0], str(shared), "--jobs", jobs, *head[1:]], out, capsys) == expected

    @pytest.mark.parametrize("command", ["check", "bounds"])
    def test_each_law_runs_its_suite_and_profile_once(self, shared, tmp_path, capsys, monkeypatch, command):
        from steinb import harness, operators

        calls = {"suite": [], "profile": []}
        for module, name, key in ((harness, "identity_suite", "suite"), (operators, "score_profile", "profile")):
            def counting(fam, *args, _fn=getattr(module, name), _seen=calls[key], **kwargs):
                _seen.append(fam.name)
                return _fn(fam, *args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        head = self.COMMANDS[command]
        self._out([head[0], str(shared), "--jobs", "1", *head[1:]], tmp_path / "out.json", capsys)
        assert len(calls["suite"]) == SHARED_LAWS_SUITES
        assert sorted(calls["profile"]) == ([] if command == "check" else ["exponential", "gaussian", "poisson"])

    def test_each_scenario_builds_its_law_once_before_its_run(self, tmp_path, capsys, monkeypatch):
        # _law_groups builds a law once to validate and group its scenario,
        # and run_scenario builds it again: 2 builds per builtin line.
        from steinb import harness

        built = []
        make_family = harness.make_family
        monkeypatch.setattr(harness, "make_family", lambda *a, **k: built.append(a[0]) or make_family(*a, **k))
        self._out(["bounds", "--format", "json", "--out"], tmp_path / "out.json", capsys)
        assert len(built) == 2 * len(builtin_scenarios()) == 24

    def test_scenarios_group_by_the_spec_of_the_built_law(self):
        # A sigma written out equals its default, so both lines are one law;
        # -0.0 is a role of its own, as in the memo's key; a family that
        # cannot be built (lgamma overflows) runs alone, to its error row,
        # and an invalid parameter is rejected before anything runs.
        huge = {"family": "gamma", "role": {"kind": "scale", "value": 1.0}, "shape": 1e308}
        lines = [
            {"id": "default-sigma", "family": "gaussian", "role": {"kind": "location", "value": 0.0}},
            {"id": "explicit-sigma", "family": "gaussian", "role": {"kind": "location", "value": 0.0},
             "sigma": 1.0},
            {"id": "negative-zero", "family": "gaussian", "role": {"kind": "location", "value": -0.0}},
            {"id": "huge-shape-1", **huge},
            {"id": "huge-shape-2", **huge},
        ]
        groups = []

        def runner(group):
            groups.append(sorted(s.scenario_id for s in group))
            return [run_scenario(s) for s in group]

        results = run_all([Scenario.from_dict(raw) for raw in lines], runner, jobs=1)
        assert sorted(groups) == [["default-sigma", "explicit-sigma"], ["huge-shape-1"], ["huge-shape-2"],
                                  ["negative-zero"]]
        assert [r.scenario_id for r in results] == sorted(raw["id"] for raw in lines)
        assert [r.error is not None for r in results] == [False, False, True, True, False]
        bad_scale = {"id": "bad-scale", "family": "gaussian", "role": {"kind": "scale", "value": -1.0}}
        with pytest.raises(ScenarioFileError, match="'bad-scale'"):
            run_all([Scenario.from_dict(bad_scale)], runner, jobs=1)

    def test_no_memo_outlives_a_command(self, shared, tmp_path, capsys, count_cells):
        spent = []
        for _ in range(2):
            before = count_cells()
            self._out(["bounds", str(shared), "--format", "json", "--out"], tmp_path / "out.json", capsys)
            spent.append(count_cells() - before)
        assert spent[0] == spent[1] > 0


class TestJobs:
    """--jobs N starts at most one pool worker per piece, and N below 1 is an
    input error (exit 2).  The pool is an in-process stand-in that records
    the workers asked for, so no real worker is started."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, pieces):
                return map(fn, pieces)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_the_pool_is_capped_at_the_number_of_pieces(self, pools, tmp_path):
        # The twelve builtin lines are twelve laws: one piece each under --jobs 5000.
        assert len(builtin_scenarios()) == 12
        serial = tmp_path / "serial.json"
        assert main(["bounds", "--out", str(serial)]) == 0
        assert pools == []
        for jobs in ("5000", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(["bounds", "--jobs", jobs, "--out", str(out)]) == 0
            assert out.read_text() == serial.read_text()
        assert pools == [12, 2]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_jobs_below_one_is_an_input_error(self, pools, capsys, value):
        for command in ("check", "bounds"):
            assert main([command, "--jobs", value]) == 2
            assert f"--jobs must be at least 1, got {value}" in capsys.readouterr().err
        assert pools == []


class TestBadTolerances:
    """A tolerance that is not a finite number > 0 is an input error (exit 2)."""

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
    def test_tol_flag(self, capsys, value):
        for command in ("check", "bounds", "fisher", "paper-table"):
            assert main([command, f"--tol={value}"]) == 2
            assert "--tol must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "loose"])
    def test_tol_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("STEINB_TOL", value)
        assert main(["check"]) == 2
        assert "STEINB_TOL must be" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1e-9", "NaN", "Infinity", "\"-1\""])
    def test_identity_tolerance(self, tmp_path, capsys, value):
        p = tmp_path / "scn.jsonl"
        p.write_text('{"id": "a", "family": "poisson", "role": {"kind": "theta", "value": 1.0}, '
                     f'"tolerances": {{"identity": {value}}}}}\n')
        for command in ("check", "bounds"):
            assert main([command, str(p)]) == 2
            err = capsys.readouterr().err
            assert f"{p}:1:" in err and "tolerances.identity must be finite and > 0" in err


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steinb.cli", "paper-table", "--list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "identity-suite" in proc.stdout

    def test_parser_is_built_on_first_use_only(self):
        # Built lazily, so a fresh interpreter holds no warm cache; then reused.
        code = (
            "import steinb.cli as cli\n"
            "before = cli._parser.cache_info().currsize\n"
            "cli.main(['paper-table', '--list']); cli.main(['paper-table', '--list'])\n"
            "print(before, cli._parser.cache_info().currsize, cli._parser.cache_info().hits)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "0 1 1"

    def test_a_cold_serial_bounds_run_loads_no_module_it_does_not_use(self, tmp_path):
        # A command runs in a fresh interpreter, here also without a bytecode
        # cache, and pays for every module it imports.  The records are built
        # without dataclasses (which loads inspect); the process pool, csv and
        # the paper table are imported only by the calls that use them.
        unused = ("dataclasses", "inspect", "concurrent.futures", "csv", "steinb.papertable")
        out = tmp_path / "report.json"
        code = (
            "import sys\n"
            "from steinb import cli\n"
            f"rc = cli.main(['bounds', '--format', 'json', '--jobs', '1', '--out', {str(out)!r}])\n"
            f"print(rc, [m for m in {unused!r} if m in sys.modules])\n"
        )
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"
        assert len(json.loads(out.read_text())) == 12

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["bounds", "--format", "xml"], []])
    def test_reused_parser_answers_alike(self, capsys, argv):
        seen = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            seen.append((info.value.code, capsys.readouterr()))
        assert seen[0] == seen[1]
