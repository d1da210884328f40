"""Report formatting, suite resolution, and the command-line driver."""

import json
import os
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from isoact.cli import CONFIG_KEYS, main
from isoact.errors import ConfigError, ConstraintViolation
from isoact.immobile import CayleyWindow, indicator_from_json, subset_from_json
from isoact.report import (
    MAX_TRIALS,
    CheckRow,
    Report,
    SuiteConfig,
    check_row,
    digest_of,
    emit_report,
    format_number,
    format_value,
    make_report,
    render_report,
    report_to_dict,
    unresolved_row,
)
from isoact.suites import REGISTRY, resolve_config, run_suite, suite_names

SUITES = [
    "asymptotic",
    "bergman",
    "cocycle-law",
    "cpd-gns",
    "fock-mult",
    "h1",
    "length-recovery",
    "measure-cocycle",
    "sp-tau",
    "traintrack",
    "translation-length",
    "tree-identities",
    "triangle",
]


class TestFormatting:
    def test_rationals_and_integers(self):
        assert format_number(Fraction(3, 4)) == "3/4"
        assert format_number(Fraction(-5)) == "-5"
        assert format_number(7) == "7"

    def test_floats_round_trip(self):
        for x in (0.1, 1e-9, 2.0 / 3.0, -1.5e300):
            assert float(format_number(x)) == x

    def test_booleans_rejected(self):
        with pytest.raises(ConfigError):
            format_number(True)

    def test_values(self):
        assert format_value("already text") == "already text"
        assert format_value([Fraction(1, 2), 3]) == "1/2; 3"

    def test_digest_is_order_free(self):
        assert digest_of({"b": 1, "a": 2}) == digest_of({"a": 2, "b": 1})
        assert len(digest_of([1, 2, 3])) == 16


class TestRows:
    def test_exact_zero_passes_at_zero_tolerance(self):
        row = check_row("r", {}, Fraction(0), Fraction(0), Fraction(0))
        assert row.verdict == "pass"
        assert row.residual == "0"

    def test_tiny_exact_residual_still_fails(self):
        row = check_row("r", {}, 0, Fraction(1, 10**12), Fraction(0))
        assert row.verdict == "fail"

    def test_float_comparison(self):
        assert check_row("r", {}, 0.0, 1e-10, 1e-9).verdict == "pass"
        assert check_row("r", {}, 0.0, 1e-8, 1e-9).verdict == "fail"

    def test_unresolved_row_shape(self):
        row = unresolved_row("r", {"k": 1}, "guards exhausted")
        assert row.verdict == "unresolved"
        assert row.residual == "" and row.tolerance == ""


class TestSuiteConfig:
    def test_field_validation(self):
        with pytest.raises(ConfigError, match="'radii'.*'fuzzy'"):
            resolve_config(SuiteConfig.make("h1", params={"radii": "fuzzy"}))
        with pytest.raises(ConfigError, match="seed"):
            SuiteConfig.make("bergman", seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            SuiteConfig.make("bergman", seed=2**64)
        for trials in (0, MAX_TRIALS + 1):
            with pytest.raises(ConfigError, match="trials"):
                SuiteConfig.make("bergman", trials=trials)
        for tolerance in (0.0, float("inf"), float("nan"), "abc"):
            with pytest.raises(ConfigError, match="tolerance"):
                SuiteConfig.make("bergman", tolerance=tolerance)

    def test_params_are_sorted(self):
        cfg = SuiteConfig.make("bergman", params={"z": 1, "a": 2})
        assert cfg.params == (("a", 2), ("z", 1))


def report_from_dict(data: dict) -> Report:
    """The report a JSON rendering describes: the inverse of ``report_to_dict``.

    Reading a rendering back checks that it carries every field of every row.
    """
    rows = tuple(CheckRow(**row) for row in data["rows"])
    report = Report(suite=data["suite"], digest=data["digest"], rows=rows)
    if data.get("summary") != report.summary():
        raise ConfigError("report summary does not match its rows")
    return report


class TestReportShape:
    def rows(self):
        return [
            check_row("b", {}, 1, 0, 0),
            check_row("a", {}, 2, 0, 0),
            unresolved_row("c", {}, "skipped"),
        ]

    def test_rows_sorted_and_counted(self):
        report = make_report("demo", "d" * 16, self.rows())
        assert [r.id for r in report.rows] == ["a", "b", "c"]
        assert report.summary() == {"pass": 2, "fail": 0, "unresolved": 1}
        assert report.exit_status() == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            make_report("demo", "d" * 16, [check_row("a", {}, 1, 0, 0)] * 2)

    def test_json_round_trip(self):
        report = make_report("demo", "d" * 16, self.rows())
        again = report_from_dict(json.loads(render_report(report, "json")))
        assert again == report

    def test_tampered_summary_rejected(self):
        data = report_to_dict(make_report("demo", "d" * 16, self.rows()))
        data["summary"]["pass"] += 1
        with pytest.raises(ConfigError, match="summary"):
            report_from_dict(data)

    def test_csv_shape(self):
        report = make_report("demo", "d" * 16, self.rows())
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == "id,inputs,value,residual,tolerance,verdict"
        assert len(lines) == 1 + len(report.rows)

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            render_report(make_report("demo", "d" * 16, []), "xml")

    def test_emit_load_round_trip(self, tmp_path):
        report = make_report("demo", "d" * 16, self.rows())
        path = str(tmp_path / "report.json")
        emit_report(report, "json", path)
        with open(path, encoding="utf-8") as handle:
            assert report_from_dict(json.load(handle)) == report


class TestResolution:
    def test_registry_is_complete(self):
        assert suite_names() == SUITES

    def test_unknown_suite_lists_known(self):
        with pytest.raises(ConfigError, match="asymptotic"):
            resolve_config(SuiteConfig.make("nosuch"))

    def test_unknown_param_names_key_and_suite(self):
        cfg = SuiteConfig.make("bergman", params={"wavelength": 3})
        with pytest.raises(ConfigError, match="'wavelength'.*bergman"):
            resolve_config(cfg)

    def test_h1_runs_every_trial(self):
        report = run_suite(SuiteConfig.make("h1", trials=12, params={"radii": [2, 3]}))
        assert sum(row.id.startswith("coboundary-") for row in report.rows) == 12

    def test_h1_single_radius_names_key(self):
        cfg = SuiteConfig.make("h1", params={"radii": [6]})
        with pytest.raises(ConfigError, match="radii"):
            run_suite(cfg)

    def test_defaults_fill_in(self):
        rc = resolve_config(SuiteConfig.make("bergman"))
        assert rc.trials == 50 and rc.tolerance == 1e-6
        assert rc.params == {"degree": 100, "max_ratio": 0.8}
        assert resolve_config(SuiteConfig.make("h1")).params["radii"] == (6, 8, 10)
        cfg = SuiteConfig.make("h1", params={"radii": [4, 5]})
        assert resolve_config(cfg).params["radii"] == (4, 5)

    @pytest.mark.parametrize(
        "suite, key, value",
        [
            ("h1", "radii", "6,8"),
            ("h1", "radii", [0, 1]),
            ("h1", "radii", [6, 6]),
            ("translation-length", "radius", "abc"),
            ("translation-length", "radius", 30),
            ("tree-identities", "n_values", "[2]"),
            ("traintrack", "step", "0"),
            ("traintrack", "step", "1/0"),
            ("traintrack", "step", "2/3"),
            ("traintrack", "step", "0.02"),
            ("bergman", "degree", 2.5),
            ("bergman", "max_ratio", True),
            ("fock-mult", "cases", [[1, 15]]),
        ],
    )
    def test_bad_param_names_suite_key_and_value(self, suite, key, value):
        cfg = SuiteConfig.make(suite, params={key: value})
        with pytest.raises(ConfigError) as caught:
            resolve_config(cfg)
        message = str(caught.value)
        assert suite in message and repr(key) in message and repr(value) in message

    def test_declared_defaults_lie_in_their_ranges(self):
        for name, entry in REGISTRY.items():
            for param in entry.params:
                if param.default is not None:
                    assert param.resolve(name, param.default) == param.default, (name, param)

    def test_benchmark_configs_resolve(self):
        paths = sorted(Path(__file__).resolve().parents[1].glob("perfbench/configs/*/*.json"))
        assert paths
        for path in paths:
            data = json.loads(path.read_text())
            assert set(data) <= set(CONFIG_KEYS), path
            cfg = SuiteConfig.make(
                data["suite"], trials=data.get("trials"), params=data.get("params")
            )
            assert resolve_config(cfg).suite == data["suite"], path


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(suite=st.sampled_from(SUITES), data=st.data())
def test_any_params_resolve_or_raise_config_error(suite, data):
    declared = [param.name for param in REGISTRY[suite].params]
    keys = st.sampled_from(declared) | st.text(max_size=6)
    params = data.draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
    try:
        rc = resolve_config(SuiteConfig.make(suite, params=params))
    except ConfigError:
        return
    assert sorted(rc.params) == sorted(declared)
    assert len(digest_of(rc.as_dict())) == 16


class TestDeterminism:
    def test_repeat_runs_identical_bytes(self):
        cfg = SuiteConfig.make("asymptotic", seed=11)
        first = render_report(run_suite(cfg), "json")
        second = render_report(run_suite(cfg), "json")
        assert first == second

    def test_extra_trials_do_not_perturb_earlier_rows(self):
        short = run_suite(SuiteConfig.make("bergman", seed=5, trials=4))
        long = run_suite(SuiteConfig.make("bergman", seed=5, trials=7))
        short_rows = {r.id: r for r in short.rows}
        long_rows = {r.id: r for r in long.rows}
        assert set(short_rows) < set(long_rows)
        for row_id, row in short_rows.items():
            assert long_rows[row_id] == row


class TestRunCommand:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_list(self):
        result = self.invoke("run", "--list")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert sorted(data) == SUITES
        for name in SUITES:
            assert data[name]["checks"] == REGISTRY[name].description

    def test_list_shows_every_parameter(self):
        data = json.loads(self.invoke("run", "--list").output)
        for name in SUITES:
            declared = REGISTRY[name].params
            listed = data[name]["params"]
            assert sorted(listed) == sorted(p.name for p in declared)
            for param in declared:
                assert listed[param.name]["allowed"] == param.describe()
                default = listed[param.name]["default"]
                if param.default is None:
                    assert default is None
                else:
                    # the listed default, given back as a config value, is the declared one
                    assert param.resolve(name, default) == param.default

    def test_passing_suite_exits_zero(self):
        result = self.invoke("run", "--suite", "asymptotic", "--seed", "1")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["suite"] == "asymptotic"
        assert data["summary"]["fail"] == 0

    def test_failing_rows_exit_nonzero(self):
        result = self.invoke("run", "--suite", "bergman", "--trials", "3", "--tol", "1e-30")
        assert result.exit_code == 1
        assert json.loads(result.output)["summary"]["fail"] > 0

    def test_csv_and_json_agree_on_rows(self, tmp_path):
        json_path = str(tmp_path / "r.json")
        csv_path = str(tmp_path / "r.csv")
        for fmt, path in (("json", json_path), ("csv", csv_path)):
            result = self.invoke(
                "run", "--suite", "triangle", "--trials", "5", "--format", fmt, "--out", path
            )
            assert result.exit_code == 0
            assert path in result.output
        rows = json.loads(open(json_path).read())["rows"]
        csv_lines = open(csv_path).read().splitlines()
        assert len(csv_lines) == 1 + len(rows)

    def test_config_file_merged_under_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "bergman", "seed": 5, "trials": 4}))
        result = self.invoke("run", "--config", str(path), "--trials", "2")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert len(data["rows"]) == 4  # two rows per trial, flag wins over file
        expected = run_suite(SuiteConfig.make("bergman", seed=5, trials=2))
        assert data["digest"] == expected.digest

    def test_unknown_config_key_is_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "bergman", "bogus": 1}))
        result = self.invoke("run", "--config", str(path))
        assert result.exit_code != 0
        assert "bogus" in result.output

    def test_unknown_suite_is_reported(self):
        result = self.invoke("run", "--suite", "nosuch")
        assert result.exit_code != 0
        assert "nosuch" in result.output

    def test_missing_suite_is_reported(self):
        result = self.invoke("run")
        assert result.exit_code != 0
        assert "--suite" in result.output

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"suite": "bergman",', "--config"),
            ("[1, 2]", "--config"),
            ('{"suite": "bergman", "seed": "abc"}', "seed"),
            ('{"suite": "bergman", "tolerance": "abc"}', "tolerance"),
            ('{"suite": "bergman", "mode": "float"}', "mode"),
            ('{"suite": "bergman", "params": [1]}', "params"),
            ('{"suite": "h1", "params": {"radii": "6,8"}}', "radii"),
            ('{"suite": "traintrack", "params": {"step": "0"}}', "step"),
            ('{"suite": "traintrack", "params": {"step": "2/3"}}', "traintrack: parameter 'step'"),
            ('{"suite": "traintrack", "tolerance": 0.1}', "tolerance"),
        ],
    )
    def test_bad_config_file_is_one_error_line(self, tmp_path, text, key):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert_one_error_line(self.invoke("run", "--config", str(path)), key)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("seed", "seed must be an unsigned 64-bit integer, got True"),
            ("trials", "trials must be an integer in 1..10000, got True"),
            ("tolerance", "tolerance must be a positive finite number, got True"),
        ],
    )
    def test_bool_config_value_rejected(self, tmp_path, key, message):
        # bool subclasses int, so JSON true must be refused by name, not read as 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "triangle", key: True}))
        result = self.invoke("run", "--config", str(path))
        assert_one_error_line(result, key)
        assert message in result.output
        with pytest.raises(ConfigError, match=message):
            SuiteConfig.make("triangle", **{key: True})

    def test_infinite_tolerance_rejected(self):
        result = self.invoke("run", "--suite", "bergman", "--trials", "1", "--tol", "inf")
        assert_one_error_line(result, "tolerance")

    def test_traintrack_refuses_a_tolerance(self):
        # its rows always use 5 * step, so a given tolerance would change only the digest
        result = self.invoke("run", "--suite", "traintrack", "--trials", "1", "--tol", "1e-12")
        assert_one_error_line(result, "tolerance")
        assert "5 * step" in result.output
        with pytest.raises(ConfigError, match="traintrack: a tolerance cannot be set"):
            resolve_config(SuiteConfig.make("traintrack", tolerance=5e-3))
        assert resolve_config(SuiteConfig.make("traintrack")).tolerance == 5e-3

    @pytest.mark.parametrize(
        "suite", ["translation-length", "length-recovery", "triangle", "tree-identities"]
    )
    def test_exact_suites_refuse_a_tolerance(self, suite, tmp_path):
        # every row is exact at tolerance 0, so a given tolerance would change only the digest
        result = self.invoke("run", "--suite", suite, "--trials", "1", "--tol", "1e-3")
        assert_one_error_line(result, "tolerance")
        assert f"{suite}: a tolerance cannot be set; every row is exact" in result.output
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": suite, "tolerance": 1e-3}))
        assert_one_error_line(self.invoke("run", "--config", str(path)), "tolerance")
        assert resolve_config(SuiteConfig.make(suite)).tolerance == 1e-9


def assert_one_error_line(result, key):
    """Exit status 1 with a single ``Error:`` line naming ``key``, no traceback."""
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error:") and key in lines[0], lines


# two disjoint single-edge tracks, whose quotient has two components
TWO_SEGMENTS = (
    '{"vertices":["v","w","x","y"],"edges":[{"ends":["v","w"]},{"ends":["x","y"]}],'
    '"cyclic":{"v":[[0,0]],"w":[[0,1]],"x":[[1,0]],"y":[[1,1]]},'
    '"widths":{"0:0":"1","0:1":"1","1:0":"1","1:1":"1"}}'
)
DISC_PAIR = ("--g1", '{"a":["5/4","0"],"b":["3/4","0"]}', "--g2", '{"a":["4/3","1/3"],"b":["2/3","2/3"]}')
# a JSON list nested past Python's recursion limit
DEEP_LIST = "[" * 3000 + "]" * 3000


def with_files(tmp_path, args):
    """``args`` with each bytes argument replaced by the path of a file holding those bytes."""
    out = []
    for i, arg in enumerate(args):
        if isinstance(arg, bytes):
            path = tmp_path / f"arg{i}.json"
            path.write_bytes(arg)
            arg = str(path)
        out.append(arg)
    return out


class TestModuleCommands:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

    def out(self, *args):
        result = self.invoke(*args)
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    def test_tree_ball_counts(self):
        data = self.out("tree", "ball", "--n", "2", "--radius", "4")
        assert data["vertices"] == 46 and data["leaves"] == 24

    def test_tree_latdist(self):
        data = self.out(
            "tree",
            "latdist",
            "--p",
            "2",
            "--m1",
            '[["1","0"],["0","1"]]',
            "--m2",
            '[["4","1"],["0","1"]]',
        )
        assert data["distance"] == 2

    def test_tree_deriv_rejects_n(self):
        args = ("tree", "deriv", "--radius", "4", "--word", "[1]", "--end", "[0,0,0,0]")
        assert self.out(*args) == {"derivative": "3"}
        result = self.invoke(*args, "--n", "3")
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert "No such option '--n'" in result.output

    def test_rtree_length(self):
        data = self.out("rtree", "length", "--word", "[2,1,-2]")
        assert data["length"] == 1
        assert data["core"] == [1] and data["conjugator"] == [2]

    def test_rtree_gamma_counts_distinguished_letters(self):
        data = self.out("rtree", "gamma", "--word", "[1,-2,1]", "--alpha", "1")
        assert data["norm2"] == "2"
        assert len(data["edges"]) == 2

    def test_rtree_validate_rejects_garbage(self):
        result = self.invoke("rtree", "validate", "--track", '{"vertices": []}')
        assert result.exit_code == 1
        assert json.loads(result.output)["ok"] is False

    @pytest.mark.parametrize(
        "content, key",
        [
            (b"{bad", "malformed JSON for train track"),
            (b"\xff\xfe", "can't decode byte 0xff"),
            (DEEP_LIST.encode(), "is nested too deeply"),
        ],
        ids=["malformed", "not-utf8", "too-deep"],
    )
    def test_rtree_validate_refuses_unreadable_file(self, content, key, tmp_path):
        # validate reports a track it cannot read in its verdict, as it does one it rejects
        result = self.invoke("rtree", "validate", "--track", *with_files(tmp_path, [content]))
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        data = json.loads(result.output)
        assert data["ok"] is False and key in data["error"]

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"widths": {"0:0": 1.5}}, "got 1.5"),
            ({"widths": {"0:0": None}}, "got None"),
            ({"widths": {"0:0": "1/0"}}, "got '1/0'"),
            ({"widths": {"0:0": True}}, "got True"),
            ({"widths": []}, "'widths' must be a JSON object"),
            ({"cyclic": []}, "'cyclic' must be a JSON object"),
        ],
        ids=["float", "null", "zero-denominator", "bool", "widths-list", "cyclic-list"],
    )
    def test_rtree_validate_refuses_bad_rationals(self, change, key):
        track = json.loads(TWO_SEGMENTS)
        for name, value in change.items():
            track[name] = {**track[name], **value} if isinstance(value, dict) else value
        result = self.invoke("rtree", "validate", "--track", json.dumps(track))
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["ok"] is False and key in data["error"]

    @pytest.mark.parametrize(
        "g, key",
        [
            ('{"a":["5/4",0.0],"b":["3/4",0]}', "mix floats"),
            ('{"a":["x",0],"b":[0,0]}', "got 'x'"),
            ('{"a":["1/0",0],"b":[0,0]}', "got '1/0'"),
            ('{"a":[true,0],"b":[0,0]}', "got True"),
        ],
        ids=["mixed", "unparsable", "zero-denominator", "bool"],
    )
    def test_mobius_refuses_bad_rationals(self, g, key):
        assert_one_error_line(self.invoke("mobius", "length", "--g", g), key)

    def test_mobius_identity_has_zero_length(self):
        data = self.out("mobius", "length", "--g", '{"a":["1","0"],"b":["0","0"]}')
        assert data["length"] == 0.0

    def test_mobius_cocycle_residual_small(self):
        data = self.out(
            "mobius",
            "cocycle",
            "--g1",
            '{"a":["5/4","0"],"b":["3/4","0"]}',
            "--g2",
            '{"a":["4/3","1/3"],"b":["2/3","2/3"]}',
        )
        assert data["degree"] == 80 and 0.0 <= data["residual"] < 1e-9
        assert "verdict" not in data

    def test_mobius_rejects_non_group_element(self):
        result = self.invoke("mobius", "length", "--g", '{"a":["2","0"],"b":["0","0"]}')
        assert result.exit_code != 0

    def test_cocycle_lattice_exact_value(self):
        data = self.out(
            "cocycle",
            "lattice",
            "--first",
            '[["1/2",[["1","0"]]]]',
            "--second",
            '[["1/3",[["0","1"]]]]',
        )
        assert data["sigma"] == "-1/6"

    def test_immobile_set_single_boundary_edge(self):
        data = self.out("immobile", "set", "--radius", "5")
        assert data["boundary_edges"] == 1

    def test_immobile_func_verdicts(self):
        stable = self.out("immobile", "func", "--schedule", "3,4,5")
        assert stable["verdict"] == "stabilizes"
        parity = self.out(
            "immobile", "func", "--schedule", "3,4,5", "--set", '{"kind":"parity"}'
        )
        assert parity["verdict"] == "diverges"

    def test_immobile_chain_residual(self):
        data = self.out(
            "immobile", "cocycle", "--word", "[1,2]", "--q", "[-2]", "--radius", "5"
        )
        assert data["chain_residual"] == 0

    def test_harmonic_poisson_exact(self):
        data = self.out("harmonic", "poisson", "--radius", "4", "--k", "1")
        assert data["residual"] == "0" and data["verdict"] == "pass"

    @pytest.mark.parametrize(
        "args, key",
        [
            (("tree", "dist", "--n", "2", "--radius", "3", "--u", "5", "--v", "[]"), "--u"),
            (("rtree", "metric", "--track", "theta", "--points", '[[0,"x"]]'), "--points"),
            (("rtree", "metric", "--track", "theta", "--points", '[["a","1/2"]]'), "--points"),
            (("tree", "latdist", "--p", "2", "--m1", "[[1]]", "--m2", "[[1,0],[0,1]]"), "--m1"),
            (("cocycle", "lattice", "--first", "[1]", "--second", "[]"), "--first"),
            (("immobile", "set", "--set", "[1]"), "--set"),
            (("rtree", "length", "--word", '{"a":1}'), "--word"),
            (("rtree", "length", "--word", "[3]"), "--word"),
            (("rtree", "metric", "--track", TWO_SEGMENTS, "--points", '[[0,"0"],[1,"1"]]'), "components"),
            (("cocycle", "bgroup", "--trials", "1", "--tol", "nan"), "--tol"),
            (("cocycle", "bgroup", "--trials", "1", "--tol", "-1"), "--tol"),
            (("cocycle", "bgroup", "--trials", "1", "--tol", "inf"), "--tol"),
            # JSON floats are not exact rationals
            (
                ("tree", "latdist", "--p", "2", "--m1", "[[1,0],[0,1]]", "--m2", "[[0.5,0],[0,1]]"),
                "--m2: expected an integer or a 'p/q' fraction, got 0.5",
            ),
            (
                ("rtree", "metric", "--track", "theta", "--points", "[[0, 0.5]]"),
                "--points: expected an integer or a 'p/q' fraction, got 0.5",
            ),
            (
                (
                    "cocycle",
                    "lattice",
                    "--first",
                    '[[0.5,[["1","0"]]]]',
                    "--second",
                    '[[1e-1,[["0","1"]]]]',
                ),
                "--first: expected an integer or a 'p/q' fraction, got 0.5",
            ),
            # a defect that is not finite is refused, NaN and inf - inf alike
            (
                ("mobius", "length", "--g", '{"a":[NaN,0],"b":[0,0]}'),
                "--g: |a|^2 - |b|^2 - 1 = nan",
            ),
            (
                ("mobius", "length", "--g", '{"a":[Infinity,0],"b":[Infinity,0]}'),
                "--g: |a|^2 - |b|^2 - 1 = nan",
            ),
            (("mobius", "length", "--g", '{"a":[2,0],"b":[0,0]}'), "--g: |a|^2 - |b|^2 = 4 != 1"),
            (("mobius", "gram", "--g1", '{"a":[2,0],"b":[0,0]}', *DISC_PAIR[2:]), "--g1: |a|^2"),
            (("mobius", "cocycle", *DISC_PAIR[:3], '{"a":["x","0"],"b":[0,0]}'), "--g2: expected"),
            # a bytes argument is the content of a file whose path is passed
            (("rtree", "length", "--word", DEEP_LIST), "JSON for --word is nested too deeply"),
            (("run", "--config", DEEP_LIST.encode()), "is nested too deeply"),
            (("rtree", "metric", "--track", b"{bad", "--points", "[]"), "malformed JSON for train track"),
            (("rtree", "metric", "--track", b"\xff\xfe", "--points", "[]"), "can't decode byte 0xff"),
        ],
    )
    def test_bad_probe_argument_is_one_error_line(self, args, key, tmp_path):
        assert_one_error_line(self.invoke(*with_files(tmp_path, args)), key)

    @pytest.mark.parametrize(
        "args",
        [
            ("immobile", "set", "--radius", "40"),
            ("tree", "dist", "--n", "3", "--radius", "40", "--u", "[]", "--v", "[]"),
            ("immobile", "func", "--schedule", "4,30"),
            ("harmonic", "poisson", "--radius", "25"),
            ("harmonic", "poisson", "--n", "2", "--radius", "10"),
            ("harmonic", "gram", "--n", "2", "--radius", "8", "--k", "8"),
        ],
    )
    def test_oversized_ball_refused_before_work(self, args):
        start = time.perf_counter()
        result = self.invoke(*args)
        assert time.perf_counter() - start < 5.0
        assert_one_error_line(result, "radius")

    @pytest.mark.parametrize(
        "args, key",
        [
            (("cocycle", "bgroup", "--level", "60"), "--level"),
            (("cocycle", "bgroup", "--trials", str(MAX_TRIALS + 1)), "--trials"),
            (("mobius", "cocycle", *DISC_PAIR, "--degree", "-3"), "--degree"),
            (("mobius", "cocycle", *DISC_PAIR, "--degree", "201"), "--degree"),
            (("mobius", "cocycle", *DISC_PAIR, "--tol", "1e-6"), "--tol"),
            (("mobius", "gns", "--size", "0"), "--size"),
            (("mobius", "gns", "--size", "-2"), "--size"),
            (("mobius", "gns", "--size", "51"), "--size"),
            (("mobius", "probe", "--powers", "3"), "--powers"),
            (("mobius", "probe", "--powers", str(MAX_TRIALS + 1)), "--powers"),
            (("tree", "latdist", "--p", "1000000000000037", "--m1", "[[1,0],[0,1]]", "--m2", "[[2,0],[0,1]]"), "--p"),
            (("harmonic", "gram", "--p", "2"), "--p"),
            (("harmonic", "poisson", "--seed", "-1"), "--seed"),
            (("mobius", "gns", "--seed", "-1"), "--seed"),
            (("mobius", "probe", "--seed", "-1"), "--seed"),
            (("cocycle", "bgroup", "--seed", "-1"), "--seed"),
            (("mobius", "probe", "--seed", str(2**64)), "--seed"),
        ],
    )
    def test_bgroup_sizes_bounded(self, args, key):
        # click refuses an unknown option or one outside its range before any work
        start = time.perf_counter()
        result = self.invoke(*args)
        assert time.perf_counter() - start < 5.0
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error")]
        assert errors == [result.output.strip().splitlines()[-1]] and key in errors[0]

    def test_bad_group_name(self):
        result = self.invoke("immobile", "set", "--group", "Z2")
        assert result.exit_code != 0
        assert "F<rank>" in result.output


class TestSetDescriptors:
    def test_indicator_kinds(self):
        window = CayleyWindow(2, 3)
        suffix = subset_from_json(window, {"kind": "suffix", "v": [1]})
        assert all(m.letters[-1:] == (1,) for m in suffix)
        parity = indicator_from_json({"kind": "parity"}, 2)
        assert parity(next(iter(suffix))) in (0, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstraintViolation, match="kind"):
            indicator_from_json({"kind": "volume"}, 2)
