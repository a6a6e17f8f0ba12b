import hashlib
import json
import os
import re

import jsonschema
import pytest

from allab import library
from allab.cli import COMMANDS, REPORT_SCHEMA, ToolError, _validate, main, run
from allab.config import _SECTIONS, ConfigError, load_config
from allab.foliation import compact_leaves
from allab.render import RenderStyle, render_foliation

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


# ---------------------------------------------------------------------------
# config loading

def test_load_cat_map_config():
    cfg = load_config(cfg_path("cat-map.cfg"))
    assert cfg.matrix == (2, 1, 1, 1)
    assert cfg.scale_c == 10.0
    assert cfg.foliation_source == "model"
    assert len(cfg.digest) == 64


def test_config_reports_all_violations(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[model]\n"
        "type = warp\n"
        "fiber_z = soon\n"
        "[foliation]\n"
        "source = field\n"
        "v1 = sin(2*pi*u\n"
        "v2 = 1\n"
        "[mystery]\n"
        "x = 1\n"
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    text = str(err.value)
    assert "model.type" in text
    assert "model.fiber_z" in text
    assert "foliation.v1" in text
    assert "unknown section [mystery]" in text


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[analysis]\ngrid = 8\nspeed = fast\n")
    with pytest.raises(ConfigError, match="unknown key analysis.speed"):
        load_config(str(bad))


def test_config_lists_the_builtin_names(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[foliation]\nsource = builtin\nbuiltin = nine-band\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert "unknown name 'nine-band'; choose from " + ", ".join(library.BUILTINS) in str(err.value)
    assert sorted(library.BUILTINS) == ["eight-band", "franks-williams", "two-reeb-band"]


def test_config_refuses_deeply_nested_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[foliation]\nsource = field\nv1 = " + "sin(" * 250 + "u" + ")" * 250
                   + "\nv2 = 1\n")
    with pytest.raises(ConfigError, match="foliation.v1: does not parse: nested too deeply"):
        load_config(str(bad))


def test_main_refuses_a_field_nested_too_deeply_to_compile(tmp_path, capsys):
    # it parses, but its generated source nests past Python's 200 parentheses
    e = "u"
    for _ in range(100):
        e = f"sin(1+{e})"
    path = tmp_path / "deep.cfg"
    path.write_text(f"[foliation]\nsource = field\nv1 = 1\nv2 = 0.3 + 0.01*{e}\n")
    assert load_config(str(path)).v2 is not None
    assert main(["foliation", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "allab: expression is nested too deeply to compile\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_numbers(tmp_path, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[analysis]\ntolerance = {value}\n")
    with pytest.raises(ConfigError, match="analysis.tolerance: not a finite number"):
        load_config(str(bad))


def test_docs_list_exactly_the_keys_the_config_accepts():
    # under each "## `[section]`" heading, a table names one or more keys in
    # backticks in its first column
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "config.md")
    documented, section = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("## "):
                m = re.match(r"## `\[(\w+)\]`", line)
                section = m and m.group(1)
                if section:
                    documented[section] = set()
            elif section and line.startswith("| `"):
                documented[section] |= set(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert documented == _SECTIONS


# ---------------------------------------------------------------------------
# rendering

def test_render_constant_foliation_deterministic():
    from allab.foliation import constant_slope

    F = constant_slope(0.5)
    svg1 = render_foliation(F, leaves=[])
    svg2 = render_foliation(F, leaves=[])
    assert svg1 == svg2
    assert svg1.startswith('<?xml version="1.0"')
    assert "<polyline" in svg1 and "</svg>" in svg1


def test_render_two_reeb_band_highlights_leaves():
    F = library.two_reeb_band()
    leaves = compact_leaves(F)
    style = RenderStyle(seeds=3, length=1.5)
    svg = render_foliation(F, leaves, style)
    assert svg.count(f'stroke="{style.leaf_color}"') >= 2
    assert "<polygon" in svg  # orientation arrowheads


# ---------------------------------------------------------------------------
# runner and exit codes

def test_run_cat_map_check_pair(tmp_path):
    cfg = load_config(cfg_path("cat-map.cfg"))
    code, report = run(cfg, "check-pair", str(tmp_path))
    assert code == 0
    al = report["stages"]["check-pair"]["al"]
    assert al["verdict"] == "anosov_liouville"
    assert al["f_plus"]["min"] == pytest.approx(2.0, rel=1e-9)
    assert al["f_minus"]["min"] == pytest.approx(2.0, rel=1e-9)
    assert abs(al["f_zero"]["max"]) < 1e-9


def test_run_cat_map_pre_lagrangian(tmp_path):
    cfg = load_config(cfg_path("cat-map.cfg"))
    code, report = run(cfg, "pre-lagrangian", str(tmp_path))
    assert code == 0
    assert report["stages"]["pre-lagrangian"]["prelag"]["outcome"] == "certificate"
    with open(tmp_path / "report.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == report


def test_run_franks_williams_obstructed(tmp_path):
    cfg = load_config(cfg_path("franks-williams.cfg"))
    code, report = run(cfg, "pre-lagrangian", str(tmp_path))
    assert code == 2
    prelag = report["stages"]["pre-lagrangian"]["prelag"]
    assert prelag["outcome"] == "not_attempted"
    assert prelag["obstruction"]["verdict"] == "obstructed"


def test_run_eight_band_failed(tmp_path):
    cfg = load_config(cfg_path("eight-band.cfg"))
    code, report = run(cfg, "pre-lagrangian", str(tmp_path))
    assert code == 2
    prelag = report["stages"]["pre-lagrangian"]["prelag"]
    assert prelag["outcome"] == "failed"
    assert any("parallel compact leaves" in d for d in prelag["diagnostics"])


def test_run_two_reeb_band_foliation_and_render(tmp_path):
    cfg = load_config(cfg_path("two-reeb-band.cfg"))
    code, report = run(cfg, "foliation", str(tmp_path))
    assert code == 0
    fol = report["stages"]["foliation"]
    assert fol["winding"] == [-1, 0]
    assert len(fol["compact_leaves"]) == 2
    assert len(fol["reeb_annuli"]) == 2

    code, report = run(cfg, "render", str(tmp_path))
    assert code == 0
    assert (tmp_path / "two-reeb-band.svg").exists()


def test_all_on_a_single_foliation_skips_the_pair_stage(tmp_path, capsys):
    cfg = load_config(cfg_path("two-reeb-band.cfg"))
    code, report = run(cfg, "all", str(tmp_path))
    assert code == 0 and report["ok"]
    pre = report["stages"]["pre-lagrangian"]
    assert pre["skipped"] == "needs a partner foliation" and pre["ok"]
    assert report["stages"]["render"]["ok"]
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "two-reeb-band.svg").exists()
    # asked for by name, the pair stage is still a tool error
    out = tmp_path / "explicit"
    assert main(["pre-lagrangian", "--config", cfg_path("two-reeb-band.cfg"),
                 "--out", str(out)]) == 1
    assert "needs a partner foliation" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_all_renders_the_same_svg_as_render(tmp_path, name):
    cfg = load_config(cfg_path(name))
    run(cfg, "all", str(tmp_path / "all"))
    run(cfg, "render", str(tmp_path / "render"))
    svg = [(tmp_path / d / cfg.svg_name).read_bytes() for d in ("all", "render")]
    assert svg[0] == svg[1]


def test_report_schema_round_trip(tmp_path):
    cfg = load_config(cfg_path("two-reeb-band.cfg"))
    _, report = run(cfg, "foliation", str(tmp_path))
    text = json.dumps(report, sort_keys=True)
    parsed = json.loads(text)
    jsonschema.validate(parsed, REPORT_SCHEMA)
    assert parsed == report


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The in-process report of every command that runs on a shipped config."""
    out = []
    for name in sorted(os.listdir(CONFIGS)):
        cfg = load_config(cfg_path(name))
        for command in COMMANDS:
            try:
                out.append(run(cfg, command, str(tmp_path_factory.mktemp(command)))[1])
            except ToolError as e:  # check-pair with no model, pre-lagrangian with no partner
                assert "needs" in str(e)
    return out


def _mutations(report):
    """report and copies of it that break or bend the schema."""
    yield report
    for key in REPORT_SCHEMA["required"]:
        yield {k: v for k, v in report.items() if k != key}
    yield {**report, "extra": 1}
    for value in (0, True, 2.0):
        yield {**report, "threads": value}
    yield {**report, "ok": 1}
    name, stage = next(iter(report["stages"].items()))
    yield {**report, "stages": {name: {k: v for k, v in stage.items() if k != "seconds"}}}
    yield {**report, "stages": {name: {**stage, "ok": "yes"}}}
    yield {**report, "stages": list(report["stages"].values())}


def _accepts(doc) -> bool:
    try:
        _validate(doc, REPORT_SCHEMA)
    except ToolError:
        return False
    return True


def test_validator_agrees_with_jsonschema(reports):
    assert len(reports) == 16  # 4 configs x 5 commands, less 4 that need what a config lacks
    reference = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    verdicts = [
        (_accepts(doc), reference.is_valid(doc))
        for report in reports for doc in _mutations(report)
    ]
    assert all(ours == theirs for ours, theirs in verdicts)
    # each report and its threads = 2.0 copy pass; the 13 others fail
    assert sum(ours for ours, _ in verdicts) == 2 * len(reports)
    stage = {k: v for k, v in reports[0]["stages"]["check-pair"].items() if k != "ok"}
    with pytest.raises(ToolError, match=r"^report\.stages\.check-pair lacks 'ok'$"):
        _validate({**reports[0], "stages": {"check-pair": stage}}, REPORT_SCHEMA)


def test_validator_refuses_a_keyword_it_does_not_implement(reports):
    schema = {**REPORT_SCHEMA, "properties": {
        **REPORT_SCHEMA["properties"], "command": {"type": "string", "enum": list(COMMANDS)}}}
    with pytest.raises(ToolError, match=r"report\.command uses unsupported keywords \['enum'\]"):
        _validate(reports[0], schema)


# ---------------------------------------------------------------------------
# CLI entry point

def test_main_exit_codes(tmp_path, capsys):
    assert main(
        ["check-pair", "--config", cfg_path("cat-map.cfg"), "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "check-pair: ok" in out
    assert main(
        [
            "pre-lagrangian",
            "--config",
            cfg_path("franks-williams.cfg"),
            "--out",
            str(tmp_path),
        ]
    ) == 2


def test_main_missing_config_is_tool_error(tmp_path, capsys):
    code = main(["foliation", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "allab:" in capsys.readouterr().err


def test_main_out_on_a_file_is_tool_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["foliation", "--config", cfg_path("two-reeb-band.cfg"), "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("allab: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "[model]\ntype = suspension\nmatrix = 1 1 1 1\n",
        "[foliation]\nsource = field\nv1 = 0\nv2 = 0\n",
        "[foliation]\nsource = field\nv1 = 1\nv2 = u\n",
        # finite on the 256 validation grid only
        "[foliation]\nsource = field\nv1 = 1 + 0*sqrt(cos(512*pi*u) - 0.5)\nv2 = 0.3\n"
        "partner_v1 = 0.2\npartner_v2 = 1\n",
    ],
    ids=["degenerate-matrix", "vanishing-field", "non-periodic-field", "nan-off-grid"],
)
def test_main_reports_input_errors_in_one_line(tmp_path, capsys, recwarn, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    for command in ("all", "pre-lagrangian"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("allab: ") and err.count("\n") == 1
        assert "Traceback" not in err
    # numpy's warnings go to stderr outside capsys, ahead of the one line
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_main_rejects_bad_override(tmp_path, capsys):
    code = main(
        [
            "check-pair",
            "--config",
            cfg_path("cat-map.cfg"),
            "--out",
            str(tmp_path),
            "--grid",
            "-4",
        ]
    )
    assert code == 1
    assert "analysis.grid: must be positive, got -4" in capsys.readouterr().err


def test_config_digest_covers_the_overrides(tmp_path):
    reports = {}
    for flags in ([], ["--grid", "8"]):
        out = tmp_path / str(len(flags))
        assert main(["check-pair", "--config", cfg_path("cat-map.cfg"), "--out", str(out)]
                    + flags) == 0
        reports[len(flags)] = json.loads((out / "report.json").read_text())
    assert reports[0]["config_digest"] != reports[2]["config_digest"]
    with open(cfg_path("cat-map.cfg"), "rb") as fh:  # no flag: the file's own digest
        assert reports[0]["config_digest"] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid", "abc", "analysis.grid: not an integer: 'abc'"),
        ("--scale-C", "0", "analysis.scale_c: must be positive, got 0.0"),
        ("--tolerance", "1e-6%", "analysis.tolerance: not a number: '1e-6%'"),
    ],
)
def test_main_checks_a_flag_as_the_key_it_replaces(tmp_path, capsys, flag, value, message):
    args = ["check-pair", "--config", cfg_path("cat-map.cfg"), "--out", str(tmp_path)]
    assert main(args + [flag, value]) == 1
    assert f"  - {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_rejects_non_finite_tolerance(tmp_path, capsys, value):
    args = ["check-pair", "--config", cfg_path("cat-map.cfg"), "--out", str(tmp_path)]
    assert main(args + ["--tolerance", value]) == 1
    assert f"analysis.tolerance: not a finite number: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["nope", "--config", cfg_path("cat-map.cfg")], "argument command: invalid choice: 'nope'"),
        (["foliation"], "the following arguments are required: --config"),
        (["foliation", "--config", cfg_path("cat-map.cfg"), "--speed", "2"],
         "unrecognized arguments: --speed 2"),
    ],
)
def test_main_usage_errors_exit_1_in_one_line(capsys, args, message):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("allab: " + message) and err.count("\n") == 1


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert "--scale-C SCALE_C" in capsys.readouterr().out


@pytest.mark.parametrize("v1", ["u + 1/0", "2 + 2^10000*u", "(-8)^(1/3) + 1"])
def test_main_refuses_a_constant_evaluate_refuses_as_not_finite(tmp_path, capsys, v1):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[foliation]\nsource = field\nv1 = {v1}\nv2 = 1\n")
    assert main(["foliation", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("allab: direction field is not finite") and err.count("\n") == 1


def test_main_scale_override(tmp_path):
    code = main(
        [
            "pre-lagrangian",
            "--config",
            cfg_path("cat-map.cfg"),
            "--out",
            str(tmp_path),
            "--scale-C",
            "2.0",
        ]
    )
    assert code == 0
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert report["stages"]["pre-lagrangian"]["prelag"]["scale_C"] == 2.0
