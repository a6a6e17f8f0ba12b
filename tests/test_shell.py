import hashlib
import json
import os
import re

import jsonschema
import pytest

from allab import library
from allab.cli import COMMANDS, REPORT_SCHEMA, ToolError, main, run
from allab.config import _SECTIONS, ConfigError, load_config
from allab.render import LEAF_COLOR, render_foliation

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


# ---------------------------------------------------------------------------
# config loading

def test_load_cat_map_config():
    cfg = load_config(cfg_path("cat-map.cfg"))
    assert cfg.matrix == (2, 1, 1, 1)
    assert cfg.v1 is cfg.v2 is None  # the subject is the model's fiber
    with open(cfg_path("cat-map.cfg"), "rb") as fh:  # the file's own digest
        assert cfg.digest == hashlib.sha256(fh.read()).hexdigest()


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
    assert "unknown key model.type" in text and "unknown key foliation.source" in text
    assert "model.fiber_z" in text
    assert "foliation.v1" in text
    assert "unknown section [mystery]" in text


@pytest.mark.parametrize("raw", ["--2 1 1 1", "2 1 1 \u00b9", "2 1 1", "2 1 1 1 0", "2 1 1 1.0",
                                 "2 1 1 1_0", "2 1 1 \u0661"])
def test_config_refuses_a_matrix_of_other_than_four_integers(tmp_path, raw):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[model]\nmatrix = {raw}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert f"model.matrix: expected four integers, got {raw!r}" in str(err.value)


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[output]\nreport = r.json\nspeed = fast\n")
    with pytest.raises(ConfigError, match="unknown key output.speed"):
        load_config(str(bad))


def test_main_refuses_the_analysis_section(tmp_path, capsys):
    # the AL grid, C and the tolerance are constants of allab.prelag
    path = tmp_path / "old.cfg"
    with open(cfg_path("cat-map.cfg"), encoding="utf-8") as fh:
        path.write_text(fh.read() + "\n[analysis]\ngrid = 12\n")
    assert main(["check-pair", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "allab: invalid configuration:\n  - unknown section [analysis]\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, name",
    [("report", "../escaped-report.json"), ("svg", "/abs/path.svg"), ("svg", "sub/x.svg"),
     ("report", ".."), ("svg", "."), ("report", "")],
    ids=["relative", "absolute", "nested", "dot-dot", "dot", "empty"],
)
def test_config_keeps_output_names_inside_the_output_directory(tmp_path, key, name):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[foliation]\nbuiltin = two-reeb-band\n[output]\n{key} = {name}\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert err.value.violations == (
        f"output.{key}: must be a file name in the output directory, got {name!r}",
    )
    assert main(["render", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert os.listdir(tmp_path) == ["bad.cfg"]  # nothing written, in or out of --out


def test_config_lists_the_builtin_names(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[foliation]\nbuiltin = nine-band\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert "unknown name 'nine-band'; choose from " + ", ".join(library.BUILTINS) in str(err.value)
    assert sorted(library.BUILTINS) == ["eight-band", "franks-williams", "two-reeb-band"]


@pytest.mark.parametrize(
    "text, violation",
    [
        ("[model]\nmatrix = 2 1 1 1\n[foliation]\nbuiltin = eight-band\n",
         "model.matrix with foliation.builtin: a config has one subject"),
        ("[model]\nmatrix = 2 1 1 1\n[foliation]\nv1 = 1\nv2 = 0.5\n",
         "model.matrix with foliation.v1, foliation.v2: a config has one subject"),
        ("[foliation]\nbuiltin = eight-band\nv1 = 1\nv2 = 0.5\n",
         "foliation.builtin, foliation.v1, foliation.v2: a builtin names its own fields"),
        ("[foliation]\nbuiltin = franks-williams\npartner_v1 = 0.2\npartner_v2 = 1\n",
         "foliation.builtin, foliation.partner_v1, foliation.partner_v2: "
         "a builtin names its own fields"),
        ("[model]\nfiber_z = 3\n[foliation]\nv1 = 1\nv2 = 0.5\n",
         "model.fiber_z without model.matrix: it places the model's fiber"),
        ("[foliation]\nv1 = 1\n", "foliation.v1 without foliation.v2: a field has two components"),
        ("[foliation]\nv2 = 1\n", "foliation.v2 without foliation.v1: a field has two components"),
        ("[foliation]\nv1 = 1\nv2 = 0.5\npartner_v2 = 1\n",
         "foliation.partner_v2 without foliation.partner_v1: a field has two components"),
        ("[output]\nreport = r.json\n",
         "no subject: give model.matrix, foliation.builtin, or foliation.v1 and v2"),
        ("[model]\ntype = suspension\nmatrix = 2 1 1 1\n", "unknown key model.type"),
        ("[foliation]\nsource = builtin\nbuiltin = eight-band\n", "unknown key foliation.source"),
    ],
    ids=["model-and-builtin", "model-and-field", "builtin-and-field", "builtin-and-partner",
         "fiber-without-matrix", "v1-without-v2", "v2-without-v1", "one-partner-key",
         "only-output", "model-type", "foliation-source"],
)
def test_main_refuses_a_config_that_does_not_name_one_subject(tmp_path, capsys, text, violation):
    # the keys a config sets name its subject: the model's fiber, a builtin,
    # or a field and its partner; no key is read and then ignored
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"allab: invalid configuration:\n  - {violation}\n"
    assert not (tmp_path / "out").exists()


def test_a_matrix_alone_is_the_suspension_model(tmp_path):
    path = tmp_path / "matrix.cfg"
    path.write_text("[model]\nmatrix = 2 1 1 1\n")
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    assert stages["check-pair"]["al"]["verdict"] == "anosov_liouville"
    assert stages["pre-lagrangian"]["prelag"]["outcome"] == "certificate"


def test_config_refuses_deeply_nested_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[foliation]\nv1 = " + "sin(" * 250 + "u" + ")" * 250 + "\nv2 = 1\n")
    with pytest.raises(ConfigError, match="foliation.v1: does not parse: nested too deeply"):
        load_config(str(bad))


def test_main_refuses_a_field_nested_too_deeply_to_compile(tmp_path, capsys):
    # it parses, but its generated source nests past Python's 200 parentheses
    e = "u"
    for _ in range(100):
        e = f"sin(1+{e})"
    path = tmp_path / "deep.cfg"
    path.write_text(f"[foliation]\nv1 = 1\nv2 = 0.3 + 0.01*{e}\n")
    assert main(["foliation", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "allab: invalid configuration:\n"
        "  - foliation.v2: expression is nested too deeply to compile\n"
    )


@pytest.mark.parametrize("n", [500, 5000])
def test_main_refuses_a_field_too_deep_to_hash_as_too_deep_to_compile(tmp_path, capsys, n):
    # the parser builds 1 + 0*u + ... iteratively; the kernel cache hashes it recursively
    path = tmp_path / "deep.cfg"
    path.write_text("[foliation]\nv1 = 1" + "+0*u" * n + "\nv2 = 0.3\n")
    assert main(["foliation", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "allab: invalid configuration:\n"
        "  - foliation.v1: expression is nested too deeply to compile\n"
    )


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_numbers(tmp_path, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[model]\nfiber_z = {value}\n")
    with pytest.raises(ConfigError, match="model.fiber_z: not a finite number"):
        load_config(str(bad))


@pytest.mark.parametrize("raw", ["1_2", "1_0.0", "\u0661\u0660", "0.\u0665", "1e-0_6"])
def test_config_numbers_are_ascii_numerals(tmp_path, raw):
    # Python's float takes them all, as 12.0, 10.0, 10.0, 0.5 and 1e-06
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[model]\nmatrix = 2 1 1 1\nfiber_z = {raw}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert err.value.violations == (f"model.fiber_z: not a number: {raw!r}",)


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


def test_docs_name_exactly_the_flags_the_cli_accepts(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "config.md")
    with open(path, encoding="utf-8") as fh:
        usage = next(line for line in fh if line.startswith("allab <command>"))
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[\w-]+", usage)) == flags


# ---------------------------------------------------------------------------
# rendering

def test_render_constant_foliation_deterministic():
    from allab.foliation import constant_slope

    F = constant_slope(0.5)
    svg1 = render_foliation(F)
    svg2 = render_foliation(F)
    assert svg1 == svg2
    assert svg1.startswith('<?xml version="1.0"')
    assert "<polyline" in svg1 and "</svg>" in svg1


def test_render_two_reeb_band_highlights_leaves():
    svg = render_foliation(library.two_reeb_band())
    assert svg.count(f'stroke="{LEAF_COLOR}"') >= 2
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
    yield {**report, "command": "bogus"}
    yield {**report, "config_digest": "xyz"}
    for value in (0, True, 2.0):
        yield {**report, "threads": value}
    yield {**report, "ok": 1}
    name, stage = next(iter(report["stages"].items()))
    yield {**report, "stages": {name: {k: v for k, v in stage.items() if k != "seconds"}}}
    yield {**report, "stages": {name: {**stage, "ok": "yes"}}}
    yield {**report, "stages": list(report["stages"].values())}


def test_every_report_validates_under_jsonschema(reports):
    assert len(reports) == 16  # 4 configs x 5 commands, less 4 that need what a config lacks
    reference = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    for report in reports:
        reference.validate(report)


def test_the_schema_refuses_what_it_does_not_document(reports):
    reference = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    verdicts = [reference.is_valid(doc) for report in reports for doc in _mutations(report)]
    # each report and its threads = 2.0 copy pass; the 15 others fail
    assert verdicts == ([True] + [False] * 11 + [True] + [False] * 4) * len(reports)


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
        "[model]\nmatrix = 1 1 1 1\n",
        "[foliation]\nv1 = 0\nv2 = 0\n",
        "[foliation]\nv1 = 1\nv2 = u\n",
        # finite on the 256 validation grid only
        "[foliation]\nv1 = 1 + 0*sqrt(cos(512*pi*u) - 0.5)\nv2 = 0.3\n"
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


@pytest.mark.parametrize("z", [21, -21])
def test_main_refuses_a_fiber_whose_weak_fields_fall_below_the_vanishing_bound(
        tmp_path, capsys, z):
    # e^-|z| shrinks the weak foliations' fields to |V| = 7.58e-10 at |z| = 21:
    # nowhere zero, but below the absolute bound 1e-9 of Foliation2
    path = tmp_path / "far.cfg"
    path.write_text(f"[model]\nmatrix = 2 1 1 1\nfiber_z = {z}\n")
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "allab: direction field vanishes near (u, v) = (0.0000, 0.0000): "
        "|V| = 7.58e-10, not above 1e-09\n"
    )


@pytest.mark.parametrize(
    "fields, key, name",
    [
        ("v1 = z\nv2 = 1\n", "v1", "z"),
        ("v1 = 1\nv2 = x\n", "v2", "x"),
        ("v1 = 1\nv2 = 0.3\npartner_v1 = z\npartner_v2 = 1\n", "partner_v1", "z"),
        ("v1 = 1\nv2 = 0.3\npartner_v1 = 0.2\npartner_v2 = sin(s)\n", "partner_v2", "s"),
    ],
    ids=["unbound-v1", "unbound-v2", "unbound-partner-v1", "unbound-partner-v2"],
)
def test_main_names_the_key_of_an_unbound_field_variable(tmp_path, capsys, fields, key, name):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nfiber_z = nan\n[foliation]\n" + fields)
    for command in ("all", "pre-lagrangian"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        # with the file's other violations
        assert capsys.readouterr().err == (
            "allab: invalid configuration:\n"
            "  - model.fiber_z: not a finite number: 'nan'\n"
            "  - model.fiber_z without model.matrix: it places the model's fiber\n"
            f"  - foliation.{key}: variable {name!r} is not bound; fields use u and v\n"
        )


@pytest.mark.parametrize(
    "args, message",
    [
        (["nope", "--config", cfg_path("cat-map.cfg")], "argument command: invalid choice: 'nope'"),
        (["foliation"], "the following arguments are required: --config"),
        (["foliation", "--config", cfg_path("cat-map.cfg"), "--speed", "2"],
         "unrecognized arguments: --speed 2"),
        (["check-pair", "--config", cfg_path("cat-map.cfg"), "--grid", "8"],
         "unrecognized arguments: --grid 8"),
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
    assert "--config CONFIG" in capsys.readouterr().out


@pytest.mark.parametrize("v1", ["u + 1/0", "2 + 2^10000*u", "(-8)^(1/3) + 1"])
def test_main_refuses_a_constant_evaluate_refuses_as_not_finite(tmp_path, capsys, v1):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[foliation]\nv1 = {v1}\nv2 = 1\n")
    assert main(["foliation", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("allab: direction field is not finite") and err.count("\n") == 1

