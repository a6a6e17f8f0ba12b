"""Golden verdicts of ``allab all`` on the shipped configs: exit code,
winding, compact leaves (class exactly, point to 1e-9), Reeb annuli, the
pre-Lagrangian outcome and cone pair, and the SVG byte for byte.  Every file
in configs/ is pinned: one without a ``GOLDEN`` and ``SVG_SHA256`` entry
fails.  Any change to the numeric layers that moves one of these is a change
of verdict, not a refactor."""

import hashlib
import os

import pytest

from allab.cli import run
from allab.config import load_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

_EIGHT_BAND_LEAVES = [
    ((0.0, 0.0), (0, 1)),
    ((0.07839262533066498, 0.0), (0, -1)),
    ((0.17160737466933504, 0.0), (0, -1)),
    ((0.25, 0.0), (0, 1)),
    ((0.328392625330665, 0.0), (0, -1)),
    ((0.42160737466933507, 0.0), (0, -1)),
    ((0.5, 0.0), (0, 1)),
    ((0.578392625330665, 0.0), (0, -1)),
    ((0.671607374669335, 0.0), (0, -1)),
    ((0.75, 0.0), (0, 1)),
    ((0.828392625330665, 0.0), (0, -1)),
    ((0.921607374669335, 0.0), (0, -1)),
]

# name: (exit code, winding, leaves, Reeb annuli, pre-lagrangian outcome)
GOLDEN = {
    "cat-map": (0, [0, 0], [], 0, "certificate"),
    "eight-band": (2, [0, 0], _EIGHT_BAND_LEAVES, 8, "failed"),
    "franks-williams": (
        2, [1, 0], [((0.25, 0.0), (0, 1)), ((0.75, 0.0), (0, -1))], 2, "not_attempted"
    ),
    "two-reeb-band": (
        0, [-1, 0], [((0.0, 0.0), (0, 1)), ((0.5, 0.0), (0, -1))], 2, None
    ),
}

# the pairs of cone_separation where the pipeline reaches it
CONE_PAIR = {"cat-map": [[1, 0], [0, 1]], "eight-band": None}

SVG_SHA256 = {
    "cat-map": "cbabd079b3b9e0988528b19f05a6e9a7d4e4f7069bc28ec0fb425fd49d9acd11",
    "eight-band": "209590234c912e6d0a5af09402799c4460fb5a0c3d809bd35599b7f37dc10069",
    "franks-williams": "27254fd8facd42dda54f8a2d4d4d2df972a466de719cfb92a4da06300b2631a9",
    "two-reeb-band": "6d5507b7149922934de1f7e41a98f7d82ae019ad76792aa63793526837ce6c1a",
}


@pytest.mark.parametrize(
    "name", sorted(f.removesuffix(".cfg") for f in os.listdir(CONFIGS) if f.endswith(".cfg"))
)
def test_all_keeps_its_verdicts(name, tmp_path):
    assert name in GOLDEN and name in SVG_SHA256, f"configs/{name}.cfg has no pinned verdict"
    code, report = run(load_config(os.path.join(CONFIGS, name + ".cfg")), "all", str(tmp_path))
    want_code, want_winding, want_leaves, want_annuli, want_outcome = GOLDEN[name]
    assert code == want_code
    fol = report["stages"]["foliation"]
    assert fol["winding"] == want_winding
    leaves = fol["compact_leaves"]
    assert [tuple(l["cls"]) for l in leaves] == [cls for _, cls in want_leaves]
    assert not any(l["family"] for l in leaves)
    for l, (point, _) in zip(leaves, want_leaves):
        assert l["point"] == pytest.approx(list(point), abs=1e-9)
    assert len(fol["reeb_annuli"]) == want_annuli
    pre = report["stages"]["pre-lagrangian"]
    if want_outcome is None:
        assert pre["skipped"] == "needs a partner foliation" and pre["ok"]
    else:
        assert pre["prelag"]["outcome"] == want_outcome
    if name in CONE_PAIR:
        assert pre["prelag"]["cone_pair"] == CONE_PAIR[name]
    assert (tmp_path / "report.json").exists()
    svg = (tmp_path / report["stages"]["render"]["svg"]).read_bytes()
    assert hashlib.sha256(svg).hexdigest() == SVG_SHA256[name]
