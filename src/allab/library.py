"""Built-in torus foliation data used by the analysis examples and the
command-line scenarios.

Three models ship:
  * a two-Reeb-band foliation,
  * a degree-one boundary-torus pair (every direction occurs, so the loop
    winding is nontrivial),
  * a zero-winding model with eight Reeb bands whose turning cancels, paired
    with its quarter-turn partner.
"""

from __future__ import annotations

from .expr import parse_expr
from .foliation import Foliation2


def two_reeb_band() -> Foliation2:
    """V = (sin 2pi u, cos 2pi u): two vertical compact leaves with opposite
    orientations bounding two Reeb bands; winding (-1, 0)."""
    return Foliation2(parse_expr("sin(2*pi*u)"), parse_expr("cos(2*pi*u)"))


def franks_williams_pair() -> tuple[Foliation2, Foliation2]:
    """Direction angle 2pi u and its quarter-turn partner.  The direction map
    has degree one along the u-loop, so the winding obstruction fires."""
    F = Foliation2(parse_expr("cos(2*pi*u)"), parse_expr("sin(2*pi*u)"))
    G = Foliation2(parse_expr("-sin(2*pi*u)"), parse_expr("cos(2*pi*u)"))
    return F, G


EIGHT_BAND_ANGLE = "pi/2 + 1.2*pi*sin(4*pi*u)"


def eight_band_pair() -> tuple[Foliation2, Foliation2]:
    """Zero-winding model with twelve vertical compact leaves (four up,
    eight down) bounding eight Reeb bands, plus its quarter-turn partner.
    The pair passes the winding test yet carries parallel compact leaves."""
    F = Foliation2(
        parse_expr(f"cos({EIGHT_BAND_ANGLE})"),
        parse_expr(f"sin({EIGHT_BAND_ANGLE})"),
    )
    G = Foliation2(
        parse_expr(f"-sin({EIGHT_BAND_ANGLE})"),
        parse_expr(f"cos({EIGHT_BAND_ANGLE})"),
    )
    return F, G


# each name a config may give as ``foliation.builtin``, and the foliation and
# partner (or None) it builds
BUILTINS = {
    "two-reeb-band": lambda: (two_reeb_band(), None),
    "franks-williams": franks_williams_pair,
    "eight-band": eight_band_pair,
}
