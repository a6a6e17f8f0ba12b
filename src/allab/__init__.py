"""Anosov-Liouville lab.

Symbolic/numerical toolkit for bicontact pairs supporting Anosov-type
flow models, the foliations they induce on transverse tori, and the
pre-Lagrangian obstruction / construction pipelines.
"""

__version__ = "0.1.0"


class AllabError(Exception):
    """Base of every error allab raises on bad input or a failed check; the
    CLI reports these as one line and exit code 1."""
