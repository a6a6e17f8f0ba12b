"""Traced command-line run: ``python -X importtime clishim.py SPANS ARGS...``
runs ``allab.cli.main(ARGS)`` with the tracer installed and writes the spans
and their summary to SPANS when the command ends."""

import sys

import tracer

import allab.cli

if __name__ == "__main__":
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        code = allab.cli.main(sys.argv[2:])
    finally:
        tr.dump(sys.argv[1])
    sys.exit(code)
