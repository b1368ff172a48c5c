"""``repro serve`` with the server process's layer calls wrapped.

``python -m perfbench.serve_server STATS_JSON [serve flags...]`` runs the
same CLI entry point as ``python -m repro serve`` after installing a
:class:`perfbench.layers.Probe` on the server-side calls (front-end
compile, wire codec, response cache, pool submission and wait).  When the
server exits after a ``shutdown`` op, the probe's totals go to
``STATS_JSON``.  Only the traced serve run uses this.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    stats_path, serve_flags = argv[0], argv[1:]

    from repro.cli import main as repro_main

    from perfbench.layers import Probe

    probe = Probe().install("server")
    try:
        code = repro_main(["serve", *serve_flags])
    finally:
        probe.remove()
        with open(stats_path, "w") as handle:
            json.dump(probe.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
