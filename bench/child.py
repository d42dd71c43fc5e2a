"""One benchmark process: ``python3 bench/child.py SPEC.json``.

SPEC is written by run.py and names the mode, the config files, where to
write outputs and the result, and whether to trace.  Modes:

* ``inproc``: import relent, then time ``relent.cli.run(config, workers=1)``
  for each config and emit its rows as CSV (outside the timed region).
* ``validate``: ``relent validate`` for each config, as one cold process.
* ``cli``: ``relent run`` on one config through ``relent.cli.main``, the
  traced stand-in for the ``python3 -m relent.cli run`` process run.py starts
  when it is not tracing.

The result file holds the timings (wall and unstolen seconds, see clock.py),
the error of each config that raised, and
the spans when tracing.  Only a config error or a relent that was imported
from somewhere other than the checkout's ``src/`` makes the process fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import clock


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import relent.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(relent.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"relent imported from {relent.cli.__file__}, not from {src}\n")
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["first_id"])
        tracer.install()

    result = {"seconds": [], "wall": [], "errors": []}
    mode = spec["mode"]
    if mode == "validate":
        for path in spec["configs"]:
            with contextlib.redirect_stdout(io.StringIO()):
                code = relent.cli.main(["validate", "--config", path])
            if code != 0:
                return code
    elif mode == "inproc":
        for path, out in zip(spec["configs"], spec["outputs"]):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            mark = clock.start()
            try:
                rows = relent.cli.run(relent.cli.parse_config(doc), workers=1)
                error = None
            except Exception as exc:  # a failed config is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall, seconds = clock.stop(mark)
            result["wall"].append(wall)
            result["seconds"].append(seconds)
            result["errors"].append(error)
            if error is None:
                relent.cli.emit(rows, "csv", out)
    elif mode == "cli":
        (path,), (out,) = spec["configs"], spec["outputs"]
        argv = ["run", "--config", path, "--workers", str(spec["workers"]),
                "--format", "csv", "--output", out]
        code = relent.cli.main(argv)
        result["errors"].append(None if code == 0 else f"exit code {code}")
    else:
        sys.stderr.write(f"unknown mode {mode!r}\n")
        return 2

    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
