"""Write ``tests/data/accuracy_reference.json``, the references of ``tests/test_accuracy.py``.

Run from the repository root as ``python tests/write_accuracy_reference.py``; it took 66 s
and peaked at 210 MiB on one core of a 2-vCPU machine.  For every cell of
``test_accuracy.CONFIGS`` it stores the fine evaluation of ``oracles.sweep_references``,
the spread of the two evaluations (relative for the fidelity, absolute otherwise) and a
mark: "underflow" where the fidelity's reference lies below the smallest normal double,
"unconverged" where the spread exceeds ``test_accuracy.CONVERGED``, and "" otherwise.
Rows follow ``cli.run``: widths outer, betas inner.  Reruns write the same bytes.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from oracles import sweep_references  # noqa: E402
from relent.cli import parse_config  # noqa: E402
from test_accuracy import CONFIGS, CONVERGED, REFERENCE  # noqa: E402


def references(config) -> dict:
    """column -> {"reference", "spread", "mark"}, one entry per row of ``config``'s sweep."""
    out = {}
    for delta in config.delta:
        fine, coarse = (sweep_references(config, delta, flag) for flag in (True, False))
        for column, want in fine.items():
            spread = np.abs(want - coarse[column])
            if column == "fidelity":
                spread = np.where(want > 0.0, spread / np.where(want > 0.0, want, 1.0), 0.0)
            entry = out.setdefault(column, {"reference": [], "spread": [], "mark": []})
            for x, gap in zip(want.tolist(), spread.tolist()):
                underflow = column == "fidelity" and x < np.finfo(float).tiny
                entry["reference"].append(x)
                entry["spread"].append(gap)
                entry["mark"].append("underflow" if underflow
                                     else "unconverged" if gap > CONVERGED else "")
    return out


def main() -> None:
    doc = {stem: references(parse_config(config)) for stem, config in CONFIGS.items()}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
