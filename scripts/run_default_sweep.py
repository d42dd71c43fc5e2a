#!/usr/bin/env python3
"""Run the Bell-spin boost sweep for a few packet widths and plot the curves.

Writes out/sweep.csv and out/sweep.gp (gnuplot).  The measure column shows the
monotone loss of spin entanglement with boost speed, including the point where
it reaches exactly zero; the fidelity column shows the overlap decay of the
full state.
"""

import pathlib
import sys

from relent.cli import SweepRow, emit, parse_config, run

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def emit_plotscript(rows: list[SweepRow], path: str, csv_path: str) -> str:
    """gnuplot script drawing the measure and fidelity against boost speed.

    One labelled series per width value and per populated quantity; quantities
    absent from every row are left out.  ``csv_path`` is written in gnuplot
    single quotes, inside which a quote is doubled.
    """
    quoted = "'" + csv_path.replace("'", "''") + "'"
    columns = [(SweepRow._fields.index(name) + 1, label)
               for label, name in (("E", "E"), ("F", "fidelity"))
               if any(getattr(row, name) is not None for row in rows)]
    # each width as the CSV writes it, so that column(2)==d matches its rows
    series = [f"  {quoted} using 1:(column(2)=={d} ? column({col}) : 1/0) "
              f"with linespoints title '{label} delta={d}'"
              for d in (format(float(x), ".17g") for x in sorted({row.delta for row in rows}))
              for col, label in columns]
    if not series:
        raise ValueError("rows contain neither a measure nor a fidelity column")
    lines = ["set datafile separator ','", "set key outside", "set xlabel 'beta'",
             "set ylabel 'value'", "set yrange [-0.05:1.05]", "plot \\", ", \\\n".join(series)]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return text


def main() -> int:
    OUT.mkdir(exist_ok=True)
    config = parse_config(
        {
            "scenario": "spin_bell_momentum_product",
            "delta": [0.5, 1.0, 4.0],
        }
    )
    rows = run(config)
    csv_path = OUT / "sweep.csv"
    emit(rows, "csv", str(csv_path))
    emit_plotscript(rows, str(OUT / "sweep.gp"), str(csv_path))

    print(f"wrote {csv_path} ({len(rows)} rows) and {OUT / 'sweep.gp'}")
    for delta in config.delta:
        sub = [r for r in rows if r.delta == delta]
        dead = next((r.beta for r in sub if r.E == 0.0), None)
        print(
            f"delta={delta}: E(0)={sub[0].E:.6f} E(0.99)={sub[-1].E:.6f} "
            f"F(0.99)={sub[-1].fidelity:.3e}"
            + (f"  measure hits zero at beta={dead}" if dead is not None else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
