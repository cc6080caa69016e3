"""The output formats of kslab.  CSV outputs use RFC-4180 quoting, '.'
decimals, and 17-significant-digit floats, and are byte-identical across
reruns of the same configuration and seed.  JSON outputs are sorted,
one-space-indented and end in a newline.
"""

from __future__ import annotations

import csv
import json


def _cell(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        raise TypeError("a CSV flag must be written as 0 or 1, not a bool")
    return str(x) if isinstance(x, (str, int)) else format(x, ".17g")


def write_csv(path, header, rows) -> None:
    """The header, then one line per row: a float with 17 significant digits,
    None as nan, a str or an int as itself."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def write_json(path, payload) -> None:
    """payload as sorted, one-space-indented JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")

