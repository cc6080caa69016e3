"""The output formats of kslab.  CSV outputs use RFC-4180 quoting, '.'
decimals, and 17-significant-digit floats, and are byte-identical across
reruns of the same configuration and seed.  JSON outputs are sorted,
one-space-indented, end in a newline and are valid JSON (RFC 8259): a
non-finite float is written as null.
"""

from __future__ import annotations

import csv
import json
import math


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


def _finite(x):
    """x with each non-finite float in it, at any depth of dicts, lists and tuples, as None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def write_json(path, payload) -> None:
    """payload as sorted, one-space-indented JSON with a final newline, each
    non-finite float as null."""
    with open(path, "w") as fh:
        json.dump(_finite(payload), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")

