"""Byte-stable report emission.

Identical inputs must produce identical bytes: keys are sorted, floats
print with 17 significant digits, newlines are LF, encoding is UTF-8.
An artifact is written to a temp file and atomically renamed; the CLI writes
the JSON record last, so a failed run leaves no partial file and no record.
"""

from __future__ import annotations

import json
import os

import numpy as np

# margin of "value <sense> bound": positive when there is slack
_MARGIN = {
    "<=": lambda v, b: b - v,
    "<": lambda v, b: b - v,
    ">=": lambda v, b: v - b,
    ">": lambda v, b: v - b,
    "==": lambda v, b: -abs(v - b),
}
METHODS = ("certified", "sampled", "fitted", "heuristic")


def check(value, bound, sense: str, method: str, tol=0.0) -> dict:
    """One check, ``value <sense> bound`` up to ``tol``, as a plain record.

    ``method`` says how ``value`` was obtained: *certified* (exact, or a
    proven bound in the right direction), *sampled* (on grid nodes),
    *fitted* (from a regression) or *heuristic*.  ``margin`` is positive
    when there is slack, and the check passes when ``margin >= -tol``
    (``> -tol`` for a strict sense), so a NaN never passes.  Exact
    (int or Fraction) inputs are compared exactly and stored as floats.
    """
    if sense not in _MARGIN or method not in METHODS:
        raise ValueError(f"unknown check sense {sense!r} or method {method!r}")
    margin = _MARGIN[sense](value, bound)
    passed = margin > -tol if sense in ("<", ">") else margin >= -tol
    return {"value": float(value), "bound": float(bound), "sense": sense, "method": method,
            "tol": float(tol), "margin": float(margin), "pass": bool(passed)}


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def canonical_json(obj) -> str:
    """Deterministic JSON text for the supported value tree."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k), ensure_ascii=False)}:{canonical_json(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(canonical_json(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(obj, path) -> None:
    _atomic_write(path, canonical_json(obj) + "\n")


def write_csv(header: list[str], rows: list[list], path) -> None:
    def cell(v) -> str:
        if isinstance(v, (float, np.floating)):
            return _fmt_float(float(v))
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")
