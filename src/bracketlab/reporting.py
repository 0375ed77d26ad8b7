"""Byte-stable report emission.

Identical inputs must produce identical bytes: keys are sorted, floats
print with 17 significant digits, newlines are LF, encoding is UTF-8.
Artifacts are written to a temporary file and atomically renamed so a
failed run never leaves partial output behind.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def canonical_json(obj, indent: int = 0) -> str:
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
