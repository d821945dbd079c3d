"""Experiment reports: canonical JSON plus fixed-column CSV series."""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping


def jsonable(value: Any) -> Any:
    """Recursively convert result values to JSON-stable types.

    Fractions become "p/q" strings so reports stay exact; floats pass
    through (repr round-trips bit-exactly).
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if value is None or isinstance(value, (int, float, str)):  # bool is an int
        return value
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if hasattr(value, "_asdict"):
        return jsonable(value._asdict())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(report: Mapping[str, Any]) -> str:
    """``json.dumps(jsonable(report), indent=2, sort_keys=True) + "\\n"``,
    byte for byte, written in one recursive pass: with ``indent`` set,
    ``json`` runs its pure-Python encoder over a second, converted copy."""
    out: list[str] = []
    _write(report, out, "\n")
    out.append("\n")
    return "".join(out)


# The writer dispatches on the exact type of a value.  Any other type goes
# through ``jsonable`` first, and its result by the first class of its MRO
# with an entry: a float or int subclass (numpy float64, an IntEnum) prints
# as ``json`` prints it, through ``float.__repr__`` or ``int.__repr__``.

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value: Any, out: list[str], pad: str) -> None:
    _WRITERS.get(type(value), _write_other)(value, out, pad)


def _write_other(value: Any, out: list[str], pad: str) -> None:
    value = jsonable(value)
    kind = next(t for t in type(value).__mro__ if t in _WRITERS)
    _WRITERS[kind](value, out, pad)


def _write_dict(value: Mapping, out: list[str], pad: str) -> None:
    if not value:
        out.append("{}")
        return
    # keys that collide after str() keep the last value, as in ``jsonable``
    items = {str(k): v for k, v in value.items()}
    inner = pad + "  "
    sep = "{" + inner
    for key in sorted(items):
        out.append(sep + encode_basestring_ascii(key) + ": ")
        _write(items[key], out, inner)
        sep = "," + inner
    out.append(pad + "}")


def _write_list(value, out: list[str], pad: str) -> None:
    if not value:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[" + inner
    for item in value:
        out.append(sep)
        _write(item, out, inner)
        sep = "," + inner
    out.append(pad + "]")


def _write_float(value: float, out: list[str], pad: str) -> None:
    text = float.__repr__(value)
    out.append(_FLOAT_WORDS.get(text, text))


_WRITERS = {
    dict: _write_dict,
    list: _write_list,
    tuple: _write_list,
    str: lambda v, out, pad: out.append(encode_basestring_ascii(v)),
    float: _write_float,
    int: lambda v, out, pad: out.append(int.__repr__(v)),
    bool: lambda v, out, pad: out.append("true" if v else "false"),
    type(None): lambda v, out, pad: out.append("null"),
    Fraction: lambda v, out, pad: out.append(f'"{v.numerator}/{v.denominator}"'),
}


def write_report(report: Mapping[str, Any], out_dir: Path, fmt: str = "json") -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(render_report(report))
    if fmt == "csv":
        for name, rows in iter_series(report):
            write_series_csv(out_dir / f"{name}.csv", rows)
    return path


def iter_series(report: Mapping[str, Any]):
    series = report.get("results", {}).get("series", {})
    for name, rows in series.items():
        yield name, rows


def write_series_csv(path: Path, rows) -> None:
    lines = ["n,value,error_bound"]
    for row in rows:
        n, value = row[0], row[1]
        err = row[2] if len(row) > 2 else 0.0
        lines.append(f"{n},{value!r},{err!r}")
    path.write_text("\n".join(lines) + "\n")


def series_rows(series) -> list[list[float]]:
    """SumSeries -> [[n, value, error_bound], ...]."""
    return [[int(n), float(v), float(e)] for n, v, e in series.rows()]
