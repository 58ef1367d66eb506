"""Patch geometry, logical-error extrapolation, and magic-state conversion.

The honeycomb lattice-surgery cube uses a fixed 3:5:10 width:height:rounds
aspect ratio.  Logical error rates per cube are ingested as simulated data
points and extrapolated with a weighted exponential fit in log space; magic
state factory footprints are converted from surface-code protocol tables with
two scalar rates.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import os
from bisect import bisect_left
from importlib import resources
from typing import Optional, Sequence

from .errors import FitError, InvalidParameterError, NoDistanceFoundError, Record, integer, real, real_fields

#: The published widths, 6..30: the default ``max_width`` and ``fit``'s rows.
LADDER_WIDTHS = tuple(range(6, 31, 2))
#: Widest width the ladder holds.
MAX_WIDTH = 200

#: Scalar conversion rates from surface-code to honeycomb factory footprints,
#: applied after the cultivation reduction.
MSF_QUBIT_RATE = 0.52
MSF_ROUND_RATE = 4.2
CULTIVATION_FACTOR = 5.0


class PatchGeometry(Record):
    """One lattice-surgery patch: qubits per row, rows, rounds per cube; the
    attribute ``qubits``, not a field, is width * height."""

    width: int
    height: int
    rounds: int

    def __init__(self, width, height, rounds):
        # not ``vars(self)``: building the instance dict slows every later
        # attribute read, and the ladder's geometries are read on every solve
        for name, value in zip(self._fields, (width, height, rounds)):
            object.__setattr__(self, name, integer(value, name))
        object.__setattr__(self, "qubits", self.width * self.height)


def patch_geometry(width: int) -> PatchGeometry:
    """Geometry at an even width: height the multiple of 3 nearest 5w/3 (never a
    tie) and rounds 2h.  At widths 6..30 this is the published table; wider
    widths extrapolate it, which is an assumption."""
    width = integer(width, "width", even=True, rule="a positive even integer")
    h = 3 * round(5 * width / 9)
    return PatchGeometry(width, h, 2 * h)


class ErrorDataPoint(Record):
    """Simulated combined spacelike logical error per cube, with uncertainty."""

    geometry: PatchGeometry
    e_hv: float
    sigma: float

    def __init__(self, geometry, e_hv, sigma):
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "e_hv", real(e_hv, "e_hv", above=0, below=1))
        object.__setattr__(self, "sigma", real(sigma, "sigma", above=0))


class FitParams(Record):
    """Parameters of the model E(n) = n * exp(a*sqrt(n) - b)."""

    a: float
    b: float


def fit_error_curve(points: Sequence[ErrorDataPoint]) -> FitParams:
    """Least-squares fit of ln(e/n) against sqrt(n).

    Weights are inverse variances of the log, i.e. (e/sigma)^2, matching a
    fit "weighted by the statistical uncertainty" of each point.  The 2x2
    weighted normal equations are solved in closed form about the weighted
    mean of sqrt(n), which keeps the slope accurate when the sizes cluster.

    The fit is memoized on the values it reads from each point, taken without
    hashing the points and never on where they were read from, so equal data
    are fitted once and changed data are refitted.
    """
    return _fit(tuple(map(_POINT_VALUES, points)))


#: The values of an ``ErrorDataPoint`` that the fit reads, as a plain tuple.
_POINT_VALUES = operator.attrgetter("geometry.qubits", "e_hv", "sigma")


@functools.lru_cache(maxsize=8)
def _fit(values: tuple[tuple[int, float, float], ...]) -> FitParams:
    if len({n for n, _, _ in values}) < 2:
        raise FitError("need data points at two or more sizes to fit two parameters")
    xs = [math.sqrt(n) for n, _, _ in values]
    ys = [math.log(e_hv / n) for n, e_hv, _ in values]
    ws = [(e_hv / sigma) ** 2 for _, e_hv, sigma in values]
    sw = sum(ws)
    x_mean = sum(w * x for w, x in zip(ws, xs)) / sw
    y_mean = sum(w * y for w, y in zip(ws, ys)) / sw
    sxx = sum(w * (x - x_mean) ** 2 for w, x in zip(ws, xs))
    sxy = sum(w * (x - x_mean) * (y - y_mean) for w, x, y in zip(ws, xs, ys))
    a = sxy / sxx
    return FitParams(a=a, b=a * x_mean - y_mean)


def extrapolate_error(fit: FitParams, width: int) -> float:
    """Model error rate at the geometry of the given width, inf beyond any float."""
    return _model_error(fit.a, fit.b, patch_geometry(width).qubits)


def _model_error(a: float, b: float, n: int) -> float:
    try:
        return n * math.exp(a * math.sqrt(n) - b)
    except OverflowError:
        return math.inf


#: ``patch_geometry`` of every even width 6..``MAX_WIDTH``, narrowest first; rounds grow with width.
LADDER = tuple(patch_geometry(w) for w in range(LADDER_WIDTHS[0], MAX_WIDTH + 1, 2))


def ladder_rungs(max_width: int) -> tuple[PatchGeometry, ...]:
    """The ``LADDER`` geometries up to ``max_width``, an integer in [6, ``MAX_WIDTH``];
    anything but a Python int in range goes through the rule first."""
    if type(max_width) is not int or not LADDER_WIDTHS[0] <= max_width <= MAX_WIDTH:
        max_width = integer(max_width, "max_width", LADDER_WIDTHS[0], MAX_WIDTH,
                            rule=f"an integer in [{LADDER_WIDTHS[0]}, {MAX_WIDTH}]")
    return LADDER[:(max_width - LADDER_WIDTHS[0]) // 2 + 1]


def select_distance(
    fit: FitParams,
    target_error: float,
    max_width: int = LADDER_WIDTHS[-1],
) -> PatchGeometry:
    """The narrowest ladder geometry up to ``max_width`` whose fitted error meets the target.

    The ladder holds every even width from 6 to ``MAX_WIDTH``; past 30 its
    heights are extrapolated.  Each width's error is computed as
    ``extrapolate_error`` computes it, once per fit for the whole ladder; a
    probe bisects the running minimum of those errors.
    """
    rungs = ladder_rungs(max_width)
    target_error = real(target_error, "target_error", above=0, below=1)
    index = bisect_left(_least_errors(fit.a, fit.b), -target_error, 0, len(rungs))
    if index == len(rungs):
        raise NoDistanceFoundError(f"no width up to {max_width} reaches target {target_error:g}")
    return rungs[index]


@functools.lru_cache(maxsize=8, typed=True)
def _least_errors(a: float, b: float) -> list[float]:
    """Minus the least model error up to each ``LADDER`` width, ascending: the
    first entry >= -t is the first width with error <= t, NaN never being one."""
    table, least = [], math.inf
    for geometry in LADDER:
        least = min(least, _model_error(a, b, geometry.qubits))
        table.append(-least)
    return table


def round_sig(x: float) -> float:
    if x == 0:
        return 0.0
    return round(x, 2 - math.floor(math.log10(abs(x))))


def msf_convert(sc_qubits: float, sc_cycles: float):
    """Convert a surface-code factory footprint to honeycomb patches/rounds.

    Applies the 5x cultivation reduction then the 0.52 qubit and 4.2 round
    rates, rounding to 3 significant figures as the published table does.
    """
    hh_qubits = round_sig(MSF_QUBIT_RATE * sc_qubits / CULTIVATION_FACTOR)
    hh_rounds = round_sig(MSF_ROUND_RATE * sc_cycles / CULTIVATION_FACTOR)
    return hh_qubits, hh_rounds


class MsfProtocol(Record):
    """One magic-state factory protocol with derived honeycomb footprint.

    The attributes ``hh_qubits`` and ``hh_rounds``, not fields, are
    ``msf_convert`` of the surface-code footprint, derived once at construction.
    """

    label: str
    p_out: float
    sc_qubits: float
    sc_cycles: float

    def __init__(self, label, p_out, sc_qubits, sc_cycles):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "p_out", real(p_out, "p_out", above=0, below=1))
        real_fields(self, ("sc_qubits", "sc_cycles"), (sc_qubits, sc_cycles), above=0)
        hh_qubits, hh_rounds = msf_convert(self.sc_qubits, self.sc_cycles)
        object.__setattr__(self, "hh_qubits", hh_qubits)
        object.__setattr__(self, "hh_rounds", hh_rounds)


def _bundled(name: str):
    return resources.files("ftcost").joinpath("data", name)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, a non-empty str or an
    ``os.PathLike``; any other path, or a file that cannot be read, is an
    error naming it."""
    if not (isinstance(path, str) and path or isinstance(path, os.PathLike)):
        raise InvalidParameterError(f"path={path!r} must be a non-empty str or os.PathLike")
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(
            f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _parse_rows(path: Optional[str], bundled: str, make) -> list:
    """``make(row)`` for every CSV row of ``path``, or of the bundled file when
    ``path`` is None; a bad row, or no row at all, is an error naming it."""
    text = _bundled(bundled).read_text(encoding="utf-8") if path is None else read_text(path)
    items = []
    for i, row in enumerate(csv.DictReader(text.splitlines()), start=1):
        try:
            items.append(make(row))
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"no column {exc}" if isinstance(exc, KeyError) else exc
            raise InvalidParameterError(f"{path or bundled} data row {i}: {detail}") from None
    if not items:
        raise InvalidParameterError(f"{path or bundled} has no data rows")
    return items


def _column(row: dict, name: str, parse):
    """``parse`` (``int`` or ``float``) of column ``name``; a value that does
    not parse is an error naming the column."""
    try:
        return parse(row[name])
    except (TypeError, ValueError):
        kind = "an integer" if parse is int else "a number"
        raise InvalidParameterError(f"could not convert {name}={row[name]!r} to {kind}") from None


def _error_point(row: dict) -> ErrorDataPoint:
    width, height, rounds, qubits = (_column(row, name, int)
                                     for name in ("width", "height", "rounds", "qubits"))
    geo = PatchGeometry(width, height, rounds)
    if geo.qubits != qubits:
        raise InvalidParameterError(f"qubits column {qubits} != width*height")
    return ErrorDataPoint(geo, _column(row, "ehv", float), _column(row, "ehv_stddev", float))


def _protocol(row: dict) -> MsfProtocol:
    return MsfProtocol(row["label"], *(_column(row, name, float)
                                       for name in ("p_out", "sc_qubits", "sc_cycles")))


#: Overall noise intensity p at which the bundled cube error data were simulated.
BUNDLED_NOISE_P = 0.01


@functools.cache
def _parse_bundled(name: str, make) -> tuple:
    return tuple(_parse_rows(None, name, make))


def _load(path: Optional[str], bundled: str, make) -> list:
    """A new list of the rows of the file at ``path``, parsed on every call, or
    when ``path`` is None of the bundled file, parsed once per process."""
    return list(_parse_bundled(bundled, make)) if path is None else _parse_rows(path, bundled, make)


def load_error_data(path: Optional[str] = None) -> list[ErrorDataPoint]:
    """Read cube error data (columns width,height,rounds,qubits,ehv,ehv_stddev)."""
    return _load(path, "lattice_surgery_p001.csv", _error_point)


def load_msf_table(path: Optional[str] = None) -> list[MsfProtocol]:
    """Read factory protocols (columns label,p_out,sc_qubits,sc_cycles)."""
    return _load(path, "msf_protocols.csv", _protocol)
