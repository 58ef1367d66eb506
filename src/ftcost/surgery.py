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
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple, Optional, Sequence

from .errors import FitError, InvalidParameterError, NoDistanceFoundError

#: Heights for the tabulated widths 6..30.  Stored verbatim: the published
#: rounding of 5w/3 to a multiple of 3 is not monotone in direction, so the
#: generic nearest-multiple rule is applied only off-table.
_TABLE_HEIGHTS = {
    6: 9, 8: 12, 10: 18, 12: 21, 14: 24, 16: 27,
    18: 30, 20: 33, 22: 36, 24: 39, 26: 42, 28: 48, 30: 51,
}

LADDER_WIDTHS = tuple(sorted(_TABLE_HEIGHTS))
#: Widest width the ladder holds.
MAX_WIDTH = 200

#: Scalar conversion rates from surface-code to honeycomb factory footprints,
#: applied after the cultivation reduction.
MSF_QUBIT_RATE = 0.52
MSF_ROUND_RATE = 4.2
CULTIVATION_FACTOR = 5.0


@dataclass(frozen=True)
class PatchGeometry:
    """One lattice-surgery patch: qubits per row, rows, rounds per cube."""

    width: int
    height: int
    rounds: int

    @property
    def qubits(self) -> int:
        return self.width * self.height


def patch_geometry(width: int) -> PatchGeometry:
    """Geometry of the ladder entry at the given even width.

    Tabulated widths (6..30) reproduce the published table; other widths use
    height = nearest multiple of 3 to 5w/3 and rounds = 2h.
    """
    if not (isinstance(width, int) and width > 0 and width % 2 == 0):
        raise InvalidParameterError(f"width={width} must be a positive even integer")
    if width in _TABLE_HEIGHTS:
        h = _TABLE_HEIGHTS[width]
    else:
        h = 3 * round(5 * width / 9)
    return PatchGeometry(width, h, 2 * h)


@dataclass(frozen=True)
class ErrorDataPoint:
    """Simulated combined spacelike logical error per cube, with uncertainty."""

    geometry: PatchGeometry
    e_hv: float
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.e_hv < 1.0:
            raise InvalidParameterError(f"e_hv={self.e_hv} must lie in (0, 1)")
        if not 0.0 < self.sigma < math.inf:
            raise InvalidParameterError(f"sigma={self.sigma} must be positive and finite")


@dataclass(frozen=True)
class FitParams:
    """Parameters of the model E(n) = n * exp(a*sqrt(n) - b)."""

    a: float
    b: float


def fit_error_curve(points: Sequence[ErrorDataPoint]) -> FitParams:
    """Least-squares fit of ln(e/n) against sqrt(n).

    Weights are inverse variances of the log, i.e. (e/sigma)^2, matching a
    fit "weighted by the statistical uncertainty" of each point.  The 2x2
    weighted normal equations are solved in closed form about the weighted
    mean of sqrt(n), which keeps the slope accurate when the sizes cluster.

    The fit is memoized on the values of the points, never on where they were
    read from, so equal data are fitted once and changed data are refitted.
    """
    return _fit(tuple(points))


@functools.lru_cache(maxsize=8)
def _fit(points: tuple[ErrorDataPoint, ...]) -> FitParams:
    sizes = [p.geometry.qubits for p in points]
    if len(set(sizes)) < 2:
        raise FitError("need data points at two or more sizes to fit two parameters")
    xs = [math.sqrt(n) for n in sizes]
    ys = [math.log(p.e_hv / n) for p, n in zip(points, sizes)]
    ws = [(p.e_hv / p.sigma) ** 2 for p in points]
    sw = sum(ws)
    x_mean = sum(w * x for w, x in zip(ws, xs)) / sw
    y_mean = sum(w * y for w, y in zip(ws, ys)) / sw
    sxx = sum(w * (x - x_mean) ** 2 for w, x in zip(ws, xs))
    sxy = sum(w * (x - x_mean) * (y - y_mean) for w, x, y in zip(ws, xs, ys))
    a = sxy / sxx
    return FitParams(a=a, b=a * x_mean - y_mean)


def extrapolate_error(fit: FitParams, width: int) -> float:
    """Model error rate at the geometry of the given width."""
    n = patch_geometry(width).qubits
    return n * math.exp(fit.a * math.sqrt(n) - fit.b)


class LadderRung(NamedTuple):
    """One ladder geometry with the terms ``extrapolate_error`` derives from it."""

    qubits: int
    sqrt_qubits: float
    geometry: PatchGeometry


def _rung(width: int) -> LadderRung:
    geometry = patch_geometry(width)
    return LadderRung(geometry.qubits, math.sqrt(geometry.qubits), geometry)


#: Every even width from 6 to ``MAX_WIDTH``, narrowest first: the table, then
#: the off-table widths.  Rounds grow with width.
LADDER = tuple(_rung(w) for w in range(LADDER_WIDTHS[0], MAX_WIDTH + 1, 2))


def ladder_rungs(max_width: int) -> tuple[LadderRung, ...]:
    """The ``LADDER`` entries up to ``max_width``, an integer in [6, ``MAX_WIDTH``]."""
    if (isinstance(max_width, bool) or not isinstance(max_width, int)
            or not LADDER_WIDTHS[0] <= max_width <= MAX_WIDTH):
        raise InvalidParameterError(
            f"max_width={max_width!r} must be an integer in [{LADDER_WIDTHS[0]}, {MAX_WIDTH}]")
    return LADDER[:(max_width - LADDER_WIDTHS[0]) // 2 + 1]


def select_distance(
    fit: FitParams,
    target_error: float,
    max_width: int = LADDER_WIDTHS[-1],
) -> PatchGeometry:
    """Smallest ladder width up to ``max_width`` whose fitted error meets the target.

    The table holds every even width from 6 to 30; off-table widths continue
    in steps of 2 up to ``MAX_WIDTH``.  Each width's error is computed as
    ``extrapolate_error`` computes it.
    """
    rungs = ladder_rungs(max_width)
    if not 0.0 < target_error < 1.0:
        raise InvalidParameterError(f"target_error={target_error} must lie in (0, 1)")
    a, b = fit.a, fit.b
    for n, root, geometry in rungs:
        if n * math.exp(a * root - b) <= target_error:
            return geometry
    raise NoDistanceFoundError(f"no width up to {max_width} reaches target {target_error:g}")


def round_sig(x: float, sig: int = 3) -> float:
    if x == 0:
        return 0.0
    return round(x, sig - 1 - math.floor(math.log10(abs(x))))


def msf_convert(sc_qubits: float, sc_cycles: float):
    """Convert a surface-code factory footprint to honeycomb patches/rounds.

    Applies the 5x cultivation reduction then the 0.52 qubit and 4.2 round
    rates, rounding to 3 significant figures as the published table does.
    """
    hh_qubits = round_sig(MSF_QUBIT_RATE * sc_qubits / CULTIVATION_FACTOR)
    hh_rounds = round_sig(MSF_ROUND_RATE * sc_cycles / CULTIVATION_FACTOR)
    return hh_qubits, hh_rounds


@dataclass(frozen=True)
class MsfProtocol:
    """One magic-state factory protocol with derived honeycomb footprint.

    ``hh_qubits`` and ``hh_rounds`` are ``msf_convert`` of the surface-code
    footprint, derived once at construction.
    """

    label: str
    p_out: float
    sc_qubits: float
    sc_cycles: float
    hh_qubits: float = field(init=False, repr=False, compare=False)
    hh_rounds: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hh_qubits, hh_rounds = msf_convert(self.sc_qubits, self.sc_cycles)
        object.__setattr__(self, "hh_qubits", hh_qubits)
        object.__setattr__(self, "hh_rounds", hh_rounds)


def _bundled(name: str):
    return resources.files("ftcost").joinpath("data", name)


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``; one that cannot be read is an
    error naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(
            f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _parse_rows(path: Optional[str], bundled: str, make) -> list:
    """``make(row)`` for every CSV row of ``path``, or of the bundled file when
    ``path`` is unset; a bad row is an error naming it."""
    text = read_text(path) if path else _bundled(bundled).read_text(encoding="utf-8")
    items = []
    for i, row in enumerate(csv.DictReader(text.splitlines()), start=1):
        try:
            items.append(make(row))
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"no column {exc}" if isinstance(exc, KeyError) else exc
            raise InvalidParameterError(f"{path or bundled} data row {i}: {detail}") from None
    return items


def _error_point(row: dict) -> ErrorDataPoint:
    geo = PatchGeometry(int(row["width"]), int(row["height"]), int(row["rounds"]))
    if geo.qubits != int(row["qubits"]):
        raise InvalidParameterError(f"qubits column {row['qubits']} != width*height")
    return ErrorDataPoint(geo, float(row["ehv"]), float(row["ehv_stddev"]))


def _protocol(row: dict) -> MsfProtocol:
    return MsfProtocol(row["label"], float(row["p_out"]),
                       float(row["sc_qubits"]), float(row["sc_cycles"]))


#: Overall noise intensity p at which the bundled cube error data were simulated.
BUNDLED_NOISE_P = 0.01


@functools.cache
def _parse_bundled(name: str, make) -> tuple:
    return tuple(_parse_rows(None, name, make))


def load_error_data(path: Optional[str] = None) -> list[ErrorDataPoint]:
    """Read cube error data (columns width,height,rounds,qubits,ehv,ehv_stddev).

    The bundled file is parsed once per process, a file at ``path`` on every
    call; either way the caller gets a new list.
    """
    if path:
        return _parse_rows(path, "lattice_surgery_p001.csv", _error_point)
    return list(_parse_bundled("lattice_surgery_p001.csv", _error_point))


def load_msf_table(path: Optional[str] = None) -> list[MsfProtocol]:
    """Read factory protocols (columns label,p_out,sc_qubits,sc_cycles).

    The bundled file is parsed once per process, a file at ``path`` on every
    call; either way the caller gets a new list.
    """
    if path:
        return _parse_rows(path, "msf_protocols.csv", _protocol)
    return list(_parse_bundled("msf_protocols.csv", _protocol))
