"""Patch geometry, logical-error extrapolation, and magic-state conversion.

The honeycomb lattice-surgery cube uses a fixed 3:5:10 width:height:rounds
aspect ratio.  Logical error rates per cube are ingested as simulated data
points and extrapolated with a weighted exponential fit in log space; magic
state factory footprints are converted from surface-code protocol tables with
two scalar rates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import FitError, InvalidParameterError, NoDistanceFoundError

#: Heights for the tabulated widths 6..30.  Stored verbatim: the published
#: rounding of 5w/3 to a multiple of 3 is not monotone in direction, so the
#: generic nearest-multiple rule is applied only off-table.
_TABLE_HEIGHTS = {
    6: 9, 8: 12, 10: 18, 12: 21, 14: 24, 16: 27,
    18: 30, 20: 33, 22: 36, 24: 39, 26: 42, 28: 48, 30: 51,
}

LADDER_WIDTHS = tuple(sorted(_TABLE_HEIGHTS))
#: Widest off-table width ``select_distance`` tries by default.
MAX_WIDTH = 200

#: Scalar conversion rates from surface-code to honeycomb factory footprints.
MSF_QUBIT_RATE = 0.52
MSF_ROUND_RATE = 4.2


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
        if self.sigma <= 0.0:
            raise InvalidParameterError("sigma must be positive")


@dataclass(frozen=True)
class FitParams:
    """Parameters of the model E(n) = n * exp(a*sqrt(n) - b)."""

    a: float
    b: float


def combined_error(e_h: float, e_v: float) -> float:
    """Probability of at least one of two independent logical failures."""
    return 1.0 - (1.0 - e_h) * (1.0 - e_v)


def fit_error_curve(points: Sequence[ErrorDataPoint], weighted: bool = True) -> FitParams:
    """Least-squares fit of ln(e/n) against sqrt(n).

    Weights are inverse variances of the log, i.e. (e/sigma)^2, matching a
    fit "weighted by the statistical uncertainty" of each point.
    """
    if len(points) < 2:
        raise FitError("need at least two data points to fit two parameters")
    n = np.array([p.geometry.qubits for p in points], dtype=float)
    e = np.array([p.e_hv for p in points], dtype=float)
    s = np.array([p.sigma for p in points], dtype=float)
    x = np.sqrt(n)
    y = np.log(e / n)
    design = np.column_stack([x, np.ones_like(x)])
    if weighted:
        w = np.sqrt((e / s) ** 2)
        design = design * w[:, None]
        y = y * w
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2:
        raise FitError("degenerate design matrix (all points at the same size?)")
    a, c = coeffs
    return FitParams(a=float(a), b=float(-c))


def extrapolate_error(fit: FitParams, width: int) -> float:
    """Model error rate at the geometry of the given width."""
    n = patch_geometry(width).qubits
    return n * math.exp(fit.a * math.sqrt(n) - fit.b)


def select_distance(
    fit: FitParams,
    target_error: float,
    allow_off_table: bool = False,
    max_width: int = MAX_WIDTH,
) -> PatchGeometry:
    """Smallest ladder width whose fitted error rate meets the target.

    The table holds every even width from 6 to 30; off-table widths continue
    in steps of 2 up to ``max_width``.
    """
    if not 0.0 < target_error < 1.0:
        raise InvalidParameterError(f"target_error={target_error} must lie in (0, 1)")
    top = max(max_width, LADDER_WIDTHS[-1]) if allow_off_table else LADDER_WIDTHS[-1]
    for w in range(LADDER_WIDTHS[0], top + 1, 2):
        if extrapolate_error(fit, w) <= target_error:
            return patch_geometry(w)
    raise NoDistanceFoundError(f"no width up to {top} reaches target {target_error:g}")


class CnotOverhead(NamedTuple):
    value: float
    clamped: bool


def transversal_cnot_overhead(e_cnot_plus_4: float, e_4cube: float) -> CnotOverhead:
    """Error attributable to the transversal CNOT on top of a 4-cube memory.

    Both inputs are Monte-Carlo estimates, so the difference can come out
    negative; it is clamped to zero with the ``clamped`` flag set.
    """
    diff = e_cnot_plus_4 - e_4cube
    if diff < 0.0:
        return CnotOverhead(0.0, True)
    return CnotOverhead(diff, False)


def msf_qubit_conversion_rate(width: float) -> float:
    """Honeycomb-to-surface qubit count ratio at matched logical error.

    Evaluates (5w^2/3) / (2 (w/1.25 + 1)^2) as printed; the published 0.52
    arises when the honeycomb width is 1.25x the surface width at matched
    error, so the formula's width argument is ambiguous and the pipeline uses
    the printed scalar rate instead.
    """
    return (5.0 * width**2 / 3.0) / (2.0 * (width / 1.25 + 1.0) ** 2)


def round_sig(x: float, sig: int = 3) -> float:
    if x == 0:
        return 0.0
    return round(x, sig - 1 - math.floor(math.log10(abs(x))))


def msf_convert(sc_qubits: float, sc_cycles: float, cultivation_factor: float = 5.0):
    """Convert a surface-code factory footprint to honeycomb patches/rounds.

    Applies the cultivation reduction then the 0.52 qubit and 4.2 round
    rates, rounding to 3 significant figures as the published table does.
    """
    hh_qubits = round_sig(MSF_QUBIT_RATE * sc_qubits / cultivation_factor)
    hh_rounds = round_sig(MSF_ROUND_RATE * sc_cycles / cultivation_factor)
    return hh_qubits, hh_rounds


@dataclass(frozen=True)
class MsfProtocol:
    """One magic-state factory protocol with derived honeycomb footprint."""

    label: str
    p_out: float
    sc_qubits: float
    sc_cycles: float
    cultivation_factor: float = 5.0

    @property
    def cult_qubits(self) -> float:
        return self.sc_qubits / self.cultivation_factor

    @property
    def cult_cycles(self) -> float:
        return self.sc_cycles / self.cultivation_factor

    @property
    def hh_qubits(self) -> float:
        return msf_convert(self.sc_qubits, self.sc_cycles, self.cultivation_factor)[0]

    @property
    def hh_rounds(self) -> float:
        return msf_convert(self.sc_qubits, self.sc_cycles, self.cultivation_factor)[1]


def _bundled(name: str):
    return resources.files("ftcost").joinpath("data", name)


def load_error_data(path: Optional[str] = None) -> list[ErrorDataPoint]:
    """Read cube error data (columns width,height,rounds,qubits,ehv,ehv_stddev)."""
    source = open(path, newline="") if path else _bundled("lattice_surgery_p001.csv").open()
    with source as f:
        rows = list(csv.DictReader(f))
    points = []
    for row in rows:
        geo = PatchGeometry(int(row["width"]), int(row["height"]), int(row["rounds"]))
        if geo.qubits != int(row["qubits"]):
            raise InvalidParameterError(
                f"row w={geo.width}: qubits column {row['qubits']} != width*height"
            )
        points.append(ErrorDataPoint(geo, float(row["ehv"]), float(row["ehv_stddev"])))
    return points


def load_msf_table(path: Optional[str] = None) -> list[MsfProtocol]:
    """Read factory protocols (columns label,p_out,sc_qubits,sc_cycles)."""
    source = open(path, newline="") if path else _bundled("msf_protocols.csv").open()
    with source as f:
        rows = list(csv.DictReader(f))
    return [
        MsfProtocol(row["label"], float(row["p_out"]),
                    float(row["sc_qubits"]), float(row["sc_cycles"]))
        for row in rows
    ]
