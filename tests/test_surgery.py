import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftcost import (
    ErrorDataPoint,
    FitError,
    FitParams,
    InvalidParameterError,
    NoDistanceFoundError,
    extrapolate_error,
    fit_error_curve,
    load_error_data,
    load_msf_table,
    msf_convert,
    patch_geometry,
    select_distance,
)
from ftcost import surgery
from ftcost.surgery import MAX_WIDTH

#: The published ladder: (w, h, rounds, qubits).
TABLE = [
    (6, 9, 18, 54), (8, 12, 24, 96), (10, 18, 36, 180), (12, 21, 42, 252),
    (14, 24, 48, 336), (16, 27, 54, 432), (18, 30, 60, 540), (20, 33, 66, 660),
    (22, 36, 72, 792), (24, 39, 78, 936), (26, 42, 84, 1092), (28, 48, 96, 1344),
    (30, 51, 102, 1530),
]

#: Extrapolated error rates of the starred rows.
EXTRAPOLATED = {18: 8.82e-9, 20: 1.09e-9, 22: 1.33e-10, 24: 1.60e-11,
                26: 1.90e-12, 28: 8.02e-14, 30: 9.25e-15}


@pytest.fixture(scope="module")
def reference_fit():
    return fit_error_curve(load_error_data())


class TestPatchGeometry:
    @pytest.mark.parametrize("w,h,rounds,qubits", TABLE)
    def test_table_rows(self, w, h, rounds, qubits):
        geo = patch_geometry(w)
        assert (geo.width, geo.height, geo.rounds, geo.qubits) == (w, h, rounds, qubits)

    def test_off_table_rule(self):
        geo = patch_geometry(32)  # 5*32/3 = 53.3 -> 54
        assert (geo.height, geo.rounds) == (54, 108)
        geo = patch_geometry(4)  # 20/3 = 6.67 -> 6
        assert (geo.height, geo.rounds) == (6, 12)

    def test_every_height_is_the_multiple_of_3_nearest_5w_over_3(self):
        # |h - 5w/3| = |3h - 5w| / 3, compared in integers; no width has two nearest
        for w in range(2, 401, 2):
            distance = {h: abs(3 * h - 5 * w) for h in range(0, 2 * w, 3)}
            h = min(distance, key=distance.get)
            assert sorted(distance.values())[:2] != [distance[h]] * 2, w
            geo = patch_geometry(w)
            assert (geo.width, geo.height, geo.rounds, geo.qubits) == (w, h, 2 * h, w * h)

    def test_ladder_is_the_geometry_of_every_even_width(self):
        assert surgery.LADDER == tuple(patch_geometry(w) for w in range(6, MAX_WIDTH + 1, 2))
        assert all(type(geo) is surgery.PatchGeometry for geo in surgery.LADDER)
        assert surgery.LADDER_WIDTHS == tuple(w for w, *_ in TABLE)

    def test_invalid_width(self):
        for w in (0, -2, 7):
            with pytest.raises(InvalidParameterError):
                patch_geometry(w)


def _synthetic_points(a, b, widths, sigma_rel=1e-9):
    points = []
    for w in widths:
        geo = patch_geometry(w)
        e = geo.qubits * math.exp(a * math.sqrt(geo.qubits) - b)
        points.append(ErrorDataPoint(geo, e, sigma_rel * e))
    return points


class TestFit:
    def test_exact_recovery_two_points(self):
        fit = fit_error_curve(_synthetic_points(-1.0, 2.0, [6, 8]))
        assert fit.a == pytest.approx(-1.0, abs=1e-9)
        assert fit.b == pytest.approx(2.0, abs=1e-9)

    @given(a=st.floats(-2.0, -1.0), b=st.floats(0.0, 8.0))
    def test_exact_recovery_many_points(self, a, b):
        fit = fit_error_curve(_synthetic_points(a, b, [6, 10, 14, 18]))
        assert fit.a == pytest.approx(a, rel=1e-9, abs=1e-9)
        assert fit.b == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_reference_fit_slope_negative(self, reference_fit):
        assert reference_fit.a < 0

    def test_reference_fit_reproduces_starred_rows(self, reference_fit):
        for w, expected in EXTRAPOLATED.items():
            got = extrapolate_error(reference_fit, w)
            assert expected / 3 <= got <= expected * 3, w

    def test_degenerate(self):
        points = _synthetic_points(-1.0, 2.0, [6])
        with pytest.raises(FitError):
            fit_error_curve(points)
        with pytest.raises(FitError):
            fit_error_curve(points * 3)  # same size three times
        geo = patch_geometry(10)
        spread = [ErrorDataPoint(geo, e, e / 10) for e in (1e-5, 3e-5, 2e-4)]
        with pytest.raises(FitError):
            fit_error_curve(spread)

    def test_degenerate_raises_on_every_call(self):
        # a failed fit is never memoized, so the same points fail again
        points = _synthetic_points(-1.0, 2.0, [6]) * 2
        for _ in range(3):
            with pytest.raises(FitError):
                fit_error_curve(points)

    def test_memoized_fit_equals_a_fresh_one(self):
        points = load_error_data()
        first = fit_error_curve(points)
        assert fit_error_curve(load_error_data()) == first
        assert surgery._fit.__wrapped__(tuple(map(surgery._POINT_VALUES, points))) == first

    def test_rewritten_file_is_refitted(self, tmp_path):
        # the memo is keyed on the rows, so a same-size rewrite at the same
        # path, maybe within one mtime tick, gives the new fit
        path = tmp_path / "data.csv"
        header = "width,height,rounds,qubits,ehv,ehv_stddev\n"
        path.write_text(header + "6,9,18,54,2e-3,1e-4\n10,18,36,180,1e-5,1e-6\n")
        old = fit_error_curve(load_error_data(str(path)))
        path.write_text(header + "6,9,18,54,3e-3,1e-4\n10,18,36,180,1e-5,1e-6\n")
        new = fit_error_curve(load_error_data(str(path)))
        assert new != old
        rows = ((6, 3e-3, 1e-4), (10, 1e-5, 1e-6))
        points = tuple(ErrorDataPoint(patch_geometry(w), e, sigma) for w, e, sigma in rows)
        assert new == surgery._fit.__wrapped__(tuple(map(surgery._POINT_VALUES, points)))

    @pytest.mark.parametrize("weighted", [True])  # the fit is weighted only
    def test_bundled_data_matches_lstsq(self, weighted):
        points = load_error_data()
        a, b = _lstsq_fit(points, weighted)
        fit = fit_error_curve(points)
        assert fit.a == pytest.approx(a, rel=1e-13)
        assert fit.b == pytest.approx(b, rel=1e-13)

    @given(
        a=st.floats(-2.0, -0.5),
        b=st.floats(1.0, 8.0),
        rows=st.lists(
            st.tuples(st.integers(3, 100), st.floats(-0.1, 0.1), st.floats(0.01, 1.0)),
            min_size=2, max_size=20),
    )
    def test_matches_lstsq(self, a, b, rows):
        # scattered points off the model, at ladder widths 6..200
        assume(len({half for half, _, _ in rows}) >= 2)
        points = []
        for half, noise, sigma_rel in rows:
            geo = patch_geometry(2 * half)
            e = geo.qubits * math.exp(a * math.sqrt(geo.qubits) - b + noise)
            points.append(ErrorDataPoint(geo, e, sigma_rel * e))
        want_a, want_b = _lstsq_fit(points, weighted=True)
        fit = fit_error_curve(points)
        assert fit.a == pytest.approx(want_a, rel=1e-10)
        # b is a difference of terms of size |a| sqrt(n), so it is compared on that scale
        scale = abs(want_a) * max(math.sqrt(p.geometry.qubits) for p in points)
        assert fit.b == pytest.approx(want_b, rel=1e-10, abs=1e-10 * scale)


def _lstsq_fit(points, weighted):
    """Reference (a, b): ``np.linalg.lstsq`` on the rows [sqrt(n), 1] -> ln(e/n),
    each row scaled by e/sigma when weighted."""
    n = np.array([p.geometry.qubits for p in points], dtype=float)
    e = np.array([p.e_hv for p in points])
    sigma = np.array([p.sigma for p in points])
    design = np.column_stack([np.sqrt(n), np.ones_like(n)])
    y = np.log(e / n)
    if weighted:
        design = design * (e / sigma)[:, None]
        y = y * (e / sigma)
    (slope, intercept), _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    assert rank == 2
    return float(slope), float(-intercept)


class TestExtrapolate:
    def test_against_table(self, reference_fit):
        assert extrapolate_error(reference_fit, 16) == pytest.approx(4.50e-8, rel=1.0)
        assert extrapolate_error(reference_fit, 28) == pytest.approx(8.02e-14, rel=2.0)

    def test_degenerate_params(self):
        assert extrapolate_error(FitParams(0.0, 0.0), 10) == pytest.approx(180.0)

    def test_decreasing_in_width(self, reference_fit):
        values = [extrapolate_error(reference_fit, w) for w in range(6, 32, 2)]
        assert values == sorted(values, reverse=True)


class TestSelectDistance:
    def test_reference_target(self, reference_fit):
        assert select_distance(reference_fit, 3.58e-14).width == 30

    def test_loose_target(self, reference_fit):
        assert select_distance(reference_fit, 1.0 - 1e-9).width == 6

    def test_mid_target_resolved_by_fit(self, reference_fit):
        # the fitted curve at w=14 sits at 5.34e-7, above the simulated
        # 5.16e-7, so the selection is made by the fit, not the table row
        assert select_distance(reference_fit, 5e-7).width == 16
        assert select_distance(reference_fit, 5.4e-7).width == 14

    def test_monotone(self, reference_fit):
        targets = [1e-2, 1e-5, 1e-8, 1e-11, 1e-14]
        widths = [select_distance(reference_fit, t).width for t in targets]
        assert widths == sorted(widths)

    def test_no_distance(self, reference_fit):
        with pytest.raises(NoDistanceFoundError):
            select_distance(reference_fit, 1e-20)
        off = select_distance(reference_fit, 1e-20, max_width=MAX_WIDTH)
        assert off.width > 30

    @pytest.mark.parametrize("max_width", [5, 4, 201, 202, -1, 30.0, "30", True, None])
    def test_max_width_outside_the_ladder_rejected(self, reference_fit, max_width):
        with pytest.raises(InvalidParameterError) as info:
            select_distance(reference_fit, 1e-10, max_width)
        assert str(info.value) == f"max_width={max_width!r} must be an integer in [6, {MAX_WIDTH}]"

    @given(
        a=st.floats(-3.0, -0.01),
        b=st.floats(-40.0, 40.0),
        target=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.floats(-300.0, -1e-6).map(lambda e: 10.0**e),
        ),
        step=st.one_of(st.none(), st.integers(-1, 1), st.integers(-110, 1)),
        max_width=st.integers(6, MAX_WIDTH),
    )
    @example(a=-0.5, b=0.0, target=0.5, step=0, max_width=30)
    @example(a=-0.5, b=0.0, target=0.5, step=1, max_width=30)
    @example(a=-0.5, b=0.0, target=0.5, step=0, max_width=MAX_WIDTH)
    @example(a=-0.5, b=0.0, target=0.5, step=1, max_width=MAX_WIDTH)
    @example(a=-0.5, b=0.0, target=0.5, step=-1, max_width=MAX_WIDTH - 1)
    @example(a=-0.5, b=0.0, target=0.5, step=0, max_width=MAX_WIDTH - 1)
    @example(a=-0.5, b=0.0, target=0.5, step=0, max_width=6)
    @example(a=-0.5, b=0.0, target=0.5, step=0, max_width=7)
    @example(a=-0.5, b=0.0, target=0.5, step=0, max_width=21)
    def test_matches_brute_force(self, a, b, target, step, max_width):
        fit = FitParams(a, b)
        top = max_width
        if step is not None:  # a target exactly at the error rate of a width near the top
            width = top - top % 2 + 2 * step
            assume(width >= 6)
            target = extrapolate_error(fit, width)
            assume(0.0 < target < 1.0)

        def brute_force():
            for w in range(6, top + 1, 2):
                if extrapolate_error(fit, w) <= target:
                    return patch_geometry(w)
            raise NoDistanceFoundError(f"no width up to {top} reaches target {target:g}")

        def outcome(select):
            try:
                return select()
            except NoDistanceFoundError as exc:
                return str(exc)

        assert outcome(lambda: select_distance(fit, target, max_width)) == outcome(brute_force)


def _linear_scan(fit, target, max_width):
    """``select_distance`` as it was before its per-fit table: a scan of the
    ladder, narrowest first, with an error beyond any float read as inf."""
    for w in range(6, max_width + 1, 2):
        n = patch_geometry(w).qubits
        try:
            error = n * math.exp(fit.a * math.sqrt(n) - fit.b)
        except OverflowError:
            error = math.inf
        if error <= target:
            return patch_geometry(w)
    raise NoDistanceFoundError(f"no width up to {max_width} reaches target {target:g}")


def _outcome(call):
    try:
        return call()
    except NoDistanceFoundError as exc:
        return type(exc)


class TestLadderTable:
    """The per-fit table ``select_distance`` bisects gives the linear scan's answer."""

    @settings(max_examples=60, deadline=None)
    @given(
        # a < 0.27 in size makes E(w) rise before it falls; a > 0 makes it grow,
        # past any float on the wide rungs once a * sqrt(n) - b > 709
        a=st.floats(-1.0, 3.0),
        b=st.floats(-20.0, 800.0),
        target=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         st.floats(-300.0, -1e-6).map(lambda e: 10.0**e)),
        at_width=st.one_of(st.none(), st.integers(3, MAX_WIDTH // 2).map(lambda k: 2 * k)),
    )
    @example(a=3.0, b=30.0, target=0.5, at_width=None)  # width 6 meets it; wide rungs overflow
    @example(a=0.1, b=5.0, target=0.5, at_width=None)
    @example(a=-0.05, b=0.0, target=0.5, at_width=200)  # E(w) rises, then falls
    def test_every_max_width_matches_the_linear_scan(self, a, b, target, at_width):
        fit = FitParams(a, b)
        if at_width is not None:  # a target exactly at one width's error
            target = extrapolate_error(fit, at_width)
            assume(0.0 < target < 1.0)
        for max_width in range(6, MAX_WIDTH + 1):
            want = _outcome(lambda: _linear_scan(fit, target, max_width))
            assert _outcome(lambda: select_distance(fit, target, max_width)) == want, max_width

    def test_overflowing_error_is_inf_not_a_crash(self):
        fit = FitParams(10.0, 0.0)
        assert extrapolate_error(fit, 200) == math.inf
        with pytest.raises(NoDistanceFoundError):
            select_distance(fit, 1e-3, 200)
        assert select_distance(FitParams(3.0, 30.0), 0.5, 200).width == 6

    @pytest.mark.parametrize("bad", [30.0, True, np.float64(30.0)])
    def test_max_width_cache_is_typed(self, bad):
        assert surgery.ladder_rungs(30) == surgery.ladder_rungs(np.int64(30))
        with pytest.raises(InvalidParameterError, match=r"^max_width="):
            surgery.ladder_rungs(bad)

    def test_rungs_are_the_ladder_up_to_each_width(self):
        # a Python int and an np.int64 give the same slice, an odd width the even one below it
        for width in range(6, MAX_WIDTH + 1):
            want = tuple(rung for rung in surgery.LADDER if rung.width <= width)
            assert surgery.ladder_rungs(width) == surgery.ladder_rungs(np.int64(width)) == want
        for bad in (4, 5, 201, np.int64(5), np.int64(201), -1):
            with pytest.raises(InvalidParameterError) as error:
                surgery.ladder_rungs(bad)
            assert str(error.value) == f"max_width={bad!r} must be an integer in [6, 200]"


class TestMsfConversion:
    def test_convert_examples(self):
        assert msf_convert(4620, 42.6) == (480, 35.8)  # printed 35.7; 1 ulp at 3 s.f.
        assert msf_convert(73400, 128) == (7630, 108)
        assert msf_convert(500, 50) == (52, 42)  # the rates after the 5x reduction

    def test_all_table_rows(self):
        # printed honeycomb columns, reproduced within one unit in the third
        # significant figure
        printed = {
            "15to1_17_7_7": (480, 35.7),
            "15to1x6_13_5_5-20to4_23_11_13": (4500, 109),
            "15to1x4_13_5_5-20to4_27_13_15": (4870, 132),
            "15to1x6_11_5_5-15to1_25_11_11": (3190, 69.3),
            "15to1x6_13_5_5-15to1_29_11_13": (4070, 81.9),
            "15to1x6_17_7_7-15to1_41_17_17": (7630, 108),
        }
        for proto in load_msf_table():
            q, r = printed[proto.label]
            assert abs(proto.hh_qubits - q) <= _ulp3(q), proto.label
            assert abs(proto.hh_rounds - r) <= _ulp3(r), proto.label

    def test_footprint_is_msf_convert(self):
        for proto in load_msf_table():
            assert (proto.hh_qubits, proto.hh_rounds) == msf_convert(
                proto.sc_qubits, proto.sc_cycles), proto.label
            assert "hh_" not in repr(proto)


def _ulp3(x: float) -> float:
    return 10.0 ** (math.floor(math.log10(abs(x))) - 2)


class TestDataLoading:
    def test_bundled_error_data(self):
        points = load_error_data()
        assert len(points) == 6
        assert points[0].geometry.width == 6
        assert points[-1].e_hv == pytest.approx(4.50e-8)

    def test_custom_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "width,height,rounds,qubits,ehv,ehv_stddev\n10,18,36,180,1e-5,1e-6\n")
        points = load_error_data(str(path))
        assert len(points) == 1 and points[0].e_hv == 1e-5

    def test_a_geometry_read_from_a_file_carries_its_qubits(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("width,height,rounds,qubits,ehv,ehv_stddev\n"
                        "10,18,36,180,1e-5,1e-6\n7,11,5,77,1e-5,1e-6\n")
        for points in (load_error_data(), load_error_data(str(path))):
            for point in points:
                geo = point.geometry
                assert geo.qubits == geo.width * geo.height
                assert "qubits" not in geo._fields and "qubits" not in repr(geo)

    def test_qubit_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "width,height,rounds,qubits,ehv,ehv_stddev\n10,18,36,181,1e-5,1e-6\n")
        with pytest.raises(InvalidParameterError):
            load_error_data(str(path))

    def test_msf_table(self):
        protos = load_msf_table()
        assert len(protos) == 6
        assert min(p.p_out for p in protos) == pytest.approx(4.5e-20)

    def test_returned_lists_are_independent(self):
        points = load_error_data()
        first = list(points)
        points.clear()
        protos = load_msf_table()
        protos.append(None)
        assert load_error_data() == first
        assert len(load_msf_table()) == 6

    def test_rewritten_csv_is_read_again(self, tmp_path):
        path = tmp_path / "data.csv"
        header = "width,height,rounds,qubits,ehv,ehv_stddev\n"
        path.write_text(header + "10,18,36,180,1e-5,1e-6\n")
        assert load_error_data(str(path))[0].e_hv == 1e-5
        path.write_text(header + "10,18,36,180,2e-5,1e-6\n")  # same size, maybe same mtime
        assert load_error_data(str(path))[0].e_hv == 2e-5

    @pytest.mark.parametrize("ehv,sigma,message", [
        ("0", "1e-6", "e_hv=0.0 must lie in"),
        ("1e-5", "0", "sigma=0.0 must be positive"),
        ("1e-5", "nan", "sigma=nan must be positive"),
        ("1e-5", "inf", "sigma=inf must be positive"),
        ("1e-5", "abc", "could not convert"),
        ("1e-5", "", "could not convert"),
    ])
    def test_bad_row_is_named(self, tmp_path, ehv, sigma, message):
        path = tmp_path / "bad.csv"
        path.write_text("width,height,rounds,qubits,ehv,ehv_stddev\n"
                        "6,9,18,54,2e-3,1e-4\n"
                        f"10,18,36,180,{ehv},{sigma}\n")
        with pytest.raises(InvalidParameterError, match=f"bad.csv data row 2: {message}"):
            load_error_data(str(path))

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "msf.csv"
        path.write_text("label,p_out,sc_qubits\nweak,1e-3,1000\n")
        with pytest.raises(InvalidParameterError, match="msf.csv data row 1: no column 'sc_cycles'"):
            load_msf_table(str(path))

    def test_malformed_csv_raises_on_every_call(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "width,height,rounds,qubits,ehv,ehv_stddev\n10,18,36,181,1e-5,1e-6\n")
        for _ in range(3):
            with pytest.raises(InvalidParameterError):
                load_error_data(str(path))
