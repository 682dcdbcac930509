import math
import re
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from ifmsim import sweep
from ifmsim.evolution import CycleConfig, ParticleModel, closed_form_no_particle, evolve
from ifmsim.sweep import (
    CSV_HEADER,
    SweepRecord,
    format_real,
    run_single,
    sweep_absorption,
    sweep_cycles,
    sweep_grid,
    to_csv,
    write_csv,
)


class TestFormatReal:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0.0000000000000000"),
            (1.0, "1.0000000000000000"),
            (-0.5, "-0.5000000000000000"),
            (1e-4, "0.00010000000000000000"),
            (3.141592653589793, "3.1415926535897931"),
        ],
    )
    def test_positional_rendering(self, value, expected):
        assert format_real(value) == expected

    def test_scientific_below_positional_band(self):
        assert format_real(9.999e-5) == "9.9989999999999996e-05"

    def test_scientific_at_upper_bound(self):
        assert format_real(1e17) == "1.0000000000000000e+17"

    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(16)
        values = [0.0, 1.0, -1.0, 1e-300, -1e300, 0.1, 2**-52]
        values += list(rng.uniform(-1, 1, 50))
        values += list(10.0 ** rng.uniform(-30, 30, 50))
        for v in values:
            assert float(format_real(v)) == v


def _dragon4(v: float) -> str:
    """numpy's Dragon4 text of `v` under the CSV contract: the reference rule."""
    if v != 0.0 and (abs(v) < 1e-4 or abs(v) >= 1e17):
        return np.format_float_scientific(v, precision=16, unique=False)
    return np.format_float_positional(v, precision=17, unique=False, fractional=False, trim="k")


class TestFormatReals:
    """``_format_reals`` and ``format_real`` write numpy Dragon4's bytes."""

    @staticmethod
    def _assert_matches(values):
        expected = [_dragon4(v) for v in values]
        # As the code runs, then with every list through the digit kernel.
        # There format_real's one-value lists are checked on a sample: each
        # pays the kernel's fixed cost.
        for kernel_min, step in ((sweep._KERNEL_MIN, 1), (1, max(1, len(values) // 2000))):
            with mock.patch.object(sweep, "_KERNEL_MIN", kernel_min):
                lists = sweep._format_reals(values), [format_real(v) for v in values[::step]]
            for got, want, vs in zip(lists, (expected, expected[::step]), (values, values[::step])):
                mismatches = [(v, g, e) for v, g, e in zip(vs, got, want) if g != e]
                assert len(got) == len(vs)
                assert mismatches == []

    def test_any_float(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
        )
        def check(values):
            self._assert_matches(values)

        check()

    def test_signed_zeros_and_non_finite_values(self):
        values = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf, 5e-324]
        self._assert_matches(values)
        assert sweep._format_reals([]) == []

    def test_uniform_values_and_random_bit_patterns(self):
        rng = np.random.default_rng(18)
        self._assert_matches(rng.random(100_000).tolist())
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
        self._assert_matches(bits.view(np.float64).tolist())

    def test_short_dyadics(self):
        # k * 2**e with k < 2000 has a short exact expansion, which numpy pads
        values = [math.ldexp(k, e) for k in range(2000) for e in range(-60, 61, 3)]
        self._assert_matches(values + [-v for v in values])

    def test_round_half_even_ties(self):
        # m * 2**-k is exact for m < 2**53, and its digits are those of
        # m * 5**k: with m odd and m * 5**k of 18 digits, the value lies
        # exactly halfway between two 17-digit neighbours
        rng = np.random.default_rng(19)
        values = []
        for k in range(2, 26):
            lo, hi = -(-(10**17) // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
            for m in {lo, hi, *rng.integers(lo, hi + 1, 2000).tolist()}:
                m |= 1
                if len(str(m * 5**k)) == 18 and m < 2**53:
                    values.append(math.ldexp(m, -k))
        assert len(values) > 30_000
        self._assert_matches(values + [-v for v in values])

    def test_seventeenth_digit_zero(self):
        # 16 random digits, then a 0 (no carry), or a 9 and a 6-9 that carry
        # into the 16th; half the exponents span the positional band, half
        # the whole float range.  Only the floats whose 17-digit significand
        # does end in 0 are kept.
        rng = np.random.default_rng(20)
        heads = rng.integers(10**15, 10**16, 100_000).tolist()
        exps = rng.integers(-20, 1, 50_000).tolist() + rng.integers(-340, 292, 50_000).tolist()
        tails = rng.integers(6, 10, 100_000).tolist()
        plain = [float(f"{h}0e{e}") for h, e in zip(heads, exps)]
        carried = [float(f"{h}9{t}e{e - 1}") for h, t, e in zip(heads, tails, exps)]
        plain, carried = (
            [v for v in vs if ("%#.17g" % v).partition("e")[0].endswith("0")]
            for vs in (plain, carried)
        )
        assert len(plain) > 10_000 and len(carried) > 10_000
        # where the point leads, numpy drops the digit a carry absorbs
        assert any(len(_dragon4(v)) < len("%#.17g" % v) for v in carried)
        self._assert_matches(plain + carried)

    def test_notation_boundaries(self):
        # 300 neighbours each side of the positional band's edges, and 20 of
        # every third power of ten, where a carry moves the scientific exponent
        edges = [(1e-4, 300), (1e16, 300), (1e17, 300)]
        edges += [(float(f"1e{k}"), 20) for k in range(-323, 309, 3)]
        values = []
        for edge, steps in edges:
            for toward in (0.0, math.inf):
                v = edge
                for _ in range(steps):
                    v = float(np.nextafter(v, toward))
                    values.append(v)
            values.append(edge)
        self._assert_matches(values + [-v for v in values])

    def test_decade_edges(self):
        # The kernel's decades begin at 1e-1, 1e-2 and 1e-3 (test_notation_boundaries
        # covers 1e-4): 300 neighbours each side of each, and the decimals
        # just below each power that a 17-digit rounding would carry into it,
        # which parse to the edge itself or the double below it.
        values = []
        for j in (1, 2, 3):
            edge = float(f"1e-{j}")
            for toward in (0.0, math.inf):
                v = edge
                for _ in range(300):
                    v = float(np.nextafter(v, toward))
                    values.append(v)
            values.append(edge)
            nines = "0." + "0" * j + "9" * 16
            values += [float(f"{nines}{t}{u}") for t in (8, 9) for u in range(10)]
        self._assert_matches(values + [-v for v in values])

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_edge_literals_are_exact_decades(self, j):
        # Each edge literal is the smallest double >= 10**-j, so comparing
        # with it compares with 10**-j exactly.  The double below it is more
        # than half a 17th digit below 10**-j, so no value of a decade rounds
        # up into the next one.
        edge = float(f"1e-{j}")
        below = math.nextafter(edge, 0.0)
        power = Fraction(1, 10**j)
        assert Fraction(edge) >= power > Fraction(below)
        assert power - Fraction(below) > Fraction(1, 10 ** (17 + j)) / 2

    @pytest.mark.parametrize("j", [-6, -5, *range(18)])
    def test_widened_edge_literals_are_exact_decades(self, j, monkeypatch):
        # Each decade edge beyond [1e-4, 1), 10**j, is taken at the smallest
        # double >= 10**j: for 10**-6 the double above 1e-6, which lies below
        # 10**-6.  The double below it is more than half a 17th digit below
        # 10**j, so no value rounds up into the next decade: the kernel's
        # classes (its edge literals are these doubles, for j up to 1) and
        # %#.17g's decade and notation in _dtoa_texts (for 10 and up) are
        # those of the unrounded value.  The kernel writes both sides of
        # each edge up to 1 and the side below 10; every other value, both
        # sides of each edge from 1e2 to 1e17 included, goes to _dtoa_texts.
        edge = float(f"1e{j}")
        power = Fraction(10) ** j
        if Fraction(edge) < power:
            edge = math.nextafter(edge, math.inf)
        if j <= 1:
            assert sweep._EDGES.view(np.float64)[j + 8] == edge
        below = math.nextafter(edge, 0.0)
        assert Fraction(edge) >= power > Fraction(below)
        assert power - Fraction(below) > Fraction(10) ** (j - 17) / 2
        dtoa, passed = sweep._dtoa_texts, []

        def recorded(vs):
            passed.extend(vs)
            return dtoa(vs)

        monkeypatch.setattr(sweep, "_dtoa_texts", recorded)
        values = [below, edge] * (sweep._KERNEL_MIN // 2)
        assert sweep._format_reals(values) == [_dragon4(v) for v in values]
        assert passed == [v for v in values if not 1e-6 < v < 10]

    def test_widened_decade_edges(self):
        # The kernel's decades beyond [1e-4, 1) begin at 1e-6, 1e-5 and 1, and
        # it stops at 10; from 10 to 1e15 these values check _dtoa_texts
        # (test_notation_boundaries covers 1e16 and 1e17): 300 neighbours each
        # side of each power, and the 18-digit decimals just below each power
        # that a 17-digit rounding would carry into it.
        values = []
        for j in (-6, -5, *range(16)):
            edge = float(f"1e{j}")
            for toward in (0.0, math.inf):
                v = edge
                for _ in range(300):
                    v = math.nextafter(v, toward)
                    values.append(v)
            values.append(edge)
            values += [float(f"9.{'9' * 15}{t}{u}e{j - 1}") for t in (8, 9) for u in range(10)]
        self._assert_matches(values + [-v for v in values])

    def test_only_values_outside_the_kernel_reach_dtoa(self, monkeypatch):
        # A grid block's 1,500 probabilities: the kernel writes +0.0 and
        # [1e-6, 10), and only the rest (below 1e-6, -0.0, nan, 10 and up) go
        # to %#.17g.  The double 1e-6 lies below 10**-6, so the class is
        # > 1e-6.
        s = sweep._Sweep(sweep._absorption_grid(5), sweep._cycle_counts(100), "coherent", None)
        values = s.p.transpose(1, 2, 0).ravel().tolist()
        values[:6] = [-0.0, 5e-5, math.nan, 9.75, 12.5, 9999999999999998.0]
        assert len(values) == 1500
        dtoa, passed = sweep._dtoa_texts, []

        def recorded(vs):
            passed.append(list(vs))
            return dtoa(vs)

        monkeypatch.setattr(sweep, "_dtoa_texts", recorded)
        texts = sweep._format_reals(values)
        kernel = [1e-6 < v < 10 or (v == 0.0 and math.copysign(1, v) > 0) for v in values]
        rest = [v for v, k in zip(values, kernel) if not k]
        assert 3 < len(rest) < 150
        assert passed == [rest]  # the same nan object, so equal in a list
        assert texts == [_dragon4(v) for v in values]


class TestSweepRecord:
    def test_rejects_probabilities_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SweepRecord(
                model="coherent", a=0.5, n=3, theta=0.1, p_h=0.5, p_v=0.5, p_b=0.5
            )

    @pytest.mark.parametrize(
        "p_h,p_v,message",
        [
            (math.nan, 0.0, "p_h must be >= 0, got nan"),
            (math.inf, -math.inf, "p_v must be >= 0, got -inf"),
            (math.inf, 0.0, "probabilities must sum to 1, got inf"),
            (-math.inf, 0.0, "p_h must be >= 0, got -inf"),
        ],
    )
    def test_rejects_a_non_finite_probability(self, p_h, p_v, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            SweepRecord(model="coherent", a=0.5, n=3, theta=0.1, p_h=p_h, p_v=p_v, p_b=0.0)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("model", "x", "model must be one of ('coherent', 'collapse', 'absent'), got 'x'"),
            ("model", "COHERENT", "model must be one of"),
            ("a", 5.0, "a must be in [0, 1], got 5.0"),
            ("a", -1e-300, "a must be in [0, 1]"),
            ("a", math.nan, "a must be in [0, 1], got nan"),
            ("n", -1, "n must be an integer >= 1, got -1"),
            ("n", 0, "n must be an integer >= 1"),
            ("n", 3.0, "n must be an integer >= 1, got 3.0"),
            ("n", True, "n must be an integer >= 1, got True"),
            ("theta", math.nan, "theta must be finite, got nan"),
            ("theta", -math.inf, "theta must be finite, got -inf"),
            ("p_h", -5.0, "p_h must be >= 0, got -5.0"),
            ("p_v", -1e-300, "p_v must be >= 0"),
            ("p_b", math.nan, "p_b must be >= 0, got nan"),
        ],
    )
    def test_rejects_an_invalid_field_by_name(self, field, value, message):
        fields = dict(model="coherent", a=0.5, n=3, theta=0.1, p_h=0.25, p_v=0.5, p_b=0.25)
        fields[field] = value
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SweepRecord(**fields)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"theta": 10**400}, "theta must be finite, got 1000"),
            ({"theta": -(10**400)}, "theta must be finite, got -1000"),
            ({"theta": 2**1024 - 2**970}, "theta must be finite, got 1797"),
            # an int past 4,300 digits is counted, not written out
            ({"a": 10**5000}, "a must be in [0, 1], got an int of 5001 digits"),
            ({"theta": 10**5000}, "theta must be finite, got an int of 5001 digits"),
            ({"theta": -(10**5000)}, "theta must be finite, got an int of 5001 digits"),
            ({"p_h": -(10**5000)}, "p_h must be >= 0, got an int of 5001 digits"),
            ({"p_h": 10**400}, "probabilities must sum to 1, got inf"),
            ({"p_b": 10**400}, "probabilities must sum to 1, got inf"),
            (dict.fromkeys(["p_h", "p_v", "p_b"], 2**1023), "probabilities must sum to 1, got inf"),
        ],
    )
    def test_rejects_an_int_beyond_the_float_range(self, fields, message):
        # such an int compares as itself, so it passes a finiteness test and
        # then overflows in float arithmetic: the sum, or to_csv's formatting
        record = dict(model="coherent", a=0.5, n=3, theta=0.1, p_h=0.25, p_v=0.5, p_b=0.25)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SweepRecord(**{**record, **fields})

    def test_accepts_the_largest_float_angle(self):
        # the int that rounds down to it too, which to_csv formats as that float
        for theta in (sys.float_info.max, 2**1024 - 2**971, -sys.float_info.max):
            record = SweepRecord("coherent", 0.5, 3, theta, 0.25, 0.5, 0.25)
            assert to_csv([record]).splitlines()[1].split(",")[3] == format_real(theta)

    def test_rejects_the_first_invalid_field(self):
        with pytest.raises(ValueError, match="^model must be one of"):
            SweepRecord(model="x", a=5.0, n=-1, theta=math.nan, p_h=-5.0, p_v=0.0, p_b=0.0)

    @pytest.mark.parametrize("p", [1.0 + 2**-52, 1.0 + 3 * 2**-52, 1.0000000000000373])
    def test_accepts_a_probability_just_above_one(self, p):
        # p >= 0 and the sum check already cap each p at 1 + _SUM_TOL
        for fields in ((p, 0.0, 0.0), (0.0, p, 0.0), (0.0, 0.0, p)):
            record = SweepRecord("collapse", 1.0, 10**12, 1e-12, *fields)
            assert max(record.p_h, record.p_v, record.p_b) == p

    def test_accepts_a_sum_within_the_tolerance(self):
        record = SweepRecord(
            model="coherent", a=0.5, n=3, theta=0.1, p_h=0.5, p_v=0.5 + 1e-11, p_b=0.0
        )
        assert record.p_v == 0.5 + 1e-11


class TestRunSingle:
    def test_matches_evolve(self):
        cfg = CycleConfig(model="coherent", a=0.5, n=40)
        record = run_single(cfg)
        probs, _ = evolve(cfg)
        assert record.model == "coherent"
        assert record.a == 0.5
        assert record.n == 40
        assert record.theta == cfg.resolved_theta()
        assert (record.p_h, record.p_v, record.p_b) == tuple(probs)

    def test_absent_records_zero_absorption(self):
        record = run_single(CycleConfig(model="absent", a=0.9, n=4))
        assert record.a == 0.0


class TestSweepCycles:
    def test_row_count_and_order(self):
        records = sweep_cycles(0.5, 25, "coherent")
        assert len(records) == 25
        assert [r.n for r in records] == list(range(1, 26))

    def test_auto_theta_per_row(self):
        for r in sweep_cycles(1.0, 10, "coherent"):
            assert r.theta == math.pi / (2 * r.n)

    def test_explicit_theta_is_constant(self):
        for r in sweep_cycles(1.0, 10, "coherent", theta=0.3):
            assert r.theta == 0.3

    def test_no_particle_always_switches(self):
        for r in sweep_cycles(0.0, 60, "coherent"):
            assert r.p_v >= 1.0 - 1e-10

    def test_bomb_survival_column(self):
        records = sweep_cycles(1.0, 250, "coherent")
        p_h = np.array([r.p_h for r in records])
        expected = np.array(
            [math.cos(math.pi / (2 * n)) ** (2 * n) for n in range(1, 251)]
        )
        assert np.abs(p_h - expected).max() <= 1e-12
        assert np.all(np.diff(p_h) > 0)  # climbs toward 1 as cycles refine

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError, match=">= 1"):
            sweep_cycles(0.5, 0, "coherent")


class TestSweepAbsorption:
    def test_grid_includes_exact_endpoints(self):
        records = sweep_absorption(10, 101, "coherent")
        assert len(records) == 101
        assert records[0].a == 0.0
        assert records[-1].a == 1.0

    def test_endpoints_match_sweep_cycles_rows(self):
        by_cycles = sweep_cycles(1.0, 10, "coherent")[9]
        by_absorption = sweep_absorption(10, 2, "coherent")[1]
        assert by_cycles == by_absorption

    def test_p_h_non_decreasing_in_absorption(self):
        records = sweep_absorption(10, 21, "coherent")
        p_h = np.array([r.p_h for r in records])
        assert np.diff(p_h).min() >= -1e-12

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match=">= 2"):
            sweep_absorption(10, 1, "coherent")


class TestSweepGrid:
    def test_cartesian_product_shape_and_order(self):
        records = sweep_grid(7, 3, "coherent")
        assert len(records) == 21
        assert [r.a for r in records[:7]] == [0.0] * 7
        assert [r.n for r in records[:7]] == list(range(1, 8))
        assert records[7].a == 0.5
        assert records[-1].a == 1.0

    def test_zero_absorption_rows_match_no_particle_closed_form(self):
        records = [r for r in sweep_grid(30, 3, "coherent") if r.a == 0.0]
        for r in records:
            expected = closed_form_no_particle(r.theta, r.n)
            got = np.array([r.p_h, r.p_v, r.p_b])
            assert np.abs(got - np.asarray(expected)).max() <= 1e-10

    def test_full_absorption_maximizes_p_h_at_every_n(self):
        records = sweep_grid(20, 5, "coherent")
        by_n = {}
        for r in records:
            by_n.setdefault(r.n, []).append(r)
        for n, rows in by_n.items():
            top = max(rows, key=lambda r: r.p_h)
            at_one = next(r for r in rows if r.a == 1.0)
            assert at_one.p_h >= top.p_h - 1e-12


class TestStackedSweeps:
    """A sweep evaluates all of its (a, n) rows in one engine call."""

    ABSORPTIONS = (0.0, 1e-12, 0.3, 0.5, 1.0 - 1e-9, 1.0)
    THETAS = (None, 0.3, 2.5, -2.5)
    COUNTS = (1, 2, 3, 4, 5, 7, 8, 16, 17, 250, 1000)

    @staticmethod
    def _assert_rows_equal_run_single(records, model, theta):
        # repr shows every field, floats exactly and with their sign
        for r in records:
            single = run_single(CycleConfig(model=model, a=r.a, n=r.n, theta=theta))
            assert repr(r) == repr(single)

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_records_equal_run_single(self, model):
        for theta in self.THETAS:
            records = sweep._Sweep(self.ABSORPTIONS, self.COUNTS, model, theta).records()
            a_eff = [0.0 if model is ParticleModel.ABSENT else a for a in self.ABSORPTIONS]
            assert [(r.a, r.n) for r in records] == [
                (a, n) for a in a_eff for n in self.COUNTS
            ]
            self._assert_rows_equal_run_single(records, model, theta)

    @pytest.mark.parametrize("block", [1, 7, sweep._BLOCK_ROWS])
    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_records_equal_run_single_at_any_block_size(self, monkeypatch, model, block):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block)
        self.test_records_equal_run_single(model)
        # a count given as a float is the int CycleConfig makes of it, in every block
        records = sweep_absorption(3.0, 5, model)
        assert [(type(r.n), r.n) for r in records] == [(int, 3)] * 5
        self._assert_rows_equal_run_single(records, model, None)

    def test_opposite_infinities_fail_the_row_check_without_a_warning(self, monkeypatch):
        # p_h = inf and p_v = -inf sum to inf - inf: the row fails SweepRecord's
        # p_v check, and the sum on the way there raises no RuntimeWarning
        engine = sweep._evolve_stack

        def infinite(model, thetas, a_values, ns):
            out = engine(model, thetas, a_values, ns)
            out[0], out[2] = math.inf, -math.inf  # h and v
            return out

        monkeypatch.setattr(sweep, "_evolve_stack", infinite)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^p_v must be >= 0, got -inf$"):
                sweep_cycles(0.5, 3, "coherent")

    @pytest.mark.parametrize("model", list(ParticleModel), ids=lambda m: m.value)
    def test_public_sweeps_equal_run_single(self, model):
        for theta in (None, 0.3):
            for records in (
                sweep_grid(17, 5, model, theta),
                sweep_cycles(0.37, 20, model, theta),
                sweep_absorption(250, 7, model, theta),
            ):
                self._assert_rows_equal_run_single(records, model, theta)

    def test_one_engine_call_per_sweep(self, monkeypatch):
        calls = []
        engine = sweep._evolve_stack

        def counted(model, thetas, a_values, ns):
            calls.append((len(thetas), len(a_values), list(ns)))
            return engine(model, thetas, a_values, ns)

        monkeypatch.setattr(sweep, "_evolve_stack", counted)
        sweep_grid(12, 5, "coherent")
        assert calls == [(12, 5, list(range(1, 13)))]
        calls.clear()
        sweep_absorption(50, 101, "collapse")
        assert calls == [(1, 101, [50])]
        calls.clear()
        sweep_cycles(0.5, 40, "collapse", theta=0.3)
        assert calls == [(40, 1, list(range(1, 41)))]
        calls.clear()
        # one config runs on the float driver, not on a 1 x 1 stack
        run_single(CycleConfig(model="coherent", a=0.5, n=24))
        assert calls == []

    @pytest.mark.parametrize(
        "a,n,model,theta",
        [
            (0.5, 3, "bogus", None),
            ("x", 0, "bogus", math.nan),
            (2.0, 0, "coherent", None),
            (2.0, 3, "coherent", math.nan),
            (0.5, 2.5, "collapse", math.inf),
            (0.5, 3, "absent", math.inf),
        ],
    )
    def test_rejects_what_the_first_rows_config_rejects(self, a, n, model, theta):
        with pytest.raises(ValueError) as expected:
            CycleConfig(model=model, a=a, n=n, theta=theta)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            sweep._Sweep([a, 0.5], [n, 4], model, theta).records()

    @pytest.mark.parametrize("model", ["coherent", "absent"])
    @pytest.mark.parametrize("a", [2.0, -0.5, math.nan])
    def test_rejects_a_later_absorption_as_its_rows_config_does(self, model, a):
        with pytest.raises(ValueError) as expected:
            CycleConfig(model=model, a=a, n=3)
        with pytest.raises(ValueError) as got:
            sweep._Sweep([0.5, 0.25, a], [3, 4], model, None)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("model,sign", [("coherent", -1.0), ("absent", 1.0)])
    def test_a_later_negative_zero_absorption_is_its_rows_config_value(self, model, sign):
        a = sweep._Sweep([0.5, -0.0], [3, 4], model, None).records()[2].a
        assert a == 0.0 and math.copysign(1.0, a) == sign
        assert math.copysign(1.0, CycleConfig(model=model, a=-0.0, n=3).a) == sign


class TestCsv:
    def test_golden_bytes(self):
        records = [
            SweepRecord(
                model="coherent", a=1.0, n=2, theta=0.5, p_h=0.5, p_v=0.25, p_b=0.25
            ),
            SweepRecord(
                model="absent", a=0.0, n=1, theta=2e-5, p_h=0.0, p_v=1.0, p_b=0.0
            ),
        ]
        expected = (
            "model,a,n,theta,p_h,p_v,p_b\n"
            "coherent,1.0000000000000000,2,0.5000000000000000,"
            "0.5000000000000000,0.2500000000000000,0.2500000000000000\n"
            "absent,0.0000000000000000,1,2.0000000000000002e-05,"
            "0.0000000000000000,1.0000000000000000,0.0000000000000000\n"
        )
        assert to_csv(records) == expected

    def test_repeated_values_format_as_format_real(self):
        records = sweep_grid(6, 3, "collapse") + sweep_cycles(0.25, 4, "coherent", theta=0.5)
        expected = [CSV_HEADER] + [
            ",".join(
                (r.model, format_real(r.a), str(r.n), format_real(r.theta))
                + tuple(format_real(p) for p in (r.p_h, r.p_v, r.p_b))
            )
            for r in records
        ]
        assert to_csv(records) == "\n".join(expected) + "\n"

    def test_signed_zeros_stay_apart(self):
        fields = dict(model="coherent", n=1, p_h=1.0, p_v=0.0, p_b=0.0)
        records = [
            SweepRecord(a=0.0, theta=-0.0, **fields),
            SweepRecord(a=-0.0, theta=0.0, **fields),
        ]
        lines = to_csv(records).splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == [format_real(0.0), format_real(-0.0)]
        assert [line.split(",")[3] for line in lines] == [format_real(-0.0), format_real(0.0)]

    @pytest.mark.parametrize("block", [1, 7])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, block):
        records = sweep_grid(6, 3, "collapse")
        expected = to_csv(records)
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", block)
        assert to_csv(records) == to_csv(iter(records)) == expected

    @pytest.mark.parametrize(
        "a_values,n_max,model,theta",
        [
            (sweep._absorption_grid(7), 300, "collapse", None),
            (sweep._absorption_grid(41), 20, "coherent", 3.0),
            ([1e-5], 2000, "coherent", None),
        ],
        ids=["auto-theta", "theta-3", "a-1e-5"],
    )
    def test_csv_walk_equals_to_csv_of_its_records(
        self, monkeypatch, a_values, n_max, model, theta
    ):
        # Blocks of 128 rows, slices of one absorption's counts or several
        # absorptions' counts, each through the digit kernel.  Between them
        # the shapes' angles, absorptions and probabilities hold +0.0, values
        # below 1e-6 and every decade from [1e-6, 1e-5) to [1, 10).
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 128)
        s = sweep._Sweep(a_values, sweep._cycle_counts(n_max), model, theta)
        assert "".join(s.csv()) == to_csv(s.records())

    def test_header_constant(self):
        assert to_csv([]) == CSV_HEADER + "\n"

    def test_write_csv_emits_lf_only(self, tmp_path):
        records = sweep_cycles(1.0, 5, "coherent")
        path = tmp_path / "table.csv"
        write_csv(records, path)
        data = path.read_bytes()
        assert data == to_csv(records).encode()
        assert b"\r" not in data
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")

    def test_every_emitted_record_sums_to_one(self):
        records = sweep_grid(15, 4, "collapse")
        for r in records:
            assert abs(r.p_h + r.p_v + r.p_b - 1.0) <= 1e-10
