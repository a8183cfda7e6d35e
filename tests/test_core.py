import dataclasses
import math

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from trajlab.core import (Segment, PiecewiseTrajectory,
                          evaluate_rates, ensemble_statistics, outcome_rates,
                          BUILD_BLOCK,
                          is_well_defined, MeasureSpec,
                          check_determinism)
from trajlab.bernoulli import biased_measure
from trajlab.decay import (DecayMasses, rest_decay_family,
                           exponential_life_measure, uniform_life_measure)
from trajlab.errors import NoTrialsError, EmptyEnsembleError
from trajlab.rng import (_WORDS_CHUNK, _Words, _stream_blocks, stream,
                         trajectory_stream)
from trajlab.scattering import entry_measure, random_scene


def _line(slope, offset=0.0):
    return lambda t: offset + slope * t[:, None]


class TestAgreementRule:
    """Samples agree when sector and width match and every coordinate is
    within the tolerance; NaN agrees with nothing. Every trajectory below
    moves, so none meets its own time shift, and each pair shares its first
    half only if that rule says so."""

    @staticmethod
    def _split(first, second, sector=None, first_sector=None):
        return PiecewiseTrajectory(
            [Segment(0.0, 5.0, first, sector=first_sector or sector),
             Segment(5.0, 10.0, second, sector=sector)])

    @staticmethod
    def _witnessed(a, b, tolerance):
        return not check_determinism([a, b], match_window=1.0,
                                     tolerance=tolerance, time_step=0.1)

    def test_distance_is_max_abs(self):
        a = PiecewiseTrajectory([Segment(0.0, 10.0, _line([10.0, 0.0]))])
        b = self._split(_line([10.0, 0.0], [0.3, 0.3]),
                        _line([10.0, 0.0], [0.0, 10.0]))
        # the Euclidean distance 0.42 would exceed 0.35
        assert self._witnessed(a, b, tolerance=0.35)
        assert not self._witnessed(a, b, tolerance=0.25)

    def test_same_point_agrees_at_zero_tolerance(self):
        a = self._split(_line([10.0, -3.0]), _line([10.0, 0.0]))
        b = self._split(_line([10.0, -3.0]), _line([10.0, 0.0], [0.0, 1e-9]))
        assert self._witnessed(a, b, tolerance=0.0)
        assert not self._witnessed(a, a, tolerance=0.0)

    def test_sector_mismatch_never_agrees(self):
        a = PiecewiseTrajectory([Segment(0.0, 10.0, _line([10.0]), "x")])
        for first_sector, witnessed in (("x", True), ("y", False)):
            b = self._split(_line([10.0]), _line([10.0], [10.0]), sector="x",
                            first_sector=first_sector)
            assert self._witnessed(a, b, tolerance=1e-9) is witnessed

    def test_width_mismatch_never_agrees(self):
        # zero-padded to width 2, a would equal b's first half
        a = PiecewiseTrajectory([Segment(0.0, 10.0, _line([10.0]))])
        for first, witnessed in ((_line([10.0]), True),
                                 (_line([10.0, 0.0]), False)):
            b = self._split(first, _line([10.0], [10.0]))
            assert self._witnessed(a, b, tolerance=1e-9) is witnessed

    def test_nan_never_agrees(self):
        def nan(t):
            return np.full((len(t), 1), np.nan)

        a = self._split(nan, _line([10.0]))
        b = self._split(nan, _line([10.0], [10.0]))
        # NaN equal to NaN would make the shared first half a window
        assert not self._witnessed(a, b, tolerance=1e-9)
        c = self._split(_line([2.0]), _line([10.0]))
        d = self._split(_line([2.0]), _line([10.0], [10.0]))
        assert self._witnessed(c, d, tolerance=1e-9)


class TestPiecewiseTrajectory:
    def _traj(self):
        return PiecewiseTrajectory(
            [Segment(0.0, 1.0, lambda t: np.stack([t, 0.0 * t], axis=1)),
             Segment(1.0, 2.0, lambda t: np.stack([1.0 + 0.0 * t, t - 1.0],
                                                  axis=1))],
            branch_id="demo")

    def test_segment_ownership(self):
        tr = self._traj()
        # the boundary time belongs to the later segment
        assert np.allclose(tr.evaluate(1.0), [1.0, 0.0])
        assert np.allclose(tr.evaluate(0.5), [0.5, 0.0])
        assert np.allclose(tr.evaluate(2.0), [1.0, 1.0])

    def test_domain(self):
        tr = self._traj()
        assert tr.domain == (0.0, 2.0)
        with pytest.raises(ValueError):
            tr.evaluate(2.5)

    def test_array_of_times(self):
        tr = self._traj()
        times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        path = tr.evaluate(times)
        assert path.shape == (5, 2)
        for t, row in zip(times, path):
            assert np.array_equal(row, tr.evaluate(float(t)))
        with pytest.raises(ValueError):
            tr.evaluate(np.array([0.5, 2.5]))

    def test_array_across_widths_raises(self):
        tr = PiecewiseTrajectory([Segment(0.0, 1.0, _line([1.0])),
                                  Segment(1.0, 2.0, _line([1.0, 1.0]))])
        assert tr.evaluate(np.array([1.2, 1.8])).shape == (2, 2)
        with pytest.raises(ValueError, match="widths"):
            tr.evaluate(np.array([0.5, 1.5]))


class TestRates:
    def test_rates_count_outcomes(self):
        rr = evaluate_rates([0, 1, 1, 0, 1], 2)
        assert rr.n_trials == 5
        assert np.allclose(rr.rates, [2 / 5, 3 / 5])

    def test_no_trials_raises(self):
        with pytest.raises(NoTrialsError):
            evaluate_rates([], 2)

    def test_out_of_range_outcome_rejected(self):
        with pytest.raises(ValueError):
            evaluate_rates([0, 5], 2)

    def test_minus_one_is_no_trial(self):
        rr = evaluate_rates([-1, 1, -1, 0], 2)
        assert rr.n_trials == 2
        assert np.array_equal(rr.rates, [0.5, 0.5])
        with pytest.raises(NoTrialsError):
            evaluate_rates([-1, -1], 2)

    def test_row_is_one_row_of_outcome_rates(self):
        block = np.array([[0, 2, -1, 2], [1, 1, 1, -1]])
        rates, trials = outcome_rates(block, 3)
        for row, r, n in zip(block, rates, trials):
            rr = evaluate_rates(row, 3)
            assert np.array_equal(rr.rates, r) and rr.n_trials == n
        with pytest.raises(ValueError):
            evaluate_rates(block, 3)


def uniform_sampler(streams, n):
    """Uniform points on [0, 1): n rows from each stream in turn."""
    return np.array([rng.random((n, 1)) for rng in streams]).reshape(-1, 1)


class TestEnsemble:
    def _setup(self, n_events=40):
        measure = MeasureSpec(dimension=1, sampler=uniform_sampler)

        def builder(points):
            # deterministic bits from each boundary point
            return np.array([
                (np.random.default_rng(int(float(point[0]) * 2 ** 40))
                 .random(n_events) < 0.5).astype(int)
                for point in points])

        return measure, builder, 2

    def test_statistics_reproducible(self):
        measure, builder, n_outcomes = self._setup()
        s1 = ensemble_statistics(measure, builder, n_outcomes, 50, seed=9)
        s2 = ensemble_statistics(measure, builder, n_outcomes, 50, seed=9)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.variance, s2.variance)

    def test_seed_changes_draws(self):
        measure, builder, n_outcomes = self._setup()
        s1 = ensemble_statistics(measure, builder, n_outcomes, 50, seed=9)
        s2 = ensemble_statistics(measure, builder, n_outcomes, 50, seed=10)
        assert not np.array_equal(s1.mean, s2.mean)

    def test_trial_floor_excludes_all(self):
        measure, builder, n_outcomes = self._setup(n_events=3)
        with pytest.raises(EmptyEnsembleError):
            ensemble_statistics(measure, builder, n_outcomes, 10, seed=1,
                                n_min_trials=100)

    def test_well_defined_threshold(self):
        measure, builder, n_outcomes = self._setup()
        stats = ensemble_statistics(measure, builder, n_outcomes, 50, seed=2)
        assert 0 < stats.variance.max() < 0.01
        assert is_well_defined(stats)
        # the bound is 0.01 on every outcome's rate variance, exclusive
        for variance, ok in (([0.0, 0.0099], True), ([0.01, 0.0], False),
                             ([0.0, 0.25], False)):
            assert is_well_defined(dataclasses.replace(
                stats, variance=np.array(variance))) is ok


class TestOutcomeMatrix:
    """The builder contract: (n, d) points to an (n, h) outcome matrix."""

    measure = MeasureSpec(dimension=1, sampler=uniform_sampler)

    def test_rates_count_each_row(self):
        rates, trials = outcome_rates(
            np.array([[0, 1, 1, -1], [2, 2, -1, -1], [-1, -1, -1, -1]]), 3)
        assert trials.tolist() == [3, 2, 0]
        assert np.array_equal(rates, [[1 / 3, 2 / 3, 0.0], [0.0, 0.0, 1.0],
                                      [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("dtype,padded", [(np.uint8, False),
                                              (np.int8, False),
                                              (np.int8, True),
                                              (np.intp, False),
                                              (np.intp, True)])
    @pytest.mark.parametrize("n_outcomes", [1, 2, 3, 4])
    def test_rates_match_a_count_per_row(self, dtype, padded, n_outcomes):
        rng = np.random.default_rng(n_outcomes)
        outcomes = rng.integers(-1 if padded else 0, n_outcomes,
                                size=(40, 25)).astype(dtype)
        if padded:
            outcomes[[3, 17]] = -1  # rows that are all padding
        rates, trials = outcome_rates(outcomes, n_outcomes)
        for row, r, t in zip(outcomes.tolist(), rates, trials.tolist()):
            n = sum(v >= 0 for v in row)
            assert t == n
            assert r.tolist() == [row.count(j) / max(n, 1)
                                  for j in range(n_outcomes)]
        if padded:
            assert trials[3] == trials[17] == 0
        else:
            assert (trials == 25).all()
        for bad in [n_outcomes] + ([-2] if padded else []):
            wrong = outcomes.copy()
            wrong[5, 7] = bad
            with pytest.raises(ValueError, match="out of range"):
                outcome_rates(wrong, n_outcomes)

    def test_rows_longer_than_one_uint16_sum(self):
        # counts are summed 65,535 columns at a time
        outcomes = np.ones((2, 140_000), np.int8)
        outcomes[1, ::2] = -1
        outcomes[1, 1::4] = 0
        rates, trials = outcome_rates(outcomes, 2)
        assert trials.tolist() == [140_000, 70_000]
        assert rates.tolist() == [[0.0, 1.0], [0.5, 0.5]]

    def _ensemble(self, rows, n_trajectories, **kw):
        """Ensemble whose trajectory i has the outcome row rows(i)."""
        built = [0]

        def builder(points):
            first = built[0]
            built[0] += len(points)
            return np.array([rows(i) for i in range(first, built[0])])

        return ensemble_statistics(self.measure, builder, 2, n_trajectories,
                                   **kw)

    def test_rows_without_trials_excluded(self):
        stats = self._ensemble(
            lambda i: [-1, -1, -1] if i % 3 == 0 else [1, 0, -1], 300)
        assert (stats.n_trajectories, stats.n_excluded) == (200, 100)
        assert np.array_equal(stats.mean, [0.5, 0.5])
        assert np.array_equal(stats.variance, [0.0, 0.0])

    def test_rows_under_trial_floor_excluded(self):
        stats = self._ensemble(
            lambda i: [1, -1, -1] if i % 2 else [0, 0, 1], 300,
            n_min_trials=2)
        assert (stats.n_trajectories, stats.n_excluded) == (150, 150)
        assert np.allclose(stats.mean, [2 / 3, 1 / 3], rtol=0, atol=1e-12)
        with pytest.raises(EmptyEnsembleError):
            self._ensemble(lambda i: [-1, -1], 10)

    @pytest.mark.parametrize("bad", [2, -2])
    def test_out_of_range_outcome_rejected(self, bad):
        with pytest.raises(ValueError):
            self._ensemble(lambda i: [0, bad if i == 260 else 1], 300)
        with pytest.raises(ValueError):
            outcome_rates(np.array([[0, bad]]), 2)

    @pytest.mark.parametrize("shape", [lambda n: (n - 1, 4),
                                       lambda n: (n + 1, 4),
                                       lambda n: (n,)])
    def test_wrong_row_count_rejected(self, shape):
        def builder(points):
            return np.zeros(shape(len(points)), dtype=int)

        with pytest.raises(ValueError, match="outcome builder"):
            ensemble_statistics(self.measure, builder, 2, 10)

    def test_wrong_point_count_rejected(self):
        # one point per block instead of one per stream
        short = MeasureSpec(dimension=1,
                            sampler=lambda streams, n: uniform_sampler(
                                streams[:1], n))
        with pytest.raises(ValueError, match="for 1 points of 10"):
            ensemble_statistics(short, lambda pts: np.zeros((len(pts), 1),
                                                            dtype=int), 1, 10)

    def test_blocks_are_consecutive_points(self):
        seen = []

        def builder(points):
            seen.append(points[:, 0].copy())
            return np.zeros((len(points), 1), dtype=int)

        ensemble_statistics(self.measure, builder, 1, 2 * BUILD_BLOCK + 5,
                            seed=4)
        assert [len(b) for b in seen] == [BUILD_BLOCK, BUILD_BLOCK, 5]
        drawn = np.concatenate(seen)
        for i in (0, BUILD_BLOCK - 1, BUILD_BLOCK, 2 * BUILD_BLOCK + 4):
            assert drawn[i] == self.measure.sampler([trajectory_stream(4, i)],
                                                    1)[0, 0]


# the four shipped measures, built fresh for each use
SHIPPED_MEASURES = {
    "bit-sequence": lambda: biased_measure(0.3, 37),
    "flipper-entry": lambda: entry_measure(random_scene(12, 1.0, 1.0,
                                                        seed=3)),
    "exponential-life": lambda: exponential_life_measure(1.7),
    "uniform-life": lambda: uniform_life_measure(0.5, 2.5),
}


class TestSamplerContract:
    """``sampler(streams, n)``: rows k*n to k*n + n - 1 are what
    ``streams[k]`` alone gives."""

    @pytest.mark.parametrize("name", SHIPPED_MEASURES)
    @pytest.mark.parametrize("n", [1, 5])
    def test_block_is_single_streams_stacked(self, name, n):
        measure = SHIPPED_MEASURES[name]()
        block = measure.sampler([stream(8, k) for k in range(3)], n)
        alone = [measure.sampler([stream(8, k)], n) for k in range(3)]
        assert block.shape == (3 * n, measure.dimension)
        assert block.dtype == alone[0].dtype
        assert np.array_equal(block, np.concatenate(alone))

    @pytest.mark.parametrize("name", SHIPPED_MEASURES)
    def test_no_streams_no_rows(self, name):
        measure = SHIPPED_MEASURES[name]()
        assert measure.sampler([], 4).shape == (0, measure.dimension)


class TestDeterminism:
    def _line(self, slope, branch=None):
        return PiecewiseTrajectory(
            [Segment(0.0, 10.0, lambda t, s=slope: s * t[:, None])],
            branch_id=branch)

    def test_distinct_pasts_no_witness(self):
        # two lines through the origin with different slopes agree nowhere
        # over a window, so the family shows no indeterminism
        trs = [self._line(1.0), self._line(2.0)]
        assert check_determinism(trs, match_window=1.0, tolerance=1e-9,
                                 time_step=0.1)

    def test_split_pair_is_witnessed(self):
        def f(t):
            return np.where(t < 5.0, 0.0, t - 5.0)[:, None]

        def g(t):
            return np.where(t < 5.0, 0.0, 5.0 - t)[:, None]

        a = PiecewiseTrajectory([Segment(0.0, 10.0, f)], branch_id="a")
        b = PiecewiseTrajectory([Segment(0.0, 10.0, g)], branch_id="b")
        assert not check_determinism([a, b], match_window=1.0,
                                     tolerance=1e-9, time_step=0.1)


def _reference_check_determinism(trajectories, match_window, tolerance,
                                 time_step):
    """The per-sample search check_determinism replaced, kept as a
    reference: four nested loops over (coordinates, sector) samples."""
    def distance(p, q):
        if p[1] != q[1] or p[0].shape != q[0].shape:
            return math.inf
        return float(np.max(np.abs(p[0] - q[0]))) if p[0].size else 0.0

    def sample(tr, t):
        seg = next(seg for seg in tr.segments
                   if t < seg.t1 or seg is tr.segments[-1])
        return np.asarray(seg.path(np.array([t])), dtype=float)[0], seg.sector

    sampled = []
    for tr in trajectories:
        t0, t1 = tr.domain
        h = time_step
        sampled.append([sample(tr, float(t))
                         for t in np.arange(t0, t1 + h * 0.5, h)])
    w = max(1, int(round(match_window / time_step))) + 1
    for i, pi in enumerate(sampled):
        for j in range(i, len(sampled)):
            pj = sampled[j]
            for k1 in range(0, len(pi) - w + 1):
                for k2 in range(k1 + 1 if i == j else 0, len(pj) - w + 1):
                    if not all(distance(pi[k1 + m], pj[k2 + m]) <= tolerance
                               for m in range(w)):
                        continue
                    m = w
                    while k1 + m < len(pi) and k2 + m < len(pj):
                        if distance(pi[k1 + m], pj[k2 + m]) > tolerance:
                            return False
                        m += 1
    return True


def _random_family(rng):
    """A small random family and check_determinism arguments for it.

    Half are rest-decay families (a shared past, then a sector change at
    each split time). The rest glue pieces from a small pool, so members
    often share stretches: constant or unit-slope pieces, values 0.5
    apart, widths 1 and 2 and sectors None/"a"/"b"; tolerances fall below
    and above the 0.5 jumps. There is no NaN: after a matched window the
    reference counts a NaN sample as neither agreeing nor disagreeing,
    where check_determinism counts it as a disagreement.
    """
    h = float(rng.choice([0.25, 0.5]))
    window = float(rng.choice([0.5, 1.0, 1.5]))
    n_members = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        t_b = float(rng.choice([3.0, 4.0, 5.0]))
        splits = rng.choice(np.arange(h, t_b, h), size=n_members)
        splits = splits + rng.choice([0.0, 0.1], size=n_members)
        direction = rng.normal(size=3)
        family = rest_decay_family(DecayMasses(4.0, 1.0, 2.0), splits,
                                   t_b=t_b, direction=direction)
        tolerance = float(rng.choice([1e-9, 0.05, 0.2, 1.0]))
        return family, window, tolerance, h

    def piece(t0):
        width = int(rng.integers(1, 3))
        sector = [None, "a", "b"][rng.integers(0, 3)]
        value = 0.5 * float(rng.integers(0, 3))
        slope = float(rng.choice([0.0, 0.0, -1.0, 1.0]))
        return sector, (lambda t: value + slope * (t - t0)[:, None]
                        + np.zeros(width))

    family = []
    for _ in range(n_members):
        start = h * float(rng.integers(0, 3))
        cuts = np.sort(rng.choice(np.arange(1, 13), size=int(
            rng.integers(0, 3)), replace=False)) * h
        bounds = [start] + list(start + cuts) + [start + 14 * h]
        segs = []
        for t0, t1 in zip(bounds, bounds[1:]):
            sector, path = piece(t0)
            segs.append(Segment(t0, t1, path, sector=sector))
        family.append(PiecewiseTrajectory(segs))
    tolerance = float(rng.choice([1e-9, 0.25, 0.75]))
    return family, window, tolerance, h


class TestDeterminismReference:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(20260418)
        outcomes = []
        for _ in range(300):
            family, window, tolerance, h = _random_family(rng)
            got = check_determinism(family, match_window=window,
                                    tolerance=tolerance, time_step=h)
            assert got == _reference_check_determinism(family, window,
                                                       tolerance, h)
            outcomes.append(got)
        # both answers occur often enough to mean something
        assert 60 <= sum(outcomes) <= 240


class TestRng:
    def test_streams_reproducible(self):
        assert stream(7).random() == stream(7).random()
        assert stream(7, 1, 2).random() == stream(7, 1, 2).random()

    def test_paths_decorrelate(self):
        assert stream(7, 1).random() != stream(7, 2).random()
        assert stream(7).random() != stream(8).random()

    def test_string_path_elements(self):
        a = stream(7, "mean-life").random()
        b = stream(7, "mean-life").random()
        c = stream(7, "other").random()
        assert a == b and a != c

    def test_trajectory_stream_matches_indexed(self):
        assert trajectory_stream(3, 11).random() == \
            trajectory_stream(3, 11).random()


def _same_draws(a, b):
    return np.array_equal(a.random(64), b.random(64)) \
        and a.normal() == b.normal()


class TestTrajectoryStreams:
    # 2**130 + 1 has five 32-bit entropy words, one more than the pool
    SEEDS = (0, 1, 700_000, 2 ** 32 + 5, 2 ** 70 + 3, 2 ** 130 + 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("start, stop", [
        (0, BUILD_BLOCK + 3),
        (BUILD_BLOCK - 2, 2 * BUILD_BLOCK + 2),
        (9_999, 10_001),
    ])
    def test_equal_to_indexed_streams(self, seed, start, stop):
        """Streams ``start`` to ``stop`` of a run counting from 0."""
        streams = [g for b in _stream_blocks(seed, stop, BUILD_BLOCK)
                   for g in b]
        assert len(streams) == stop
        for i in range(start, stop):
            assert _same_draws(streams[i], trajectory_stream(seed, i)), i

    @pytest.mark.parametrize("start, stop, block", [
        (0, 2 * _WORDS_CHUNK * 3 + 5, 3),   # three chunks, a short block
        (5, 12, 4),
    ])
    def test_blocks_equal_indexed_streams(self, start, stop, block):
        """Blocks tile ``range(stop)``; streams from ``start`` on are
        checked."""
        blocks = list(_stream_blocks(2 ** 70 + 3, stop, block))
        assert [len(b) for b in blocks] == [
            min(block, stop - s) for s in range(0, stop, block)]
        streams = [g for b in blocks for g in b]
        for i in range(start, stop):
            assert _same_draws(streams[i], trajectory_stream(2 ** 70 + 3, i)), i

    def test_empty_range(self):
        assert list(_stream_blocks(3, 0, 4)) == []
        assert list(_stream_blocks(3, -2, 4)) == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            next(_stream_blocks(-1, 4, 4))

    def test_more_streams_than_one_word_indices_refused(self):
        """2**32 streams is the most; one more is refused by its count
        before a seed word is hashed."""
        assert next(_stream_blocks(3, 2 ** 32, 4))[0].random() == \
            trajectory_stream(3, 0).random()
        with pytest.raises(ValueError, match=f"^{2 ** 32 + 1} trajectories"):
            next(_stream_blocks(3, 2 ** 32 + 1, 4))

    @pytest.mark.parametrize("n_words, dtype", [
        (4, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
    def test_stub_refuses_other_requests(self, n_words, dtype):
        words = _Words(np.zeros(4, dtype=np.uint64))
        assert words.generate_state(4, np.uint64) is words.words
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)

    @pytest.mark.parametrize("dtype", [np.uint64, "u8", np.dtype("uint64")])
    def test_stub_accepts_uint64_spellings(self, dtype):
        words = _Words(np.arange(4, dtype=np.uint64))
        assert words.generate_state(4, dtype) is words.words

    def test_stub_is_a_seed_sequence_subclass(self):
        # a real subclass, not one registered with the ABC
        assert ISeedSequence in type.mro(_Words)
        assert isinstance(_Words(np.zeros(4, dtype=np.uint64)),
                          ISeedSequence)
