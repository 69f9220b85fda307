import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xling import regulator
from xling.errors import LengthMismatchError, TooLargeError
from xling.features import average_by_phoneme
from xling.lexicon import EN, LDPSymbol, PhonemeSequence
from xling.model import Inference, ModelConfig, TeacherForced, check_inputs, forward, init_weights
from xling.regulator import (
    GRL,
    Aggregate,
    Expand,
    StopGrad,
    aggregate,
    as_counts,
    cumulative_lengths,
    expand,
    linear_backward,
    linear_forward,
)


def brute_force_aggregate(X, lengths):
    """Reference segment sum: explicit loops, strict index order."""
    X = np.asarray(X, dtype=np.float64)
    bounds = [0]
    for n in lengths:
        bounds.append(bounds[-1] + n)
    out = np.zeros((len(lengths), X.shape[1]))
    for i in range(len(lengths)):
        acc = np.zeros(X.shape[1])
        for k in range(bounds[i], bounds[i + 1]):
            acc = acc + X[k]
        out[i] = acc
    return out


def dense_aggregate_matrix(lengths, total):
    """The aggregation operator as an explicit 0/1 matrix."""
    A = np.zeros((len(lengths), total))
    pos = 0
    for i, n in enumerate(lengths):
        A[i, pos : pos + n] = 1.0
        pos += n
    return A


def dense_expand_matrix(durations, rows):
    E = np.zeros((sum(durations), rows))
    r = 0
    for i, d in enumerate(durations):
        for _ in range(d):
            E[r, i] = 1.0
            r += 1
    return E


def random_lengths(rng, total):
    lengths = []
    remaining = total
    while remaining > 0:
        n = int(rng.integers(1, remaining + 1))
        lengths.append(n)
        remaining -= n
    return lengths


class TestCumulativeLengths:
    def test_empty(self):
        assert cumulative_lengths([]).tolist() == [0]

    def test_basic(self):
        assert cumulative_lengths([2, 1, 3]).tolist() == [0, 2, 3, 6]

    def test_all_ones(self):
        assert cumulative_lengths([1] * 7).tolist() == list(range(8))

    def test_monotone_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lengths = random_lengths(rng, int(rng.integers(1, 64)))
            c = cumulative_lengths(lengths)
            assert c[0] == 0
            assert np.all(np.diff(c) >= 1)
            assert c[-1] == sum(lengths)

    def test_rejects_zero_length(self):
        with pytest.raises(LengthMismatchError):
            cumulative_lengths([2, 0, 1])


class TestAggregate:
    def test_identity_when_all_ones(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 3))
        assert np.array_equal(aggregate(X, [1] * 5), X)

    def test_basis_rows(self):
        X = np.eye(6)
        Y = aggregate(X, [2, 1, 3])
        expected = np.array(
            [
                [1, 1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 1, 1],
            ],
            dtype=np.float64,
        )
        assert np.array_equal(Y, expected)

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            total = int(rng.integers(1, 33))
            D = int(rng.integers(1, 9))
            lengths = random_lengths(rng, total)
            X = rng.standard_normal((total, D))
            assert aggregate(X, lengths).tobytes() == brute_force_aggregate(X, lengths).tobytes()

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            total = int(rng.integers(1, 40))
            lengths = random_lengths(rng, total)
            X1 = rng.standard_normal((total, 5))
            X2 = rng.standard_normal((total, 5))
            a, b = rng.standard_normal(2)
            lhs = aggregate(a * X1 + b * X2, lengths)
            rhs = a * aggregate(X1, lengths) + b * aggregate(X2, lengths)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_empty(self):
        Y = aggregate(np.zeros((0, 4)), [])
        assert Y.shape == (0, 4)

    def test_row_count_mismatch(self):
        with pytest.raises(LengthMismatchError):
            aggregate(np.zeros((5, 2)), [2, 2])


def overflowing_rows(rows):
    """Two columns whose in-order sums overflow to +inf and -inf: the first
    half of the rows is +-1e308, the second half its negation."""
    half = np.tile([1e308, -1e308], (rows // 2, 1))
    return np.vstack((half, -half))


# name -> (rows, counts with zero entries); aggregate reads the nonzero counts
SEGMENT_CASES = {
    "negative-zero": (np.full((7, 3), -0.0), [1, 0, 2, 4, 0]),
    "overflow": (overflowing_rows(20), [0, 4, 10, 0, 6]),
    "one-column": (np.random.default_rng(12).standard_normal((40, 1)), [1, 0, 9, 30]),
    "column-major": (np.asfortranarray(np.random.default_rng(13).standard_normal((40, 3))),
                     [9, 0, 31]),
    "reversed": (np.random.default_rng(14).standard_normal((40, 3))[::-1], [0, 9, 31]),
}


class TestSegmentSumBytes:
    """Segment sums equal the in-order reference byte for byte, the sign of a
    zero sum and overflow included, whatever the width or memory layout."""

    @pytest.mark.parametrize("case", SEGMENT_CASES)
    def test_aggregate(self, case):
        X, counts = SEGMENT_CASES[case]
        lengths = [n for n in counts if n]
        with np.errstate(over="ignore", invalid="ignore"):
            got, expected = aggregate(X, lengths), brute_force_aggregate(X, lengths)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", SEGMENT_CASES)
    def test_expand_backward_with_zero_durations(self, case):
        g, durations = SEGMENT_CASES[case]
        with np.errstate(over="ignore", invalid="ignore"):
            got = linear_backward(Expand(tuple(durations)), g)
            expected = brute_force_aggregate(g, durations)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_cases_reach_the_edges(self):
        with np.errstate(over="ignore"):
            overflow = brute_force_aggregate(*SEGMENT_CASES["overflow"])
        assert np.isinf(overflow[[1, 2, 4]]).all() and (overflow[[0, 3]] == 0).all()
        assert not np.signbit(brute_force_aggregate(*SEGMENT_CASES["negative-zero"])).any()


class TestExpand:
    def test_identity_when_all_ones(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((4, 6))
        assert np.array_equal(expand(Y, [1] * 4), Y)

    def test_repeat_with_zero(self):
        Y = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        F = expand(Y, [2, 0, 3])
        assert np.array_equal(F[:, 0], [1, 1, 3, 3, 3])

    def test_all_zero_durations(self):
        F = expand(np.ones((3, 2)), [0, 0, 0])
        assert F.shape == (0, 2)

    def test_row_count_mismatch(self):
        with pytest.raises(LengthMismatchError):
            expand(np.zeros((3, 2)), [1, 1])

    def test_negative_duration_rejected(self):
        with pytest.raises(LengthMismatchError):
            expand(np.zeros((2, 2)), [1, -1])


class TestBackward:
    def test_stopgrad_zero(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 4))
        out = linear_backward(StopGrad(), g)
        assert out.shape == g.shape
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
    def test_grl_scaling(self, lam):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 3))
        assert np.array_equal(linear_backward(GRL(lam), g), -lam * g)

    def test_grl_forward_identity(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 4))
        assert np.array_equal(linear_forward(GRL(0.5), X), X)
        assert np.array_equal(linear_forward(StopGrad(), X), X)

    def test_aggregate_and_expand_forward(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        got = linear_forward(Aggregate((2, 1, 3)), X)
        assert got.shape == (3, 3) and got.tobytes() == aggregate(X, (2, 1, 3)).tobytes()
        got = linear_forward(Expand((2, 0, 3, 1)), X[:4])
        assert got.shape == (6, 3) and got.tobytes() == expand(X[:4], (2, 0, 3, 1)).tobytes()

    def test_aggregate_backward_broadcasts(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = linear_backward(Aggregate((2, 1)), g)
        assert np.array_equal(out, [[1, 2], [1, 2], [3, 4]])

    def test_expand_backward_sums(self):
        g = np.arange(10, dtype=np.float64).reshape(5, 2)
        out = linear_backward(Expand((2, 0, 3)), g)
        expected = np.array([[0 + 2, 1 + 3], [0, 0], [4 + 6 + 8, 5 + 7 + 9]])
        assert np.array_equal(out, expected)

    def test_aggregate_adjoint_identity(self):
        # <A x, z> == <x, A^T z>, cross-checked against an explicit dense
        # construction of the operator.
        rng = np.random.default_rng(5)
        for _ in range(200):
            total = int(rng.integers(1, 65))
            D = int(rng.integers(1, 17))
            lengths = random_lengths(rng, total)
            X = rng.standard_normal((total, D))
            Z = rng.standard_normal((len(lengths), D))
            lhs = float(np.sum(aggregate(X, lengths) * Z))
            rhs = float(np.sum(X * linear_backward(Aggregate(tuple(lengths)), Z)))
            assert abs(lhs - rhs) < 1e-10
            A = dense_aggregate_matrix(lengths, total)
            assert abs(float(np.sum((A @ X) * Z)) - lhs) < 1e-8
            assert abs(float(np.sum(X * (A.T @ Z))) - rhs) < 1e-8

    def test_expand_adjoint_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rows = int(rng.integers(1, 33))
            D = int(rng.integers(1, 17))
            durations = [int(v) for v in rng.integers(0, 5, size=rows)]
            Y = rng.standard_normal((rows, D))
            Z = rng.standard_normal((sum(durations), D))
            lhs = float(np.sum(expand(Y, durations) * Z))
            rhs = float(np.sum(Y * linear_backward(Expand(tuple(durations)), Z)))
            assert abs(lhs - rhs) < 1e-10
            E = dense_expand_matrix(durations, rows)
            assert abs(float(np.sum((E @ Y) * Z)) - lhs) < 1e-8

    def test_backward_shape_mismatch(self):
        with pytest.raises(LengthMismatchError):
            linear_backward(Aggregate((2, 1)), np.zeros((3, 2)))
        with pytest.raises(LengthMismatchError):
            linear_backward(Expand((2, 1)), np.zeros((2, 2)))


class TestComposition:
    def test_aggregate_then_expand_row_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            total = int(rng.integers(1, 64))
            lengths = random_lengths(rng, total)
            durations = [int(v) for v in rng.integers(0, 6, size=len(lengths))]
            X = rng.standard_normal((total, 4))
            Y = aggregate(X, lengths)
            assert Y.shape[0] == len(lengths)
            F = expand(Y, durations)
            assert F.shape[0] == sum(durations)

    def test_tag_validation(self):
        with pytest.raises(LengthMismatchError):
            Aggregate((1, 0))
        with pytest.raises(LengthMismatchError):
            Expand((-1,))
        with pytest.raises(LengthMismatchError):
            GRL(0.0)
        Expand((0, 0))  # zero durations are legal for expansion


class TestWholeNumberCounts:
    """A count that is not a whole number is refused at every entry point,
    never truncated; whole values of any dtype are read as ints."""

    @pytest.mark.parametrize("call, message", [
        (lambda: cumulative_lengths([2, 1.5]), "phoneme lengths must be whole numbers"),
        (lambda: aggregate(np.ones((3, 2)), [1.5, 1.5]),
         "phoneme lengths must be whole numbers"),
        (lambda: expand(np.ones((2, 2)), [0.9, 1.2]), "durations must be whole numbers"),
        (lambda: Aggregate((1.7, 1.2)), "phoneme lengths must be whole numbers"),
        (lambda: Expand((0.5,)), "durations must be whole numbers"),
        (lambda: Expand((np.nan,)), "durations must be whole numbers"),
        (lambda: Aggregate((np.inf,)), "phoneme lengths must be whole numbers"),
    ], ids=["cumulative_lengths", "aggregate", "expand", "Aggregate", "Expand", "nan",
            "inf"])
    def test_fraction_refused(self, call, message):
        with pytest.raises(LengthMismatchError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("two", [2, np.int64(2), 2.0, np.float32(2.0)],
                             ids=["int", "int64", "float", "float32"])
    def test_whole_values_of_any_dtype(self, two):
        X = np.arange(6.0).reshape(3, 2)
        assert cumulative_lengths([1, two]).tolist() == [0, 1, 3]
        assert np.array_equal(aggregate(X, [1, two]), aggregate(X, [1, 2]))
        assert np.array_equal(expand(X, [two, 0, 1]), expand(X, [2, 0, 1]))
        assert Aggregate((1, two)).lengths == (1, 2)
        assert Expand((two,)).durations == (2,)
        assert type(Expand((two,)).durations[0]) is int


class TestMessages:
    @pytest.mark.parametrize("call, message", [
        (lambda: aggregate(np.zeros((5, 2)), [2, 2]), "X has 5 rows but lengths sum to 4"),
        (lambda: expand(np.zeros((3, 2)), [1, 1]), "Y has 3 rows but 2 durations"),
        (lambda: linear_backward(Aggregate((2, 1)), np.zeros((3, 2))),
         "upstream has 3 rows but 2 lengths"),
        (lambda: linear_backward(Expand((2, 1)), np.zeros((2, 2))),
         "upstream has 2 rows but durations sum to 3"),
        (lambda: cumulative_lengths([2, 0, 1]), "phoneme lengths must all be >= 1"),
        (lambda: expand(np.zeros((2, 2)), [1, -1]), "durations must all be >= 0"),
    ])
    def test_message(self, call, message):
        with pytest.raises(LengthMismatchError) as info:
            call()
        assert str(info.value) == message


class TestRepeatCap:
    def test_expand_above_the_cap(self):
        too_many = regulator.MAX_REPEAT_BYTES // 8 + 1
        with pytest.raises(TooLargeError) as info:
            expand(np.ones((1, 1)), [too_many])
        assert str(info.value) == (f"durations repeat Y to {too_many} rows, {too_many * 8} "
                                   f"bytes, above the cap of {regulator.MAX_REPEAT_BYTES}")

    def test_aggregate_backward_above_the_cap(self):
        with pytest.raises(TooLargeError, match="^lengths repeat upstream to "):
            linear_backward(Aggregate((2**40,)), np.ones((1, 3)))

    def test_zero_width_rows_count(self):
        with pytest.raises(TooLargeError, match="^durations repeat Y to 4611686018427387904 "):
            expand(np.ones((1, 0)), [2**62])
        assert expand(np.ones((2, 0)), [3, 1]).shape == (4, 0)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(regulator, "MAX_REPEAT_BYTES", 48)
        assert expand(np.ones((2, 3)), [1, 1]).shape == (2, 3)
        with pytest.raises(TooLargeError):
            expand(np.ones((2, 3)), [2, 1])


SMALL = ModelConfig(n_ipa_symbols=11, n_speakers=3, hidden=8, enc_layers=1, dec_layers=1,
                    conv_kernel=3, ff_channels=16, n_mels=5)


@functools.cache
def small_weights():
    return init_weights(SMALL, seed=5)


def teacher_forced(durations):
    n = len(durations)
    return TeacherForced(tuple(durations), (100.0,) * n, (0.1,) * n)


# entry point -> (the name its messages use, the least count, a call that
# reads ``counts`` as that entry point's lengths or durations)
COUNT_READERS = {
    "check_inputs-lengths": ("phoneme lengths", 1, lambda counts: check_inputs(
        SMALL, [0, 1, 2], counts, 0, Inference())),
    "check_inputs-durations": ("teacher-forced durations", 0, lambda counts: check_inputs(
        SMALL, list(range(len(counts))), [1] * len(counts), 0, teacher_forced(counts))),
    "forward": ("phoneme lengths", 1, lambda counts: forward(
        small_weights(), [1, 2], counts, 0, teacher_forced([2.9, 1.5]))),
    "average_by_phoneme": ("durations", 0, lambda counts: average_by_phoneme(
        [1.0, 2.0, 3.0], counts)),
    "PhonemeSequence": ("phoneme lengths", 1, lambda counts: PhonemeSequence(
        (LDPSymbol("K", EN),) * len(counts), ("k",) * 3, tuple(counts))),
    "cumulative_lengths": ("phoneme lengths", 1, cumulative_lengths),
}
WRAPS = [2**63 - 1, 2**63 - 1, 4]


class TestCountRule:
    """Every entry point that reads lengths or durations applies as_counts:
    fractions and int64-wrapping totals are refused, never truncated or
    wrapped, and a zero phoneme length is refused where it enters."""

    @pytest.mark.parametrize("reader", COUNT_READERS)
    @pytest.mark.parametrize("counts", [[1.7, 1.2], [1.5, 1.5]], ids=["tenths", "halves"])
    def test_fraction_refused(self, reader, counts):
        what, _, call = COUNT_READERS[reader]
        with pytest.raises(LengthMismatchError) as info:
            call(counts)
        assert str(info.value) == f"{what} must be whole numbers"

    @pytest.mark.parametrize("reader", COUNT_READERS)
    def test_int64_wrap_refused(self, reader):
        what, _, call = COUNT_READERS[reader]
        with pytest.raises(TooLargeError) as info:
            call(WRAPS)
        assert str(info.value) == (f"{what} sum to {sum(WRAPS)}, above the int64 cap of "
                                   f"{2**63 - 1}")

    @pytest.mark.parametrize("reader", COUNT_READERS)
    def test_more_than_one_axis_refused(self, reader):
        what, _, call = COUNT_READERS[reader]
        with pytest.raises(LengthMismatchError) as info:
            call(((1, 1), (1, 1), (1, 1)))
        assert str(info.value) == f"{what} must have one axis, got shape (3, 2)"

    @pytest.mark.parametrize("reader", [r for r, (_, least, _) in COUNT_READERS.items()
                                        if least == 1])
    def test_zero_length_refused(self, reader):
        what, _, call = COUNT_READERS[reader]
        with pytest.raises(LengthMismatchError) as info:
            call([2, 0])
        assert str(info.value) == f"{what} must all be >= 1"


def reference_counts(counts, least):
    """The count rule by hand on Python numbers; None where it refuses."""
    if isinstance(counts, np.ndarray) and counts.ndim != 1:
        return None
    values = counts.tolist() if isinstance(counts, np.ndarray) else list(counts)
    if any(isinstance(v, list) for v in values):  # a nested list: more than one axis
        return None
    if not all(math.isfinite(v) and v == math.floor(v) for v in values):
        return None
    ints = [int(v) for v in values]
    if any(n < least for n in ints) or sum(ints) >= 2**63:
        return None
    return ints


NUMBERS = st.one_of(
    st.integers(-2, 2**64),
    st.sampled_from([0, 1, 2**62, 2**63 - 1, 2**63]),
    st.floats(),
    st.integers(-2, 2**64).map(float),
)
COUNT_SEQUENCES = st.one_of(
    st.lists(NUMBERS, max_size=6),
    st.lists(NUMBERS, max_size=6).map(tuple),
    st.lists(st.integers(-2, 2**62), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(), max_size=6).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.lists(NUMBERS, max_size=3), min_size=1, max_size=3),  # even or ragged rows
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda shape: np.ones(shape, dtype=np.int64)),  # whole counts on two axes
)


class TestAsCountsProperty:
    @given(counts=COUNT_SEQUENCES, least=st.sampled_from([0, 1]))
    def test_matches_a_reference_predicate(self, counts, least):
        expected = reference_counts(counts, least)
        try:
            got = as_counts(counts, least, "counts")
        except (LengthMismatchError, TooLargeError):
            assert expected is None
        else:
            assert got.dtype == np.int64 and got.tolist() == expected


class TestBackwardBitwise:
    """Each backward pass is bit for bit the other operator's reference."""

    @given(lengths=st.lists(st.integers(1, 4), max_size=8), width=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_aggregate_backward_is_repeat(self, lengths, width, seed):
        g = np.random.default_rng(seed).standard_normal((len(lengths), width))
        out = linear_backward(Aggregate(tuple(lengths)), g)
        assert out.tobytes() == np.repeat(g, lengths, axis=0).tobytes()
        assert out.shape == (sum(lengths), width)

    @given(durations=st.lists(st.integers(0, 4), max_size=8), width=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_expand_backward_is_segment_sum(self, durations, width, seed):
        g = np.random.default_rng(seed).standard_normal((sum(durations), width))
        out = linear_backward(Expand(tuple(durations)), g)
        # brute_force_aggregate is a plain segment sum; empty segments give 0 rows
        assert out.tobytes() == brute_force_aggregate(g, durations).tobytes()
        assert out.shape == (len(durations), width)
