import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from xling.prng import BLOCK, Xorshift64Star, splitmix64_fill, uniform

MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    """Independent pure-Python SplitMix64 (Steele et al. constants)."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def reference_xorshift64star(state, n):
    """Independent pure-Python xorshift64* body (state must be nonzero)."""
    out = []
    for _ in range(n):
        state ^= state >> 12
        state = (state ^ (state << 25)) & MASK
        state ^= state >> 27
        out.append((state * 0x2545F4914F6CDD1D) & MASK)
    return out


class TestSplitmixFill:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, 0xDEADBEEF, MASK):
            got = splitmix64_fill(seed, 40)
            assert [int(v) for v in got] == reference_splitmix64(seed, 40)

    def test_block_edges_match_reference(self):
        for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1):
            got = splitmix64_fill(11, n)
            assert got.shape == (n,) and got.dtype == np.uint64
            assert [int(v) for v in got] == reference_splitmix64(11, n)

    def test_state_wraps_past_two_to_the_64(self):
        for seed in (MASK, MASK - 5):
            got = splitmix64_fill(seed, BLOCK + 3)
            assert [int(v) for v in got] == reference_splitmix64(seed, BLOCK + 3)

    def test_fills_out_in_place(self):
        out = np.zeros(BLOCK + 3, dtype=np.uint64)
        assert splitmix64_fill(11, BLOCK + 3, out=out) is out
        assert np.array_equal(out, splitmix64_fill(11, BLOCK + 3))

    def test_out_of_another_size_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            splitmix64_fill(11, 5, out=np.empty(6, dtype=np.uint64))

    def test_counter_form_is_stateless(self):
        a = splitmix64_fill(7, 10)
        b = splitmix64_fill(7, 20)
        assert np.array_equal(a, b[:10])


class TestXorshift:
    def test_matches_reference_after_seed_mix(self):
        rng = Xorshift64Star(123)
        mixed = reference_splitmix64(123, 1)[0]
        expected = reference_xorshift64star(mixed, 20)
        assert [rng.next_u64() for _ in range(20)] == expected

    def test_zero_seed_usable(self):
        rng = Xorshift64Star(0)
        values = {rng.next_u64() for _ in range(50)}
        assert len(values) == 50

    def test_distinct_seeds_distinct_streams(self):
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


class TestUniform:
    def test_range_and_shape(self):
        values = uniform(5, (100, 7), -0.1, 0.1)
        assert values.shape == (100, 7)
        assert values.min() >= -0.1 and values.max() < 0.1

    def test_deterministic(self):
        assert np.array_equal(uniform(9, (50,), 0.0, 1.0), uniform(9, (50,), 0.0, 1.0))

    def test_fills_out_in_place(self):
        n = 3 * (BLOCK + 1)  # a (3, BLOCK + 1) tensor in the middle of a buffer
        buffer = np.zeros(3 * n)
        out = buffer[n:2 * n].reshape(3, -1)
        assert uniform(21, out.shape, -0.1, 0.1, out=out) is out
        assert out.tobytes() == uniform(21, out.shape, -0.1, 0.1).tobytes()
        assert not buffer[:n].any() and not buffer[2 * n:].any()

    @pytest.mark.parametrize("out", [np.empty((3, 4)), np.empty((4, 3), dtype=np.float32),
                                     np.empty((4, 6))[:, ::2]], ids=["shape", "dtype", "strided"])
    def test_out_it_cannot_fill_rejected(self, out):
        with pytest.raises(ValueError, match=r"contiguous float64 array of shape \(4, 3\)"):
            uniform(1, (4, 3), 0.0, 1.0, out=out)

    def test_matches_unblocked_formula_across_blocks(self):
        bits = np.array(reference_splitmix64(21, BLOCK + 5), dtype=np.uint64)
        expected = -0.1 + 0.2 * ((bits >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        got = uniform(21, (BLOCK + 5,), -0.1, 0.1)
        assert np.array_equal(got, expected)

    def test_matches_bit_reference(self):
        bits = reference_splitmix64(3, 6)
        expected = [-1.0 + 2.0 * ((b >> 11) * 2.0**-53) for b in bits]
        assert np.allclose(uniform(3, (6,), -1.0, 1.0), expected, atol=0)

    @given(seed=st.integers(0, MASK), low=st.floats(-1e6, 1e6),
           width=st.floats(1e-280, 1e6))
    def test_folded_scale_matches_the_two_step_formula(self, seed, low, width):
        high = low + width
        assume(high > low)
        bits = np.array(reference_splitmix64(seed, 64), dtype=np.uint64)
        u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
        expected = u * (high - low) + low
        assert np.array_equal(uniform(seed, (64,), low, high), expected)
