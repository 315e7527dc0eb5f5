import pytest
from hypothesis import given, strategies as st

from qgramsearch import ConfigurationError
from qgramsearch.pyengine import qgram_hashes
from oracles import hash16_oracle, hash8_oracle

# entry q of qgram_hashes(w, q, bits) hashes the first window w[:q]


def test_hash16_known_values():
    assert qgram_hashes(b"aba", 3)[3] == 2041
    assert qgram_hashes(b"aaa", 3)[3] == 2037
    assert qgram_hashes(b"bba", 3)[3] == 2057
    assert qgram_hashes(b"a", 1)[1] == 97


def test_hash8_known_values():
    assert qgram_hashes(b"a", 1, 8)[1] == 97
    assert qgram_hashes(b"ab", 2, 8)[2] == 36
    assert qgram_hashes(b"aaa", 3, 8)[3] == 167


def test_roll_known_values():
    assert qgram_hashes(b"abaa", 3)[3:] == [2041, 2053]  # aba -> baa
    assert qgram_hashes(b"aaab", 3)[3:] == [2037, 2038]  # aaa -> aab
    # q = 1: the incoming byte simply replaces the hash
    assert qgram_hashes(b"ab", 1)[1:] == [97, 98]


def test_sequence_shorter_than_q_rejected():
    for bits in (16, 8):
        with pytest.raises(ConfigurationError, match="exceeds"):
            qgram_hashes(b"ab", 3, bits)


@pytest.mark.parametrize("q", [0, 9, -1, 1.5, "x", None])
def test_q_out_of_range_rejected(q):
    with pytest.raises(ConfigurationError, match="q must be"):
        qgram_hashes(b"x" * 10, q)


@given(st.integers(1, 8), st.data())
def test_hashes_match_bigint_oracle(q, data):
    # every window, first and rolled, at both widths
    s = data.draw(st.binary(min_size=q, max_size=q + 16))
    for bits, oracle in ((16, hash16_oracle), (8, hash8_oracle)):
        assert qgram_hashes(s, q, bits)[q:] == [
            oracle(s[e - q:e], q) for e in range(q, len(s) + 1)], (s, bits)


@given(st.integers(1, 8), st.data())
def test_roll_equals_recompute_along_string(q, data):
    # each rolled hash equals the first-window loop run on that window alone
    n = data.draw(st.integers(q, q + 16))
    s = data.draw(st.binary(min_size=n, max_size=n))
    for bits in (16, 8):
        rolled = qgram_hashes(s, q, bits)
        for e in range(q, n + 1):
            assert rolled[e] == qgram_hashes(s[e - q:e], q, bits)[q], (s, e)


def test_hash_in_range_and_deterministic():
    w = bytes(range(240, 248))
    for bits in (16, 8):
        first = qgram_hashes(w, 8, bits)[8]
        assert 0 <= first < (1 << bits)
        assert qgram_hashes(w, 8, bits)[8] == first
