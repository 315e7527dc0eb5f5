import pytest
from hypothesis import given, strategies as st

from qgramsearch import ConfigurationError, qgram_hash16, qgram_hash8
from qgramsearch.matchers import qgram_hashes
from oracles import hash16_oracle, hash8_oracle


def test_hash16_known_values():
    assert qgram_hash16(b"aba", 3) == 2041
    assert qgram_hash16(b"aaa", 3) == 2037
    assert qgram_hash16(b"bba", 3) == 2057
    assert qgram_hash16(b"a", 1) == 97


def test_hash8_known_values():
    assert qgram_hash8(b"a", 1) == 97
    assert qgram_hash8(b"ab", 2) == 36
    assert qgram_hash8(b"aaa", 3) == 167


def test_roll_known_values():
    assert qgram_hashes(b"abaa", 3)[3:] == [2041, 2053]  # aba -> baa
    assert qgram_hashes(b"aaab", 3)[3:] == [2037, 2038]  # aaa -> aab
    # q = 1: the incoming byte simply replaces the hash
    assert qgram_hashes(b"ab", 1)[1:] == [97, 98]


def test_window_length_mismatch_rejected():
    with pytest.raises(ValueError):
        qgram_hash16(b"ab", 3)
    with pytest.raises(ValueError):
        qgram_hash8(b"abcd", 3)


@pytest.mark.parametrize("q", [0, 9, -1, 1.5, "x", None])
def test_q_out_of_range_rejected(q):
    # q is checked before the window's length
    with pytest.raises(ConfigurationError, match="q must be"):
        qgram_hashes(b"x" * 10, q)
    with pytest.raises(ConfigurationError, match="q must be"):
        qgram_hash16(b"xxx", q)


@given(st.integers(1, 8), st.data())
def test_hashes_match_bigint_oracle(q, data):
    window = bytes(data.draw(st.lists(st.integers(0, 255), min_size=q, max_size=q)))
    assert qgram_hash16(window, q) == hash16_oracle(window, q)
    assert qgram_hash8(window, q) == hash8_oracle(window, q)


@given(st.integers(1, 8), st.data())
def test_roll_equals_recompute_along_string(q, data):
    n = data.draw(st.integers(q, q + 16))
    s = bytes(data.draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)))
    hs16 = qgram_hashes(s, q)
    hs8 = qgram_hashes(s, q, 8)
    for e in range(q, n + 1):
        assert hs16[e] == qgram_hash16(s[e - q:e], q)
        assert hs8[e] == qgram_hash8(s[e - q:e], q)


def test_hash_in_range_and_deterministic():
    w = bytes(range(240, 248))
    first = qgram_hash16(w, 8)
    assert 0 <= first < (1 << 16)
    assert qgram_hash16(w, 8) == first
