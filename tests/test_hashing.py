import pytest

from qgramsearch import ConfigurationError
from qgramsearch.pyengine import qgram_hashes

# the input checks of qgram_hashes; its values are tested in test_pyengine


def test_sequence_shorter_than_q_rejected():
    for bits in (16, 8):
        with pytest.raises(ConfigurationError, match="exceeds"):
            qgram_hashes(b"ab", 3, bits)


@pytest.mark.parametrize("q", [0, 9, -1, 1.5, "x", None])
def test_q_out_of_range_rejected(q):
    with pytest.raises(ConfigurationError, match="q must be"):
        qgram_hashes(b"x" * 10, q)
