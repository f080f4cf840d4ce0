import pytest

from regretgames import SizeError
from regretgames.errors import check_size


def test_size_check_at_and_past_the_cap():
    assert check_size("{} cells", 3**5, (3, 5)) == 243
    assert check_size("{} cells", 24, (2, 3), (3, 1)) == 24
    with pytest.raises(SizeError) as info:
        check_size("the sweep would score {} candidate rules", 242, (3, 5))
    assert info.value.count == 243
    assert str(info.value) == "the sweep would score 243 candidate rules (cap 242)"


def test_size_check_base_one_and_empty_product():
    assert check_size("{} cells", 1, (1, 10**100), (1, 7)) == 1
    assert check_size("{} cells", 1) == 1  # the empty product
    with pytest.raises(SizeError) as info:
        check_size("{} cells", 0, (1, 10**100))
    assert info.value.count == 1


def test_size_check_huge_exponent_reports_a_lower_bound():
    with pytest.raises(SizeError) as info:
        check_size("{} realizations", 4096, (2, 10**12))
    assert info.value.count is None
    assert str(info.value) == "at least 2**1000000000000 realizations (cap 4096)"
    # the exact product stops once it is 2 ** 64 past the cap
    with pytest.raises(SizeError) as info:
        check_size("{} strategies", 10**6, (2, 1), (2, 2), (2, 4), (2, 8), (2, 16), (2, 32),
                   (2, 64), (3, 1))
    assert info.value.count is None
    assert str(info.value) == "at least 2**127 strategies (cap 1000000)"
