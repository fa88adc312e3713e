import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbic.errors import InvalidParameters, VertexParseError
from dbic.strings import DBString, decode, encode, max_length

from oracles import all_strings, left_shifts, right_shifts, substring


def s(text, d):
    return DBString.parse(text, d)


class TestConstruction:
    def test_rejects_small_alphabet(self):
        with pytest.raises(InvalidParameters):
            DBString(1, (0,))

    def test_rejects_digit_out_of_range(self):
        with pytest.raises(InvalidParameters):
            DBString(2, (0, 2))

    def test_rejects_overlong_strings(self):
        assert max_length(2) == 64
        assert max_length(3) == 32
        DBString(2, (0,) * 64)
        with pytest.raises(InvalidParameters):
            DBString(2, (0,) * 65)
        with pytest.raises(InvalidParameters):
            DBString(3, (0,) * 33)

    def test_empty_segment_allowed(self):
        assert DBString(2, ()).n == 0


class TestEncode:
    def test_binary_positional_value(self):
        assert encode(s("011", 2)) == 3

    def test_zero_string(self):
        assert encode(s("000", 3)) == 0

    def test_base3_value(self):
        # 2*9 + 1*3 + 0
        assert encode(s("210", 3)) == 21

    def test_monotone_in_lexicographic_order(self):
        words = [DBString(3, (a, b)) for a in range(3) for b in range(3)]
        values = [encode(w) for w in sorted(words, key=lambda w: w.digits)]
        assert values == sorted(values)
        assert values == list(range(9))

    @pytest.mark.parametrize("d,n", [(2, 8), (3, 5), (5, 3), (11, 2)])
    def test_round_trip_exhaustive(self, d, n):
        for v in range(d ** n):
            assert encode(decode(v, d, n)) == v

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, d, data):
        n = data.draw(st.integers(1, max_length(d)))
        digits = tuple(data.draw(st.lists(st.integers(0, d - 1),
                                          min_size=n, max_size=n)))
        x = DBString(d, digits)
        assert decode(encode(x), d, n) == x


class TestShifts:
    """The shift helpers live in the string oracles, on plain strings."""

    def test_right_shifts_of_011(self):
        assert right_shifts("011", 2) == {"110", "111"}

    def test_right_shifts_loop_at_000(self):
        assert right_shifts("000", 2) == {"000", "001"}

    def test_right_shifts_ternary(self):
        assert right_shifts("01", 3) == {"10", "11", "12"}

    def test_left_shifts_of_011(self):
        assert left_shifts("011", 2) == {"001", "101"}

    def test_left_shifts_loop_at_111(self):
        assert left_shifts("111", 2) == {"011", "111"}

    def test_left_shifts_ternary(self):
        assert left_shifts("12", 3) == {"01", "11", "21"}

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
    def test_shift_duality_exhaustive(self, d, n):
        # y is a right shift of x iff x is a left shift of y
        words = all_strings(d, n)
        for x in words:
            for y in words:
                assert (y in right_shifts(x, d)) == (x in left_shifts(y, d))

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shift_counts(self, d, data):
        n = data.draw(st.integers(1, 8))
        digits = data.draw(st.lists(st.integers(0, d - 1),
                                    min_size=n, max_size=n))
        x = "".join(map(str, digits))
        assert len(right_shifts(x, d)) == d
        assert len(left_shifts(x, d)) == d


class TestSubstring:
    """The substring helper lives in the string oracles, on plain strings."""

    def test_inner_segment(self):
        assert substring("0112", 2, 3) == "11"

    def test_empty_segment(self):
        assert len(substring("0112", 2, 1)) == 0

    def test_identity(self):
        assert substring("0112", 1, 4) == "0112"

    @pytest.mark.parametrize("i,j", [(0, 2), (2, 5), (4, 2), (6, 6)])
    def test_bad_indices(self, i, j):
        with pytest.raises(IndexError):
            substring("0112", i, j)


class TestSerialization:
    def test_compact_form_small_alphabet(self):
        assert str(s("0112", 3)) == "0112"

    def test_comma_form_large_alphabet(self):
        x = DBString(12, (10, 0, 11))
        assert str(x) == "10,0,11"
        assert DBString.parse("10,0,11", 12) == x

    def test_parse_rejects_bad_digit_with_position(self):
        with pytest.raises(VertexParseError) as err:
            DBString.parse("012", 2)
        assert err.value.position == 3

    def test_parse_rejects_non_digit_with_position(self):
        with pytest.raises(VertexParseError) as err:
            DBString.parse("0x1", 2)
        assert err.value.position == 2

    def test_parse_rejects_bad_comma_entry(self):
        with pytest.raises(VertexParseError) as err:
            DBString.parse("3,12,xx", 13)
        assert err.value.position == 3

    def test_parse_rejects_out_of_range_symbol(self):
        with pytest.raises(VertexParseError) as err:
            DBString.parse("3,12", 12)
        assert err.value.position == 2

    def test_parse_rejects_empty(self):
        with pytest.raises(VertexParseError):
            DBString.parse("", 2)

    @given(st.integers(2, 15), st.data())
    @settings(max_examples=60, deadline=None)
    def test_parse_round_trip(self, d, data):
        n = data.draw(st.integers(1, 6))
        digits = tuple(data.draw(st.lists(st.integers(0, d - 1),
                                          min_size=n, max_size=n)))
        x = DBString(d, digits)
        assert DBString.parse(str(x), d) == x
