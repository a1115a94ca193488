"""The package's four records, all named tuples: field names, order and
defaults, the checks and coercions made on construction (and again by
`_replace`), immutability, and equal values hashing equal (PrecisionContext
and Integrand are `lru_cache` keys)."""

from fractions import Fraction

import pytest
from mpmath import mpf

from gompertz import (ApproximantRow, DigammaSeriesPoint, Integrand,
                      PrecisionContext, quad_semi_infinite)

#: record -> (its fields in order, values for the fields without a default,
#: the defaults of the others)
RECORDS = {
    PrecisionContext: (("decimal_digits", "guard_digits"), (30,),
                       {"guard_digits": 15}),
    Integrand: (("power", "log_scale", "denom_power", "denom_scale"),
                (Fraction(1, 2),),
                {"log_scale": None, "denom_power": 0,
                 "denom_scale": Fraction(1)}),
    ApproximantRow: (("m", "r", "corollary", "a", "b", "ratio", "abs_error",
                      "target_sign"),
                     (2, 0, 1, -4, 7, mpf(4) / 7, mpf("0.025"), "+"), {}),
    DigammaSeriesPoint: (("u", "m", "convention", "rhs", "psi", "residual"),
                         (Fraction(1), 3, "B1_plus_half", mpf("-0.5"),
                          mpf("-0.57"), mpf("0.07")), {}),
}
IDS = [record.__name__ for record in RECORDS]


def sample(record):
    _, values, _ = RECORDS[record]
    return record(*values)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_order_and_defaults(record):
    names, values, defaults = RECORDS[record]
    assert record._fields == names
    value = record(*values)
    expected = dict(zip(names, values), **defaults)
    assert {name: getattr(value, name) for name in names} == expected
    assert record(**dict(zip(names, values))) == value


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record):
    value = sample(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_values_equal(record):
    assert sample(record) == sample(record)
    assert sample(record) is not sample(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_values_hash_equal(record):
    assert hash(sample(record)) == hash(sample(record))


def test_cache_keys_spelled_differently_hit():
    quad_semi_infinite.cache_clear()
    quad_semi_infinite(Integrand(Fraction(0), denom_power=1),
                       PrecisionContext(12))
    quad_semi_infinite(Integrand(0, None, 1, 1), PrecisionContext(12, 15))
    assert quad_semi_infinite.cache_info().hits == 1
    assert quad_semi_infinite.cache_info().misses == 1


class TestPrecisionContext:
    def test_checks(self):
        with pytest.raises(ValueError,
                           match="^decimal_digits must be positive$"):
            PrecisionContext(0)
        with pytest.raises(ValueError,
                           match="^guard_digits must be at least 5$"):
            PrecisionContext(30, 4)

    def test_replace_checks(self):
        assert PrecisionContext(30)._replace(guard_digits=20) == \
            PrecisionContext(30, 20)
        with pytest.raises(ValueError, match="guard_digits"):
            PrecisionContext(30)._replace(guard_digits=4)


class TestIntegrand:
    def test_checks(self):
        for kwargs, message in (
                ({"log_scale": -1}, "log_scale must be nonnegative"),
                ({"denom_power": -1}, "denom_power must be nonnegative"),
                ({"log_scale": 1, "denom_power": 1},
                 "at most one of log/denominator factors"),
                ({"denom_power": 1, "denom_scale": 0},
                 "denom_scale must be positive")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Integrand(Fraction(0), **kwargs)

    def test_rationals_coerced(self):
        value = Integrand(1, log_scale="1/3", denom_scale=2)
        assert [type(v) for v in (value.power, value.log_scale,
                                  value.denom_scale)] == [Fraction] * 3
        assert value.log_scale == Fraction(1, 3)
        assert Integrand(0).log_scale is None

    def test_replace_checks_and_coerces(self):
        value = Integrand(0)._replace(log_scale=2)
        assert value == Integrand(0, log_scale=2)
        assert type(value.log_scale) is Fraction
        with pytest.raises(ValueError, match="log_scale"):
            Integrand(0)._replace(log_scale=-1)

