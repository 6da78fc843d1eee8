import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

import rimealg.verify

settings.register_profile(
    "exact",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3)))
        if value or not nonzero:
            return value


def random_distinct(rng: random.Random, count: int, nonzero: bool) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    while len(out) < count:
        value = random_rational(rng, nonzero)
        if value not in out:
            out.append(value)
    return tuple(out)


@pytest.fixture
def rng():
    return random.Random("fixture-seed")


@pytest.fixture(autouse=True)
def cold_report_memo():
    # run_suite keeps the reports of each classical operator across calls;
    # every test starts without them, so no test sees what an earlier one ran
    rimealg.verify._companion_reports.cache_clear()
