import pytest
from hypothesis import HealthCheck, settings

# The helpers' asserts are rewritten like the tests' own, so that they still
# check under python -O, which strips plain assert statements.
pytest.register_assert_rewrite("helpers")

settings.register_profile(
    "ci", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")
