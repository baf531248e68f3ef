"""Shared test settings."""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    # every property test runs a fixed example sequence, the same on every
    # run and host, with no example store and no time limit per example
    settings.register_profile("qsmooth", derandomize=True, database=None, deadline=None)
    settings.load_profile("qsmooth")
