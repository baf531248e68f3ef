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


def stream_state(stream):
    """Where an ``RngStream`` stands, to the bit: the unread tail of its
    buffer, its read position, its cached normal and its generator's state."""
    return (stream._buf[stream._pos :].tobytes(), stream._pos, stream.spare_normal,
            repr(stream._bitgen.state))
