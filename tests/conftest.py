"""Suite-wide hypothesis settings: examples come from a fixed seed and have
no deadline, so property tests are reproducible and do not flake when the
machine runs slower; no example database is written."""

from hypothesis import settings

settings.register_profile("relayec", deadline=None, derandomize=True, database=None)
settings.load_profile("relayec")
