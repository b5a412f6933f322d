"""Suite-wide settings: property tests draw the same examples on every run.
The "thorough" profile (``--hypothesis-profile thorough``) draws ten times as
many, for the bitwise pins that CI reruns under it."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("thorough", settings.get_profile("deterministic"),
                          max_examples=10 * settings.default.max_examples)
settings.load_profile("deterministic")
