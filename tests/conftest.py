from hypothesis import settings

# CI selects this profile (pytest --hypothesis-profile=ci): derandomized runs
# draw the same examples every time, so a CI failure reproduces; local runs
# keep Hypothesis's random default.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
