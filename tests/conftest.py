from hypothesis import settings

# Property tests run the numeric solver, so they draw few examples, in a
# fixed order (the same cases on every run) and with no per-example deadline.
settings.register_profile("acring", derandomize=True, deadline=None, max_examples=8, database=None)
settings.load_profile("acring")
