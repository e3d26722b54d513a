from hypothesis import settings

# one profile for every property test, locally and in CI: the same examples
# on each run, no per-example deadline on a loaded machine, and no example
# database written to .hypothesis/
settings.register_profile("ionchain", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("ionchain")
