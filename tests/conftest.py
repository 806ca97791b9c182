"""Suite-wide settings: the hypothesis profile of the property tests."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized so that the suite sees the same examples on every run
    settings.register_profile("suite", deadline=None, derandomize=True,
                              database=None)
    settings.load_profile("suite")
