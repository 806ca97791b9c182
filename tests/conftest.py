"""Suite-wide settings: the hypothesis profile of the property tests."""

import warnings

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized so that the suite sees the same examples on every run
    settings.register_profile("suite", deadline=None, derandomize=True,
                              database=None)
    settings.load_profile("suite")
    # hypothesis imports this module (and libcst) when it reports a failing
    # example; libcst's import raises a DeprecationWarning, which the
    # suite's ``filterwarnings = error`` would turn into an INTERNALERROR
    # that stops the run.  Import it here once, with that warning ignored.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # without libcst hypothesis skips the patch
            pass
