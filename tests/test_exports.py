"""The package's public names: every one resolves, none twice, and no retired one."""

import cyclomod
from cyclomod import perms, wfa

# left to the tests (tests/fixtures.py, tests/oracles.py) and the demos,
# as the pipeline never calls them
RETIRED = ("PrefixBasis", "left_reduce", "right_reduce", "compose", "left_translation_action", "symmetric_group")


def test_every_exported_name_resolves_once_and_no_retired_name_is_exported():
    names = cyclomod.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(cyclomod, n)] == []
    for module in (cyclomod, perms, wfa):
        assert [n for n in RETIRED if hasattr(module, n)] == []
