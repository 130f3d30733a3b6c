"""Public surface of the package."""

import cfgexec


def test_every_exported_name_resolves_once():
    names = cfgexec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cfgexec, name)]
    assert missing == []
