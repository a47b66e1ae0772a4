from types import ModuleType

import tunnelslopes


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(tunnelslopes).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(tunnelslopes.__all__) == public
