import types

import relayec


def test_all_matches_exports():
    # a name deleted from the package must leave __all__ too, and the reverse
    public = {name for name, v in vars(relayec).items() if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(relayec.__all__) == public
