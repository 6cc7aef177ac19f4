import re
from pathlib import Path

import manoma
import manoma.channel
import manoma.noma
import manoma.oracles
import manoma.positioner


def test_reference_implementations_live_only_in_oracles():
    # A sweep runs noma, positioner and channel; the oracles only check them.
    for name in manoma.oracles.__all__:
        for module in (manoma.noma, manoma.positioner, manoma.channel):
            assert not hasattr(module, name), f"{module.__name__} defines {name}"
    exported = set(manoma.oracles.__all__) & set(manoma.__all__)
    assert exported == {"brute_force_allocation", "grid_oracle", "propagation_delta"}
    for name in exported:
        assert getattr(manoma, name) is getattr(manoma.oracles, name)
    # scipy and itertools serve only the LP oracles.
    for path in Path(manoma.__file__).parent.glob("*.py"):
        if path.name != "oracles.py":
            text = path.read_text()
            assert "scipy" not in text, path.name
            assert not re.search(r"^\s*(import|from) itertools\b", text, re.M), path.name
    # The references stand apart from the engine they check: nothing bound in
    # oracles comes from the positioner, and no line imports it.
    engine = [
        name
        for name, obj in vars(manoma.oracles).items()
        if getattr(obj, "__module__", None) == "manoma.positioner"
    ]
    assert engine == []
    text = Path(manoma.oracles.__file__).read_text()
    assert not re.search(r"^\s*(import|from) manoma\.positioner\b", text, re.M)
