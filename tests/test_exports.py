import pathlib
import re

import fqbarrier

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_imports():
    """Names the README quick-start block imports from ``fqbarrier``."""
    text = README.read_text()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    names = []
    for grouped, single in re.findall(r"^from fqbarrier import (?:\(([^)]*)\)|(.*))$", block, re.M):
        names += re.findall(r"\w+", grouped or single)
    return names


def test_readme_quick_start_imports_are_exported():
    names = _quick_start_imports()
    assert len(names) >= 8
    assert set(names) <= set(fqbarrier.__all__)


def test_every_export_resolves():
    for name in fqbarrier.__all__:
        assert hasattr(fqbarrier, name), name
