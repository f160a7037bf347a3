import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("cli", "dimension", "oracle", "paths", "polyring", "quiver", "repbuild")


def test_readme_library_example_runs():
    """The ``## Library`` section's example runs against the public surface."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_module_references_resolve():
    """Every `` `module.name` `` the README names is an attribute of
    ``pathrep.<module>``, so a removed name cannot stay documented."""
    refs = re.findall(r"`(%s)\.(\w+)`" % "|".join(MODULES), README.read_text())
    assert len(refs) > 20
    missing = sorted({f"{m}.{name}" for m, name in refs
                      if not hasattr(importlib.import_module(f"pathrep.{m}"), name)})
    assert missing == []
