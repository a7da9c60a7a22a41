"""The import graph: a campaign process loads only what it runs.

Importing the sweep path (``avipack.sweep``, ``.results``,
``.retention``) or the service client must not execute the paper-figure
builders, the two-phase models, the design advisor, the qualification
campaign, the SEB model, the asyncio server or static analysis.  Each
check imports in a fresh interpreter, because this test session has
long since loaded every module.

The packages whose ``__init__`` re-exports lazily (PEP 562) must still
behave like the eager ones they replaced: every ``__all__`` name
resolves to its defining module's object, ``dir()`` lists it, ``from
pkg import *`` binds it, and an unknown name raises AttributeError.

Every module has a user outside the tests: a static scan of the imports
in ``src/``, ``examples/`` and ``benchmarks/`` reaches each one.
"""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys

import pytest

import avipack

SRC = os.path.dirname(os.path.dirname(avipack.__file__))
ROOT = os.path.dirname(SRC)

#: Modules the sweep path must not load.
SWEEP_FORBIDDEN = (
    "avipack.experiments",
    "avipack.analysis",
    "avipack.twophase",
    "avipack.core.advisor",
    "avipack.core.qualification",
    "avipack.packaging.seb",
    "avipack.service.server",
    "asyncio",
)

#: Packages whose re-exports resolve on first access.
LAZY_PACKAGES = (
    "avipack", "avipack.core", "avipack.environments", "avipack.materials",
    "avipack.mechanical", "avipack.packaging", "avipack.reliability",
    "avipack.service", "avipack.thermal", "avipack.tim",
    "avipack.twophase",
)


def loaded_after(statement):
    """Names in ``sys.modules`` after ``statement`` in a fresh process."""
    probe = (f"{statement}\nimport json, sys\n"
             "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    return set(json.loads(out.stdout))


def forbidden_loaded(modules, forbidden):
    return sorted(name for name in modules for root in forbidden
                  if name == root or name.startswith(root + "."))


def test_sweep_path_loads_only_what_a_campaign_runs():
    modules = loaded_after(
        "import avipack.sweep, avipack.results, avipack.retention")
    assert "avipack.sweep.runner" in modules
    assert forbidden_loaded(modules, SWEEP_FORBIDDEN) == []


def test_service_client_loads_no_asyncio():
    modules = loaded_after("import avipack.service.client")
    assert "avipack.service.client" in modules
    assert forbidden_loaded(modules, ("asyncio", "avipack.service.server")) \
        == []


def test_bare_package_import_loads_no_subpackage():
    modules = loaded_after("import avipack")
    assert sorted(name for name in modules
                  if name.startswith("avipack.")) \
        == ["avipack._exports", "avipack.errors"]


def test_repro_shim_loads_no_more_than_avipack():
    assert loaded_after("import repro") - loaded_after("import avipack") \
        == {"repro"}


def test_repro_shim_hands_out_avipacks_objects():
    import repro

    for name in avipack.__all__:
        assert getattr(repro, name) is getattr(avipack, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        owners = {name: owner for owner, names in module._EXPORTS.items()
                  for name in names}
        assert set(owners) <= set(module.__all__)
        for name in module.__all__:
            if name in owners:
                defining = importlib.import_module(owners[name], package)
                assert getattr(module, name) is getattr(defining, name), \
                    name
            else:  # an eager import or a subpackage
                assert hasattr(module, name), name

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import_binds_every_export(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


def test_reexport_is_read_anew_on_every_access(monkeypatch):
    """A rebinding in the defining module shows through the package
    and is gone with it: nothing is cached in the package."""
    from avipack import core
    from avipack.core import levels

    original = levels.run_level1

    def stand_in(*args, **kwargs):
        return original(*args, **kwargs)

    assert core.run_level1 is original
    monkeypatch.setattr(levels, "run_level1", stand_in)
    assert core.run_level1 is stand_in
    monkeypatch.undo()
    assert core.run_level1 is original
    assert "run_level1" not in vars(core)


def _module_files():
    """Dotted name -> (path, is_package) of every module under ``src``."""
    modules = {}
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
        package = parts[-1] == "__init__"
        if package:
            parts = parts[:-1]
        modules[".".join(parts)] = (path, package)
    return modules


def _tree(path):
    with open(path, encoding="utf-8") as stream:
        return ast.parse(stream.read(), path)


def _absolute(name, level, module, package):
    """The dotted target of ``from <level dots><name> import ...``."""
    if not level:
        return name
    parts = module.split(".") if package else module.split(".")[:-1]
    base = parts[:len(parts) - (level - 1)]
    return ".".join(base + ([name] if name else []))


def _reexports(path, package, modules):
    """Name -> defining module of what a package ``__init__`` re-exports:
    its ``_EXPORTS`` map and its eager ``from .x import name`` lines."""
    owners = {}
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_EXPORTS"
                for target in node.targets):
            for owner, names in ast.literal_eval(node.value).items():
                owners.update((name, package + owner) for name in names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            owner = _absolute(node.module, node.level, package, True)
            owners.update((alias.name, owner) for alias in node.names
                          if f"{owner}.{alias.name}" not in modules)
    return owners


def _imported(path, module, package, modules, reexports):
    """Modules an ``import`` in ``path`` binds, re-exports resolved.

    A star import counts only its package, not every name it re-exports.
    """
    used = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = _absolute(node.module, node.level, module, package)
            used.add(target)
            for alias in node.names:
                if f"{target}.{alias.name}" in modules:
                    used.add(f"{target}.{alias.name}")
                elif alias.name in reexports.get(target, {}):
                    used.add(reexports[target][alias.name])
    return used


def _is_timing_suite(path):
    """A benchmark that only times its modules is not a user of them."""
    name = os.path.basename(path)
    return name.startswith("bench_") or name.endswith("_performance.py")


def test_every_module_has_a_user_outside_the_tests():
    """No ``src/avipack`` module is reached only by its own tests and its
    package's ``_EXPORTS`` map.  A module that fails here is dead code:
    delete it with its tests, exports and DESIGN.md row, or give it a
    user (an example, a paper-figure benchmark, a CLI command).

    An import counts as a use even when the importing code is itself
    never run, so a chain of dead modules passes (a module imported only
    by an uncalled function of another).  A green guard does not mean no
    dead module is left.  Such chains were found by a call probe that
    recorded the calls every user path makes; it was retired once the
    last round of ROADMAP item 9 had deleted what it found, and its
    final residue is recorded under that item."""
    modules = _module_files()
    reexports = {name: _reexports(path, name, modules)
                 for name, (path, package) in modules.items() if package}
    used = set()
    for name, (path, package) in modules.items():
        # A package's eager imports count (they run with the package);
        # its _EXPORTS entries count only when a user names them.
        used |= _imported(path, name, package, modules, reexports) - {name}
    for directory in ("examples", "benchmarks"):
        for path in glob.glob(os.path.join(ROOT, directory, "*.py")):
            if not _is_timing_suite(path):
                used |= _imported(path, "", False, modules, reexports)
    candidates = {name for name, (path, package) in modules.items()
                  if name.startswith("avipack.") and not package
                  and not name.endswith(".__main__")}
    assert sorted(candidates - used) == []
