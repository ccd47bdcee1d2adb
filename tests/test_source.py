"""Rules on the package source itself."""

import ast
from pathlib import Path

import primeul
from test_cli import python


def test_no_assert_in_package():
    # Invariants are enforced by explicit exceptions: ``python -O`` strips
    # every assert statement.
    offenders = []
    for path in sorted(Path(primeul.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_all_outside_init():
    # The names exported from ``__init__`` are the API contract; a module's
    # own ``__all__`` would be a second list to keep in step with it.
    offenders = []
    for path in sorted(Path(primeul.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id == "__all__"
                      and isinstance(node.ctx, ast.Store)]
    assert offenders == []


def test_only_linalg_takes_a_gcd():
    # Making an integer vector primitive is written once, in ``linalg``
    # (``primitive``, ``primitive_signed`` and the elimination step
    # ``_reduce``); every other module calls those.
    offenders = []
    for path in sorted(Path(primeul.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math"):
                names = {node.attr}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}:{name}"
                          for name in sorted(names & {"gcd", "lcm"})]
    assert offenders == []


def _imported_from(path):
    """(module, name) for each ``from primeul.module import name`` and
    ``from .module import name`` in the file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            package, _, module = node.module.rpartition(".")
            if node.level == 1 or package == "primeul":
                out.update((module, alias.name) for alias in node.names)
    return out


def test_every_public_name_is_used():
    # A public module-level function or class of the package must be
    # exported by ``__init__``, imported by another module of the package
    # or of perfbench, or read by name in its own module.  Names are matched
    # by ``ast``, so ``lattice.rank`` is no use of a function ``rank``.
    perfbench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert _unused((ast.FunctionDef, ast.ClassDef), private=False, also=perfbench) == []


def test_every_private_function_is_read():
    # A private module-level function must be read by name in its own
    # module or imported by another module of the package.  perfbench and
    # the tests do not count, so a helper left beside the path that
    # replaced it fails.
    assert _unused((ast.FunctionDef,), private=True) == []


def _unused(kinds, private, also=()):
    """Module-level definitions of the given kinds, public or private, that
    no module of the package (or of ``also``) imports and that their own
    module never reads by name."""
    sources = sorted(Path(primeul.__file__).parent.glob("*.py"))
    imported = set().union(*map(_imported_from, sources + list(also)))
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{node.name}" for node in tree.body
                   if isinstance(node, kinds) and node.name.startswith("_") == private
                   and node.name not in read and (path.stem, node.name) not in imported]
    return unused


def _attributes_read():
    """The package's source files, and the names of the attributes loaded
    anywhere in the package or in perfbench."""
    sources = sorted(Path(primeul.__file__).parent.glob("*.py"))
    perfbench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    return sources, {node.attr for path in sources + perfbench
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_method_is_read():
    # A public method or property of a class of the package must be read as
    # an attribute somewhere in the package or in perfbench; a view kept
    # for the tests alone belongs in the tests.  Names are matched by
    # ``ast``, whatever the object the attribute is read from.
    sources, read = _attributes_read()
    unread = []
    for path in sources:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                unread += [f"{path.stem}.{cls.name}.{node.name}" for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("_") and node.name not in read]
    assert unread == []


def test_every_public_attribute_is_read():
    # A public attribute that a class of the package sets on ``self`` in its
    # ``__init__`` must be read as an attribute somewhere in the package or
    # in perfbench.  Names are matched by ``ast``, whatever the object the
    # attribute is read from, so an attribute escapes when another object's
    # attribute of the same name is read.
    sources, read = _attributes_read()
    unread = []
    for path in sources:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    unread += [f"{path.stem}.{cls.name}.{node.attr}" for node in ast.walk(init)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Store)
                               and isinstance(node.value, ast.Name) and node.value.id == "self"
                               and not node.attr.startswith("_") and node.attr not in read]
    assert unread == []


def test_import_leaves_out_dataclasses():
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
    # ``tokenize``: about 12 ms of every process's start.  Module names,
    # not times, so the check is exact.
    done = python("-c", "import sys; bare = set(sys.modules)\n"
                        "import primeul, primeul.coxstats, primeul.cli\n"
                        "print(*sorted(set(sys.modules) - bare))")
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "primeul.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis"}), sorted(added)
