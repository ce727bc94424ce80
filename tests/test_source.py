"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toystab"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree):
    """(name, first line, last line) of each module-level private name,
    and of each private method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if _is_private(name):
                yield name, node.lineno, node.end_lineno
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every name read, attribute or import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_private_module_name_is_used():
    # a table, helper or method left behind by a refactor shows up as a
    # private name that nothing outside its own definition reads
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, first, last in _private_definitions(tree):
            if not any(ref == name and not (other == module
                                            and first <= line <= last)
                       for other, module_refs in refs.items()
                       for ref, line in module_refs):
                unused.append(f"{module}:{first} {name}")
    assert unused == []


def _unused_imports(tree):
    """(name, line) of each name a module imports but never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield name, node.lineno


def test_every_import_is_used():
    # the package's __init__ imports names to re-export them
    unused = [f"{path.name}:{line} {name}"
              for path in SRC.glob("*.py") if path.name != "__init__.py"
              for name, line in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_engine_does_not_import_the_oracle():
    # the stabilizer-vs-oracle cross-check means something only while the
    # two share no code
    imports = []
    for name in ("algebra.py", "dynamics.py", "mbtc.py", "bvc.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = ([node.module] if node.module
                           else [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            imports += [f"{name}:{node.lineno} {m}" for m in modules
                        if "oracle" in m.split(".")]
    assert imports == []


def test_every_tracer_target_resolves():
    # bench/run.py --trace 1 wraps these names in the imported package, so
    # a rename there would break it without failing any other test
    spec = importlib.util.spec_from_file_location(
        "tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, *_ in tracer.TARGETS:
        importlib.import_module("toystab." + name.split(".")[0])
    modules = {key: mod for key, mod in sys.modules.items()
               if key.startswith("toystab.")}
    for name, path, *_ in tracer.TARGETS:
        _, _, raw = tracer._resolve(modules, name, path)
        assert callable(getattr(raw, "__func__", raw)), name
    tracer.Tracer()   # builds every wrapper, as a traced run does


# a name a docstring cites: a ``literal`` or a Sphinx role such as :func:
_CITED = re.compile(r"``([^`]+)``|:(?:func|meth|attr|class|data):`~?([^`]+)`")


def _cited_private_names(tree):
    """(dotted name, enclosing class or None, line) of each dotted name a
    docstring in ``tree`` cites with a private part, such as ``_x``,
    ``mod._x`` or ``Cls._x``."""
    def visit(node, cls):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            for match in _CITED.finditer(doc or ""):
                text = match.group(1) or match.group(2)
                if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", text) and any(
                        part.startswith("_") and not part.startswith("__")
                        for part in text.split(".")):
                    yield text, cls, getattr(node, "lineno", 1)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child.name if isinstance(
                child, ast.ClassDef) else cls)

    yield from visit(tree, None)


def _resolves(module, cls, dotted) -> bool:
    """Whether ``dotted`` names an object, looked up in the enclosing
    class, then the module, then the package's modules, up to its last
    private part."""
    head, *rest = dotted.split(".")
    scopes = ([getattr(module, cls)] if cls else []) + [module]
    for scope in scopes:
        if hasattr(scope, head):
            obj = getattr(scope, head)
            break
    else:
        if not (SRC / f"{head}.py").exists():
            return False
        obj = importlib.import_module(f"toystab.{head}")
    private = [i for i, part in enumerate(rest) if part.startswith("_")]
    for part in rest[:private[-1] + 1] if private else ():
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_docstrings_cite_only_private_names_that_exist():
    # a refactor that removes or renames a private helper leaves its
    # name behind in the docstrings that cite it
    stale, cited = [], 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"toystab.{path.stem}"
                                         if path.stem != "__init__"
                                         else "toystab")
        for dotted, cls, line in _cited_private_names(
                ast.parse(path.read_text())):
            cited += 1
            if not _resolves(module, cls, dotted):
                stale.append(f"{path.name}:{line} {dotted}")
    assert cited and stale == []
