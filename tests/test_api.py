"""The package itself binds only ``__version__``, every name one module takes from another is
a public definition of that module, every public function, class and method is used outside
the tests, no module calls BLAS or LAPACK or a numpy kernel family that only one call site of
the sweep would page in, one guard checks every grid's coverage, and one function forms the
Lorentz factor."""

import ast
from pathlib import Path

import relent


def _bound_names(tree):
    """Names that imports, definitions and assignments bind anywhere in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_package_binds_only_its_version():
    # callers import each function from its module, so the package re-exports nothing
    tree = ast.parse(Path(relent.__file__).read_text(encoding="utf-8"))
    assert [n for n in _bound_names(tree) if not (n.startswith("__") and n.endswith("__"))] == []
    assert isinstance(relent.__version__, str)
    probe = ("import a.b\nfrom c import d as e\nfrom f import *\ndef g(): h = 1\nclass I: pass\n"
             "__all__ = []")
    assert list(_bound_names(ast.parse(probe))) == ["a", "e", "*", "g", "I", "__all__", "h"]


def _relent_imports(tree):
    """(module, name) of each ``from relent.<module> import <name>`` in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relent."):
            yield from ((node.module.partition(".")[2], alias.name) for alias in node.names)


def _top_level_definitions(tree):
    """Names that a module's top-level functions, classes and assignments bind, not its imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def _private_imports(trees):
    """(importer, module, name) of each import from a sibling module of ``trees`` (stem ->
    syntax tree) that names no top-level definition of it, or one with a leading underscore."""
    defined = {stem: set(_top_level_definitions(tree)) for stem, tree in trees.items()}
    return [(stem, module, name) for stem, tree in trees.items()
            for module, name in _relent_imports(tree)
            if name.startswith("_") or name not in defined.get(module, ())]


def test_cross_module_imports_are_public():
    # a name without a leading underscore is public, and no __all__ lists them: each module
    # takes from another only what that module itself defines and calls public
    paths = sorted(Path(relent.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    assert any(list(_relent_imports(tree)) for tree in trees.values())
    assert _private_imports(trees) == []
    probe = {"a": ast.parse("from relent.b import c, _d, e, f, g, G, h, k\nimport relent.b\n"
                            "from numpy import _h\nx, y = 1, 2"),
             "b": ast.parse("from relent.a import x\nfrom os import e\ndef c(): k = 1\n"
                            "def _d(): pass\nclass G: pass\nf: int = 3\nif c: g = 4\nG.h = G[k] = 5")}
    # flagged: a private name, a name the module only imports, a binding below the top level,
    # and any name of a module outside the package; a tuple, an annotated target and a class
    # are seen, and an attribute or item assignment binds nothing
    assert _private_imports(probe) == [("a", "b", name) for name in ("_d", "e", "g", "h", "k")]
    assert _private_imports({"a": ast.parse("from relent.z import y")}) == [("a", "z", "y")]


def _references(tree):
    """(line, name) of each name and each attribute in a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def _unreferenced(modules, others):
    """(module, name) of each public top-level function or class of ``modules`` (stem ->
    syntax tree), and each public method of its top-level classes, that no name or attribute
    refers to, in ``modules`` outside its own definition or in ``others`` (syntax trees)."""
    refs = {stem: list(_references(tree)) for stem, tree in modules.items()}
    elsewhere = {name for tree in others for _, name in _references(tree)}
    found = []
    for stem, tree in modules.items():
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in tree.body + [item for cls in classes for item in cls.body]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = node.name in elsewhere or any(
                name == node.name and (other != stem or not node.lineno <= line <= node.end_lineno)
                for other, lines in refs.items() for line, name in lines)
            if not used:
                found.append((stem, node.name))
    return found


def test_no_definition_only_tests_use():
    # code that only the tests use lives under tests/: every public definition of the package
    # is used by the package, the scripts or the benchmark
    root = Path(__file__).resolve().parent.parent
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(Path(relent.__file__).parent.glob("*.py"))}
    others = [ast.parse(path.read_text(encoding="utf-8"))
              for folder in ("scripts", "bench") for path in sorted((root / folder).rglob("*.py"))]
    assert len(modules) == 7 and others
    assert _unreferenced(modules, others) == []
    probe = {"a": ast.parse("def f(x):\n    return f(x - 1)\ndef g(): pass\ndef _h(): pass\n"
                            "class C:\n    def m(self): return self.k()\n    def k(self): pass\n"
                            "class _D:\n    def n(self): pass\ndef o(): pass\ny = g"),
             "b": ast.parse("from a import C, n\ndef e(): return C.k")}
    # flagged: a function used only inside itself, a method nothing names, a public method of
    # a private class (an import is no use), a function nothing names; a name outside the
    # definition, in another module or in the others, and an attribute count
    assert _unreferenced(probe, [ast.parse("w.o")]) == [("a", "f"), ("a", "m"), ("a", "n"),
                                                        ("b", "e")]


def _blas_uses(tree):
    """Line numbers of ``@``, ``dot``, ``matmul`` and ``linalg`` in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg"):
            yield node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name for name in names):
                yield node.lineno


def test_no_blas_or_lapack_calls():
    # the package's products are a few dozen elements each: np.einsum and ufunc
    # reductions do them without paging OpenBLAS or LAPACK code into a cold process
    paths = sorted(Path(relent.__file__).parent.glob("*.py"))
    assert len(paths) == 7
    for path in paths:
        assert list(_blas_uses(ast.parse(path.read_text(encoding="utf-8")))) == [], path.name
    probe = "a @ b; a @= b; np.dot(a, b); x.matmul(y); np.linalg.norm(v)"
    assert list(_blas_uses(ast.parse(probe))) == [1] * 5  # the check sees each form


#: numpy kernel families that a cold sweep pages in on first use (x86-simd-sort alone is
#: 192-256 KiB of code) and that one call site each used, where plain arithmetic serves
_SINGLE_USE_KERNELS = {"sort", "argsort", "arccos", "float32", "nonzero", "flatnonzero"}


def _single_use_kernels(tree):
    """Line numbers of the names in ``_SINGLE_USE_KERNELS``, as attributes, names, imports or
    dtype strings, in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [getattr(node, "attr", None) or getattr(node, "id", None)
                     or getattr(node, "value", None)]
        if any(isinstance(name, str) and name in _SINGLE_USE_KERNELS for name in names):
            yield node.lineno


def test_no_single_use_numpy_kernels():
    for path in sorted(Path(relent.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert list(_single_use_kernels(tree)) == [], path.name
    probe = ("np.sort(a); a.argsort(); arccos(x); x.astype(np.float32); x.astype('float32'); "
             "from numpy import nonzero; np.flatnonzero(m); sorted(v)")
    assert list(_single_use_kernels(ast.parse(probe))) == [1] * 7  # each form, not sorted()


def _coverage_guards(tree):
    """(raises, tolerances): the line numbers of ``raise GridCoverageError``, and the names
    bound as ``*_TOL`` and the literals 1e-4 (the coverage tolerance), in a module's syntax tree."""
    raises, tolerances = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "GridCoverageError":
                raises.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id.endswith("_TOL") and isinstance(
                node.ctx, ast.Store):
            tolerances.append(node.id)
        elif isinstance(node, ast.Constant) and node.value == 1e-4:
            tolerances.append("1e-4")
    return raises, sorted(tolerances)


def test_one_coverage_guard():
    # every lab-frame kernel checks its grid's norm and divides by it through
    # wavepacket.normalised, so no kernel carries a guard or a tolerance of its own
    found = {}
    for path in sorted(Path(relent.__file__).parent.glob("*.py")):
        raises, tolerances = _coverage_guards(ast.parse(path.read_text(encoding="utf-8")))
        if raises or tolerances:
            found[path.name] = (len(raises), tolerances)
    assert found == {"wavepacket.py": (1, ["1e-4", "COVERAGE_TOL"])}
    probe = "raise GridCoverageError('x')\nraise GridCoverageError\nA_TOL = 2\nif x < 1e-4: pass"
    assert _coverage_guards(ast.parse(probe)) == ([1, 2], ["1e-4", "A_TOL"])  # each form


def _lorentz_roots(tree):
    """(line, function) of each product (1 - x)(1 + x), either order, in a module's syntax tree."""
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            terms = {type(t.op): t.right for t in (node.left, node.right)
                     if isinstance(t, ast.BinOp) and getattr(t.left, "value", None) == 1}
            if terms.keys() == {ast.Add, ast.Sub} and len({ast.dump(x) for x in terms.values()}) == 1:
                owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                yield node.lineno, owner[-1] if owner else None


def test_one_lorentz_factor():
    # 1 - beta^2 as (1 - beta)(1 + beta), which keeps its digits near light speed, is
    # written once; every other gamma or 1/gamma comes from kinematics.lorentz_factor
    found = {}
    for path in sorted(Path(relent.__file__).parent.glob("*.py")):
        roots = [func for _, func in _lorentz_roots(ast.parse(path.read_text(encoding="utf-8")))]
        if roots:
            found[path.name] = roots
    assert found == {"kinematics.py": ["lorentz_factor"]}
    probe = "def f(b):\n    return (1.0 - b) * (1.0 + b)\n(1 + x[0]) * (1 - x[0])\n(1 - a) * (1 + b)"
    assert sorted(_lorentz_roots(ast.parse(probe))) == [(2, "f"), (3, None)]  # each order, not a != b
