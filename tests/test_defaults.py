"""Every defaulted parameter of the package is set by some call.

A default that no call in ``src/``, ``demos/``, ``perfbench/`` or ``tests/``
overrides is a constant dressed up as an option: it belongs in the function
body as a literal or a module constant.  Calls are matched by the name of
the callee (``f(...)`` or ``obj.f(...)``; a class name stands for its
``__init__``).  A call sets a parameter by keyword, or positionally when it
passes enough arguments to reach it, ``self`` or ``cls`` counted for
methods.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isozonoid"
CALLERS = ("src", "demos", "perfbench", "tests")
MAX_DEFAULTS = 33

# (function, parameter) set by no call that names the function, and why
UNSET_ALLOWED = {
    ("banach_mazur", "seed"): "cli._cmd_distance passes it through fn",
    ("volume_distance", "seed"): "cli._cmd_distance passes it through fn",
}


def _defaults(tree):
    """(callee name, parameter, positional index or None) per defaulted
    parameter; the index counts ``self`` or ``cls`` for methods."""
    owner = {id(f): c.name for c in ast.walk(tree)
             if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if name == "__init__" and id(node) in owner:
            name = owner[id(node)]
        args = node.args
        pos = args.posonlyargs + args.args
        for i in range(len(pos) - len(args.defaults), len(pos)):
            yield name, pos[i].arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _method_offset(tree):
    """Callee name -> 1 for methods (``self`` or ``cls`` is passed by the
    attribute call), 0 for static methods."""
    out = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for f in cls.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    name = cls.name if f.name == "__init__" else f.name
                    out[name] = 0 if static else 1
    return out


def _calls(trees):
    """Callee name -> [(positional count, keyword names)] over every call."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            npos = sum(not isinstance(a, ast.Starred) for a in node.args)
            out.setdefault(name, []).append(
                (npos, {k.arg for k in node.keywords}))
    return out


def _unset(defining, calling):
    """(function, parameter) pairs of the trees ``defining`` that no call of
    the trees ``calling`` sets."""
    calls = _calls(calling)
    unset = set()
    for tree in defining:
        offset = _method_offset(tree)
        for name, param, index in _defaults(tree):
            if not any(param in keywords or (index is not None
                                             and npos + offset.get(name, 0)
                                             > index)
                       for npos, keywords in calls.get(name, [])):
                unset.add((name, param))
    return unset


def _package_trees():
    return [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]


def _caller_trees():
    return [ast.parse(p.read_text()) for d in CALLERS
            for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_default_is_set_by_some_call():
    unset = _unset(_package_trees(), _caller_trees())
    assert unset == set(UNSET_ALLOWED)


def test_package_default_count():
    count = sum(1 for tree in _package_trees() for _ in _defaults(tree))
    assert count <= MAX_DEFAULTS


def test_unset_defaults_are_found():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "class K:\n"
        "    def __init__(self, w=None): pass\n"
        "    def m(self, x, y=0): pass\n"
        "    def n(self, x, y=0): pass\n"
        "    @staticmethod\n"
        "    def s(x, y=0): pass\n"
        "f(1, 2, e=5)\n"
        "f(*[1, 2, 3])\n"
        "K().m(1)\n"
        "K().n(1, 2)\n"
        "K.s(1)\n")
    assert _unset([tree], [tree]) == {("f", "c"), ("f", "d"), ("K", "w"),
                                      ("m", "y"), ("s", "y")}
    assert _unset([tree], [ast.parse("K(None)\nK.s(1, 2)\n")]) >= {
        ("f", "b")}
    assert ("K", "w") not in _unset([tree], [ast.parse("K(None)\n")])
    assert ("s", "y") not in _unset([tree], [ast.parse("K.s(1, 2)\n")])
