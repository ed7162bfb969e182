"""Every public library name is reached by a command, or says why not.

The call graph is read from the sources: it starts at the click group and
its four subcommands in ``ttprep.cli`` (plus the import-time statements of
every module) and follows each reference to a top-level function, class or
constant of a ``ttprep`` module.  Reaching a class reaches its whole body.
A name in some module's ``__all__`` that the walk does not reach must sit
in ``NOT_REACHED`` with its reason; an entry there that a command does
reach, or that no ``__all__`` lists, fails too, so the list cannot go stale.

Members are walked too: a public method, property or annotated field of a
reached class counts as reached when some reached body names it as an
attribute (``x.name``) or a keyword (``name=``).  An unreached member sits
in ``NOT_REACHED`` as ``module.Class.member``.
"""

import ast
from pathlib import Path

import ttprep

PKG = Path(ttprep.__file__).resolve().parent

# resource_model counters that acceptance criterion 7 checks against the
# printed formulas but that toffoli_mps_prep does not yet compose
_COUNTER = "cost counter checked by acceptance criterion 7, not composed yet"

NOT_REACHED = {
    "tt_core.inner_product":
        "the benchmark tracer wraps it, and its test asserts the exact list "
        "of absent targets; goes with the next benchmark change",
    "orbital_builder.OrthoBasis": "result of canonical_orthogonalize",
    "orbital_builder.canonical_orthogonalize":
        "acceptance criterion 5 checks the whitening identity",
    "orbital_builder.EmptyBasisError":
        "raised only by canonical_orthogonalize, which no command calls",
    "orbital_builder.mo_bond_bound":
        "acceptance criterion 10 checks it; no oracle check reads it yet",
    "gauss_pw.hermite_gaussian":
        "the benchmark tracer counts its calls; goes with the next "
        "benchmark change",
    "resource_model.optimal_lambda":
        "SELECT/SWAP lookup width, unit-tested, not composed yet",
    "func_encode.SignedGrid1D.point":
        "acceptance criterion 1's referee for the codeword layout",
    "func_encode.SignedGrid1D.dense_index":
        "the benchmark tracer counts its calls; goes with the next "
        "benchmark change",
    **{f"resource_model.{name}": _COUNTER for name in (
        "arb_prep_error", "qubits_arbitrary_state_prep", "qubits_select",
        "qubits_selswap", "qubits_swapnet", "qubits_zrot_mux",
        "synthesis_error", "toffoli_adder", "toffoli_arbitrary_state_prep",
        "toffoli_cswap", "toffoli_mcx", "toffoli_select", "toffoli_selswap",
        "toffoli_swapnet", "toffoli_unitary_synthesis", "toffoli_zrot_mux",
        "zrot_error")},
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PKG.glob("*.py")) if p.stem != "__init__"}


def _top_level(tree) -> dict:
    """Top-level definitions by name: functions, classes, assignments."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return out


def _exported(tree) -> list:
    node = _top_level(tree).get("__all__")
    return [] if node is None else [e.value for e in node.value.elts]


def _imports(tree, modules) -> tuple[dict, dict]:
    """Relative imports anywhere in a module.

    Returns alias -> module for ``from . import m`` and
    name -> (module, name) for ``from .m import name``.
    """
    aliases, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        for a in node.names:
            if node.module is None and a.name in modules:
                aliases[a.asname or a.name] = a.name
            elif node.module in modules:
                names[a.asname or a.name] = (node.module, a.name)
    return aliases, names


def _is_command(node) -> bool:
    for dec in getattr(node, "decorator_list", ()):
        f = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(f, ast.Attribute) and f.attr in ("command", "group"):
            return True
    return False


def _members(cls) -> list:
    """Public methods, properties and annotated fields of a class."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def unreached_members(reached) -> set:
    """``module.Class.member`` for each member of a reached class that no
    reached body, nor any import-time statement, names."""
    modules = _modules()
    defs = {m: _top_level(t) for m, t in modules.items()}
    bodies = [defs[m][n] for m, n in reached]
    bodies += [node for t in modules.values() for node in t.body
               if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    named = set()
    for body in bodies:
        for sub in ast.walk(body):
            if isinstance(sub, ast.Attribute):
                named.add(sub.attr)
            elif isinstance(sub, ast.keyword) and sub.arg:
                named.add(sub.arg)
    return {f"{m}.{n}.{member}" for m, n in reached
            if isinstance(defs[m][n], ast.ClassDef)
            for member in _members(defs[m][n]) if member not in named}


def reached_names() -> set:
    """(module, name) pairs the commands and import-time code reach."""
    modules = _modules()
    defs = {m: _top_level(t) for m, t in modules.items()}
    imports = {m: _imports(t, modules) for m, t in modules.items()}

    todo = [("cli", name) for name, node in defs["cli"].items()
            if _is_command(node)]
    # statements that run on import: everything but function/class bodies
    roots = [(m, node) for m, t in modules.items() for node in t.body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    seen = set()

    def refs(module, node):
        aliases, names = imports[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in defs[module]:
                    yield module, sub.id
                elif sub.id in names:
                    yield names[sub.id]
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id in aliases):
                yield aliases[sub.value.id], sub.attr

    for module, node in roots:
        todo.extend(refs(module, node))
    while todo:
        key = todo.pop()
        if key in seen or key[1] not in defs[key[0]]:
            continue
        seen.add(key)
        todo.extend(refs(key[0], defs[key[0]][key[1]]))
    return seen


def test_every_public_name_is_reached_or_listed():
    pairs = reached_names()
    reached = {f"{m}.{n}" for m, n in pairs}
    public = {f"{m}.{n}" for m, t in _modules().items()
              for n in _exported(t)}
    missing = (public - reached) | unreached_members(pairs)
    unreached = sorted(missing - set(NOT_REACHED))
    assert unreached == [], (
        "public names no command reaches; delete them, or list each in "
        f"NOT_REACHED with its reason: {unreached}")
    stale = sorted(set(NOT_REACHED) - missing)
    assert stale == [], f"NOT_REACHED entries to drop: {stale}"



# the names of resource_model that another module may reference: every
# figure is priced inside estimate_resources
COST_MODEL_API = {"ResourceParams", "ResourceReport", "estimate_resources"}


def test_only_estimate_resources_prices():
    """No module outside resource_model calls a cost counter of its own."""
    modules = _modules()
    stray = []
    for module, tree in modules.items():
        if module == "resource_model":
            continue
        aliases, names = _imports(tree, modules)
        refs = [n for m, n in names.values() if m == "resource_model"]
        refs += [sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute)
                 and isinstance(sub.value, ast.Name)
                 and aliases.get(sub.value.id) == "resource_model"]
        stray += [f"{module}: {n}" for n in refs if n not in COST_MODEL_API]
    assert stray == [], f"priced outside estimate_resources: {stray}"


# orbital_builder's summation and rounding rule, by name: truncate_mo
# applies the rule and every orbital records what its build discarded
# (build_error), so no other module needs the rule's constants or helpers
ROUNDING_RULE = {"EPS_SUM", "MAX_SUM_WIDTH", "rounding_cutoff"}


def test_only_orbital_builder_knows_the_rounding_rule():
    """No module outside orbital_builder names the rule's constants, nor
    imports or reaches into a private helper of orbital_builder."""
    modules = _modules()
    helpers = {n for n in _top_level(modules["orbital_builder"])
               if n.startswith("_") and not n.startswith("__")}
    stray = []
    for module, tree in modules.items():
        if module == "orbital_builder":
            continue
        aliases, names = _imports(tree, modules)
        refs = [n for m, n in names.values() if m == "orbital_builder"]
        refs += [sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute)
                 and isinstance(sub.value, ast.Name)
                 and aliases.get(sub.value.id) == "orbital_builder"]
        stray += [f"{module}: {n}" for n in refs
                  if n in ROUNDING_RULE | helpers]
        stray += [f"{module}: {sub.id}" for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and sub.id in ROUNDING_RULE]
    assert stray == [], f"rounding rule named outside orbital_builder: {stray}"
