"""Static checks over the package source, built on ``ast``, and one import check.

Every ``__all__`` entry must name something the module binds, every
module-level private name must be used somewhere besides its own
definition, every public def or class must be read somewhere in the package
or exported by it, every public method or property of a public class must be
read by the package or traced by perfbench, and every module-level import
must be read by its module or listed in its ``__all__``, so a helper, a
method or an import that a refactor leaves behind is caught.  The two
routes to a family polynomial in ``families`` -- the generating-function
streams and the GF-free oracle -- must not read each other's names, so
every identity stays a check between two routes, and the oracle, which
holds its numbers as integer pairs, builds no ``Fraction`` outside the
public ``family_numbers``.
The expression language reads nothing of ``families`` or ``mixed``, so its
evaluation of a generating-function text stays a third route.  The p-adic
folds hold their quantities as integer pairs and build no ``Fraction``
outside the public entry points, and ``padic`` reads nothing of
``families`` or ``mixed`` either.  The printers of polynomial coefficients
in ``series`` and ``cli`` read the integer numerators and build no
``Fraction``.  No module imports ``dataclasses``, and a fresh interpreter
that imports the package and its CLI loads none of the standard modules
``dataclasses`` would bring in.  No module imports ``gc``: the library
leaves its host process's collector alone, and a request frees its own
objects by reference counting.  Every memo the CLI binds at module level
is bounded, so a warm process keeps a bounded heap.  The expression
language walks an expression once to evaluate it.  A value class
(``series._Record``) that writes its own ``__init__`` does more in it than
set its fields, which the base's constructor does.  ``series`` has one
stream class, a ``list`` subclass that overrides no subscript, so every
term read is the interpreter's own list subscript, and every rule passed
to it in the package takes two positional parameters, the stream and the
index, as ``fill`` calls it.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from test_boundary import _perfbench_literal

SRC = Path(__file__).resolve().parent.parent / "src" / "mixedpoly"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _bindings(tree: ast.Module) -> dict[str, ast.stmt]:
    """Names bound by the module's top-level statements, with the statement."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                out[(alias.asname or alias.name).split(".")[0]] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def _dunder_all(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [ast.literal_eval(elt) for elt in stmt.value.elts]
    return []


def _uses(node: ast.AST) -> list[str]:
    """Every name a node reads: bare names, attributes and imported names."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.extend(alias.name for alias in sub.names)
    return out


@pytest.mark.parametrize("module", sorted(MODULES))
def test_dunder_all_entries_resolve(module):
    tree = MODULES[module]
    bound = _bindings(tree)
    missing = [name for name in _dunder_all(tree) if name not in bound]
    assert not missing, (module, missing)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_private_names_are_used(module):
    unused = []
    for name, stmt in _bindings(MODULES[module]).items():
        if not name.startswith("_") or name.startswith("__") or isinstance(
            stmt, (ast.Import, ast.ImportFrom)
        ):
            continue
        uses = [
            use
            for other, tree in MODULES.items()
            for top in tree.body
            if not (other == module and top is stmt)
            for use in _uses(top)
        ]
        if name not in uses:
            unused.append(name)
    assert not unused, (module, unused)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_public_definitions_are_read_or_exported(module):
    # A public def or class that no other top-level statement reads (imports
    # aside) and that the package does not export has no caller.
    exported = set(_dunder_all(MODULES["__init__"]))
    reads = [
        (top, set(_uses(top)))
        for tree in MODULES.values()
        for top in tree.body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
    ]
    unused = [
        name
        for name, stmt in _bindings(MODULES[module]).items()
        if not name.startswith("_")
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and name not in exported
        and not any(name in uses for top, uses in reads if top is not stmt)
    ]
    assert not unused, (module, unused)


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_public_methods_are_read_or_traced():
    # A public method or property is read as an attribute.  One that no
    # other part of the package reads, and that perfbench's tracer does not
    # wrap by name, has no caller there; test-only constructors belong to
    # the tests.  Dunders are the language's.
    traced = set(_perfbench_literal("tracing", "_TSERIES_METHODS"))
    reads = sum((_attribute_reads(tree) for tree in MODULES.values()), Counter())
    unread = [
        f"{module}.{cls.name}.{method.name}"
        for module, tree in MODULES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name not in traced
        and reads[method.name] <= _attribute_reads(method)[method.name]
    ]
    assert not unread, unread


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_are_read(module):
    tree = MODULES[module]
    exported = set(_dunder_all(tree))
    read = {
        use
        for top in tree.body
        if not isinstance(top, (ast.Import, ast.ImportFrom))
        for use in _uses(top)
    }
    unread = [
        name
        for name, stmt in _bindings(tree).items()
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and getattr(stmt, "module", None) != "__future__"
        and name not in exported
        and name not in read
    ]
    assert not unread, (module, unread)


# The generating-function side of ``families`` and the oracle side, each by
# its entry points and by the names only it may read.
GF_ROUTE = (
    "_base_stream",
    "_kernel_power",
    "_daehee_rows",
    "_cauchy_rows",
    "_changhee_rows",
    "_row_stream",
    "gf_rows",
    "family_gf",
)
GF_NAMES = GF_ROUTE + ("_BASES", "_KERNELS", "_falling_stream")
ORACLE_ROUTE = (
    "_order1_stream",
    "_numbers_stream",
    "_binomial_pairs",
    "_numbers",
    "_conv",
    "family_numbers",
    "_oracle_memo",
    "family_oracle",
)
ORACLE_NAMES = ORACLE_ROUTE + ("_monomial", "falling_factorial", "_stirling_row")


def _closure(roots) -> set[str]:
    """``roots`` and the top-level definitions of ``families`` they read, transitively."""
    bound = _bindings(MODULES["families"])
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        stmt = bound.get(name)
        if name in seen or stmt is None or isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        seen.add(name)
        todo.extend(_uses(stmt))
    return seen


def _reachable(roots) -> set[str]:
    """Names read by ``roots``, followed through the top-level bindings of ``families``."""
    bound = _bindings(MODULES["families"])
    return {use for name in _closure(roots) for use in _uses(bound[name])}


@pytest.mark.parametrize(
    "roots, forbidden",
    [(GF_ROUTE, ORACLE_NAMES), (ORACLE_ROUTE, GF_NAMES)],
    ids=["gf-reads-no-oracle", "oracle-reads-no-gf"],
)
def test_family_routes_read_disjoint_names(roots, forbidden):
    # Every name must still be bound there, or a rename would empty the check.
    bound = _bindings(MODULES["families"])
    assert not [name for name in GF_NAMES + ORACLE_NAMES if name not in bound]
    shared = sorted(_reachable(roots) & set(forbidden))
    assert not shared, shared


def test_oracle_numbers_build_no_fraction():
    # The oracle holds its numbers as integer pairs; only the public
    # ``family_numbers`` converts them, at the boundary.  The catalog reads
    # the pairs in place and builds no ``Fraction`` either.
    bound = _bindings(MODULES["families"])
    assert not [name for name in ORACLE_ROUTE if name not in bound]
    readers = sorted(
        name
        for name in _closure(ORACLE_ROUTE) - {"family_numbers"}
        if "Fraction" in _uses(bound[name])
    )
    assert not readers, readers
    assert "Fraction" not in _uses(MODULES["mixed"])


# The generating-function side's builders, which the expression language
# must not read: its output is compared with the GF rows.
GF_SIDE = (
    "_kernel_power",
    "_base_stream",
    "_daehee_rows",
    "_cauchy_rows",
    "_changhee_rows",
    "_row_stream",
    "_falling_stream",
    "_KERNELS",
)


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every dotted part of every module a tree imports, and names imported from a package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            if node.module is None:  # from . import families
                out.update(alias.name for alias in node.names)
    return out


def test_dsl_reads_nothing_of_the_gf_side():
    # Every name must still be bound there, or a rename would empty the check.
    bound = _bindings(MODULES["families"])
    assert not [name for name in GF_SIDE if name not in bound]
    tree = MODULES["dsl"]
    assert not _imported_modules(tree) & {"families", "mixed"}
    assert not sorted(set(_uses(tree)) & set(GF_SIDE))


def test_dsl_walks_an_expression_once_to_evaluate_it():
    # A module-level function that calls itself walks the syntax tree.  One
    # pass decides each node's stream and facts, and rendering is the only
    # other walk, so a second evaluation walk (a degree or valuation read
    # from the syntax beside ``_stream``) shows up here.
    walks = sorted(
        stmt.name
        for stmt in MODULES["dsl"].body
        if isinstance(stmt, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == stmt.name
            for node in ast.walk(stmt)
        )
    )
    assert walks == ["_stream", "render"]


# The p-adic fold path, which holds every quantity as an integer pair.
PADIC_FOLDS = ("_fold", "_binomial_coords", "_binomials", "_level_values", "_difference")


def test_padic_folds_build_no_fraction():
    # Only the public entry points convert their inputs and return values;
    # no private name of ``padic`` reads ``Fraction``.  ``padic`` imports
    # nothing of ``families`` or ``mixed``, so the family values the tests
    # compare its exact integrals with come from a route it does not share.
    tree = MODULES["padic"]
    bound = _bindings(tree)
    assert not [name for name in PADIC_FOLDS if name not in bound]
    readers = sorted(
        name
        for name, stmt in bound.items()
        if name.startswith("_")
        and not name.startswith("__")
        and not isinstance(stmt, (ast.Import, ast.ImportFrom))
        and "Fraction" in _uses(stmt)
    )
    assert not readers, readers
    assert not _imported_modules(tree) & {"families", "mixed"}


def test_cli_imports_no_private_name():
    # The CLI reads the package's modules through their public names only.
    private = sorted(
        f"{node.module}.{alias.name}"
        for node in ast.walk(MODULES["cli"])
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert not private, private


# The printers of polynomial coefficients, by module: dotted names reach
# methods.  ``coeffs``, ``coeff`` and ``_rat`` are ``XPoly``'s own
# ``Fraction`` builders, so reading one builds a ``Fraction`` too.
PRINTERS = {
    "series": ("XPoly._render", "XPoly.__str__", "XPoly.latex", "XPoly.coeff_text", "_rat_text"),
    "cli": ("_coeff_rows", "_json"),
}
FRACTION_BUILDERS = {"Fraction", "coeffs", "coeff", "_rat"}


def _definition(tree: ast.Module, dotted: str) -> ast.AST | None:
    """The top-level definition, or class member, that ``dotted`` names."""
    node = tree
    for part in dotted.split("."):
        node = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == part
            ),
            None,
        )
        if node is None:
            return None
    return node


@pytest.mark.parametrize("module", sorted(PRINTERS))
def test_coefficient_printers_build_no_fraction(module):
    tree = MODULES[module]
    defs = {name: _definition(tree, name) for name in PRINTERS[module]}
    assert not [name for name, node in defs.items() if node is None]
    readers = sorted(
        name for name, node in defs.items() if FRACTION_BUILDERS & set(_uses(node))
    )
    assert not readers, readers


# The one ``cli`` memo without a bound: it holds the single parser, built
# once, and no argv.
UNBOUNDED_CLI_MEMOS = {"_parser"}


def test_cli_memos_are_bounded():
    # A warm process serving many requests keeps every entry a memo admits.
    from mixedpoly import cli

    sizes = {
        name: value.cache_info().maxsize
        for name, value in vars(cli).items()
        if hasattr(value, "cache_info")
    }
    assert {"_trace", "_extracted", "_parser"} <= set(sizes), sorted(sizes)
    assert {name for name, size in sizes.items() if size is None} == UNBOUNDED_CLI_MEMOS
    assert not hasattr(cli._parser(), "cache_info")  # no memo of argv


# What ``dataclasses`` loads; the value classes are ``series._Record``s, so a
# command's fresh interpreter imports none of these for the package.
IMPORT_FREE = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy", "opcode"}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_dataclasses(module):
    assert "dataclasses" not in _imported_modules(MODULES[module])


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_gc(module):
    # A request frees its own objects by reference counting; the collector
    # belongs to the host process.
    assert "gc" not in _imported_modules(MODULES[module])


def test_importing_the_package_loads_no_dataclass_machinery():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mixedpoly, mixedpoly.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"mixedpoly.cli", "mixedpoly.dsl"} <= loaded
    assert not loaded & IMPORT_FREE, sorted(loaded & IMPORT_FREE)


def _sets_a_field(stmt: ast.stmt) -> bool:
    """``stmt`` is ``_set(self, "name", value)``."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_set"


def test_records_write_an_init_only_to_do_more_than_set_fields():
    # ``series._Record``'s constructor sets the fields; only a record that
    # validates them writes its own ``__init__``, which sets them by ``_set``.
    only_sets = {
        cls.name: all(_sets_a_field(line) for line in init.body)
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for init in cls.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        if any(_sets_a_field(line) for line in init.body)
    }
    assert {"FamilySpec", "MixedSpec", "PAdicContext", "BinomialBasis"} <= set(only_sets)
    assert not [name for name, only in only_sets.items() if only]


# A subscript method in Python on a stream class would put every term read
# back through the interpreter: a ``list`` subclass overriding ``__getitem__``
# read slower than the ``dict`` subclass it replaced.
STREAM_READ_HOOKS = {"__getitem__", "__missing__", "__contains__"}


def test_streams_are_plain_lists_to_read():
    classes = {
        stmt.name: stmt for stmt in MODULES["series"].body if isinstance(stmt, ast.ClassDef)
    }

    def builtin_base(name):
        """The builtin container a class of ``series`` derives from, if any."""
        for base in classes[name].bases:
            base = getattr(base, "id", None)
            if base in ("list", "dict"):
                return base
            if base in classes and (found := builtin_base(base)):
                return found
        return None

    streams = sorted(name for name in classes if builtin_base(name) == "list")
    assert streams == ["_Stream"]
    assert not [name for name in classes if builtin_base(name) == "dict"]
    hooks = sorted(
        f"{name}.{stmt.name}"
        for name in streams
        for stmt in classes[name].body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in STREAM_READ_HOOKS
    )
    assert not hooks, hooks


def _stream_rules(tree: ast.Module) -> list[tuple[int, ast.AST]]:
    """(line, rule) for every rule passed to ``_Stream(...)`` in a module.

    The rule is the call's first argument or its ``rule=`` keyword: a
    lambda, a name bound by a ``def`` in the innermost enclosing function
    that binds it (or the module), or a subscript of a module-level dict,
    whose values are the rules.  ``None``, a stream of terms known in
    advance, has no rule.  A rule of any other form is returned as itself.
    """
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    bindings = _bindings(tree)
    out = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "_Stream":
            continue
        rule = call.args[0] if call.args else next(k.value for k in call.keywords if k.arg == "rule")
        if isinstance(rule, ast.Constant) and rule.value is None:
            continue
        rules = [rule]
        if isinstance(rule, ast.Name):
            scope = call
            while scope in parents:
                scope = parents[scope]
                if isinstance(scope, (ast.FunctionDef, ast.Module)):
                    defs = [
                        d
                        for d in ast.walk(scope)
                        if isinstance(d, ast.FunctionDef) and d.name == rule.id and d is not scope
                    ]
                    if defs:
                        rules = defs
                        break
        elif isinstance(rule, ast.Subscript) and isinstance(rule.value, ast.Name):
            bound = bindings.get(rule.value.id)
            if isinstance(bound, ast.Assign) and isinstance(bound.value, ast.Dict):
                rules = bound.value.values
        out += [(call.lineno, r) for r in rules]
    return out


def test_stream_rules_take_the_stream_and_an_index():
    # ``_Stream.fill`` calls ``rule(stream, n)`` for every rule: a rule of
    # one argument fails only when filled, possibly on a path no test reaches.
    rules = [(name, line, rule) for name, tree in MODULES.items() for line, rule in _stream_rules(tree)]
    assert {"series", "dsl", "families"} <= {name for name, _, _ in rules}

    def positional(rule):
        if not isinstance(rule, (ast.Lambda, ast.FunctionDef)) or rule.args.vararg:
            return None
        return len(rule.args.posonlyargs) + len(rule.args.args)

    bad = [f"{name}.py:{line}" for name, line, rule in rules if positional(rule) != 2]
    assert not bad, bad
