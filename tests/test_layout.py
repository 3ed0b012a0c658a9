"""Library code only for the callers it has.

Every public module-level function or class in src/hambucket, and every
public method, classmethod or property of such a class, must be named
somewhere other than its own definition: in a src/ module other than
__init__.py (whose exports do not count as a use), or in any perfbench/
file.  A name counts when it occurs as an identifier, an attribute or an
import.  Scalar helpers that only the tests call belong in tests/oracle.py.

Every name a src/ module other than __init__.py imports must be used in
that module, unless a perfbench/ file names it, as an identifier or as a
string constant (perfbench/spans.py looks solver functions up by name).
Names a perfbench/ file binds by importing them from outside the package,
such as os or np, do not count: perfbench uses those itself.

The instance layer sits on bitvec alone: generator.py imports no other
module of the package, so neither solver nor analysis.

The library keeps rows packed: no src/ module names numpy's unpackbits.
The reference permute that unpacks bits lives in tests/oracle.py.

The solver imports permute_columns, pack_rows and align_block_zs only for
perfbench/spans.py to look them up; src/ names them nowhere outside an
import, so no src/ code calls them and no walk builds a permuted matrix.

The library runs in the calling process and is set by its arguments alone:
no src/ module names environ or getenv, or imports concurrent.futures,
multiprocessing or subprocess.

The file layer takes paths: read_instance and write_instance open the file
themselves and work on its bytes.  No src/ module imports io or names IO,
TextIO or StringIO, so no second, text-stream medium comes back.

numpy's global state is set in one place: its setters (setbufsize, seterr,
seterrcall) appear in src/ only in solver._small_ufunc_buffer, inside a
`with np.errstate()` block that restores the caller's state on exit.

The cross scan has one routine: in src/, only solver._scan_pairs and
solver._bucket_hits, the ragged pass over several buckets, name the kernel
_pair_hits, so no second one-bucket path comes back.

No src/ function rebinds a name of an enclosing one (nonlocal): state that
nested functions would share, such as the walk's counters, lives in one
object (solver._Walk) that a caller can read.

These rules, this one with the others, only tighten.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hambucket"
PERFBENCH = ROOT / "perfbench"


def _public_definitions(tree: ast.Module):
    """(name, definition node) for each public module-level function and class, and each public function of a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _names_used(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Every identifier, attribute and imported name in tree, with the node it sits in."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend((alias.name.rpartition(".")[2], node) for alias in node.names)
    return out


def _inside(node: ast.AST, definition: ast.AST) -> bool:
    return any(child is node for child in ast.walk(definition))


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    bench_uses = {name for path in sorted(PERFBENCH.glob("*.py"))
                  for name, _ in _names_used(ast.parse(path.read_text(encoding="utf-8")))}
    uses = {path: _names_used(tree) for path, tree in trees.items() if path.name != "__init__.py"}
    unused = []
    for path, tree in trees.items():
        for name, definition in _public_definitions(tree):
            if name in bench_uses:
                continue
            if any(used == name and not (other == path and _inside(node, definition))
                   for other, names in uses.items() for used, node in names):
                continue
            unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def _strings(tree: ast.Module) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unused_imports() -> list[str]:
    bench_names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and not (node.module or "").startswith("hambucket")
               for alias in node.names}
        bench_names |= ({name for name, _ in _names_used(tree)} | _strings(tree)) - own
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a string constant counts too, for annotations written as strings
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _strings(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used and alias.name.rpartition(".")[2] not in bench_names:
                    unused.append(f"{path.stem}.{bound}")
    return unused


def test_every_import_is_used_or_named_by_the_benchmark():
    assert unused_imports() == []


def test_generator_imports_from_bitvec_alone():
    tree = ast.parse((SRC / "generator.py").read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hambucket")):
            package.add((node.module or "").removeprefix("hambucket."))
        elif isinstance(node, ast.Import):
            package.update(alias.name for alias in node.names if alias.name.startswith("hambucket"))
    assert package == {"bitvec"}


def test_no_module_unpacks_bits():
    users = sorted(path.stem for path in SRC.glob("*.py")
                   if any(name == "unpackbits" for name, _ in _names_used(ast.parse(path.read_text(encoding="utf-8")))))
    assert users == []


_BENCH_LOOKUPS = ("align_block_zs", "pack_rows", "permute_columns")


def bench_lookup_uses() -> list[str]:
    """module:line of each identifier or attribute in src/ that names one of _BENCH_LOOKUPS."""
    return sorted(f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py")
                  for name, node in _names_used(ast.parse(path.read_text(encoding="utf-8")))
                  if name in _BENCH_LOOKUPS and not isinstance(node, (ast.Import, ast.ImportFrom)))


def test_no_code_calls_the_names_kept_for_the_benchmark():
    assert bench_lookup_uses() == []


_PROCESS_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def _imported_modules(tree: ast.Module):
    """Each module tree imports, and module.name for each name it imports from one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_reads_the_environment_or_starts_processes():
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if (any(name in ("environ", "getenv") for name, _ in _names_used(tree))
                or any(module == banned or module.startswith(banned + ".")
                       for module in _imported_modules(tree) for banned in _PROCESS_MODULES)):
            users.append(path.stem)
    assert users == []


_STREAM_NAMES = ("IO", "TextIO", "StringIO")


def test_no_module_handles_text_streams():
    users = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if (any(name in _STREAM_NAMES for name, _ in _names_used(tree))
                or any(module == "io" or module.startswith("io.") for module in _imported_modules(tree))):
            users.append(path.stem)
    assert users == []


_NUMPY_SETTERS = ("setbufsize", "seterr", "seterrcall")


def numpy_setter_uses() -> list[tuple[str, str, bool]]:
    """(module, enclosing function, inside a `with np.errstate()` block) for each use of a numpy state setter in src/."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for name, node in _names_used(tree):
            if name not in _NUMPY_SETTERS:
                continue
            function, errstate, up = None, False, node
            while up in parent:
                up = parent[up]
                if isinstance(up, ast.With):
                    errstate |= any(isinstance(item.context_expr, ast.Call)
                                    and isinstance(item.context_expr.func, ast.Attribute)
                                    and item.context_expr.func.attr == "errstate" for item in up.items)
                elif isinstance(up, ast.FunctionDef) and function is None:
                    function = up.name
            uses.append((path.stem, function, errstate))
    return uses


def test_numpy_state_is_set_only_in_the_solver_scope():
    assert numpy_setter_uses() == [("solver", "_small_ufunc_buffer", True)]


def kernel_users() -> set[tuple[str, str | None]]:
    """(module, innermost enclosing function, None at module level) for each use of _pair_hits in src/."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for name, node in _names_used(tree):
            if name != "_pair_hits":
                continue
            while node in parent and not isinstance(node, ast.FunctionDef):
                node = parent[node]
            users.add((path.stem, getattr(node, "name", None)))
    return users


def test_only_the_cross_scan_and_the_ragged_pass_call_the_pair_kernel():
    assert kernel_users() == {("solver", "_scan_pairs"), ("solver", "_bucket_hits")}


def test_no_function_shares_state_through_nonlocal():
    users = sorted(f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Nonlocal))
    assert users == []
