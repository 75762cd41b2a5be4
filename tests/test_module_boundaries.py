"""Source rules checked with ast: each qksat module uses only the public
names of the others, the bounds load no rank oracle, and the peel path
reduces no short axis row by row."""

import ast
from pathlib import Path

import qksat

SRC = Path(qksat.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def private_reach_ins(path: Path) -> list[str]:
    """Imports from `_modlin` outside rank_oracle, and every `_`-prefixed
    name that the module imports from, or reads off, another qksat module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                source = node.module or alias.name
                if ((source == "_modlin" and path.stem != "rank_oracle")
                        or (node.module and alias.name.startswith("_"))):
                    found.append(f"{path.stem}:{node.lineno} from .{source}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            found.append(f"{path.stem}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_modules_reach_no_private_names_of_others():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in private_reach_ins(path)]
    assert found == []


def qksat_imports(stem: str) -> set[str]:
    """The qksat modules that module `stem` imports, directly or through
    other qksat modules."""
    seen, todo = set(), [stem]
    while todo:
        tree = ast.parse((SRC / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ({node.module} if node.module else
                         {alias.name for alias in node.names} & MODULES)
                todo.extend(names - seen)
                seen |= names
    return seen


def test_bounds_load_no_rank_oracle():
    # the analytic bounds need only rng's shared guards, not the oracle
    oracle = {"rank_oracle", "_modlin"}
    assert qksat_imports("analysis").isdisjoint(oracle)
    assert oracle <= qksat_imports("cli")     # the walk does find them


# numpy walks a short axis one row at a time, so the peel path reduces its
# (m, k) edge arrays by column, through hypergraph.row_reduce and
# hypergraph.ascending_rows
ROW_WISE = {"min", "max", "any", "all", "sum", "diff"}


def row_wise_calls(source: str) -> list[str]:
    """The line and name of each ROW_WISE call along axis 1 (or -1) in the
    source, its axis given by keyword or by position: `x.min(1)`,
    `np.sum(x, 1)`, `np.diff(x, 1, 1)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        if name not in ROW_WISE:
            continue
        is_np = getattr(getattr(func, "value", None), "id", None) == "np"
        where = (2 if name == "diff" else 1) if is_np else 0
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        axes += node.args[where:where + 1]
        if any(literal(axis) in (1, -1) for axis in axes):
            found.append(f"{node.lineno} {name}")
    return found


def literal(node: ast.AST):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_peel_path_reduces_by_column():
    assert {stem: row_wise_calls((SRC / f"{stem}.py").read_text(encoding="utf-8"))
            for stem in ("peeling", "hypergraph")} == {"peeling": [],
                                                        "hypergraph": []}


def test_row_wise_check_sees_each_form():
    forbidden = ["at_vertex.min(axis=1)", "used[rows].any(1)", "x.all(axis=-1)",
                 "np.sum(x, 1)", "np.diff(x, axis=1)", "np.diff(x, 1, 1)",
                 "(a != b).max(axis=1)"]
    assert len(row_wise_calls("\n".join(forbidden))) == len(forbidden)
    # a diff of the 1-D offsets, as Hypergraph takes, names no axis
    allowed = ["np.diff(offsets)", "x.min()", "(a == b).all()",
               "np.sort(x, axis=1)", "x.sum(axis=0)", "np.min(x, 0)", "x.any(k)"]
    assert row_wise_calls("\n".join(allowed)) == []
