"""Each qksat module uses only the public names of the others."""

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
