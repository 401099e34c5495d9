"""The layers of clifbundle import one another only along the edges of one table."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clifbundle"

# module -> the clifbundle modules it imports; the two dynamics layers,
# transport and fields, share numerics and neither imports the other
IMPORTS = {
    "__init__": {"_version", "ga", "numerics", "spinor", "transport", "fields"},
    "_version": set(),
    "exact": set(),
    "ga": {"exact"},
    "report": {"_version"},
    "spinor": {"exact", "ga", "report"},
    "numerics": set(),
    "transport": {"numerics"},
    "fields": {"ga", "spinor", "numerics"},
    "cli": {"ga", "report", "spinor", "transport", "fields"},
}


def relative_imports(path: Path) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_import_graph_matches_the_table():
    graph = {path.stem: relative_imports(path) for path in PACKAGE.glob("*.py")}
    assert graph == IMPORTS
