"""The package's import graph: a DAG, with the path counts and the pair map
(paths.py) built on the mesh alone, and the exact engine independent of the
estimator."""

import ast
from pathlib import Path

import faultring

PACKAGE = Path(faultring.__file__).parent


def _import_graph() -> dict[str, set[str]]:
    """Each module of the package, by name, with the package modules it imports."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "faultring":
                targets = [f"faultring.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module or ""]
            else:
                continue
            parts = [target.split(".") for target in targets]
            imported |= {p[1] for p in parts if p[0] == "faultring" and len(p) > 1}
        graph[name] = imported & modules.keys()
    return graph


def test_package_imports_form_a_dag():
    graph = _import_graph()
    while graph:
        leaves = {name for name, imported in graph.items() if not imported}
        assert leaves, f"import cycle among {sorted(graph)}"
        graph = {name: imported - leaves for name, imported in graph.items() if name not in leaves}


def test_paths_imports_only_mesh_and_reliability_no_estimator():
    graph = _import_graph()
    assert graph["paths"] == {"mesh"}
    assert "montecarlo" not in graph["reliability"]
    assert {"paths", "reliability"} <= graph["montecarlo"]
