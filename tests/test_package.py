import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import gbmdl

REPO = Path(__file__).resolve().parent.parent


def test_all_is_exactly_the_public_names():
    assert gbmdl.__all__ == sorted(gbmdl.__all__)
    assert all(hasattr(gbmdl, name) for name in gbmdl.__all__)
    public = {name for name, value in vars(gbmdl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(gbmdl.__all__) == public


def test_package_root_is_the_readme_library_api():
    # the root promises what the README documents, so stage internals stay module-level
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    library = re.search(r"^## Library\n(.*?)^## ", readme, flags=re.DOTALL | re.MULTILINE)[1]
    documented = set(re.findall(r"`(\w+)`", library))
    assert set(gbmdl.__all__) <= documented, set(gbmdl.__all__) - documented
    imported = re.search(r"^from gbmdl import (.+)$", library, flags=re.MULTILINE)[1]
    assert {name.strip() for name in imported.split(",")} <= set(gbmdl.__all__)


def test_readme_library_examples_run(monkeypatch, capsys):
    # run from the repo root, so the examples' data/ paths resolve
    monkeypatch.chdir(REPO)
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 2
    rng = np.random.default_rng(0)
    my_matrix = np.vstack([rng.normal(0.25, 0.03, size=(40, 2)),
                           rng.normal(0.75, 0.03, size=(40, 2))])
    my_labels = np.repeat([0, 1], 40)
    for block in blocks:
        exec(compile(block, "README.md", "exec"),
             {"my_matrix": my_matrix, "my_labels": my_labels})
    out = capsys.readouterr().out
    assert '"summary"' in out
    assert 0.0 < float(out.splitlines()[-1]) <= 1.0   # the ARI of K=3 clusters on two blobs


def test_readme_code_names_resolve():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`gbmdl\.(\w+)\.(\w+)`", readme)
    assert len(names) >= 5
    for module, name in names:
        assert hasattr(importlib.import_module(f"gbmdl.{module}"), name), f"gbmdl.{module}.{name}"


def test_scoring_and_both_backends_load_no_scipy():
    # a fresh interpreter, so modules the test run itself imported do not count; Iris's
    # seeded runs are too little work for the worker pool, which costs its import time
    script = (
        "import sys, contextlib, io\n"
        "heavy = ('scipy', 'multiprocessing', 'concurrent')\n"
        "import gbmdl\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in heavy))\n"
        "from gbmdl import cli\n"
        "for extra in (['--backend', 'ac'], ['--backend', 'kmeanspp', '--runs', '20']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['--input', 'data/iris.csv', *extra]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in heavy))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_a_falsified_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # reporting a falsified @given test imports libcst, whose mypy_extensions import
    # warns; under the repo's warning filters that must not stop the session
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_falsified.py"], cwd=tmp_path, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output and "1 failed" in output, output


def test_src_imports_only_numpy_and_the_standard_library():
    # walks every statement, so an import inside a function or branch counts too
    for path in sorted((REPO / "src" / "gbmdl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "numpy" or top in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


def test_every_src_definition_is_referenced():
    # a top-level function or class that no src module and not the package root names
    # is dead, unless perfbench patches it by name as a span site
    tracing = ast.parse((REPO / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    sites = next(ast.literal_eval(node.value) for node in tracing.body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "SPAN_SITES")
    patched = {attr for _, attr, _ in sites}
    defined, referenced = {}, set()
    for path in sorted((REPO / "src" / "gbmdl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if name not in referenced and name not in patched)
    assert not dead, dead


def test_no_src_distance_is_a_row_sum():
    # squared distances go through core.squared_distances, which adds the features in
    # index order; numpy's row sum (x ** 2).sum(...) adds eight or more of them unrolled
    found = []
    for path in sorted((REPO / "src" / "gbmdl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "sum" and isinstance(node.func.value, ast.BinOp) \
                    and isinstance(node.func.value.op, ast.Pow) \
                    and getattr(node.func.value.right, "value", None) == 2:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
