"""What each module imports and defines: no name imported and never used,
no module-level function or class that nothing else names, no search stack
behind the commands that answer from a tune document, no `dataclasses`
behind any command, no reasoning behind a plain-mode run without a schema,
and a package root whose public names resolve on first use."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rdftuner
from conftest import GALLERY_SCHEMA, PAINTER_TRIPLES, painter_query
from rdftuner import reasoning
from rdftuner.cli import main
from rdftuner.queries import format_query

PACKAGE_DIR = Path(rdftuner.__file__).resolve().parent
REPO_DIR = PACKAGE_DIR.parent.parent
SEARCH_STACK = [f"rdftuner.{m}" for m in ("search", "cost", "states", "stats", "workload")]


# ---------------------------------------------------------------------------
# unused imports


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that nothing in the importing scope (the
    enclosing function, or the whole module) loads.  Names listed in a
    literal `__all__` count as used."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}

    def loaded(scope: ast.AST) -> set[str]:
        return {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}

    unused = []

    def visit(scope: ast.AST, names: set[str]) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node, loaded(node))
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names and bound not in exported:
                        unused.append(f"line {node.lineno}: {bound}")
            visit(node, names)

    visit(tree, loaded(tree))
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("from a import b, c\nc()\n", ["line 1: b"]),
    ("import a.b\na.b.f()\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return 1\n", ["line 2: b"]),
    ("from a import b\ndef f():\n    return b\n", []),
    ("def f():\n    from a import b\n\ndef g():\n    return b\n", ["line 2: b"]),
    ("from a import T\ndef g(x: T) -> None:\n    pass\n", []),
])
def test_unused_import_scan(source, unused):
    assert unused_imports(ast.parse(source)) == unused


# ---------------------------------------------------------------------------
# unused definitions


def unnamed_definitions(path: Path, sources: dict[Path, list[str]]) -> list[str]:
    """The module-level functions and classes of `path` that no line of
    `sources` outside their own definition names, leaving out the public
    names of the package and module hooks such as `__getattr__`."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name in rdftuner.__all__ or (name.startswith("__") and name.endswith("__")):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for source, lines in sources.items()
                   for n, line in enumerate(lines, 1)
                   if not (source == path and node.lineno <= n <= node.end_lineno)):
            out.append(f"line {node.lineno}: {name}")
    return out


@pytest.fixture(scope="module")
def program_sources() -> dict[Path, list[str]]:
    return {p: p.read_text(encoding="utf-8").splitlines()
            for d in ("src", "perfbench", "scripts") for p in sorted((REPO_DIR / d).rglob("*.py"))}


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_defines_nothing_unused(path, program_sources):
    """Every definition is named by the program, its benchmark or its
    scripts, or is public: a helper only its own test uses goes."""
    assert unnamed_definitions(path, program_sources) == []


def test_unnamed_definition_scan(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def used():\n    return 1\n\n\ndef lonely():\n    return lonely()\n\n\n"
                      "class Kept:\n    pass\n\n\ndef __getattr__(name):\n    return used()\n")
    other = tmp_path / "o.py"
    other.write_text("x = Kept()\n")
    sources = {p: p.read_text().splitlines() for p in (module, other)}
    assert unnamed_definitions(module, sources) == ["line 5: lonely"]


# ---------------------------------------------------------------------------
# reported caches


def lru_cached_functions(tree: ast.Module) -> list[str]:
    """The functions of a module that `functools.lru_cache` or
    `functools.cache` decorates, by either name."""

    def is_cache(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        return name in ("lru_cache", "cache")

    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(is_cache, node.decorator_list))]


def test_key_cache_info_reports_every_lru_cache():
    """The tune document's `caches.process` comes from
    `queries.key_cache_info`, which must name every cache of the package."""
    tree = ast.parse((PACKAGE_DIR / "queries.py").read_text(encoding="utf-8"))
    info = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "key_cache_info")
    reported = {n.id for n in ast.walk(info) if isinstance(n, ast.Name)}
    cached = [(path.name, name) for path in sorted(PACKAGE_DIR.glob("*.py"))
              for name in lru_cached_functions(ast.parse(path.read_text(encoding="utf-8")))]
    assert cached
    assert [(path, name) for path, name in cached
            if path != "queries.py" or name not in reported] == []


def test_lru_cached_function_scan():
    source = ("import functools\nfrom functools import lru_cache\n\n"
              "@lru_cache(maxsize=2)\ndef a(x):\n    return x\n\n"
              "@functools.lru_cache\ndef b(x):\n    return x\n\n"
              "@functools.cache\ndef c(x):\n    return x\n\n"
              "@staticmethod\ndef d(x):\n    return x\n")
    assert lru_cached_functions(ast.parse(source)) == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# the layers each command loads


@pytest.fixture
def painter_plans(tmp_path):
    """The painter files and a tune document for them in plain mode, without
    a schema, and in post mode."""
    triples = tmp_path / "triples.txt"
    queries = tmp_path / "queries.txt"
    schema = tmp_path / "schema.txt"
    triples.write_text(PAINTER_TRIPLES)
    queries.write_text(format_query(painter_query()))
    schema.write_text(GALLERY_SCHEMA)
    plans = {}
    for mode in ("plain", "post"):
        plans[mode] = tmp_path / f"{mode}.json"
        assert main(["tune", "--triples", str(triples), "--queries", str(queries),
                     "--mode", mode, "--strategy", "gstr", "--out", str(plans[mode])]
                    + (["--schema", str(schema)] if mode == "post" else [])) == 0
    return tmp_path, plans


# each probe runs in a fresh interpreter and leaves `result` for the report
CLI_PROBE = "from rdftuner.cli import main\nresult = main({argv!r})\n"
REFORMULATE_PROBE = """\
from pathlib import Path
from rdftuner import reasoning
from rdftuner.queries import parse_queries
schema = reasoning.parse_schema(Path({schema!r}).read_text())
result = [len(reasoning.reformulate(q, schema).members)
          for q in parse_queries(Path({queries!r}).read_text())]
"""
REPORT = """
import json, sys
print(json.dumps({"result": result,
                  "loaded": sorted(m for m in sys.modules if m.startswith("rdftuner")),
                  "stdlib": sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)}))
"""


def run_probe(code: str, out_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run([sys.executable, "-c", code + REPORT], cwd=out_dir, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_probe(argv: list[str]) -> str:
    return CLI_PROBE.format(argv=argv)


@pytest.mark.parametrize("mode", ["plain", "post"])
@pytest.mark.parametrize("command", ["answer", "materialize"])
def test_answering_from_a_plan_loads_no_search_stack(painter_plans, command, mode):
    tmp_path, plans = painter_plans
    report = run_probe(cli_probe(answering_argv(tmp_path, command, plans[mode])), tmp_path)
    assert report["result"] == 0
    assert (tmp_path / f"{command}-{mode}").exists()
    assert not set(SEARCH_STACK) & set(report["loaded"])
    assert report["stdlib"] == []


def test_saturate_and_reformulate_load_no_search_stack(painter_plans):
    tmp_path, _ = painter_plans
    out = tmp_path / "saturated.txt"
    saturate = run_probe(cli_probe(["saturate", "--triples", str(tmp_path / "triples.txt"),
                                    "--schema", str(tmp_path / "schema.txt"),
                                    "--out", str(out)]), tmp_path)
    assert saturate["result"] == 0 and out.read_text()
    reformulate = run_probe(REFORMULATE_PROBE.format(schema=str(tmp_path / "schema.txt"),
                                                     queries=str(tmp_path / "queries.txt")),
                            tmp_path)
    schema = reasoning.parse_schema(GALLERY_SCHEMA)
    assert reformulate["result"] == [len(reasoning.reformulate(painter_query(), schema).members)]
    for report in (saturate, reformulate):
        assert not set(SEARCH_STACK) & set(report["loaded"])
        assert report["stdlib"] == []


def search_stack_argv(tmp_path: Path, command: str) -> list[str]:
    if command == "gen-workload":
        return [command, "--store-size", "200", "--out", str(tmp_path / "generated.txt")]
    return [command, "--triples", str(tmp_path / "triples.txt"),
            "--queries", str(tmp_path / "queries.txt"),
            "--out", str(tmp_path / f"{command}.out")]


def test_tune_loads_the_search_stack(painter_plans):
    tmp_path, _ = painter_plans
    report = run_probe(cli_probe(search_stack_argv(tmp_path, "tune")), tmp_path)
    assert report["result"] == 0
    assert set(SEARCH_STACK) - {"rdftuner.workload"} <= set(report["loaded"])
    assert report["stdlib"] == []


@pytest.mark.parametrize("command", ["stats", "gen-workload"])
def test_stats_and_generation_load_no_dataclasses_nor_reasoning(painter_plans, command):
    tmp_path, _ = painter_plans
    report = run_probe(cli_probe(search_stack_argv(tmp_path, command)), tmp_path)
    assert report["result"] == 0
    assert report["stdlib"] == []
    assert "rdftuner.reasoning" not in report["loaded"]


def answering_argv(tmp_path: Path, command: str, plan: Path) -> list[str]:
    out = tmp_path / f"{command}-{plan.stem}"
    argv = [command, "--plan", str(plan), "--triples", str(tmp_path / "triples.txt")]
    return argv + (["--query", "q1", "--out", str(out)] if command == "answer"
                   else ["--out-dir", str(out)])


@pytest.mark.parametrize("mode", ["plain", "post"])
@pytest.mark.parametrize("command", ["tune", "answer", "materialize"])
def test_reasoning_loads_only_with_a_schema(painter_plans, command, mode):
    """A plain-mode run without a schema never loads reasoning; a post-mode
    run, which reads the schema, does."""
    tmp_path, plans = painter_plans
    if command == "tune":
        argv = search_stack_argv(tmp_path, command) + ["--mode", mode]
        if mode == "post":
            argv += ["--schema", str(tmp_path / "schema.txt")]
    else:
        argv = answering_argv(tmp_path, command, plans[mode])
    report = run_probe(cli_probe(argv), tmp_path)
    assert report["result"] == 0
    assert ("rdftuner.reasoning" in report["loaded"]) == (mode == "post")


def test_importing_the_package_loads_no_module(tmp_path):
    report = run_probe("import rdftuner\nresult = rdftuner.__version__\n", tmp_path)
    assert report == {"result": rdftuner.__version__, "loaded": ["rdftuner"], "stdlib": []}


# ---------------------------------------------------------------------------
# the package root


@pytest.mark.parametrize("name", [n for n in rdftuner.__all__ if n != "__version__"])
def test_public_name_is_its_submodules_object(name):
    obj = getattr(rdftuner, name)
    assert obj.__module__.startswith("rdftuner.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_gives_every_public_name():
    namespace: dict = {}
    exec("from rdftuner import *", namespace)
    for name in rdftuner.__all__:
        assert namespace[name] is getattr(rdftuner, name)
    assert set(rdftuner.__all__) <= set(dir(rdftuner))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rdftuner.no_such_name
