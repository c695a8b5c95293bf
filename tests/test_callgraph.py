"""Call-graph resolution: methods, import aliases, ``functools.partial``,
context propagation — plus the meta-test that the live ``src/repro``
tree satisfies every PQ1xx concurrency invariant, fast."""

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))
try:
    from anlz import lint_paths
    from anlz.callgraph import build_project_index
    from anlz.contexts import async_roots, propagate
    from anlz.model import parse_module
finally:
    sys.path.pop(0)
SRC_TREE = REPO_ROOT / "src" / "repro"

CONCURRENCY_RULES = ["PQ101", "PQ102", "PQ105"]


def build_tree(tmp_path, files):
    """Write ``rel_path -> source`` under a fixed ``proj/`` root and index
    the tree (primary qualnames are root-dir-prefixed: ``proj.pkg.mod``)."""
    root = tmp_path / "proj"
    modules = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        modules.append(parse_module(path, root))
    return build_project_index(modules)


def edges_of(index, qualname, kind=None):
    """Callees of ``qualname``'s edges, as ``(callee, line)`` when ``kind``
    selects one edge kind."""
    edges = index.calls.get(qualname, ())
    if kind is None:
        return {edge.callee for edge in edges}
    return {(edge.callee, edge.node.lineno) for edge in edges if edge.kind == kind}


class TestResolution:
    def test_cross_module_import_alias(self, tmp_path):
        index = build_tree(
            tmp_path,
            {
                "service/app.py": (
                    "from util.io import read_config as rc\n\n\n"
                    "async def handle():\n"
                    "    return rc()\n"
                ),
                "util/io.py": "def read_config():\n    return {}\n",
            },
        )
        assert "proj.util.io.read_config" in edges_of(index, "proj.service.app.handle")

    def test_method_resolution_via_self(self, tmp_path):
        index = build_tree(
            tmp_path,
            {
                "engine/core.py": (
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                    "\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
            },
        )
        assert "proj.engine.core.Engine.step" in edges_of(
            index, "proj.engine.core.Engine.run"
        )

    def test_method_resolution_via_annotation(self, tmp_path):
        index = build_tree(
            tmp_path,
            {
                "obs/gauge.py": (
                    "class Gauge:\n"
                    "    def set(self, v):\n"
                    "        self.v = v\n"
                ),
                "obs/poll.py": (
                    "from obs.gauge import Gauge\n\n\n"
                    "def poll(g: Gauge):\n"
                    "    g.set(1)\n"
                ),
            },
        )
        assert "proj.obs.gauge.Gauge.set" in edges_of(index, "proj.obs.poll.poll")

    def test_partial_resolution_direct_and_bound(self, tmp_path):
        """``partial(work, …)`` called directly, or bound to a name and
        called later, is a call edge to ``work`` (PQ101 reachability)."""
        index = build_tree(
            tmp_path,
            {
                "service/app.py": (
                    "from functools import partial\n\n\n"
                    "def work(x, y):\n"
                    "    return x + y\n\n\n"
                    "def direct(i):\n"
                    "    return partial(work, 0)(i)\n\n\n"
                    "def bound(i):\n"
                    "    step = partial(work, 1)\n"
                    "    return step(i)\n"
                ),
            },
        )
        work = "proj.service.app.work"
        for caller in ("direct", "bound"):
            assert edges_of(index, f"proj.service.app.{caller}") == {work}
        # Call edges, not just the references to `work` passed to partial:
        # line 9 is `partial(work, 0)(i)`, line 14 the bound `step(i)`.
        assert (work, 9) in edges_of(index, "proj.service.app.direct", kind="call")
        assert (work, 14) in edges_of(index, "proj.service.app.bound", kind="call")

    def test_propagate_shortest_chain(self, tmp_path):
        index = build_tree(
            tmp_path,
            {
                "service/app.py": (
                    "from service.helpers import step_one\n\n\n"
                    "async def handle():\n"
                    "    return step_one()\n"
                ),
                "service/helpers.py": (
                    "from util.io import leaf\n\n\n"
                    "def step_one():\n"
                    "    return leaf()\n"
                ),
                "util/io.py": "def leaf():\n    return 1\n",
            },
        )
        roots = async_roots(index)
        assert [r.qualname for r in roots] == ["proj.service.app.handle"]
        reached = propagate(index, roots)
        assert "proj.util.io.leaf" in reached
        reach = reached.reach("proj.util.io.leaf")
        assert reach.describe("open()") == (
            "service/app.py::handle -> service/helpers.py::step_one"
            " -> util/io.py::leaf -> open()"
        )

    def test_ref_edges_follow_submitted_callables(self, tmp_path):
        """A function shipped as an argument is reached like a call."""
        index = build_tree(
            tmp_path,
            {
                "engine/fan.py": (
                    "def worker(x):\n"
                    "    return x\n\n\n"
                    "def drive(pool):\n"
                    "    pool.submit(worker, 1)\n"
                ),
            },
        )
        reached = propagate(
            index, [index.functions["proj.engine.fan.drive"]]
        )
        assert "proj.engine.fan.worker" in reached


class TestLiveTreeConcurrency:
    def test_src_repro_concurrency_clean_and_fast(self):
        """Acceptance: PQ101, PQ102, PQ105 pass project-wide, well under 10s."""
        start = time.monotonic()
        result = lint_paths([SRC_TREE], only=CONCURRENCY_RULES)
        elapsed = time.monotonic() - start
        assert result.findings == []
        assert result.files_checked > 50
        assert elapsed < 10.0
