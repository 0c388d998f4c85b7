"""The Python-object views of padnet's array outputs are for the API alone.

A sampled partition and both covers are numpy arrays.  `clusters`,
`partitions` and `trace` build frozenset or tuple views of them on first
access.  No src module reads a view outside the class that defines it, and
building an output, writing its JSON or certifying it builds none.
"""

import ast
from pathlib import Path

from conftest import built
from fixtures import acceptance_fixtures

import padnet
from padnet.covers import build_partition_cover, build_sparse_cover
from padnet.decomposition import sample_padded_decomposition, sample_padded_decompositions
from padnet.verify import verify_cover, verify_partition

VIEWS = ("clusters", "partitions", "trace")
BY_NAME = {f.name: f for f in acceptance_fixtures()}


class _ViewReads(ast.NodeVisitor):
    """(line, name) of every attribute read of a view name outside a class
    that defines a function of that name."""

    def __init__(self):
        self.defined: list[set[str]] = []
        self.reads: list[tuple[int, str]] = []

    def visit_ClassDef(self, node):
        self.defined.append({n.name for n in node.body if isinstance(n, ast.FunctionDef)})
        self.generic_visit(node)
        self.defined.pop()

    def visit_Attribute(self, node):
        if node.attr in VIEWS and not (self.defined and node.attr in self.defined[-1]):
            self.reads.append((node.lineno, node.attr))
        self.generic_visit(node)


def view_reads(source: str) -> list[tuple[int, str]]:
    finder = _ViewReads()
    finder.visit(ast.parse(source))
    return finder.reads


def test_the_guard_finds_a_view_read():
    source = (
        "class P:\n"
        "    @cached_property\n"
        "    def trace(self):\n"
        "        return self.trace\n"
        "def f(p, c):\n"
        "    return p.trace, c.clusters, c.partitions[0]\n"
    )
    assert view_reads(source) == [(6, "trace"), (6, "clusters"), (6, "partitions")]


def test_no_src_module_reads_a_view():
    src = Path(padnet.__file__).parent
    reads = {path.name: view_reads(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def built_views(obj) -> set[str]:
    return set(VIEWS) & obj.__dict__.keys()


def test_building_writing_and_certifying_build_no_view():
    b = built(BY_NAME["grid-5"])
    parts = [
        sample_padded_decomposition(b.host, b.net, b.delta, seed=4),
        *sample_padded_decompositions(b.net, range(3)),
    ]
    cover = build_sparse_cover(b.host, b.net, b.delta)
    pcover = build_partition_cover(b.host, b.net, b.delta)
    outputs = [*parts, cover, pcover]
    assert [built_views(x) for x in outputs] == [set()] * len(outputs)
    for part in parts:
        part.to_json_dict()
        assert verify_partition(b.host, part, 3.0, b.delta, b.host_dist).ok
    for c in (cover, pcover):
        c.to_json_dict()
        assert verify_cover(b.host, c, 3.0, b.delta, b.host_dist, b.packing_counts, *b.rows).ok
    assert [built_views(x) for x in outputs] == [set()] * len(outputs)
    # a view is built on its first access, once
    assert parts[0].trace is parts[0].trace and built_views(parts[0]) == {"trace"}
    assert cover.clusters is cover.clusters and built_views(cover) == {"clusters"}
    assert pcover.partitions is pcover.partitions and built_views(pcover) == {"partitions"}
