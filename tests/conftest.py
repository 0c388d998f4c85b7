import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fixtures import acceptance_fixtures, all_pairs  # noqa: E402

from padnet.decomposition import DecompositionParams  # noqa: E402
from padnet.ordered_net import (  # noqa: E402
    build_semi_tree_order,
    construct_cores_trace,
    semi_to_tree_order,
)
from padnet.trees import td_to_tree_partition  # noqa: E402
from padnet.verify import _oracle_center_distances  # noqa: E402


class BuiltPipeline:
    """Everything the checks need for one fixture, built once per session."""

    def __init__(self, fixture):
        self.fixture = fixture
        self.name = fixture.name
        self.delta = fixture.delta
        self.graph = fixture.graph
        self.td = fixture.td
        self.embedding = td_to_tree_partition(fixture.graph, fixture.td)
        self.host = self.embedding.host
        self.tp = self.embedding.tree_partition
        self.construction = construct_cores_trace(self.host, self.tp, fixture.delta)
        # the semi order: each host vertex's bag in the tree partition
        self.semi, net_set = build_semi_tree_order(self.construction.cores, self.tp)
        self.net = semi_to_tree_order(
            self.tp, self.semi, net_set, self.host, fixture.delta, alpha=3.0,
            cores=tuple(self.construction.cores),
        )
        self.params = DecompositionParams.from_net(self.net, fixture.delta)
        self._host_dist = self._center_dist = None

    @property
    def host_dist(self) -> np.ndarray:
        if self._host_dist is None:
            self._host_dist = all_pairs(self.host)
        return self._host_dist

    @property
    def center_dist(self) -> np.ndarray:
        """The net's oracle center rows, as full_report passes them to verify_net."""
        if self._center_dist is None:
            self._center_dist = _oracle_center_distances(self.host, self.net)
        return self._center_dist

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The center rows and the centers they start from, as full_report
        passes them to verify_cover."""
        return self.center_dist, self.net.centers_in_order()

    @property
    def packing_counts(self) -> np.ndarray:
        """Net centers within 3 * delta of each vertex in the oracle rows, as
        full_report passes them to verify_cover at alpha 3."""
        return (self.center_dist <= 3.0 * self.delta).sum(axis=0)


_CACHE: dict[tuple, BuiltPipeline] = {}


def built(fixture) -> BuiltPipeline:
    # fixture names leave out seeds and deltas, so the key is the instance itself
    g, td = fixture.graph, fixture.td
    key = (fixture.name, fixture.delta, g.n, g.edges, td.bags, td.parent)
    if key not in _CACHE:
        _CACHE[key] = BuiltPipeline(fixture)
    return _CACHE[key]


@pytest.fixture(scope="session")
def registry():
    return acceptance_fixtures()


@pytest.fixture(scope="session")
def pipelines(registry):
    return [built(f) for f in registry]
