import numpy as np
import pytest

from snakeplan.generate import random_config
from snakeplan.snake import DEFAULT_NODES_PER_SEGMENT, SnakeConfig


def per_node_random_config(rng, n, L=3.0, segments=3, nodes_per_segment=DEFAULT_NODES_PER_SEGMENT):
    """random_config as a direction callable evaluated node by node: the
    12-term series with one matrix-vector product per term and node."""
    cuts = np.sort(rng.uniform(0.15, 0.85, size=segments - 1)) * L if segments > 1 else np.array([])
    partition = np.concatenate([[0.0], cuts, [L]])
    starts = rng.normal(size=(segments, n))
    starts /= np.linalg.norm(starts, axis=1)[:, None]
    omegas = []
    for _ in range(segments):
        W = rng.normal(size=(n, n))
        W = 0.5 * (W - W.T)
        W *= 0.8 / max(np.linalg.norm(W), 1e-12)
        omegas.append(W)

    def direction(s):
        k = max(min(np.searchsorted(partition, s, side="right") - 1, segments - 1), 0)
        ds = s - partition[k]
        term = starts[k].copy()
        out = starts[k].copy()
        for p in range(1, 12):
            term = (ds / p) * (omegas[k] @ term)
            out = out + term
        return out

    return SnakeConfig.from_directions(L, partition, direction, dim=n,
                                       nodes_per_segment=nodes_per_segment)


@pytest.mark.parametrize("n", [2, 3, 8, 32])
def test_random_config_matches_per_node_series(n):
    for seed in range(6):
        got = random_config(np.random.default_rng(seed), n)
        want = per_node_random_config(np.random.default_rng(seed), n)
        for name in ("partition", "nodes", "weights"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.L, got.nodes_per_segment) == (want.L, want.nodes_per_segment)


def test_random_config_one_segment_few_nodes():
    kw = dict(L=2.0, segments=1, nodes_per_segment=5)
    got = random_config(np.random.default_rng(3), 4, **kw)
    want = per_node_random_config(np.random.default_rng(3), 4, **kw)
    assert got.nodes.shape == (5, 4)
    assert np.array_equal(got.nodes, want.nodes)
