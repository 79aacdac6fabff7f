import pytest

from graph_calculus import graph_core


@pytest.fixture
def split_blocks(monkeypatch):
    """Shrink the kernel block so an (n, dim) cloud spans several row blocks.

    At the default block size every test cloud fits in one diagonal block,
    which would leave the off-diagonal blocks untested. The last block is
    ragged (rows does not divide n).
    """

    def split(n, dim, rows):
        monkeypatch.setattr(graph_core, "_BLOCK_BYTES", 8 * n * dim * rows)
        assert graph_core._block_rows(n, dim) == rows < n
        assert n % rows != 0

    return split
