import pytest

from steinb import vectorquad


@pytest.fixture
def count_cells(monkeypatch):
    """Count the cells of the GK15 kernel from here on; call it for the
    count."""
    cells = [0]
    kernel = vectorquad._gk15_vector

    def counting(f, n, lo, hi):
        cells[0] += 1
        return kernel(f, n, lo, hi)

    monkeypatch.setattr(vectorquad, "_gk15_vector", counting)
    return lambda: cells[0]
