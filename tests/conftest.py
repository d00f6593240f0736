import pytest

from steinb import numerics, vectorquad


@pytest.fixture
def count_cells(monkeypatch):
    """Count the GK15 cells of both quadrature kernels from here on; call it
    for the count."""
    cells = [0]
    scalar, vector = numerics._gk15, vectorquad._gk15_vector

    def counting_scalar(f, lo, hi):
        cells[0] += 1
        return scalar(f, lo, hi)

    def counting_vector(f, n, lo, hi):
        cells[0] += 1
        return vector(f, n, lo, hi)

    monkeypatch.setattr(numerics, "_gk15", counting_scalar)
    monkeypatch.setattr(vectorquad, "_gk15_vector", counting_vector)
    return lambda: cells[0]
