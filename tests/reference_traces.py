"""Reference copy of the closed-walk counter, kept for equivalence tests
only.

``walk_traces`` takes every matrix power up to the bound in packed
integers: no characteristic polynomial, no constants shared between
calls, and each trace read field by field.
"""


def walk_traces(adjacency: tuple[tuple[int, ...], ...], bound: int) -> list[int]:
    """tr(A^1), ..., tr(A^bound) for the 0/1 matrix A with rows
    ``adjacency``: the exact numbers of closed walks of each length.  Row
    i of A^q is one integer with a field of ``width`` bits per column,
    wide enough for any entry up to A^bound (at most size^bound), so row
    i of A^(q+1) = A A^q is the sum of the rows of A^q at i's successors."""
    if bound < 1:
        raise ValueError("bound must be positive")
    size = len(adjacency)
    width = bound * size.bit_length() + 1
    mask = (1 << width) - 1
    rows = [1 << (i * width) for i in range(size)]
    traces = []
    for _ in range(bound):
        rows = [sum(map(rows.__getitem__, row)) for row in adjacency]
        traces.append(sum(rows[i] >> (i * width) & mask for i in range(size)))
    return traces
