"""The walkers' innermost runs expanded leaf by leaf, for tests that read
every leaf."""

from mpart import kernels
from mpart.partitions import visit_runs


def leaf_by_leaf(walk, m: int, leaf):
    """A run visitor for ``walk`` that calls leaf(buffer) at each leaf of
    each run, in the walk's order, with the innermost entries written into
    the buffer: k_1 = ks[0] up from 0 for ``kernels.nested_sum_b``; for the
    partition walks lambda_1 = mults[1] down from rem//m with lambda_0 =
    mults[0] taking the rest, or lambda_0 = rem where mults has one entry."""
    if walk is kernels.nested_sum_b:
        def run(ks, count):
            for k in range(count):
                ks[0] = k
                leaf(ks)
    else:
        def run(mults, rem):
            if len(mults) == 1:
                mults[0] = rem
                leaf(mults)
                return
            for lam in range(rem // m, -1, -1):
                mults[1], mults[0] = lam, rem - m * lam
                leaf(mults)
    return run


def materialise(walk, m: int, n: int, build) -> list:
    """build(buffer) at every leaf of ``walk``, in the walk's order, kept in
    a list: ``visit_runs`` with each run expanded leaf by leaf."""
    out = []
    visit_runs(walk, m, n, leaf_by_leaf(walk, m, lambda buffer: out.append(build(buffer))))
    return out
