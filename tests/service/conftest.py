"""Fixtures shared by the service tests."""

import pytest

from repro.service import (
    Cohort,
    CohortSpec,
    InlineTransport,
    ShardedSession,
    ShardPlan,
)


@pytest.fixture
def cohort_over():
    """``cohort_over(cohort_id, session, dim, buffer_size=None,
    **cohort_kwargs)``: a :class:`Cohort` of the one shape the service
    builds — the session (live or a stub with the session surface) as
    the single shard of a :class:`ShardedSession` over an
    :class:`InlineTransport`."""

    def build(cohort_id, session, dim, buffer_size=None, **kwargs):
        spec = CohortSpec(
            num_users=session.num_users,
            model_dim=dim,
            pool_size=session.pool_size,
            buffer_size=buffer_size,
        )
        sharded = ShardedSession(
            ShardPlan(dim, 1), transport=InlineTransport([session])
        )
        return Cohort(cohort_id, spec, sharded, **kwargs)

    return build
