"""Tests for the content-addressed parse/plan cache behind the hot path."""

import pytest

from repro.vectorizer import plancache
from repro.vectorizer.planner import RejectionReason

SRC = """
void add1(int n, int *a, int *b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + 1;
    }
}
"""

SRC_OTHER = """
void sub1(int n, int *a, int *b) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] - 1;
    }
}
"""

#: A loop-carried flow dependence: every target's planner rejects it, so
#: cached_vectorize returns (and must cache) None.
SRC_RECURRENCE = """
void recur(int n, int *a) {
    for (int i = 1; i < n; i++) {
        a[i] = a[i - 1] + 1;
    }
}
"""

BAD_SRC = "void broken(int n { this is not C"


@pytest.fixture(autouse=True)
def fresh_caches():
    plancache.clear_caches()
    yield
    plancache.clear_caches()


class TestParseCache:
    def test_first_parse_misses_then_hits(self):
        first = plancache.cached_parse(SRC)
        assert plancache.stats.parse_misses == 1
        assert plancache.stats.parse_hits == 0
        second = plancache.cached_parse(SRC)
        assert second is first
        assert plancache.stats.parse_hits == 1
        assert plancache.stats.parse_misses == 1

    def test_distinct_sources_get_distinct_entries(self):
        a = plancache.cached_parse(SRC)
        b = plancache.cached_parse(SRC_OTHER)
        assert a is not b
        assert a.name == "add1" and b.name == "sub1"
        assert plancache.stats.parse_misses == 2

    def test_parse_failure_is_cached_and_reraised(self):
        with pytest.raises(Exception) as first:
            plancache.cached_parse(BAD_SRC)
        assert plancache.stats.parse_misses == 1
        with pytest.raises(Exception) as second:
            plancache.cached_parse(BAD_SRC)
        # The very same exception instance comes back: messages stay stable.
        assert second.value is first.value
        assert plancache.stats.parse_hits == 1


class TestFingerprint:
    def test_salted_by_target_and_epilogue(self):
        base = plancache.plan_fingerprint(SRC, "avx2", "scalar")
        assert plancache.plan_fingerprint(SRC, "avx2", "scalar") == base
        assert plancache.plan_fingerprint(SRC, "sse4", "scalar") != base
        assert plancache.plan_fingerprint(SRC, "avx2", "masked") != base
        assert plancache.plan_fingerprint(SRC_OTHER, "avx2", "scalar") != base

    def test_default_target_resolves_like_explicit(self):
        assert (plancache.plan_fingerprint(SRC, None)
                == plancache.plan_fingerprint(SRC, "avx2"))


class TestPlanCache:
    def test_plan_hit_returns_shared_plan(self):
        first = plancache.cached_plan(SRC, target="avx2")
        second = plancache.cached_plan(SRC, target="avx2")
        assert second is first
        assert first.feasible
        assert plancache.stats.plan_misses == 1
        assert plancache.stats.plan_hits == 1

    def test_targets_never_share_a_plan(self):
        avx2 = plancache.cached_plan(SRC, target="avx2")
        sse4 = plancache.cached_plan(SRC, target="sse4")
        assert avx2 is not sse4
        assert avx2.target.lanes == 8 and sse4.target.lanes == 4
        assert plancache.stats.plan_misses == 2

    def test_epilogues_never_share_a_plan(self):
        scalar = plancache.cached_plan(SRC, target="sve128", epilogue="scalar")
        predicated = plancache.cached_plan(SRC, target="sve128",
                                           epilogue="predicated")
        assert scalar is not predicated
        assert scalar.epilogue == "scalar"
        assert predicated.epilogue == "predicated"

    def test_rejection_plans_are_cached_too(self):
        first = plancache.cached_plan(SRC_RECURRENCE, target="avx2")
        assert not first.feasible
        assert first.reason is RejectionReason.LOOP_CARRIED_FLOW
        assert plancache.cached_plan(SRC_RECURRENCE, target="avx2") is first
        assert plancache.stats.plan_hits == 1


class TestVectorizeCache:
    def test_vectorize_hit_returns_shared_result(self):
        first = plancache.cached_vectorize(SRC, target="avx2")
        second = plancache.cached_vectorize(SRC, target="avx2")
        assert first is not None
        assert second is first
        assert plancache.stats.vectorize_misses == 1
        assert plancache.stats.vectorize_hits == 1

    def test_infeasible_none_is_cached(self):
        assert plancache.cached_vectorize(SRC_RECURRENCE, target="avx2") is None
        assert plancache.cached_vectorize(SRC_RECURRENCE, target="avx2") is None
        assert plancache.stats.vectorize_misses == 1
        assert plancache.stats.vectorize_hits == 1

    def test_target_salting_produces_distinct_code(self):
        avx2 = plancache.cached_vectorize(SRC, target="avx2")
        neon = plancache.cached_vectorize(SRC, target="neon")
        assert avx2 is not None and neon is not None
        assert avx2.source != neon.source
        assert "_mm256_" in avx2.source
        assert "vld1q_s32" in neon.source

    def test_epilogue_salting_produces_distinct_code(self):
        scalar = plancache.cached_vectorize(SRC, target="sve128",
                                            epilogue="scalar")
        predicated = plancache.cached_vectorize(SRC, target="sve128",
                                               epilogue="predicated")
        assert scalar is not None and predicated is not None
        assert scalar.source != predicated.source
        assert "whilelt" in predicated.source


class TestStats:
    def test_clear_resets_counters(self):
        plancache.cached_parse(SRC)
        plancache.cached_plan(SRC)
        plancache.clear_caches()
        assert plancache.stats.as_dict() == {
            "parse_hits": 0, "parse_misses": 0,
            "plan_hits": 0, "plan_misses": 0,
            "vectorize_hits": 0, "vectorize_misses": 0,
        }

    def test_as_dict_reflects_activity(self):
        plancache.cached_parse(SRC)
        plancache.cached_parse(SRC)
        snapshot = plancache.stats.as_dict()
        assert snapshot["parse_hits"] == 1
        assert snapshot["parse_misses"] == 1
