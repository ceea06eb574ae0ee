"""Tests for the ``epilogue=`` keyword of the planner, codegen and RunSpec."""

import warnings

import pytest

from repro.runspec import RunSpec
from repro.tsvc import load_kernel
from repro.vectorizer import (
    EPILOGUE_STRATEGIES,
    plan_vectorization,
    vectorize_kernel,
)


class TestResolveEpilogue:
    def test_default_is_scalar(self):
        func = load_kernel("s000").function
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plan_vectorization(func).epilogue == "scalar"
        assert RunSpec().epilogue == "scalar"

    @pytest.mark.parametrize("strategy", EPILOGUE_STRATEGIES)
    def test_new_spelling_passes_through_without_warning(self, strategy):
        func = load_kernel("s000").function
        target = "sve128" if strategy == "predicated" else "avx2"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plan_vectorization(func, target, epilogue=strategy).epilogue == strategy
            assert RunSpec(target=target, epilogue=strategy).epilogue == strategy

    def test_unknown_strategy_rejected(self):
        func = load_kernel("s000").function
        with pytest.raises(ValueError, match="unknown epilogue strategy"):
            plan_vectorization(func, epilogue="vectorized-tail")
        with pytest.raises(ValueError, match="unknown epilogue strategy"):
            vectorize_kernel(func, epilogue="vectorized-tail")
        with pytest.raises(ValueError, match="unknown epilogue strategy"):
            RunSpec(epilogue="vectorized-tail")


class TestPlannerShims:
    def test_plan_carries_epilogue(self):
        func = load_kernel("s000").function
        plan = plan_vectorization(func, "sve128", epilogue="predicated")
        assert plan.feasible
        assert plan.epilogue == "predicated"

    def test_keyword_only(self):
        func = load_kernel("s000").function
        with pytest.raises(TypeError):
            plan_vectorization(func, "sve128", "predicated")


class TestCodegenShims:
    def test_scalar_default_emits_no_warning(self):
        func = load_kernel("s000").function
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = vectorize_kernel(func, "avx2")
        assert result is not None
        assert result.plan.epilogue == "scalar"
