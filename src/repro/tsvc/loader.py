"""Load TSVC kernels: parse, analyze and cache them for the pipeline.

The registry stores each kernel once, spelled with plain ``int`` elements
(the paper's universe).  The loader owns the dtype axis on top of that: a
kernel can be loaded retargeted to any supported lane element type, which
respells the one ``int`` token as the sized ``<stdint.h>`` name and renames
the kernel with a dtype suffix (``s000`` → ``s000_i16``) so caches, result
stores and reports can never confuse two widths of the same loop.  Derived
names are first-class: ``load_kernel("s000_i16")`` resolves without the
caller knowing about the suffix scheme, which is exactly what a campaign
worker handed a task name needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.analysis.features import KernelFeatures, analyze_kernel
from repro.cfront import ast_nodes as ast
from repro.lanetypes import get_lane_type
from repro.memo import Memo
from repro.tsvc.registry import KernelSpec, all_kernel_names, get_kernel
from repro.vectorizer.plancache import cached_parse

#: Name suffix per non-default dtype; int32 kernels keep their bare name so
#: every pre-dtype cache key, store record and golden table stays valid.
_DTYPE_SUFFIX = {"int16": "_i16", "int64": "_i64"}
_SUFFIX_DTYPE = {suffix: dtype for dtype, suffix in _DTYPE_SUFFIX.items()}


@dataclass(frozen=True)
class LoadedKernel:
    """A parsed and analyzed TSVC kernel ready for the pipeline."""

    spec: KernelSpec
    function: ast.FunctionDef
    features: KernelFeatures

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def source(self) -> str:
        return self.spec.source

    @property
    def category(self) -> str:
        """Figure-6 category computed from the code."""
        return self.features.category


def dtype_kernel_name(name: str, dtype: "str | None") -> str:
    """The registry-distinct name of ``name`` retargeted to ``dtype``."""
    return name + _DTYPE_SUFFIX.get(get_lane_type(dtype).name, "")


def split_kernel_name(name: str) -> tuple[str, str]:
    """Split a possibly dtype-suffixed kernel name into (base, dtype)."""
    for suffix, dtype in _SUFFIX_DTYPE.items():
        if name.endswith(suffix):
            return name[: -len(suffix)], dtype
    return name, "int32"


def retarget_spec(spec: KernelSpec, dtype: str) -> KernelSpec:
    """``spec`` with every plain ``int`` respelled as the sized lane type.

    A textual retarget is the honest one here: the derived source is what
    the scalar reference really is for that campaign — it feeds the content
    cache, the LLM prompt and the verifier identically, so an int64 kernel
    can never silently reuse an int32 verdict.
    """
    lane = get_lane_type(dtype)
    new_name = dtype_kernel_name(spec.name, lane)
    source = re.sub(r"\bint\b", lane.c_name, spec.source)
    source = re.sub(rf"\b{re.escape(spec.name)}\b", new_name, source)
    return KernelSpec(
        name=new_name,
        source=source,
        description=f"{spec.description} [{lane.name} lanes]",
        tsvc_class=spec.tsvc_class,
    )


#: Loaded kernels keyed on the resolved (base name, dtype) pair, so every
#: spelling of one kernel shares an entry; the whole suite (149 kernels)
#: fits at all three dtypes.
_LOADED = Memo(512)


def load_kernel(name: str, dtype: str = "int32") -> LoadedKernel:
    """Parse and analyze the kernel named ``name`` at ``dtype`` (cached).

    ``name`` may be a bare registry name (``s000``) with ``dtype`` chosen
    separately, or an already-suffixed derived name (``s000_i16``), whose
    suffix wins over the ``dtype`` argument.
    """
    base, suffix_dtype = split_kernel_name(name)
    lane = get_lane_type(suffix_dtype if suffix_dtype != "int32" else dtype)
    key = (base, lane.name)
    loaded: LoadedKernel | None = _LOADED.get(key)
    if loaded is None:
        spec = get_kernel(base)
        if lane.name != "int32":
            spec = retarget_spec(spec, lane.name)
        function = cached_parse(spec.source)
        loaded = _LOADED.put(key, LoadedKernel(
            spec=spec, function=function, features=analyze_kernel(function)))
    return loaded


def load_suite(names: list[str] | None = None,
               dtype: str = "int32") -> list[LoadedKernel]:
    """Load the full suite (or the subset ``names``), sorted by kernel name."""
    if names is None:
        names = all_kernel_names()
    return [load_kernel(name, dtype) for name in names]
