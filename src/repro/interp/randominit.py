"""Random input generation for checksum-based testing.

Checksum testing (paper Section 2.1) initializes the input arrays with random
values, fixes a loop upper bound, executes the scalar and vectorized
functions, and compares the output arrays.  Values are kept small so that
32-bit multiplications do not overflow in ways that would make *both* sides
wrap identically and mask nothing — small magnitudes keep the comparison
sensitive to indexing and induction-variable mistakes, which are the dominant
LLM failure modes the paper reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cfront import ast_nodes as ast
from repro.interp.memory import ArrayImage


@dataclass(frozen=True)
class TestVector:
    """One concrete input: array contents plus scalar arguments.

    Each array is an :class:`~repro.interp.memory.ArrayImage`, checked once
    when it is drawn, so every run over the vector copies it without a scan.
    """

    arrays: dict[str, ArrayImage]
    scalars: dict[str, int]


@dataclass
class InputSpec:
    """Shape description of a kernel's inputs.

    ``array_params`` are the pointer parameters, ``scalar_params`` the value
    parameters; ``trip_count_param`` names the parameter that bounds the loop
    (``n`` in every TSVC kernel).
    """

    array_params: list[str]
    scalar_params: list[str]
    trip_count_param: str = "n"
    extra_scalars: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_function(func: ast.FunctionDef) -> "InputSpec":
        arrays = [p.name for p in func.params if p.param_type.is_pointer]
        scalars = [p.name for p in func.params if not p.param_type.is_pointer]
        trip = "n" if "n" in scalars else (scalars[0] if scalars else "n")
        return InputSpec(array_params=arrays, scalar_params=scalars, trip_count_param=trip)


#: Pointer-parameter names treated as index arrays: their contents must be
#: valid indices in ``[0, n)`` rather than arbitrary data (TSVC's indirect
#: addressing kernels crash otherwise, exactly as the real benchmark would).
INDEX_ARRAY_NAMES = frozenset({"indx", "index", "ip", "idx"})

#: The range every checksum-testing suite (:func:`make_test_suite`) draws
#: its data values from.
CHECKSUM_VALUE_RANGE = (-1000, 1000)


def randints(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``[rng.randint(low, high) for _ in range(count)]``, drawn in one loop.

    It makes the ``getrandbits`` calls ``randint`` makes (``randrange``'s
    rejection sampling: draw ``width.bit_length()`` bits until the draw is
    below ``width``), so it returns the same values and leaves ``rng`` in
    the same state, without two method calls per value.  It also fixes this
    algorithm for the seeded test suites: the ``random`` module does not
    promise to keep ``randrange``'s across versions.
    """
    width = high - low + 1
    if width <= 0:
        raise ValueError(f"empty range [{low}, {high}]")
    getrandbits = rng.getrandbits
    bits = width.bit_length()
    values = []
    for _ in range(count):
        drawn = getrandbits(bits)
        while drawn >= width:
            drawn = getrandbits(bits)
        values.append(low + drawn)
    return values


def make_test_vector(
    spec: InputSpec,
    n: int,
    rng: random.Random,
    value_range: tuple[int, int] = (-64, 64),
) -> TestVector:
    """Build one random test vector with trip count ``n``.

    Arrays are sized ``4 * n + 8``, so strided kernels such as ``a[i * inc]``
    and ``a[i + 1]`` style accesses stay in bounds for the scalar program
    with the small random strides we generate.  Index arrays (see
    :data:`INDEX_ARRAY_NAMES`) are filled with valid indices.
    """
    size = 4 * n + 8
    low, high = value_range
    arrays = {}
    for name in spec.array_params:
        if name in INDEX_ARRAY_NAMES:
            arrays[name] = ArrayImage(randints(rng, 0, max(1, n) - 1, size))
        else:
            arrays[name] = ArrayImage(randints(rng, low, high, size))
    scalars: dict[str, int] = {}
    for name in spec.scalar_params:
        if name == spec.trip_count_param:
            scalars[name] = n
        elif name in spec.extra_scalars:
            scalars[name] = spec.extra_scalars[name]
        else:
            scalars[name] = randints(rng, 1, 4, 1)[0]
    return TestVector(arrays=arrays, scalars=scalars)


def make_test_suite(
    spec: InputSpec,
    rng: random.Random,
    trip_counts: list[int] | None = None,
) -> list[TestVector]:
    """Build the default battery of test vectors used by the checksum tester.

    The default trip counts 16, 32 and 64 are multiples of every modelled
    vector width, so candidates without an epilogue loop are not failed for
    it — the paper makes the same assumption for verification.  No default
    trip count runs a tail: pass ``trip_counts`` with a non-multiple to
    exercise epilogue handling.
    """
    if trip_counts is None:
        trip_counts = [16, 32, 64]
    return [make_test_vector(spec, n, rng, CHECKSUM_VALUE_RANGE) for n in trip_counts]
