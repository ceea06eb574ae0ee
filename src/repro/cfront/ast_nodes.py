"""AST node definitions for the C subset.

The AST is deliberately small and regular so that the interpreter, the
dependence analysis, the source-to-source transforms (C-level unrolling,
spatial splitting) and the IR lowering can all traverse it with plain
structural pattern matching.  :func:`walk` visits a tree in preorder from
one table of child fields, and :func:`clone_tree` is the one way to copy
a tree before rewriting it: parsed trees are shared through caches and
must not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import TypeVar

from repro.cfront.ctypes import CType
from repro.errors import SourceLocation
from repro.memo import IdentityMemo


@dataclass
class Node:
    """Base class for every AST node."""

    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class ArrayRef(Expr):
    """``base[index]`` where ``base`` is an expression of pointer type."""

    base: Expr
    index: Expr


@dataclass
class UnaryOp(Expr):
    """Prefix unary operator: ``-``, ``+``, ``!``, ``~``, ``&``, ``*``, ``++``, ``--``."""

    op: str
    operand: Expr


@dataclass
class PostfixOp(Expr):
    """Postfix ``++`` / ``--``."""

    op: str
    operand: Expr


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class TernaryOp(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Assign(Expr):
    """Assignment expression ``target op target/value``.

    ``op`` is ``=`` or a compound assignment such as ``+=``.
    """

    op: str
    target: Expr
    value: Expr


@dataclass
class Call(Expr):
    """A call; in this subset all callees are simple identifiers."""

    func: str
    args: list[Expr]


@dataclass
class Cast(Expr):
    target_type: CType
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Decl(Stmt):
    """A declaration of one variable, optionally initialized.

    Multi-declarator declarations are split by the parser into one
    :class:`Decl` per variable so transforms never have to handle lists.
    """

    var_type: CType
    name: str
    init: Expr | None = None
    array_size: Expr | None = None


@dataclass
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.body)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Stmt | None = None


@dataclass
class ForLoop(Stmt):
    """``for (init; cond; step) body``; each header slot may be empty."""

    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: Stmt


@dataclass
class WhileLoop(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhileLoop(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str


@dataclass
class Label(Stmt):
    """A label attached to a statement (``L20: stmt``)."""

    name: str
    stmt: Stmt


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Parameter(Node):
    param_type: CType
    name: str


@dataclass
class FunctionDef(Node):
    return_type: CType
    name: str
    params: list[Parameter]
    body: Block


@dataclass
class Program(Node):
    """A translation unit: the functions it defines, in order."""

    functions: list[FunctionDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")


AnyNode = Expr | Stmt | FunctionDef | Program | Parameter

#: Node type -> the fields holding its children, in source order (a
#: declaration's array size precedes its initializer).  A field holds a
#: node, a list of nodes or None; the types left out have no children.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Program: ("functions",),
    FunctionDef: ("params", "body"),
    Block: ("body",),
    ExprStmt: ("expr",),
    Decl: ("array_size", "init"),
    If: ("cond", "then", "otherwise"),
    ForLoop: ("init", "cond", "step", "body"),
    WhileLoop: ("cond", "body"),
    DoWhileLoop: ("body", "cond"),
    Return: ("value",),
    Label: ("stmt",),
    ArrayRef: ("base", "index"),
    UnaryOp: ("operand",),
    PostfixOp: ("operand",),
    BinOp: ("left", "right"),
    TernaryOp: ("cond", "then", "otherwise"),
    Assign: ("target", "value"),
    Call: ("args",),
    Cast: ("operand",),
}

#: The same fields last-first, the order ``walk`` pushes them on its stack.
_PUSH_ORDER = {kind: fields[::-1] for kind, fields in _CHILD_FIELDS.items()}


def walk(node: AnyNode) -> Iterator[Node]:
    """Yield ``node`` and every node reachable from it, preorder.

    A node's children are read after the node is yielded, so a caller may
    edit the node it was just handed and the walk descends into the edit.
    """
    stack = [node]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        yield node
        for name in _PUSH_ORDER.get(type(node), ()):
            child = getattr(node, name)
            if type(child) is list:
                extend(reversed(child))
            elif child is not None:
                push(child)


#: Field values ``clone_tree`` shares between a tree and its copy.
_SHARED_LEAVES = frozenset({str, int, type(None), CType, SourceLocation})

_Tree = TypeVar("_Tree")


def clone_tree(tree: _Tree) -> _Tree:
    """A deep copy of ``tree`` (a node, a list of nodes or None).

    Nodes and lists are copied field by field; strings, integers, types
    and source locations are immutable and shared.  Like
    :func:`copy.deepcopy`, one call copies a node (or list) reached twice
    once, so the copy keeps the tree's aliasing.
    """
    memo: dict[int, object] = {}

    def clone(value):
        if type(value) in _SHARED_LEAVES:
            return value
        copied = memo.get(id(value))
        if copied is not None:
            return copied
        if type(value) is list:
            copied = memo[id(value)] = []
            copied.extend(map(clone, value))
        elif isinstance(value, Node):
            copied = memo[id(value)] = object.__new__(type(value))
            copied.__dict__.update({name: clone(field_value)
                                    for name, field_value in value.__dict__.items()})
        else:
            raise TypeError(f"clone_tree cannot copy a {type(value).__name__}")
        return copied

    return clone(tree)


def collect(node: AnyNode, node_type) -> list:
    """Collect every descendant of ``node`` that is an instance of ``node_type``."""
    return [n for n in walk(node) if isinstance(n, node_type)]


#: The planner, interpreter, symbolic executor, verifier and vetter all ask
#: about the same (cache-shared) functions, and each answer is a full walk.
_DTYPE_MEMO = IdentityMemo(1024)


def kernel_dtype(func: FunctionDef):
    """The lane element type a kernel is modelled at (a ``LaneType``).

    One kernel has one element dtype: it is the sized integer spelling
    (``int16_t``/``int64_t``) its declarations use, or the default 32-bit
    type when every integer is plain ``int``.  Plain ``int`` coexists with
    one sized spelling (loop counters stay ``int``) and is then modelled at
    the kernel dtype's width — the subset models a uniform element width,
    not C's int promotion rules.  Mixing two different sized spellings in
    one kernel raises :class:`~repro.errors.CompileError`.
    """
    return _DTYPE_MEMO.get_or_compute(func, lambda: _kernel_dtype_uncached(func))


def _kernel_dtype_uncached(func: FunctionDef):
    from repro.errors import CompileError
    from repro.lanetypes import DEFAULT_LANE_TYPE, get_lane_type

    sized: dict[str, SourceLocation] = {}
    for node in walk(func):
        if isinstance(node, Parameter):
            ctype = node.param_type
        elif isinstance(node, Decl):
            ctype = node.var_type
        elif isinstance(node, Cast):
            ctype = node.target_type
        else:
            continue
        if ctype.name in ("int16_t", "int64_t"):
            sized.setdefault(ctype.name, node.location)
    if not sized:
        return DEFAULT_LANE_TYPE
    if len(sized) > 1:
        names = " and ".join(sorted(sized))
        raise CompileError(
            f"kernel {func.name!r} mixes element types {names}; "
            f"one kernel models one lane element type"
        )
    (name,) = sized
    return get_lane_type(name)
