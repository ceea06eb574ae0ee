"""C-subset frontend: lexer, parser, AST, types and pretty printer.

The frontend accepts the dialect of C used by the TSVC kernels and by the
SIMD-vectorized candidates the paper's LLM produces: ``int`` scalars,
``int*`` array parameters, the vector-register values of every registered
target ISA, ``for``/``while``/``if``/``goto`` control flow, and calls to
the targets' intrinsics.  The vector type names (and thus the lexer and
parser keyword sets) are derived from :mod:`repro.targets`, never
hardcoded.

Public entry points:

* :func:`repro.cfront.lexer.tokenize` — the token list of a source text.
* :func:`repro.cfront.cparser.parse_program` — parse a translation unit.
* :func:`repro.cfront.cparser.parse_function` — parse a single function.
* :func:`repro.cfront.ast_nodes.walk` — every node of a tree, preorder.
* :func:`repro.cfront.ast_nodes.clone_tree` — a copy of a tree to rewrite.
* :func:`repro.cfront.printer.to_c` — pretty-print an AST back to C text.
"""

from repro.cfront.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Break,
    Call,
    Cast,
    Continue,
    Decl,
    ExprStmt,
    ForLoop,
    FunctionDef,
    Goto,
    Identifier,
    If,
    IntLiteral,
    Label,
    Program,
    Return,
    TernaryOp,
    UnaryOp,
    WhileLoop,
)
from repro.cfront.ast_nodes import kernel_dtype
from repro.cfront.cparser import parse_expression, parse_function, parse_program
from repro.cfront.ctypes import (
    CType,
    INT,
    INT16_T,
    INT64_T,
    INTEGER_TYPE_NAMES,
    PTR_INT,
    SIZED_INT_NAMES,
    VOID,
)
from repro.cfront.lexer import Token, TokenKind, tokenize
from repro.cfront.printer import to_c

__all__ = [
    "ArrayRef",
    "Assign",
    "BinOp",
    "Block",
    "Break",
    "Call",
    "Cast",
    "Continue",
    "Decl",
    "ExprStmt",
    "ForLoop",
    "FunctionDef",
    "Goto",
    "Identifier",
    "If",
    "IntLiteral",
    "Label",
    "Program",
    "Return",
    "TernaryOp",
    "UnaryOp",
    "WhileLoop",
    "CType",
    "INT",
    "INT16_T",
    "INT64_T",
    "INTEGER_TYPE_NAMES",
    "SIZED_INT_NAMES",
    "VOID",
    "PTR_INT",
    "kernel_dtype",
    "Token",
    "TokenKind",
    "tokenize",
    "parse_program",
    "parse_function",
    "parse_expression",
    "to_c",
]
