"""Recursive-descent parser for the C subset.

The grammar covers exactly the shapes that occur in TSVC kernels and in the
SIMD-vectorized candidates of any registered target ISA: function
definitions with ``int``/``int*`` parameters, declarations (including
vector-register temporaries), ``for``/``while``/``do``/``if``/``goto``/
labels, assignment (simple and compound), the usual C operator precedence
ladder, array subscripts, vector-pointer casts of array-element addresses,
and calls to the targets' intrinsics.  The vector type keywords are derived
from the target registry, never hardcoded.

Binary operators are parsed by precedence climbing (Pratt's top-down
operator precedence, POPL 1973) over one table, ``_BINARY_LEVELS``: an
operand costs one call, not one per precedence level.
"""

from __future__ import annotations


from repro.cfront import ast_nodes as ast
from repro.cfront.ctypes import CType, normalize_base_type
from repro.cfront.lexer import Token, TokenKind, tokenize
from repro.errors import ParseError, SourceLocation
from repro.targets.isa import PREDICATE_TYPE_NAMES, VECTOR_TYPE_LANES

_TYPE_KEYWORDS = frozenset(
    {
        "int",
        "void",
        "char",
        "long",
        "short",
        "unsigned",
        "signed",
        "const",
        "static",
        "extern",
        "int16_t",
        "int32_t",
        "int64_t",
    }
) | frozenset(VECTOR_TYPE_LANES) | PREDICATE_TYPE_NAMES

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

# Binary operator precedence, loosest first.  Each level is left-associative.
_BINARY_LEVELS: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Binary operator -> its index in ``_BINARY_LEVELS`` (higher binds tighter).
_BINARY_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:
            return self.tokens[-1]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def at_end(self) -> bool:
        return self.peek().kind is TokenKind.EOF

    def expect_punct(self, text: str) -> Token:
        token = self.peek()
        if not token.is_punct(text):
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.location)
        return self.advance()

    def expect_keyword(self, text: str) -> Token:
        token = self.peek()
        if not token.is_keyword(text):
            raise ParseError(f"expected keyword {text!r}, found {token.text!r}", token.location)
        return self.advance()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.location)
        return self.advance()

    def accept_punct(self, text: str) -> bool:
        if self.peek().is_punct(text):
            self.advance()
            return True
        return False

    # -- type parsing ------------------------------------------------------

    def at_type(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS

    def parse_base_type(self) -> CType:
        specifiers: list[str] = []
        while self.at_type():
            specifiers.append(self.advance().text)
        try:
            return normalize_base_type(specifiers)
        except ValueError as exc:
            raise ParseError(str(exc), self.peek().location) from exc

    def parse_pointer_suffix(self, base: CType) -> CType:
        result = base
        while self.accept_punct("*"):
            result = result.pointer_to()
        return result

    def looks_like_cast(self) -> bool:
        """``(`` followed by type specifiers then ``*``s then ``)``."""
        if not self.peek().is_punct("("):
            return False
        offset = 1
        if not self.at_type(offset):
            return False
        while self.at_type(offset):
            offset += 1
        while self.peek(offset).is_punct("*"):
            offset += 1
        return self.peek(offset).is_punct(")")

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_ternary()
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_assignment()
            return ast.Assign(op=token.text, target=left, value=value, location=token.location)
        return left

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.peek().is_punct("?"):
            location = self.advance().location
            then = self.parse_assignment()
            self.expect_punct(":")
            otherwise = self.parse_assignment()
            return ast.TernaryOp(cond=cond, then=then, otherwise=otherwise, location=location)
        return cond

    def parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over ``_BINARY_LEVELS`` (every level left-associative)."""
        left = self.parse_unary()
        while True:
            token = self.tokens[self.pos]
            level = _BINARY_PRECEDENCE.get(token.text, -1) if token.kind is TokenKind.PUNCT else -1
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_binary(level + 1)
            left = ast.BinOp(op=token.text, left=left, right=right, location=token.location)

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.PUNCT and token.text in ("-", "+", "!", "~", "&", "*"):
            self.advance()
            operand = self.parse_unary()
            return ast.UnaryOp(op=token.text, operand=operand, location=token.location)
        if token.kind is TokenKind.PUNCT and token.text in ("++", "--"):
            self.advance()
            operand = self.parse_unary()
            return ast.UnaryOp(op=token.text, operand=operand, location=token.location)
        if self.looks_like_cast():
            location = self.expect_punct("(").location
            base = self.parse_base_type()
            target_type = self.parse_pointer_suffix(base)
            self.expect_punct(")")
            operand = self.parse_unary()
            return ast.Cast(target_type=target_type, operand=operand, location=location)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.peek()
            if token.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = ast.ArrayRef(base=expr, index=index, location=token.location)
            elif token.is_punct("(") and isinstance(expr, ast.Identifier):
                self.advance()
                args: list[ast.Expr] = []
                if not self.peek().is_punct(")"):
                    args.append(self.parse_assignment())
                    while self.accept_punct(","):
                        args.append(self.parse_assignment())
                self.expect_punct(")")
                expr = ast.Call(func=expr.name, args=args, location=token.location)
            elif token.kind is TokenKind.PUNCT and token.text in ("++", "--"):
                self.advance()
                expr = ast.PostfixOp(op=token.text, operand=expr, location=token.location)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            return ast.IntLiteral(value=_parse_int(token), location=token.location)
        if token.kind is TokenKind.IDENT:
            self.advance()
            return ast.Identifier(name=token.text, location=token.location)
        if token.is_punct("("):
            self.advance()
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} in expression", token.location)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.is_punct("{"):
            return self.parse_block()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("while"):
            return self.parse_while()
        if token.is_keyword("do"):
            return self.parse_do_while()
        if token.is_keyword("return"):
            self.advance()
            value = None
            if not self.peek().is_punct(";"):
                value = self.parse_expression()
            self.expect_punct(";")
            return ast.Return(value=value, location=token.location)
        if token.is_keyword("break"):
            self.advance()
            self.expect_punct(";")
            return ast.Break(location=token.location)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_punct(";")
            return ast.Continue(location=token.location)
        if token.is_keyword("goto"):
            self.advance()
            label = self.expect_ident().text
            self.expect_punct(";")
            return ast.Goto(label=label, location=token.location)
        if token.kind is TokenKind.IDENT and self.peek(1).is_punct(":"):
            self.advance()
            self.advance()
            stmt = self.parse_statement()
            return ast.Label(name=token.text, stmt=stmt, location=token.location)
        if self.at_type():
            return self.parse_declaration_statement()
        if token.is_punct(";"):
            self.advance()
            return ast.Block(body=[], location=token.location)
        expr = self.parse_expression()
        self.expect_punct(";")
        return ast.ExprStmt(expr=expr, location=token.location)

    def parse_block(self) -> ast.Block:
        open_token = self.expect_punct("{")
        body: list[ast.Stmt] = []
        while not self.peek().is_punct("}"):
            if self.at_end():
                raise ParseError("unterminated block", open_token.location)
            if self.at_type():
                body.extend(self.parse_declaration())
            else:
                body.append(self.parse_statement())
        self.expect_punct("}")
        return ast.Block(body=body, location=open_token.location)

    def parse_if(self) -> ast.If:
        token = self.expect_keyword("if")
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then = self.parse_statement()
        otherwise: ast.Stmt | None = None
        if self.peek().is_keyword("else"):
            self.advance()
            otherwise = self.parse_statement()
        return ast.If(cond=cond, then=then, otherwise=otherwise, location=token.location)

    def parse_for(self) -> ast.ForLoop:
        token = self.expect_keyword("for")
        self.expect_punct("(")
        init: ast.Stmt | None = None
        if not self.peek().is_punct(";"):
            if self.at_type():
                init = self.parse_declaration_statement()
            else:
                expr = self.parse_expression()
                init = ast.ExprStmt(expr=expr, location=expr.location)
                self.expect_punct(";")
        else:
            self.advance()
        cond: ast.Expr | None = None
        if not self.peek().is_punct(";"):
            cond = self.parse_expression()
        self.expect_punct(";")
        step: ast.Expr | None = None
        if not self.peek().is_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.ForLoop(init=init, cond=cond, step=step, body=body, location=token.location)

    def parse_while(self) -> ast.WhileLoop:
        token = self.expect_keyword("while")
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        return ast.WhileLoop(cond=cond, body=body, location=token.location)

    def parse_do_while(self) -> ast.DoWhileLoop:
        token = self.expect_keyword("do")
        body = self.parse_statement()
        self.expect_keyword("while")
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.DoWhileLoop(body=body, cond=cond, location=token.location)

    def parse_declaration_statement(self) -> ast.Stmt:
        """A declaration where one statement stands (a ``for`` header, a label).

        A multi-declarator declaration becomes a :class:`ast.Block` located
        at its first token.
        """
        first = self.peek()
        decls = self.parse_declaration()
        if len(decls) == 1:
            return decls[0]
        return ast.Block(body=decls, location=first.location)

    def parse_declaration(self) -> list[ast.Stmt]:
        """Parse one declaration: one :class:`ast.Decl` per declarator.

        A block splices the list into its body (``vectype a_vec, b_vec;``
        declares two variables of the block's scope).
        """
        base = self.parse_base_type()
        decls: list[ast.Stmt] = []
        while True:
            var_type = self.parse_pointer_suffix(base)
            name_token = self.expect_ident()
            array_size: ast.Expr | None = None
            if self.accept_punct("["):
                if not self.peek().is_punct("]"):
                    array_size = self.parse_expression()
                self.expect_punct("]")
                var_type = var_type.pointer_to()
            init: ast.Expr | None = None
            if self.accept_punct("="):
                init = self.parse_assignment()
            decls.append(
                ast.Decl(
                    var_type=var_type,
                    name=name_token.text,
                    init=init,
                    array_size=array_size,
                    location=name_token.location,
                )
            )
            if not self.accept_punct(","):
                break
        self.expect_punct(";")
        return decls

    # -- top level ----------------------------------------------------------

    def parse_function(self) -> ast.FunctionDef:
        return_type = self.parse_pointer_suffix(self.parse_base_type())
        name_token = self.expect_ident()
        self.expect_punct("(")
        params: list[ast.Parameter] = []
        if not self.peek().is_punct(")"):
            if self.peek().is_keyword("void") and self.peek(1).is_punct(")"):
                self.advance()
            else:
                params.append(self.parse_parameter())
                while self.accept_punct(","):
                    params.append(self.parse_parameter())
        self.expect_punct(")")
        body = self.parse_block()
        return ast.FunctionDef(
            return_type=return_type,
            name=name_token.text,
            params=params,
            body=body,
            location=name_token.location,
        )

    def parse_parameter(self) -> ast.Parameter:
        base = self.parse_base_type()
        param_type = self.parse_pointer_suffix(base)
        name_token = self.expect_ident()
        if self.accept_punct("["):
            if not self.peek().is_punct("]"):
                self.parse_expression()
            self.expect_punct("]")
            param_type = param_type.pointer_to()
        return ast.Parameter(param_type=param_type, name=name_token.text, location=name_token.location)

    def parse_program(self) -> ast.Program:
        functions: list[ast.FunctionDef] = []
        while not self.at_end():
            functions.append(self.parse_function())
        return ast.Program(functions=functions, location=SourceLocation(1, 1))


def _parse_int(token: Token) -> int:
    """The value of a numeric literal, read the way C reads it.

    ``0x`` is hexadecimal and any other leading ``0`` is octal (``010`` is
    8, and ``08`` is rejected).  Float literals occasionally appear
    (``sum = 0.0;``); TSVC integer kernels only ever use them with integral
    values.
    """
    text = token.text.rstrip("uUlL")
    try:
        if text.lower().startswith("0x"):
            return int(text, 16)
        if "." in text:
            return int(float(text))
        if text.startswith("0"):
            return int(text, 8)
        return int(text, 10)
    except ValueError as exc:
        raise ParseError(f"invalid numeric literal {token.text!r}", token.location) from exc


def parse_program(source: str) -> ast.Program:
    """Parse a translation unit containing one or more function definitions."""
    return _Parser(tokenize(source)).parse_program()


def parse_function(source: str) -> ast.FunctionDef:
    """Parse a source snippet expected to contain exactly one function."""
    program = parse_program(source)
    if len(program.functions) != 1:
        raise ParseError(f"expected exactly one function, found {len(program.functions)}")
    return program.functions[0]


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and transforms)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    if not parser.at_end():
        raise ParseError(
            f"trailing tokens after expression: {parser.peek().text!r}", parser.peek().location
        )
    return expr
