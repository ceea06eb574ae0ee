"""Tests for the C-subset lexer, parser and pretty printer."""

import pytest

from repro.cfront import ast_nodes as ast
from repro.cfront.cparser import parse_expression, parse_function, parse_program
from repro.cfront.lexer import TokenKind, tokenize
from repro.cfront.printer import expr_to_c, to_c
from repro.errors import LexError, ParseError, SourceLocation
from repro.interp.checksum import checksum_testing
from repro.tsvc import load_kernel
from repro.verdict import Verdict


class TestLexer:
    def test_tokenizes_keywords_identifiers_numbers(self):
        tokens = tokenize("int x = 42;")
        kinds = [t.kind for t in tokens]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT,
                         TokenKind.NUMBER, TokenKind.PUNCT, TokenKind.EOF]

    def test_maximal_munch_on_operators(self):
        tokens = tokenize("a <<= b >= c != d ++ e")
        texts = [t.text for t in tokens if t.kind is TokenKind.PUNCT]
        assert texts == ["<<=", ">=", "!=", "++"]

    def test_skips_comments_and_preprocessor_lines(self):
        source = "#include <immintrin.h>\n// line comment\n/* block */ int x;"
        tokens = tokenize(source)
        assert [t.text for t in tokens if t.kind is not TokenKind.EOF] == ["int", "x", ";"]

    def test_indented_directives_are_skipped(self):
        tokens = tokenize("void f() {\n    #pragma omp simd\n\t# define N 4\n}")
        assert [t.text for t in tokens] == ["void", "f", "(", ")", "{", "}", ""]
        assert tokens[5].location == SourceLocation(4, 1)

    def test_an_indented_pragma_keeps_a_correct_candidate_plausible(self):
        kernel = load_kernel("s000")
        candidate = kernel.source.replace("    for (", "    #pragma omp simd\n    for (", 1)
        assert candidate != kernel.source
        report = checksum_testing(kernel.source, candidate)
        assert report.outcome is Verdict.PLAUSIBLE, report.compile_error

    def test_hex_and_suffixed_literals(self):
        tokens = tokenize("0xFF 10u 3L")
        values = [t.text for t in tokens if t.kind is TokenKind.NUMBER]
        assert values == ["0xFF", "10u", "3L"]

    def test_reports_location(self):
        tokens = tokenize("int\n  foo")
        foo = [t for t in tokens if t.text == "foo"][0]
        assert foo.location.line == 2
        assert foo.location.column == 3

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("int $x;")

    @pytest.mark.parametrize("source", ["1\u0663", "\u0663", "x = 4\u0662;"])
    def test_non_ascii_digits_are_not_number_characters(self, source):
        # "\u0663" (ARABIC-INDIC DIGIT THREE) passes str.isdigit(), and int()
        # would read "1\u0663" as 13; C only has ASCII digits.
        with pytest.raises(LexError):
            tokenize(source)


class TestIntegerLiterals:
    @pytest.mark.parametrize("source, value", [
        ("0", 0), ("00", 0), ("010", 8), ("017u", 15), ("0777L", 511),
    ])
    def test_c_radix_rules(self, source, value):
        literal = parse_expression(source)
        assert isinstance(literal, ast.IntLiteral)
        assert literal.value == value

    @pytest.mark.parametrize("source", ["08", "09", "0128", "0x"])
    def test_invalid_literals_raise_parse_error(self, source):
        with pytest.raises(ParseError, match="invalid numeric literal"):
            parse_expression(source)

    @pytest.mark.parametrize("source, value", [("0.5", 0), ("0.0", 0), ("2.0", 2)])
    def test_float_literals_keep_their_integral_part(self, source, value):
        assert parse_expression(source).value == value


class TestExpressionParsing:
    def test_precedence_of_mul_over_add(self):
        expr = parse_expression("a + b * c")
        assert isinstance(expr, ast.BinOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"

    def test_comparison_and_logical_operators(self):
        expr = parse_expression("a < b && c >= d")
        assert isinstance(expr, ast.BinOp) and expr.op == "&&"

    def test_ternary(self):
        expr = parse_expression("a > 0 ? a : -a")
        assert isinstance(expr, ast.TernaryOp)

    def test_array_subscript_and_call(self):
        expr = parse_expression("_mm256_add_epi32(a[i], b[i + 1])")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 2
        assert isinstance(expr.args[0], ast.ArrayRef)

    def test_cast_of_address(self):
        expr = parse_expression("(__m256i*)&a[i]")
        assert isinstance(expr, ast.Cast)
        assert expr.target_type.is_pointer
        assert isinstance(expr.operand, ast.UnaryOp) and expr.operand.op == "&"

    def test_compound_assignment(self):
        expr = parse_expression("a[i] += b[i] * 2")
        assert isinstance(expr, ast.Assign) and expr.op == "+="

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b extra")


class TestFunctionParsing:
    def test_simple_kernel(self):
        func = parse_function("void f(int n, int *a) { for (int i = 0; i < n; i++) a[i] = i; }")
        assert func.name == "f"
        assert [p.name for p in func.params] == ["n", "a"]
        assert func.params[1].param_type.is_pointer

    def test_multi_declarator_declarations_are_split(self):
        func = parse_function("void f(int n) { __m256i a, b, c; int x = 1, y = 2; }")
        decls = [s for s in func.body.body if isinstance(s, ast.Decl)]
        assert [d.name for d in decls] == ["a", "b", "c", "x", "y"]

    def test_a_block_of_declarations_keeps_its_own_scope(self):
        func = parse_function("void f(int *a) { int x = 0; { int x = 5; } a[0] = x; }")
        outer, inner, _ = func.body.body
        assert isinstance(outer, ast.Decl)
        assert isinstance(inner, ast.Block) and [d.name for d in inner.body] == ["x"]
        printed = to_c(func)
        assert printed.count("int x") == 2 and printed.count("{") == 2
        assert to_c(parse_function(printed)) == printed

    def test_goto_and_labels(self):
        source = """
        void f(int n, int *a) {
            for (int i = 0; i < n; i++) {
                if (a[i] > 0) { goto L20; }
                a[i] = 1;
                goto L30;
                L20:
                a[i] = 2;
                L30:
                ;
            }
        }
        """
        func = parse_function(source)
        gotos = ast.collect(func, ast.Goto)
        labels = ast.collect(func, ast.Label)
        assert {g.label for g in gotos} == {"L20", "L30"}
        assert {label.name for label in labels} == {"L20", "L30"}

    def test_program_with_two_functions(self):
        program = parse_program("void f(int n) { } void g(int n) { }")
        assert [f.name for f in program.functions] == ["f", "g"]
        assert program.function("g").name == "g"

    def test_missing_semicolon_is_an_error(self):
        with pytest.raises(ParseError):
            parse_function("void f(int n) { int x = 1 }")

    def test_parse_function_rejects_multiple_functions(self):
        with pytest.raises(ParseError):
            parse_function("void f(int n) { } void g(int n) { }")


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("source", [
        "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) a[i] = b[i] + 1; }",
        "void f(int n, int *a) { int j = -1; for (int i = 0; i < n; i++) { j++; a[j] = i; } }",
        "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { if (a[i] > 0) b[i] = a[i]; else b[i] = -a[i]; } }",
        "void f(int *a, int *b, int n) { int s = 0; for (int i = 0; i < n; i++) { s += 2; a[i] = s * b[i]; } }",
    ])
    def test_round_trip_is_stable(self, source):
        first = to_c(parse_function(source))
        second = to_c(parse_function(first))
        assert first == second

    def test_parentheses_preserved_where_needed(self):
        expr = parse_expression("(a + b) * c")
        assert expr_to_c(expr) == "(a + b) * c"

    def test_no_redundant_parentheses(self):
        expr = parse_expression("a + b * c")
        assert expr_to_c(expr) == "a + b * c"

    def test_intrinsic_roundtrip(self):
        source = (
            "void f(int n, int *a) {\n"
            "    __m256i v = _mm256_loadu_si256((__m256i*)&a[0]);\n"
            "    _mm256_storeu_si256((__m256i*)&a[0], v);\n"
            "}\n"
        )
        printed = to_c(parse_function(source))
        assert "_mm256_loadu_si256" in printed
        assert "(__m256i*)&a[0]" in printed.replace(" ", "")
