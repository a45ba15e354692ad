import numpy as np
import pytest

import hardymeans as hm
from hardymeans.parser import ParseError, format_mean_expr, parse_mean_expr


class TestParsing:
    def test_power_literal(self):
        assert parse_mean_expr("power(0)") == hm.Power(0.0)
        assert parse_mean_expr("power(-1.5e-3)") == hm.Power(-1.5e-3)
        assert parse_mean_expr("power(+2.5)") == hm.Power(2.5)

    def test_gauss_literal(self):
        expr = parse_mean_expr("gauss(power(-1), power(0))")
        assert expr == hm.Gauss((hm.Power(-1.0), hm.Power(0.0)))

    def test_aliases(self):
        assert parse_mean_expr("arith") == hm.Power(1.0)
        assert parse_mean_expr("geom") == hm.Power(0.0)
        assert parse_mean_expr("harm") == hm.Power(-1.0)

    def test_generators_and_devspecs(self):
        assert parse_mean_expr("quasi(log)") == hm.QuasiArithmetic(hm.LOG)
        assert parse_mean_expr("quasi(pow:0.5)") == hm.QuasiArithmetic(
            hm.power_generator(0.5)
        )
        assert parse_mean_expr("bajrak(pow:2,pow:1)") == hm.Bajraktarevic(
            hm.power_generator(2), hm.power_generator(1)
        )
        assert parse_mean_expr("dev(arith)") == hm.Deviation(hm.ARITHMETIC_DEVIATION)
        assert parse_mean_expr("dev(pair:log,pow:0)") == hm.Deviation(
            hm.PairDeviation(hm.LOG, hm.power_generator(0.0))
        )

    def test_whitespace_insensitive(self):
        a = parse_mean_expr("gauss( power( -1 ) ,  power( 0 ) )")
        b = parse_mean_expr("gauss(power(-1),power(0))")
        assert a == b

    def test_nested_gauss(self):
        text = "gauss(gauss(power(0),power(1)),harm,gini(0.5,-1))"
        expr = parse_mean_expr(text)
        assert isinstance(expr, hm.Gauss) and len(expr.children) == 3


class TestParseErrors:
    def test_gini_arity_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_mean_expr("gini(0.5)")
        assert info.value.position == 9
        assert "','" in info.value.expected

    def test_gauss_needs_two_children(self):
        with pytest.raises(ParseError) as info:
            parse_mean_expr("gauss(power(0))")
        assert "at least two" in str(info.value)

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as info:
            parse_mean_expr("quasi(tanh)")
        assert "unknown generator" in str(info.value)
        assert info.value.position == 7

    def test_unknown_mean(self):
        with pytest.raises(ParseError):
            parse_mean_expr("median(1)")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as info:
            parse_mean_expr("power(0) power(1)")
        assert "trailing" in str(info.value)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            parse_mean_expr("power(0);")
        assert info.value.position == 9

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_mean_expr("   ")

    def test_missing_closing_paren(self):
        with pytest.raises(ParseError) as info:
            parse_mean_expr("power(0")
        assert "')'" in info.value.expected


MEAN_HEADS = (
    "'power'", "'gini'", "'quasi'", "'bajrak'", "'dev'", "'gauss'",
    "'arith'", "'geom'", "'harm'",
)
GENERATOR_NAMES = ("'id'", "'log'", "'exp'", "'pow:'")

# (text, message, 1-based position, expected tokens) for malformed input
DIAGNOSTICS = [
    ('', 'found end of input', 1, ('mean',)),
    ('   ', 'found end of input', 4, ('mean',)),
    ('median(1)', "unknown mean 'median'", 1, MEAN_HEADS),
    ('Power(0)', "unknown mean 'Power'", 1, MEAN_HEADS),
    ('1.5', "found '1.5'", 1, ('mean',)),
    ('(', "found '('", 1, ('mean',)),
    (':', "found ':'", 1, ('mean',)),
    ('id', "unknown mean 'id'", 1, MEAN_HEADS),
    ('pow:1', "unknown mean 'pow'", 1, MEAN_HEADS),
    ('power', 'found end of input', 6, ("'('",)),
    ('power(', 'found end of input', 7, ('number',)),
    ('power()', "found ')'", 7, ('number',)),
    ('power(0', 'found end of input', 8, ("')'",)),
    ('power(0,1)', "found ','", 8, ("')'",)),
    ('power(x)', "found 'x'", 7, ('number',)),
    ('power(1e)', "found 'e'", 8, ("')'",)),
    ('power(--1)', "unexpected character '-'", 7, ()),
    ('  power( x )', "found 'x'", 10, ('number',)),
    ('gini', 'found end of input', 5, ("'('",)),
    ('gini(0.5)', "found ')'", 9, ("','",)),
    ('gini(0.5,)', "found ')'", 10, ('number',)),
    ('gini(,1)', "found ','", 6, ('number',)),
    ('gini(1,2,3)', "found ','", 9, ("')'",)),
    ('gini(1;2)', "unexpected character ';'", 7, ()),
    ('quasi()', "found ')'", 7, ('generator',)),
    ('quasi(tanh)', "unknown generator 'tanh'", 7, GENERATOR_NAMES),
    ('quasi(pow)', "found ')'", 10, ("':'",)),
    ('quasi(pow:)', "found ')'", 11, ('number',)),
    ('quasi(pow:x)', "found 'x'", 11, ('number',)),
    ('quasi(log', 'found end of input', 10, ("')'",)),
    ('quasi(1)', "found '1'", 7, ('generator',)),
    ('quasi(id,id)', "found ','", 9, ("')'",)),
    ('quasi(exp:1)', "found ':'", 10, ("')'",)),
    ('quasi(id', 'found end of input', 9, ("')'",)),
    ('quasi', 'found end of input', 6, ("'('",)),
    ('quasi(ID)', "unknown generator 'ID'", 7, GENERATOR_NAMES),
    ('bajrak(log)', "found ')'", 11, ("','",)),
    ('bajrak(log,)', "found ')'", 12, ('generator',)),
    ('bajrak(pow:2 pow:1)', "found 'pow'", 14, ("','",)),
    ('bajrak(log,sqrt)', "unknown generator 'sqrt'", 12, GENERATOR_NAMES),
    ('bajrak(pow:2,pow:1', 'found end of input', 19, ("')'",)),
    ('bajrak(,log)', "found ','", 8, ('generator',)),
    ('dev', 'found end of input', 4, ("'('",)),
    ('dev()', "found ')'", 5, ("'arith'", "'pair:'")),
    ('dev(geom)', "found 'geom'", 5, ("'arith'", "'pair:'")),
    ('dev(pair)', "found ')'", 9, ("':'",)),
    ('dev(pair:log)', "found ')'", 13, ("','",)),
    ('dev(pair:log,)', "found ')'", 14, ('generator',)),
    ('dev(pair:log,pow:1', 'found end of input', 19, ("')'",)),
    ('dev(arith,1)', "found ','", 10, ("')'",)),
    ('dev(pair:foo,id)', "unknown generator 'foo'", 10, GENERATOR_NAMES),
    ('dev(1)', "found '1'", 5, ("'arith'", "'pair:'")),
    ('dev(arith', 'found end of input', 10, ("')'",)),
    ('dev(pair,log,id)', "found ','", 9, ("':'",)),
    ('gauss', 'found end of input', 6, ("'('",)),
    ('gauss(', 'found end of input', 7, ('mean',)),
    ('gauss(power(0))', "'gauss' needs at least two means", 15, ("','",)),
    ('gauss(power(0)', "'gauss' needs at least two means", 15, ("','",)),
    ('gauss()', "found ')'", 7, ('mean',)),
    ('gauss(power(0),)', "found ')'", 16, ('mean',)),
    ('gauss(power(0),power(1)', 'found end of input', 24, ("')'",)),
    ('gauss(power(0) power(1))', "'gauss' needs at least two means", 16, ("','",)),
    ('gauss(power(0),power(1) power(2))', "found 'power'", 25, ("')'",)),
    ('gauss(harm,geom,median)', "unknown mean 'median'", 17, MEAN_HEADS),
    ('gauss(gauss(power(0)),harm)', "'gauss' needs at least two means", 21, ("','",)),
    ('power(0) power(1)', "trailing input 'power'", 10, ('end',)),
    ('arith)', "trailing input ')'", 6, ('end',)),
    ('arith(1)', "trailing input '('", 6, ('end',)),
    ('power(0)\n,', "trailing input ','", 10, ('end',)),
    ('harm geom', "trailing input 'geom'", 6, ('end',)),
    ('power(0);', "unexpected character ';'", 9, ()),
    ('power(0)  @', "unexpected character '@'", 11, ()),
    ('quasi(log)!', "unexpected character '!'", 11, ()),
    ('\tpower(0)#', "unexpected character '#'", 10, ()),
]


class TestDiagnosticCorpus:
    @pytest.mark.parametrize(
        "text, message, position, expected", DIAGNOSTICS, ids=[c[0] for c in DIAGNOSTICS]
    )
    def test_diagnostic_is_pinned(self, text, message, position, expected):
        with pytest.raises(ParseError) as info:
            parse_mean_expr(text)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        assert str(info.value) == f"{message} at offset {position}{hint}"
        assert info.value.position == position
        assert info.value.expected == expected


PRINTABLE = [
    hm.Power(0.0),
    hm.Power(1.0),
    hm.Power(-2.5),
    hm.Power(0.125),
    hm.Gini(0.5, -1.0),
    hm.Gini(2.0, 2.0),
    hm.QuasiArithmetic(hm.LOG),
    hm.QuasiArithmetic(hm.EXP),
    hm.QuasiArithmetic(hm.IDENTITY),
    hm.QuasiArithmetic(hm.power_generator(-0.5)),
    hm.Bajraktarevic(hm.power_generator(2), hm.power_generator(1)),
    hm.Bajraktarevic(hm.LOG, hm.power_generator(0.0)),
    hm.Deviation(hm.ARITHMETIC_DEVIATION),
    hm.Deviation(hm.PairDeviation(hm.power_generator(2), hm.power_generator(1))),
    hm.Deviation(hm.PairDeviation(hm.power_generator(0.1234562), hm.power_generator(0.1234561))),
    hm.Gauss((hm.Power(-1.0), hm.Power(0.0))),
    hm.Gauss((hm.Gauss((hm.Power(0.0), hm.Power(1.0))), hm.Power(-1.0), hm.Power(0.5))),
]


class TestRoundTrip:
    @pytest.mark.parametrize("expr", PRINTABLE, ids=format_mean_expr)
    def test_parse_after_print_is_identity(self, expr):
        assert parse_mean_expr(format_mean_expr(expr)) == expr

    def test_randomized_trees_round_trip(self):
        rng = np.random.default_rng(99)

        def random_generator():
            kind = rng.integers(4)
            if kind == 0:
                return hm.IDENTITY
            if kind == 1:
                return hm.LOG
            if kind == 2:
                return hm.EXP
            return hm.power_generator(round(float(rng.normal(0, 2)), 3))

        def random_pair(node):
            # a pair that defines no mean is drawn again
            while True:
                f = random_generator()
                g = hm.power_generator(round(float(rng.normal(0, 2)), 3))
                try:
                    return node(f, g)
                except ValueError:
                    continue

        def random_expr(depth):
            kind = rng.integers(6 if depth > 0 else 5)
            if kind == 0:
                return hm.Power(round(float(rng.normal(0, 2)), 3))
            if kind == 1:
                return hm.Gini(
                    round(float(rng.normal(0, 2)), 3),
                    round(float(rng.normal(0, 2)), 3),
                )
            if kind == 2:
                gen = random_generator()
                if not gen.strictly_monotone:
                    gen = hm.LOG
                return hm.QuasiArithmetic(gen)
            if kind == 3:
                return random_pair(hm.Bajraktarevic)
            if kind == 4:
                if rng.integers(2):
                    return hm.Deviation(hm.ARITHMETIC_DEVIATION)
                return random_pair(lambda f, g: hm.Deviation(hm.PairDeviation(f, g)))
            children = tuple(
                random_expr(depth - 1) for _ in range(int(rng.integers(2, 5)))
            )
            return hm.Gauss(children)

        for _ in range(200):
            expr = random_expr(2)
            assert parse_mean_expr(format_mean_expr(expr)) == expr

    def test_unprintable_expressions_rejected(self):
        with pytest.raises(ValueError):
            format_mean_expr(hm.MinOf())
        with pytest.raises(ValueError):
            format_mean_expr(hm.MaxOf())
